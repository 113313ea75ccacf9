"""Fault injection against the three users of the shared JSONL record store.

:class:`~repro.engine.cache.EvaluationCache`,
:class:`~repro.serving.result_cache.ServingResultCache` and
:class:`~repro.campaign.checkpoint.CampaignCheckpoint` persist through one
:class:`~repro.jsonl_store.JsonlStore`.  Every test here runs against all
three, through their public write and reload paths, so the persistence
contract cannot drift apart between them again:

* a missing file loads nothing; blank lines are passed over silently;
* a truncated trailing line (also one cut inside a multi-byte character),
  non-JSON lines, JSON values that are not objects, unknown versions,
  records without their key, and undecodable or wrongly typed payloads are
  skipped, counted and reported in one warning, never fatal;
* the first line per key wins and is counted once;
* handles appending to one path accumulate; a clean load does not warn.
"""

from __future__ import annotations

import base64
import json
import logging
import pickle
import re

import pytest

from repro.campaign.checkpoint import CampaignCheckpoint, CellExpectation
from repro.engine.cache import EvaluationCache
from repro.search.evolutionary import SearchResult
from repro.serving.metrics import ServingMetrics
from repro.serving.result_cache import ServingResultCache

#: Entry keys the tests store; the non-ASCII one lets a cut land mid-character.
KEYS = ("ключ-a", "b", "c")


class _EvaluationUser:
    logger = "repro.engine.cache"
    key_field = "key"

    def __init__(self, values):
        self.values = values  # two distinct EvaluatedConfigs

    def file(self, directory):
        return directory / "evaluations.jsonl"

    def handle(self, directory):
        return EvaluationCache(path=self.file(directory))

    def put(self, handle, key, which):
        handle.store(key, self.values[which])

    def reload(self, directory):
        cache = EvaluationCache(path=self.file(directory))
        return {key: self._which(value) for key, value in cache.items()}, cache.stats.loaded

    def _which(self, value):
        return [v.latency_ms for v in self.values].index(value.latency_ms)


class _ServingUser:
    logger = "repro.serving.result_cache"
    key_field = "key"

    values = tuple(ServingMetrics.degenerate("static", duration) for duration in (1e3, 2e3))

    def file(self, directory):
        return directory / "serving.jsonl"

    def handle(self, directory):
        return ServingResultCache(path=self.file(directory))

    def put(self, handle, key, which):
        handle.store(key, self.values[which], family="steady-poisson")

    def reload(self, directory):
        cache = ServingResultCache(path=self.file(directory))
        durations = [value.duration_ms for value in self.values]
        found = {key: durations.index(value.duration_ms) for key, value in cache.items()}
        return found, cache.stats.loaded


class _CheckpointUser:
    logger = "repro.campaign.checkpoint"
    key_field = "platform"
    seed = 5

    def __init__(self, evaluated):
        self.values = tuple(
            SearchResult(
                history=(value,), feasible=(value,), pareto=(value,), best=value, generations=()
            )
            for value in evaluated
        )

    def file(self, directory):
        return directory / CampaignCheckpoint.FILENAME

    def handle(self, directory):
        return CampaignCheckpoint(directory, seed=self.seed)

    def put(self, handle, key, which):
        handle.store((key, "s"), CellExpectation(fingerprint="f"), self.values[which])

    def reload(self, directory):
        checkpoint = CampaignCheckpoint(directory, seed=self.seed)
        restored = checkpoint.load(
            {(key, "s"): CellExpectation(fingerprint="f") for key in KEYS}
        )
        latencies = [value.best.latency_ms for value in self.values]
        found = {
            cell[0]: latencies.index(result.best.latency_ms) for cell, result in restored.items()
        }
        assert checkpoint.stats.restored == len(restored)
        self.malformed = checkpoint.stats.malformed
        return found, checkpoint.stats.restored


@pytest.fixture(params=["evaluation", "serving", "checkpoint"])
def user(request, tiny_config_evaluator, tiny_space):
    if request.param == "serving":
        return _ServingUser()
    evaluated = tuple(tiny_config_evaluator.evaluate(tiny_space.sample(seed)) for seed in (0, 1))
    assert evaluated[0].latency_ms != evaluated[1].latency_ms
    if request.param == "evaluation":
        return _EvaluationUser(evaluated)
    return _CheckpointUser(evaluated)


def _line(user, directory, key, which=0, drop=(), **fields):
    """A record ``user`` writes for ``key``, with ``fields`` replaced and ``drop`` removed."""
    scratch = directory / "scratch"
    user.put(user.handle(scratch), key, which)
    record = json.loads(user.file(scratch).read_text(encoding="utf-8").splitlines()[-1])
    user.file(scratch).unlink()
    record.update(fields)
    for name in drop:
        del record[name]
    return json.dumps(record, ensure_ascii=False)


def _append_lines(path, lines):
    with path.open("a", encoding="utf-8") as stream:
        stream.writelines(line + "\n" for line in lines)


def _reload_logged(user, directory, caplog):
    with caplog.at_level(logging.WARNING, logger=user.logger):
        found, loaded = user.reload(directory)
    return found, loaded, " ".join(record.getMessage() for record in caplog.records)


def _b64(data):
    return base64.b64encode(data).decode("ascii")


def _skipped(user, message):
    """Lines the warning says were skipped (also the checkpoint's stats)."""
    match = re.search(r"skipped (\d+) malformed", message)
    count = int(match.group(1)) if match else 0
    assert getattr(user, "malformed", count) == count
    return count


def test_missing_file_loads_nothing(user, tmp_path):
    assert user.reload(tmp_path) == ({}, 0)
    assert not user.file(tmp_path).exists()


def test_blank_lines_are_passed_over_silently(user, tmp_path, caplog):
    user.put(user.handle(tmp_path), KEYS[0], 0)
    _append_lines(user.file(tmp_path), ["", "   ", "\t"])
    user.put(user.handle(tmp_path), KEYS[1], 1)
    found, loaded, message = _reload_logged(user, tmp_path, caplog)
    assert found == {KEYS[0]: 0, KEYS[1]: 1}
    assert loaded == 2
    assert message == ""


@pytest.mark.parametrize("cut", ["half", "mid-character"])
def test_truncated_trailing_line_is_recovered_and_logged(user, tmp_path, caplog, cut):
    """A crash mid-append leaves part of the last line and no newline."""
    handle = user.handle(tmp_path)
    user.put(handle, KEYS[1], 0)
    user.put(handle, KEYS[0], 1)
    path = user.file(tmp_path)
    data = path.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    if cut == "half":
        end = last + (len(data) - last) // 2
    else:  # inside the two-byte encoding of the key's first letter
        end = data.index(KEYS[0].encode("utf-8"), last) + 1
    path.write_bytes(data[:end])

    found, loaded, message = _reload_logged(user, tmp_path, caplog)
    assert found == {KEYS[1]: 0}
    assert loaded == 1
    assert "recovered 1 entries" in message
    assert _skipped(user, message) == 1


def test_non_json_and_non_object_lines_are_skipped(user, tmp_path, caplog):
    user.put(user.handle(tmp_path), KEYS[0], 0)
    _append_lines(
        user.file(tmp_path),
        ["{not json}", "not json at all", "[1, 2]", '"foreign"', "42", "null"],
    )
    found, loaded, message = _reload_logged(user, tmp_path, caplog)
    assert found == {KEYS[0]: 0}
    assert loaded == 1
    assert _skipped(user, message) == 6


def test_unknown_version_is_skipped(user, tmp_path, caplog):
    user.put(user.handle(tmp_path), KEYS[0], 0)
    _append_lines(
        user.file(tmp_path),
        [_line(user, tmp_path, KEYS[1], version=99), json.dumps({"version": 99}), json.dumps({})],
    )
    found, loaded, message = _reload_logged(user, tmp_path, caplog)
    assert found == {KEYS[0]: 0}
    assert loaded == 1
    assert _skipped(user, message) == 3


def test_undecodable_and_wrongly_typed_payloads_are_skipped(user, tmp_path, caplog):
    user.put(user.handle(tmp_path), KEYS[0], 0)
    _append_lines(
        user.file(tmp_path),
        [
            _line(user, tmp_path, KEYS[1], payload="!!! not base64 !!!"),
            _line(user, tmp_path, KEYS[1], payload=_b64(b"not a pickle")),
            _line(user, tmp_path, KEYS[1], payload=_b64(pickle.dumps([1, 2]))),
            _line(user, tmp_path, KEYS[1], payload=None),
            _line(user, tmp_path, KEYS[1], drop=("payload",)),
            _line(user, tmp_path, KEYS[1], drop=(user.key_field,)),
        ],
    )
    found, loaded, message = _reload_logged(user, tmp_path, caplog)
    assert found == {KEYS[0]: 0}
    assert loaded == 1
    assert "recovered 1 entries" in message
    assert _skipped(user, message) == 6


def test_duplicate_lines_keep_the_first_and_count_once(user, tmp_path):
    """Two handles on one path store one key with different values."""
    first, second = user.handle(tmp_path), user.handle(tmp_path)
    user.put(first, KEYS[0], 0)
    user.put(second, KEYS[0], 1)
    user.put(second, KEYS[1], 1)
    assert len(user.file(tmp_path).read_text(encoding="utf-8").splitlines()) == 3

    found, loaded = user.reload(tmp_path)
    assert found == {KEYS[0]: 0, KEYS[1]: 1}
    assert loaded == 2


def test_two_handles_appending_to_one_path_accumulate(user, tmp_path, caplog):
    first, second = user.handle(tmp_path), user.handle(tmp_path)
    user.put(first, KEYS[0], 0)
    user.put(second, KEYS[1], 1)
    user.put(first, KEYS[2], 1)
    found, loaded, message = _reload_logged(user, tmp_path, caplog)
    assert found == {KEYS[0]: 0, KEYS[1]: 1, KEYS[2]: 1}
    assert loaded == 3
    assert message == ""


def test_clean_load_does_not_warn(user, tmp_path, caplog):
    handle = user.handle(tmp_path)
    for which, key in enumerate(KEYS[:2]):
        user.put(handle, key, which)
    found, loaded, message = _reload_logged(user, tmp_path, caplog)
    assert found == {KEYS[0]: 0, KEYS[1]: 1}
    assert loaded == 2
    assert message == ""
