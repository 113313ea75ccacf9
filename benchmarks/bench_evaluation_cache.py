"""Evaluation-cache persistence: bytes per line and store/load cost per entry.

Every entry an evaluator produces carries the same channel ranking, which
is most of the entry's pickle.  Version-2 cache lines write that ranking
once per file and refer to it afterwards (see :mod:`repro.engine.cache`).
This bench runs a real search per model, persists every entry through an
:class:`~repro.engine.cache.EvaluationCache` and reports, per model:

* bytes per line of the v2 file, next to a plain line that holds the
  whole ``pickle.dumps`` of the entry (the version-1 layout);
* store microseconds per entry (one ``store_many`` into a fresh file, or
  writing the plain lines) and load microseconds per entry (constructing a
  cache over the file), best of a few repeats, for both layouts.

It asserts that the v2 file holds at least 4x fewer bytes per line than
plain lines on visformer (whose ranking is ~90% of an entry) and 2x fewer on
resnet20 (~70%), and that every reloaded entry keeps its components and its
object identities: the config, profile and inference pickle byte-identically
to the fresh entry's, stage sub-layers are the graph's own layers, and all
entries share one ranking object.  Results go to ``BENCH_cache.json``.

``REPRO_CACHE_SMOKE=1`` shrinks the search budget and the repeats (CI smoke
mode) without changing the assertions.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_evaluation_cache.py -q
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import tempfile
import time
from pathlib import Path

from perf_trajectory import emit
from repro.core.framework import MapAndConquer
from repro.core.report import format_table
from repro.engine.cache import EvaluationCache
from repro.nn.models import resnet20, visformer
from repro.soc.platform import jetson_agx_xavier
from repro.soc.presets import mobile_big_little

SMOKE = os.environ.get("REPRO_CACHE_SMOKE", "") == "1"

GENERATIONS = 3 if SMOKE else 8
POPULATION = 10 if SMOKE else 20
REPEATS = 2 if SMOKE else 5

#: (label, network factory, platform factory, minimum bytes-per-line reduction)
CASES = (
    ("visformer/jetson-agx-xavier", visformer, jetson_agx_xavier, 4.0),
    ("resnet20/mobile-big-little", resnet20, mobile_big_little, 2.0),
)


def _plain_line(digest, value) -> str:
    """A version-1 line: the whole entry pickled into the payload."""
    record = {
        "version": 1,
        "key": digest,
        "metrics": {
            "accuracy": value.accuracy,
            "latency_ms": value.latency_ms,
            "energy_mj": value.energy_mj,
            "reuse_fraction": value.reuse_fraction,
        },
        "mapping": value.config.describe(),
        "payload": base64.b64encode(pickle.dumps(value)).decode("ascii"),
    }
    return json.dumps(record, ensure_ascii=False) + "\n"


def _best_us_per_entry(action, entries: int) -> float:
    """Best-of-``REPEATS`` wall time of ``action(repeat)``, per entry, in µs."""
    best = float("inf")
    for repeat in range(REPEATS):
        start = time.perf_counter()
        action(repeat)
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / entries


def _assert_components_survive(entries, reader: EvaluationCache) -> None:
    for digest, fresh in entries:
        loaded = reader.peek(digest)
        for name in ("config", "profile", "inference"):
            assert pickle.dumps(getattr(loaded, name)) == pickle.dumps(getattr(fresh, name))
        assert pickle.dumps(loaded.dynamic_network.ranking) == pickle.dumps(
            fresh.dynamic_network.ranking
        )
        network = loaded.dynamic_network.network
        assert loaded.dynamic_network.scheme.network is network
        for stage in loaded.dynamic_network.stages:
            for index, sublayer in enumerate(stage.sublayers):
                assert sublayer.base is network.layers[index]
    assert len({id(value.dynamic_network.ranking) for _, value in reader.items()}) == 1


def _measure(label, network, platform, min_reduction, work: Path) -> dict:
    framework = MapAndConquer(network, platform, seed=0)
    framework.search(generations=GENERATIONS, population_size=POPULATION, seed=0)
    entries = list(framework.evaluation_cache.items())
    count = len(entries)
    slug = label.replace("/", "_")

    store_us = _best_us_per_entry(
        lambda repeat: EvaluationCache(path=work / f"{slug}-{repeat}.jsonl").store_many(
            entries
        ),
        count,
    )
    path = work / f"{slug}-0.jsonl"
    load_us = _best_us_per_entry(lambda _: EvaluationCache(path=path), count)
    reader = EvaluationCache(path=path)
    assert reader.stats.loaded == count
    _assert_components_survive(entries, reader)

    plain_path = work / f"{slug}-plain.jsonl"
    plain_store_us = _best_us_per_entry(
        lambda _: plain_path.write_text(
            "".join(_plain_line(digest, value) for digest, value in entries), encoding="utf-8"
        ),
        count,
    )
    plain_load_us = _best_us_per_entry(lambda _: EvaluationCache(path=plain_path), count)

    bytes_per_line = path.stat().st_size / count
    plain_bytes_per_line = plain_path.stat().st_size / count
    reduction = plain_bytes_per_line / bytes_per_line
    assert reduction >= min_reduction, (
        f"{label}: v2 lines are only {reduction:.2f}x smaller than plain pickle lines"
    )
    return {
        "entries": count,
        "bytes_per_line": round(bytes_per_line),
        "plain_bytes_per_line": round(plain_bytes_per_line),
        "bytes_reduction_x": round(reduction, 2),
        "store_us_per_entry": round(store_us, 1),
        "plain_store_us_per_entry": round(plain_store_us, 1),
        "load_us_per_entry": round(load_us, 1),
        "plain_load_us_per_entry": round(plain_load_us, 1),
    }


def test_evaluation_cache_format(save_table):
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        results = {
            label: _measure(label, network(), platform(), min_reduction, work)
            for label, network, platform, min_reduction in CASES
        }

    table = format_table([{"model/platform": label, **row} for label, row in results.items()])
    print(table)
    save_table("evaluation_cache", table)
    emit("cache", {"smoke": SMOKE, "generations": GENERATIONS, "population": POPULATION, **results})
