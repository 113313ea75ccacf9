"""Tests for the benchmark's own code: spans, statistics, names and wrappers."""

from __future__ import annotations

import json
import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, spans, stats
from perfbench.run import END_TO_END

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def span(span_id, parent_id, name, start, end, trace_id=1, attrs=None):
    return (span_id, trace_id, parent_id, name, start, end, attrs)


# -- self time -------------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    recorded = [
        span(1, None, "root", 0.0, 10.0),
        span(2, 1, "a", 1.0, 4.0),
        span(3, 2, "a.inner", 2.0, 3.0),
        span(4, 1, "b", 5.0, 6.5),
    ]
    selfs = spans.self_times(recorded)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.5)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.5)
    # Self times of one process's nested spans add up to the root's duration.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    recorded = [
        span(1, None, "fanout", 0.0, 10.0),
        span(2, 1, "cell", 1.0, 6.0),  # two workers in parallel
        span(3, 1, "cell", 4.0, 8.0),
        span(4, 1, "cell", 9.0, 12.0),  # ends after its parent: clipped
    ]
    assert spans.self_times(recorded)[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert spans.covered_length([(1, 6), (4, 8), (9, 12)], 0, 10) == pytest.approx(8.0)
    assert spans.covered_length([], 0, 10) == 0.0


def test_aggregate_sums_calls_times_and_attrs():
    recorded = [
        span(1, None, "op.cold", 0.0, 4.0),
        span(2, 1, "serving.sim", 0.0, 1.0, attrs={"requests": 10}),
        span(3, 1, "serving.sim", 1.0, 3.0, attrs={"requests": 30}),
    ]
    layer = layers.aggregate(recorded)["serving.sim"]
    assert layer.calls == 2
    assert layer.inclusive_s == pytest.approx(3.0)
    assert layer.attrs["requests"] == 40
    metrics = layers.layer_metrics(recorded, ops=1, main_pid=0, workers=1)
    assert metrics["serving.sim_requests"] == 40
    assert metrics["serving.sim_us_per_request"] == pytest.approx(1e6 * 3.0 / 40)


def test_fanout_efficiency_is_busy_over_wall_times_workers():
    worker = 7 << 32
    recorded = [
        span(1, None, "op.cold", 0.0, 10.0),
        span(worker + 1, 1, "fanout.cell", 1.0, 5.0),
        span(worker + 2, 1, "fanout.cell", 1.0, 3.0),
    ]
    cells, wall, efficiency = layers.fanout_stats(recorded, main_pid=0, workers=2)
    assert (cells, wall) == (2, pytest.approx(4.0))
    assert efficiency == pytest.approx((4.0 + 2.0) / (4.0 * 2))


def test_forked_worker_spans_reach_the_parent(tmp_path):
    recorder = spans.Recorder(tmp_path)
    with recorder.span("op.cold"):
        parent_id = recorder.stack[-1][0]
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                with recorder.span("fanout.cell"):
                    with recorder.span("serving.sim"):
                        pass
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
    merged = recorder.collect()
    by_name = {record[3]: record for record in merged}
    assert set(by_name) == {"op.cold", "fanout.cell", "serving.sim"}
    assert by_name["fanout.cell"][2] == parent_id
    assert by_name["fanout.cell"][1] == by_name["op.cold"][1]  # one trace id
    assert by_name["serving.sim"][2] == by_name["fanout.cell"][0]


# -- statistics ------------------------------------------------------------------------

def test_median_and_percentile():
    assert stats.timing_summary([3.0, 1.0, 2.0])[0] == 2.0
    assert stats.timing_summary([4.0, 1.0, 2.0, 3.0])[0] == 2.5
    assert stats.percentile(list(range(101)), 95) == pytest.approx(95.0)
    assert stats.percentile([1.0, 2.0], 50) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [(1, None), (39, None), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert count * (1 - expected / 100) >= 10 - 1e-9


def test_timing_summary_states_the_sample_count():
    values = [float(v) for v in range(1, 201)]
    mid, q, tail, count = stats.timing_summary(values)
    assert (mid, q, count) == (100.5, 95.0, 200)
    assert tail == pytest.approx(stats.percentile(values, 95.0))
    assert stats.format_timing([1.0, 2.0, 3.0]).endswith("(n=3)")
    assert "p" not in stats.format_timing([1.0, 2.0, 3.0]).split("(")[0].replace("median", "")


# -- names -----------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "oracle.calls", "trace.overhead_pct", "9x", "a-b"])
def test_valid_names(name):
    assert stats.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "a:b", "x" * 65, "é"])
def test_invalid_names(name):
    assert not stats.valid_name(name)


def _importable(name: str) -> bool:
    import importlib.util

    return importlib.util.find_spec(name) is not None


def test_benchmark_file_matches_the_code():
    spec = json.loads(BENCHMARK.read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [entry["name"] for entry in spec["end_to_end"] + spec["per_layer"]]
    names += [entry["name"] for entry in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(stats.valid_name(name) for name in names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER_METRICS
    )
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    if "repro" in sys.modules or _importable("repro"):
        from perfbench.workloads import WORKLOADS

        assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


# -- wrappers --------------------------------------------------------------------------

@pytest.fixture
def toy_package(monkeypatch):
    """``toypkg.core`` defines a function and a class; ``toypkg.user`` imports both."""
    core = types.ModuleType("toypkg.core")

    def work(x):
        return x + 1

    class Engine:
        def run(self, x):
            return sys.modules["toypkg.core"].work(x) * 2

    work.__module__ = Engine.__module__ = "toypkg.core"
    core.work, core.Engine = work, Engine
    user = types.ModuleType("toypkg.user")
    user.work = work
    for name, module in (("toypkg", types.ModuleType("toypkg")), ("toypkg.core", core),
                         ("toypkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return core, user


def test_wrappers_record_spans_and_are_removed(toy_package):
    core, user = toy_package
    original_work, original_run = core.work, core.Engine.__dict__["run"]
    recorder = spans.Recorder()
    targets = (
        layers.Target("toy.work", "toypkg.core", "work"),
        layers.Target("toy.run", "toypkg.core", "Engine.run"),
    )
    installation = layers.install(recorder, targets)
    assert core.work is not original_work and user.work is core.work
    assert core.Engine().run(1) == 4
    assert user.work(1) == 2
    assert [record[3] for record in recorder.spans] == ["toy.work", "toy.run", "toy.work"]
    layers.remove(installation)
    assert core.work is original_work and user.work is original_work
    assert core.Engine.__dict__["run"] is original_run
    assert core.Engine().run(1) == 4
    assert len(recorder.spans) == 3


def _snapshot():
    """Every attribute of every loaded library module and class, by identity."""
    snapshot = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for name, value in vars(module).items():
            snapshot[(module_name, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snapshot[(module_name, name, attr)] = member
    return snapshot


def test_library_wrappers_are_removed_after_a_traced_run():
    pytest.importorskip("repro")
    import repro.campaign.runner  # noqa: F401  (load every traced module)
    import repro.serving.simulator  # noqa: F401

    before = _snapshot()
    installation = layers.install(spans.Recorder())
    during = _snapshot()
    changed = [key for key in before if during.get(key) is not before[key]]
    assert len(changed) >= len(layers.TARGETS)
    layers.remove(installation)
    after = _snapshot()
    assert all(after[key] is value for key, value in before.items())


# -- correctness helper ----------------------------------------------------------------

def test_non_dominated_mask_matches_pairwise_definition():
    pytest.importorskip("repro")
    from perfbench.workloads import non_dominated_mask

    rng = np.random.default_rng(0)
    matrix = rng.integers(0, 4, size=(40, 3)).astype(float)
    matrix[5] = matrix[6]  # duplicates dominate neither each other
    expected = [
        not any(
            np.all(other <= row) and np.any(other < row) for other in matrix
        )
        for row in matrix
    ]
    assert non_dominated_mask(matrix).tolist() == expected
