"""Outside-in tracing: wrap the library's public layer boundaries, derive metrics.

Nothing in ``src/`` is changed.  :func:`install` replaces each target in
:data:`TARGETS` with a wrapper that records one span per call into a
:class:`~perfbench.spans.Recorder` (plus a few deterministic counters in the
span's ``attrs``), and rebinds every ``repro.*`` module attribute that held
the original, so names imported with ``from ... import`` are traced too.
:func:`remove` restores every replaced attribute.  Pool workers forked while
the wrappers are installed inherit them and ship their spans back through the
recorder's spool files.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .spans import Recorder, Span, self_times, span_pid
from .stats import format_timing


def _file_size(obj) -> int:
    path = getattr(obj, "path", None)
    try:
        return 0 if path is None else os.path.getsize(path)
    except OSError:
        return 0


def _bytes_before(args, kwargs):
    return _file_size(args[0])


def _bytes_written(args, kwargs, result, before):
    return {"bytes": _file_size(args[0]) - before}


def _pool_size(args, kwargs, result, before):
    return {"pool": len(args[0])}


def _serving_hit(args, kwargs, result, before):
    return {"hits": int(result is not None)}


def _engine_lookups(args, kwargs, result, before):
    if isinstance(result, dict):  # get_many(digests) -> found subset
        return {"lookups": len(args[1]), "hits": len(result)}
    return {"lookups": 1, "hits": int(result is not None)}


def _sim_requests(args, kwargs, result, before):
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    return {"requests": len(requests)}


def _cells_restored(args, kwargs, result, before):
    return {"restored": len(result)}


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module`` plus ``Class.method`` or ``function``."""

    layer: str
    module: str
    qualname: str
    attrs: Optional[Callable] = None
    before: Optional[Callable] = None


#: Layer boundaries, outside in, grouped as in the per-layer metric list.
TARGETS: Tuple[Target, ...] = (
    # oracle
    Target("oracle", "repro.search.evaluation", "ConfigEvaluator.evaluate"),
    Target("nn.multiexit.build", "repro.nn.multiexit", "build_dynamic_network"),
    Target("perf.profile", "repro.perf.evaluator", "MappingEvaluator.profile"),
    Target("perf.schedule", "repro.perf.schedule", "simulate_schedule"),
    Target("dynamics.inference", "repro.dynamics.inference", "simulate_dynamic_inference"),
    Target("engine.backend", "repro.engine.backends", "SerialBackend.evaluate"),
    Target("engine.backend", "repro.engine.backends", "ProcessPoolBackend.evaluate"),
    # ranking and serving digests
    Target("objectives.values", "repro.search.objectives", "ObjectiveSet.values"),
    Target("pareto.front", "repro.search.pareto", "pareto_front", attrs=_pool_size),
    Target("nsga.sort", "repro.engine.nsga", "non_dominated_sort"),
    Target("nsga.crowding", "repro.engine.nsga", "crowding_distance"),
    Target("serving.digest", "repro.serving.result_cache", "serving_digest"),
    Target(
        "serving.cache", "repro.serving.result_cache", "ServingResultCache.lookup",
        attrs=_serving_hit,
    ),
    # simulator
    Target("serving.sim", "repro.serving.simulator", "TrafficSimulator.run", attrs=_sim_requests),
    Target("serving.metrics", "repro.serving.metrics", "compute_metrics"),
    # persistence and caches
    Target(
        "engine.cache.lookup", "repro.engine.cache", "EvaluationCache.get_many",
        attrs=_engine_lookups,
    ),
    Target(
        "engine.cache.lookup", "repro.engine.cache", "EvaluationCache.lookup",
        attrs=_engine_lookups,
    ),
    Target(
        "engine.cache.store", "repro.engine.cache", "EvaluationCache.store_many",
        attrs=_bytes_written, before=_bytes_before,
    ),
    Target(
        "engine.cache.store", "repro.engine.cache", "EvaluationCache.store",
        attrs=_bytes_written, before=_bytes_before,
    ),
    Target("engine.cache.load", "repro.engine.cache", "EvaluationCache._load"),
    Target(
        "checkpoint.append", "repro.campaign.checkpoint", "CampaignCheckpoint._append",
        attrs=_bytes_written, before=_bytes_before,
    ),
    Target(
        "checkpoint.read", "repro.campaign.checkpoint", "CampaignCheckpoint.load",
        attrs=_cells_restored,
    ),
    Target(
        "checkpoint.read", "repro.campaign.checkpoint", "CampaignCheckpoint.load_serving",
        attrs=_cells_restored,
    ),
    # fan-out
    Target("fanout.cell", "repro.campaign.runner", "_run_cell"),
    Target("fanout.cell", "repro.campaign.serving_runner", "_run_serving_cell"),
    Target("fanout.serving", "repro.campaign.runner", "fan_out_cells"),
)


def _wrap(fn: Callable, target: Target, recorder: Recorder) -> Callable:
    layer, attrs_of, before_of = target.layer, target.attrs, target.before

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        opened = recorder.open()
        before = None if before_of is None else before_of(args, kwargs)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(opened, layer, start, perf_counter(), {"error": 1})
            raise
        end = perf_counter()
        attrs = None if attrs_of is None else attrs_of(args, kwargs, result, before)
        recorder.close(opened, layer, start, end, attrs)
        return result

    return traced


class Installation:
    """The attributes :func:`install` replaced, so :func:`remove` can undo them."""

    def __init__(self) -> None:
        self.replaced: List[Tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self.replaced.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)


def install(recorder: Recorder, targets: Sequence[Target] = TARGETS) -> Installation:
    """Wrap every target; returns the handle :func:`remove` needs."""
    installation = Installation()
    wrapped: Dict[int, Callable] = {}
    for target in targets:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        wrapper = _wrap(original, target, recorder)
        installation.set(owner, attr, wrapper)
        if not owner_name:
            wrapped[id(original)] = (original, wrapper)
    # Names bound by ``from module import function`` elsewhere in the library.
    package = targets[0].module.split(".")[0] if targets else ""
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != package:
            continue
        for name, value in list(vars(module).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                installation.set(module, name, entry[1])
    return installation


def remove(installation: Installation) -> None:
    """Restore every attribute :func:`install` replaced (last change first)."""
    while installation.replaced:
        owner, name, original = installation.replaced.pop()
        setattr(owner, name, original)


# -- metrics derived from spans -------------------------------------------------------

@dataclass
class LayerStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)
    attrs: Dict[str, float] = field(default_factory=lambda: defaultdict(float))


def aggregate(spans: Sequence[Span]) -> Dict[str, LayerStats]:
    """Per-layer calls, inclusive and self time, durations and summed attrs."""
    selfs = self_times(spans)
    layers: Dict[str, LayerStats] = defaultdict(LayerStats)
    for span_id, _, _, name, start, end, attrs in spans:
        stats = layers[name]
        stats.calls += 1
        stats.inclusive_s += end - start
        stats.self_s += selfs[span_id]
        stats.durations.append(end - start)
        for key, value in (attrs or {}).items():
            stats.attrs[key] += value
    return layers


def fanout_stats(spans: Sequence[Span], main_pid: int, workers: int) -> Tuple[int, float, float]:
    """``(cells, wall_s, efficiency)`` over the traced cell fan-out phases.

    A phase is the set of outermost cell spans sharing one parent span; its
    wall is first start to last end.  Efficiency is the summed cell busy time
    over wall x workers, where cells run in the main process count one worker.
    """
    by_id = {span[0]: span for span in spans}
    phases: Dict[Optional[int], List[Span]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span[2])
        if span[3] == "fanout.cell" and (parent is None or parent[3] != "fanout.cell"):
            phases[span[2]].append(span)
    cells = wall = capacity = busy = 0.0
    for members in phases.values():
        phase_wall = max(s[5] for s in members) - min(s[4] for s in members)
        in_main = all(span_pid(s[0]) == main_pid for s in members)
        used = 1 if in_main else min(workers, len(members))
        cells += len(members)
        wall += phase_wall
        capacity += phase_wall * used
        busy += sum(s[5] - s[4] for s in members)
    return int(cells), wall, (busy / capacity if capacity > 0 else 0.0)


#: Per-layer metric -> (unit, better), in the order BENCHMARK.json lists them.
PER_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("oracle.calls", "count", "lower"),
    ("oracle.busy_s", "s", "lower"),
    ("nn.multiexit.build_s", "s", "lower"),
    ("perf.profile_s", "s", "lower"),
    ("perf.schedule_s", "s", "lower"),
    ("dynamics.inference_s", "s", "lower"),
    ("engine.backend.batches", "count", "lower"),
    ("objectives.values_calls", "count", "lower"),
    ("objectives.values_s", "s", "lower"),
    ("pareto.final_front_s", "s", "lower"),
    ("pareto.pool_size", "count", "lower"),
    ("nsga.sort_s", "s", "lower"),
    ("nsga.crowding_s", "s", "lower"),
    ("serving.digest_calls", "count", "lower"),
    ("serving.digest_s", "s", "lower"),
    ("serving.cache_lookups", "count", "lower"),
    ("serving.cache_hit_ratio", "ratio", "higher"),
    ("serving.sim_runs", "count", "lower"),
    ("serving.sim_s", "s", "lower"),
    ("serving.sim_requests", "count", "lower"),
    ("serving.sim_us_per_request", "us", "lower"),
    ("serving.metrics_s", "s", "lower"),
    ("engine.cache.lookups", "count", "lower"),
    ("engine.cache.hit_ratio", "ratio", "higher"),
    ("engine.cache.store_s", "s", "lower"),
    ("engine.cache.load_s", "s", "lower"),
    ("engine.cache.bytes_written", "bytes", "lower"),
    ("checkpoint.append_s", "s", "lower"),
    ("checkpoint.read_s", "s", "lower"),
    ("checkpoint.bytes_written", "bytes", "lower"),
    ("checkpoint.cells_restored", "count", "higher"),
    ("fanout.cells", "count", "lower"),
    ("fanout.wall_s", "s", "lower"),
    ("fanout.efficiency", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def layer_metrics(
    spans: Sequence[Span], ops: int, main_pid: int, workers: int
) -> Dict[str, float]:
    """Per-operation layer metrics (``trace.*`` excluded) from merged spans.

    ``*_s`` figures are self time (span minus children), except
    ``oracle.busy_s``, which is the oracle's inclusive busy time.
    """
    layers = aggregate(spans)

    def get(name: str) -> LayerStats:
        return layers.get(name) or LayerStats()

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    sim = get("serving.sim")
    serving_cache = get("serving.cache")
    engine_lookup = get("engine.cache.lookup")
    front = get("pareto.front")
    cells, wall, efficiency = fanout_stats(spans, main_pid, workers)
    per_op = {
        "oracle.calls": get("oracle").calls,
        "oracle.busy_s": get("oracle").inclusive_s,
        "nn.multiexit.build_s": get("nn.multiexit.build").self_s,
        "perf.profile_s": get("perf.profile").self_s,
        "perf.schedule_s": get("perf.schedule").self_s,
        "dynamics.inference_s": get("dynamics.inference").self_s,
        "engine.backend.batches": get("engine.backend").calls,
        "objectives.values_calls": get("objectives.values").calls,
        "objectives.values_s": get("objectives.values").self_s,
        "pareto.final_front_s": front.self_s,
        "nsga.sort_s": get("nsga.sort").self_s,
        "nsga.crowding_s": get("nsga.crowding").self_s,
        "serving.digest_calls": get("serving.digest").calls,
        "serving.digest_s": get("serving.digest").self_s,
        "serving.cache_lookups": serving_cache.calls,
        "serving.sim_runs": sim.calls,
        "serving.sim_s": sim.self_s,
        "serving.sim_requests": sim.attrs["requests"],
        "serving.metrics_s": get("serving.metrics").self_s,
        "engine.cache.lookups": engine_lookup.attrs["lookups"],
        "engine.cache.store_s": get("engine.cache.store").self_s,
        "engine.cache.load_s": get("engine.cache.load").self_s,
        "engine.cache.bytes_written": get("engine.cache.store").attrs["bytes"],
        "checkpoint.append_s": get("checkpoint.append").self_s,
        "checkpoint.read_s": get("checkpoint.read").self_s,
        "checkpoint.bytes_written": get("checkpoint.append").attrs["bytes"],
        "checkpoint.cells_restored": get("checkpoint.read").attrs["restored"],
        "fanout.cells": cells,
        "fanout.wall_s": wall,
    }
    metrics = {name: float(value) / ops for name, value in per_op.items()}
    metrics["pareto.pool_size"] = ratio(front.attrs["pool"], front.calls)
    metrics["serving.cache_hit_ratio"] = ratio(serving_cache.attrs["hits"], serving_cache.calls)
    metrics["serving.sim_us_per_request"] = 1e6 * ratio(sim.inclusive_s, sim.attrs["requests"])
    metrics["engine.cache.hit_ratio"] = ratio(
        engine_lookup.attrs["hits"], engine_lookup.attrs["lookups"]
    )
    metrics["fanout.efficiency"] = efficiency
    return metrics


def layer_table(spans: Sequence[Span], ops: int) -> str:
    """Per-layer table, per operation, sorted by self time (largest first)."""
    layers = aggregate(spans)
    total_self = sum(stats.self_s for stats in layers.values()) or 1.0
    lines = [
        f"{'layer':<22}{'calls/op':>11}{'incl s/op':>11}{'self s/op':>11}{'share':>8}  per call",
    ]
    for name, stats in sorted(layers.items(), key=lambda item: -item[1].self_s):
        per_call = (
            format_timing(stats.durations, 1e6, "us") if stats.calls >= 2 * ops else ""
        )
        lines.append(
            f"{name:<22}{stats.calls / ops:>11.1f}{stats.inclusive_s / ops:>11.4f}"
            f"{stats.self_s / ops:>11.4f}{100.0 * stats.self_s / total_self:>7.1f}%  {per_call}"
        )
    return "\n".join(lines)
