"""Aggregate serving metrics and the JSONL trace export.

Table II reports average-case latency/energy per isolated sample; a serving
system is judged on distributions: tail latency (p95/p99), sustained
throughput, deadline misses, per-unit utilisation and cumulative energy over
a whole trace.  :func:`compute_metrics` reduces a simulation's per-request
columns to those numbers, and :func:`write_trace_jsonl` exports the raw
records deterministically (sorted keys, shortest-round-trip floats) so a
seeded run always produces a byte-identical trace file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .simulator import RequestRecord, ServingResult

__all__ = [
    "ServingMetrics",
    "metric_direction",
    "compute_metrics",
    "write_trace_jsonl",
    "read_trace_jsonl",
]


def _asc():
    """Field that ranks ascending: smaller is better."""
    return field(metadata={"rank": "asc"})


def _desc():
    """Field that ranks descending: bigger is better."""
    return field(metadata={"rank": "desc"})


@dataclass(frozen=True)
class ServingMetrics:
    """Distributional serving behaviour of one (policy, scenario) run.

    Every numeric quality metric declares its sort direction in the field
    metadata (``rank: "asc"`` for smaller-is-better, ``"desc"`` for
    bigger-is-better); fields without a direction (identifiers, raw trace
    properties) cannot be ranked on.  :func:`metric_direction` is the single
    authority :func:`repro.serving.bridge.rank_under_traffic` consults, so an
    unknown or direction-less name raises instead of silently ranking the
    wrong way.
    """

    policy: str
    num_requests: int
    duration_ms: float
    throughput_rps: float = _desc()
    mean_latency_ms: float = _asc()
    p50_latency_ms: float = _asc()
    p95_latency_ms: float = _asc()
    p99_latency_ms: float = _asc()
    max_latency_ms: float = _asc()
    mean_queueing_ms: float = _asc()
    deadline_miss_rate: float = _asc()
    accuracy: float = _desc()
    mean_stages: float = _asc()
    total_energy_mj: float = _asc()
    energy_per_request_mj: float = _asc()
    mean_in_flight: float = _asc()
    peak_in_flight: int = _asc()
    utilisation: Mapping[str, float] = field(metadata={"rank": None})

    @property
    def completed(self) -> int:
        """Requests that actually finished; ``0`` marks a degenerate run.

        A deployment hot enough to shed (or drop) every request produces no
        completion records at all; rather than NaN means and divide-by-zero
        scores downstream, such runs reduce to :meth:`degenerate` and this
        flag is the single test every consumer (ranking, scoring, reporting)
        checks before trusting the latency/energy aggregates.
        """
        return int(self.num_requests)

    @classmethod
    def degenerate(
        cls,
        policy: str,
        duration_ms: float,
        *,
        mean_in_flight: float = 0.0,
        peak_in_flight: int = 0,
        utilisation: Optional[Mapping[str, float]] = None,
    ) -> "ServingMetrics":
        """The canonical zero-completion aggregate (``completed == 0``).

        Defined once so every empty completion set — a fully shedding fleet
        member, a tenant filter that matches nothing — collapses to the same
        values: latencies and energy-per-request ``inf`` (worst possible on
        every ascending axis), throughput/accuracy ``0.0``, deadline miss
        rate ``1.0``.  Scores derived from these rank the run strictly last
        instead of raising.  In-flight and utilisation statistics stay
        overridable because the *system* state is well-defined even when no
        request completes.
        """
        return cls(
            policy=policy,
            num_requests=0,
            duration_ms=float(duration_ms),
            throughput_rps=0.0,
            mean_latency_ms=float("inf"),
            p50_latency_ms=float("inf"),
            p95_latency_ms=float("inf"),
            p99_latency_ms=float("inf"),
            max_latency_ms=float("inf"),
            mean_queueing_ms=float("inf"),
            deadline_miss_rate=1.0,
            accuracy=0.0,
            mean_stages=0.0,
            total_energy_mj=0.0,
            energy_per_request_mj=float("inf"),
            mean_in_flight=float(mean_in_flight),
            peak_in_flight=int(peak_in_flight),
            utilisation=dict(utilisation or {}),
        )

    def summary_row(self) -> dict:
        """Flat dictionary for :func:`repro.core.report.format_table`."""
        row = {
            "policy": self.policy,
            "requests": self.num_requests,
            "rps": self.throughput_rps,
            "p50_ms": self.p50_latency_ms,
            "p95_ms": self.p95_latency_ms,
            "p99_ms": self.p99_latency_ms,
            "miss_%": 100.0 * self.deadline_miss_rate,
            "acc_%": 100.0 * self.accuracy,
            "mJ/req": self.energy_per_request_mj,
        }
        for name, value in sorted(self.utilisation.items()):
            row[f"util_{name}_%"] = 100.0 * value
        return row


def metric_direction(metric: str) -> str:
    """Sort direction (``"asc"`` or ``"desc"``) declared for ``metric``.

    Raises :class:`~repro.errors.ConfigurationError` for names that are not
    :class:`ServingMetrics` fields (typos, removed fields) or that carry no
    direction (identifiers like ``policy``, mappings like ``utilisation``),
    instead of guessing a direction and silently mis-ranking.
    """
    by_name = {f.name: f for f in fields(ServingMetrics)}
    entry = by_name.get(metric)
    direction = entry.metadata.get("rank") if entry is not None else None
    if direction is None:
        rankable = sorted(
            name for name, f in by_name.items() if f.metadata.get("rank") is not None
        )
        raise ConfigurationError(
            f"unknown or unrankable serving metric {metric!r}; expected one of {rankable}"
        )
    return direction


def _percentile(sorted_values: np.ndarray, q: float) -> float:
    return float(np.percentile(sorted_values, q))


def compute_metrics(
    result: ServingResult, tenant: Optional[str] = None
) -> ServingMetrics:
    """Reduce a :class:`~repro.serving.simulator.ServingResult` to aggregates.

    ``tenant`` restricts the per-request statistics (latency percentiles,
    accuracy, energy, miss rate) to one tenant of a multi-tenant trace;
    utilisation and in-flight statistics always describe the whole system,
    since the hardware is shared.
    """
    rows = slice(None)
    if tenant is not None:
        rows = np.array([request.tenant == tenant for request in result.requests], dtype=bool)
    latency = result.latency_ms[rows]
    if not latency.size:
        # Zero completions (every request shed/dropped, or a tenant filter
        # matching nothing) is a legitimate — if catastrophic — outcome of a
        # saturated deployment; collapse to the canonical degenerate
        # aggregates instead of raising so campaigns rank the cell last.
        return ServingMetrics.degenerate(
            result.policy,
            result.duration_ms,
            mean_in_flight=result.mean_in_flight,
            peak_in_flight=result.peak_in_flight,
            utilisation={
                name: busy / result.duration_ms if result.duration_ms > 0 else 0.0
                for name, busy in result.busy_ms.items()
            },
        )
    # Every reduction sees exactly the values, dtype and element order of
    # the per-record float arrays it was defined over, so the aggregates stay
    # bit-identical (pinned by the serving goldens and the row-wise
    # reference test).
    latencies = np.sort(latency)
    queueing = result.queueing_ms[rows]
    energies = result.energy_mj[rows]
    stages = (result.exit_stage[rows] + 1).astype(float)
    correct = result.correct[rows].astype(float)
    deadlines = result.deadline_ms[rows]
    num_with_deadline = int(np.count_nonzero(~np.isnan(deadlines)))
    missed = int(np.count_nonzero(result.deadline_missed[rows]))
    duration_s = result.duration_ms / 1000.0
    return ServingMetrics(
        policy=result.policy,
        num_requests=latency.size,
        duration_ms=result.duration_ms,
        throughput_rps=latency.size / duration_s if duration_s > 0 else 0.0,
        mean_latency_ms=float(latencies.mean()),
        p50_latency_ms=_percentile(latencies, 50.0),
        p95_latency_ms=_percentile(latencies, 95.0),
        p99_latency_ms=_percentile(latencies, 99.0),
        max_latency_ms=float(latencies[-1]),
        mean_queueing_ms=float(queueing.mean()),
        deadline_miss_rate=missed / num_with_deadline if num_with_deadline else 0.0,
        accuracy=float(correct.mean()),
        mean_stages=float(stages.mean()),
        total_energy_mj=float(energies.sum()),
        energy_per_request_mj=float(energies.mean()),
        mean_in_flight=result.mean_in_flight,
        peak_in_flight=result.peak_in_flight,
        utilisation={
            name: busy / result.duration_ms if result.duration_ms > 0 else 0.0
            for name, busy in result.busy_ms.items()
        },
    )


def _trace_lines(records: Iterable[RequestRecord]) -> Iterable[str]:
    for record in records:
        yield json.dumps(record.to_json_dict(), sort_keys=True, separators=(",", ":"))


def write_trace_jsonl(records: Iterable[RequestRecord], path) -> Path:
    """Write one JSON object per completed request to ``path``.

    Keys are sorted and floats use Python's shortest round-trip repr, so the
    same seeded simulation always writes a byte-identical file.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for line in _trace_lines(records):
            handle.write(line)
            handle.write("\n")
    return target


def read_trace_jsonl(path) -> Tuple[dict, ...]:
    """Load a trace written by :func:`write_trace_jsonl` as plain dicts."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return tuple(json.loads(line) for line in handle if line.strip())
