"""Pareto analysis of evaluated configurations.

Once the search budget expires, the paper computes a Pareto set over all
generated populations and extracts the preferred dynamic mapping from it
(Sect. V-C); Table II then reports the most latency-oriented ("Ours-L") and
most energy-oriented ("Ours-E") Pareto models.  This module provides the
non-dominated sorting and the selection rules.

Which axes are sorted is no longer hardwired: every function takes an
optional :class:`~repro.search.objectives.ObjectiveSet` (or, for backward
compatibility, a sequence of already-minimised key callables) and defaults to
:data:`~repro.search.objectives.DEFAULT_OBJECTIVES` — the seed's
(latency, energy, -accuracy) behaviour, byte for byte.

Ranking never asks an item for its objectives twice: :func:`pareto_front`
builds the pool's objective matrix with one
:meth:`~repro.search.objectives.ObjectiveSet.matrix` call and compares rows
in numpy, so an expensive extractor (a simulator replay) runs once per item
instead of once per pair.  NSGA-II's non-dominated sorting shares the same
blocked domination helper.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import SearchError
from .evaluation import EvaluatedConfig
from .objectives import (
    as_objective_set,
    energy_oriented_objective,
    latency_oriented_objective,
    nan_guarded,
    serving_oriented_objective,
)

__all__ = [
    "dominates",
    "pareto_front",
    "hypervolume",
    "select_latency_oriented",
    "select_energy_oriented",
    "select_serving_oriented",
    "select_measured_serving",
]


def dominates(
    first: EvaluatedConfig,
    second: EvaluatedConfig,
    objectives=None,
) -> bool:
    """Whether ``first`` Pareto-dominates ``second`` (all objectives minimised).

    The row-wise reference for one pair; ranking a whole pool goes through
    :func:`pareto_front`, which evaluates each item's objectives only once.
    """
    objective_set = as_objective_set(objectives)
    first_values = objective_set.values(first)
    second_values = objective_set.values(second)
    no_worse = all(a <= b for a, b in zip(first_values, second_values))
    strictly_better = any(a < b for a, b in zip(first_values, second_values))
    return no_worse and strictly_better


#: Rows compared per domination block.  A block holds a few ``block x n``
#: boolean arrays (3 MB each for a 12,000-item pool, the paper's 200 x 60
#: budget) instead of ``n x n x d`` broadcast temporaries (~0.5 GB each).
_DOMINATION_BLOCK = 256


def _domination_blocks(
    values: np.ndarray, targets: Optional[np.ndarray] = None
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(start, mask)`` with ``mask[i, j]``: row ``start + i`` dominates target ``j``.

    ``values`` holds one row per candidate, all objectives minimised;
    ``targets`` (default: ``values`` itself) holds the rows they are compared
    against.  A row dominates another when it is no worse in every column and
    strictly better in at least one, so equal rows (and a row against itself)
    never dominate; comparisons against NaN are false, as in :func:`dominates`.
    """
    if targets is None:
        targets = values
    for start in range(0, len(values), _DOMINATION_BLOCK):
        rows = values[start : start + _DOMINATION_BLOCK]
        no_worse = np.ones((len(rows), len(targets)), dtype=bool)
        better = np.zeros((len(rows), len(targets)), dtype=bool)
        for column in range(values.shape[1]):
            mine = rows[:, column, None]
            theirs = targets[:, column]
            no_worse &= mine <= theirs
            better |= mine < theirs
        yield start, no_worse & better


def pareto_front(
    evaluated: Sequence[EvaluatedConfig],
    objectives=None,
) -> list:
    """Non-dominated subset of ``evaluated`` under the given objectives.

    Members keep their input order.  Each item's objectives are extracted
    once, by a single :meth:`~repro.search.objectives.ObjectiveSet.matrix`
    call.
    """
    values = as_objective_set(objectives).matrix(evaluated)
    dominated = np.zeros(len(values), dtype=bool)
    for _, mask in _domination_blocks(values):
        dominated |= mask.any(axis=0)
    return [item for item, hit in zip(evaluated, dominated) if not hit]


def _hv_recursive(points: Sequence[Sequence[float]], reference: Sequence[float]) -> float:
    """Hypervolume by dimension sweep: slabs along the first objective times
    the recursively computed hypervolume of the remaining objectives."""
    if not points:
        return 0.0
    if len(reference) == 1:
        return reference[0] - min(point[0] for point in points)
    ordered = sorted(points)
    total = 0.0
    for index, point in enumerate(ordered):
        upper = ordered[index + 1][0] if index + 1 < len(ordered) else reference[0]
        width = upper - point[0]
        if width <= 0.0:
            continue
        slab = [tuple(other[1:]) for other in ordered[: index + 1]]
        total += width * _hv_recursive(slab, reference[1:])
    return total


def hypervolume(
    evaluated: Sequence[EvaluatedConfig],
    reference: Sequence[float],
    objectives=None,
) -> float:
    """Dominated hypervolume of ``evaluated`` against a reference point.

    All objectives are minimised (the default set is latency, energy and
    negated accuracy); ``reference`` is a point in the same minimised space
    that every interesting candidate should dominate — typically slightly
    worse than the worst observed values.  Candidates that fail to dominate
    the reference in some objective contribute nothing and are dropped.  The
    result grows monotonically as a search discovers better fronts, which is
    what the warm-start convergence benchmark measures.
    """
    objective_set = as_objective_set(objectives)
    reference = tuple(float(value) for value in reference)
    if len(reference) != len(objective_set):
        raise SearchError(
            f"reference point has {len(reference)} coordinates for "
            f"{len(objective_set)} objectives"
        )
    points = set()
    for item in evaluated:
        values = tuple(float(value) for value in objective_set.values(item))
        if all(value < bound for value, bound in zip(values, reference)):
            points.add(values)
    return _hv_recursive(sorted(points), reference)


def _filter_by_accuracy_drop(
    evaluated: Sequence[EvaluatedConfig], max_accuracy_drop: Optional[float]
) -> list:
    if max_accuracy_drop is None:
        return list(evaluated)
    kept = [e for e in evaluated if e.accuracy_drop <= max_accuracy_drop + 1e-9]
    # If nothing satisfies the accuracy gate, fall back to the most accurate
    # candidates rather than failing -- matching how the paper always reports
    # a model per scenario even when hard constraints cost accuracy.
    if not kept:
        best_drop = min(e.accuracy_drop for e in evaluated)
        kept = [e for e in evaluated if e.accuracy_drop <= best_drop + 1e-9]
    return kept


def select_latency_oriented(
    evaluated: Sequence[EvaluatedConfig], max_accuracy_drop: Optional[float] = None
) -> EvaluatedConfig:
    """Pick the "Ours-L" model: lowest latency subject to the accuracy gate."""
    if not evaluated:
        raise SearchError("cannot select from an empty set of configurations")
    candidates = _filter_by_accuracy_drop(evaluated, max_accuracy_drop)
    return min(candidates, key=latency_oriented_objective)


def select_energy_oriented(
    evaluated: Sequence[EvaluatedConfig], max_accuracy_drop: Optional[float] = None
) -> EvaluatedConfig:
    """Pick the "Ours-E" model: lowest energy subject to the accuracy gate."""
    if not evaluated:
        raise SearchError("cannot select from an empty set of configurations")
    candidates = _filter_by_accuracy_drop(evaluated, max_accuracy_drop)
    return min(candidates, key=energy_oriented_objective)


def select_serving_oriented(
    evaluated: Sequence[EvaluatedConfig],
    family=None,
    rate_rps: Optional[float] = None,
    max_accuracy_drop: Optional[float] = None,
) -> EvaluatedConfig:
    """Pick the front member that serves a workload family best.

    Sibling of :func:`select_energy_oriented`: minimises the accuracy-penalised
    M/D/1 sojourn time (service latency plus expected queueing wait) at the
    family's peak request rate, so the pick is the member that still answers
    quickly when the family actually bursts — not just the one that looks
    fastest unloaded.  ``rate_rps`` overrides (or replaces) the family's peak
    rate.  Members whose bottleneck saturates score ``inf`` and lose to any
    member that keeps up.
    """
    if not evaluated:
        raise SearchError("cannot select from an empty set of configurations")
    if rate_rps is None:
        if family is None:
            raise SearchError(
                "select_serving_oriented needs a workload family or an explicit rate_rps"
            )
        rate_rps = family.peak_rate_rps
    rate = float(rate_rps)
    if not rate > 0.0:
        raise SearchError(f"rate_rps must be positive, got {rate_rps}")
    candidates = _filter_by_accuracy_drop(evaluated, max_accuracy_drop)
    return min(candidates, key=lambda item: serving_oriented_objective(item, rate))


def select_measured_serving(
    evaluated: Sequence[EvaluatedConfig],
    platform,
    family,
    duration_ms: float = 400.0,
    seed: int = 0,
    members: int = 3,
    cache=None,
    max_accuracy_drop: Optional[float] = None,
) -> EvaluatedConfig:
    """Pick the front member that *measurably* serves a family best.

    Sibling of :func:`select_serving_oriented` with the M/D/1 proxy replaced
    by the traffic simulator: each candidate is distilled into a deployment
    and the family's busiest member under ``seed`` is replayed through it
    (:func:`~repro.serving.bridge.measured_serving_metrics`), minimising the
    accuracy-penalised measured sojourn time — service latency plus the
    *simulated* mean queueing wait.  Passing the
    :class:`~repro.serving.result_cache.ServingResultCache` used by a
    ``measured_serving_objectives`` search makes the selection free: every
    front member was already simulated during the search.
    """
    from ..serving.bridge import measured_serving_metrics
    from ..serving.families import WorkloadFamily
    from ..serving.result_cache import serving_scenario

    if not evaluated:
        raise SearchError("cannot select from an empty set of configurations")
    if not isinstance(family, WorkloadFamily):
        raise SearchError(
            f"select_measured_serving needs a WorkloadFamily, "
            f"got {type(family).__name__}"
        )
    _, workload, traffic_seed = family.peak_member(
        int(seed), int(members), probe_ms=float(duration_ms)
    )
    candidates = _filter_by_accuracy_drop(evaluated, max_accuracy_drop)
    scenario = serving_scenario(platform, workload, float(duration_ms), traffic_seed)

    def measured_sojourn(item: EvaluatedConfig) -> float:
        accuracy = max(1e-3, item.accuracy)
        accuracy_term = item.dynamic_network.network.base_accuracy / accuracy
        metrics = measured_serving_metrics(
            item,
            platform,
            workload,
            float(duration_ms),
            seed=traffic_seed,
            cache=cache,
            family_name=family.name,
            scenario=scenario,
        )
        return (item.latency_ms + metrics.mean_queueing_ms) * accuracy_term

    return min(candidates, key=nan_guarded(measured_sojourn))
