"""Bridge between the mapping search and the traffic simulator.

The search engine ranks configurations by isolated average-case latency and
energy (Eq. 16); under real traffic the right ranking can differ — a mapping
whose bottleneck stage saturates first queues earlier and blows up its tail
latency long before its *average* degrades.  :func:`rank_under_traffic`
replays one seeded scenario against every candidate (same arrivals, same
difficulty stream) and re-ranks by a simulated serving metric such as
p99-under-load, so ``MapAndConquer.search`` results can be deployed on
distributional evidence instead of per-sample expectations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..dynamics.controller import ThresholdExitController
from ..errors import ConfigurationError
from ..soc.platform import Platform
from .metrics import ServingMetrics, compute_metrics, metric_direction
from .policies import Deployment, ServingPolicy, StaticPolicy
from .result_cache import ServingResultCache, serving_digest
from .simulator import ServingResult, TrafficSimulator
from .workload import ArrivalProcess, Request

__all__ = [
    "TrafficRanking",
    "simulate_deployment",
    "measured_serving_metrics",
    "rank_under_traffic",
]


@dataclass(frozen=True)
class TrafficRanking:
    """One candidate's simulated serving behaviour under the shared scenario."""

    candidate: object
    deployment: Deployment
    result: ServingResult
    metrics: ServingMetrics

    def score(self, metric: str) -> float:
        """Value of ``metric`` for this candidate.

        Only metrics with a declared sort direction are accepted; a typo or a
        direction-less field raises :class:`~repro.errors.ConfigurationError`.
        """
        metric_direction(metric)
        return float(getattr(self.metrics, metric))


def _resolve_requests(
    workload: Union[ArrivalProcess, Sequence[Request]],
    duration_ms: Optional[float],
    seed,
) -> Tuple[Request, ...]:
    if isinstance(workload, ArrivalProcess):
        if duration_ms is None:
            raise ConfigurationError(
                "duration_ms is required when passing an ArrivalProcess"
            )
        return workload.generate(duration_ms, seed=seed)
    requests = tuple(workload)
    if not requests:
        raise ConfigurationError("the request stream is empty")
    return requests


def simulate_deployment(
    candidate,
    platform: Platform,
    workload: Union[ArrivalProcess, Sequence[Request]],
    duration_ms: Optional[float] = None,
    policy: Optional[ServingPolicy] = None,
    controller: Optional[ThresholdExitController] = None,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    name: Optional[str] = None,
) -> ServingResult:
    """Simulate one searched mapping (or ready deployment) under traffic.

    ``candidate`` may be an :class:`~repro.search.evaluation.EvaluatedConfig`
    (distilled via :meth:`Deployment.from_evaluated`), a
    :class:`~repro.serving.policies.Deployment`, or omitted implicitly by
    passing a ``policy`` that already carries its deployments.
    """
    if policy is None:
        deployment = (
            candidate
            if isinstance(candidate, Deployment)
            else Deployment.from_evaluated(candidate, name=name)
        )
        policy = StaticPolicy(deployment)
    simulator = TrafficSimulator(
        platform=platform,
        policy=policy,
        controller=controller,
        seed=_simulation_seed(seed),
        deadline_ms=deadline_ms,
    )
    requests = _resolve_requests(workload, duration_ms, seed)
    return simulator.run(requests, duration_ms=duration_ms)


def measured_serving_metrics(
    candidate,
    platform: Platform,
    workload: Union[ArrivalProcess, Sequence[Request]],
    duration_ms: float,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    cache: Optional[ServingResultCache] = None,
    family_name: str = "",
    name: Optional[str] = None,
    policy: Optional[ServingPolicy] = None,
    policy_tag: str = "static",
    scenario: Optional[str] = None,
) -> ServingMetrics:
    """Measured serving behaviour of one candidate, simulated at most once.

    The cache-aware entry point behind ``measured_serving_objectives`` and
    the measured campaign replays: the candidate is distilled into a
    :class:`~repro.serving.policies.Deployment`, keyed by
    :func:`~repro.serving.result_cache.serving_digest` (deployment content x
    platform x workload x seed x replay budget x ``policy_tag``) and only
    simulated on a cache miss.  A surviving NSGA-II parent is ranked again
    every generation and once more in the final front; with a shared
    :class:`~repro.serving.result_cache.ServingResultCache` each distinct
    deployment pays for exactly one replay — and serving-campaign replays of
    deployments the search already measured pay for none.

    ``policy`` replays an adaptive :class:`~repro.serving.policies.ServingPolicy`
    (switcher, DVFS governor) instead of pinning the candidate statically; the
    caller must then pass a ``policy_tag`` that identifies the policy *and*
    the deployment set it switches over, since the digest still keys on the
    anchor ``candidate``.

    ``scenario`` is the precomputed
    :func:`~repro.serving.result_cache.serving_scenario` of this call's
    platform, workload and budget, for callers replaying one scenario
    against many candidates.
    """
    deployment = (
        candidate
        if isinstance(candidate, Deployment)
        else Deployment.from_evaluated(candidate, name=name)
    )
    digest = None
    if cache is not None:
        digest = serving_digest(
            deployment,
            platform,
            workload,
            duration_ms,
            seed,
            deadline_ms=deadline_ms,
            policy_tag=policy_tag,
            scenario=scenario,
        )
        hit = cache.lookup(digest)
        if hit is not None:
            return hit
    result = simulate_deployment(
        deployment if policy is None else None,
        platform,
        workload,
        duration_ms,
        policy=policy,
        seed=seed,
        deadline_ms=deadline_ms,
    )
    metrics = compute_metrics(result)
    if cache is not None:
        cache.store(digest, metrics, family=family_name)
    return metrics


def rank_under_traffic(
    candidates: Sequence,
    platform: Platform,
    workload: Union[ArrivalProcess, Sequence[Request]],
    duration_ms: Optional[float] = None,
    metric: str = "p99_latency_ms",
    controller: Optional[ThresholdExitController] = None,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
) -> List[TrafficRanking]:
    """Re-rank searched mappings by a simulated serving metric.

    Every candidate faces the *same* request stream (arrivals are generated
    once from ``seed``) and the same per-request difficulty/noise stream (the
    simulator is re-seeded identically per candidate), so differences in the
    chosen ``metric`` are attributable to the mappings alone.  Returns
    rankings sorted best-first.
    """
    if not candidates:
        raise ConfigurationError("rank_under_traffic needs at least one candidate")
    # Resolve the declared sort direction up front: unknown or direction-less
    # metric names fail here, before any simulation work.
    reverse = metric_direction(metric) == "desc"
    requests = _resolve_requests(workload, duration_ms, seed)
    rankings = []
    for position, candidate in enumerate(candidates):
        deployment = (
            candidate
            if isinstance(candidate, Deployment)
            else Deployment.from_evaluated(candidate, name=f"pareto-{position}")
        )
        simulator = TrafficSimulator(
            platform=platform,
            policy=StaticPolicy(deployment),
            controller=controller,
            seed=_simulation_seed(seed),
            deadline_ms=deadline_ms,
        )
        result = simulator.run(requests, duration_ms=duration_ms)
        rankings.append(
            TrafficRanking(
                candidate=candidate,
                deployment=deployment,
                result=result,
                metrics=compute_metrics(result),
            )
        )
    rankings.sort(key=lambda ranking: ranking.score(metric), reverse=reverse)
    return rankings


def _simulation_seed(seed: int) -> np.random.Generator:
    """Decorrelate the simulator's stream from the workload's arrival stream."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), 0x5E57]))
