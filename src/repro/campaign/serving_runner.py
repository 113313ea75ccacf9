"""Serving campaigns: rank platforms by how they serve traffic families.

:func:`repro.campaign.runner.run_campaign` answers "which mapping is
Pareto-optimal on which platform?" from isolated per-sample averages, and
its optional traffic re-rank replays at most *one* shared scenario.  This
module asks the deployment question instead: **which platform should serve
this traffic?**  :func:`run_serving_campaign`

1. searches every platform exactly like ``run_campaign`` (one scenario,
   shared cache, checkpointing, cell parallelism, warm starts all apply),
2. expands every :class:`~repro.serving.families.WorkloadFamily` into ``n``
   seeded member scenarios (:meth:`~repro.serving.families.WorkloadFamily.expand`),
3. deploys each platform's Pareto front under every member via
   :func:`repro.serving.bridge.rank_under_traffic` (the front member best on
   the ranking metric wins that member), and
4. aggregates each ``(platform, family)`` cell into a
   :class:`ServingCellResult` — p50/p95/p99 under load, deadline-miss rate,
   joules per request and the headline **served-p99-per-joule** score —
   forming a traffic-portability matrix over platforms x families.

served-p99-per-joule
--------------------
Per family member, the winning deployment serves
``1000 / energy_per_request_mj`` requests per joule at a tail latency of
``p99_latency_ms``; its score is requests-per-joule *discounted by that
tail*::

    score = (1000 / energy_per_request_mj) / p99_latency_ms

A platform only scores highly when it is simultaneously energy-frugal and
tail-tight under contention — an energy-optimal board whose queues blow up
under bursts loses exactly where it should.  The cell score is the geometric
mean over the family's members (scores are ratio-scaled, so the geometric
mean keeps one pathological member from drowning the rest linearly).

the policy axis
---------------
``policies=("static", "switcher", "dvfs-governor")`` additionally replays
every member's request stream through the adaptive runtime policies, built
deterministically over the member's best static winner and the deployed
front (:func:`repro.serving.policies.build_policy`).  Each cell then carries
one :class:`PolicyOutcome` per (member, policy), and
:meth:`ServingCampaignResult.adaptivity_wins` answers the deployment
question the static sweep cannot: *when does runtime adaptivity beat the
best static point?*  The static baseline is the ranked winner itself, so a
governor win is against the strongest static choice for that exact traffic.

Like the search campaign, everything is seed-deterministic: member
parameters and traffic seeds derive from ``(seed, family name, index)``
only, so serial, cell-parallel and checkpoint-resumed sweeps render a
byte-identical :func:`repro.core.report.traffic_ranking_summary`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..dynamics.accuracy import AccuracyModel
from ..dynamics.samples import DEFAULT_VALIDATION_SAMPLES
from ..engine.cache import EvaluationCache
from ..engine.surrogate import SurrogateSettings
from ..errors import ConfigurationError
from ..nn.graph import NetworkGraph
from ..search.evaluation import EvaluatedConfig
from ..search.objectives import MeasuredObjectives, ObjectiveSet
from ..serving.bridge import (
    measured_serving_metrics,
    rank_under_traffic,
    simulate_deployment,
)
from ..serving.families import WorkloadFamily, member_traffic_seed, resolve_families
from ..serving.metrics import ServingMetrics, compute_metrics, metric_direction
from ..serving.policies import POLICY_KINDS, Deployment, build_policy
from ..serving.result_cache import (
    ServingResultCache,
    deployment_digest,
    resolve_serving_cache,
    serving_cache_path,
    serving_scenario,
)
from ..soc.platform import Platform
from ..utils import check_positive, geometric_mean
from .checkpoint import (
    CampaignCheckpoint,
    CellExpectation,
    ServingCellKey,
    campaign_fingerprint,
)
from .runner import (
    CampaignResult,
    CampaignScenario,
    CellOutcome,
    _resolve_platforms,
    fan_out_cells,
    run_campaign,
)

__all__ = [
    "MemberOutcome",
    "PolicyOutcome",
    "ServingCellResult",
    "ServingCampaignResult",
    "run_serving_campaign",
    "served_p99_per_joule",
]


def served_p99_per_joule(metrics: ServingMetrics) -> float:
    """Requests-per-joule discounted by the p99 tail, 0.0 when degenerate.

    The single definition of the headline score *and* of its degenerate
    case: a replay that completed nothing
    (:attr:`~repro.serving.metrics.ServingMetrics.completed` ``== 0``), or
    whose energy-per-request / p99 is zero, non-finite or otherwise
    score-breaking, scores ``0.0`` — strictly below every real outcome — so
    saturated cells rank last instead of raising ``ZeroDivisionError`` (or
    tripping :func:`repro.utils.geometric_mean` on a non-positive value)
    and killing the whole campaign.
    """
    if metrics.completed == 0:
        return 0.0
    energy = metrics.energy_per_request_mj
    p99 = metrics.p99_latency_ms
    if not (0.0 < energy < math.inf) or not (0.0 < p99 < math.inf):
        return 0.0
    requests_per_joule = 1000.0 / energy
    return requests_per_joule / p99


def _score_geometric_mean(scores: Sequence[float]) -> float:
    """Geometric mean of member scores; 0.0 as soon as any member is degenerate.

    ``geometric_mean`` rightly rejects non-positive values — but a member
    that shed everything scores exactly 0.0 by convention, and one drowned
    member must sink the whole cell (a platform is only as good as its worst
    family member), so the cell collapses to 0.0 instead of raising.
    """
    values = [float(score) for score in scores]
    if any(value <= 0.0 for value in values):
        return 0.0
    return geometric_mean(values)


@dataclass(frozen=True)
class MemberOutcome:
    """One family member replayed against one platform's front.

    ``winner`` is the deployment (front member) that ranked best on the
    campaign's serving metric under this member's traffic; ``metrics`` are
    that winner's aggregates for the replay.
    """

    label: str
    traffic_seed: int
    winner: str
    metrics: ServingMetrics

    @property
    def joules_per_request(self) -> float:
        """Energy per served request, in joules."""
        return self.metrics.energy_per_request_mj / 1000.0

    @property
    def served_p99_per_joule(self) -> float:
        """Requests-per-joule discounted by the p99 tail (see module docs)."""
        return served_p99_per_joule(self.metrics)


@dataclass(frozen=True)
class PolicyOutcome:
    """One runtime policy replaying one family member on one platform.

    ``policy`` is the campaign policy kind (``"static"``, ``"switcher"``,
    ``"dvfs-governor"``); ``deployment`` names the concrete policy instance
    that served (e.g. which front member the static baseline used).  The
    static outcome is byte-identical to the member's
    :class:`MemberOutcome` — it is the baseline every adaptivity comparison
    is made against.
    """

    policy: str
    label: str
    deployment: str
    metrics: ServingMetrics

    @property
    def served_p99_per_joule(self) -> float:
        """Requests-per-joule discounted by the p99 tail (see module docs)."""
        return served_p99_per_joule(self.metrics)


@dataclass(frozen=True)
class ServingCellResult:
    """How one platform served one workload family (all members aggregated).

    ``policy_outcomes`` is empty for default (static-only) campaigns and
    carries one :class:`PolicyOutcome` per ``(member, policy)`` pair when the
    campaign swept a policy axis; cells restored from pre-policy checkpoints
    simply lack the attribute, which readers treat as empty.
    """

    platform_name: str
    family_name: str
    members: Tuple[MemberOutcome, ...]
    policy_outcomes: Tuple[PolicyOutcome, ...] = ()

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigurationError("a serving cell needs at least one member outcome")

    @property
    def policies(self) -> Tuple[str, ...]:
        """Policy kinds this cell replayed, in campaign order."""
        seen: List[str] = []
        for outcome in getattr(self, "policy_outcomes", ()):
            if outcome.policy not in seen:
                seen.append(outcome.policy)
        return tuple(seen)

    def _policy_outcomes(self, policy: str) -> List[PolicyOutcome]:
        outcomes = [
            outcome
            for outcome in getattr(self, "policy_outcomes", ())
            if outcome.policy == policy
        ]
        if not outcomes:
            raise ConfigurationError(
                f"cell ({self.platform_name!r}, {self.family_name!r}) replayed "
                f"no {policy!r} policy; have {list(self.policies)}"
            )
        return outcomes

    def policy_score(self, policy: str) -> float:
        """Geometric-mean served-p99-per-joule of one policy across members.

        0.0 when any member replay was degenerate (shed everything)."""
        return _score_geometric_mean(
            [outcome.served_p99_per_joule for outcome in self._policy_outcomes(policy)]
        )

    def policy_mean(self, policy: str, metric: str) -> float:
        """Mean of one :class:`~repro.serving.metrics.ServingMetrics` field
        across the members one policy replayed."""
        outcomes = self._policy_outcomes(policy)
        return sum(float(getattr(o.metrics, metric)) for o in outcomes) / len(outcomes)

    def _mean(self, metric: str) -> float:
        values = [float(getattr(outcome.metrics, metric)) for outcome in self.members]
        return sum(values) / len(values)

    @property
    def p50_latency_ms(self) -> float:
        """Mean of the member winners' p50 latencies."""
        return self._mean("p50_latency_ms")

    @property
    def p95_latency_ms(self) -> float:
        """Mean of the member winners' p95 latencies."""
        return self._mean("p95_latency_ms")

    @property
    def p99_latency_ms(self) -> float:
        """Mean of the member winners' p99 latencies."""
        return self._mean("p99_latency_ms")

    @property
    def deadline_miss_rate(self) -> float:
        """Mean of the member winners' deadline-miss rates."""
        return self._mean("deadline_miss_rate")

    @property
    def joules_per_request(self) -> float:
        """Mean energy per served request across members, in joules."""
        return sum(outcome.joules_per_request for outcome in self.members) / len(
            self.members
        )

    @property
    def served_p99_per_joule(self) -> float:
        """Geometric mean of the members' served-p99-per-joule scores.

        0.0 when any member replay was degenerate, so a platform that sheds a
        whole member ranks strictly below every platform that served."""
        return _score_geometric_mean(
            [outcome.served_p99_per_joule for outcome in self.members]
        )

    def summary_row(self) -> dict:
        """Flat dictionary for :func:`repro.core.report.format_table`."""
        return {
            "family": self.family_name,
            "platform": self.platform_name,
            "members": len(self.members),
            "p50_ms": self.p50_latency_ms,
            "p95_ms": self.p95_latency_ms,
            "p99_ms": self.p99_latency_ms,
            "miss_%": 100.0 * self.deadline_miss_rate,
            "mJ/req": 1000.0 * self.joules_per_request,
            "served_p99/J": f"{self.served_p99_per_joule:.4f}",
        }


@dataclass(frozen=True)
class ServingCampaignResult:
    """Everything one serving campaign produced.

    ``campaign`` is the underlying search campaign (fronts, portability
    matrix); ``cells`` hold one :class:`ServingCellResult` per
    ``(platform, family)`` pair in family-major order.
    """

    campaign: CampaignResult
    platform_names: Tuple[str, ...]
    family_names: Tuple[str, ...]
    cells: Tuple[ServingCellResult, ...]
    members_per_family: int
    duration_ms: float
    metric: str
    seed: int
    policies: Tuple[str, ...] = ("static",)
    _index: Optional[Dict[ServingCellKey, ServingCellResult]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_index",
            {(cell.platform_name, cell.family_name): cell for cell in self.cells},
        )

    @property
    def network_name(self) -> str:
        """The mapped network's name."""
        return self.campaign.network_name

    def cell(self, platform: str, family: str) -> ServingCellResult:
        """The serving outcome of ``platform`` under ``family``."""
        found = self._index.get((platform, family))
        if found is None:
            raise ConfigurationError(
                f"no serving cell for platform {platform!r} / family {family!r}; "
                f"have platforms {list(self.platform_names)} and "
                f"families {list(self.family_names)}"
            )
        return found

    def ranking(self, family: str) -> List[ServingCellResult]:
        """Platform cells for ``family``, best served-p99-per-joule first.

        Ties (vanishingly unlikely with real numbers, but systematic for
        degenerate cells, which all score exactly 0.0 and therefore rank
        strictly last) break on the platform name so the ordering stays
        deterministic.
        """
        cells = [cell for cell in self.cells if cell.family_name == family]
        if not cells:
            raise ConfigurationError(
                f"no serving cells for family {family!r}; "
                f"have families {list(self.family_names)}"
            )
        return sorted(
            cells, key=lambda cell: (-cell.served_p99_per_joule, cell.platform_name)
        )

    def best_platform(self, family: str) -> str:
        """The platform serving ``family`` at the best served-p99-per-joule."""
        return self.ranking(family)[0].platform_name

    def traffic_matrix(self) -> Dict[ServingCellKey, float]:
        """``(platform, family) -> served-p99-per-joule`` for every cell."""
        return {
            (cell.platform_name, cell.family_name): cell.served_p99_per_joule
            for cell in self.cells
        }

    def policy_matrix(self) -> Dict[Tuple[str, str, str], float]:
        """``(platform, family, policy) -> served-p99-per-joule`` per cell.

        Empty for static-only campaigns (no policy axis was swept).
        """
        matrix: Dict[Tuple[str, str, str], float] = {}
        for cell in self.cells:
            for policy in cell.policies:
                matrix[(cell.platform_name, cell.family_name, policy)] = (
                    cell.policy_score(policy)
                )
        return matrix

    def adaptivity_wins(self, policy: str = "dvfs-governor") -> List[ServingCellKey]:
        """Cells where ``policy`` beats the best static point on
        served-p99-per-joule, as ``(platform, family)`` keys in cell order.

        The static baseline per member is the front member that won
        ``rank_under_traffic`` — the best static choice for that exact
        traffic — so a win here means runtime adaptivity beat the best
        static point, not a strawman.
        """
        wins: List[ServingCellKey] = []
        for cell in self.cells:
            kinds = cell.policies
            if policy not in kinds or "static" not in kinds:
                continue
            if cell.policy_score(policy) > cell.policy_score("static"):
                wins.append((cell.platform_name, cell.family_name))
        return wins

    def isolated_energy_best(self) -> str:
        """The platform whose searched front holds the lowest-energy mapping.

        This is the winner the *isolated* per-sample view would deploy on;
        comparing it against :meth:`best_platform` per family is the
        campaign's headline (the serving winner is frequently a different
        board once queueing enters the picture).
        """
        scenario = self.campaign.scenario_names[0]
        best_name = None
        best_energy = float("inf")
        for platform in self.platform_names:
            front = self.campaign.front(platform, scenario)
            energy = min(item.energy_mj for item in front)
            if energy < best_energy:
                best_energy = energy
                best_name = platform
        return best_name


@dataclass(frozen=True)
class _ServingCellTask:
    """Picklable description of one serving cell, runnable in any process.

    ``cached_replays`` routes the member replays through a
    :class:`~repro.serving.result_cache.ServingResultCache` so deployments
    the measured search already simulated are not re-simulated;
    ``serving_cache_path`` points workers at the campaign's shared JSONL
    (``None`` keeps worker caches in-memory; their new entries merge back via
    :class:`~repro.campaign.runner.CellOutcome`).  Both default off, so
    tasks pickled before the fields existed behave identically.
    """

    platform: Platform
    family: WorkloadFamily
    front: Tuple[EvaluatedConfig, ...]
    members: int
    duration_ms: float
    metric: str
    deadline_ms: Optional[float]
    seed: int
    policies: Tuple[str, ...] = ("static",)
    cached_replays: bool = False
    serving_cache_path: Optional[str] = None


def _policy_front_tag(kind: str, deployed: Sequence[Deployment]) -> str:
    """Cache tag identifying a policy kind *and* the front it switches over.

    Adaptive policies serve from the whole deployed front, but the serving
    digest keys on the anchor deployment alone — so the tag must carry the
    front's content, or two campaigns deploying different fronts behind the
    same winner would collide in the shared cache.
    """
    blob = repr(tuple(deployment_digest(item) for item in deployed)).encode("utf-8")
    return f"{kind}:{hashlib.sha256(blob).hexdigest()[:12]}"


def _rank_front_cached(
    task: _ServingCellTask,
    process,
    traffic_seed: int,
    cache,
) -> List[Tuple[Deployment, ServingMetrics]]:
    """Rank the deployed front under one member via the serving cache.

    Mirrors :func:`~repro.serving.bridge.rank_under_traffic` exactly — same
    ``pareto-{position}`` deployment names, same metric extraction, same
    stable best-first sort — but each candidate goes through
    :func:`~repro.serving.bridge.measured_serving_metrics`, so replays of
    deployments the measured search (or an earlier run sharing the JSONL)
    already simulated cost a cache lookup instead of a simulation.  A cache
    hit may carry the *storer's* policy label, so the label is normalised to
    the fresh-simulation spelling; everything else in the metrics is already
    byte-identical because arrivals and simulator seeding are pure functions
    of ``(workload, duration, seed)``.
    """
    reverse = metric_direction(task.metric) == "desc"
    scenario = serving_scenario(
        task.platform, process, task.duration_ms, traffic_seed, task.deadline_ms
    )
    entries = []
    for position, candidate in enumerate(task.front):
        deployment = (
            candidate
            if isinstance(candidate, Deployment)
            else Deployment.from_evaluated(candidate, name=f"pareto-{position}")
        )
        metrics = measured_serving_metrics(
            deployment,
            task.platform,
            process,
            task.duration_ms,
            seed=traffic_seed,
            deadline_ms=task.deadline_ms,
            cache=cache,
            family_name=task.family.name,
            scenario=scenario,
        )
        expected_policy = f"static({deployment.name})"
        if metrics.policy != expected_policy:
            metrics = dataclasses.replace(metrics, policy=expected_policy)
        entries.append((deployment, metrics))
    entries.sort(
        key=lambda entry: float(getattr(entry[1], task.metric)), reverse=reverse
    )
    return entries


def _run_serving_cell(
    task: _ServingCellTask,
    serving_cache: Optional[ServingResultCache] = None,
) -> Union[ServingCellResult, CellOutcome]:
    """Replay one family against one platform's front (worker-safe).

    Member scenarios and traffic seeds derive from the task contents alone,
    so the same task yields bit-identical outcomes in any process.  Each
    member is first ranked under static deployment (picking the best static
    front member for its traffic); every additional policy kind then replays
    the *same* request stream through a policy built deterministically from
    that winner and the deployed front (:func:`~repro.serving.policies.build_policy`),
    so per-member policy comparisons share identical arrivals and difficulty
    draws.

    When the task asks for cached replays, every simulation goes through a
    :class:`~repro.serving.result_cache.ServingResultCache`: the caller's
    handle when given (serial sweeps), else a worker-local handle appending
    to the shared JSONL (or purely in-memory), whose new entries ship back
    inside a :class:`~repro.campaign.runner.CellOutcome` for the parent to
    absorb.  Cached and uncached replays produce byte-identical cells.
    """
    local: Optional[ServingResultCache] = None
    cache = serving_cache
    if cache is None and getattr(task, "cached_replays", False):
        local = ServingResultCache(path=getattr(task, "serving_cache_path", None))
        cache = local
    outcomes = []
    policy_outcomes = []
    processes = task.family.expand(task.seed, task.members)
    labels = task.family.member_labels(task.members)
    policy_kinds = tuple(getattr(task, "policies", ("static",)))
    for index, process in enumerate(processes):
        traffic_seed = member_traffic_seed(task.seed, task.family.name, index)
        if cache is None:
            rankings = rank_under_traffic(
                list(task.front),
                task.platform,
                process,
                duration_ms=task.duration_ms,
                metric=task.metric,
                seed=traffic_seed,
                deadline_ms=task.deadline_ms,
            )
            ranked = [(ranking.deployment, ranking.metrics) for ranking in rankings]
        else:
            ranked = _rank_front_cached(task, process, traffic_seed, cache)
        winner_deployment, winner_metrics = ranked[0]
        outcomes.append(
            MemberOutcome(
                label=labels[index],
                traffic_seed=traffic_seed,
                winner=winner_deployment.name,
                metrics=winner_metrics,
            )
        )
        if policy_kinds == ("static",):
            continue
        deployed = tuple(deployment for deployment, _ in ranked)
        for kind in policy_kinds:
            if kind == "static":
                # The ranked winner *is* the static policy's replay — reuse
                # its metrics byte-for-byte instead of re-simulating.
                policy_outcomes.append(
                    PolicyOutcome(
                        policy=kind,
                        label=labels[index],
                        deployment=winner_deployment.name,
                        metrics=winner_metrics,
                    )
                )
                continue
            policy = build_policy(
                kind, winner_deployment, task.platform, front=deployed
            )
            if cache is None:
                result = simulate_deployment(
                    None,
                    task.platform,
                    process,
                    duration_ms=task.duration_ms,
                    policy=policy,
                    seed=traffic_seed,
                    deadline_ms=task.deadline_ms,
                )
                metrics = compute_metrics(result)
            else:
                metrics = measured_serving_metrics(
                    winner_deployment,
                    task.platform,
                    process,
                    task.duration_ms,
                    seed=traffic_seed,
                    deadline_ms=task.deadline_ms,
                    cache=cache,
                    family_name=task.family.name,
                    policy=policy,
                    policy_tag=_policy_front_tag(kind, deployed),
                )
                if metrics.policy != policy.name:
                    metrics = dataclasses.replace(metrics, policy=policy.name)
            policy_outcomes.append(
                PolicyOutcome(
                    policy=kind,
                    label=labels[index],
                    deployment=policy.name,
                    metrics=metrics,
                )
            )
    result = ServingCellResult(
        platform_name=task.platform.name,
        family_name=task.family.name,
        members=tuple(outcomes),
        policy_outcomes=tuple(policy_outcomes),
    )
    if local is not None:
        return CellOutcome(result=result, cache_export=local.export_session())
    return result


def _front_fingerprint(front: Sequence[EvaluatedConfig]) -> tuple:
    """Content summary of a Pareto front for the serving-cell fingerprint."""
    return tuple(
        (item.config.describe(), item.latency_ms, item.energy_mj, item.accuracy)
        for item in front
    )


def run_serving_campaign(
    network: NetworkGraph,
    platforms: Sequence[Union[str, Platform]],
    families: Optional[Sequence[Union[str, WorkloadFamily]]] = None,
    members_per_family: int = 3,
    duration_ms: float = 1500.0,
    metric: str = "p99_latency_ms",
    deadline_ms: Optional[float] = None,
    scenario: Optional[CampaignScenario] = None,
    strategy: str = "evolutionary",
    backend: Optional[str] = None,
    n_workers: Optional[int] = None,
    cache: Union[EvaluationCache, str, Path, None] = None,
    generations: int = 10,
    population_size: int = 16,
    num_stages: Optional[int] = None,
    accuracy_model: Optional[AccuracyModel] = None,
    reorder_channels: bool = True,
    validation_samples: int = DEFAULT_VALIDATION_SAMPLES,
    seed: int = 0,
    checkpoint_dir: Union[str, Path, None] = None,
    cell_workers: Optional[int] = None,
    warm_start: bool = False,
    surrogate: Optional[SurrogateSettings] = None,
    objectives: Optional[ObjectiveSet] = None,
    policies: Sequence[str] = ("static",),
    measured_objectives: Optional[MeasuredObjectives] = None,
    serving_cache: Union[ServingResultCache, str, Path, None] = None,
) -> ServingCampaignResult:
    """Search every platform, then sweep workload families over the fronts.

    Parameters
    ----------
    network, platforms:
        As in :func:`repro.campaign.runner.run_campaign`.
    families:
        Workload families to sweep: registry names (see
        :func:`repro.serving.families.family_names`) and/or ready
        :class:`~repro.serving.families.WorkloadFamily` instances; ``None``
        sweeps :func:`~repro.serving.families.default_families`.
    members_per_family:
        How many seeded member scenarios each family expands into.
    duration_ms:
        Replay window per member scenario.
    metric:
        Serving metric the front is ranked on per member (validated against
        :func:`repro.serving.metrics.metric_direction` before any work).
    deadline_ms:
        Default relative deadline applied during replays (drives the
        deadline-miss aggregate); families whose processes carry their own
        deadlines override it per request.
    scenario:
        Optional search scenario for the underlying campaign (reuse caps,
        budget overrides); ``None`` searches unconstrained.
    strategy, backend, n_workers, cache, generations, population_size,
    num_stages, accuracy_model, reorder_channels, validation_samples, seed,
    checkpoint_dir, cell_workers, warm_start, surrogate, objectives:
        Forwarded to :func:`~repro.campaign.runner.run_campaign` for the
        search phase.  ``objectives`` (e.g.
        :func:`~repro.search.objectives.serving_objectives`) makes every
        search serving-aware; it enters both the search cells' checkpoint
        tags and the serving-cell fingerprints, so changing the set re-runs
        exactly the affected cells.  ``surrogate`` accelerates the per-platform searches;
        replays always deploy the oracle-validated fronts, and the serving
        fingerprint covers the deployed front, so a surrogate-shaped front
        refreshes exactly the affected serving cells.  ``checkpoint_dir``
        additionally persists every
        finished *serving* cell (record kind ``serving``) in the same JSONL
        file, so an interrupted sweep resumes where it stopped; a serving
        cell whose family definition, replay budget or deployed front
        changed is re-run instead of restored.  ``cell_workers`` fans
        independent serving cells over the same-size process pool used for
        search cells; results merge deterministically.
    policies:
        Runtime policy kinds each cell deploys its front under (see
        :data:`repro.serving.policies.POLICY_KINDS`).  The default
        ``("static",)`` reproduces the historical behaviour byte-for-byte —
        including checkpoint fingerprints, so existing checkpoints stay
        restorable.  Adding ``"switcher"`` and/or ``"dvfs-governor"`` replays
        every member's request stream through those policies too (built over
        the member's best static winner and the deployed front), records one
        :class:`PolicyOutcome` per (member, policy), and tags the serving
        fingerprint with the policy set — changing it re-runs exactly the
        affected cells, counted in
        :attr:`~repro.campaign.checkpoint.CheckpointStats.refreshed`.
        ``"static"`` must always be present: it is the baseline the
        adaptivity comparison is made against.
    measured_objectives:
        Optional :class:`~repro.search.objectives.MeasuredObjectives` factory
        (mutually exclusive with ``objectives``): every search cell binds it
        to its own platform at fan-out time, so each platform searches under
        *measured* serving objectives — and the serving replays afterwards
        reuse the very simulations the search already paid for, through the
        shared ``serving_cache``.  Each cell's checkpoint tag carries the
        bound per-platform descriptor, and so do the serving-cell
        fingerprints, so changing the family, seed or replay duration re-runs
        exactly the affected cells (counted in
        :attr:`~repro.campaign.checkpoint.CheckpointStats.refreshed`).
    serving_cache:
        The campaign-wide :class:`~repro.serving.result_cache.ServingResultCache`
        (instance or JSONL path) shared by the measured searches *and* the
        serving replays; defaults to a fresh in-memory cache when
        ``measured_objectives`` is given.  Passing a path persists every
        simulated replay, so re-runs and resumes skip simulations across
        process boundaries.  Cached and uncached replays produce
        byte-identical cells — the cache only removes duplicate simulator
        invocations, it never changes results.
    """
    platform_objs = _resolve_platforms(platforms)
    family_objs = resolve_families(families)
    if int(members_per_family) < 1:
        raise ConfigurationError(
            f"members_per_family must be >= 1, got {members_per_family}"
        )
    members = int(members_per_family)
    check_positive(duration_ms, "duration_ms")
    # Validate the ranking metric before any search work is spent.
    metric_direction(metric)
    policy_kinds = tuple(policies)
    if not policy_kinds:
        raise ConfigurationError(
            "policies must name at least one policy kind; the default is ('static',)"
        )
    unknown = [kind for kind in policy_kinds if kind not in POLICY_KINDS]
    if unknown:
        raise ConfigurationError(
            f"unknown policy kinds {unknown}; expected a subset of {list(POLICY_KINDS)}"
        )
    if len(set(policy_kinds)) != len(policy_kinds):
        raise ConfigurationError(f"policy kinds must be unique, got {list(policy_kinds)}")
    if "static" not in policy_kinds:
        raise ConfigurationError(
            "policies must include 'static': it is the baseline the adaptivity "
            "comparison is made against"
        )

    # One shared serving-result handle spans the whole campaign: the measured
    # searches fill it (via run_campaign) and the serving replays below drain
    # it, so a deployment the search already simulated under a family member
    # is never re-simulated by that member's replay.
    shared_serving = resolve_serving_cache(serving_cache, measured_objectives is not None)

    campaign = run_campaign(
        network,
        platform_objs,
        scenarios=None if scenario is None else [scenario],
        strategy=strategy,
        backend=backend,
        n_workers=n_workers,
        cache=cache,
        generations=generations,
        population_size=population_size,
        num_stages=num_stages,
        accuracy_model=accuracy_model,
        reorder_channels=reorder_channels,
        validation_samples=validation_samples,
        seed=seed,
        checkpoint_dir=checkpoint_dir,
        cell_workers=cell_workers,
        warm_start=warm_start,
        surrogate=surrogate,
        objectives=objectives,
        measured_objectives=measured_objectives,
        serving_cache=shared_serving,
    )
    scenario_name = campaign.scenario_names[0]
    fronts = {
        platform.name: campaign.front(platform.name, scenario_name)
        for platform in platform_objs
    }
    # The objectives tag per platform: measured sets bind to their platform,
    # so each cell's fingerprint carries its *own* bound descriptor (family,
    # duration, traffic seed, platform) — a changed recipe re-runs exactly
    # the affected cells.  Proxy sets keep the shared campaign-wide tag.
    if measured_objectives is not None:
        objectives_descriptors = {
            platform.name: measured_objectives.bind(platform, seed=int(seed)).describe()
            for platform in platform_objs
        }
    else:
        objectives_descriptor = "" if objectives is None else objectives.describe()
        objectives_descriptors = {
            platform.name: objectives_descriptor for platform in platform_objs
        }

    # The serving-cell fingerprint covers everything that shapes the cell:
    # the platform and family *contents*, the replay budget, and the exact
    # front being deployed — so a re-searched front or an edited family
    # refreshes precisely the affected cells.
    front_fingerprints = {
        platform.name: _front_fingerprint(fronts[platform.name])
        for platform in platform_objs
    }
    expectations: Dict[ServingCellKey, CellExpectation] = {}
    for family in family_objs:
        for platform in platform_objs:
            fingerprint_fields = dict(
                network=network.name,
                platform=platform,
                family=family,
                members=members,
                duration_ms=float(duration_ms),
                metric=metric,
                deadline_ms=deadline_ms,
                front=front_fingerprints[platform.name],
                objectives=objectives_descriptors[platform.name],
            )
            # The policy tag is default-tagged: a static-only campaign adds
            # no field at all, so its fingerprints are byte-identical to
            # pre-policy checkpoints and those stay restorable.  Any other
            # policy set changes the digest, and a changed set re-runs
            # exactly the affected cells (counted in CheckpointStats.refreshed).
            if policy_kinds != ("static",):
                fingerprint_fields["policies"] = policy_kinds
            fingerprint = campaign_fingerprint(**fingerprint_fields)
            expectations[(platform.name, family.name)] = CellExpectation(fingerprint)

    checkpoint: Optional[CampaignCheckpoint] = None
    completed: Dict[ServingCellKey, ServingCellResult] = {}
    if checkpoint_dir is not None:
        checkpoint = CampaignCheckpoint(checkpoint_dir, seed=int(seed))
        completed = checkpoint.load_serving(expectations)

    family_by_name = {family.name: family for family in family_objs}
    platform_by_name = {platform.name: platform for platform in platform_objs}

    def make_task(key: ServingCellKey) -> _ServingCellTask:
        platform_name, family_name = key
        return _ServingCellTask(
            platform=platform_by_name[platform_name],
            family=family_by_name[family_name],
            front=tuple(fronts[platform_name]),
            members=members,
            duration_ms=float(duration_ms),
            metric=metric,
            deadline_ms=deadline_ms,
            seed=int(seed),
            policies=policy_kinds,
            cached_replays=shared_serving is not None,
            serving_cache_path=serving_cache_path(shared_serving),
        )

    def finish_cell(key: ServingCellKey, result: ServingCellResult) -> None:
        completed[key] = result
        if checkpoint is not None:
            checkpoint.store_serving(key, expectations[key], result)

    pending = [key for key in expectations if key not in completed]
    workers = 1 if cell_workers is None else int(cell_workers)
    fan_out_cells(
        pending,
        make_task,
        _run_serving_cell,
        finish_cell,
        workers,
        serving_cache=shared_serving,
    )

    cells = tuple(
        completed[(platform.name, family.name)]
        for family in family_objs
        for platform in platform_objs
    )
    return ServingCampaignResult(
        campaign=campaign,
        platform_names=tuple(platform.name for platform in platform_objs),
        family_names=tuple(family.name for family in family_objs),
        cells=cells,
        members_per_family=members,
        duration_ms=float(duration_ms),
        metric=metric,
        seed=int(seed),
        policies=policy_kinds,
    )
