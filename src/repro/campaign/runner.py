"""Cross-platform search campaigns over the platform zoo.

:func:`run_campaign` fans :meth:`MapAndConquer.search` out over a platform x
scenario grid, reusing the engine's evaluation backends (serial or process
pool) inside every cell and one shared, optionally persistent
:class:`~repro.engine.cache.EvaluationCache` across the whole grid (content
digests include the platform name, so platforms never alias entries).  For
every cell it keeps the full :class:`~repro.search.evolutionary.SearchResult`
— including the per-platform Pareto front — and afterwards computes a
**portability ranking**: every front searched on platform A is translated
into platform B's vocabulary (:mod:`repro.campaign.portability`) and
re-evaluated by B's own pipeline, yielding the regret of deploying A's
mappings on B instead of searching B natively.

Production-grade grid running (beyond the paper):

* **Checkpointing** — pass ``checkpoint_dir=`` and every finished cell is
  persisted (:mod:`repro.campaign.checkpoint`); an interrupted campaign
  restarted with the same directory re-runs only the missing cells and
  produces byte-identical output.
* **Cell-level parallelism** — pass ``cell_workers=N`` and independent cells
  fan out over a process pool, each cell owning its own backend exactly as
  in the sequential path; results are merged deterministically, so the
  summary stays bit-for-bit equal to a sequential run.
* **Transfer-aware warm starts** — pass ``warm_start=True`` and every
  platform after the first seeds its initial population with the translated
  Pareto points of the platforms before it in the list (HADAS-style
  transfer), cutting generations-to-converge instead of only scoring
  portability post hoc.

Optionally, every front is also re-ranked under one shared traffic scenario
via :func:`repro.serving.bridge.rank_under_traffic`, so the campaign reports
both isolated-sample and under-load winners per platform.

Everything is seed-deterministic: the same seed produces byte-identical
:func:`repro.core.report.campaign_summary` output, with serial, process and
cell-parallel paths agreeing bit for bit, interrupted or not.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..dynamics.accuracy import AccuracyModel
from ..dynamics.samples import DEFAULT_VALIDATION_SAMPLES
from ..engine.cache import EvaluationCache
from ..engine.surrogate import SurrogateSettings
from ..errors import ConfigurationError
from ..nn.graph import NetworkGraph
from ..search.constraints import SearchConstraints
from ..search.evaluation import ConfigEvaluator, EvaluatedConfig
from ..search.evolutionary import SearchResult
from ..search.objectives import MeasuredObjectives, ObjectiveSet, paper_objective
from ..search.space import MappingConfig
from ..serving.result_cache import (
    ServingCacheRecorder,
    ServingResultCache,
    resolve_serving_cache,
    serving_cache_path,
)
from ..serving.workload import ArrivalProcess
from ..soc.platform import Platform
from ..soc.presets import get_platform
from .checkpoint import (
    CampaignCheckpoint,
    CellExpectation,
    CellKey,
    campaign_fingerprint,
)
from .portability import count_surviving_on_front, translate_config, translate_front

__all__ = [
    "CampaignScenario",
    "CampaignCell",
    "CellOutcome",
    "PortabilityEntry",
    "CampaignResult",
    "run_campaign",
    "fan_out_cells",
]

#: Backend choices run_campaign accepts.  Instances are rejected: a backend
#: is bound to one evaluator spec, and the campaign needs one per platform.
_BACKEND_NAMES = ("serial", "process")


@dataclass(frozen=True)
class CampaignScenario:
    """One search scenario of the campaign grid (a column of the matrix).

    Parameters
    ----------
    name:
        Label used in tables and lookups; must be unique within a campaign.
    max_reuse_fraction:
        Optional feature-reuse cap baked into the search space *and*
        enforced as a hard constraint (the Fig. 6 75 % / 50 % scenarios).
    constraints:
        Optional explicit constraint set; overrides the cap-derived default.
    generations / population_size:
        Optional per-scenario overrides of the campaign-wide budget.
    """

    name: str = "unconstrained"
    max_reuse_fraction: Optional[float] = None
    constraints: Optional[SearchConstraints] = None
    generations: Optional[int] = None
    population_size: Optional[int] = None

    def resolve_constraints(self) -> Optional[SearchConstraints]:
        """The constraint set this scenario applies during search."""
        if self.constraints is not None:
            return self.constraints
        if self.max_reuse_fraction is not None:
            return SearchConstraints(max_reuse_fraction=self.max_reuse_fraction)
        return None


@dataclass(frozen=True)
class CampaignCell:
    """Outcome of one (platform, scenario) search."""

    platform_name: str
    scenario_name: str
    result: SearchResult
    best_objective: float
    traffic_ranking: Optional[tuple] = None

    @property
    def front(self) -> Tuple[EvaluatedConfig, ...]:
        """The cell's Pareto front."""
        return self.result.pareto

    @property
    def surrogate_report(self):
        """The cell's :class:`~repro.engine.surrogate.SurrogateReport`.

        ``None`` for pure-oracle cells (``getattr`` keeps results pickled
        before the field existed readable)."""
        return getattr(self.result, "surrogate", None)

    @property
    def measured_cache_stats(self):
        """The cell's :class:`~repro.serving.result_cache.MeasuredCellStats`.

        Deterministic serving-cache lookup/unique counts of a
        measured-objective cell; ``None`` for proxy cells (``getattr`` keeps
        results pickled before the field existed readable)."""
        return getattr(self.result, "serving_cache_stats", None)


@dataclass(frozen=True)
class PortabilityEntry:
    """How the front searched on ``source`` fares re-evaluated on ``target``.

    ``regret`` is the ratio of the best transferred objective to the target's
    natively searched best (>= 1 means the native search found something at
    least as good; large values mean A's mappings do not travel).
    ``surviving_on_front`` counts transferred configs no native Pareto-front
    member dominates — when it is below ``transferred``, the source front is
    demonstrably not Pareto-optimal on the target.
    """

    source: str
    target: str
    scenario: str
    transferred: int
    surviving_on_front: int
    best_cross_objective: float
    native_best_objective: float

    @property
    def regret(self) -> float:
        """Best transferred objective over the native best (lower is better)."""
        if self.native_best_objective == 0.0:
            return float("inf")
        return self.best_cross_objective / self.native_best_objective

    @property
    def fully_pareto_optimal(self) -> bool:
        """Whether every transferred config survives on the target's front."""
        return self.surviving_on_front == self.transferred


@dataclass(frozen=True)
class CampaignResult:
    """Everything one campaign produced: the grid plus the portability matrix."""

    network_name: str
    platform_names: Tuple[str, ...]
    scenario_names: Tuple[str, ...]
    cells: Tuple[CampaignCell, ...]
    portability: Tuple[PortabilityEntry, ...]
    seed: int
    _index: Optional[Dict[Tuple[str, str], CampaignCell]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_index",
            {(cell.platform_name, cell.scenario_name): cell for cell in self.cells},
        )

    def cell(self, platform: str, scenario: Optional[str] = None) -> CampaignCell:
        """The outcome searched on ``platform`` under ``scenario``."""
        scenario = self.scenario_names[0] if scenario is None else scenario
        found = self._index.get((platform, scenario))
        if found is None:
            raise ConfigurationError(
                f"no campaign cell for platform {platform!r} / scenario {scenario!r}; "
                f"have platforms {list(self.platform_names)} and "
                f"scenarios {list(self.scenario_names)}"
            )
        return found

    def front(self, platform: str, scenario: Optional[str] = None):
        """Pareto front searched on ``platform`` under ``scenario``."""
        return self.cell(platform, scenario).front

    def entry(
        self, source: str, target: str, scenario: Optional[str] = None
    ) -> PortabilityEntry:
        """The portability entry for one (source, target) pair."""
        scenario = self.scenario_names[0] if scenario is None else scenario
        for candidate in self.portability:
            if (
                candidate.source == source
                and candidate.target == target
                and candidate.scenario == scenario
            ):
                return candidate
        raise ConfigurationError(
            f"no portability entry {source!r} -> {target!r} under scenario {scenario!r}"
        )

    def portability_matrix(
        self, scenario: Optional[str] = None
    ) -> Dict[Tuple[str, str], float]:
        """``(source, target) -> regret`` for one scenario of the campaign."""
        scenario = self.scenario_names[0] if scenario is None else scenario
        return {
            (entry.source, entry.target): entry.regret
            for entry in self.portability
            if entry.scenario == scenario
        }


def _resolve_platforms(platforms: Sequence[Union[str, Platform]]) -> Tuple[Platform, ...]:
    if not platforms:
        raise ConfigurationError("run_campaign needs at least one platform")
    resolved = tuple(
        item if isinstance(item, Platform) else get_platform(item) for item in platforms
    )
    names = [platform.name for platform in resolved]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"campaign platforms must have distinct names, got {names}")
    return resolved


@dataclass(frozen=True)
class CellOutcome:
    """A cell result bundled with the serving-cache entries it simulated.

    Cache-aware cell functions (measured search cells, cached serving
    replays) return this instead of a bare result: ``cache_export`` carries
    the ``(digest, metrics, family)`` tuples the cell's own cache handle
    stored, so the parent process can merge a worker's simulations back into
    the shared :class:`~repro.serving.result_cache.ServingResultCache` after
    fan-out.  :func:`fan_out_cells` unwraps it transparently.
    """

    result: object
    cache_export: Tuple = ()


def fan_out_cells(
    pending: Sequence,
    make_task,
    run_cell,
    finish,
    workers: int,
    serving_cache: Optional[ServingResultCache] = None,
) -> None:
    """Run independent campaign cells serially or over a process pool.

    The shared fan-out discipline of the serving and fleet sweeps: each
    pending key is turned into a picklable task (``make_task``), executed by
    a module-level function (``run_cell`` — so a process pool can dispatch
    it), and handed to ``finish(key, result)`` as it completes.  Cells must
    be mutually independent and ``run_cell`` deterministic from the task
    contents alone; ``finish`` runs in the main process, so checkpoint files
    stay single-writer and completion order never leaks into results.

    ``serving_cache`` wires the shared serving-result cache through: the
    serial path hands the live handle to ``run_cell(task, serving_cache)``
    so cells reuse each other's simulations in-process, while pool workers
    build their own handles (from the task's cache path, or fresh in-memory)
    and ship their new entries back inside a :class:`CellOutcome`, which is
    absorbed into ``serving_cache`` here before ``finish`` runs.
    """

    def _absorb_and_finish(key, value) -> None:
        if isinstance(value, CellOutcome):
            if serving_cache is not None and value.cache_export:
                serving_cache.absorb(value.cache_export)
            value = value.result
        finish(key, value)

    if workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            futures = {executor.submit(run_cell, make_task(key)): key for key in pending}
            for future in as_completed(futures):
                _absorb_and_finish(futures[future], future.result())
    else:
        for key in pending:
            if serving_cache is not None:
                _absorb_and_finish(key, run_cell(make_task(key), serving_cache))
            else:
                _absorb_and_finish(key, run_cell(make_task(key)))


def _resolve_scenarios(
    scenarios: Optional[Sequence[CampaignScenario]],
) -> Tuple[CampaignScenario, ...]:
    if scenarios is None:
        return (CampaignScenario(),)
    resolved = tuple(scenarios)
    if not resolved:
        raise ConfigurationError("pass None for the default scenario, not an empty list")
    names = [scenario.name for scenario in resolved]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"campaign scenarios must have distinct names, got {names}")
    return resolved


@dataclass(frozen=True)
class _CellTask:
    """Picklable description of one cell's search, runnable in any process.

    Everything a worker needs to rebuild the cell's framework bit-for-bit:
    the same arguments the sequential path hands to
    :class:`~repro.core.framework.MapAndConquer`, plus the warm-start seed
    population already translated into this platform's vocabulary.
    """

    network: NetworkGraph
    platform: Platform
    scenario: CampaignScenario
    stages: int
    generations: int
    population_size: int
    strategy: str
    backend: Optional[str]
    n_workers: Optional[int]
    accuracy_model: Optional[AccuracyModel]
    reorder_channels: bool
    validation_samples: int
    seed: int
    warm_seeds: Tuple[MappingConfig, ...] = ()
    surrogate: Optional[SurrogateSettings] = None
    objectives: Optional[ObjectiveSet] = None
    measured: Optional[MeasuredObjectives] = None
    serving_cache_path: Optional[str] = None


def _build_cell_framework(task: _CellTask):
    """The cell's framework; deterministic, so main and worker builds agree."""
    from ..core.framework import MapAndConquer  # local import: core imports campaign

    return MapAndConquer(
        task.network,
        task.platform,
        num_stages=task.stages,
        max_reuse_fraction=task.scenario.max_reuse_fraction,
        accuracy_model=task.accuracy_model,
        reorder_channels=task.reorder_channels,
        validation_samples=task.validation_samples,
        seed=task.seed,
    )


def _cell_measured_objectives(
    task: _CellTask, serving_cache: Optional[ServingResultCache] = None
) -> Tuple[Optional[ObjectiveSet], Optional[ServingCacheRecorder]]:
    """Bind the cell's measured-objective factory, if any, to its platform.

    Returns the objective set the cell's search should optimise and the
    per-cell :class:`~repro.serving.result_cache.ServingCacheRecorder` whose
    lookup/unique counts become the cell's deterministic cache statistics.
    Without a factory the task's plain ``objectives`` pass through untouched.
    ``serving_cache`` is the live shared handle (serial path); workers leave
    it ``None`` and a handle is built from the task's cache path instead
    (fresh in-memory when the shared cache is not persistent).
    """
    if task.measured is None:
        return task.objectives, None
    if serving_cache is None:
        serving_cache = ServingResultCache(path=task.serving_cache_path)
    recorder = ServingCacheRecorder(serving_cache)
    bound = task.measured.bind(task.platform, seed=task.seed, cache=recorder)
    return bound, recorder


def _run_cell(
    task: _CellTask,
    cache: Optional[EvaluationCache] = None,
    framework=None,
    serving_cache: Optional[ServingResultCache] = None,
) -> SearchResult:
    """Run one cell's search.  Top-level so a process pool can dispatch it.

    Workers call it with neither ``cache`` nor ``framework``: each rebuilds
    the framework from the task and evaluates against a private cache, which
    changes nothing observable — the evaluation pipeline is deterministic —
    and keeps the shared JSONL cache single-writer.
    """
    if framework is None:
        framework = _build_cell_framework(task)
    objectives, recorder = _cell_measured_objectives(task, serving_cache)
    result = framework.search(
        generations=task.generations,
        population_size=task.population_size,
        constraints=task.scenario.resolve_constraints(),
        seed=task.seed,
        strategy=task.strategy,
        backend=task.backend,
        n_workers=task.n_workers,
        cache=cache,
        initial_population=list(task.warm_seeds) if task.warm_seeds else None,
        surrogate=task.surrogate,
        objectives=objectives,
    )
    if recorder is not None:
        # Attach the cell's deterministic lookup/unique counts: they are a
        # pure function of the seeded search trajectory, so serial,
        # cell-parallel and checkpoint-restored results agree byte for byte.
        result = dataclasses.replace(
            result, serving_cache_stats=recorder.cell_stats()
        )
    return result


def _run_cell_offloaded(task: _CellTask) -> CellOutcome:
    """Worker entry point for measured cells: search + cache export.

    The worker builds its own serving-cache handle (appending to the shared
    JSONL when one is configured, fresh in-memory otherwise) and ships the
    entries it simulated back to the parent, which absorbs them into the
    shared cache so later waves and the serving replays can reuse them.
    """
    handle = ServingResultCache(path=task.serving_cache_path)
    result = _run_cell(task, serving_cache=handle)
    return CellOutcome(result=result, cache_export=handle.export_session())


def _evaluate_through_cache(
    evaluator: ConfigEvaluator, configs: Sequence[MappingConfig], cache: EvaluationCache
) -> List[EvaluatedConfig]:
    """Evaluate ``configs`` in order, reusing and extending ``cache``.

    Lookups use :meth:`EvaluationCache.peek`, so the cache's hit-rate
    statistics keep describing the searches alone; the misses are evaluated
    and persisted with one :meth:`EvaluationCache.store_many`.
    """
    digests = [evaluator.content_digest(config) for config in configs]
    resolved: Dict[str, EvaluatedConfig] = {}
    fresh: List[Tuple[str, EvaluatedConfig]] = []
    for digest, config in zip(digests, configs):
        if digest in resolved:
            continue
        value = cache.peek(digest)
        if value is None:
            value = evaluator.evaluate(config)
            fresh.append((digest, value))
        resolved[digest] = value
    cache.store_many(fresh)
    return [resolved[digest] for digest in digests]


def run_campaign(
    network: NetworkGraph,
    platforms: Sequence[Union[str, Platform]],
    scenarios: Optional[Sequence[CampaignScenario]] = None,
    strategy: str = "evolutionary",
    backend: Optional[str] = None,
    n_workers: Optional[int] = None,
    cache: Union[EvaluationCache, str, Path, None] = None,
    generations: int = 10,
    population_size: int = 16,
    num_stages: Optional[int] = None,
    traffic: Optional[ArrivalProcess] = None,
    traffic_duration_ms: Optional[float] = None,
    traffic_metric: str = "p99_latency_ms",
    objective=paper_objective,
    accuracy_model: Optional[AccuracyModel] = None,
    reorder_channels: bool = True,
    validation_samples: int = DEFAULT_VALIDATION_SAMPLES,
    seed: int = 0,
    checkpoint_dir: Union[str, Path, None] = None,
    cell_workers: Optional[int] = None,
    warm_start: bool = False,
    surrogate: Optional[SurrogateSettings] = None,
    objectives: Optional[ObjectiveSet] = None,
    measured_objectives: Optional[MeasuredObjectives] = None,
    serving_cache: Union[ServingResultCache, str, Path, None] = None,
) -> CampaignResult:
    """Search ``network`` across a platform x scenario grid and compare.

    Parameters
    ----------
    network:
        The network to map, shared by every cell (so is its channel ranking:
        it is derived from ``network`` and ``seed`` only, never the board).
    platforms:
        Registry preset names (see :func:`repro.soc.presets.platform_names`)
        and/or ready :class:`~repro.soc.platform.Platform` instances.
    scenarios:
        Search scenarios (reuse caps, constraints, per-scenario budgets);
        ``None`` runs one unconstrained scenario.
    strategy, backend, n_workers, cache:
        Forwarded to every cell's :meth:`MapAndConquer.search`.  ``backend``
        must be a name (``"serial"`` / ``"process"``), not an instance — a
        backend instance is bound to one platform's evaluator, and the
        campaign needs a fresh one per cell.  The cache (object or JSONL
        path) is shared by the whole grid, and the portability
        re-evaluations resolve through it too, so a rerun over a
        persistent cache and a full checkpoint evaluates nothing.
    num_stages:
        Stage count used on *every* platform; defaults to the smallest unit
        count in the grid, so every searched mapping is translatable to
        every other platform for the portability matrix.
    traffic, traffic_duration_ms, traffic_metric:
        Optional shared traffic scenario: every cell's front is additionally
        re-ranked under it via :func:`repro.serving.bridge.rank_under_traffic`.
    objective:
        Scalar objective used for the portability regret (default: Eq. 16).
    accuracy_model, reorder_channels, validation_samples:
        Platform-independent evaluator settings applied in every cell (the
        cost model is always the analytical oracle: surrogates are
        calibrated per platform and do not transfer).
    seed:
        Master seed for every cell's search (and the traffic replays).
    checkpoint_dir:
        Optional directory for cell checkpoints.  Finished cells are
        persisted there and skipped on restart; resuming an interrupted
        campaign yields output byte-identical to an uninterrupted run.  A
        checkpoint written under a different seed raises
        :class:`~repro.errors.ConfigurationError` rather than mixing; cells
        written under a different configuration are re-run
        (:attr:`~repro.campaign.checkpoint.CheckpointStats.refreshed`).
    cell_workers:
        Fan independent cells over a pool of this many worker processes
        (``None``/1 keeps the sequential path).  Each cell still owns its
        backend; combine with ``backend="process"``/``n_workers`` for nested
        parallelism on big machines, but mind total process count.  Results
        are bit-for-bit identical to the sequential path.
    warm_start:
        Seed each platform's initial population with the translated Pareto
        points of the platforms *before it in the list* (same scenario),
        capped at half the population so exploration survives.  The first
        platform always runs cold.  Cells then run in platform-order waves
        so donors finish first — identically under ``cell_workers``.
    surrogate:
        ``None`` (default) evaluates every candidate through the real
        oracle, byte-for-byte as before.  A
        :class:`~repro.engine.surrogate.SurrogateSettings` instance runs
        every cell surrogate-assisted (per-platform GBDT models, periodic
        oracle re-validation; see :meth:`MapAndConquer.search`).  Cache
        harvesting is disabled per cell regardless of the settings — the
        shared cache's content depends on cell scheduling, and training on
        it would break the serial == cell-parallel byte guarantee.  Each
        cell's :class:`~repro.engine.surrogate.SurrogateReport` is exposed
        as :attr:`CampaignCell.surrogate_report` and summarised by
        :func:`repro.core.report.surrogate_summary`.  Checkpoints record
        the surrogate settings: resuming with different settings re-runs
        exactly the affected cells (like stale serving families), never
        mixing fronts searched under different acceleration.
    objectives:
        Optional :class:`~repro.search.objectives.ObjectiveSet` every cell's
        search optimises (e.g. :func:`~repro.search.objectives.serving_objectives`
        to fold the M/D/1 expected wait into NSGA-II).  ``None`` keeps the
        default latency/energy/accuracy axes, byte-for-byte.  Unlike the
        scalar ``objective``, the set *shapes* each cell's Pareto front, so
        checkpoints record its fingerprint: resuming with a different set
        re-runs exactly the affected cells, counted in
        :attr:`~repro.campaign.checkpoint.CheckpointStats.refreshed`.
    measured_objectives:
        Optional :class:`~repro.search.objectives.MeasuredObjectives`
        factory: every cell then searches under
        :func:`~repro.search.objectives.measured_serving_objectives` bound
        to *its own* platform (and the campaign seed) at fan-out time, with
        the shared ``serving_cache`` deduplicating replays grid-wide.
        Mutually exclusive with ``objectives`` (a ready set binds a single
        platform).  Each cell's checkpoint records the *bound* set's
        fingerprint, so changing the family, seed, member count or replay
        duration re-runs exactly the affected cells
        (:attr:`~repro.campaign.checkpoint.CheckpointStats.refreshed`);
        checkpoints written before measuring restore unchanged when the
        factory is absent.  Each cell's deterministic cache statistics are
        exposed as :attr:`CampaignCell.measured_cache_stats` and summarised
        by :func:`repro.core.report.campaign_summary`.
    serving_cache:
        The grid-wide :class:`~repro.serving.result_cache.ServingResultCache`
        (instance or JSONL path) behind ``measured_objectives``; defaults to
        a fresh in-memory cache when measuring.  Serial cells share the live
        handle; pool workers append through their own handles and their new
        entries are merged back after each wave, so replays the search
        already measured are never simulated twice — including by the
        serving-campaign replays running on top of this grid.
    """
    platform_objs = _resolve_platforms(platforms)
    scenario_objs = _resolve_scenarios(scenarios)
    if backend is not None and not isinstance(backend, str):
        raise ConfigurationError(
            "run_campaign needs a backend *name* ('serial' or 'process'); backend "
            "instances are bound to a single platform's evaluator and cannot be shared"
        )
    if backend is not None and backend not in _BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of {_BACKEND_NAMES}"
        )
    if cell_workers is not None and int(cell_workers) < 1:
        raise ConfigurationError(f"cell_workers must be >= 1, got {cell_workers}")
    # Fail on an unusable traffic request now, not after the first cell's
    # whole search has already been spent.
    if isinstance(traffic, ArrivalProcess) and traffic_duration_ms is None:
        raise ConfigurationError(
            "traffic_duration_ms is required when traffic is an ArrivalProcess"
        )
    min_units = min(platform.num_units for platform in platform_objs)
    stages = min_units if num_stages is None else int(num_stages)
    if not 1 <= stages <= min_units:
        raise ConfigurationError(
            f"num_stages must lie in [1, {min_units}] (the smallest platform's unit "
            f"count) for mappings to transfer across the grid, got {stages}"
        )
    if isinstance(cache, EvaluationCache):
        shared_cache = cache
    elif cache is not None:
        shared_cache = EvaluationCache(path=cache)
    else:
        shared_cache = EvaluationCache()
    workers = 1 if cell_workers is None else int(cell_workers)
    platform_by_name = {platform.name: platform for platform in platform_objs}
    scenario_by_name = {scenario.name: scenario for scenario in scenario_objs}
    if surrogate is not None and not isinstance(surrogate, SurrogateSettings):
        raise ConfigurationError(
            f"surrogate must be a SurrogateSettings or None, got "
            f"{type(surrogate).__name__}"
        )
    # Cells never harvest the ambient shared cache: its content depends on
    # which cells ran before (and in-process vs worker), which would break
    # the serial == cell-parallel byte guarantee.  Training rows come only
    # from each cell's own seeded bootstrap and validations.
    cell_surrogate = (
        None
        if surrogate is None
        else dataclasses.replace(surrogate, bootstrap_from_cache=False)
    )
    surrogate_tag = (
        "" if cell_surrogate is None else campaign_fingerprint(surrogate=cell_surrogate)
    )
    if objectives is not None and not isinstance(objectives, ObjectiveSet):
        raise ConfigurationError(
            f"objectives must be an ObjectiveSet or None, got {type(objectives).__name__}"
        )
    # The default set is tagged "" (not its fingerprint) so checkpoints
    # written before the objective layer existed stay restorable.
    objectives_tag = "" if objectives is None else objectives.fingerprint()
    if measured_objectives is not None and not isinstance(
        measured_objectives, MeasuredObjectives
    ):
        raise ConfigurationError(
            f"measured_objectives must be a MeasuredObjectives factory or None, "
            f"got {type(measured_objectives).__name__}"
        )
    if measured_objectives is not None and objectives is not None:
        raise ConfigurationError(
            "pass either objectives or measured_objectives, not both: a ready "
            "ObjectiveSet binds a single platform, while the factory binds each "
            "cell's platform at fan-out time"
        )
    shared_serving = resolve_serving_cache(serving_cache, measured_objectives is not None)
    # Per-platform tags of the *bound* measured sets: the extractor's repr
    # covers platform, workload member, traffic seed and duration, so any
    # cache-relevant change re-runs exactly the affected cells on resume.
    measured_tags: Dict[str, str] = {}
    if measured_objectives is not None:
        for platform in platform_objs:
            measured_tags[platform.name] = measured_objectives.bind(
                platform, seed=int(seed)
            ).fingerprint()

    def cell_budget(scenario: CampaignScenario) -> Tuple[int, int]:
        gens = scenario.generations if scenario.generations is not None else generations
        pop = (
            scenario.population_size
            if scenario.population_size is not None
            else population_size
        )
        return gens, pop

    # What this run demands of every cell — used both to validate restored
    # checkpoints and to label freshly finished ones.
    expectations: Dict[CellKey, CellExpectation] = {}
    for scenario in scenario_objs:
        for index, platform in enumerate(platform_objs):
            gens, pop = cell_budget(scenario)
            donors = tuple(p.name for p in platform_objs[:index]) if warm_start else ()
            # Network and platform enter by *content* (their full reprs), not
            # by name: a same-named network or board with different
            # calibration must invalidate the cell, not silently restore the
            # old one.  The scalar objective is deliberately absent — it is
            # applied post hoc in the main process and never shapes a cell's
            # search result, so changing it keeps checkpoints valid.  The
            # ObjectiveSet is different: it shapes the front, so it rides in
            # the expectation's refreshable objectives tag (below), like the
            # surrogate settings.  A warm-started cell folds in its donors'
            # expectations (built earlier in this loop, so transitively): a
            # donor changed under the same name re-runs every cell it seeds.
            donor_fields = (
                {"donors": tuple(expectations[(name, scenario.name)] for name in donors)}
                if donors
                else {}
            )
            fingerprint = campaign_fingerprint(
                **donor_fields,
                network=network,
                platform=platform,
                num_stages=stages,
                strategy=strategy,
                generations=gens,
                population_size=pop,
                scenario=(scenario.name, scenario.max_reuse_fraction, scenario.constraints),
                accuracy_model=accuracy_model,
                reorder_channels=reorder_channels,
                validation_samples=validation_samples,
                warm_start=bool(warm_start),
            )
            expectations[(platform.name, scenario.name)] = CellExpectation(
                fingerprint=fingerprint,
                donors=donors,
                surrogate=surrogate_tag,
                objectives=measured_tags.get(platform.name, objectives_tag),
            )

    checkpoint: Optional[CampaignCheckpoint] = None
    completed: Dict[CellKey, SearchResult] = {}
    if checkpoint_dir is not None:
        checkpoint = CampaignCheckpoint(checkpoint_dir, seed=int(seed))
        completed = checkpoint.load(expectations)
    offloaded = set(completed)  # cells whose evaluations bypassed shared_cache

    def make_task(key: CellKey, with_seeds: bool = True) -> _CellTask:
        platform_name, scenario_name = key
        platform = platform_by_name[platform_name]
        scenario = scenario_by_name[scenario_name]
        gens, pop = cell_budget(scenario)
        warm_seeds: Tuple[MappingConfig, ...] = ()
        if warm_start and with_seeds:
            collected: List[MappingConfig] = []
            for donor_name in expectations[key].donors:
                donor_result = completed.get((donor_name, scenario_name))
                if donor_result is None:  # pragma: no cover - wave order forbids this
                    raise RuntimeError(
                        f"warm-start donor {donor_name!r} not finished before {key}"
                    )
                collected.extend(
                    translate_front(
                        donor_result.pareto, platform_by_name[donor_name], platform
                    )
                )
            # Half the population stays randomly sampled so the warm start
            # biases the search without collapsing its exploration.
            warm_seeds = tuple(collected[: pop // 2])
        return _CellTask(
            network=network,
            platform=platform,
            scenario=scenario,
            stages=stages,
            generations=gens,
            population_size=pop,
            strategy=strategy,
            backend=backend,
            n_workers=n_workers,
            accuracy_model=accuracy_model,
            reorder_channels=reorder_channels,
            validation_samples=validation_samples,
            seed=int(seed),
            warm_seeds=warm_seeds,
            surrogate=cell_surrogate,
            objectives=objectives,
            measured=measured_objectives,
            serving_cache_path=serving_cache_path(shared_serving),
        )

    def finish_cell(key: CellKey, result: SearchResult) -> None:
        completed[key] = result
        if checkpoint is not None:
            checkpoint.store(key, expectations[key], result)

    # Warm starts order the grid into platform-index waves (donors first);
    # without them every cell is independent and forms one wave.  Cells
    # inside a wave are mutually independent, so the wave is the unit of
    # fan-out — and the deterministic merge makes execution order invisible.
    if warm_start:
        waves: List[List[CellKey]] = [
            [(platform.name, scenario.name) for scenario in scenario_objs]
            for platform in platform_objs
        ]
    else:
        waves = [
            [
                (platform.name, scenario.name)
                for scenario in scenario_objs
                for platform in platform_objs
            ]
        ]

    executor: Optional[ProcessPoolExecutor] = None
    frameworks = {}
    try:
        for wave in waves:
            pending = [key for key in wave if key not in completed]
            if not pending:
                continue
            tasks = {key: make_task(key) for key in pending}
            if workers > 1 and len(pending) > 1:
                if executor is None:
                    executor = ProcessPoolExecutor(max_workers=workers)
                # Measured cells return a CellOutcome so the worker's fresh
                # simulations merge back into the shared serving cache —
                # later waves then reuse them exactly like the serial path.
                run = _run_cell if measured_objectives is None else _run_cell_offloaded
                futures = {executor.submit(run, tasks[key]): key for key in pending}
                for future in as_completed(futures):
                    key = futures[future]
                    outcome = future.result()
                    if isinstance(outcome, CellOutcome):
                        if shared_serving is not None and outcome.cache_export:
                            shared_serving.absorb(outcome.cache_export)
                        outcome = outcome.result
                    finish_cell(key, outcome)
                    offloaded.add(key)
            else:
                for key in pending:
                    framework = _build_cell_framework(tasks[key])
                    frameworks[key] = framework
                    # The serving kwarg only appears when a shared cache
                    # exists, so non-measured campaigns keep calling
                    # _run_cell with its historical signature.
                    extra = (
                        {} if shared_serving is None
                        else {"serving_cache": shared_serving}
                    )
                    finish_cell(
                        key,
                        _run_cell(tasks[key], shared_cache, framework, **extra),
                    )
    finally:
        if executor is not None:
            executor.shutdown()

    # Main-process frameworks for the cells searched elsewhere (restored or
    # worker-run): portability re-evaluation, traffic re-ranks, and digests
    # for merging offloaded histories into the shared cache.  Seeds are not
    # recomputed — the framework construction never reads them.
    for scenario in scenario_objs:
        for platform in platform_objs:
            key = (platform.name, scenario.name)
            if key not in frameworks:
                frameworks[key] = _build_cell_framework(make_task(key, with_seeds=False))

    # Restored and worker-run cells never touched shared_cache; merge their
    # histories so the grid-wide (and persistent) cache stays complete.
    for scenario in scenario_objs:
        for platform in platform_objs:
            key = (platform.name, scenario.name)
            if key not in offloaded:
                continue
            evaluator = frameworks[key].evaluator
            shared_cache.store_many(
                (evaluator.content_digest(item.config), item)
                for item in completed[key].history
            )

    cells = []
    for scenario in scenario_objs:
        for platform in platform_objs:
            key = (platform.name, scenario.name)
            result = completed[key]
            ranking = None
            if traffic is not None:
                ranking = tuple(
                    frameworks[key].rank_under_traffic(
                        result.pareto,
                        traffic,
                        duration_ms=traffic_duration_ms,
                        metric=traffic_metric,
                        seed=seed,
                    )
                )
            cells.append(
                CampaignCell(
                    platform_name=platform.name,
                    scenario_name=scenario.name,
                    result=result,
                    best_objective=float(objective(result.best)),
                    traffic_ranking=ranking,
                )
            )

    portability = []
    for scenario in scenario_objs:
        for source in platform_objs:
            source_cell = next(
                cell
                for cell in cells
                if cell.platform_name == source.name
                and cell.scenario_name == scenario.name
            )
            for target in platform_objs:
                if target.name == source.name:
                    continue
                target_framework = frameworks[(target.name, scenario.name)]
                target_cell = next(
                    cell
                    for cell in cells
                    if cell.platform_name == target.name
                    and cell.scenario_name == scenario.name
                )
                transferred = _evaluate_through_cache(
                    target_framework.evaluator,
                    [translate_config(item.config, source, target) for item in source_cell.front],
                    shared_cache,
                )
                best_cross = min(float(objective(item)) for item in transferred)
                portability.append(
                    PortabilityEntry(
                        source=source.name,
                        target=target.name,
                        scenario=scenario.name,
                        transferred=len(transferred),
                        surviving_on_front=count_surviving_on_front(
                            transferred, target_cell.front
                        ),
                        best_cross_objective=best_cross,
                        native_best_objective=target_cell.best_objective,
                    )
                )

    return CampaignResult(
        network_name=network.name,
        platform_names=tuple(platform.name for platform in platform_objs),
        scenario_names=tuple(scenario.name for scenario in scenario_objs),
        cells=tuple(cells),
        portability=tuple(portability),
        seed=int(seed),
    )
