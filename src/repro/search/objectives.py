"""Search objectives (Sect. V-B) and the pluggable objective layer.

The paper's composite objective (Eq. 16) rewards configurations whose early
stages absorb many samples cheaply while keeping the final-stage accuracy
close to the pretrained baseline:

    P = (Acc_base / Acc_SM) * (sum_i T_{S_i} * N_i) * (sum_i E_{S_{1:i}} * N_i)

where ``N_i`` is the number of validation samples first classified correctly
at stage ``i``, ``T_{S_i}`` the stage latency (Eq. 9) and ``E_{S_{1:i}}`` the
cumulative energy of instantiating the first ``i`` stages (Eq. 14).  Smaller
is better.  Two additional scalarisations -- latency-oriented and
energy-oriented -- are provided for selecting the "Ours-L" and "Ours-E"
models of Table II from a Pareto set.

On top of the scalarisations, this module defines the *objective layer* the
multi-objective machinery is built on: an :class:`ObjectiveSpec` names one
axis (how to extract it from an :class:`~repro.search.evaluation.EvaluatedConfig`,
whether it is minimised or maximised, and which transform a surrogate should
train it under), and an :class:`ObjectiveSet` bundles the axes the search
optimises.  :func:`default_objective_set` reproduces the historical
(latency, energy, -accuracy) behaviour exactly; :func:`serving_objectives`
extends it with the M/D/1 expected queueing wait so NSGA-II optimises for
load directly.
"""

from __future__ import annotations

import functools
import hashlib
import math
import types
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .evaluation import EvaluatedConfig

__all__ = [
    "paper_objective",
    "latency_oriented_objective",
    "energy_oriented_objective",
    "serving_oriented_objective",
    "nan_guarded",
    "ObjectiveSpec",
    "ObjectiveSet",
    "default_objective_set",
    "serving_objectives",
    "measured_serving_objectives",
    "MeasuredObjectives",
    "ExpectedWaitExtractor",
    "MeasuredWaitExtractor",
    "as_objective_set",
    "DEFAULT_OBJECTIVES",
]

#: Numerical floor preventing division by a zero final-stage accuracy.
_MIN_ACCURACY = 1e-3


def paper_objective(evaluated: EvaluatedConfig) -> float:
    """Composite objective of Eq. 16 (lower is better)."""
    accuracy = max(_MIN_ACCURACY, evaluated.accuracy)
    accuracy_term = evaluated.dynamic_network.network.base_accuracy / accuracy
    statistics = evaluated.inference.exit_statistics
    profile = evaluated.profile
    latency_term = 0.0
    energy_term = 0.0
    for stage_index, count in enumerate(statistics.correct_counts):
        latency_term += profile.stage_latency_ms(stage_index) * count
        energy_term += profile.cumulative_energy_mj(stage_index) * count
    # A degenerate configuration that classifies nothing correctly produces
    # zero latency/energy terms; give it the worst possible score instead of
    # an artificially perfect one.
    if latency_term == 0.0 or energy_term == 0.0:
        return float("inf")
    return accuracy_term * latency_term * energy_term


def latency_oriented_objective(evaluated: EvaluatedConfig) -> float:
    """Average latency penalised by accuracy loss (used to pick "Ours-L")."""
    accuracy = max(_MIN_ACCURACY, evaluated.accuracy)
    accuracy_term = evaluated.dynamic_network.network.base_accuracy / accuracy
    return evaluated.latency_ms * accuracy_term


def energy_oriented_objective(evaluated: EvaluatedConfig) -> float:
    """Average energy penalised by accuracy loss (used to pick "Ours-E")."""
    accuracy = max(_MIN_ACCURACY, evaluated.accuracy)
    accuracy_term = evaluated.dynamic_network.network.base_accuracy / accuracy
    return evaluated.energy_mj * accuracy_term


def serving_oriented_objective(evaluated: EvaluatedConfig, rate_rps: float) -> float:
    """Sojourn time under load penalised by accuracy loss.

    Scores a candidate by its M/D/1 response time — service latency plus the
    expected queueing wait at ``rate_rps`` requests/s — times the same
    accuracy penalty the other scalarisations use.  A mapping whose
    bottleneck saturates at the offered rate scores ``inf`` and sorts last.
    """
    from ..serving.policies import Deployment

    accuracy = max(_MIN_ACCURACY, evaluated.accuracy)
    accuracy_term = evaluated.dynamic_network.network.base_accuracy / accuracy
    wait_ms = Deployment.from_evaluated(evaluated).expected_wait_ms(rate_rps)
    return (evaluated.latency_ms + wait_ms) * accuracy_term


def nan_guarded(
    objective: Callable[[EvaluatedConfig], float]
) -> Callable[[EvaluatedConfig], float]:
    """Wrap a scalar objective so NaN scores sort last instead of randomly.

    ``sorted(pool, key=objective)`` silently mis-orders a pool when the key
    returns NaN (every comparison against NaN is false, so NaN entries keep
    whatever position the sort happens to probe).  Mapping NaN to ``+inf``
    keeps degenerate candidates deterministically at the bottom; finite and
    ``inf`` scores pass through unchanged.
    """

    def guarded(item: EvaluatedConfig) -> float:
        value = float(objective(item))
        return float("inf") if math.isnan(value) else value

    return guarded


# -- the objective layer ---------------------------------------------------------

_DIRECTIONS = ("min", "max")
_TRANSFORMS = ("log1p", "symlog", "raw")


def _latency_extractor(item: EvaluatedConfig) -> float:
    return item.latency_ms


def _energy_extractor(item: EvaluatedConfig) -> float:
    return item.energy_mj


def _accuracy_extractor(item: EvaluatedConfig) -> float:
    return item.accuracy


@dataclass(frozen=True)
class ExpectedWaitExtractor:
    """Picklable extractor: M/D/1 expected queueing wait at a fixed rate.

    Distills the candidate into a :class:`~repro.serving.policies.Deployment`
    and reads :meth:`~repro.serving.policies.Deployment.expected_wait_ms` at
    ``rate_rps`` — ``inf`` when the bottleneck compute unit saturates, which
    the objective layer treats as "worst possible", so saturated mappings are
    dominated by every mapping that keeps up with the offered load.
    """

    rate_rps: float

    def __call__(self, item: EvaluatedConfig) -> float:
        from ..serving.policies import Deployment

        return Deployment.from_evaluated(item).expected_wait_ms(self.rate_rps)


@dataclass(frozen=True)
class MeasuredWaitExtractor:
    """Picklable extractor: *measured* mean queueing wait under a replay.

    Where :class:`ExpectedWaitExtractor` answers from the M/D/1 formula, this
    extractor distils the candidate into a
    :class:`~repro.serving.policies.Deployment` and replays a short seeded
    traffic scenario through the deterministic serving simulator
    (:func:`~repro.serving.bridge.measured_serving_metrics`), reading the
    measured ``mean_queueing_ms`` — directly comparable to the proxy, but
    aware of burst shapes, transient queue build-up and the finite horizon
    the proxy's steady-state assumption ignores.

    The content-bearing fields (platform, workload member, traffic seed,
    replay duration) define the extractor's identity: they appear in ``repr``
    and therefore in objective-set fingerprints, so changing the replay
    re-runs exactly the affected campaign cells.  The attached
    :class:`~repro.serving.result_cache.ServingResultCache` is excluded from
    both ``repr`` and equality — it is an accelerator, not an identity — and
    pickles along with the extractor so process-pool evaluation backends
    carry their warm entries across.
    """

    platform: object
    workload: object
    traffic_seed: int
    duration_ms: float
    family_name: str = ""
    cache: Optional[object] = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def scenario(self) -> str:
        """The replay's serving-digest scenario half, built on first use."""
        from ..serving.result_cache import serving_scenario

        return serving_scenario(self.platform, self.workload, self.duration_ms, self.traffic_seed)

    def __call__(self, item: EvaluatedConfig) -> float:
        from ..serving.bridge import measured_serving_metrics

        metrics = measured_serving_metrics(
            item,
            self.platform,
            self.workload,
            self.duration_ms,
            seed=self.traffic_seed,
            cache=self.cache,
            family_name=self.family_name,
            scenario=self.scenario,
        )
        return metrics.mean_queueing_ms


def _extractor_identity(extractor: Callable[[EvaluatedConfig], float]) -> str:
    """Stable, process-independent identity of an extractor callable.

    Module-level functions are identified by qualified name; other callables
    (frozen dataclasses such as :class:`ExpectedWaitExtractor`) by ``repr``,
    which for dataclasses encodes the class and every field value.  Plain
    ``repr`` of a function would embed a memory address and break
    fingerprints across processes.
    """
    if isinstance(extractor, (types.FunctionType, types.BuiltinFunctionType)):
        return f"{extractor.__module__}.{extractor.__qualname__}"
    return repr(extractor)


@dataclass(frozen=True)
class ObjectiveSpec:
    """One named search objective.

    Parameters
    ----------
    name:
        Column name in reports and key in surrogate predictions.
    extractor:
        Callable mapping an :class:`~repro.search.evaluation.EvaluatedConfig`
        to the raw objective value.  Must be picklable (a module-level
        function or a frozen-dataclass instance), because campaign cells ship
        their objectives to worker processes.
    direction:
        ``"min"`` or ``"max"``; internally every objective is minimised, so
        ``"max"`` values are negated at the boundary.
    transform:
        How a surrogate trains this target: ``"log1p"`` for positive
        heavy-tailed metrics, ``"symlog"`` for signed heavy-tailed values,
        ``"raw"`` for already-bounded values.
    clip:
        Optional ``(low, high)`` bounds applied to surrogate predictions of
        the raw value (e.g. accuracies live in ``[0, 1]``).
    """

    name: str
    extractor: Callable[[EvaluatedConfig], float]
    direction: str = "min"
    transform: str = "log1p"
    clip: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("objective name must be non-empty")
        if self.direction not in _DIRECTIONS:
            raise ConfigurationError(
                f"objective direction must be one of {_DIRECTIONS}, got {self.direction!r}"
            )
        if self.transform not in _TRANSFORMS:
            raise ConfigurationError(
                f"objective transform must be one of {_TRANSFORMS}, got {self.transform!r}"
            )
        if not callable(self.extractor):
            raise ConfigurationError(
                f"objective extractor must be callable, got {type(self.extractor).__name__}"
            )

    def raw_value(self, item: EvaluatedConfig) -> float:
        """The objective in its natural units (accuracy as accuracy, etc.).

        Surrogate predictions carry an ``objective_values`` mapping with the
        predicted raw value per spec name; anything else goes through the
        extractor.
        """
        predicted = getattr(item, "objective_values", None)
        if predicted is not None and self.name in predicted:
            return float(predicted[self.name])
        return float(self.extractor(item))

    def value(self, item: EvaluatedConfig) -> float:
        """The minimised objective value, with NaN mapped to ``+inf``.

        NaN from a degenerate extractor would otherwise silently poison
        sorting and domination checks (every comparison against NaN is
        false); mapping it to ``inf`` makes "undefined" deterministically
        worst.
        """
        raw = self.raw_value(item)
        if math.isnan(raw):
            return float("inf")
        return -raw if self.direction == "max" else raw

    def describe(self) -> str:
        """Canonical one-line identity used in checkpoint fingerprints."""
        return (
            f"{self.name}:{self.direction}:{self.transform}:{self.clip!r}:"
            f"{_extractor_identity(self.extractor)}"
        )


@dataclass(frozen=True)
class ObjectiveSet:
    """The ordered, named objectives one search minimises jointly.

    The set is what gets threaded through the stack: Pareto analysis and
    NSGA-II ranking read one :meth:`matrix` per ranking pass, the surrogate
    trains one model per spec under the spec's declared transform, reports
    render one column per name, and campaign checkpoints embed
    :meth:`describe` so a changed set re-runs exactly the affected cells.
    """

    specs: Tuple[ObjectiveSpec, ...]

    def __post_init__(self) -> None:
        specs = tuple(self.specs)
        object.__setattr__(self, "specs", specs)
        if not specs:
            raise ConfigurationError("an ObjectiveSet needs at least one objective")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"objective names must be unique, got {names}")

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[ObjectiveSpec]:
        return iter(self.specs)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.specs)

    def values(self, item: EvaluatedConfig) -> Tuple[float, ...]:
        """Minimised objective vector of one candidate."""
        return tuple(spec.value(item) for spec in self.specs)

    def matrix(self, evaluated: Sequence[EvaluatedConfig]) -> np.ndarray:
        """Stack :meth:`values` rows, one per item, into an ``(n, d)`` array.

        The one place Pareto analysis and NSGA-II ranking read objectives:
        every extractor runs exactly once per item.
        """
        rows = [self.values(item) for item in evaluated]
        return np.array(rows, dtype=float).reshape(len(rows), len(self.specs))

    def reference_point(
        self, fronts: Sequence[Sequence[EvaluatedConfig]]
    ) -> List[float]:
        """Shared hypervolume reference slightly worse than every candidate."""
        reference: List[float] = []
        for spec in self.specs:
            worst = max(spec.value(item) for front in fronts for item in front)
            reference.append(worst + 0.1 * abs(worst) + 1e-9)
        return reference

    def describe(self) -> str:
        """Canonical identity string (stable across processes and runs)."""
        return " | ".join(spec.describe() for spec in self.specs)

    def fingerprint(self) -> str:
        """Short digest of :meth:`describe` for checkpoint records."""
        return hashlib.sha256(self.describe().encode("utf-8")).hexdigest()[:16]


#: The historical axes: minimise latency and energy, maximise accuracy.
_LATENCY_SPEC = ObjectiveSpec(
    name="latency_ms", extractor=_latency_extractor, direction="min", transform="log1p"
)
_ENERGY_SPEC = ObjectiveSpec(
    name="energy_mj", extractor=_energy_extractor, direction="min", transform="log1p"
)
_ACCURACY_SPEC = ObjectiveSpec(
    name="accuracy",
    extractor=_accuracy_extractor,
    direction="max",
    transform="raw",
    clip=(0.0, 1.0),
)

DEFAULT_OBJECTIVES = ObjectiveSet(specs=(_LATENCY_SPEC, _ENERGY_SPEC, _ACCURACY_SPEC))


def default_objective_set() -> ObjectiveSet:
    """The (latency, energy, accuracy) set, byte-identical to the seed keys."""
    return DEFAULT_OBJECTIVES


def serving_objectives(
    family=None, target_rps: Optional[float] = None
) -> ObjectiveSet:
    """Default axes plus the M/D/1 expected wait at the family's peak rate.

    Turns the PR-7 queueing helpers into a fourth search objective: NSGA-II
    then trades latency/energy/accuracy against how gracefully a mapping
    absorbs the offered load, instead of discovering saturation only when the
    serving campaign replays traffic afterwards.

    Parameters
    ----------
    family:
        A :class:`~repro.serving.families.WorkloadFamily`; its
        ``peak_rate_rps`` sets the rate the wait is evaluated at.
    target_rps:
        Explicit rate in requests/s, overriding (or replacing) the family.
    """
    if target_rps is None:
        if family is None:
            raise ConfigurationError(
                "serving_objectives needs a workload family or an explicit target_rps"
            )
        target_rps = family.peak_rate_rps
    rate = float(target_rps)
    if not rate > 0.0:
        raise ConfigurationError(f"target_rps must be positive, got {target_rps}")
    wait_spec = ObjectiveSpec(
        name="expected_wait_ms",
        extractor=ExpectedWaitExtractor(rate_rps=rate),
        direction="min",
        transform="log1p",
    )
    return ObjectiveSet(specs=DEFAULT_OBJECTIVES.specs + (wait_spec,))


def measured_serving_objectives(
    family,
    platform,
    duration_ms: float = 400.0,
    seed: int = 0,
    members: int = 3,
    cache=None,
) -> ObjectiveSet:
    """Default axes plus the *measured* queueing wait of a simulated replay.

    The other half of the serving-aware loop: where :func:`serving_objectives`
    scores candidates with the M/D/1 steady-state formula, this set replays
    the family's busiest member (:meth:`WorkloadFamily.peak_member
    <repro.serving.families.WorkloadFamily.peak_member>` under ``seed``)
    through the deterministic traffic simulator for every candidate NSGA-II
    evaluates, so the fourth objective reflects burst shapes and transient
    queue build-up the proxy cannot see.  A content-keyed
    :class:`~repro.serving.result_cache.ServingResultCache` makes each
    distinct deployment pay for exactly one replay across all generations
    and ranking passes.

    Parameters
    ----------
    family:
        A :class:`~repro.serving.families.WorkloadFamily`; its busiest member
        under ``seed`` becomes the replayed scenario.
    platform:
        The :class:`~repro.soc.platform.Platform` the deployment is simulated
        on (a measured wait, unlike the proxy, needs concrete hardware).
    duration_ms:
        Replay horizon per simulation; also the probe window for picking the
        peak member.  Short by design — the replay runs inside the search
        loop.
    seed:
        Campaign seed selecting the member parameters and traffic stream.
    members:
        How many family members to expand when probing for the peak.
    cache:
        Optional :class:`~repro.serving.result_cache.ServingResultCache`
        instance (or a compatible lookup/store wrapper such as
        :class:`~repro.serving.result_cache.ServingCacheRecorder`), or a path
        for a persistent one; defaults to a fresh in-memory cache private to
        this objective set.
    """
    from pathlib import Path as _Path

    from ..serving.families import WorkloadFamily
    from ..serving.result_cache import ServingResultCache

    if not isinstance(family, WorkloadFamily):
        raise ConfigurationError(
            f"measured_serving_objectives needs a WorkloadFamily, "
            f"got {type(family).__name__}"
        )
    if platform is None:
        raise ConfigurationError(
            "measured_serving_objectives needs a platform to simulate on"
        )
    if not float(duration_ms) > 0.0:
        raise ConfigurationError(f"duration_ms must be positive, got {duration_ms}")
    if cache is None:
        cache = ServingResultCache()
    elif isinstance(cache, (str, _Path)):
        cache = ServingResultCache(path=cache)
    _, workload, traffic_seed = family.peak_member(
        int(seed), int(members), probe_ms=float(duration_ms)
    )
    wait_spec = ObjectiveSpec(
        name="measured_wait_ms",
        extractor=MeasuredWaitExtractor(
            platform=platform,
            workload=workload,
            traffic_seed=traffic_seed,
            duration_ms=float(duration_ms),
            family_name=family.name,
            cache=cache,
        ),
        direction="min",
        transform="log1p",
    )
    return ObjectiveSet(specs=DEFAULT_OBJECTIVES.specs + (wait_spec,))


@dataclass(frozen=True)
class MeasuredObjectives:
    """Picklable per-cell factory for measured serving objective sets.

    A campaign cannot take a ready-made
    :func:`measured_serving_objectives` set: the set binds one concrete
    platform (the extractor simulates on it), while a campaign fans the same
    search out across a *grid* of platforms.  This factory carries the
    platform-independent half of the recipe — family, replay budget, member
    count, optional seed override — and each cell calls :meth:`bind` with its
    own platform (and the campaign seed and shared result cache) at fan-out
    time.  Frozen and pickle-friendly, so it ships inside cell tasks to
    process-pool workers unchanged.

    Parameters
    ----------
    family:
        The :class:`~repro.serving.families.WorkloadFamily` whose busiest
        member becomes every cell's replayed scenario.
    duration_ms:
        Replay horizon per simulation (also the peak-member probe window).
    members:
        Family members expanded when probing for the peak.
    seed:
        Optional override; ``None`` (default) binds with the campaign seed,
        keeping the measured replays aligned with the serving-cell replays so
        the shared cache can reuse search-time entries.
    """

    family: object
    duration_ms: float = 400.0
    members: int = 3
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        from ..serving.families import WorkloadFamily

        if not isinstance(self.family, WorkloadFamily):
            raise ConfigurationError(
                f"MeasuredObjectives needs a WorkloadFamily, "
                f"got {type(self.family).__name__}"
            )
        if not float(self.duration_ms) > 0.0:
            raise ConfigurationError(
                f"duration_ms must be positive, got {self.duration_ms}"
            )
        if int(self.members) < 1:
            raise ConfigurationError(f"members must be >= 1, got {self.members}")

    def bind(self, platform, seed: Optional[int] = None, cache=None) -> ObjectiveSet:
        """The cell-level set: :func:`measured_serving_objectives` on ``platform``.

        ``seed`` is the campaign seed (ignored when the factory carries its
        own); ``cache`` is the cell's view of the shared
        :class:`~repro.serving.result_cache.ServingResultCache`.  The bound
        set's ``fingerprint()``/``describe()`` cover platform, workload
        member, traffic seed and duration — the cache deliberately does not
        participate in the identity.
        """
        effective = self.seed if self.seed is not None else (0 if seed is None else seed)
        return measured_serving_objectives(
            self.family,
            platform,
            duration_ms=float(self.duration_ms),
            seed=int(effective),
            members=int(self.members),
            cache=cache,
        )


def as_objective_set(objectives) -> ObjectiveSet:
    """Coerce ``None`` / an ``ObjectiveSet`` / legacy key sequences.

    ``None`` resolves to the default set.  A sequence of plain callables (the
    seed's ``keys=`` convention: every key already minimised) is wrapped into
    anonymous specs so older call sites keep working.
    """
    if objectives is None:
        return DEFAULT_OBJECTIVES
    if isinstance(objectives, ObjectiveSet):
        return objectives
    if isinstance(objectives, ObjectiveSpec):
        return ObjectiveSet(specs=(objectives,))
    try:
        keys = tuple(objectives)
    except TypeError:
        raise ConfigurationError(
            f"objectives must be an ObjectiveSet or a sequence of callables, "
            f"got {type(objectives).__name__}"
        )
    specs = tuple(
        ObjectiveSpec(
            name=f"objective_{index}", extractor=key, direction="min", transform="symlog"
        )
        for index, key in enumerate(keys)
    )
    return ObjectiveSet(specs=specs)
