"""The benchmark's workloads: inputs from a seed, one closed-loop operation each.

Every workload runs one client that waits for each call to finish.  An
operation is a *cold* call followed by a *resume*: the same call again, from
fresh objects, against the state the cold call persisted -- the JSON-lines
evaluation (and serving) caches for the searches, written untimed after the
cold search, and the checkpoint plus evaluation cache the campaign writes
itself.  Set-up (building the network, platform, framework and objective set,
including the workload family's peak-member probe) is timed on its own.

Each workload also implements the correctness checks, the quality figures and
the result digest the runner prints.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import (
    EvaluationCache,
    MapAndConquer,
    ServingResultCache,
    default_objective_set,
    get_family,
    get_platform,
    measured_serving_objectives,
    resnet20,
    run_serving_campaign,
    select_measured_serving,
    traffic_ranking_summary,
    visformer,
)
from repro.search.pareto import hypervolume, select_energy_oriented, select_latency_oriented
from repro.serving.bridge import measured_serving_metrics
from repro.serving.families import SteadyPoissonFamily, member_traffic_seed
from repro.serving.metrics import ServingMetrics

#: Accuracy gate for the paper's Ours-E / Ours-L picks (Table II).
ACCURACY_GATE = 0.02

#: Fixed hypervolume reference points (minimised axes), one per
#: (network, platform, objective set); every evaluated point dominates them.
REFERENCE = {
    ("visformer", "jetson-agx-xavier"): (60.0, 100.0, -0.5),
    ("visformer", "mobile-big-little"): (200.0, 150.0, -0.5),
    ("resnet20", "mobile-big-little"): (150.0, 60.0, -0.6, 1000.0),
}


class Checks:
    """Tally of correctness checks; an operation fails if any of its checks does."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self._pending: List[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self._pending.append(message)

    def operation(self, label: str) -> None:
        """Close one operation: count it, and count it failed if a check failed."""
        self.attempted += 1
        if self._pending:
            self.failed += 1
            self.messages.extend(f"{label}: {message}" for message in self._pending)
            self._pending = []


def non_dominated_mask(matrix: np.ndarray) -> np.ndarray:
    """Rows of ``matrix`` (all axes minimised) no other row dominates."""
    no_worse = np.all(matrix[:, None, :] <= matrix[None, :, :], axis=2)
    better = np.any(matrix[:, None, :] < matrix[None, :, :], axis=2)
    dominates = no_worse & better  # dominates[i, j]: row i dominates row j
    return ~dominates.any(axis=0)


def check_search(checks: Checks, result, objectives) -> None:
    """Front = non-dominated subset of the feasible pool; best is in history."""
    pool = list(result.feasible) if result.feasible else list(result.history)
    mask = non_dominated_mask(objectives.matrix(pool))
    expected = {id(item) for item, keep in zip(pool, mask) if keep}
    actual = {id(item) for item in result.pareto}
    checks.expect(actual == expected, "front is not the non-dominated feasible pool")
    checks.expect(
        any(item is result.best for item in result.history), "best is not in history"
    )


def check_replay(checks: Checks, metrics: ServingMetrics) -> None:
    """A replay completes a request, or is the degenerate result that ranks last."""
    if metrics.completed >= 1:
        return
    degenerate = ServingMetrics.degenerate(
        metrics.policy,
        metrics.duration_ms,
        mean_in_flight=metrics.mean_in_flight,
        peak_in_flight=metrics.peak_in_flight,
        utilisation=metrics.utilisation,
    )
    checks.expect(metrics == degenerate, "zero-completion replay is not degenerate")


def front_digest(result, objectives) -> str:
    """Front configurations and their objective values rounded to 9 digits."""
    rows = [
        (item.config.describe(), [round(float(v), 9) for v in objectives.values(item)])
        for item in result.pareto
    ]
    return json.dumps(rows, sort_keys=True)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Outcome:
    """What a workload reports for one input."""

    digest: str
    quality: Dict[str, float]
    sim_requests: int = 0


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``setup(seed, work_dir)`` builds a context; ``cold(context)`` runs the
    timed call; ``persist(context, cold)`` (untimed) leaves on disk what the
    resume reads, where the call does not do so itself; ``resume(context)``
    runs the same call from fresh objects against that state (timed);
    ``verify(checks, context, run, cold)`` checks one call's output and that
    it matches the cold call's; ``outcome(context, cold)`` gives the digest
    and quality figures.  ``inputs`` seeds are measured per run, each from a
    single ``--seed``; ``workers`` is the cell fan-out width.
    """

    name: str
    inputs: int
    workers: int
    setup: Callable
    cold: Callable
    persist: Callable
    resume: Callable
    verify: Callable
    outcome: Callable

    def sub_seeds(self, seed: int) -> Tuple[int, ...]:
        """The ``inputs`` distinct input seeds one run cycles through."""
        return tuple(int(seed) * 1000 + index for index in range(self.inputs))


# -- proxy-search -----------------------------------------------------------------

PROXY_BUDGET = dict(generations=30, population_size=40)


def _proxy_setup(seed: int, work_dir: Path):
    network = visformer()
    platform = get_platform("jetson-agx-xavier")
    return dict(
        seed=seed,
        work_dir=work_dir,
        network=network,
        platform=platform,
        framework=MapAndConquer(network, platform, seed=seed),
    )


def _proxy_search(context):
    return context["framework"].search(seed=context["seed"], **PROXY_BUDGET)


def _persist_evaluations(context, cold) -> None:
    """Write the framework's evaluation cache where a resumed search reads it."""
    disk = EvaluationCache(path=context["work_dir"] / "evaluations.jsonl")
    disk.store_many(context["framework"].evaluation_cache.items())


def _proxy_resume(context):
    """A fresh framework re-running the search against the persisted cache."""
    framework = MapAndConquer(context["network"], context["platform"], seed=context["seed"])
    return framework.search(
        seed=context["seed"], cache=context["work_dir"] / "evaluations.jsonl", **PROXY_BUDGET
    )


def _proxy_verify(checks: Checks, context, run, cold) -> None:
    objectives = default_objective_set()
    check_search(checks, run, objectives)
    checks.expect(
        front_digest(run, objectives) == front_digest(cold, objectives),
        "front differs from the cold run's",
    )


def _proxy_outcome(context, cold) -> Outcome:
    framework = context["framework"]
    ours_e = select_energy_oriented(cold.pareto, ACCURACY_GATE)
    ours_l = select_latency_oriented(cold.pareto, ACCURACY_GATE)
    quality = {
        "hypervolume": hypervolume(cold.pareto, REFERENCE[("visformer", "jetson-agx-xavier")]),
        "energy_gain_vs_gpu_x": framework.baseline("gpu").energy_mj / ours_e.energy_mj,
        "latency_gain_vs_dla_x": framework.baseline("dla0").latency_ms / ours_l.latency_ms,
    }
    return Outcome(digest=sha(front_digest(cold, default_objective_set())), quality=quality)


# -- measured-search --------------------------------------------------------------

MEASURED_FAMILY = SteadyPoissonFamily(rate_rps=40.0)
MEASURED_REPLAY = dict(duration_ms=400.0, members=1)
MEASURED_BUDGET = dict(generations=8, population_size=20, strategy="nsga2")


def _measured_objectives(seed: int, platform, serving):
    # Binding the measured objective set runs the family's peak-member probe.
    return measured_serving_objectives(
        MEASURED_FAMILY, platform, seed=seed, cache=serving, **MEASURED_REPLAY
    )


def _measured_setup(seed: int, work_dir: Path):
    network = resnet20()
    platform = get_platform("mobile-big-little")
    serving = ServingResultCache()
    return dict(
        seed=seed,
        work_dir=work_dir,
        network=network,
        platform=platform,
        framework=MapAndConquer(network, platform, seed=seed),
        serving=serving,
        objectives=_measured_objectives(seed, platform, serving),
    )


def _measured_run(framework, context, objectives, serving, cache=None):
    """Measured NSGA-II search plus the replayed pick, both through one cache."""
    seed, platform = context["seed"], context["platform"]
    result = framework.search(seed=seed, objectives=objectives, cache=cache, **MEASURED_BUDGET)
    pick = select_measured_serving(
        result.pareto, platform, MEASURED_FAMILY, seed=seed, cache=serving, **MEASURED_REPLAY
    )
    return dict(result=result, objectives=objectives, serving=serving, pick=pick)


def _measured_search(context):
    return _measured_run(
        context["framework"], context, context["objectives"], context["serving"]
    )


def _measured_persist(context, cold) -> None:
    _persist_evaluations(context, cold)
    disk = ServingResultCache(path=context["work_dir"] / "serving.jsonl")
    for digest, metrics, family in context["serving"].export_session():
        disk.store(digest, metrics, family=family)


def _measured_resume(context):
    """A fresh framework and objective set re-running against the persisted caches."""
    work_dir, seed = context["work_dir"], context["seed"]
    serving = ServingResultCache(path=work_dir / "serving.jsonl")
    framework = MapAndConquer(context["network"], context["platform"], seed=seed)
    objectives = _measured_objectives(seed, context["platform"], serving)
    return _measured_run(
        framework, context, objectives, serving, cache=work_dir / "evaluations.jsonl"
    )


def _measured_verify(checks: Checks, context, run, cold) -> None:
    check_search(checks, run["result"], run["objectives"])
    checks.expect(
        front_digest(run["result"], run["objectives"])
        == front_digest(cold["result"], cold["objectives"]),
        "front differs from the cold run's",
    )
    checks.expect(
        run["pick"].config.describe() == cold["pick"].config.describe(),
        "measured pick differs from the cold run's",
    )
    for _, metrics in run["serving"].items():
        check_replay(checks, metrics)


def _measured_outcome(context, cold) -> Outcome:
    platform, seed = context["platform"], context["seed"]
    _, workload, traffic_seed = MEASURED_FAMILY.peak_member(
        seed, MEASURED_REPLAY["members"], probe_ms=MEASURED_REPLAY["duration_ms"]
    )
    pick_metrics = measured_serving_metrics(
        cold["pick"], platform, workload, MEASURED_REPLAY["duration_ms"],
        seed=traffic_seed, cache=context["serving"], family_name=MEASURED_FAMILY.name,
    )
    quality = {
        "hypervolume": hypervolume(
            cold["result"].pareto, REFERENCE[("resnet20", "mobile-big-little")],
            cold["objectives"],
        ),
        "measured_pick_p99_ms": pick_metrics.p99_latency_ms,
    }
    digest = front_digest(cold["result"], cold["objectives"]) + cold["pick"].config.describe()
    # Every replay offers the peak member's one request stream.
    requests = len(context["serving"]) * len(
        workload.generate(MEASURED_REPLAY["duration_ms"], seed=traffic_seed)
    )
    return Outcome(digest=sha(digest), quality=quality, sim_requests=requests)


# -- serving-campaign -------------------------------------------------------------

CAMPAIGN_PLATFORMS = ("jetson-agx-xavier", "mobile-big-little")
CAMPAIGN_FAMILIES = ("on-off-bursts", "diurnal")
CAMPAIGN_BUDGET = dict(
    members_per_family=2, duration_ms=10000.0, generations=8, population_size=16, cell_workers=2
)


def _campaign_setup(seed: int, work_dir: Path):
    network = visformer()
    platforms = [get_platform(name) for name in CAMPAIGN_PLATFORMS]
    families = [get_family(name) for name in CAMPAIGN_FAMILIES]
    for family in families:
        family.peak_member(
            seed, CAMPAIGN_BUDGET["members_per_family"], probe_ms=CAMPAIGN_BUDGET["duration_ms"]
        )
    return dict(
        seed=seed, work_dir=work_dir, network=network, platforms=platforms, families=families
    )


def _campaign_run(context):
    work_dir = context["work_dir"]
    return run_serving_campaign(
        context["network"],
        context["platforms"],
        families=context["families"],
        seed=context["seed"],
        checkpoint_dir=work_dir / "checkpoint",
        cache=work_dir / "evaluations.jsonl",
        **CAMPAIGN_BUDGET,
    )


def _campaign_persist(context, cold) -> None:
    """Nothing to do: the campaign persists its own checkpoint and cache."""


def _simulated_requests(context, result) -> int:
    """Requests the campaign's replays offered the simulator.

    Every family member's stream is replayed once per front member of each
    platform, so the count follows from the streams and the front sizes.
    """
    members, duration_ms = CAMPAIGN_BUDGET["members_per_family"], CAMPAIGN_BUDGET["duration_ms"]
    seed = context["seed"]
    front_sizes = sum(len(result.campaign.front(platform)) for platform in result.platform_names)
    total = 0
    for family in context["families"]:
        for index, process in enumerate(family.expand(seed, members)):
            traffic_seed = member_traffic_seed(seed, family.name, index)
            total += len(process.generate(duration_ms, seed=traffic_seed)) * front_sizes
    return total


def _campaign_verify(checks: Checks, context, run, cold) -> None:
    objectives = default_objective_set()
    for platform in run.platform_names:
        check_search(checks, run.campaign.cell(platform).result, objectives)
    for cell in run.cells:
        for member in cell.members:
            check_replay(checks, member.metrics)
    checks.expect(
        traffic_ranking_summary(run) == traffic_ranking_summary(cold),
        "traffic ranking summary differs from the cold run's",
    )


def _campaign_outcome(context, cold) -> Outcome:
    objectives = default_objective_set()
    hv = sum(
        hypervolume(cold.campaign.front(platform), REFERENCE[("visformer", platform)])
        for platform in cold.platform_names
    )
    quality = {
        "hypervolume": hv,
        "served_p99_per_joule": max(cell.served_p99_per_joule for cell in cold.cells),
    }
    fronts = "".join(
        front_digest(cold.campaign.cell(platform).result, objectives)
        for platform in cold.platform_names
    )
    return Outcome(
        digest=sha(fronts + traffic_ranking_summary(cold)),
        quality=quality,
        sim_requests=_simulated_requests(context, cold),
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Runnable for traces and digests, but not listed in BENCHMARK.json:
        # its per-seed search and resume times vary too much (front sizes of
        # 28-75 drive the final Pareto pass) for five inputs per run to hold
        # the end-to-end bounds.
        Workload(
            name="proxy-search",
            inputs=5,
            workers=1,
            setup=_proxy_setup,
            cold=_proxy_search,
            persist=_persist_evaluations,
            resume=_proxy_resume,
            verify=_proxy_verify,
            outcome=_proxy_outcome,
        ),
        Workload(
            name="measured-search",
            inputs=5,
            workers=1,
            setup=_measured_setup,
            cold=_measured_search,
            persist=_measured_persist,
            resume=_measured_resume,
            verify=_measured_verify,
            outcome=_measured_outcome,
        ),
        Workload(
            name="serving-campaign",
            inputs=12,
            workers=CAMPAIGN_BUDGET["cell_workers"],
            setup=_campaign_setup,
            cold=_campaign_run,
            persist=_campaign_persist,
            resume=_campaign_run,
            verify=_campaign_verify,
            outcome=_campaign_outcome,
        ),
    )
}


def names() -> Sequence[str]:
    return tuple(WORKLOADS)
