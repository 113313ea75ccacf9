"""Deterministic simulation of mappings under traffic.

This is the second relaxation of the paper's ideal-input-mapping assumption.
The first (:mod:`repro.dynamics.controller`) admitted that a deployed system
does not know a priori how many stages a sample needs; this module admits
that requests *contend*: every compute unit serves a FIFO queue, so the
latency a user sees is queueing delay plus service, not the isolated
per-sample makespan of Table II.

Execution model
---------------
A request admitted at time ``t`` is assigned a deployment by the serving
policy (from the number of requests in flight) and an exit stage by the
:class:`~repro.dynamics.controller.ThresholdExitController` (from its latent
difficulty).  Under the paper's concurrent-execution model the instantiated
stages ``S_1 .. S_i`` run in parallel on their (distinct) compute units, so
the request enqueues one task per instantiated stage at admission; each task
occupies its unit's FIFO queue for the stage's service time, and the request
completes when its last task does.  At zero contention this reproduces
Eq. 13/14 exactly: latency ``max_{k<=i} T_{S_k}``, energy ``E_{S_{1:i}}``.

The replay needs no global event queue, yet reproduces a per-task
discrete-event loop's schedule bit for bit.  Tasks reach a unit in
(arrival, stage) order and the unit serves them first come, first served,
so each unit's finish times follow the recurrence
``f = max(arrival, f) + service`` in that order, with the same float
operations the event loop performs; a request completes at the maximum of
its tasks' finish times.  Ties follow the discrete-event convention that an
arrival is processed before a completion at the same instant: a task
arriving exactly when its unit frees up starts then (``max`` picks either
equal value), and the requests in flight seen by an arrival are those whose
completion is not strictly earlier.  The in-flight count is the only queue state a policy
reads; a :class:`~repro.serving.policies.StaticPolicy` reads none, so its
whole stream is decided in one array pass and each unit's recurrence is one
tight loop.  The time-averaged in-flight count integrates the piecewise
constant count between consecutive event times (arrivals and every task
finish), accumulated sequentially in time order.

Determinism: identical seed + scenario + policy replays the identical
schedule; the exported JSONL trace is byte-identical across runs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..dynamics.controller import ThresholdExitController
from ..errors import ConfigurationError
from ..soc.platform import Platform
from ..utils import as_rng, check_positive
from .policies import Deployment, ServingPolicy, StaticPolicy
from .workload import Request

__all__ = ["RequestRecord", "ServingResult", "TrafficSimulator"]


@dataclass(frozen=True)
class RequestRecord:
    """Trace entry for one completed request."""

    index: int
    tenant: str
    arrival_ms: float
    completion_ms: float
    latency_ms: float
    service_ms: float
    queueing_ms: float
    exit_stage: int
    num_stages: int
    deployment: str
    correct: bool
    energy_mj: float
    deadline_ms: Optional[float]
    deadline_missed: bool

    def to_json_dict(self) -> dict:
        """Flat JSON-serialisable view used by the JSONL trace export."""
        return {
            "index": self.index,
            "tenant": self.tenant,
            "arrival_ms": self.arrival_ms,
            "completion_ms": self.completion_ms,
            "latency_ms": self.latency_ms,
            "service_ms": self.service_ms,
            "queueing_ms": self.queueing_ms,
            "exit_stage": self.exit_stage,
            "num_stages": self.num_stages,
            "deployment": self.deployment,
            "correct": self.correct,
            "energy_mj": self.energy_mj,
            "deadline_ms": self.deadline_ms,
            "deadline_missed": self.deadline_missed,
        }


@dataclass(frozen=True, eq=False)
class ServingResult:
    """Everything one simulation run produced, held as per-request columns.

    Request ``k`` is the ``k``-th arrival (``requests`` is arrival-ordered)
    and every per-request array is indexed the same way; :attr:`records`
    materialises the rows as :class:`RequestRecord` objects on demand.
    ``deadline_ms`` is ``NaN`` where no deadline applies.

    ``busy_ms`` maps compute-unit names to total occupied time;
    ``mean_in_flight`` is the time-averaged number of requests in the system
    (measured independently of per-request latencies, so Little's law
    ``L = lambda * W`` is a non-trivial consistency check of the replay).
    """

    policy: str
    duration_ms: float
    busy_ms: Mapping[str, float]
    mean_in_flight: float
    peak_in_flight: int
    requests: Tuple[Request, ...]
    deployment_names: Tuple[str, ...]
    deployment_index: np.ndarray
    exit_stage: np.ndarray
    correct: np.ndarray
    completion_ms: np.ndarray
    latency_ms: np.ndarray
    service_ms: np.ndarray
    queueing_ms: np.ndarray
    energy_mj: np.ndarray
    deadline_ms: np.ndarray
    deadline_missed: np.ndarray

    @property
    def num_requests(self) -> int:
        """Number of completed requests."""
        return len(self.requests)

    @cached_property
    def records(self) -> Tuple[RequestRecord, ...]:
        """One :class:`RequestRecord` per request, in arrival order."""
        names = self.deployment_names
        return tuple(
            RequestRecord(
                index=index,
                tenant=request.tenant,
                arrival_ms=request.arrival_ms,
                completion_ms=completion,
                latency_ms=latency,
                service_ms=service,
                queueing_ms=queueing,
                exit_stage=stage,
                num_stages=stage + 1,
                deployment=names[deployment],
                correct=correct,
                energy_mj=energy,
                deadline_ms=None if math.isnan(deadline) else deadline,
                deadline_missed=missed,
            )
            for index, (
                request, completion, latency, service, queueing, stage,
                deployment, correct, energy, deadline, missed,
            ) in enumerate(
                zip(
                    self.requests,
                    self.completion_ms.tolist(),
                    self.latency_ms.tolist(),
                    self.service_ms.tolist(),
                    self.queueing_ms.tolist(),
                    self.exit_stage.tolist(),
                    self.deployment_index.tolist(),
                    self.correct.tolist(),
                    self.energy_mj.tolist(),
                    self.deadline_ms.tolist(),
                    self.deadline_missed.tolist(),
                )
            )
        )

    def _identity(self) -> tuple:
        return (
            self.policy,
            self.records,
            self.duration_ms,
            self.busy_ms,
            self.mean_in_flight,
            self.peak_in_flight,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()

    def metrics(self):
        """Aggregate percentile/throughput/energy metrics for this run."""
        from .metrics import compute_metrics

        return compute_metrics(self)

    def write_trace(self, path) -> None:
        """Export the per-request trace as JSON lines (byte-deterministic)."""
        from .metrics import write_trace_jsonl

        write_trace_jsonl(self.records, path)


#: Requests whose exits an adaptive replay decides ahead in one batch.
_DECISION_BLOCK = 64


class _Replay(NamedTuple):
    """Raw outcome of one replay, before the per-request columns are derived."""

    deployments: Tuple[Deployment, ...]
    deployment_index: np.ndarray
    exit_stage: np.ndarray
    correct: np.ndarray
    completion_ms: np.ndarray
    task_finish_ms: np.ndarray
    busy_ms: Dict[str, float]


def _fifo_finishes(arrivals: np.ndarray, services: np.ndarray) -> List[float]:
    """Finish times of tasks served first come, first served by one unit."""
    free_at = 0.0
    return [
        free_at := (arrival if arrival >= free_at else free_at) + service
        for arrival, service in zip(arrivals.tolist(), services.tolist())
    ]


class TrafficSimulator:
    """Seedable simulator of one platform under a policy.

    Parameters
    ----------
    platform:
        The MPSoC; deployments returned by the policy must only name its
        compute units.
    policy:
        Serving policy choosing a deployment per request
        (:mod:`repro.serving.policies`).
    controller:
        Runtime exit controller; ``None`` uses a noise-free
        :class:`~repro.dynamics.controller.ThresholdExitController`, which
        reproduces the paper's ideal exit behaviour in expectation.
    seed:
        Seed of the per-request difficulty and confidence-noise draws.
    deadline_ms:
        Default relative deadline applied to requests that do not carry one;
        ``None`` disables deadline accounting for those requests.
    stratified_difficulty:
        Draw request difficulties from a seeded permutation of an evenly
        spaced grid instead of i.i.d. uniforms.  This variance reduction
        makes the empirical exit fractions match the ideal analysis almost
        exactly at any trace length (used by the zero-load consistency
        checks); set ``False`` for fully independent requests.
    """

    def __init__(
        self,
        platform: Platform,
        policy: ServingPolicy,
        controller: Optional[ThresholdExitController] = None,
        seed: "int | np.random.Generator | None" = 0,
        deadline_ms: Optional[float] = None,
        stratified_difficulty: bool = True,
    ) -> None:
        self.platform = platform
        self.policy = policy
        self.controller = (
            controller
            if controller is not None
            else ThresholdExitController(threshold=0.5, confidence_noise=0.0, seed=0)
        )
        self._seed = seed
        if deadline_ms is not None:
            check_positive(deadline_ms, "deadline_ms")
        self.deadline_ms = deadline_ms
        self.stratified_difficulty = bool(stratified_difficulty)

    def run(
        self,
        requests: Sequence[Request],
        duration_ms: Optional[float] = None,
    ) -> ServingResult:
        """Play ``requests`` through the platform and return the full trace.

        Parameters
        ----------
        requests:
            The request stream (any order; sorted by arrival internally).
        duration_ms:
            Observation window used for throughput/utilisation
            normalisation; defaults to the last completion time.
        """
        if not requests:
            raise ConfigurationError("cannot simulate an empty request stream")
        rng = as_rng(self._seed)
        arrivals = np.array([request.arrival_ms for request in requests], dtype=float)
        # A stable sort: simultaneous arrivals keep their stream order.
        order = np.argsort(arrivals, kind="stable")
        ordered = tuple([requests[index] for index in order.tolist()])
        arrivals = arrivals[order]
        difficulties = self._draw_difficulties(rng, len(ordered))
        self.policy.reset()
        # A static policy never reads the in-flight count, so no exit or
        # deployment choice waits on an earlier request's completion.
        if isinstance(self.policy, StaticPolicy):
            replay = self._replay_static(arrivals, difficulties, rng)
        else:
            replay = self._replay_adaptive(arrivals, difficulties, rng)
        return self._result(ordered, arrivals, replay, duration_ms)

    # -- internals ---------------------------------------------------------------
    def _draw_difficulties(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.stratified_difficulty:
            grid = (np.arange(count) + 0.5) / count
            return rng.permutation(grid)
        return rng.random(count)

    def _check_deployment_units(self, deployment) -> None:
        for name in deployment.unit_names:
            if name not in self.platform.unit_names:
                raise ConfigurationError(
                    f"deployment {deployment.name!r} maps a stage to unknown "
                    f"compute unit {name!r} on platform {self.platform.name!r}"
                )

    def _replay_static(
        self, arrivals: np.ndarray, difficulties: np.ndarray, rng: np.random.Generator
    ) -> _Replay:
        """Whole-stream replay of a policy that ignores the queue state."""
        deployment = self.policy.deployment
        self._check_deployment_units(deployment)
        stages, correct = self.controller.decide_many(
            difficulties, deployment.stage_accuracies, rng=rng
        )
        services = np.array(deployment.service_ms, dtype=float)
        # finish[k, s]: when request k's stage-s task finishes (-inf: not run).
        finish = np.full((arrivals.size, deployment.num_stages), -np.inf)
        busy_ms = {name: 0.0 for name in self.platform.unit_names}
        for unit in dict.fromkeys(deployment.unit_names):
            unit_stages = np.array(
                [stage for stage, name in enumerate(deployment.unit_names) if name == unit]
            )
            # Row-major nonzero: the unit's tasks in (arrival, stage) order.
            rows, columns = np.nonzero(stages[:, None] >= unit_stages)
            unit_services = services[unit_stages[columns]]
            finish[rows, unit_stages[columns]] = _fifo_finishes(arrivals[rows], unit_services)
            # Sequential, in service order, like the unit accumulating it.
            busy_ms[unit] = float(np.cumsum(unit_services)[-1]) if rows.size else 0.0
        return _Replay(
            deployments=(deployment,),
            deployment_index=np.zeros(arrivals.size, dtype=int),
            exit_stage=stages,
            correct=correct,
            completion_ms=finish.max(axis=1),
            task_finish_ms=finish[finish > -np.inf],
            busy_ms=busy_ms,
        )

    def _replay_adaptive(
        self, arrivals: np.ndarray, difficulties: np.ndarray, rng: np.random.Generator
    ) -> _Replay:
        """Arrival-by-arrival replay of a policy that reads the queue state.

        Exits depend on the deployment only through its stage accuracies,
        which change rarely between consecutive requests (a switcher flips
        between two mappings, DVFS rungs share them).  So exits are decided
        ahead for a block of requests; when the accuracies change mid-block,
        the generator is rewound and only the requests already served are
        decided again, which leaves it exactly where per-request decisions
        would.
        """
        # Policies hand back the same few Deployment objects for the whole
        # run; validate each distinct one once instead of per arrival.  Keyed
        # by id with the object kept referenced, so a freed id can't alias.
        position: Dict[int, int] = {}
        deployments: List[Deployment] = []
        free_at = {name: 0.0 for name in self.platform.unit_names}
        busy_ms = {name: 0.0 for name in self.platform.unit_names}
        in_system: List[float] = []  # min-heap of completion times
        count = arrivals.size
        deployment_index = np.empty(count, dtype=int)
        stages = np.empty(count, dtype=int)
        correct = np.empty(count, dtype=bool)
        completion = np.empty(count)
        task_finishes: List[float] = []
        # Decided-ahead exits of requests block_start.., and the generator
        # state they were decided from.
        block_start, block_accuracies, block_state = 0, None, None
        block_stages: List[int] = []
        block_correct: List[bool] = []
        for index, arrival in enumerate(arrivals.tolist()):
            # A request completing exactly now is still in flight: arrivals
            # are processed before completions at the same instant.
            while in_system and in_system[0] < arrival:
                heapq.heappop(in_system)
            deployment = self.policy.select(len(in_system), arrival)
            if id(deployment) not in position:
                self._check_deployment_units(deployment)
                position[id(deployment)] = len(deployments)
                deployments.append(deployment)
            accuracies = deployment.stage_accuracies
            block_end = block_start + len(block_stages)
            if index == block_end or accuracies != block_accuracies:
                if index < block_end:
                    # Mid-block change: decide only the served requests again.
                    rng.bit_generator.state = block_state
                    self.controller.decide_many(
                        difficulties[block_start:index], block_accuracies, rng=rng
                    )
                block_start, block_accuracies = index, accuracies
                block_state = rng.bit_generator.state
                decided, right = self.controller.decide_many(
                    difficulties[index : index + _DECISION_BLOCK], accuracies, rng=rng
                )
                block_stages, block_correct = decided.tolist(), right.tolist()
            stage = block_stages[index - block_start]
            done = 0.0
            for unit, service in zip(
                deployment.unit_names[: stage + 1], deployment.service_ms[: stage + 1]
            ):
                start = free_at[unit]
                free_at[unit] = finish = (arrival if arrival >= start else start) + service
                busy_ms[unit] += service
                task_finishes.append(finish)
                done = finish if finish > done else done
            heapq.heappush(in_system, done)
            deployment_index[index] = position[id(deployment)]
            stages[index] = stage
            correct[index] = block_correct[index - block_start]
            completion[index] = done
        return _Replay(
            deployments=tuple(deployments),
            deployment_index=deployment_index,
            exit_stage=stages,
            correct=correct,
            completion_ms=completion,
            task_finish_ms=np.array(task_finishes),
            busy_ms=busy_ms,
        )

    def _result(
        self,
        ordered: Tuple[Request, ...],
        arrivals: np.ndarray,
        replay: _Replay,
        duration_ms: Optional[float],
    ) -> ServingResult:
        """Per-request columns and in-flight statistics of one replay."""
        count = arrivals.size
        width = max(deployment.num_stages for deployment in replay.deployments)
        critical = np.zeros((len(replay.deployments), width))
        energy = np.zeros_like(critical)
        for row, deployment in enumerate(replay.deployments):
            for stage in range(deployment.num_stages):
                critical[row, stage] = deployment.cumulative_latency_ms(stage)
                energy[row, stage] = deployment.cumulative_energy_mj(stage)
        service = critical[replay.deployment_index, replay.exit_stage]
        latency = replay.completion_ms - arrivals
        default_deadline = np.nan if self.deadline_ms is None else self.deadline_ms
        deadlines = np.array(
            [
                default_deadline if request.deadline_ms is None else request.deadline_ms
                for request in ordered
            ],
            dtype=float,
        )

        # In flight at arrival k: the k earlier arrivals, minus the requests
        # that completed strictly before it (ties count as still in flight).
        completed_before = np.searchsorted(
            np.sort(replay.completion_ms), arrivals, side="left"
        )
        peak_in_flight = int((np.arange(1, count + 1) - completed_before).max())
        # Time integral of the in-flight count over every event time; a
        # sequential cumsum keeps the accumulation order of an event-by-event
        # sum, and same-time events add exactly 0.0.
        times = np.concatenate((arrivals, replay.task_finish_ms, replay.completion_ms))
        steps = np.concatenate(
            (np.ones(count), np.zeros(replay.task_finish_ms.size), -np.ones(count))
        )
        order = np.argsort(times, kind="stable")
        times = times[order]
        in_flight_before = np.concatenate(([0.0], np.cumsum(steps[order])[:-1]))
        area = float(np.cumsum(in_flight_before * np.diff(times, prepend=0.0))[-1])
        makespan = float(times[-1])
        horizon = makespan if duration_ms is None else max(float(duration_ms), makespan)
        return ServingResult(
            policy=self.policy.name,
            duration_ms=horizon,
            busy_ms=replay.busy_ms,
            mean_in_flight=area / horizon if horizon > 0 else 0.0,
            peak_in_flight=peak_in_flight,
            requests=ordered,
            deployment_names=tuple(deployment.name for deployment in replay.deployments),
            deployment_index=replay.deployment_index,
            exit_stage=replay.exit_stage,
            correct=replay.correct,
            completion_ms=replay.completion_ms,
            latency_ms=latency,
            service_ms=service,
            queueing_ms=latency - service,
            energy_mj=energy[replay.deployment_index, replay.exit_stage],
            deadline_ms=deadlines,
            deadline_missed=latency > deadlines,
        )
