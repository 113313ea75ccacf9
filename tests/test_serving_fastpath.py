"""Columnar serving replay vs the discrete-event loop it replaced, bit for bit.

:meth:`TrafficSimulator.run` replays a stream with one per-unit FIFO
recurrence per compute unit and decides every exit with
:meth:`ThresholdExitController.decide_many`.  The reference below is the
per-task heap event loop it replaced, kept verbatim together with the
per-request exit controller it called.  The guarantees under test:

* the records tuple, ``mean_in_flight``, ``busy_ms``, ``peak_in_flight``, the
  JSONL trace bytes and the generator state left behind all equal the
  reference's, across static, switcher and governor policies, noisy and
  noise-free controllers, default and per-request deadlines, multi-tenant
  streams, exact arrival/completion ties and stages sharing a unit;
* ``decide_many`` makes the exits of sequential ``decide`` calls and
  consumes the generator identically, also when an adaptive policy's
  decided-ahead exits are redone after a switch;
* Little's law and request/work conservation hold for every replay, and a
  request that meets no contention sees exactly its Eq. 13 latency.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.controller import ExitDecision, ThresholdExitController
from repro.errors import ConfigurationError
from repro.serving import (
    AdaptiveSwitchPolicy,
    ConstantRate,
    Deployment,
    DvfsGovernorPolicy,
    MultiTenantStream,
    PoissonArrivals,
    Request,
    RequestRecord,
    StaticPolicy,
    TrafficSimulator,
    write_trace_jsonl,
)
from repro.soc.platform import jetson_agx_xavier
from repro.utils import as_rng, check_fraction

PLATFORM = jetson_agx_xavier()


# -- reference: the per-request controller and the per-task heap event loop -------
def _reference_decide(
    controller: ThresholdExitController, difficulty, stage_accuracies, rng
) -> ExitDecision:
    """The per-request exit decision: one noise draw per non-final stage."""
    check_fraction(difficulty, "difficulty")
    accuracies = controller._validated_accuracies(stage_accuracies)
    generator = as_rng(rng)

    escalated = False
    last_stage = len(accuracies) - 1
    for stage_index, stage_accuracy in enumerate(accuracies):
        correct_here = bool(difficulty <= stage_accuracy)
        if stage_index == last_stage:
            return ExitDecision(
                stage=stage_index,
                correct=correct_here,
                premature=False,
                escalated=escalated,
            )
        correct = np.array([correct_here])
        confidence = float(
            np.clip(
                correct.astype(float)
                + generator.normal(0.0, controller.confidence_noise, size=correct.size)
                - 0.5 * (~correct),
                0.0,
                1.0,
            )[0]
        )
        if confidence >= controller.threshold:
            return ExitDecision(
                stage=stage_index,
                correct=correct_here,
                premature=not correct_here,
                escalated=escalated,
            )
        if correct_here:
            escalated = True
    raise AssertionError("unreachable: the final stage always exits")


@dataclass
class _Task:
    """One stage of one in-flight request, queued on a compute unit."""

    state: "_RequestState"
    stage: int
    service_ms: float


@dataclass
class _RequestState:
    """Mutable bookkeeping of one admitted request."""

    index: int
    request: Request
    deployment_name: str
    exit_stage: int
    correct: bool
    energy_mj: float
    critical_service_ms: float
    remaining_tasks: int
    completion_ms: float = 0.0


@dataclass(frozen=True)
class _ReferenceResult:
    records: tuple
    duration_ms: float
    busy_ms: Dict[str, float]
    mean_in_flight: float
    peak_in_flight: int


def _reference_run(
    self: TrafficSimulator, requests, duration_ms: Optional[float] = None
) -> _ReferenceResult:
    """The per-task heap event loop, as ``TrafficSimulator.run`` used to be."""
    if not requests:
        raise ConfigurationError("cannot simulate an empty request stream")
    rng = as_rng(self._seed)
    ordered = sorted(requests, key=lambda r: r.arrival_ms)
    difficulties = self._draw_difficulties(rng, len(ordered))
    self.policy.reset()

    unit_names = self.platform.unit_names
    validated_deployments: Dict[int, object] = {}
    queues: Dict[str, deque] = {name: deque() for name in unit_names}
    busy: Dict[str, bool] = {name: False for name in unit_names}
    busy_ms: Dict[str, float] = {name: 0.0 for name in unit_names}

    events: list = []
    for seq, request in enumerate(ordered):
        heapq.heappush(events, (request.arrival_ms, seq, "arrival", seq))
    next_seq = len(ordered)

    in_flight = 0
    peak_in_flight = 0
    in_flight_area = 0.0
    last_event_ms = 0.0
    records: list = []

    def start_task(unit: str, task: _Task, now: float) -> None:
        nonlocal next_seq
        busy[unit] = True
        busy_ms[unit] += task.service_ms
        heapq.heappush(events, (now + task.service_ms, next_seq, "done", (unit, task)))
        next_seq += 1

    while events:
        now, _, kind, payload = heapq.heappop(events)
        in_flight_area += in_flight * (now - last_event_ms)
        last_event_ms = now

        if kind == "arrival":
            request_index = payload
            request = ordered[request_index]
            deployment = self.policy.select(in_flight, now)
            if id(deployment) not in validated_deployments:
                self._check_deployment_units(deployment)
                validated_deployments[id(deployment)] = deployment
            decision = _reference_decide(
                self.controller, difficulties[request_index], deployment.stage_accuracies, rng
            )
            state = _RequestState(
                index=request_index,
                request=request,
                deployment_name=deployment.name,
                exit_stage=decision.stage,
                correct=decision.correct,
                energy_mj=deployment.cumulative_energy_mj(decision.stage),
                critical_service_ms=deployment.cumulative_latency_ms(decision.stage),
                remaining_tasks=decision.stage + 1,
            )
            in_flight += 1
            peak_in_flight = max(peak_in_flight, in_flight)
            for stage in range(decision.stage + 1):
                unit = deployment.unit_names[stage]
                task = _Task(state=state, stage=stage, service_ms=deployment.service_ms[stage])
                if busy[unit]:
                    queues[unit].append(task)
                else:
                    start_task(unit, task, now)
        else:  # "done"
            unit, task = payload
            state = task.state
            state.remaining_tasks -= 1
            state.completion_ms = max(state.completion_ms, now)
            if state.remaining_tasks == 0:
                in_flight -= 1
                records.append(_reference_finish(self, state))
            if queues[unit]:
                start_task(unit, queues[unit].popleft(), now)
            else:
                busy[unit] = False

    makespan = last_event_ms
    horizon = makespan if duration_ms is None else max(float(duration_ms), makespan)
    mean_in_flight = in_flight_area / horizon if horizon > 0 else 0.0
    records.sort(key=lambda record: record.index)
    return _ReferenceResult(
        records=tuple(records),
        duration_ms=horizon,
        busy_ms=dict(busy_ms),
        mean_in_flight=mean_in_flight,
        peak_in_flight=peak_in_flight,
    )


def _reference_finish(self: TrafficSimulator, state: _RequestState) -> RequestRecord:
    latency = state.completion_ms - state.request.arrival_ms
    deadline = (
        state.request.deadline_ms
        if state.request.deadline_ms is not None
        else self.deadline_ms
    )
    return RequestRecord(
        index=state.index,
        tenant=state.request.tenant,
        arrival_ms=state.request.arrival_ms,
        completion_ms=state.completion_ms,
        latency_ms=latency,
        service_ms=state.critical_service_ms,
        queueing_ms=latency - state.critical_service_ms,
        exit_stage=state.exit_stage,
        num_stages=state.exit_stage + 1,
        deployment=state.deployment_name,
        correct=state.correct,
        energy_mj=state.energy_mj,
        deadline_ms=deadline,
        deadline_missed=deadline is not None and latency > deadline,
    )


# -- scenarios ----------------------------------------------------------------------
CASCADE = Deployment(
    name="cascade",
    unit_names=("gpu", "dla0", "dla1"),
    service_ms=(5.0, 20.0, 30.0),
    energy_mj=(40.0, 10.0, 12.0),
    stage_accuracies=(0.5, 0.7, 0.9),
    dvfs_scales=(1.0, 1.0, 1.0),
)
FAST = Deployment(
    name="fast",
    unit_names=("gpu", "dla0"),
    service_ms=(3.0, 6.5),
    energy_mj=(55.0, 20.0),
    stage_accuracies=(0.6, 0.9),
    dvfs_scales=(1.0, 1.0),
)
# Stages 0 and 2 queue on the same unit, behind each other.
SHARED = Deployment(
    name="shared",
    unit_names=("gpu", "dla0", "gpu"),
    service_ms=(4.0, 9.0, 7.0),
    energy_mj=(30.0, 8.0, 16.0),
    stage_accuracies=(0.4, 0.75, 0.95),
    dvfs_scales=(1.0, 1.0, 1.0),
)
SINGLE = Deployment(
    name="mm1",
    unit_names=("gpu",),
    service_ms=(10.0,),
    energy_mj=(25.0,),
    stage_accuracies=(0.9,),
    dvfs_scales=(1.0,),
)

POLICIES = {
    "static": lambda: StaticPolicy(CASCADE),
    "shared-unit": lambda: StaticPolicy(SHARED),
    "switcher": lambda: AdaptiveSwitchPolicy(CASCADE, FAST, high_watermark=3, low_watermark=1),
    "governor": lambda: DvfsGovernorPolicy(CASCADE, PLATFORM, high_watermark=2, low_watermark=0),
}

STREAMS = {
    "poisson": lambda: PoissonArrivals(70.0).generate(3000.0, seed=4),
    "per-request-deadline": lambda: PoissonArrivals(60.0, deadline_ms=40.0).generate(
        3000.0, seed=5
    ),
    "multi-tenant": lambda: MultiTenantStream(
        (
            PoissonArrivals(35.0, tenant="interactive", deadline_ms=35.0),
            PoissonArrivals(25.0, tenant="batch"),
        )
    ).generate(3000.0, seed=6),
    # Bursts of identical arrival times: every tie-break rule is exercised.
    "duplicate-arrivals": lambda: tuple(
        Request(arrival_ms=float(10 * (k // 4)), deadline_ms=60.0 if k % 3 else None)
        for k in range(120)
    ),
}


def _simulator(policy_name, noise=0.0, seed=11, deadline_ms=None, policy=None):
    return TrafficSimulator(
        PLATFORM,
        policy if policy is not None else POLICIES[policy_name](),
        controller=ThresholdExitController(threshold=0.6, confidence_noise=noise, seed=0),
        seed=seed,
        deadline_ms=deadline_ms,
    )


def _bits(value: float) -> str:
    return float(value).hex()


def _assert_matches_reference(make_simulator, requests, tmp_path, duration_ms=None):
    """Replay ``requests`` both ways on identically seeded generators."""
    fast_rng, reference_rng = np.random.default_rng(21), np.random.default_rng(21)
    fast = make_simulator(fast_rng).run(requests, duration_ms=duration_ms)
    reference = _reference_run(make_simulator(reference_rng), requests, duration_ms)

    assert fast.records == reference.records
    assert fast.duration_ms == reference.duration_ms
    assert _bits(fast.mean_in_flight) == _bits(reference.mean_in_flight)
    assert {k: _bits(v) for k, v in fast.busy_ms.items()} == {
        k: _bits(v) for k, v in reference.busy_ms.items()
    }
    assert list(fast.busy_ms) == list(reference.busy_ms)
    assert fast.peak_in_flight == reference.peak_in_flight
    assert fast_rng.bit_generator.state == reference_rng.bit_generator.state

    fast.write_trace(tmp_path / "fast.jsonl")
    write_trace_jsonl(reference.records, tmp_path / "reference.jsonl")
    assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
    return fast


class TestReplayMatchesEventLoop:
    @pytest.mark.parametrize("noise", [0.0, 0.15])
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("stream_name", sorted(STREAMS))
    def test_policies_streams_and_noise(self, policy_name, stream_name, noise, tmp_path):
        requests = STREAMS[stream_name]()
        _assert_matches_reference(
            lambda rng: _simulator(policy_name, noise=noise, seed=rng),
            requests,
            tmp_path,
            duration_ms=3000.0,
        )

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_default_deadline(self, policy_name, tmp_path):
        requests = PoissonArrivals(80.0).generate(2000.0, seed=8)
        fast = _assert_matches_reference(
            lambda rng: _simulator(policy_name, seed=rng, deadline_ms=12.0),
            requests,
            tmp_path,
        )
        assert any(record.deadline_missed for record in fast.records)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_constant_rate_gap_equals_service(self, adaptive, tmp_path):
        # Each arrival lands exactly when the previous request completes, so
        # it still counts that request as in flight: the switcher surges.
        requests = ConstantRate(100.0).generate(1000.0, seed=0)
        twin = Deployment(
            name="mm1-twin",
            unit_names=SINGLE.unit_names,
            service_ms=SINGLE.service_ms,
            energy_mj=(30.0,),
            stage_accuracies=SINGLE.stage_accuracies,
            dvfs_scales=SINGLE.dvfs_scales,
        )
        policy = (
            AdaptiveSwitchPolicy(SINGLE, twin, high_watermark=1, low_watermark=0)
            if adaptive
            else StaticPolicy(SINGLE)
        )
        fast = _assert_matches_reference(
            lambda rng: TrafficSimulator(PLATFORM, policy, seed=rng),
            requests,
            tmp_path,
        )
        assert fast.peak_in_flight == 2
        if adaptive:
            assert {record.deployment for record in fast.records[1:]} == {"mm1-twin"}

    @pytest.mark.parametrize("policy_name", ["static", "switcher"])
    def test_one_request_without_window(self, policy_name, tmp_path):
        fast = _assert_matches_reference(
            lambda rng: _simulator(policy_name, seed=rng),
            (Request(arrival_ms=2.5),),
            tmp_path,
        )
        assert fast.duration_ms == fast.records[0].completion_ms

    @pytest.mark.parametrize("policy_name", ["static", "governor"])
    def test_generator_reused_across_runs(self, policy_name):
        first = PoissonArrivals(50.0).generate(1500.0, seed=1)
        second = PoissonArrivals(90.0).generate(1500.0, seed=2)
        fast_rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
        fast = _simulator(policy_name, noise=0.15, seed=fast_rng)
        reference = _simulator(policy_name, noise=0.15, seed=reference_rng)
        for requests in (first, second):
            assert fast.run(requests).records == _reference_run(reference, requests).records
            assert fast_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_result_equality_compares_the_replay(self):
        requests = PoissonArrivals(60.0).generate(2000.0, seed=2)
        first = _simulator("static", seed=4).run(requests)
        assert first == _simulator("static", seed=4).run(requests)
        assert first != _simulator("static", seed=5).run(requests)

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError, match="empty request stream"):
            _simulator("static").run([])

    @pytest.mark.parametrize("policy_name", ["static", "switcher"])
    def test_unknown_unit_rejected(self, policy_name):
        rogue = Deployment(
            name="rogue",
            unit_names=("tpu",),
            service_ms=(1.0,),
            energy_mj=(1.0,),
            stage_accuracies=(0.9,),
            dvfs_scales=(1.0,),
        )
        policy = (
            StaticPolicy(rogue)
            if policy_name == "static"
            else AdaptiveSwitchPolicy(rogue, FAST)
        )
        with pytest.raises(ConfigurationError, match="unknown compute unit"):
            _simulator(policy_name, policy=policy).run([Request(arrival_ms=0.0)])


class TestDecideMany:
    @pytest.mark.parametrize("noise", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(
        "accuracies", [(0.5, 0.7, 0.9), (0.3, 0.3, 0.8, 0.95), (0.9,), (0.2, 0.6)]
    )
    def test_matches_sequential_decide(self, threshold, noise, accuracies):
        controller = ThresholdExitController(threshold=threshold, confidence_noise=noise)
        difficulties = np.random.default_rng(1).random(400)
        batch_rng, one_by_one_rng = np.random.default_rng(5), np.random.default_rng(5)
        stages, correct = controller.decide_many(difficulties, accuracies, rng=batch_rng)
        reference = [
            _reference_decide(controller, difficulty, accuracies, one_by_one_rng)
            for difficulty in difficulties
        ]
        assert stages.tolist() == [decision.stage for decision in reference]
        assert correct.tolist() == [decision.correct for decision in reference]
        assert batch_rng.bit_generator.state == one_by_one_rng.bit_generator.state

        decide_rng = np.random.default_rng(5)
        assert [
            controller.decide(difficulty, accuracies, rng=decide_rng)
            for difficulty in difficulties
        ] == reference
        assert decide_rng.bit_generator.state == one_by_one_rng.bit_generator.state

    def test_rejects_out_of_range_difficulties(self):
        controller = ThresholdExitController()
        with pytest.raises(ConfigurationError, match="difficulties"):
            controller.decide_many([0.2, 1.5], (0.5, 0.9))
        with pytest.raises(ConfigurationError, match="difficulties"):
            controller.decide_many([float("nan")], (0.5, 0.9))


# -- random replays --------------------------------------------------------------------
@st.composite
def replays(draw):
    """A random mapping, policy and arrival stream (ties included)."""
    num_stages = draw(st.integers(min_value=1, max_value=3))
    units = tuple(draw(st.sampled_from(PLATFORM.unit_names)) for _ in range(num_stages))
    service = tuple(
        draw(st.floats(min_value=0.5, max_value=25.0, allow_nan=False))
        for _ in range(num_stages)
    )
    accuracies = tuple(
        sorted(draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(num_stages))
    )
    deployment = Deployment(
        name="drawn",
        unit_names=units,
        service_ms=service,
        energy_mj=tuple(1.0 + stage for stage in range(num_stages)),
        stage_accuracies=accuracies,
        dvfs_scales=(1.0,) * num_stages,
    )
    arrivals = draw(
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
                st.sampled_from([0.0, 5.0, 10.0]),
            ),
            min_size=1,
            max_size=150,
        )
    )
    adaptive = draw(st.booleans())
    policy = (
        AdaptiveSwitchPolicy(deployment, CASCADE, high_watermark=2, low_watermark=0)
        if adaptive
        else StaticPolicy(deployment)
    )
    noise = draw(st.sampled_from([0.0, 0.2]))
    return policy, noise, tuple(Request(arrival_ms=t) for t in arrivals)


class TestRandomReplays:
    @given(replays())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, replay):
        policy, noise, requests = replay

        def simulator(rng):
            controller = ThresholdExitController(threshold=0.6, confidence_noise=noise)
            return TrafficSimulator(PLATFORM, policy, controller=controller, seed=rng)

        fast_rng, reference_rng = np.random.default_rng(8), np.random.default_rng(8)
        fast = simulator(fast_rng).run(requests)
        reference = _reference_run(simulator(reference_rng), requests)
        assert fast.records == reference.records
        assert _bits(fast.mean_in_flight) == _bits(reference.mean_in_flight)
        assert fast.busy_ms == reference.busy_ms
        assert fast.peak_in_flight == reference.peak_in_flight
        assert fast_rng.bit_generator.state == reference_rng.bit_generator.state


class TestReplayInvariants:
    @given(replays())
    @settings(max_examples=80, deadline=None)
    def test_conservation_and_littles_law(self, replay):
        policy, noise, requests = replay
        simulator = TrafficSimulator(
            PLATFORM,
            policy,
            controller=ThresholdExitController(threshold=0.6, confidence_noise=noise),
            seed=3,
        )
        result = simulator.run(requests)

        # One record per request, in arrival order.
        assert [record.index for record in result.records] == list(range(len(requests)))
        assert sorted(record.arrival_ms for record in result.records) == sorted(
            request.arrival_ms for request in requests
        )
        # Little's law over the whole replay: the time integral of the
        # in-flight count is the total sojourn time.
        total_latency = math.fsum(record.latency_ms for record in result.records)
        assert result.mean_in_flight * result.duration_ms == pytest.approx(
            total_latency, rel=1e-9
        )
        # Work conservation: each unit is busy exactly for the tasks it ran.
        deployments = {
            deployment.name: deployment
            for deployment in (
                (policy.deployment,) if isinstance(policy, StaticPolicy)
                else (policy.calm, policy.surge)
            )
        }
        work = {name: [] for name in PLATFORM.unit_names}
        for record in result.records:
            deployment = deployments[record.deployment]
            for stage in range(record.num_stages):
                work[deployment.unit_names[stage]].append(deployment.service_ms[stage])
        expected = {name: math.fsum(services) for name, services in work.items()}
        assert result.busy_ms == pytest.approx(expected, rel=1e-12, abs=1e-12)
        # Nobody finishes before their own critical path (Eq. 13).
        for record in result.records:
            assert record.completion_ms >= record.arrival_ms + record.service_ms

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_zero_contention_latency_is_cumulative_max(self, offsets, seed):
        # Requests spaced wider than the slowest stage never queue; arrivals
        # on a whole-millisecond grid keep ``completion - arrival`` exact.
        spacing = 2.0 * max(CASCADE.service_ms)
        requests = tuple(
            Request(arrival_ms=spacing * index + offset)
            for index, offset in enumerate(offsets)
        )
        result = TrafficSimulator(PLATFORM, StaticPolicy(CASCADE), seed=seed).run(requests)
        for record in result.records:
            expected = CASCADE.cumulative_latency_ms(record.exit_stage)
            assert record.latency_ms == record.service_ms == expected
            assert record.queueing_ms == 0.0
