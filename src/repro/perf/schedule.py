"""Concurrent execution model with inter-stage dependencies (Eq. 8-9).

Stages run concurrently on their assigned compute units, but a sub-layer
``l^j_i`` may only start once all of its required inputs are local: its own
previous sub-layer output plus the previous-layer features of every earlier
stage whose indicator bit is set, each of which incurs a shared-memory
transfer ``u_{k->i}``.  The cumulative latency recursion of Eq. 8,

    T^j_i = tau^j_i + max( T^{j-1}_i,
                           max_{k<i, I_k=1} ( T^{j-1}_k + u^{j-1}_{k->i} ) ),

is evaluated layer by layer; the latency of a stage is the cumulative latency
of its last layer plus its exit head (Eq. 9), and the stall time (the waiting
visible in Fig. 3) is reported separately for analysis.

One evaluation builds each sub-layer's and exit head's :class:`LayerWorkload`
once (:func:`stage_workloads`, shared with the energy pass of
:mod:`repro.perf.evaluator`), prices every feature transfer as one array
(:meth:`Interconnect.transfer_latencies_ms`) and runs the recursion over
plain floats.  The cost model is queried per workload in stage, then layer,
order, then once per exit head -- the sequence a stateful (noisy) model
sees.  The row-wise reference, built from ``LayerWorkload.from_sublayer``
and the scalar transfer model, is kept in the test suite and must agree bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import MappingError
from ..nn.multiexit import DynamicNetwork
from ..soc.compute_unit import ComputeUnit
from ..soc.interconnect import Interconnect
from .layer_cost import CostModel, LayerWorkload

__all__ = ["StageSchedule", "ScheduleResult", "simulate_schedule", "stage_workloads"]


@dataclass(frozen=True)
class StageSchedule:
    """Timing breakdown of one stage under the concurrent execution model."""

    stage_index: int
    unit_name: str
    scale: float
    sublayer_latencies_ms: Tuple[float, ...]
    cumulative_latencies_ms: Tuple[float, ...]
    exit_latency_ms: float
    transfer_latency_ms: float
    stall_ms: float

    @property
    def total_latency_ms(self) -> float:
        """Stage completion time ``T_{S_i}`` (Eq. 9), including the exit head."""
        return self.cumulative_latencies_ms[-1] + self.exit_latency_ms

    @property
    def busy_latency_ms(self) -> float:
        """Time the compute unit is actually executing (no stalls, no waits)."""
        return float(sum(self.sublayer_latencies_ms)) + self.exit_latency_ms


@dataclass(frozen=True)
class ScheduleResult:
    """Schedules of all stages plus the derived makespan."""

    stages: Tuple[StageSchedule, ...]

    @property
    def makespan_ms(self) -> float:
        """Latency of the whole concurrent execution (Eq. 13)."""
        return max(stage.total_latency_ms for stage in self.stages)

    def stage(self, index: int) -> StageSchedule:
        """Schedule of stage ``index``."""
        return self.stages[index]


#: Per-stage workloads: the sub-layer chain in layer order, then the exit head.
StageWorkloads = Tuple[Tuple[LayerWorkload, ...], LayerWorkload]


def stage_workloads(dynamic_network: DynamicNetwork) -> Tuple[StageWorkloads, ...]:
    """The :class:`LayerWorkload` of every sub-layer and exit head, per stage."""
    return tuple(
        (
            tuple(LayerWorkload.from_sublayer(sub) for sub in stage.sublayers),
            LayerWorkload.from_layer(stage.exit_head),
        )
        for stage in dynamic_network.stages
    )


def simulate_schedule(
    dynamic_network: DynamicNetwork,
    units: Sequence[ComputeUnit],
    scales: Sequence[float],
    cost_model: CostModel,
    interconnect: Interconnect,
    workloads: Optional[Sequence[StageWorkloads]] = None,
) -> ScheduleResult:
    """Evaluate Eq. 8-9 for a dynamic network mapped onto ``units``.

    Parameters
    ----------
    dynamic_network:
        The partitioned multi-exit network.
    units:
        Compute unit hosting each stage (stage order); must be distinct per
        the mapping constraint of Eq. 7.
    scales:
        DVFS scaling factor ``theta`` chosen for each stage's unit.
    cost_model:
        Per-layer latency oracle or surrogate.
    interconnect:
        Shared-memory transfer model providing the ``u_{k->i}`` terms.
    workloads:
        :func:`stage_workloads` of ``dynamic_network``, when the caller
        already built them; derived here otherwise.
    """
    num_stages = dynamic_network.num_stages
    if len(units) != num_stages or len(scales) != num_stages:
        raise MappingError(
            f"expected {num_stages} units and scales, got {len(units)} and {len(scales)}"
        )
    names = [unit.name for unit in units]
    if len(set(names)) != len(names):
        raise MappingError(f"stages must map to distinct compute units, got {names}")
    if workloads is None:
        workloads = stage_workloads(dynamic_network)

    num_layers = dynamic_network.num_layers
    scheme = dynamic_network.scheme
    reused = scheme.indicator.values.tolist()

    # Per-stage, per-layer raw latencies tau^j_i, then every exit head: the
    # cost model sees the same call sequence as a stage-by-stage walk.
    taus = [
        [float(cost_model.latency_ms(workload, unit, scale)) for workload in sub_workloads]
        for (sub_workloads, _), unit, scale in zip(workloads, units, scales)
    ]
    exit_latencies = [
        float(cost_model.latency_ms(exit_workload, unit, scale))
        for (_, exit_workload), unit, scale in zip(workloads, units, scales)
    ]

    # Transfer latency of stage k's layer-j output when imported by a later
    # stage (Eq. 8's u term).  All stages live on different CUs, so a reused
    # feature always crosses the shared memory.
    transfer = interconnect.transfer_latencies_ms(scheme.output_bytes_table()).tolist()

    cumulative = [[0.0] * num_layers for _ in range(num_stages)]
    stalls = [0.0] * num_stages
    transfer_totals = [0.0] * num_stages
    for layer_index in range(num_layers):
        for stage_index in range(num_stages):
            own_ready = cumulative[stage_index][layer_index - 1] if layer_index > 0 else 0.0
            dependency_ready = own_ready
            if layer_index > 0:
                for k in range(stage_index):
                    if reused[k][layer_index - 1]:
                        ready = cumulative[k][layer_index - 1] + transfer[k][layer_index - 1]
                        transfer_totals[stage_index] += transfer[k][layer_index - 1]
                        dependency_ready = max(dependency_ready, ready)
            stalls[stage_index] += max(0.0, dependency_ready - own_ready)
            cumulative[stage_index][layer_index] = (
                taus[stage_index][layer_index] + dependency_ready
            )

    return ScheduleResult(
        stages=tuple(
            StageSchedule(
                stage_index=stage_index,
                unit_name=units[stage_index].name,
                scale=float(scales[stage_index]),
                sublayer_latencies_ms=tuple(taus[stage_index]),
                cumulative_latencies_ms=tuple(cumulative[stage_index]),
                exit_latency_ms=exit_latencies[stage_index],
                transfer_latency_ms=transfer_totals[stage_index],
                stall_ms=stalls[stage_index],
            )
            for stage_index in range(num_stages)
        )
    )
