"""Per-stage and overall hardware characterisation (Eq. 11-14).

:class:`MappingEvaluator` binds a platform and a per-layer cost model (oracle
or learned surrogate) and turns a dynamic network plus a mapping/DVFS choice
into a :class:`HardwareProfile`:

* per-stage latency ``T_{S_i}`` from the concurrent schedule of Eq. 8-9,
* per-stage energy ``E_{S_i}`` as the sum of its sub-layer energies
  (Eq. 11-12) plus the interconnect energy of imported features,
* the overall latency ``max_i T_{S_i}`` (Eq. 13) and the cumulative energy
  ``E_{S_{1:i}}`` of instantiating the first ``i`` stages (Eq. 14).

The schedule and the energy pass share one set of layer workloads.  For the
:class:`~repro.perf.layer_cost.AnalyticalCostModel` itself, whose energy is
latency times power (Eq. 11), a stage's energy is summed from the
schedule's own latencies in layer order -- the same products
``energy_mj`` would compute.  Every other cost model, subclasses of the
oracle included, is asked for each energy exactly as the row-wise reference
in the test suite asks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import MappingError
from ..nn.multiexit import DynamicNetwork
from ..soc.compute_unit import ComputeUnit
from ..soc.platform import Platform
from .layer_cost import AnalyticalCostModel, CostModel
from .schedule import ScheduleResult, StageWorkloads, simulate_schedule, stage_workloads

__all__ = ["StagePerformance", "HardwareProfile", "MappingEvaluator"]


@dataclass(frozen=True)
class StagePerformance:
    """Latency/energy characterisation of one stage on its compute unit."""

    stage_index: int
    unit_name: str
    dvfs_scale: float
    latency_ms: float
    busy_ms: float
    stall_ms: float
    transfer_ms: float
    compute_energy_mj: float
    transfer_energy_mj: float

    @property
    def energy_mj(self) -> float:
        """Total stage energy ``E_{S_i}`` (compute plus data movement)."""
        return self.compute_energy_mj + self.transfer_energy_mj


@dataclass(frozen=True)
class HardwareProfile:
    """Full hardware characterisation of one mapping configuration."""

    stages: Tuple[StagePerformance, ...]
    stored_feature_bytes: int

    @property
    def num_stages(self) -> int:
        """Number of stages ``M``."""
        return len(self.stages)

    @property
    def latency_ms(self) -> float:
        """Overall latency under concurrent execution (Eq. 13)."""
        return max(stage.latency_ms for stage in self.stages)

    @property
    def total_energy_mj(self) -> float:
        """Energy when every stage is instantiated (Eq. 14 with M' = M)."""
        return sum(stage.energy_mj for stage in self.stages)

    def stage_latency_ms(self, stage: int) -> float:
        """Latency ``T_{S_i}`` of stage ``stage``."""
        return self.stages[stage].latency_ms

    def cumulative_latency_ms(self, stage: int) -> float:
        """Latency when the inference terminates at ``stage``.

        Under concurrent execution the elapsed time is the maximum completion
        time among the instantiated stages ``S_1 .. S_i``.
        """
        self._check_stage(stage)
        return max(self.stages[k].latency_ms for k in range(stage + 1))

    def cumulative_energy_mj(self, stage: int) -> float:
        """Energy ``E_{S_{1:i}}`` of instantiating stages up to ``stage`` (Eq. 14)."""
        self._check_stage(stage)
        return sum(self.stages[k].energy_mj for k in range(stage + 1))

    def _check_stage(self, stage: int) -> None:
        if not 0 <= stage < self.num_stages:
            raise MappingError(f"stage index {stage} out of range [0, {self.num_stages})")


class MappingEvaluator:
    """Evaluate mapping configurations on a platform with a given cost model."""

    def __init__(self, platform: Platform, cost_model: Optional[CostModel] = None) -> None:
        self.platform = platform
        self.cost_model = cost_model if cost_model is not None else AnalyticalCostModel()

    def profile(
        self,
        dynamic_network: DynamicNetwork,
        unit_names: Sequence[str],
        dvfs_indices: Sequence[int],
    ) -> HardwareProfile:
        """Characterise ``dynamic_network`` under a mapping and DVFS choice.

        Parameters
        ----------
        dynamic_network:
            The partitioned multi-exit network to deploy.
        unit_names:
            Compute unit assigned to each stage, in stage order.  Units must
            be distinct (Eq. 7) and exist on the platform.
        dvfs_indices:
            Index into each assigned unit's DVFS table, in stage order.
        """
        num_stages = dynamic_network.num_stages
        if len(unit_names) != num_stages or len(dvfs_indices) != num_stages:
            raise MappingError(
                f"expected {num_stages} unit names and DVFS indices, got "
                f"{len(unit_names)} and {len(dvfs_indices)}"
            )
        units = [self.platform.unit(name) for name in unit_names]
        scales = [
            unit.scale_for_point(int(index)) for unit, index in zip(units, dvfs_indices)
        ]
        workloads = stage_workloads(dynamic_network)
        schedule = simulate_schedule(
            dynamic_network,
            units=units,
            scales=scales,
            cost_model=self.cost_model,
            interconnect=self.platform.interconnect,
            workloads=workloads,
        )
        return self._profile_from_schedule(dynamic_network, schedule, units, scales, workloads)

    # -- internals ---------------------------------------------------------------
    def _profile_from_schedule(
        self,
        dynamic_network: DynamicNetwork,
        schedule: ScheduleResult,
        units: Sequence[ComputeUnit],
        scales: Sequence[float],
        workloads: Sequence[StageWorkloads],
    ) -> HardwareProfile:
        interconnect = self.platform.interconnect
        # The analytical oracle's energy is latency x power (Eq. 11), so its
        # stage energy reuses the schedule's taus; any other model is asked
        # for every energy, in stage then layer order.
        reuse_taus = type(self.cost_model) is AnalyticalCostModel
        performances = []
        for stage, stage_schedule, unit, scale, (sub_workloads, exit_workload) in zip(
            dynamic_network.stages, schedule.stages, units, scales, workloads
        ):
            compute_energy = 0.0
            if reuse_taus:
                power = unit.power_w(scale)
                for tau in stage_schedule.sublayer_latencies_ms:
                    compute_energy += tau * power
                compute_energy += stage_schedule.exit_latency_ms * power
            else:
                for workload in sub_workloads:
                    compute_energy += self.cost_model.energy_mj(workload, unit, scale)
                compute_energy += self.cost_model.energy_mj(exit_workload, unit, scale)
            transfer_energy = interconnect.transfer_energy_mj(stage.imported_bytes())
            performances.append(
                StagePerformance(
                    stage_index=stage.index,
                    unit_name=unit.name,
                    dvfs_scale=float(scale),
                    latency_ms=stage_schedule.total_latency_ms,
                    busy_ms=stage_schedule.busy_latency_ms,
                    stall_ms=stage_schedule.stall_ms,
                    transfer_ms=stage_schedule.transfer_latency_ms,
                    compute_energy_mj=compute_energy,
                    transfer_energy_mj=transfer_energy,
                )
            )
        return HardwareProfile(
            stages=tuple(performances),
            stored_feature_bytes=dynamic_network.stored_feature_bytes(),
        )
