"""MPSoC platform container and the calibrated Jetson AGX Xavier factory.

A :class:`Platform` bundles the compute units, the shared-memory transfer
model and the DRAM feature budget.  The :func:`jetson_agx_xavier` factory
reproduces the board used in the paper: one Volta GPU and two NVDLA engines
sharing LPDDR4x memory (the Carmel CPU cluster can be added for
experimentation but is not part of the paper's mapping space).

Calibration
-----------
The throughput constants are *sustained batch-1 rates at CIFAR-scale layer
sizes*, not datasheet peaks: small layers leave most of the silicon idle, so
the effective rate that determines end-to-end latency is orders of magnitude
below the advertised TOPS.  The defaults are calibrated so the single-CU
baselines land close to Table II of the paper:

* GPU-only Visformer ~ 15 ms / ~200 mJ, DLA-only ~ 69 ms / ~54 mJ,
* GPU-only VGG19 ~ 25 ms / ~630 mJ, DLA-only ~ 114 ms / ~165 mJ,

preserving the two relationships the method exploits -- the GPU is several
times faster, the DLA several times more energy-efficient, and the DLA is
disproportionately slow on attention layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import PlatformError
from .compute_unit import ComputeUnit, ComputeUnitKind
from .dvfs import DvfsTable, PowerModel
from .interconnect import Interconnect
from .memory import SharedMemory

__all__ = ["Platform", "jetson_agx_xavier"]

#: Published GPU clock steps of the AGX Xavier (MHz).
XAVIER_GPU_FREQUENCIES_MHZ = (318, 522, 675, 828, 905, 1032, 1198, 1236, 1338, 1377)

#: Published DLA clock steps of the AGX Xavier (MHz).
XAVIER_DLA_FREQUENCIES_MHZ = (550, 750, 950, 1050, 1200, 1395)

#: Carmel CPU cluster clock steps (MHz), used only when the CPU is included.
XAVIER_CPU_FREQUENCIES_MHZ = (730, 1190, 1420, 1800, 2265)


@dataclass(frozen=True)
class Platform:
    """A heterogeneous MPSoC: compute units + shared memory + interconnect."""

    name: str
    compute_units: Tuple[ComputeUnit, ...]
    interconnect: Interconnect
    shared_memory: SharedMemory

    def __post_init__(self) -> None:
        if not self.compute_units:
            raise PlatformError(f"platform {self.name!r} needs at least one compute unit")
        names = [unit.name for unit in self.compute_units]
        if len(set(names)) != len(names):
            raise PlatformError(f"platform {self.name!r} has duplicate compute-unit names")
        object.__setattr__(self, "compute_units", tuple(self.compute_units))
        # Name lookups happen per stage in scheduling and in deployment
        # rescaling, so they must not scan the unit tuple each time.
        object.__setattr__(
            self,
            "_unit_lookup",
            {unit.name: (index, unit) for index, unit in enumerate(self.compute_units)},
        )

    def __len__(self) -> int:
        return len(self.compute_units)

    @property
    def num_units(self) -> int:
        """Number of compute units ``M = |CU|``."""
        return len(self.compute_units)

    @property
    def unit_names(self) -> Tuple[str, ...]:
        """Names of all compute units, in platform order."""
        return tuple(unit.name for unit in self.compute_units)

    def unit(self, name: str) -> ComputeUnit:
        """Look up a compute unit by name."""
        entry = self._unit_lookup.get(name)
        if entry is None:
            raise PlatformError(f"platform {self.name!r} has no compute unit named {name!r}")
        return entry[1]

    def unit_index(self, name: str) -> int:
        """Position of the compute unit called ``name``."""
        entry = self._unit_lookup.get(name)
        if entry is None:
            raise PlatformError(f"platform {self.name!r} has no compute unit named {name!r}")
        return entry[0]

    def units_of_kind(self, kind: ComputeUnitKind | str) -> Tuple[ComputeUnit, ...]:
        """All compute units of a given architectural kind."""
        kind = ComputeUnitKind(kind)
        return tuple(unit for unit in self.compute_units if unit.kind == kind)

    def dvfs_space_size(self) -> int:
        """Total number of joint DVFS configurations across all units."""
        size = 1
        for unit in self.compute_units:
            size *= unit.num_dvfs_points()
        return size

    def describe(self) -> str:
        """Multi-line human-readable description of the platform."""
        lines = [f"{self.name}: {self.num_units} compute units"]
        lines.extend(f"  {unit.describe()}" for unit in self.compute_units)
        lines.append(
            f"  shared memory: {self.shared_memory.capacity_bytes / 2**30:.0f} GiB "
            f"({self.shared_memory.feature_budget_bytes / 2**20:.0f} MiB feature budget), "
            f"interconnect {self.interconnect.bandwidth_gbs:.0f} GB/s"
        )
        return "\n".join(lines)


def jetson_agx_xavier(
    include_cpu: bool = False,
    feature_budget_mib: float = 16.0,
) -> Platform:
    """Build the Jetson AGX Xavier platform model used in the paper.

    Parameters
    ----------
    include_cpu:
        Also expose the Carmel CPU cluster as a mappable compute unit.  The
        paper maps onto GPU + 2 DLAs only, which is the default.
    feature_budget_mib:
        Shared-memory budget for resident inter-stage feature maps (the
        ``M`` bound of Eq. 15).
    """
    gpu = ComputeUnit(
        name="gpu",
        kind=ComputeUnitKind.GPU,
        peak_gflops=40.0,
        memory_bandwidth_gbs=110.0,
        launch_overhead_ms=0.08,
        power=PowerModel(static_w=4.0, dynamic_w=16.0),
        dvfs=DvfsTable.from_frequencies(XAVIER_GPU_FREQUENCIES_MHZ),
        utilisation={"conv2d": 1.0, "attention": 0.70, "feedforward": 0.80, "linear": 0.50},
    )
    dla_utilisation = {"conv2d": 1.0, "attention": 0.30, "feedforward": 0.50, "linear": 0.40}
    dla0 = ComputeUnit(
        name="dla0",
        kind=ComputeUnitKind.DLA,
        peak_gflops=10.0,
        memory_bandwidth_gbs=40.0,
        launch_overhead_ms=0.25,
        power=PowerModel(static_w=0.25, dynamic_w=0.65),
        dvfs=DvfsTable.from_frequencies(XAVIER_DLA_FREQUENCIES_MHZ),
        utilisation=dla_utilisation,
    )
    dla1 = ComputeUnit(
        name="dla1",
        kind=ComputeUnitKind.DLA,
        peak_gflops=10.0,
        memory_bandwidth_gbs=40.0,
        launch_overhead_ms=0.25,
        power=PowerModel(static_w=0.25, dynamic_w=0.65),
        dvfs=DvfsTable.from_frequencies(XAVIER_DLA_FREQUENCIES_MHZ),
        utilisation=dla_utilisation,
    )
    units = [gpu, dla0, dla1]
    if include_cpu:
        units.append(
            ComputeUnit(
                name="cpu",
                kind=ComputeUnitKind.CPU,
                peak_gflops=2.5,
                memory_bandwidth_gbs=30.0,
                launch_overhead_ms=0.02,
                power=PowerModel(static_w=1.5, dynamic_w=2.5),
                dvfs=DvfsTable.from_frequencies(XAVIER_CPU_FREQUENCIES_MHZ),
                utilisation={"conv2d": 0.6, "attention": 0.5, "feedforward": 0.55, "linear": 0.7},
            )
        )
    return Platform(
        name="jetson-agx-xavier",
        compute_units=tuple(units),
        interconnect=Interconnect(bandwidth_gbs=100.0, sync_overhead_ms=0.05, energy_pj_per_byte=60.0),
        shared_memory=SharedMemory(
            capacity_bytes=32 * 2**30,
            feature_budget_bytes=int(feature_budget_mib * 2**20),
        ),
    )
