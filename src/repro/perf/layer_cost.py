"""Layer-level latency and energy cost models.

The paper measures layer latencies and energies on the board through TensorRT
and uses those measurements both directly and to train an XGBoost surrogate
(Sect. V-E).  In this reproduction the ground truth is an analytical model --
a roofline (compute vs. memory bound) term plus a fixed per-invocation
overhead -- evaluated on a compact :class:`LayerWorkload` descriptor.  The
same descriptor doubles as the feature vector of the learned surrogate in
:mod:`repro.perf.predictor`, so the oracle and the surrogate are
interchangeable behind the :class:`CostModel` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import ConfigurationError
from ..nn.layers import BYTES_PER_ELEMENT, Layer
from ..nn.multiexit import SubLayer
from ..soc.compute_unit import ComputeUnit
from ..utils import as_rng, check_non_negative

__all__ = ["LayerWorkload", "CostModel", "AnalyticalCostModel", "NoisyCostModel"]

#: Order of the numerical features produced by :meth:`LayerWorkload.features`.
WORKLOAD_FEATURE_NAMES = (
    "flops",
    "input_bytes",
    "output_bytes",
    "weight_bytes",
    "is_conv2d",
    "is_attention",
    "is_feedforward",
    "is_linear",
)


@dataclass(frozen=True)
class LayerWorkload:
    """Hardware-relevant summary of one layer slice.

    The workload is what the cost models consume; it deliberately contains no
    reference to the originating network so the surrogate can be trained on
    synthetic layer configurations that never appear in any model.
    """

    kind: str
    flops: float
    input_bytes: float
    output_bytes: float
    weight_bytes: float

    def __post_init__(self) -> None:
        check_non_negative(self.flops, "flops")
        check_non_negative(self.input_bytes, "input_bytes")
        check_non_negative(self.output_bytes, "output_bytes")
        check_non_negative(self.weight_bytes, "weight_bytes")

    @property
    def total_bytes(self) -> float:
        """All bytes that move for one invocation (activations + weights)."""
        return self.input_bytes + self.output_bytes + self.weight_bytes

    def features(self) -> np.ndarray:
        """Numeric feature vector used by the learned surrogate."""
        return np.array(
            [
                self.flops,
                self.input_bytes,
                self.output_bytes,
                self.weight_bytes,
                1.0 if self.kind == "conv2d" else 0.0,
                1.0 if self.kind == "attention" else 0.0,
                1.0 if self.kind == "feedforward" else 0.0,
                1.0 if self.kind == "linear" else 0.0,
            ],
            dtype=float,
        )

    @classmethod
    def from_layer(
        cls, layer: Layer, in_units: int | None = None, out_units: int | None = None
    ) -> "LayerWorkload":
        """Build the workload of a (possibly partitioned) layer slice."""
        flops, input_bytes, output_bytes, params = layer.slice_costs(in_units, out_units)
        return cls(
            kind=layer.kind,
            flops=flops,
            input_bytes=float(input_bytes),
            output_bytes=float(output_bytes),
            weight_bytes=float(params) * BYTES_PER_ELEMENT,
        )

    @classmethod
    def from_sublayer(cls, sublayer: SubLayer) -> "LayerWorkload":
        """Build the workload of a stage's sub-layer ``l^j_i``."""
        return cls.from_layer(sublayer.base, sublayer.in_units, sublayer.out_units)


@runtime_checkable
class CostModel(Protocol):
    """Anything that can predict per-layer latency and energy on a CU."""

    def latency_ms(self, workload: LayerWorkload, unit: ComputeUnit, scale: float) -> float:
        """Latency in milliseconds of ``workload`` on ``unit`` at DVFS ``scale``."""
        ...

    def energy_mj(self, workload: LayerWorkload, unit: ComputeUnit, scale: float) -> float:
        """Energy in millijoules of ``workload`` on ``unit`` at DVFS ``scale``."""
        ...


class AnalyticalCostModel:
    """Roofline-with-overhead oracle standing in for board measurements.

    Latency is the per-invocation launch overhead plus the maximum of the
    compute time (FLOPs over sustained throughput, derated by the DVFS scale)
    and the memory time (bytes moved over effective bandwidth).  Energy is
    latency times the unit's power at the chosen DVFS point (Eq. 11).
    """

    def latency_ms(self, workload: LayerWorkload, unit: ComputeUnit, scale: float) -> float:
        if not 0 < scale <= 1:
            raise ConfigurationError(f"scale must lie in (0, 1], got {scale}")
        compute_ms = workload.flops / (unit.effective_gflops(workload.kind, scale) * 1e9) * 1e3
        memory_ms = workload.total_bytes / (unit.effective_bandwidth_gbs(scale) * 1e9) * 1e3
        return unit.launch_overhead_ms + max(compute_ms, memory_ms)

    def energy_mj(self, workload: LayerWorkload, unit: ComputeUnit, scale: float) -> float:
        return self.latency_ms(workload, unit, scale) * unit.power_w(scale)


class NoisyCostModel:
    """Wrap a cost model with multiplicative log-normal measurement noise.

    Board measurements are noisy (scheduling jitter, thermal state); the
    surrogate-training dataset is generated through this wrapper so the
    learned predictor has to generalise rather than memorise, as it would on
    the real measurement campaign.
    """

    def __init__(
        self,
        base: CostModel | None = None,
        noise_std: float = 0.05,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if noise_std < 0:
            raise ConfigurationError(f"noise_std must be >= 0, got {noise_std}")
        self._base = base if base is not None else AnalyticalCostModel()
        self._noise_std = noise_std
        self._rng = as_rng(seed)

    def _noise(self) -> float:
        if self._noise_std == 0:
            return 1.0
        return float(self._rng.lognormal(mean=0.0, sigma=self._noise_std))

    def latency_ms(self, workload: LayerWorkload, unit: ComputeUnit, scale: float) -> float:
        return self._base.latency_ms(workload, unit, scale) * self._noise()

    def energy_mj(self, workload: LayerWorkload, unit: ComputeUnit, scale: float) -> float:
        return self._base.energy_mj(workload, unit, scale) * self._noise()
