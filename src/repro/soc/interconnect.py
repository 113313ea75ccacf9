"""Inter-CU communication over the shared system memory.

On the Xavier, compute units do not exchange data over a dedicated link;
producer units write feature maps to shared DRAM and consumer units read them
back (Fig. 4 of the paper).  A transfer therefore costs one write plus one
read at the effective copy bandwidth, a fixed software overhead for the
synchronisation between the runtimes (TensorRT engine contexts), and a small
amount of energy in the memory subsystem.  These are the ``u_{k->i}`` terms
of Eq. 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..utils import check_non_negative, check_positive

__all__ = ["Interconnect"]


@dataclass(frozen=True)
class Interconnect:
    """Shared-memory transfer cost model between compute units.

    Parameters
    ----------
    bandwidth_gbs:
        Effective copy bandwidth of one pass over DRAM in GB/s.
    sync_overhead_ms:
        Fixed software/synchronisation latency added to every transfer.
    energy_pj_per_byte:
        Energy per byte moved (one write plus one read), in picojoules.
    """

    bandwidth_gbs: float = 100.0
    sync_overhead_ms: float = 0.05
    energy_pj_per_byte: float = 60.0

    def __post_init__(self) -> None:
        check_positive(self.bandwidth_gbs, "bandwidth_gbs")
        check_non_negative(self.sync_overhead_ms, "sync_overhead_ms")
        check_non_negative(self.energy_pj_per_byte, "energy_pj_per_byte")

    def transfer_latency_ms(self, num_bytes: int) -> float:
        """Latency to move ``num_bytes`` from one CU to another (Eq. 8's ``u``)."""
        check_non_negative(num_bytes, "num_bytes")
        if num_bytes == 0:
            return 0.0
        # Write + read pass over shared DRAM.
        copy_ms = 2 * num_bytes / (self.bandwidth_gbs * 1e9) * 1e3
        return self.sync_overhead_ms + copy_ms

    def transfer_latencies_ms(self, num_bytes: np.ndarray) -> np.ndarray:
        """:meth:`transfer_latency_ms` of every entry of an integer byte array."""
        num_bytes = np.asarray(num_bytes)
        if np.any(num_bytes < 0):
            raise ConfigurationError(f"num_bytes must be non-negative, got {num_bytes!r}")
        copy_ms = 2 * num_bytes / (self.bandwidth_gbs * 1e9) * 1e3
        return np.where(num_bytes == 0, 0.0, self.sync_overhead_ms + copy_ms)

    def transfer_energy_mj(self, num_bytes: int) -> float:
        """Energy in millijoules to move ``num_bytes`` across units."""
        check_non_negative(num_bytes, "num_bytes")
        return num_bytes * self.energy_pj_per_byte * 1e-9
