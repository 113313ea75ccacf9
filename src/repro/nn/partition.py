"""Width partitioning: the ``P`` and ``I`` parameter matrices (Sect. III-A).

The paper characterises the static-to-dynamic transformation with two
matrices (Eq. 4):

* the **partitioning matrix** ``P`` (M stages x n layers), where ``p[i, j]``
  is the fraction of layer ``j``'s width-units assigned to stage ``i`` --
  every column distributes a whole layer, so columns sum to one;
* the **indicator matrix** ``I`` (M stages x n layers), where ``I[i, j] = 1``
  means the intermediate features produced by stage ``i`` at layer ``j`` are
  forwarded to (and reused by) all subsequent stages at layer ``j + 1``.

This module provides validated wrappers for both matrices plus the integer
channel-splitting arithmetic (largest-remainder rounding constrained to each
layer's partition granularity) that converts fractions into concrete channel
ranges.  The actual construction of per-stage sub-models lives in
:mod:`repro.nn.multiexit`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import PartitionError
from .graph import NetworkGraph
from .layers import Layer, LinearLayer

__all__ = [
    "PartitionMatrix",
    "IndicatorMatrix",
    "PartitionScheme",
    "backbone_layers",
    "split_units",
]

#: Discrete partition-ratio choices used by the search space (Sect. V-A uses
#: "8 channel partitioning ratios" per layer).
RATIO_CHOICES: Tuple[float, ...] = tuple((k + 1) / 8 for k in range(8))


def backbone_layers(network: NetworkGraph) -> Tuple[Layer, ...]:
    """Return the partitionable backbone of ``network``.

    The trailing classifier head (a :class:`LinearLayer` whose width equals
    the number of classes) is excluded: in the dynamic transformation every
    stage receives its *own* exit head, so the original head is replaced
    rather than partitioned.
    """
    layers = network.layers
    last = layers[-1]
    if isinstance(last, LinearLayer) and last.width == network.num_classes:
        layers = layers[:-1]
    if not layers:
        raise PartitionError(f"network {network.name!r} has no partitionable backbone layers")
    return layers


def split_units(width: int, fractions: Sequence[float], granularity: int = 1) -> Tuple[int, ...]:
    """Split ``width`` units into integer shares proportional to ``fractions``.

    Every share is at least one granule of ``granularity`` units, shares sum
    exactly to ``width``, and the largest-remainder method keeps the result
    as close as possible to the requested fractions.

    Raises
    ------
    PartitionError
        If ``width`` cannot accommodate one granule per share, or if the
        fractions are not a valid distribution.
    """
    fractions = np.asarray(fractions, dtype=float)
    if fractions.ndim != 1 or fractions.size == 0:
        raise PartitionError("fractions must be a non-empty 1-D sequence")
    return _split_units(width, fractions.tobytes(), granularity)


@functools.lru_cache(maxsize=4096)
def _split_units(width: int, fraction_bytes: bytes, granularity: int) -> Tuple[int, ...]:
    """:func:`split_units` on a column's raw float64 bytes, memoised by content.

    A search re-splits the same few ratio columns for every candidate; the
    key holds only immutable content, so the bounded cache pins no objects.
    """
    fractions = np.frombuffer(fraction_bytes)
    if np.any(fractions < 0) or abs(float(fractions.sum()) - 1.0) > 1e-6:
        raise PartitionError(f"fractions must be non-negative and sum to 1, got {fractions}")
    if granularity < 1 or width % granularity != 0:
        raise PartitionError(
            f"granularity must divide the width ({width} % {granularity} != 0)"
        )
    num_shares = fractions.size
    granules = width // granularity
    if granules < num_shares:
        raise PartitionError(
            f"cannot split {width} units ({granules} granules of {granularity}) "
            f"into {num_shares} non-empty shares"
        )
    # Largest-remainder rounding in granule space with a floor of one granule.
    ideal = fractions * granules
    shares = np.maximum(1, np.floor(ideal).astype(int))
    # Remove any excess introduced by the floor-of-one, taking from the
    # largest shares first.
    while shares.sum() > granules:
        candidates = np.where(shares > 1)[0]
        victim = candidates[np.argmax(shares[candidates] - ideal[candidates])]
        shares[victim] -= 1
    # Distribute any remaining granules to the largest remainders.
    remainder = ideal - shares
    while shares.sum() < granules:
        winner = int(np.argmax(remainder))
        shares[winner] += 1
        remainder[winner] -= 1.0
    return tuple(int(share) * granularity for share in shares)


@dataclass(frozen=True)
class PartitionMatrix:
    """The ``P`` matrix: per-stage, per-layer width fractions."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.size == 0:
            raise PartitionError("P must be a non-empty 2-D array (stages x layers)")
        if np.any(values < 0) or np.any(values > 1):
            raise PartitionError("P entries must lie in [0, 1]")
        column_sums = values.sum(axis=0)
        if not np.allclose(column_sums, 1.0, atol=1e-6):
            raise PartitionError(
                f"every column of P must sum to 1 (got column sums {column_sums})"
            )
        object.__setattr__(self, "values", values)

    @property
    def num_stages(self) -> int:
        """Number of stages ``M``."""
        return int(self.values.shape[0])

    @property
    def num_layers(self) -> int:
        """Number of backbone layers ``n``."""
        return int(self.values.shape[1])

    def fraction(self, stage: int, layer: int) -> float:
        """Fraction ``p[stage, layer]`` of layer ``layer`` owned by ``stage``."""
        return float(self.values[stage, layer])

    @classmethod
    def uniform(cls, num_stages: int, num_layers: int) -> "PartitionMatrix":
        """Equal split: every stage owns ``1/M`` of every layer."""
        if num_stages < 1 or num_layers < 1:
            raise PartitionError("num_stages and num_layers must be >= 1")
        return cls(np.full((num_stages, num_layers), 1.0 / num_stages))

    @classmethod
    def from_stage_fractions(cls, fractions: Sequence[float], num_layers: int) -> "PartitionMatrix":
        """Same per-stage split replicated across all layers."""
        column = np.asarray(fractions, dtype=float)
        return cls(np.tile(column[:, None], (1, num_layers)))


@dataclass(frozen=True)
class IndicatorMatrix:
    """The ``I`` matrix: whether a stage's features are reused downstream."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.ndim != 2 or values.size == 0:
            raise PartitionError("I must be a non-empty 2-D array (stages x layers)")
        if not np.all(np.isin(values, (0, 1))):
            raise PartitionError("I entries must be 0 or 1")
        object.__setattr__(self, "values", values.astype(int))

    @property
    def num_stages(self) -> int:
        """Number of stages ``M``."""
        return int(self.values.shape[0])

    @property
    def num_layers(self) -> int:
        """Number of backbone layers ``n``."""
        return int(self.values.shape[1])

    def reused(self, stage: int, layer: int) -> bool:
        """Whether stage ``stage``'s features at ``layer`` feed later stages."""
        return bool(self.values[stage, layer])

    def reuse_fraction(self) -> float:
        """Fraction of forwardable feature maps that are actually reused.

        Only stages ``1 .. M-1`` can forward features (the last stage has no
        successor), so the denominator is ``(M - 1) * n``.  This is the
        "Fmap. reuse (%)" column of Table II.
        """
        if self.num_stages < 2:
            return 0.0
        relevant = self.values[:-1, :]
        return float(relevant.mean())

    @classmethod
    def full(cls, num_stages: int, num_layers: int) -> "IndicatorMatrix":
        """All features reused -- the static-mapping behaviour of Fig. 1."""
        if num_stages < 1 or num_layers < 1:
            raise PartitionError("num_stages and num_layers must be >= 1")
        return cls(np.ones((num_stages, num_layers), dtype=int))

    @classmethod
    def none(cls, num_stages: int, num_layers: int) -> "IndicatorMatrix":
        """No cross-stage feature reuse (fully independent stages)."""
        if num_stages < 1 or num_layers < 1:
            raise PartitionError("num_stages and num_layers must be >= 1")
        return cls(np.zeros((num_stages, num_layers), dtype=int))


@dataclass(frozen=True)
class PartitionScheme:
    """A validated ``(P, I)`` pair bound to a concrete network backbone.

    The scheme converts the fractional ``P`` matrix into integer channel
    counts per (stage, layer), respecting each layer's partition granularity
    (whole attention heads), and exposes the quantities needed downstream:
    per-stage channel ranges in importance order, available input widths
    including reused features, and the reuse fraction.
    """

    network: NetworkGraph
    partition: PartitionMatrix
    indicator: IndicatorMatrix

    def __post_init__(self) -> None:
        backbone = backbone_layers(self.network)
        if self.partition.num_layers != len(backbone):
            raise PartitionError(
                f"P has {self.partition.num_layers} layers but the backbone of "
                f"{self.network.name!r} has {len(backbone)}"
            )
        if self.indicator.values.shape != self.partition.values.shape:
            raise PartitionError(
                f"P and I must have the same shape, got {self.partition.values.shape} "
                f"and {self.indicator.values.shape}"
            )
        channels = np.zeros(self.partition.values.shape, dtype=int)
        for layer_index, layer in enumerate(backbone):
            shares = split_units(
                layer.width,
                self.partition.values[:, layer_index],
                granularity=layer.partition_granularity,
            )
            channels[:, layer_index] = shares
        object.__setattr__(self, "_backbone", backbone)
        object.__setattr__(self, "_channels", channels)

    # -- basic shape -----------------------------------------------------------
    @property
    def backbone(self) -> Tuple[Layer, ...]:
        """Partitionable backbone layers of the bound network."""
        return self._backbone

    @property
    def num_stages(self) -> int:
        """Number of stages ``M``."""
        return self.partition.num_stages

    @property
    def num_layers(self) -> int:
        """Number of backbone layers ``n``."""
        return self.partition.num_layers

    # -- channel arithmetic ----------------------------------------------------
    @property
    def channels(self) -> np.ndarray:
        """Integer channel counts, shape ``(num_stages, num_layers)``."""
        return self._channels.copy()

    def stage_channels(self, stage: int, layer: int) -> int:
        """Channels of ``layer`` owned by ``stage``."""
        return int(self._channels[stage, layer])

    def stage_range(self, stage: int, layer: int) -> Tuple[int, int]:
        """Half-open channel range owned by ``stage`` in importance order.

        Stage 0 owns the most important channels, stage 1 the next block, and
        so on -- the reordering policy of Sect. V-D.
        """
        start = int(self._channels[:stage, layer].sum())
        return start, start + self.stage_channels(stage, layer)

    def available_in_units(self, stage: int, layer: int) -> int:
        """Input width available to stage ``stage`` at backbone layer ``layer``.

        Layer 0 consumes the raw model input, which every stage receives in
        full.  For later layers the available input is the stage's own
        previous-layer output plus the previous-layer outputs of every earlier
        stage whose indicator bit is set (Eq. 8's dependency set).
        """
        self._check_stage_layer(stage, layer)
        if layer == 0:
            return self._backbone[0].in_width
        own = self.stage_channels(stage, layer - 1)
        reused = sum(
            self.stage_channels(k, layer - 1)
            for k in range(stage)
            if self.indicator.reused(k, layer - 1)
        )
        return int(own + reused)

    def reused_input_bytes(self, stage: int, layer: int) -> int:
        """Bytes of previous-layer features imported from earlier stages.

        These are the feature maps that have to cross compute units (the
        transfer overhead ``u_{k->i}`` of Eq. 8) and to live in shared memory
        (the ``size(F, I) < M`` constraint of Eq. 15).
        """
        self._check_stage_layer(stage, layer)
        if layer == 0 or stage == 0:
            return 0
        previous = self._backbone[layer - 1]
        total = 0
        for k in range(stage):
            if self.indicator.reused(k, layer - 1):
                total += previous.output_bytes(self.stage_channels(k, layer - 1))
        return int(total)

    def stored_feature_bytes(self) -> int:
        """Total bytes of forwarded feature maps held in shared memory.

        Every (stage, layer) whose indicator bit is set must keep its output
        available for subsequent stages for the duration of the inference
        (Fig. 4), so the memory-constraint term sums their sizes.
        """
        forwarded = self.indicator.values[:-1] * self.output_bytes_table()[:-1]
        return int(forwarded.sum())

    # -- whole-matrix tables ------------------------------------------------------
    # Array forms of the per-(stage, layer) accessors above, derived with a few
    # integer passes over the channel and indicator matrices.  They are
    # computed per call and never stored on the (pickled) scheme; the scalar
    # accessors are their row-wise reference.
    def visible_units(self) -> np.ndarray:
        """Output units of every layer visible to each stage, ``(M, n)``.

        Entry ``[i, j]`` counts stage ``i``'s own channels of layer ``j`` plus
        those of every earlier stage whose indicator bit is set there: the
        input width of stage ``i``'s next sub-layer, or of its exit head
        after the last layer.
        """
        forwarded = self.indicator.values * self._channels
        return self._channels + np.cumsum(forwarded, axis=0) - forwarded

    def stage_starts(self) -> np.ndarray:
        """First channel of every :meth:`stage_range`, shape ``(M, n)``."""
        return np.cumsum(self._channels, axis=0) - self._channels

    def available_in_units_table(self) -> np.ndarray:
        """:meth:`available_in_units` of every (stage, layer), shape ``(M, n)``."""
        table = np.empty_like(self._channels)
        table[:, 0] = self._backbone[0].in_width
        table[:, 1:] = self.visible_units()[:, :-1]
        return table

    def output_bytes_table(self) -> np.ndarray:
        """Bytes of the feature map every (stage, layer) produces, ``(M, n)``.

        A feature map is its unit count times a fixed per-unit map size, so
        one size per layer prices the whole column.
        """
        unit_bytes = np.array([layer.output_bytes(1) for layer in self._backbone])
        return self._channels * unit_bytes

    def reused_input_bytes_table(self) -> np.ndarray:
        """:meth:`reused_input_bytes` of every (stage, layer), shape ``(M, n)``."""
        forwarded = self.indicator.values * self.output_bytes_table()
        imported = np.cumsum(forwarded, axis=0) - forwarded
        table = np.zeros_like(imported)
        table[:, 1:] = imported[:, :-1]
        return table

    def reuse_fraction(self) -> float:
        """Fraction of forwardable feature maps reused (Table II column)."""
        return self.indicator.reuse_fraction()

    # -- per-stage aggregate costs ----------------------------------------------
    def stage_flops(self, stage: int) -> float:
        """FLOPs executed by ``stage`` over its whole sub-layer chain."""
        self._check_stage_layer(stage, 0)
        total = 0.0
        for layer_index, layer in enumerate(self._backbone):
            total += layer.flops(
                in_units=self.available_in_units(stage, layer_index),
                out_units=self.stage_channels(stage, layer_index),
            )
        return total

    def stage_params(self, stage: int) -> float:
        """Parameters held by ``stage`` over its whole sub-layer chain."""
        self._check_stage_layer(stage, 0)
        total = 0.0
        for layer_index, layer in enumerate(self._backbone):
            total += layer.params(
                in_units=self.available_in_units(stage, layer_index),
                out_units=self.stage_channels(stage, layer_index),
            )
        return total

    def cumulative_width_fraction(self, stage: int, layer: int) -> float:
        """Fraction of layer width available to stage ``stage`` (incl. reuse)."""
        self._check_stage_layer(stage, layer)
        layer_width = self._backbone[layer].width
        own = self.stage_channels(stage, layer)
        reused = sum(
            self.stage_channels(k, layer)
            for k in range(stage)
            if self.indicator.reused(k, layer)
        )
        return float((own + reused) / layer_width)

    def _check_stage_layer(self, stage: int, layer: int) -> None:
        if not 0 <= stage < self.num_stages:
            raise PartitionError(f"stage index {stage} out of range [0, {self.num_stages})")
        if not 0 <= layer < self.num_layers:
            raise PartitionError(f"layer index {layer} out of range [0, {self.num_layers})")
