"""Static-to-dynamic transformation: stages, sub-layers and exit heads.

Given a network, a :class:`~repro.nn.partition.PartitionScheme` and a channel
ranking, this module materialises the dynamic multi-exit network of Eq. 5-6:
every stage ``S_i`` is the chain of its sub-layers ``l^j_i`` augmented with an
exit classifier at its tail, so the stage can terminate the inference when the
runtime controller deems its prediction sufficient.

The produced :class:`DynamicNetwork` is still symbolic; it records, for every
sub-layer, the input width actually available (own channels plus reused
features from earlier stages), its FLOPs / parameters / feature-map bytes, and
the cross-stage bytes that must move between compute units.  These numbers
feed the hardware model in :mod:`repro.perf` and the accuracy model in
:mod:`repro.dynamics`.

:func:`build_dynamic_network` derives the per-candidate tables -- available
input units, reused-input bytes and exit-head widths, shape (stages x
layers) -- in a few integer numpy passes over the channel and indicator
matrices (:meth:`PartitionScheme.available_in_units_table` and friends),
then fills the sub-layers from them.  :meth:`DynamicNetwork.stage_coverages`
reads importance masses off the ranking's once-derived leading-zero curves
for all stages at once.  The scalar accessors
(:meth:`PartitionScheme.available_in_units`, ``stage_range``,
``reused_input_bytes``) remain the row-wise reference the test suite checks
the tables against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .channels import ChannelRanking
from .graph import NetworkGraph
from .layers import Layer, LinearLayer
from .partition import IndicatorMatrix, PartitionMatrix, PartitionScheme

__all__ = ["SubLayer", "Stage", "DynamicNetwork", "build_dynamic_network"]


@dataclass(frozen=True)
class SubLayer:
    """One sub-layer ``l^j_i``: stage ``i``'s slice of backbone layer ``j``."""

    base: Layer
    stage_index: int
    layer_index: int
    in_units: int
    out_units: int
    reused_input_bytes: int

    @property
    def name(self) -> str:
        """Qualified name ``<layer>@stage<i>``."""
        return f"{self.base.name}@stage{self.stage_index}"

    def flops(self) -> float:
        """FLOPs of this sub-layer for one input sample."""
        return self.base.flops(in_units=self.in_units, out_units=self.out_units)

    def params(self) -> float:
        """Parameters held by this sub-layer."""
        return self.base.params(in_units=self.in_units, out_units=self.out_units)

    def output_bytes(self) -> int:
        """Bytes of the feature map this sub-layer produces."""
        return self.base.output_bytes(self.out_units)

    def output_elements(self) -> int:
        """Elements of the feature map this sub-layer produces."""
        return self.base.output_elements(self.out_units)


@dataclass(frozen=True)
class Stage:
    """One inference stage ``S_i``: a sub-layer chain plus its exit head."""

    index: int
    sublayers: Tuple[SubLayer, ...]
    exit_head: LinearLayer

    def __post_init__(self) -> None:
        if not self.sublayers:
            raise ConfigurationError(f"stage {self.index} must contain at least one sub-layer")

    @property
    def num_sublayers(self) -> int:
        """Number of backbone sub-layers (excluding the exit head)."""
        return len(self.sublayers)

    def flops(self) -> float:
        """Total FLOPs of the stage, including its exit head."""
        return sum(sub.flops() for sub in self.sublayers) + self.exit_head.flops()

    def params(self) -> float:
        """Total parameters of the stage, including its exit head."""
        return sum(sub.params() for sub in self.sublayers) + self.exit_head.params()

    def imported_bytes(self) -> int:
        """Bytes of features imported from earlier stages across all layers."""
        return sum(sub.reused_input_bytes for sub in self.sublayers)


@dataclass(frozen=True)
class DynamicNetwork:
    """The dynamic multi-exit network ``NN_dyn`` deployed on the MPSoC."""

    network: NetworkGraph
    scheme: PartitionScheme
    stages: Tuple[Stage, ...]
    ranking: Optional[ChannelRanking] = None
    reordered: bool = True

    def __post_init__(self) -> None:
        if len(self.stages) != self.scheme.num_stages:
            raise ConfigurationError(
                f"expected {self.scheme.num_stages} stages, got {len(self.stages)}"
            )

    @property
    def num_stages(self) -> int:
        """Number of inference stages ``M``."""
        return len(self.stages)

    @property
    def num_layers(self) -> int:
        """Number of backbone layers per stage."""
        return self.scheme.num_layers

    def reuse_fraction(self) -> float:
        """Fraction of forwardable feature maps reused (Table II column)."""
        return self.scheme.reuse_fraction()

    def stored_feature_bytes(self) -> int:
        """Shared-memory footprint of forwarded features (Eq. 15 constraint)."""
        return self.scheme.stored_feature_bytes()

    def total_flops_through(self, stage: int) -> float:
        """FLOPs spent when the inference terminates at ``stage`` (inclusive)."""
        self._check_stage(stage)
        return float(sum(self.stages[k].flops() for k in range(stage + 1)))

    def stage_coverage(self, stage: int) -> float:
        """Importance mass available to stage ``stage``'s exit, in ``[0, 1]``.

        For every backbone layer we take the channels computed by this stage
        plus the channels of earlier stages whose features are reused, measure
        the channel-importance mass of that set, and average over layers.
        With channel reordering on, stage ranges are contiguous blocks of the
        importance-sorted ordering, so stage 0 holds the most valuable
        channels; with reordering off, mass reduces to the plain width
        fraction -- the quantity that makes the reordering ablation visible.
        """
        self._check_stage(stage)
        return self.stage_coverages()[stage]

    def stage_coverages(self) -> Tuple[float, ...]:
        """:meth:`stage_coverage` of every stage, from one pass over the tables.

        Each stage's mass adds its own block first, then the reused blocks of
        earlier stages in stage order -- the order a per-stage loop would add
        them in, so every coverage is bit-for-bit that loop's result.
        """
        scheme = self.scheme
        if self.reordered and self.ranking is not None:
            curves, offsets = self.ranking.leading_zero_curves(
                tuple(layer.name for layer in scheme.backbone)
            )
            starts = offsets + scheme.stage_starts()
            block_mass = curves[starts + scheme.channels] - curves[starts]
            reused = scheme.indicator.values.astype(bool)
            mass = block_mass.copy()
            for stage in range(1, self.num_stages):
                for k in range(stage):
                    mass[stage] += np.where(reused[k], block_mass[k], 0.0)
        else:
            widths = np.array([layer.width for layer in scheme.backbone])
            mass = scheme.visible_units() / widths
        per_layer = np.minimum(1.0, mass)
        return tuple(float(np.mean(row)) for row in per_layer)

    def summary(self) -> str:
        """Multi-line human-readable summary of stages and their costs."""
        lines = [
            f"dynamic {self.network.name}: {self.num_stages} stages, "
            f"{self.num_layers} backbone layers, reuse={self.reuse_fraction():.1%}"
        ]
        for stage in self.stages:
            lines.append(
                f"  stage {stage.index}: {stage.flops() / 1e9:.3f} GFLOPs, "
                f"{stage.params() / 1e6:.3f} M params, "
                f"imports {stage.imported_bytes() / 1e3:.1f} KB"
            )
        return "\n".join(lines)

    def _check_stage(self, stage: int) -> None:
        if not 0 <= stage < self.num_stages:
            raise ConfigurationError(f"stage index {stage} out of range [0, {self.num_stages})")


def build_dynamic_network(
    network: NetworkGraph,
    partition: PartitionMatrix,
    indicator: IndicatorMatrix,
    ranking: Optional[ChannelRanking] = None,
    reorder: bool = True,
) -> DynamicNetwork:
    """Materialise the dynamic multi-exit network for a ``(P, I)`` choice.

    Parameters
    ----------
    network:
        The pretrained static network to transform.
    partition, indicator:
        The ``P`` and ``I`` matrices of Eq. 4, sized for the network backbone.
    ranking:
        Channel-importance ranking used for the Sect. V-D reordering and the
        accuracy coverage computation.  Optional; without it coverage falls
        back to plain width fractions.
    reorder:
        Whether to apply importance reordering (the paper's default).  The
        ablation benches set this to ``False``.
    """
    scheme = PartitionScheme(network=network, partition=partition, indicator=indicator)
    out_units = scheme.channels.tolist()
    in_units = scheme.available_in_units_table().tolist()
    reused_bytes = scheme.reused_input_bytes_table().tolist()
    # The exit head classifies from every feature available to this stage
    # at the final backbone layer (own channels plus reused ones).
    exit_in_units = scheme.visible_units()[:, -1].tolist()
    stages = []
    for stage_index in range(scheme.num_stages):
        sublayers = tuple(
            SubLayer(
                base=layer,
                stage_index=stage_index,
                layer_index=layer_index,
                in_units=in_units[stage_index][layer_index],
                out_units=out_units[stage_index][layer_index],
                reused_input_bytes=reused_bytes[stage_index][layer_index],
            )
            for layer_index, layer in enumerate(scheme.backbone)
        )
        exit_head = LinearLayer(
            name=f"exit{stage_index}",
            width=network.num_classes,
            in_width=exit_in_units[stage_index],
            tokens=1,
        )
        stages.append(Stage(index=stage_index, sublayers=sublayers, exit_head=exit_head))
    return DynamicNetwork(
        network=network,
        scheme=scheme,
        stages=tuple(stages),
        ranking=ranking,
        reordered=reorder and ranking is not None,
    )
