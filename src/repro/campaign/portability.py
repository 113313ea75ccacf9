"""Cross-platform mapping transfer: translate and re-score searched configs.

A :class:`~repro.search.space.MappingConfig` is written against one
platform's vocabulary — its stage-to-unit names and per-unit DVFS table
indices.  To ask *"how good is the mapping searched on platform A when
deployed on platform B?"* the config must first be translated into B's
vocabulary:

* each stage's unit is re-bound by name when B has a unit of that name,
  otherwise to an unused B unit of the same architectural kind, otherwise to
  any unused B unit (platform order keeps this deterministic);
* each stage's DVFS index is re-bound by *scaling factor*, not by raw index:
  the target unit runs at the operating point whose ``theta`` is nearest to
  the one the source search chose (ties prefer the faster point, via
  :meth:`~repro.soc.dvfs.DvfsTable.nearest_index`);
* the partition and indicator matrices transfer unchanged — they describe
  the network, not the board.

The translated config is then evaluated by B's own evaluator, which yields
the portability entries of :class:`~repro.campaign.runner.CampaignResult`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import MappingError
from ..search.evaluation import EvaluatedConfig
from ..search.objectives import DEFAULT_OBJECTIVES
from ..search.pareto import _domination_blocks
from ..search.space import MappingConfig
from ..soc.platform import Platform

__all__ = ["translate_config", "translate_front", "count_surviving_on_front"]


def _assign_units(
    stage_units: Sequence[str], source: Platform, target: Platform
) -> Tuple[str, ...]:
    """Deterministically re-bind each stage's source unit to a target unit."""
    if len(stage_units) > target.num_units:
        raise MappingError(
            f"cannot translate a {len(stage_units)}-stage mapping onto platform "
            f"{target.name!r} with only {target.num_units} compute units"
        )
    available = list(target.unit_names)
    assigned: List[str] = [""] * len(stage_units)
    # Pass 1: exact name matches keep their unit (gpu -> gpu, dla0 -> dla0).
    for stage, name in enumerate(stage_units):
        if name in available:
            assigned[stage] = name
            available.remove(name)
    # Pass 2: same architectural kind, in target platform order.
    for stage, name in enumerate(stage_units):
        if assigned[stage]:
            continue
        kind = source.unit(name).kind
        for candidate in available:
            if target.unit(candidate).kind == kind:
                assigned[stage] = candidate
                available.remove(candidate)
                break
    # Pass 3: whatever is left, in target platform order.
    for stage in range(len(stage_units)):
        if not assigned[stage]:
            assigned[stage] = available.pop(0)
    return tuple(assigned)


def translate_config(
    config: MappingConfig, source: Platform, target: Platform
) -> MappingConfig:
    """Rewrite ``config`` (searched on ``source``) in ``target``'s vocabulary."""
    unit_names = _assign_units(config.unit_names, source, target)
    dvfs_indices = []
    for stage, (source_name, target_name) in enumerate(zip(config.unit_names, unit_names)):
        scale = source.unit(source_name).dvfs.scale(config.dvfs_indices[stage])
        dvfs_indices.append(target.unit(target_name).dvfs.nearest_index(scale))
    return replace(config, unit_names=unit_names, dvfs_indices=tuple(dvfs_indices))


def translate_front(
    front: Sequence[EvaluatedConfig], source: Platform, target: Platform
) -> Tuple[MappingConfig, ...]:
    """Translate a whole Pareto front into ``target``'s vocabulary.

    The returned configurations are ready to seed ``target``'s search as a
    warm-start initial population (HADAS-style transfer: a front found on a
    related platform is a strong prior, not just a post-hoc portability
    score).  Order follows the front, so truncating keeps the best-ranked
    transfers.
    """
    return tuple(translate_config(item.config, source, target) for item in front)


def count_surviving_on_front(
    transferred: Sequence[EvaluatedConfig], native_front: Sequence[EvaluatedConfig]
) -> int:
    """How many transferred configs no native Pareto-front member dominates.

    A transferred mapping that survives is competitive with the target
    platform's own search; one that is dominated demonstrates the target
    needed a platform-specific mapping.
    """
    candidates = DEFAULT_OBJECTIVES.matrix(transferred)
    dominated = np.zeros(len(candidates), dtype=bool)
    for _, mask in _domination_blocks(DEFAULT_OBJECTIVES.matrix(native_front), candidates):
        dominated |= mask.any(axis=0)
    return int(np.count_nonzero(~dominated))
