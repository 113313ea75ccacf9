"""Array oracle vs its row-wise reference: identical evaluations, bit for bit.

One oracle evaluation partitions the network, attaches exits, schedules the
concurrent stages and simulates dynamic inference.  The array path derives
each candidate's (stages x layers) tables -- available input units, stage
ranges, reused bytes, exit widths, coverage masses, transfer latencies -- in
a few numpy passes and builds every :class:`LayerWorkload` once.  The
references below are the per-(stage, layer) loops it replaced, written over
the public scalar accessors (``available_in_units``, ``stage_range``,
``reused_input_bytes``, ``LayerWorkload.from_sublayer``, the per-call cost
model).  The guarantees under test:

* every ``SubLayer``/``Stage``, the ``HardwareProfile`` and the
  ``DynamicInferenceResult`` compare ``==``, and the pickled
  ``EvaluatedConfig`` bytes are equal, across networks (including
  whole-head attention granularity), platforms, stage counts, reordering
  on/off, all-ones and all-zeros indicators and a trained surrogate;
* a cost model other than the analytical oracle sees exactly the same
  sequence of ``latency_ms``/``energy_mj`` calls, so a noisy model's RNG
  stream yields identical numbers;
* per evaluation, ``LayerWorkload.from_layer`` runs at most once per
  sub-layer and exit head, and a ranking's cumulative curves are derived
  once per ranking and never pickled.
"""

from __future__ import annotations

import functools
import pickle
from dataclasses import replace
from typing import List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.accuracy import AccuracyModel
from repro.dynamics.inference import DynamicInferenceResult
from repro.dynamics.samples import compute_exit_statistics
from repro.errors import ConfigurationError, PartitionError
from repro.nn.channels import ChannelRanking, rank_channels
from repro.nn.layers import LinearLayer
from repro.nn.models import resnet20, vgg19, visformer
from repro.nn.multiexit import DynamicNetwork, Stage, SubLayer
from repro.nn.partition import (
    IndicatorMatrix,
    PartitionScheme,
    _split_units,
    backbone_layers,
    split_units,
)
from repro.perf.evaluator import HardwareProfile, MappingEvaluator, StagePerformance
from repro.perf.layer_cost import AnalyticalCostModel, LayerWorkload, NoisyCostModel
from repro.perf.predictor import train_surrogate
from repro.perf.schedule import ScheduleResult, StageSchedule
from repro.search.evaluation import ConfigEvaluator, EvaluatedConfig
from repro.search.space import SearchSpace
from repro.soc.presets import get_platform

NETWORKS = {"resnet20": resnet20, "visformer": visformer, "vgg19": vgg19}
PLATFORMS = ("jetson-agx-xavier", "mobile-big-little")


@functools.lru_cache(maxsize=None)
def _network(name: str):
    return NETWORKS[name]()


@functools.lru_cache(maxsize=None)
def _platform(name: str):
    return get_platform(name)


# -- row-wise references -----------------------------------------------------------


def _rowwise_dynamic_network(network, partition, indicator, ranking, reorder) -> DynamicNetwork:
    scheme = PartitionScheme(network=network, partition=partition, indicator=indicator)
    stages = []
    last_layer_index = scheme.num_layers - 1
    for stage_index in range(scheme.num_stages):
        sublayers = []
        for layer_index, layer in enumerate(scheme.backbone):
            sublayers.append(
                SubLayer(
                    base=layer,
                    stage_index=stage_index,
                    layer_index=layer_index,
                    in_units=scheme.available_in_units(stage_index, layer_index),
                    out_units=scheme.stage_channels(stage_index, layer_index),
                    reused_input_bytes=scheme.reused_input_bytes(stage_index, layer_index),
                )
            )
        exit_in = scheme.stage_channels(stage_index, last_layer_index)
        exit_in += sum(
            scheme.stage_channels(k, last_layer_index)
            for k in range(stage_index)
            if scheme.indicator.reused(k, last_layer_index)
        )
        exit_head = LinearLayer(
            name=f"exit{stage_index}",
            width=network.num_classes,
            in_width=int(exit_in),
            tokens=1,
        )
        stages.append(Stage(index=stage_index, sublayers=tuple(sublayers), exit_head=exit_head))
    return DynamicNetwork(
        network=network,
        scheme=scheme,
        stages=tuple(stages),
        ranking=ranking,
        reordered=reorder and ranking is not None,
    )


def _rowwise_coverage(dynamic_network: DynamicNetwork, stage: int) -> float:
    scheme = dynamic_network.scheme
    per_layer = []
    for layer_index, layer in enumerate(scheme.backbone):
        included = [stage] + [k for k in range(stage) if scheme.indicator.reused(k, layer_index)]
        if dynamic_network.reordered and dynamic_network.ranking is not None:
            curve = dynamic_network.ranking.cumulative_curve(layer.name)
            curve = np.concatenate(([0.0], curve))
            mass = 0.0
            for k in included:
                start, end = scheme.stage_range(k, layer_index)
                mass += float(curve[end] - curve[start])
        else:
            owned = sum(scheme.stage_channels(k, layer_index) for k in included)
            mass = owned / layer.width
        per_layer.append(min(1.0, mass))
    return float(np.mean(per_layer))


def _rowwise_schedule(dynamic_network, units, scales, cost_model, interconnect) -> ScheduleResult:
    num_stages = dynamic_network.num_stages
    num_layers = dynamic_network.num_layers
    indicator = dynamic_network.scheme.indicator
    scheme = dynamic_network.scheme
    taus = np.zeros((num_stages, num_layers))
    for stage in dynamic_network.stages:
        for sub in stage.sublayers:
            workload = LayerWorkload.from_sublayer(sub)
            taus[stage.index, sub.layer_index] = cost_model.latency_ms(
                workload, units[stage.index], scales[stage.index]
            )
    transfer = np.zeros((num_stages, num_layers))
    for stage_index in range(num_stages):
        for layer_index, layer in enumerate(scheme.backbone):
            feature_bytes = layer.output_bytes(scheme.stage_channels(stage_index, layer_index))
            transfer[stage_index, layer_index] = interconnect.transfer_latency_ms(feature_bytes)
    cumulative = np.zeros((num_stages, num_layers))
    stalls = np.zeros(num_stages)
    transfer_totals = np.zeros(num_stages)
    for layer_index in range(num_layers):
        for stage_index in range(num_stages):
            own_ready = cumulative[stage_index, layer_index - 1] if layer_index > 0 else 0.0
            dependency_ready = own_ready
            if layer_index > 0:
                for k in range(stage_index):
                    if indicator.reused(k, layer_index - 1):
                        ready = cumulative[k, layer_index - 1] + transfer[k, layer_index - 1]
                        transfer_totals[stage_index] += transfer[k, layer_index - 1]
                        dependency_ready = max(dependency_ready, ready)
            stalls[stage_index] += max(0.0, dependency_ready - own_ready)
            cumulative[stage_index, layer_index] = taus[stage_index, layer_index] + dependency_ready
    schedules = []
    for stage in dynamic_network.stages:
        exit_workload = LayerWorkload.from_layer(stage.exit_head)
        exit_latency = cost_model.latency_ms(exit_workload, units[stage.index], scales[stage.index])
        schedules.append(
            StageSchedule(
                stage_index=stage.index,
                unit_name=units[stage.index].name,
                scale=float(scales[stage.index]),
                sublayer_latencies_ms=tuple(taus[stage.index].tolist()),
                cumulative_latencies_ms=tuple(cumulative[stage.index].tolist()),
                exit_latency_ms=float(exit_latency),
                transfer_latency_ms=float(transfer_totals[stage.index]),
                stall_ms=float(stalls[stage.index]),
            )
        )
    return ScheduleResult(stages=tuple(schedules))


def _rowwise_profile(evaluator: MappingEvaluator, dynamic_network, unit_names, dvfs_indices):
    platform = evaluator.platform
    units = [platform.unit(name) for name in unit_names]
    scales = [unit.scale_for_point(int(index)) for unit, index in zip(units, dvfs_indices)]
    schedule = _rowwise_schedule(
        dynamic_network, units, scales, evaluator.cost_model, platform.interconnect
    )
    performances = []
    for stage, stage_schedule in zip(dynamic_network.stages, schedule.stages):
        unit = platform.unit(unit_names[stage.index])
        scale = scales[stage.index]
        compute_energy = 0.0
        for sub in stage.sublayers:
            workload = LayerWorkload.from_sublayer(sub)
            compute_energy += evaluator.cost_model.energy_mj(workload, unit, scale)
        exit_workload = LayerWorkload.from_layer(stage.exit_head)
        compute_energy += evaluator.cost_model.energy_mj(exit_workload, unit, scale)
        transfer_energy = platform.interconnect.transfer_energy_mj(stage.imported_bytes())
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
    stored = 0
    scheme = dynamic_network.scheme
    for stage_index in range(scheme.num_stages - 1):
        for layer_index, layer in enumerate(scheme.backbone):
            if scheme.indicator.reused(stage_index, layer_index):
                stored += layer.output_bytes(scheme.stage_channels(stage_index, layer_index))
    return HardwareProfile(stages=tuple(performances), stored_feature_bytes=int(stored))


def _rowwise_inference(dynamic_network, profile, model: AccuracyModel, validation_samples):
    network = dynamic_network.network
    accuracies = []
    best_so_far = 0.0
    for stage_index in range(dynamic_network.num_stages):
        coverage = _rowwise_coverage(dynamic_network, stage_index)
        accuracy = model.stage_accuracy_from_coverage(
            coverage, network.base_accuracy, network.family
        )
        best_so_far = max(best_so_far, accuracy)
        accuracies.append(best_so_far)
    statistics = compute_exit_statistics(tuple(accuracies), validation_samples=validation_samples)
    expected_latency = 0.0
    expected_energy = 0.0
    for stage_index, fraction in enumerate(statistics.exit_fractions):
        expected_latency += fraction * profile.cumulative_latency_ms(stage_index)
        expected_energy += fraction * profile.cumulative_energy_mj(stage_index)
    return DynamicInferenceResult(
        exit_statistics=statistics,
        stage_latencies_ms=tuple(stage.latency_ms for stage in profile.stages),
        stage_energies_mj=tuple(stage.energy_mj for stage in profile.stages),
        expected_latency_ms=float(expected_latency),
        expected_energy_mj=float(expected_energy),
        worst_case_latency_ms=profile.latency_ms,
        worst_case_energy_mj=profile.total_energy_mj,
        reuse_fraction=dynamic_network.reuse_fraction(),
        stored_feature_bytes=profile.stored_feature_bytes,
    )


def _rowwise_evaluate(evaluator: ConfigEvaluator, config, ranking: ChannelRanking):
    dynamic_network = _rowwise_dynamic_network(
        evaluator.network, config.partition, config.indicator, ranking, evaluator.reorder_channels
    )
    profile = _rowwise_profile(
        evaluator._mapping_evaluator, dynamic_network, config.unit_names, config.dvfs_indices
    )
    inference = _rowwise_inference(
        dynamic_network, profile, evaluator.accuracy_model, evaluator.validation_samples
    )
    return EvaluatedConfig(
        config=config, dynamic_network=dynamic_network, profile=profile, inference=inference
    )


# -- helpers -----------------------------------------------------------------------


def _config(network, platform, num_stages, seed, indicator="sampled"):
    config = SearchSpace(network, platform, num_stages=num_stages).sample(seed)
    shape = config.indicator.values.shape
    if indicator == "ones":
        config = replace(config, indicator=IndicatorMatrix(np.ones(shape, dtype=int)))
    elif indicator == "zeros":
        config = replace(config, indicator=IndicatorMatrix(np.zeros(shape, dtype=int)))
    return config


def _assert_identical(fast: EvaluatedConfig, reference: EvaluatedConfig) -> None:
    assert fast.dynamic_network.stages == reference.dynamic_network.stages
    for fast_stage, reference_stage in zip(
        fast.dynamic_network.stages, reference.dynamic_network.stages
    ):
        assert fast_stage.sublayers == reference_stage.sublayers
        assert fast_stage.exit_head == reference_stage.exit_head
    assert fast.profile == reference.profile
    assert fast.inference == reference.inference
    assert pickle.dumps(fast) == pickle.dumps(reference)


def _fast_and_reference(
    network, platform, config, reorder=True, cost_model=None, reference_cost_model=None
):
    fast = ConfigEvaluator(network, platform, cost_model=cost_model, reorder_channels=reorder)
    reference = ConfigEvaluator(
        network, platform, cost_model=reference_cost_model, reorder_channels=reorder
    )
    # A fresh ranking that never derived its curve table: the reference's
    # pickle then shows what the fast path's ranking must pickle to.
    fresh_ranking = rank_channels(network, seed=0)
    return fast.evaluate(config), _rowwise_evaluate(reference, config, fresh_ranking)


# -- differential tests ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    network_name=st.sampled_from(sorted(NETWORKS)),
    platform_name=st.sampled_from(PLATFORMS),
    reorder=st.booleans(),
    stage_draw=st.integers(min_value=0, max_value=10),
    indicator=st.sampled_from(("sampled", "ones", "zeros")),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_array_oracle_matches_rowwise_reference(
    network_name, platform_name, reorder, stage_draw, indicator, seed
):
    network, platform = _network(network_name), _platform(platform_name)
    num_stages = 1 + stage_draw % platform.num_units
    config = _config(network, platform, num_stages, seed, indicator)
    _assert_identical(*_fast_and_reference(network, platform, config, reorder=reorder))


@pytest.mark.parametrize("platform_name", PLATFORMS)
@pytest.mark.parametrize("num_stages", [1, 2, 3])
def test_every_stage_count_up_to_the_platform_maximum(platform_name, num_stages):
    platform = _platform(platform_name)
    network = _network("visformer")
    for stages in sorted({num_stages, platform.num_units}):
        for seed in range(3):
            config = _config(network, platform, stages, seed)
            _assert_identical(*_fast_and_reference(network, platform, config))


@pytest.fixture(scope="module")
def surrogate():
    return train_surrogate(
        _platform("jetson-agx-xavier"), num_samples=300, n_estimators=8, max_depth=3
    )


def test_trained_surrogate_matches_rowwise_reference(surrogate):
    platform = _platform("jetson-agx-xavier")
    for network_name in ("resnet20", "visformer"):
        network = _network(network_name)
        for seed in range(4):
            config = _config(network, platform, platform.num_units, seed)
            _assert_identical(
                *_fast_and_reference(
                    network, platform, config, cost_model=surrogate, reference_cost_model=surrogate
                )
            )


class _RecordingCostModel:
    """Delegates to the analytical oracle and logs every query in order."""

    def __init__(self) -> None:
        self.calls: List[Tuple] = []
        self._base = AnalyticalCostModel()

    def latency_ms(self, workload, unit, scale):
        self.calls.append(("latency", workload, unit.name, scale))
        return self._base.latency_ms(workload, unit, scale)

    def energy_mj(self, workload, unit, scale):
        self.calls.append(("energy", workload, unit.name, scale))
        return self._base.energy_mj(workload, unit, scale)


class _RecordingAnalyticalModel(AnalyticalCostModel):
    """A subclass of the oracle: it may override either method, so it is asked."""

    def __init__(self) -> None:
        self.calls: List[Tuple] = []

    def latency_ms(self, workload, unit, scale):
        self.calls.append(("latency", workload, unit.name, scale))
        return super().latency_ms(workload, unit, scale)

    def energy_mj(self, workload, unit, scale):
        self.calls.append(("energy", workload, unit.name, scale))
        return super().energy_mj(workload, unit, scale)


@pytest.mark.parametrize("model_type", [_RecordingCostModel, _RecordingAnalyticalModel])
def test_non_analytical_models_see_the_same_call_sequence(model_type):
    network, platform = _network("resnet20"), _platform("mobile-big-little")
    for seed in range(3):
        config = _config(network, platform, platform.num_units, seed)
        fast_model, reference_model = model_type(), model_type()
        fast, reference = _fast_and_reference(
            network, platform, config, cost_model=fast_model, reference_cost_model=reference_model
        )
        _assert_identical(fast, reference)
        assert fast_model.calls == reference_model.calls
        num_queries = sum(stage.num_sublayers + 1 for stage in fast.dynamic_network.stages)
        assert sum(call[0] == "energy" for call in fast_model.calls) == num_queries


def test_noisy_model_rng_stream_gives_identical_numbers():
    network, platform = _network("visformer"), _platform("jetson-agx-xavier")
    fast_model = NoisyCostModel(noise_std=0.1, seed=11)
    reference_model = NoisyCostModel(noise_std=0.1, seed=11)
    for seed in range(4):
        config = _config(network, platform, platform.num_units, seed)
        _assert_identical(
            *_fast_and_reference(
                network,
                platform,
                config,
                cost_model=fast_model,
                reference_cost_model=reference_model,
            )
        )


@pytest.mark.parametrize("network_name", ["resnet20", "vgg19"])
def test_coverage_adds_reused_blocks_in_stage_order(network_name):
    # With every bit set, stage 2 adds two reused blocks; adding them in any
    # other order than the row-wise loop changes the last bit of a few
    # per-layer masses within these seeds.
    network, platform = _network(network_name), _platform("jetson-agx-xavier")
    ranking = rank_channels(network, seed=0)
    for seed in range(60):
        config = _config(network, platform, 3, seed, indicator="ones")
        dynamic_network = _rowwise_dynamic_network(
            network, config.partition, config.indicator, ranking, True
        )
        assert dynamic_network.stage_coverages() == tuple(
            _rowwise_coverage(dynamic_network, stage) for stage in range(3)
        )


# -- call counts and state -----------------------------------------------------------


def test_from_layer_runs_at_most_once_per_sublayer_and_exit_head():
    network, platform = _network("resnet20"), _platform("mobile-big-little")
    evaluator = ConfigEvaluator(network, platform)
    for seed in range(3):
        config = _config(network, platform, platform.num_units, seed)
        with mock.patch.object(
            LayerWorkload, "from_layer", wraps=LayerWorkload.from_layer
        ) as from_layer:
            evaluated = evaluator.evaluate(config)
        heads_and_sublayers = sum(
            stage.num_sublayers + 1 for stage in evaluated.dynamic_network.stages
        )
        assert 0 < from_layer.call_count <= heads_and_sublayers


def test_cumulative_curves_are_derived_once_per_ranking():
    network, platform = _network("resnet20"), _platform("mobile-big-little")
    evaluator = ConfigEvaluator(network, platform)
    with mock.patch.object(
        ChannelRanking,
        "cumulative_curve",
        autospec=True,
        side_effect=ChannelRanking.cumulative_curve,
    ) as curve:
        for seed in range(5):
            evaluator.evaluate(_config(network, platform, platform.num_units, seed))
    assert curve.call_count == len(backbone_layers(network))


def test_curve_table_is_not_pickled():
    network = _network("resnet20")
    ranking = rank_channels(network, seed=0)
    before = pickle.dumps(ranking)
    names = tuple(layer.name for layer in network.layers)
    curves, offsets = ranking.leading_zero_curves(names)
    assert pickle.dumps(ranking) == before
    restored = pickle.loads(before)
    assert "_curve_tables" not in restored.__dict__
    for offset, name in zip(offsets, names):
        width = ranking.scores[name].size
        np.testing.assert_array_equal(
            curves[offset : offset + width + 1],
            np.concatenate(([0.0], ranking.cumulative_curve(name))),
        )


# -- partition tables --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    network_name=st.sampled_from(sorted(NETWORKS)),
    num_stages=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_partition_tables_match_scalar_accessors(network_name, num_stages, seed):
    network = _network(network_name)
    config = _config(network, _platform("mobile-big-little"), num_stages, seed)
    scheme = PartitionScheme(
        network=network, partition=config.partition, indicator=config.indicator
    )
    grid = [(i, j) for i in range(scheme.num_stages) for j in range(scheme.num_layers)]
    shape = (scheme.num_stages, scheme.num_layers)

    def scalar_table(accessor):
        return np.array([accessor(i, j) for i, j in grid]).reshape(shape)

    np.testing.assert_array_equal(
        scheme.available_in_units_table(), scalar_table(scheme.available_in_units)
    )
    np.testing.assert_array_equal(
        scheme.reused_input_bytes_table(), scalar_table(scheme.reused_input_bytes)
    )
    np.testing.assert_array_equal(
        scheme.stage_starts(), scalar_table(lambda i, j: scheme.stage_range(i, j)[0])
    )
    np.testing.assert_array_equal(
        scheme.output_bytes_table(),
        scalar_table(lambda i, j: scheme.backbone[j].output_bytes(scheme.stage_channels(i, j))),
    )
    widths = np.array([layer.width for layer in scheme.backbone])
    np.testing.assert_array_equal(
        scheme.visible_units() / widths, scalar_table(scheme.cumulative_width_fraction)
    )


@settings(max_examples=200, deadline=None)
@given(
    granules=st.integers(min_value=1, max_value=64),
    granularity=st.sampled_from((1, 2, 8, 64)),
    weights=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=5),
)
def test_memoised_split_units_matches_the_uncached_split(granules, granularity, weights):
    width = granules * granularity
    total = sum(weights)
    fractions = np.array(weights, dtype=float) / total if total else np.array(weights, float)

    def outcome(function):
        try:
            return function()
        except PartitionError as error:
            return str(error)

    cached = outcome(lambda: split_units(width, fractions, granularity))
    uncached = outcome(lambda: _split_units.__wrapped__(width, fractions.tobytes(), granularity))
    assert cached == uncached
    assert outcome(lambda: split_units(width, fractions, granularity)) == cached


def test_split_units_cache_is_bounded_and_rejects_bad_shapes():
    assert _split_units.cache_info().maxsize is not None
    with pytest.raises(PartitionError):
        split_units(8, np.ones((2, 2)) / 4)
    with pytest.raises(PartitionError):
        split_units(8, [])


def test_array_transfer_latencies_match_the_scalar_model():
    interconnect = _platform("jetson-agx-xavier").interconnect
    num_bytes = np.array([[0, 1, 2048], [3, 10**9, 65536]])
    expected = [[interconnect.transfer_latency_ms(int(b)) for b in row] for row in num_bytes]
    assert interconnect.transfer_latencies_ms(num_bytes).tolist() == expected
    with pytest.raises(ConfigurationError):
        interconnect.transfer_latencies_ms(np.array([1, -1]))
