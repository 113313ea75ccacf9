"""Tests for the evaluation cache, content keys and JSONL persistence."""

from __future__ import annotations

import base64
import dataclasses
import json
import logging
import pickle

import pytest

from repro.engine import cache as cache_module
from repro.engine.cache import CacheStats, EvaluationCache
from repro.errors import ConfigurationError
from repro.search.evaluation import ConfigEvaluator


@pytest.fixture()
def evaluated_pair(tiny_config_evaluator, tiny_space):
    """Two distinct evaluated configurations plus their digests."""
    config_a = tiny_space.sample(0)
    config_b = tiny_space.sample(1)
    return (
        (tiny_config_evaluator.content_digest(config_a), tiny_config_evaluator.evaluate(config_a)),
        (tiny_config_evaluator.content_digest(config_b), tiny_config_evaluator.evaluate(config_b)),
    )


class TestContentKeys:
    def test_same_config_same_key(self, tiny_config_evaluator, tiny_space):
        config = tiny_space.sample(0)
        assert tiny_config_evaluator.config_key(config) == tiny_config_evaluator.config_key(config)
        assert tiny_config_evaluator.content_digest(config) == tiny_config_evaluator.content_digest(
            config
        )

    def test_distinct_configs_distinct_keys(self, tiny_config_evaluator, tiny_space):
        config_a, config_b = tiny_space.sample(0), tiny_space.sample(1)
        assert tiny_config_evaluator.config_key(config_a) != tiny_config_evaluator.config_key(
            config_b
        )

    def test_reorder_channels_feeds_the_key(self, tiny_network, platform, tiny_space):
        """Two evaluators differing only in ``reorder_channels`` never alias."""
        config = tiny_space.sample(0)
        with_reorder = ConfigEvaluator(network=tiny_network, platform=platform, seed=0)
        without_reorder = ConfigEvaluator(
            network=tiny_network, platform=platform, reorder_channels=False, seed=0
        )
        assert with_reorder.config_key(config) != without_reorder.config_key(config)
        assert with_reorder.content_digest(config) != without_reorder.content_digest(config)

    def test_ranking_seed_feeds_the_key(self, tiny_network, platform, tiny_space):
        """Two evaluators with differently seeded rankings never alias."""
        config = tiny_space.sample(0)
        seeded_zero = ConfigEvaluator(network=tiny_network, platform=platform, seed=0)
        seeded_seven = ConfigEvaluator(network=tiny_network, platform=platform, seed=7)
        assert seeded_zero.config_key(config) != seeded_seven.config_key(config)

    def test_ranking_order_feeds_the_key(self, tiny_network, platform, tiny_space, tiny_ranking):
        """Equal scores with a different channel order never alias."""
        from repro.nn.channels import ChannelRanking

        reordered = ChannelRanking(
            network_name=tiny_ranking.network_name,
            scores=tiny_ranking.scores,
            order={name: order[::-1] for name, order in tiny_ranking.order.items()},
        )
        config = tiny_space.sample(0)
        original = ConfigEvaluator(
            network=tiny_network, platform=platform, ranking=tiny_ranking, seed=0
        )
        flipped = ConfigEvaluator(
            network=tiny_network, platform=platform, ranking=reordered, seed=0
        )
        assert original.content_digest(config) != flipped.content_digest(config)

    def test_validation_samples_feed_the_key(self, tiny_network, platform, tiny_space):
        config = tiny_space.sample(0)
        few = ConfigEvaluator(
            network=tiny_network, platform=platform, validation_samples=100, seed=0
        )
        many = ConfigEvaluator(
            network=tiny_network, platform=platform, validation_samples=500, seed=0
        )
        assert few.config_key(config) != many.config_key(config)

    def test_digest_stable_across_evaluator_instances(self, tiny_network, platform, tiny_space):
        """Identically configured evaluators agree on digests (persistence)."""
        config = tiny_space.sample(3)
        first = ConfigEvaluator(network=tiny_network, platform=platform, seed=0)
        second = ConfigEvaluator(network=tiny_network, platform=platform, seed=0)
        assert first.content_digest(config) == second.content_digest(config)

    def test_cost_model_parameters_feed_the_key(self, tiny_network, platform, tiny_space):
        """Same-class cost models with different state never alias."""
        from repro.perf.layer_cost import NoisyCostModel

        config = tiny_space.sample(0)
        mild = ConfigEvaluator(
            network=tiny_network,
            platform=platform,
            cost_model=NoisyCostModel(noise_std=0.01, seed=0),
            seed=0,
        )
        wild = ConfigEvaluator(
            network=tiny_network,
            platform=platform,
            cost_model=NoisyCostModel(noise_std=0.3, seed=0),
            seed=0,
        )
        assert mild.config_key(config) != wild.config_key(config)

    def test_unpicklable_cost_model_still_constructs(self, tiny_network, platform, tiny_space):
        """Custom models that cannot pickle keep working (unique fingerprint)."""
        from repro.perf.layer_cost import AnalyticalCostModel

        class OpaqueModel(AnalyticalCostModel):
            def __init__(self):
                super().__init__()
                self.hook = lambda value: value  # lambdas do not pickle

        evaluator = ConfigEvaluator(
            network=tiny_network, platform=platform, cost_model=OpaqueModel(), seed=0
        )
        config = tiny_space.sample(0)
        assert evaluator.evaluate(config).latency_ms > 0
        assert "unpicklable" in evaluator.identity_key()[5][1]


class TestCacheStats:
    def test_hit_rate_of_unused_cache_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_window_hit_rate(self):
        stats = CacheStats()
        stats.misses = 4
        snapshot = stats.snapshot()
        stats.hits += 3
        stats.misses += 1
        assert stats.window_hit_rate(snapshot) == pytest.approx(0.75)
        assert stats.hit_rate == pytest.approx(3 / 8)


class TestEvaluationCache:
    def test_lookup_miss_then_hit(self, evaluated_pair):
        (digest, value), _ = evaluated_pair
        cache = EvaluationCache()
        assert cache.lookup(digest) is None
        cache.store(digest, value)
        assert cache.lookup(digest) is value
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert len(cache) == 1
        assert digest in cache

    def test_peek_does_not_count(self, evaluated_pair):
        (digest, value), _ = evaluated_pair
        cache = EvaluationCache()
        cache.store(digest, value)
        assert cache.peek(digest) is value
        assert cache.stats.lookups == 0

    def test_store_rejects_foreign_values(self):
        cache = EvaluationCache()
        with pytest.raises(ConfigurationError):
            cache.store("deadbeef", "not an EvaluatedConfig")

    def test_duplicate_store_is_idempotent(self, evaluated_pair, tmp_path):
        (digest, value), _ = evaluated_pair
        cache = EvaluationCache(path=tmp_path / "cache.jsonl")
        cache.store(digest, value)
        cache.store(digest, value)
        assert len((tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()) == 1

    def test_get_many_counts_one_pass(self, evaluated_pair):
        (digest_a, value_a), (digest_b, _) = evaluated_pair
        cache = EvaluationCache()
        cache.store(digest_a, value_a)
        found = cache.get_many([digest_a, digest_b, digest_a])
        assert found == {digest_a: value_a}
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 3

    def test_get_many_of_nothing_is_empty(self):
        cache = EvaluationCache()
        assert cache.get_many([]) == {}
        assert cache.stats.lookups == 0

    def test_store_many_skips_existing_and_persists_new(self, evaluated_pair, tmp_path):
        (digest_a, value_a), (digest_b, value_b) = evaluated_pair
        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(path=path)
        cache.store(digest_a, value_a)
        cache.store_many([(digest_a, value_a), (digest_b, value_b)])
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2
        assert cache.peek(digest_b) is value_b

    def test_store_many_rejects_foreign_values(self, evaluated_pair):
        (digest, _), _ = evaluated_pair
        cache = EvaluationCache()
        with pytest.raises(ConfigurationError):
            cache.store_many([(digest, "not an EvaluatedConfig")])

    def test_items_iterates_without_stats(self, evaluated_pair):
        cache = EvaluationCache()
        for digest, value in evaluated_pair:
            cache.store(digest, value)
        assert dict(cache.items()) == {digest: value for digest, value in evaluated_pair}
        assert cache.stats.lookups == 0


class TestPersistence:
    def test_round_trip(self, evaluated_pair, tmp_path):
        path = tmp_path / "cache.jsonl"
        writer = EvaluationCache(path=path)
        for digest, value in evaluated_pair:
            writer.store(digest, value)

        reader = EvaluationCache(path=path)
        assert reader.stats.loaded == 2
        for digest, value in evaluated_pair:
            restored = reader.lookup(digest)
            assert restored is not None
            assert restored.latency_ms == pytest.approx(value.latency_ms)
            assert restored.energy_mj == pytest.approx(value.energy_mj)
            assert restored.accuracy == pytest.approx(value.accuracy)

    def test_lines_are_valid_json_with_metrics(self, evaluated_pair, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(path=path)
        (digest, value), _ = evaluated_pair
        cache.store(digest, value)
        record = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert record["key"] == digest
        assert record["metrics"]["latency_ms"] == pytest.approx(value.latency_ms)
        assert "payload" in record

    def test_corrupt_lines_are_skipped(self, evaluated_pair, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(path=path)
        (digest, value), _ = evaluated_pair
        cache.store(digest, value)
        with path.open("a", encoding="utf-8") as stream:
            stream.write("{not json}\n")
            stream.write(json.dumps({"version": 99, "key": "x", "payload": ""}) + "\n")
            # Valid version but no "key" field (foreign writer).
            stream.write(json.dumps({"version": 1, "payload": "AAAA"}) + "\n")
            # Valid shape but the payload is not an EvaluatedConfig pickle.
            stream.write(
                json.dumps(
                    {
                        "version": 1,
                        "key": "y",
                        "payload": base64.b64encode(pickle.dumps([1, 2])).decode(),
                    }
                )
                + "\n"
            )
        reader = EvaluationCache(path=path)
        assert reader.stats.loaded == 1
        assert reader.peek(digest) is not None

class TestFrameworkSharedCache:
    def test_repeat_search_on_one_framework_hits_shared_cache(self, tiny_network, platform):
        from repro.core.framework import MapAndConquer
        from repro.search.objectives import paper_objective

        framework = MapAndConquer(tiny_network, platform, seed=0)
        first = framework.search(generations=3, population_size=8, seed=0)
        second = framework.search(generations=3, population_size=8, seed=0)
        assert paper_objective(second.best) == paper_objective(first.best)
        assert all(stat.cache_hit_rate == 1.0 for stat in second.generations)
        assert len(framework.evaluation_cache) == first.num_evaluations


class TestWarmSearches:
    def test_second_run_is_all_hits_and_identical(self, tiny_network, platform, tmp_path):
        from repro.core.framework import MapAndConquer
        from repro.search.objectives import paper_objective

        path = tmp_path / "cache.jsonl"
        cold = MapAndConquer(tiny_network, platform, seed=0).search(
            generations=3, population_size=8, seed=0, cache=str(path)
        )
        warm = MapAndConquer(tiny_network, platform, seed=0).search(
            generations=3, population_size=8, seed=0, cache=str(path)
        )
        assert paper_objective(warm.best) == paper_objective(cold.best)
        assert all(stat.cache_hit_rate == 1.0 for stat in warm.generations)
        assert [s.best_objective for s in warm.generations] == [
            s.best_objective for s in cold.generations
        ]


def _searched_entries(network, platform):
    from repro.core.framework import MapAndConquer

    framework = MapAndConquer(network, platform, seed=0)
    framework.search(generations=2, population_size=8, seed=0)
    return list(framework.evaluation_cache.items())


@pytest.fixture(scope="module", params=["resnet20/mobile-big-little", "visformer/xavier"])
def searched(request):
    """Every entry of a real search, on a conv and on a transformer model."""
    from repro.nn.models import resnet20, visformer
    from repro.soc.platform import jetson_agx_xavier
    from repro.soc.presets import mobile_big_little

    if request.param.startswith("resnet20"):
        return _searched_entries(resnet20(), mobile_big_little())
    return _searched_entries(visformer(), jetson_agx_xavier())


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestSharedRankingFormat:
    """Version-2 lines: each channel ranking is written once per file."""

    def test_reloaded_components_pickle_byte_identically(self, searched, tmp_path):
        path = tmp_path / "cache.jsonl"
        EvaluationCache(path=path).store_many(searched)
        reader = EvaluationCache(path=path)
        assert reader.stats.loaded == len(searched)
        for digest, fresh in searched:
            loaded = reader.peek(digest)
            for name in ("config", "profile", "inference"):
                assert pickle.dumps(getattr(loaded, name)) == pickle.dumps(getattr(fresh, name))
            assert pickle.dumps(
                dataclasses.replace(loaded.dynamic_network, ranking=None)
            ) == pickle.dumps(dataclasses.replace(fresh.dynamic_network, ranking=None))
            assert pickle.dumps(loaded.dynamic_network.ranking) == pickle.dumps(
                fresh.dynamic_network.ranking
            )

    def test_reloaded_entries_keep_graph_identity(self, searched, tmp_path):
        path = tmp_path / "cache.jsonl"
        EvaluationCache(path=path).store_many(searched)
        for _, loaded in EvaluationCache(path=path).items():
            dynamic = loaded.dynamic_network
            network = dynamic.network
            assert dynamic.scheme.network is network
            for stage in dynamic.stages:
                for index, sublayer in enumerate(stage.sublayers):
                    assert sublayer.base is network.layers[index]
                    assert dynamic.scheme.backbone[index] is network.layers[index]

    def test_loaded_entries_share_one_ranking(self, searched, tmp_path):
        path = tmp_path / "cache.jsonl"
        EvaluationCache(path=path).store_many(searched)
        rankings = {
            id(value.dynamic_network.ranking) for _, value in EvaluationCache(path=path).items()
        }
        assert len(rankings) == 1

    def test_only_the_first_line_carries_the_blob(self, searched, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(path=path)
        for digest, value in searched[:3]:
            cache.store(digest, value)
        lines = _lines(path)
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert [record["version"] for record in records] == [2, 2, 2]
        assert len(records[0]["shared"]) == 1
        assert "shared" not in records[1] and "shared" not in records[2]
        (blob,) = records[0]["shared"].values()
        # Later lines drop the whole blob (minus slack for the mapping text).
        assert len(lines[1]) < len(lines[0]) - len(blob) + 512
        if searched[0][1].dynamic_network.network.name == "visformer":
            # Visformer's ranking is ~90% of its entry; resnet20's is ~70%.
            assert len(lines[1]) < len(lines[0]) / 4

    def test_version_one_line_loads(self, searched, tmp_path):
        digest, value = searched[0]
        path = tmp_path / "cache.jsonl"
        legacy = {
            "version": 1,
            "key": digest,
            "metrics": {},
            "mapping": value.config.describe(),
            "payload": base64.b64encode(pickle.dumps(value)).decode("ascii"),
        }
        _write_lines(path, [json.dumps(legacy)])
        loaded = EvaluationCache(path=path).peek(digest)
        assert loaded is not None
        assert pickle.dumps(loaded) == pickle.dumps(value)

    def test_truncated_blob_line_skips_its_references(self, searched, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        entries = searched[:3]
        EvaluationCache(path=path).store_many(entries)
        lines = _lines(path)
        _write_lines(path, [lines[0][: len(lines[0]) // 2]] + lines[1:])

        with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
            second = EvaluationCache(path=path)
        assert len(second) == 0
        assert any(
            "recovered 0 entries" in record.message and "skipped 3" in record.message
            for record in caplog.records
        )
        # The next writer does not know the blob, so it writes it again.
        second.store_many(entries)
        assert "shared" in json.loads(_lines(path)[3])

        third = EvaluationCache(path=path)
        assert len(third) == len(entries)
        assert third.stats.loaded == len(entries)

    def test_unresolvable_reference_is_skipped(self, searched, tmp_path):
        path = tmp_path / "cache.jsonl"
        EvaluationCache(path=path).store_many(searched[:2])
        first, second = (json.loads(line) for line in _lines(path))
        del first["shared"]
        _write_lines(path, [json.dumps(first), json.dumps(second)])
        assert len(EvaluationCache(path=path)) == 0

    def test_blob_not_matching_its_key_is_skipped(self, searched, tmp_path):
        path = tmp_path / "cache.jsonl"
        EvaluationCache(path=path).store_many(searched[:2])
        first, second = (json.loads(line) for line in _lines(path))
        (key,) = first["shared"]
        first["shared"] = {key: base64.b64encode(pickle.dumps("forged")).decode("ascii")}
        _write_lines(path, [json.dumps(first), json.dumps(second)])
        assert len(EvaluationCache(path=path)) == 0

    def test_two_writers_on_one_path_each_emit_the_blob(self, searched, tmp_path):
        path = tmp_path / "cache.jsonl"
        first, second = EvaluationCache(path=path), EvaluationCache(path=path)
        first.store_many(searched[:2])
        second.store_many(searched[2:4])
        records = [json.loads(line) for line in _lines(path)]
        assert ["shared" in record for record in records] == [True, False, True, False]
        reader = EvaluationCache(path=path)
        assert len(reader) == 4
        assert {digest for digest, _ in reader.items()} == {d for d, _ in searched[:4]}

    def test_writer_that_loaded_the_blob_does_not_repeat_it(self, searched, tmp_path):
        path = tmp_path / "cache.jsonl"
        EvaluationCache(path=path).store_many(searched[:2])
        EvaluationCache(path=path).store_many(searched[2:4])
        records = [json.loads(line) for line in _lines(path)]
        assert ["shared" in record for record in records] == [True, False, False, False]

    def test_failed_write_resends_the_blob(self, searched, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache directory should be", encoding="utf-8")
        path = blocker / "cache.jsonl"
        cache = EvaluationCache(path=path)
        with pytest.raises(OSError):
            cache.store_many(searched[:1])
        blocker.unlink()
        cache.store_many(searched[1:3])
        records = [json.loads(line) for line in _lines(path)]
        assert ["shared" in record for record in records] == [True, False]
        assert len(EvaluationCache(path=path)) == 2

    def test_shared_ref_outside_a_load_raises(self, searched, tmp_path):
        with pytest.raises(pickle.UnpicklingError):
            cache_module._shared_ref("0" * 64)
        path = tmp_path / "cache.jsonl"
        EvaluationCache(path=path).store_many(searched[:1])
        payload = base64.b64decode(json.loads(_lines(path)[0])["payload"])
        with pytest.raises(pickle.UnpicklingError):
            pickle.loads(payload)

    def test_memory_only_cache_never_pickles(self, searched, monkeypatch):
        class NoPickle:
            def __getattr__(self, name):
                raise AssertionError(f"memory-only cache touched pickle.{name}")

        monkeypatch.setattr(cache_module, "pickle", NoPickle())
        cache = EvaluationCache()
        (digest, value), *rest = searched[:3]
        cache.store(digest, value)
        cache.store_many(rest)
        assert cache.lookup(digest) is value
        assert len(cache.get_many([d for d, _ in rest])) == len(rest)
