"""Tests for the serving-result cache: keys, persistence, crash recovery.

The :class:`~repro.serving.result_cache.ServingResultCache` sits inside the
measured-objective search loop, so its edge cases are load-bearing: a
truncated JSONL line must not abort a resumed search, non-ASCII family
labels must survive a round trip readably, and hit/miss statistics must be
exact even when process-pool workers each carry their own handle to a
shared file.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.serving.metrics import ServingMetrics
from repro.serving.policies import Deployment
from repro.serving.result_cache import (
    ServingResultCache,
    deployment_digest,
    serving_digest,
    serving_scenario,
)
from repro.serving.workload import ArrivalProcess, OnOffBursts, PoissonArrivals, Request
from repro.soc.presets import get_platform

PLATFORM = get_platform("jetson-agx-xavier")
WORKLOAD = PoissonArrivals(rate_rps=50.0)


def _metrics(policy: str = "static", p99: float = 10.0) -> ServingMetrics:
    return ServingMetrics(
        policy=policy,
        num_requests=10,
        duration_ms=1000.0,
        throughput_rps=10.0,
        mean_latency_ms=5.0,
        p50_latency_ms=5.0,
        p95_latency_ms=9.0,
        p99_latency_ms=p99,
        max_latency_ms=12.0,
        mean_queueing_ms=1.0,
        deadline_miss_rate=0.0,
        accuracy=0.9,
        mean_stages=1.0,
        total_energy_mj=50.0,
        energy_per_request_mj=5.0,
        mean_in_flight=0.5,
        peak_in_flight=2,
        utilisation={"gpu": 0.5},
    )


def _deployment(name: str = "dep", service_ms: float = 4.0) -> Deployment:
    return Deployment(
        name=name,
        unit_names=("gpu",),
        service_ms=(service_ms,),
        energy_mj=(5.0,),
        stage_accuracies=(0.95,),
        dvfs_scales=(1.0,),
    )


class TestDigests:
    def test_deployment_digest_ignores_the_display_name(self):
        assert deployment_digest(_deployment("a")) == deployment_digest(
            _deployment("b")
        )

    def test_deployment_digest_covers_serving_content(self):
        assert deployment_digest(_deployment(service_ms=4.0)) != deployment_digest(
            _deployment(service_ms=5.0)
        )

    def test_serving_digest_changes_with_every_budget_axis(self):
        deployment = _deployment()
        base = serving_digest(deployment, PLATFORM, WORKLOAD, 1000.0, 0)
        assert base == serving_digest(deployment, PLATFORM, WORKLOAD, 1000.0, 0)
        assert base != serving_digest(deployment, PLATFORM, WORKLOAD, 2000.0, 0)
        assert base != serving_digest(deployment, PLATFORM, WORKLOAD, 1000.0, 1)
        assert base != serving_digest(
            deployment, PLATFORM, WORKLOAD, 1000.0, 0, deadline_ms=50.0
        )
        assert base != serving_digest(
            deployment, PLATFORM, WORKLOAD, 1000.0, 0, policy_tag="dvfs-governor"
        )
        assert base != serving_digest(
            deployment, PLATFORM, PoissonArrivals(rate_rps=60.0), 1000.0, 0
        )


def _inline_digest(deployment, platform, workload, duration_ms, seed, deadline_ms, policy_tag):
    """The serving-digest payload as one inline join, deployment half first."""
    workload_identity = (
        repr(workload) if isinstance(workload, ArrivalProcess) else repr(tuple(workload))
    )
    payload = "\n".join(
        [
            deployment_digest(deployment),
            repr(platform),
            workload_identity,
            repr(float(duration_ms)),
            repr(None if deadline_ms is None else float(deadline_ms)),
            repr(int(seed)),
            policy_tag,
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestScenarioHalf:
    DEPLOYMENTS = (_deployment("a", 4.0), _deployment("b", 7.5))
    PLATFORMS = (PLATFORM, get_platform("mobile-big-little"))
    WORKLOADS = (
        WORKLOAD,
        OnOffBursts(burst_rps=80.0, idle_rps=5.0, burst_ms=200.0, idle_ms=300.0),
        (Request(arrival_ms=0.0), Request(arrival_ms=3.5, tenant="b", deadline_ms=20.0)),
    )

    @pytest.mark.parametrize("deadline_ms", [None, 50, 12.5])
    @pytest.mark.parametrize("policy_tag", ["static", "dvfs-governor", "switch:0123abcd"])
    def test_keys_match_the_inline_formula(self, deadline_ms, policy_tag):
        for platform in self.PLATFORMS:
            for workload in self.WORKLOADS:
                scenario = serving_scenario(
                    platform, workload, 400, 7, deadline_ms=deadline_ms, policy_tag=policy_tag
                )
                for deployment in self.DEPLOYMENTS:
                    expected = _inline_digest(
                        deployment, platform, workload, 400, 7, deadline_ms, policy_tag
                    )
                    arguments = (deployment, platform, workload, 400, 7, deadline_ms, policy_tag)
                    assert serving_digest(*arguments) == expected
                    assert serving_digest(*arguments, scenario=scenario) == expected

    def test_measured_wait_extractor_keys_its_scenario_once(self):
        from repro.search.objectives import MeasuredWaitExtractor

        extractor = MeasuredWaitExtractor(
            platform=PLATFORM, workload=WORKLOAD, traffic_seed=3, duration_ms=400.0
        )
        assert extractor.scenario == serving_scenario(PLATFORM, WORKLOAD, 400.0, 3)
        assert extractor.scenario is extractor.scenario
        # Derived, not identity: objective-set fingerprints read the repr.
        assert "scenario" not in repr(extractor)
        assert pickle.loads(pickle.dumps(extractor)) == extractor


class TestInMemory:
    def test_lookup_miss_then_hit(self):
        cache = ServingResultCache()
        assert cache.lookup("k") is None
        cache.store("k", _metrics())
        assert cache.lookup("k").p99_latency_ms == 10.0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_peek_and_items_do_not_touch_stats(self):
        cache = ServingResultCache()
        cache.store("k", _metrics())
        assert cache.peek("k") is not None
        assert cache.peek("missing") is None
        assert dict(cache.items())["k"].policy == "static"
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_store_rejects_foreign_values(self):
        cache = ServingResultCache()
        with pytest.raises(ConfigurationError, match="ServingMetrics"):
            cache.store("k", {"p99": 1.0})

    def test_duplicate_store_is_idempotent(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ServingResultCache(path)
        cache.store("k", _metrics(p99=10.0))
        cache.store("k", _metrics(p99=99.0))
        assert cache.lookup("k").p99_latency_ms == 10.0
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    def test_family_label_round_trip(self):
        cache = ServingResultCache()
        cache.store("k", _metrics(), family="steady-poisson")
        cache.store("other", _metrics())
        assert cache.family("k") == "steady-poisson"
        assert cache.family("other") == ""
        assert cache.family("missing") == ""


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = ServingResultCache(path)
        first.store("k1", _metrics(p99=10.0), family="fam")
        first.store("k2", _metrics(policy="dvfs-governor", p99=20.0))

        second = ServingResultCache(path)
        assert len(second) == 2
        assert second.stats.loaded == 2
        assert second.peek("k1").p99_latency_ms == 10.0
        assert second.peek("k2").policy == "dvfs-governor"
        assert second.family("k1") == "fam"

    def test_lines_are_human_readable_json(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ServingResultCache(path).store("k", _metrics(), family="fam")
        record = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert record["version"] == 1
        assert record["key"] == "k"
        assert record["family"] == "fam"
        assert record["policy"] == "static"
        assert record["metrics"]["p99_latency_ms"] == 10.0

    def test_non_ascii_family_names_stay_raw_in_the_file(self, tmp_path):
        """``ensure_ascii=False`` + an explicit utf-8 handle: the label is
        stored as readable characters, not ``\\uXXXX`` escapes, and round-trips."""
        path = tmp_path / "cache.jsonl"
        family = "визформер-蒸留-家族"
        ServingResultCache(path).store("k", _metrics(), family=family)

        raw = path.read_text(encoding="utf-8")
        assert family in raw
        assert "\\u" not in raw.split('"payload"')[0]

        reloaded = ServingResultCache(path)
        assert reloaded.family("k") == family

SEED_DIGESTS = ("seed-0", "seed-1", "seed-2")


def _pool_worker(args):
    """Open a worker-local handle on the shared file and exercise it.

    Module-level so the fork-context pool can pickle it.  Returns the
    worker's own statistics — each handle counts its *own* hits and misses,
    which must be exact regardless of what the siblings do.
    """
    path, worker_id = args
    cache = ServingResultCache(path)
    hits = sum(cache.lookup(digest) is not None for digest in SEED_DIGESTS)
    misses = sum(
        cache.lookup(f"unknown-{worker_id}-{i}") is None for i in range(2)
    )
    cache.store(f"worker-{worker_id}", _metrics(p99=float(worker_id)))
    return {
        "loaded": cache.stats.loaded,
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
        "entries": len(cache),
    }


class TestProcessPoolWorkers:
    def test_worker_stats_are_exact_and_stores_accumulate(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        seed_cache = ServingResultCache(path)
        for digest in SEED_DIGESTS:
            seed_cache.store(digest, _metrics())

        context = multiprocessing.get_context("fork")
        with context.Pool(2) as pool:
            reports = pool.map(_pool_worker, [(str(path), 0), (str(path), 1)])

        for report in reports:
            # A worker may also see a sibling's store if it opened the file
            # second — but its *own* hit/miss counts are exact regardless.
            assert report["loaded"] in (3, 4)
            assert report["hits"] == 3
            assert report["misses"] == 2
            assert report["entries"] == report["loaded"] + 1

        merged = ServingResultCache(path)
        assert len(merged) == 5  # 3 seeded + one per worker
        assert merged.stats.loaded == 5
        assert merged.peek("worker-0").p99_latency_ms == 0.0
        assert merged.peek("worker-1").p99_latency_ms == 1.0
