"""Serving throughput bench: static vs. adaptive policies under bursty load.

Beyond the paper: Table II ranks mappings by isolated per-sample averages;
this bench deploys the searched Pareto points behind the traffic
simulator and sweeps offered load over a bursty (on/off) scenario.
For each load level it reports achieved requests/sec, p50/p99 latency and
energy per request for

* the search's best-objective mapping served statically,
* the energy-oriented Pareto point served statically,
* the latency-oriented Pareto point served statically,
* the load-adaptive switcher (energy point in calm traffic, latency point
  during surges).

At the highest load the bench asserts the serving-level claim: the adaptive
mapping switcher *demonstrably improves p99 latency* over the best static
mapping within its energy budget (always-fast statics buy their tail by
spending more energy on every request, which the switcher only spends during
surges), while staying cheaper per request than always serving the latency
point.

It also records the replay speed itself: simulated requests per second of
one static front replay and one switcher replay at the top load (simulation
plus metric reduction, best of three), emitted to ``BENCH_serving.json``.

``REPRO_SERVING_SMOKE=1`` shrinks the search budget and trace (CI smoke
mode) without changing the assertions.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_serving_throughput.py -q
"""

from __future__ import annotations

import os
import timeit
from dataclasses import replace

from perf_trajectory import emit
from repro.core.framework import MapAndConquer
from repro.core.report import format_table
from repro.nn.models import visformer
from repro.serving import (
    AdaptiveSwitchPolicy,
    Deployment,
    OnOffBursts,
    StaticPolicy,
    TrafficSimulator,
)
from repro.soc.platform import jetson_agx_xavier
from repro.soc.presets import derive

SMOKE = os.environ.get("REPRO_SERVING_SMOKE", "") == "1"

# Smoke mode shrinks the trace and the load sweep only.  The search budget is
# kept identical (it costs ~a second): a weaker search can collapse the
# energy- and latency-oriented Pareto points into one mapping, which makes
# the adaptive-vs-static comparison vacuous.
GENERATIONS = 12
POPULATION = 20
DURATION_MS = 20_000.0 if SMOKE else 60_000.0
LOAD_MULTIPLIERS = (1.0,) if SMOKE else (0.4, 0.7, 1.0)


def _replay_rate(platform, policy, requests) -> float:
    """Simulated requests per second of one replay plus its metrics (best of 3)."""
    simulator = TrafficSimulator(platform, policy, seed=0)
    seconds = min(
        timeit.repeat(
            lambda: simulator.run(requests, duration_ms=DURATION_MS).metrics(),
            number=1,
            repeat=3,
        )
    )
    return len(requests) / seconds


def test_serving_throughput(save_table):
    platform = jetson_agx_xavier()
    framework = MapAndConquer(visformer(), platform, seed=0)
    result = framework.search(generations=GENERATIONS, population_size=POPULATION, seed=0)
    best = Deployment.from_evaluated(result.best, name="best-objective")
    frugal = Deployment.from_evaluated(
        framework.select_energy_oriented(result.pareto, max_accuracy_drop=0.02),
        name="ours-E",
    )
    fast = Deployment.from_evaluated(
        framework.select_latency_oriented(result.pareto, max_accuracy_drop=0.02),
        name="ours-L",
    )

    # Bursts sized to the searched mappings: clearly past the energy point's
    # effective (exit-weighted) capacity while the latency point can still
    # drain them.
    base_burst_rps = min(
        0.95 * fast.effective_capacity_rps(), 1.25 * frugal.effective_capacity_rps()
    )
    idle_rps = 0.25 * frugal.effective_capacity_rps()

    rows = []
    top_load_metrics = {}
    top_load_requests = 0
    top_load_stream = ()
    for multiplier in LOAD_MULTIPLIERS:
        scenario = OnOffBursts(
            burst_rps=multiplier * base_burst_rps,
            idle_rps=multiplier * idle_rps,
            burst_ms=2500.0,
            idle_ms=4000.0,
        )
        requests = scenario.generate(DURATION_MS, seed=1)
        if multiplier == LOAD_MULTIPLIERS[-1]:
            top_load_requests = len(requests)
            top_load_stream = requests
        offered_rps = 1000.0 * len(requests) / DURATION_MS
        policies = [
            StaticPolicy(best, name="static-best"),
            StaticPolicy(frugal, name="static-ours-E"),
            StaticPolicy(fast, name="static-ours-L"),
            AdaptiveSwitchPolicy(frugal, fast, high_watermark=8, low_watermark=2),
        ]
        for policy in policies:
            simulator = TrafficSimulator(platform, policy, seed=0)
            metrics = simulator.run(requests, duration_ms=DURATION_MS).metrics()
            rows.append(
                {
                    "offered_rps": offered_rps,
                    "policy": policy.name,
                    "achieved_rps": metrics.throughput_rps,
                    "p50_ms": metrics.p50_latency_ms,
                    "p99_ms": metrics.p99_latency_ms,
                    "mJ_per_req": metrics.energy_per_request_mj,
                }
            )
            if multiplier == LOAD_MULTIPLIERS[-1]:
                top_load_metrics[policy.name] = metrics

    table = format_table(rows)
    print(table)
    save_table("serving_throughput", table)

    adaptive = top_load_metrics["adaptive-switch"]
    static_fast = top_load_metrics["static-ours-L"]
    # The serving-level claim: under bursts the switcher beats every static
    # mapping that fits the same per-request energy budget on tail latency
    # (always-fast statics exceed the budget on every request)...
    iso_energy_statics = [
        metrics
        for name, metrics in top_load_metrics.items()
        if name != "adaptive-switch"
        and metrics.energy_per_request_mj <= 1.02 * adaptive.energy_per_request_mj
    ]
    assert iso_energy_statics, "no static mapping within the adaptive energy budget"
    best_iso_p99 = min(metrics.p99_latency_ms for metrics in iso_energy_statics)
    assert adaptive.p99_latency_ms < 0.8 * best_iso_p99
    # ... while spending clearly less energy than always serving the fast
    # mapping would.
    assert adaptive.energy_per_request_mj < static_fast.energy_per_request_mj
    # Sanity: nobody drops requests; every policy completes the full stream.
    assert top_load_requests > 0
    assert all(
        m.num_requests == top_load_requests for m in top_load_metrics.values()
    )

    emit(
        "serving",
        {
            "smoke": SMOKE,
            "requests": top_load_requests,
            "static_replay_requests_per_s": round(
                _replay_rate(platform, StaticPolicy(frugal), top_load_stream)
            ),
            "switcher_replay_requests_per_s": round(
                _replay_rate(
                    platform,
                    AdaptiveSwitchPolicy(frugal, fast, high_watermark=8, low_watermark=2),
                    top_load_stream,
                )
            ),
        },
    )


def test_unit_lookup_does_not_dominate():
    """Micro-assert: ``Platform.unit()`` is O(1), not a per-call linear scan.

    Scheduling and deployment rescaling resolve unit names per stage;
    before the name -> (index, unit) map those were O(M)
    scans.  On a 40-unit platform a scan makes the last-declared unit ~40x
    slower to resolve than the first; the dict makes lookup cost
    position-independent, so the ratio stays near 1.
    """
    base = jetson_agx_xavier()
    extras = tuple(
        replace(base.compute_units[1], name=f"dla{index}") for index in range(2, 40)
    )
    wide = derive(base, "xavier-wide", extra_units=extras)
    first, last = wide.unit_names[0], wide.unit_names[-1]
    calls = 20_000
    time_first = min(timeit.repeat(lambda: wide.unit(first), number=calls, repeat=5))
    time_last = min(timeit.repeat(lambda: wide.unit(last), number=calls, repeat=5))
    assert time_last < 5.0 * time_first, (
        f"unit lookup is position-dependent again ({time_last / time_first:.1f}x): "
        "did Platform lose its name lookup map?"
    )
    # And absolutely cheap: far below the ~ms-scale per-request simulation work.
    assert time_last / calls < 5e-6
