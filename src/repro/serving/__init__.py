"""Serving under load: a deterministic traffic simulator for mappings.

The paper evaluates each mapping on isolated samples (Table II); this
subsystem deploys searched Pareto mappings behind per-compute-unit FIFO
queues and plays whole request traces through them -- the second relaxation
of the ideal-input-mapping assumption (after the runtime exit controller),
this time dropping the "one request at a time" idealisation:

* :mod:`repro.serving.workload` -- seedable arrival processes (constant,
  Poisson, bursty on/off, diurnal, multi-tenant),
* :mod:`repro.serving.policies` -- deployments and runtime policies (static,
  hysteresis mapping-switcher, DVFS governor),
* :mod:`repro.serving.simulator` -- the deterministic per-unit FIFO replay
  with the threshold exit controller deciding exits per request,
* :mod:`repro.serving.metrics` -- tail latency, throughput, deadline misses,
  utilisation, energy, JSONL trace export,
* :mod:`repro.serving.bridge` -- re-rank ``MapAndConquer.search`` results by
  simulated p99-under-traffic instead of isolated averages, and
  :func:`~repro.serving.bridge.measured_serving_metrics`, the
  simulate-one-deployment primitive behind the measured search objectives,
* :mod:`repro.serving.result_cache` -- :class:`ServingResultCache`, the
  content-keyed JSONL-persistent cache of simulated serving outcomes that
  keeps measured-objective searches within a small factor of proxy cost,
* :mod:`repro.serving.families` -- parameterised workload families (steady
  Poisson, bursty, diurnal, multi-tenant mixes) expanding into seeded member
  scenarios for serving campaigns (:mod:`repro.campaign.serving_runner`),
* :mod:`repro.serving.fleet` -- heterogeneous fleets of instances behind a
  pluggable deterministic router with an autoscaler (boot latency, idle
  power), each instance replaying its sub-stream through the unchanged
  single-board simulator,
* :mod:`repro.serving.fleet_metrics` -- fleet-level pooled tails, dynamic +
  idle joules, utilisation and the byte-deterministic fleet trace.
"""

from .bridge import (
    TrafficRanking,
    measured_serving_metrics,
    rank_under_traffic,
    simulate_deployment,
)
from .fleet import (
    AutoscaleEvent,
    AutoscalerPolicy,
    DeadlineAwareRouter,
    EnergyAwareRouter,
    FleetInstance,
    FleetResult,
    FleetRouter,
    FleetSimulator,
    InstanceOutcome,
    LeastLoadedRouter,
    RoundRobinRouter,
    get_router,
    router_names,
    simulate_fleet,
)
from .fleet_metrics import (
    FleetMetrics,
    FleetRequestRecord,
    compute_fleet_metrics,
    fleet_records,
    write_fleet_trace_jsonl,
)
from .families import (
    DiurnalFamily,
    MultiTenantMixFamily,
    OnOffBurstFamily,
    SteadyPoissonFamily,
    WorkloadFamily,
    default_families,
    family_names,
    family_registry,
    get_family,
    member_traffic_seed,
)
from .metrics import (
    ServingMetrics,
    compute_metrics,
    metric_direction,
    read_trace_jsonl,
    write_trace_jsonl,
)
from .policies import (
    POLICY_KINDS,
    AdaptiveSwitchPolicy,
    Deployment,
    DvfsGovernorPolicy,
    ServingPolicy,
    StaticPolicy,
    build_policy,
    rescale_deployment,
)
from .result_cache import ServingResultCache, deployment_digest, serving_digest, serving_scenario
from .simulator import RequestRecord, ServingResult, TrafficSimulator
from .workload import (
    ArrivalProcess,
    ConstantRate,
    DiurnalArrivals,
    MultiTenantStream,
    OnOffBursts,
    PoissonArrivals,
    Request,
)

__all__ = [
    "Request",
    "ArrivalProcess",
    "ConstantRate",
    "PoissonArrivals",
    "OnOffBursts",
    "DiurnalArrivals",
    "MultiTenantStream",
    "Deployment",
    "ServingPolicy",
    "StaticPolicy",
    "AdaptiveSwitchPolicy",
    "DvfsGovernorPolicy",
    "rescale_deployment",
    "POLICY_KINDS",
    "build_policy",
    "ServingResultCache",
    "serving_digest",
    "serving_scenario",
    "deployment_digest",
    "measured_serving_metrics",
    "TrafficSimulator",
    "ServingResult",
    "RequestRecord",
    "ServingMetrics",
    "metric_direction",
    "compute_metrics",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "TrafficRanking",
    "simulate_deployment",
    "rank_under_traffic",
    "WorkloadFamily",
    "SteadyPoissonFamily",
    "OnOffBurstFamily",
    "DiurnalFamily",
    "MultiTenantMixFamily",
    "family_registry",
    "family_names",
    "get_family",
    "default_families",
    "member_traffic_seed",
    "FleetInstance",
    "FleetRouter",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "DeadlineAwareRouter",
    "EnergyAwareRouter",
    "router_names",
    "get_router",
    "AutoscalerPolicy",
    "AutoscaleEvent",
    "InstanceOutcome",
    "FleetResult",
    "FleetSimulator",
    "simulate_fleet",
    "FleetRequestRecord",
    "FleetMetrics",
    "fleet_records",
    "compute_fleet_metrics",
    "write_fleet_trace_jsonl",
]
