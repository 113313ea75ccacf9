"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload proxy-search --seed 0 --seconds 40 --trace 0

The run cycles through the workload's inputs (derived from ``--seed``) until
the next operation would end after ``--seconds``, always completing one round
of every input.  It prints a human-readable report, then, as its last line,
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
timings are scaled by the run's host speed (see :mod:`perfbench.calibration`)
and printed as measured too.  With ``--trace 1`` the run alternates untraced
and traced rounds over half the inputs and reports the per-layer metrics plus
the tracing overhead, and keeps the merged spans in
``.perfbench-work/trace-<workload>-seed<seed>.jsonl``.  Everything else the
run writes goes to a scratch directory under ``.perfbench-work/``, removed at
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from perfbench.calibration import REFERENCE_S  # noqa: E402
from perfbench.calibration import measure as measure_host  # noqa: E402
from perfbench.stats import format_timing  # noqa: E402

#: End-to-end metrics (trace 0): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
    "hypervolume": "volume",
}

#: Set-ups timed per operation (the last one's context is used).
SETUP_REPEATS = 3


@dataclass
class Samples:
    """Measured timings of one run; cold and resume per input seed."""

    setup: List[float] = field(default_factory=list)
    cold: Dict[int, List[float]] = field(default_factory=dict)
    resume: Dict[int, List[float]] = field(default_factory=dict)
    op: Dict[int, List[float]] = field(default_factory=dict)
    wall: Dict[int, List[float]] = field(default_factory=dict)
    calibration: List[float] = field(default_factory=list)

    @property
    def host_factor(self) -> float:
        """The run's host slowdown against the reference (1.0 = reference speed)."""
        return statistics.median(self.calibration) / REFERENCE_S


def per_input_mean(per_seed: Dict[int, List[float]]) -> float:
    """Mean over inputs of each input's median: steady against noise and input mix."""
    return statistics.fmean(statistics.median(values) for values in per_seed.values())


def run_operation(workload, seed: int, run_dir: Path, span, samples: Samples):
    """One closed-loop operation: set-up (timed several times), cold call, resume.

    A host calibration runs before each timed phase (untimed itself).
    """
    work_dir = Path(tempfile.mkdtemp(prefix=f"op-{seed}-", dir=run_dir))
    measure_host(samples.calibration)
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with span("op.setup"):
            context = workload.setup(seed, work_dir)
        setups.append(time.perf_counter() - started)
    measure_host(samples.calibration)
    started = time.perf_counter()
    with span("op.cold"):
        cold = workload.cold(context)
    cold_s = time.perf_counter() - started
    with span("op.persist"):
        workload.persist(context, cold)
    measure_host(samples.calibration)
    started = time.perf_counter()
    with span("op.resume"):
        resume = workload.resume(context)
    resume_s = time.perf_counter() - started
    samples.setup.extend(setups)
    samples.cold.setdefault(seed, []).append(cold_s)
    samples.resume.setdefault(seed, []).append(resume_s)
    samples.op.setdefault(seed, []).append(sum(setups) + cold_s + resume_s)
    return work_dir, context, cold, resume


def run_round(workload, seeds, run_dir, checks, outcomes, samples, deadline, span) -> bool:
    """Run each input once, stopping early when the next op would pass ``deadline``.

    The first round (no samples yet) always completes.  Returns whether the
    whole round ran.
    """
    for seed in seeds:
        previous = samples.wall.get(seed)
        started = time.perf_counter()
        if previous and started + statistics.median(previous) > deadline:
            return False
        work_dir, context, cold, resume = run_operation(workload, seed, run_dir, span, samples)
        outcome = workload.outcome(context, cold)
        first = outcomes.setdefault(seed, outcome)
        checks.expect(outcome.digest == first.digest, "result digest changed between rounds")
        workload.verify(checks, context, cold, cold)
        checks.operation(f"input {seed} cold")
        workload.verify(checks, context, resume, cold)
        checks.operation(f"input {seed} resume")
        shutil.rmtree(work_dir, ignore_errors=True)
        samples.wall.setdefault(seed, []).append(time.perf_counter() - started)
    return True


def peak_rss_mb() -> float:
    """Peak resident set of this process or any of its (pool worker) children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def report_end_to_end(workload, samples: Samples, outcomes) -> Dict[str, float]:
    """Print the end-to-end figures; return the metrics, timings host-speed scaled."""
    factor = samples.host_factor
    print(
        f"host factor          {factor:.4f} = calibration {format_timing(samples.calibration)}"
        f" / reference {REFERENCE_S} s; scaled = measured / factor"
    )
    print(f"setup_s              measured {format_timing(samples.setup)}")
    cold_name = "campaign_s" if workload.name == "serving-campaign" else "search_s"
    for name, per_seed in ((cold_name, samples.cold), ("resume_s", samples.resume)):
        detail = "; ".join(
            f"input {seed}: {format_timing(values)}" for seed, values in per_seed.items()
        )
        mean = per_input_mean(per_seed)
        print(
            f"{name:<20} scaled {mean / factor:.4f} s, measured {mean:.4f} s "
            f"(mean of input medians) [{detail}]"
        )
    metrics = {
        "setup_s": statistics.median(samples.setup) / factor,
        "cold_s": per_input_mean(samples.cold) / factor,
        "resume_s": per_input_mean(samples.resume) / factor,
        "peak_rss_mb": peak_rss_mb(),
    }
    for name in next(iter(outcomes.values())).quality:
        values = [outcome.quality[name] for outcome in outcomes.values()]
        metrics[name] = statistics.median(values)
        print(f"{name:<20} {metrics[name]:.6g} median over inputs {[f'{v:.6g}' for v in values]}")
    requests = {seed: outcome.sim_requests for seed, outcome in outcomes.items()}
    if any(requests.values()):
        rate = statistics.fmean(
            requests[seed] / statistics.median(samples.cold[seed]) for seed in requests
        )
        print(f"sim_requests_per_s   {rate:.1f} 1/s (simulated requests per measured second, cold)")
    print(f"peak_rss_mb          {metrics['peak_rss_mb']:.1f} MB")
    return {name: metrics[name] for name in END_TO_END}


def nullcontext_span(name: str):
    return nullcontext()


def traced_run(workload, seeds, run_dir, checks, outcomes, deadline, trace_file: Path):
    """Alternate untraced and traced rounds; per-layer metrics from the traced ones.

    The merged spans are written to ``trace_file`` (JSON lines) at the end.
    """
    from perfbench import layers
    from perfbench.spans import Recorder

    spool = run_dir / "spans"
    spool.mkdir()
    recorder = Recorder(spool)
    untraced, traced = Samples(), Samples()
    while True:
        complete = run_round(
            workload, seeds, run_dir, checks, outcomes, untraced, deadline, nullcontext_span
        )
        if not complete and traced.op:
            break
        installation = layers.install(recorder)
        try:
            complete = run_round(
                workload, seeds, run_dir, checks, outcomes, traced, deadline, recorder.span
            )
        finally:
            layers.remove(installation)
        if not complete:
            break
    # Only spans under the operation roots; the untimed checks also ran traced.
    collected = recorder.collect()
    roots = {span[0]: span[3] for span in collected if span[2] is None}
    spans = [span for span in collected if roots[span[1]].startswith("op.")]
    with trace_file.open("w", encoding="utf-8") as stream:
        for span in spans:
            stream.write(json.dumps(span) + "\n")
    print(f"spans: {len(spans)} written to {trace_file.relative_to(ROOT)}")
    ops = sum(len(values) for values in traced.op.values())
    for phase in ("op.cold", "op.persist", "op.resume"):
        chosen = [span for span in spans if roots[span[1]] == phase]
        if len(chosen) > ops:
            print(f"\nper-layer table, {phase} (per operation, {ops} traced operations):")
            print(layers.layer_table(chosen, ops))
    metrics = layers.layer_metrics(spans, ops, os.getpid(), workload.workers)
    # Each round's wall is scaled by that round's host speed.
    paired = [seed for seed in traced.op if seed in untraced.op]
    baseline = per_input_mean({s: untraced.op[s] for s in paired}) / untraced.host_factor
    overhead = per_input_mean({s: traced.op[s] for s in paired}) / traced.host_factor - baseline
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / baseline
    print(
        f"\ntracing overhead: {overhead:.4f} s per operation "
        f"({metrics['trace.overhead_pct']:.1f}% of {baseline:.4f} s untraced, host-speed scaled)"
    )
    units = {name: unit for name, unit, _ in layers.PER_LAYER_METRICS}
    return {name: metrics[name] for name in units}, units


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from perfbench.stats import valid_name
    from perfbench.workloads import WORKLOADS, Checks

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; have {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seeds = workload.sub_seeds(args.seed)
    if args.trace:
        # Half the inputs, so an untraced and a traced round fit the time.
        seeds = seeds[: max(1, len(seeds) // 2)]
    print(
        f"workload {workload.name} seed {args.seed} inputs {list(seeds)} trace {args.trace} "
        f"(host: {host.machine()}, nproc {os.cpu_count()}, "
        f"Python {host.python_version()}, numpy {numpy.__version__})"
    )
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    checks = Checks()
    outcomes: Dict[int, object] = {}
    try:
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            trace_file = work_root / f"trace-{workload.name}-seed{args.seed}.jsonl"
            metrics, units = traced_run(
                workload, seeds, run_dir, checks, outcomes, deadline, trace_file
            )
        else:
            samples = Samples()
            while run_round(
                workload, seeds, run_dir, checks, outcomes, samples, deadline, nullcontext_span
            ):
                pass
            for seed, outcome in outcomes.items():
                print(f"result_digest        input {seed}: {outcome.digest}")
            metrics, units = report_end_to_end(workload, samples, outcomes), END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for message in checks.messages:
        print(f"CHECK FAILED {message}")
    print(f"failed_fraction      {checks.failed}/{checks.attempted} operations")
    invalid = [name for name in metrics if not valid_name(name)]
    if invalid:
        raise ValueError(f"invalid metric names {invalid}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
