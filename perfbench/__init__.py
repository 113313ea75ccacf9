"""The repository benchmark: end-to-end workloads plus an outside-in layer trace.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload from the repository's ``src/`` tree and prints, as its
last line, one JSON object with the correctness tally and the metrics named
in ``BENCHMARK.json`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).

Modules:

* :mod:`perfbench.stats` -- timing summaries (median plus the highest
  percentile with ten samples beyond it) and metric-name validation.
* :mod:`perfbench.calibration` -- the host-speed calibration timings are
  scaled by.
* :mod:`perfbench.spans` -- the in-memory span recorder, per-process span
  files and the self-time arithmetic.
* :mod:`perfbench.layers` -- which public functions of the library are
  wrapped, under which layer names, and the per-layer metrics derived from
  the recorded spans.
* :mod:`perfbench.workloads` -- the three workloads, their correctness
  checks and result digests.
"""
