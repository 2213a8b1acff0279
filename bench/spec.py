"""The benchmark's declared surface: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this table
(``python3 bench/run.py --write-spec``), and the runner refuses to print a
metric set that differs from it, so the two cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

# Oracle agreement: |value - oracle| <= RTOL*|oracle| + ATOL.  RTOL admits
# the documented double-precision loss: a cancellation ratio of up to 1e8
# (the library's escalation threshold) leaves about 8 good digits, of which
# the per-term rounding of a length-2000 weight row can cost two more.
RTOL = 1e-6
ATOL = 1e-12

RUN_SECONDS = 30

# Times are reported in reference-host seconds: each is scaled by the
# reference time of the probe run right before it over that probe's
# measured time.  These are about the probes' median times on the 2-CPU
# host the benchmark was written on: run.speed_probe (in-process
# operations) and run.spawn_probe (CLI children and set-up children).
REFERENCE_PROBE_S = 0.0008
REFERENCE_SPAWN_S = 0.08

WORKLOADS = (
    (
        "cli",
        "README-style chisum calls, each in a fresh interpreter: start and "
        "import dominate, so compute changes read flat here; oracle tol 1e-6 rel",
    ),
    (
        "boundary",
        "chi_sweep(accelerate) near and past the boundary kappa, n up to 2000: "
        "precision escalation dominates, chi_row hits; oracle tol 1e-6 rel",
    ),
    (
        "regular",
        "well-conditioned chi_sum/chi_limit, classical methods, cold large "
        "chi_row builds, Bernoulli table, rate_fit; oracle tol 1e-6 rel",
    ),
)

# (name, unit, better, bound).  The timing bounds are the largest allowed:
# on the 2-CPU shared host the benchmark was written on, a fixed
# pure-Python loop ran anywhere from 0.17 s to 0.32 s from one minute to
# the next; the speed probe takes out much of that, not all.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_p90_s", "s", "lower", 0.25),
    ("throughput_ops_per_s", "1/s", "higher", 0.25),
    ("terms_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better); per-operation figures are averages over the
# operations of the traced phase.
PER_LAYER = (
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import.numpy_s", "s", "lower"),
    ("cli.import.mpmath_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("weights.chi_row.calls", "1/op", "lower"),
    ("weights.chi_row.busy_s", "s/op", "lower"),
    ("weights.chi_row.hit_ratio", "ratio", "higher"),
    ("weights.averaging_row.busy_s", "s/op", "lower"),
    ("series.lookup.busy_s", "s/op", "lower"),
    ("series.partial_sums.busy_s", "s/op", "lower"),
    ("special.harmonic.calls", "1/op", "lower"),
    ("special.harmonic.busy_s", "s/op", "lower"),
    ("summation.chi_sweep.busy_s", "s/op", "lower"),
    ("summation.chi_sweep.self_s", "s/op", "lower"),
    ("summation.chi_sum.busy_s", "s/op", "lower"),
    ("summation.chi_limit.busy_s", "s/op", "lower"),
    ("summation.euler_transform.busy_s", "s/op", "lower"),
    ("summation.abel_estimate.busy_s", "s/op", "lower"),
    ("summation.cesaro_mean.busy_s", "s/op", "lower"),
    ("summation.terms", "1/op", "higher"),
    ("summation.double_fail_ratio", "ratio", "lower"),
    ("error_model.busy_s", "s/op", "lower"),
    ("failed_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def write(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
