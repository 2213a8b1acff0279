"""chisum benchmark: one workload, one process, one operation at a time.

    python3 bench/run.py --workload {cli,boundary,regular} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --write-spec     # regenerate BENCHMARK.json

A run builds the workload's operations from the seed, gets their expected
results from the mpmath oracle (``bench/oracle.py``, in a child process
that never imports chisum), then runs the operations in a closed loop with
a single client, in whole passes over the list, for about ``--seconds``,
checking every result against the oracle.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it runs half the time
untraced, replays the same operations with spans around every layer
call, and reports the per-layer metrics.
The loop's timings are scaled to reference-host seconds by a speed probe
run between operations (see ``end_to_end``).  It prints each metric with
its unit, writes a results file with the environment, the unscaled
figures and every failed operation's inputs to ``bench/results/``, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``attempted`` is the number of distinct operations in the seed's list,
all of which every run executes, and ``failed`` the number of those whose
result missed the oracle or raised, known defect or not; so both depend
only on the seed and the library.  ``correct`` is false when an operation
fails that is not a recorded known defect (see ``bench/workloads.py``).
See ``bench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import execute  # noqa: E402  (imports chisum from src; fails without it)
import spec  # noqa: E402
import workloads  # noqa: E402
from chisum import summation, weights  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 7
CLI_PROBE_REPEATS = 3
CLI_REPLAY_LIMIT = 12  # distinct CLI calls timed in-process for cli.main_s
DOUBLE_PROBE_LIMIT = 64  # distinct approximants re-evaluated by chi_sum


def environment() -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    versions = {}
    for pkg in ("numpy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "commit": commit}


def speed_probe() -> float:
    """Seconds for a fixed pure-Python kernel that uses nothing of chisum.
    The shared host's speed drifts by a quarter and more from one minute
    to the next; this kernel drifts with it and with nothing else."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(3000):
        acc += (i % 7) * 0.5 / (1.0 + i)
        table[i & 63] = acc
    return time.perf_counter() - start


def spawn_probe() -> float:
    """Seconds for a fresh interpreter to run ``pass``: what starting a
    process costs on the host at that moment.  It follows the cost of the
    CLI's children and of the set-up children far more closely than
    speed_probe does, and nothing in chisum can move it."""
    return execute.spawn(["-c", "pass"], ROOT)["wall_s"]


def op_probe(workload: str):
    """The probe paired with each of the workload's operations."""
    return spawn_probe if workload == "cli" else speed_probe


class Loop:
    """Closed loop, one client: the next operation starts when the last
    one has returned.  Records latency, terms and correctness per
    operation.  With a probe, it runs the probe right before each
    operation and records its time with it; probe time is left out of
    the loop's wall time.

    A timed loop runs whole passes over the operation list, so every
    operation runs equally often and the run's mix does not depend on the
    host's speed.  After each pass it starts another only if that pass
    would end nearer to ``seconds`` than stopping now does."""

    def __init__(self, ops, expected, run_op, probe=None):
        self.ops, self.expected, self.run_op = ops, expected, run_op
        self.probe = probe
        self.records: list[dict] = []
        self.wall_s = 0.0

    def run(self, seconds: float = None, count: int = None, before_op=None) -> "Loop":
        start = time.perf_counter()
        i, probing, size = 0, 0.0, len(self.ops)
        while True:
            if count is not None:
                if i >= count:
                    break
            elif i and i % size == 0:
                elapsed = time.perf_counter() - start
                if elapsed * (1 + 0.5 * size / i) >= seconds:
                    break
            probe_s = self.probe() if self.probe else None
            probing += probe_s or 0.0
            op = self.ops[i % len(self.ops)]
            if before_op:
                before_op(i)
            t0 = time.perf_counter()
            try:
                result, extra = self.run_op(op)
                latency = time.perf_counter() - t0
                problems = execute.check(op, result, self.expected[i % len(self.ops)])
            except Exception as exc:  # any raise is a failed operation
                latency = time.perf_counter() - t0
                extra, problems = {}, [f"raised {type(exc).__name__}: {exc}"[:300]]
            self.records.append({"index": i % len(self.ops), "latency_s": latency,
                                 "probe_s": probe_s,
                                 "terms": workloads.terms(op), "problems": problems,
                                 "known_defect": op.get("known_defect"), **extra})
            i += 1
        self.wall_s = time.perf_counter() - start - probing
        return self

    @property
    def latencies(self) -> list:
        return [r["latency_s"] for r in self.records]


def measure_setup(workload: str, seed: int) -> list:
    """(wall seconds, spawn probe seconds) for fresh interpreters that
    import chisum.cli and build the workload's inputs (no oracle), each
    run right after its probe."""
    pairs = []
    for _ in range(SETUP_REPEATS):
        probe_s = spawn_probe()
        child = execute.spawn([str(BENCH / "workloads.py"), workload, str(seed)], ROOT)
        if child["code"] != 0:
            raise RuntimeError(f"set-up child failed: {child['stderr'][-500:]}")
        pairs.append((child["wall_s"], probe_s))
    return pairs


def oracle_values(ops: list) -> list:
    child = execute.spawn([str(BENCH / "oracle.py")], ROOT, json.dumps(ops).encode())
    if child["code"] != 0:
        raise RuntimeError(f"oracle failed: {child['stderr'][-2000:]}")
    return json.loads(child["stdout"])


def op_runner(workload: str, importtime: bool = False):
    if workload != "cli":
        return lambda op: (execute.run_inprocess(op), {})

    def run_child(op):
        result, child = execute.run_cli_child(op, ROOT, importtime)
        return result, {"rss_mb": child["rss_mb"]}

    return run_child


def _timings(lat: list, wall_s: float, terms: int, setup: list) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0],
        "throughput_ops_per_s": len(lat) / wall_s,
        "terms_per_s": terms / sum(lat),
    }


def end_to_end(loop: Loop, setup: list, workload: str) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same figures as measured.

    Each time is divided by the probe run right before it and multiplied
    by the probe's reference time (bench/spec.py): operation latencies by
    their own probe (spawn_probe on cli, speed_probe elsewhere), set-up
    walls by their spawn probe, and the loop's wall time by the run's
    summed scaled over summed measured latency.  That takes out most of
    the host's drift, which moves the probe and the timed work together;
    a change to chisum moves only the timed work."""
    ref = spec.REFERENCE_SPAWN_S if workload == "cli" else spec.REFERENCE_PROBE_S
    lat = loop.latencies
    scaled = [r["latency_s"] * ref / r["probe_s"] for r in loop.records]
    terms = sum(r["terms"] for r in loop.records)
    if workload == "cli":
        rss = max(r.get("rss_mb", 0.0) for r in loop.records)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = _timings(lat, loop.wall_s, terms, [wall for wall, _ in setup])
    metrics = _timings(scaled, loop.wall_s * sum(scaled) / sum(lat), terms,
                       [wall * spec.REFERENCE_SPAWN_S / probe for wall, probe in setup])
    raw["probe_s"] = statistics.median(r["probe_s"] for r in loop.records)
    raw["setup_probe_s"] = statistics.median(probe for _, probe in setup)
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = rss
    return metrics, raw


def cli_probe() -> dict:
    """Interpreter start and chisum.cli import cost, from fresh children."""
    interp, imports = [], {"chisum.cli": [], "numpy": [], "mpmath": []}
    for _ in range(CLI_PROBE_REPEATS):
        interp.append(execute.spawn(["-c", "pass"], ROOT)["wall_s"])
        child = execute.spawn(["-X", "importtime", "-c", "import chisum.cli"], ROOT)
        # Lines read "import time: self | cumulative | <indent>module"; each
        # of these modules is imported once, and chisum.cli's line covers
        # the chisum package it pulls in.
        cumulative = {}
        for line in child["stderr"].splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in imports:
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        for key, values in imports.items():
            values.append(cumulative[key])
    return {
        "cli.interpreter_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports["chisum.cli"]),
        "cli.import.numpy_s": statistics.median(imports["numpy"]),
        "cli.import.mpmath_s": statistics.median(imports["mpmath"]),
    }


def cli_replay(ops: list, count: int) -> tuple[list, list, list]:
    """In-process chisum.cli.main over the CLI form of the first distinct
    operations run: times, output sizes and the operations replayed."""
    seen, times, sizes, replayed = set(), [], [], []
    for i in range(count):
        op = ops[i % len(ops)]
        argv = workloads.cli_argv(op)
        if argv is None or tuple(argv) in seen:
            continue
        seen.add(tuple(argv))
        text, elapsed = execute.run_cli_inprocess(argv)
        times.append(elapsed)
        sizes.append(len(text.encode()))
        replayed.append(op)
        if len(seen) >= CLI_REPLAY_LIMIT:
            break
    return times, sizes, replayed


def double_fail_ratio(ops: list, expected: list, count: int) -> float:
    """Share of the distinct requested approximants for which the
    double-only public chi_sum raises or misses the oracle."""
    seen, fails = {}, 0
    for i in range(count):
        op, want = ops[i % len(ops)], expected[i % len(ops)]
        for (series, n), ref in zip(op["requests"], want.get("approx", [])):
            key = (json.dumps(series, sort_keys=True), n)
            if key in seen or len(seen) >= DOUBLE_PROBE_LIMIT:
                continue
            try:
                ok = execute.close(summation.chi_sum(execute.lookup(series), n), ref)
            except Exception:  # a raise is a failure of the double path
                ok = False
            seen[key] = ok
            fails += not ok
    return fails / len(seen) if seen else 0.0


def per_layer(workload: str, ops: list, expected: list, seconds: float,
              results_dir: Path, tag: str) -> tuple[dict, list]:
    runner = op_runner(workload)
    weights.chi_row.cache_clear()
    plain = Loop(ops, expected, runner).run(seconds=seconds / 2)
    count = len(plain.records)
    tracer = Tracer()
    weights.chi_row.cache_clear()
    if workload == "cli":
        # The children cannot be wrapped from here; their tracing is
        # -X importtime.  The library layers are traced in-process over
        # the same calls through chisum.cli.main.
        traced = Loop(ops, expected, op_runner(workload, importtime=True)).run(count=count)
        tracer.install()
        try:
            times, sizes, replayed = cli_replay(ops, count)
        finally:
            tracer.uninstall()
        cache = weights.chi_row.cache_info()
        layer_ops, terms = len(replayed), sum(workloads.terms(op) for op in replayed)
    else:
        def mark(i):
            tracer.op_id = i

        tracer.install()
        try:
            traced = Loop(ops, expected, runner).run(count=count, before_op=mark)
        finally:
            tracer.uninstall()
        cache = weights.chi_row.cache_info()
        times, sizes, _ = cli_replay(ops, count)
        layer_ops, terms = count, sum(r["terms"] for r in traced.records)
    tracer.dump(results_dir / f"{tag}-spans.json")

    totals, per_op = tracer.totals(), max(layer_ops, 1)
    metrics = {
        **cli_probe(),
        "cli.main_s": statistics.median(times) if times else 0.0,
        "cli.output_bytes": statistics.mean(sizes) if sizes else 0.0,
        "weights.chi_row.hit_ratio": cache.hits / max(cache.hits + cache.misses, 1),
        "summation.chi_sweep.self_s": totals["summation.chi_sweep"]["self_s"] / per_op,
        "summation.terms": terms / per_op,
        "summation.double_fail_ratio": double_fail_ratio(ops, expected, count),
        "failed_ratio": sum(1 for loop in (plain, traced) for r in loop.records
                            if r["problems"]) / (2 * count),
        "trace.overhead_ratio": sum(traced.latencies) / sum(plain.latencies),
    }
    for name in ("weights.chi_row", "special.harmonic"):
        metrics[f"{name}.calls"] = totals[name]["calls"] / per_op
    for name in ("weights.chi_row", "weights.averaging_row", "series.lookup",
                 "series.partial_sums", "special.harmonic", "summation.chi_sweep",
                 "summation.chi_sum", "summation.chi_limit", "summation.euler_transform",
                 "summation.abel_estimate", "summation.cesaro_mean", "error_model"):
        metrics[f"{name}.busy_s"] = totals[name]["busy_s"] / per_op
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from bench/spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        print(spec.write(ROOT))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not Path(execute.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: chisum was not imported from {ROOT / 'src'}", file=sys.stderr)
        return 2

    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / ".work" / f"run-{os.getpid()}"
    try:
        setup = [] if args.trace else measure_setup(args.workload, args.seed)
        ops = workloads.build(args.workload, args.seed, work)
        expected = oracle_values(ops)
        raw = None
        if args.trace:
            metrics, loops = per_layer(args.workload, ops, expected, args.seconds,
                                       results_dir, tag)
            declared = [name for name, *_ in spec.PER_LAYER]
        else:
            loop = Loop(ops, expected, op_runner(args.workload),
                        probe=op_probe(args.workload)).run(seconds=args.seconds)
            (metrics, raw), loops = end_to_end(loop, setup, args.workload), [loop]
            declared = [name for name, *_ in spec.END_TO_END]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if sorted(metrics) != sorted(declared):
        raise RuntimeError(f"metric set {sorted(metrics)} differs from bench/spec.py")

    # attempted and failed count distinct operations of the seed's list:
    # every run executes each of them (in whole passes), so both counts
    # depend on the seed and the library only, not on the host's speed.
    records = [r for loop in loops for r in loop.records]
    attempted = {r["index"] for r in records}
    failures, seen = [], set()
    for r in records:
        if r["problems"] and r["index"] not in seen:
            seen.add(r["index"])
            failures.append({"op": ops[r["index"]], "problems": r["problems"],
                             "known_defect": r["known_defect"]})
    unexpected = [f for f in failures if not f["known_defect"]]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "samples": {"operations": len(records), "distinct_operations": len(ops),
                    "failed_operations": sum(1 for r in records if r["problems"]),
                    "setup_runs": len(setup)},
        "metrics": {k: {"value": metrics[k], "unit": spec.UNITS[k]} for k in declared},
        "measured": raw,
        "correct": not unexpected, "attempted": len(attempted), "failed": len(failures),
        "failures": failures,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {len(records)} executions of "
          f"{len(attempted)} distinct operations, {len(failures)} failed "
          f"({len(unexpected)} not known defects), {len(setup)} set-up runs")
    for name in declared:
        print(f"  {name} = {metrics[name]!r} {spec.UNITS[name]}")
    for f in failures[:5]:
        label = "known defect" if f["known_defect"] else "FAILED"
        print(f"  {label}: {f['op']['kind']} {f['problems'][0]}")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
