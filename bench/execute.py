"""Runs one benchmark operation against chisum and checks its result.

In-process operations call the library's public functions through their
modules (``summation.chi_sweep``), so that the tracer can wrap those
module attributes.  ``cli`` operations run ``chisum.cli.run`` in a fresh
interpreter with ``src`` on ``PYTHONPATH``; their JSON or CSV output is
parsed into the same result shape as an in-process call, and both are
compared with the oracle by ``check``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from chisum import cli, error_model, series, special, summation

from spec import ATOL, RTOL

CLI_CODE = "import sys; sys.argv[0] = 'chisum'; from chisum.cli import run; run()"
CHILD_TIMEOUT_S = 120.0


def lookup(desc: dict):
    """Build the SeriesSpec a descriptor names, through the public API."""
    name = desc["name"]
    if name == "custom":
        return series.load_custom(json.dumps(desc["doc"]))
    if name == "combine":
        parts = [lookup(p) for p in desc["parts"]]
        return series.combine(parts, desc["coefficients"])
    params = {"x": desc["x"]} if "x" in desc else {}
    return series.catalog_lookup(name, **params)


def run_inprocess(op: dict) -> dict:
    kind = op["kind"]
    if kind == "rate_fit":
        fit = error_model.rate_fit(op["grid"], op["errors"])
        return {"rate_fit": [fit.C, fit.p]}
    if kind == "bernoulli":
        table = special.bernoulli_numbers(60)
        approx = [summation.chi_sum(lookup(s), n) for s, n in op["requests"]]
        return {"approx": approx, "bernoulli": list(table.values),
                "gen_fn": [special.bernoulli_gen_fn(x) for x in op["xs"]]}
    spec = lookup(op["series"])
    if kind == "sweep":
        r = summation.chi_sweep(spec, op["grid"], accelerate=True)
        return {"approx": list(r.approximants), "value": r.value,
                "accelerated": r.accelerated, "verdict": r.verdict}
    if kind == "chi_sum":
        return {"approx": [summation.chi_sum(spec, op["n"])]}
    if kind == "chi_limit":
        return {"approx": [summation.chi_limit(spec, op["n"])]}
    if kind == "cesaro":
        return {"cesaro": summation.cesaro_mean(spec, op["n"])}
    if kind == "euler":
        return {"euler": summation.euler_transform(spec, op["n"])}
    if kind == "abel":
        return {"abel": summation.abel_estimate(spec, op["radii"], extrapolate=True)}
    raise ValueError(f"unknown operation kind {kind!r}")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, root: Path, stdin_bytes: bytes = b"") -> dict:
    """Run a child interpreter to completion and reap it with wait4, which
    also gives that child's own peak RSS.  Returns code, output, wall time
    and peak RSS in MB."""
    out_path = root / "bench" / ".work" / f"child-{os.getpid()}.out"
    err_path = out_path.with_suffix(".err")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=root, env=child_env(root),
            stdin=subprocess.PIPE, stdout=out, stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            try:
                proc.stdin.write(stdin_bytes)
                proc.stdin.close()
            except BrokenPipeError:
                pass
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "code": proc.returncode,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }
    out_path.unlink()
    err_path.unlink()
    return result


def parse_cli(op: dict, text: str) -> dict:
    """Turn the CLI's output for op into the in-process result shape."""
    command = op["command"]
    if command == "table":
        rows = list(csv.reader(io.StringIO(text)))
        data = rows[1:]
        approx = [float(v) for row in data[:-1] for v in row[1:]]
        return {"approx": approx, "gen_fn": [float(v) for v in data[-1][1:]]}
    doc = json.loads(text)
    res = doc.get("results", {})
    if command == "kappa":
        return {"kappa": res["kappa"]}
    if command == "weights":
        data = doc["rows"]["data"]
        return {"chi": [r[1] for r in data], "averaging": [r[2] for r in data]}
    if command == "error":
        return {"approx": [res["approximant"]], "predicted_error": res["predicted_error"]}
    out = {"approx": [r[1] for r in doc["rows"]["data"]], "value": res["value"],
           "accelerated": res.get("accelerated", False)}
    if doc.get("verdict") is not None:
        out["verdict"] = doc["verdict"]
    for method in ("cesaro", "euler", "abel"):
        if method in res:
            out[method] = res[method]
    return out


def run_cli_child(op: dict, root: Path, importtime: bool = False) -> tuple[dict, dict]:
    flags = ["-X", "importtime"] if importtime else []
    child = spawn([*flags, "-c", CLI_CODE, *op["argv"]], root)
    if child["code"] != 0:
        raise RuntimeError(f"exit {child['code']}: {child['stderr'].strip()[-300:]}")
    return parse_cli(op, child["stdout"]), child


def run_cli_inprocess(argv: list) -> tuple[str, float]:
    """chisum.cli.main in this process; returns output and seconds."""
    buf = io.StringIO()
    start = time.perf_counter()
    code = cli.main(argv, out=buf)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"chisum {' '.join(argv)} exited {code}")
    return buf.getvalue(), elapsed


def close(got, want) -> bool:
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    if not math.isfinite(got) or not math.isfinite(want):
        return got == want
    return abs(got - want) <= RTOL * abs(want) + ATOL


def check(op: dict, result: dict, want: dict) -> list:
    """Mismatches between result and the oracle's expectation; empty when
    the operation's output is correct."""
    problems = []
    for key, ref in want.items():
        got = result.get(key)
        if isinstance(ref, list):
            if not isinstance(got, list) or len(got) != len(ref):
                problems.append(f"{key}: expected {len(ref)} values, got {got!r:.200}")
                continue
            bad = [(i, g, r) for i, (g, r) in enumerate(zip(got, ref)) if not close(g, r)]
            if bad:
                i, g, r = bad[0]
                problems.append(f"{key}[{i}] = {g!r}, oracle {r!r} ({len(bad)} off)")
        elif not close(got, ref):
            problems.append(f"{key} = {got!r}, oracle {ref!r}")
    if "value" in result and want.get("approx"):
        ns = [n for _, n in op["requests"]]
        a = want["approx"]
        if result["accelerated"]:
            ref = (ns[-1] * a[-1] - ns[-2] * a[-2]) / (ns[-1] - ns[-2])
        else:
            ref = a[-1]
        if not close(result["value"], ref):
            problems.append(f"value = {result['value']!r}, oracle {ref!r}")
    if op.get("expect_verdict") and result.get("verdict") != op["expect_verdict"]:
        problems.append(f"verdict {result.get('verdict')!r}, expected {op['expect_verdict']!r}")
    return problems
