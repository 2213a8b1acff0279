"""Seeded input generator for the benchmark's workloads.

``build(workload, seed, workdir)`` returns a list of operations, each a
JSON-serialisable dict that names what to call and with which inputs.
The same seed always gives the same list.  Each workload repeats a fixed
cycle of operation kinds and draws the parameters inside a kind from a
seeded low-discrepancy sequence, so two seeds give different inputs with
the same mix and nearly the same spread of sizes; that keeps run-to-run
medians steady without fixing the inputs.

Operation fields:

- ``kind``: ``cli`` (an argv for the chisum CLI, run in a fresh
  interpreter) or an in-process call: ``sweep``, ``chi_sum``,
  ``chi_limit``, ``cesaro``, ``euler``, ``abel``, ``bernoulli``,
  ``rate_fit``.
- ``series``: a series descriptor, ``{"name": ..., "x": ...}``; custom
  series carry their JSON document in ``doc`` and its file in ``file``;
  ``combine`` carries ``parts`` and ``coefficients``.
- ``requests``: the chi approximants ``[series, n]`` the operation asks
  for.  They are what the oracle evaluates, what ``terms`` counts
  (``n + 1`` each) and what the double-precision probe re-evaluates.
- ``known_defect``: set on inputs for which the library at the time the
  benchmark was written returns a wrong answer; they stay in the mix and
  count as failed operations while the defect lasts.

Run as a script (``python3 bench/workloads.py WORKLOAD SEED``) it imports
``chisum.cli`` and builds the inputs in a fresh interpreter; the runner
times that to get ``setup_s``.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import sys
from pathlib import Path

NAMES = ("cli", "boundary", "regular")

KAPPA_X = -3.55  # most negative in-region x drawn (kappa is about 3.5911)

# Seed-independent inputs that the library answered wrongly when the
# benchmark was defined; kept in the mix on purpose.
DEFECT_CUSTOM_DOC = {"coefficients": [1.0] * 600, "x": -2.0}
DEFECT_CUSTOM_REASON = (
    "custom series carry no extended-precision terms, so the cancelling "
    "double sum is returned unchecked (n=300 gives 1.13e9, oracle 0.3328)"
)
DEFECT_ERROR_REASON = (
    "the error command uses the double-only chi_sum and prints -3.48e78 "
    "where the approximant is 0.22198"
)
DEFECT_EULER_REASON = (
    "euler_transform's forward differences grow like 2^j and overflow, so "
    "from n of about 1080 it returns nan on alt_log and alt_harmonic_numbers"
)

# Sweep costs cluster by grid: about 20 ms up to n=400 and about 1 s up to
# n=2000, where every drawn x overflows double range and escalates.  (At
# n=1000 the cost would split on |x| ~ 2 instead.)  With the short grid
# twice as often, the median latency falls inside the short cluster and
# the 90th percentile inside the long one, not in a gap between clusters
# where a few operations more or less would move them.
BOUNDARY_GRIDS = ((100, 200, 400), (100, 200, 400), (250, 500, 1000, 2000))
CLI_SUM_GRID = (25, 50, 100, 200, 400)
ABEL_RADII = (0.9, 0.99, 0.999)  # the CLI's default radii
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
EULER_GAMMA = 0.5772156649015329

# A run goes through its list in whole passes.  At the declared run length
# these lists take about one pass (cli, boundary) or three (regular) on the
# 2-CPU host the benchmark was written on, and the oracle stays under a
# few seconds.  Each is a whole number of its workload's cycles.
OPS_PER_WORKLOAD = {"cli": 72, "boundary": 150, "regular": 300}


class _Draw:
    """Per-key Weyl sequences with seeded offsets: draw(key, lo, hi)
    returns the next point of key's sequence scaled to [lo, hi).  Every
    draw of a key must feed the same kind of operation: a strided
    subsequence of a Weyl sequence is not evenly spread."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._state: dict[str, list[float]] = {}

    def __call__(self, key: str, lo: float, hi: float) -> float:
        st = self._state.setdefault(key, [self._rng.random(), 0])
        u = (st[0] + st[1] * GOLDEN) % 1.0
        st[1] += 1
        return lo + (hi - lo) * u

    def integer(self, key: str, lo: int, hi: int) -> int:
        return int(self(key, lo, hi + 1))


def _geometric(x: float) -> dict:
    return {"name": "geometric", "x": x}


def _custom(doc: dict, name: str, workdir: Path, files: dict) -> dict:
    path = workdir / f"{name}.json"
    files[path] = json.dumps(doc)
    return {"name": "custom", "doc": doc, "file": str(path)}


def _sweep(series: dict, grid, **extra) -> dict:
    op = {"kind": "sweep", "series": series, "grid": list(grid)}
    op["requests"] = [[series, n] for n in grid]
    op.update(extra)
    return op


def _call(kind: str, series: dict, n: int) -> dict:
    requests = [[series, n]] if kind in ("chi_sum", "chi_limit") else []
    return {"kind": kind, "series": series, "n": n, "requests": requests}


def _cli(argv: list, fmt: str = "json", **fields) -> dict:
    op = {"kind": "cli", "argv": ["--format", fmt] + argv, "requests": []}
    op.update(fields)
    return op


def _boundary(draw: _Draw, i: int, workdir: Path, files: dict) -> dict:
    grid = BOUNDARY_GRIDS[i % 3]
    slot, top = i % 5, grid[-1]
    if slot in (0, 2):
        return _sweep(_geometric(round(draw(f"geo{top}", KAPPA_X, -1.5), 6)), grid)
    if slot == 1:
        x = round(draw(f"log1p{top}", 1.0, -KAPPA_X), 6)
        return _sweep({"name": "log1p_taylor", "x": x}, grid)
    if slot == 3:
        x = round(draw(f"out{top}", -4.0, -3.7), 6)
        return _sweep(_geometric(x), grid, expect_verdict="diverging")
    series = _custom(DEFECT_CUSTOM_DOC, "defect_custom", workdir, files)
    return _sweep(series, grid, known_defect=DEFECT_CUSTOM_REASON)


def _regular(draw: _Draw, i: int, workdir: Path, files: dict) -> dict:
    slot, turn = i % 10, i // 10
    if slot in (2, 6, 9):
        # Distinct large orders, many more than chi_row's 64-entry cache.
        n = draw.integer("big_n", 20_000, 100_000)
        return _call("chi_sum", _geometric(round(draw("gx", -0.95, 0.95), 6)), n)
    if slot == 0:
        return _call("chi_sum", {"name": "alt_harmonic_numbers"},
                     draw.integer("ahn", 200, 1500))
    if slot == 1:
        return _call("chi_limit", {"name": "alt_log"}, draw.integer("alog", 200, 2000))
    if slot == 3 and turn % 2 == 0:
        series = [{"name": "grandi"}, {"name": "alt_log"},
                  _geometric(round(draw("cx", -0.9, 0.9), 6))][turn // 2 % 3]
        return _call("cesaro", series, draw.integer(f"ces{series['name']}", 200, 2000))
    if slot == 3:
        # Not alt_harmonic_numbers: its O(k) term makes the Abel inner
        # series O(k^2), about 90 s at r = 0.999.
        series = [{"name": "grandi"}, {"name": "alt_log"},
                  _geometric(round(draw("ax", -0.9, -0.1), 6))][turn // 2 % 3]
        return {"kind": "abel", "series": series, "radii": list(ABEL_RADII),
                "requests": []}
    if slot == 4:
        names = ("alt_harmonic_numbers", "alt_log", "grandi")
        series = {"name": "combine", "parts": [{"name": m} for m in names],
                  "coefficients": [1.0, -1.0, -EULER_GAMMA]}
        return _call("chi_sum", series, draw.integer("comb", 100, 1500))
    if slot == 5:
        # Each non-constant series alternates between orders that the
        # library gets right (up to 1024) and orders where it returns nan
        # (from about 1080 on), so every seed has the same number of euler
        # defects.
        series = [{"name": "grandi"}, {"name": "alt_log"},
                  {"name": "alt_harmonic_numbers"}][turn % 3]
        name = series["name"]
        if name == "grandi":
            return _call("euler", series, draw.integer("eulgrandi", 200, 2000))
        if turn // 3 % 2:
            op = _call("euler", series, draw.integer(f"eulhi{name}", 1100, 2000))
            op["known_defect"] = DEFECT_EULER_REASON
            return op
        return _call("euler", series, draw.integer(f"eullo{name}", 200, 1024))
    if slot == 8:
        kind = ("chi_sum", "chi_limit")[turn % 2]
        return _call(kind, {"name": "grandi"}, draw.integer(f"gr{kind}", 200, 2000))
    if turn % 2 == 0:  # slot 7
        ns = sorted({draw.integer("bn", 5, 60) for _ in range(3)})
        xs = [round(draw("bx", -1.0, 1.0), 6) for _ in range(3)]
        return {
            "kind": "bernoulli", "ns": ns, "xs": xs,
            "requests": [[{"name": "bernoulli_power", "x": x}, n]
                         for n in ns for x in xs],
        }
    # A noisy power law C / n^p, as an error sweep would give.
    grid = [50, 100, 200, 400, 800]
    c, p = draw("rc", 0.1, 10.0), draw("rp", 0.5, 2.0)
    errors = [c / n**p * (1.0 + 0.05 * (draw("rn", 0.0, 1.0) - 0.5)) for n in grid]
    return {"kind": "rate_fit", "grid": grid, "errors": errors, "requests": []}


def _cli_op(draw: _Draw, i: int, workdir: Path, files: dict) -> dict:
    slot = i % 9
    if slot == 0:
        tol = (1e-10, 1e-12, 1e-14)[i // 9 % 3]
        return _cli(["--tol", repr(tol), "kappa"], command="kappa")
    if slot == 1:
        n = draw.integer("wn", 10, 200)
        return _cli(["weights", "--n", str(n)], command="weights", n=n)
    if slot == 2:
        ns, xs = (20, 25, 30), (-1.0, -0.7, -0.2, 0.0, 0.2, 0.7, 1.0)
        return _cli(["table"], fmt="csv", command="table", ns=list(ns), xs=list(xs),
                    requests=[[{"name": "bernoulli_power", "x": x}, n]
                              for n in ns for x in xs])
    if slot == 3:
        series = _geometric(round(draw("geo", KAPPA_X, -1.5), 6))
        grid = ",".join(map(str, CLI_SUM_GRID))
        return _cli(["sum", "--series", "geometric", f"--x={series['x']!r}",
                     "--n-grid", grid, "--accelerate"], command="sum",
                    series=series, requests=[[series, n] for n in CLI_SUM_GRID])
    if slot == 4:
        n = draw.integer("cmp", 50, 400)
        series = {"name": "grandi"}
        return _cli(["compare", "--series", "grandi", "--n", str(n)],
                    command="sum", series=series, n=n, radii=list(ABEL_RADII),
                    requests=[[series, n]])
    if slot == 5:
        series = {"name": "log1p_taylor", "x": round(draw("ex", 0.2, 2.5), 6)}
        n = draw.integer("en", 20, 60)
        return _cli(["error", "--series", "log1p_taylor", f"--x={series['x']!r}",
                     "--n", str(n)], command="error", series=series, n=n,
                    requests=[[series, n]])
    if slot == 6:
        series = _geometric(-3.5)
        return _cli(["error", "--series", "geometric", "--x=-3.5", "--n", "400"],
                    command="error", series=series, n=400,
                    requests=[[series, 400]], known_defect=DEFECT_ERROR_REASON)
    if slot == 7:
        k = draw.integer("cl", 10, 50)
        rng = random.Random(draw("cc", 0.0, 1.0))
        doc = {"coefficients": [round(rng.uniform(-1.0, 1.0), 6) for _ in range(k)],
               "x": round(draw("cxx", -0.9, 0.9), 6)}
        series = _custom(doc, f"custom_{i}", workdir, files)
        n = draw.integer("cn", 20, 200)
        return _cli(["sum", "--series", "custom", "--file", series["file"],
                     "--n", str(n)], command="sum", series=series,
                    requests=[[series, n]])
    series = _custom(DEFECT_CUSTOM_DOC, "defect_custom", workdir, files)
    return _cli(["sum", "--series", "custom", "--file", series["file"], "--n", "300"],
                command="sum", series=series, requests=[[series, 300]],
                known_defect=DEFECT_CUSTOM_REASON)


_MAKERS = {"cli": _cli_op, "boundary": _boundary, "regular": _regular}


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The workload's operation list for this seed; custom-series files
    are written under workdir (relative to the repository root)."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; known: {NAMES}")
    draw = _Draw(random.Random(f"{workload}:{seed}"))
    files: dict[Path, str] = {}
    ops = [_MAKERS[workload](draw, i, workdir, files)
           for i in range(OPS_PER_WORKLOAD[workload])]
    workdir.mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        path.write_text(text)
    return ops


def terms(op: dict) -> int:
    """Weighted terms the operation requests: n + 1 per approximant."""
    return sum(n + 1 for _, n in op["requests"])


def cli_argv(op: dict):
    """The chisum CLI call that does the same work as op, or None."""
    kind = op["kind"]
    if kind == "cli":
        return op["argv"]
    if kind == "bernoulli":
        return ["--format", "json", "table", "--n-list=" + ",".join(map(str, op["ns"])),
                "--x-list=" + ",".join(map(repr, op["xs"]))]
    series = op.get("series")
    if series is None or series["name"] == "combine":
        return None
    args = ["--series", series["name"]]
    if series["name"] == "custom":
        args += ["--file", series["file"]]
    elif "x" in series:
        args.append(f"--x={series['x']!r}")
    if kind == "sweep":
        return ["--format", "json", "sum", *args,
                "--n-grid", ",".join(map(str, op["grid"])), "--accelerate"]
    if kind in ("chi_sum", "chi_limit"):
        return ["--format", "json", "sum", *args, "--n", str(op["n"])]
    if kind in ("cesaro", "euler"):
        return ["--format", "json", "sum", *args, "--n", str(op["n"]),
                "--compare", kind]
    return None


if __name__ == "__main__":
    import os

    import chisum.cli  # noqa: F401  (set-up cost a CLI user pays)

    work = Path(__file__).resolve().parent / ".work" / f"setup-{os.getpid()}"
    try:
        build(sys.argv[1], int(sys.argv[2]), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
