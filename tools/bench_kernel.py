"""Before/after numbers for the correlator kernels: BENCH_correlator_set.json, BENCH_kernel.json.

Usage (from the repository root):

    git archive <parent-commit> src | tar -x -C /tmp/parent
    python3 tools/bench_kernel.py --parent-src /tmp/parent/src
    python3 tools/bench_kernel.py --parent-src /tmp/parent/src --scan

Without ``--scan`` (layer b, BENCH_correlator_set.json):

For every point of the benchmark's sweep grid and every ROADMAP corner,
r in {0, 2, 5} x l in {0.03, 1, 50}, each side (``--parent-src`` and
this checkout's ``src``) computes ``correlator_set(l, r)`` from an empty
piece cache.  It runs in a fresh interpreter per point, with a 2 GiB
address-space cap and a deadline, so a point whose grid exhausts memory
or time is recorded as failed instead of pressing on the machine.

Recorded per point and side: wall time (the median of 21 runs when the
first takes under 0.1 s, of three when it takes under 2 s, else the one
run), the kernel's evaluation count (erfc values for the erf lattice
plus exponentials for the theta series), and the largest deviation
from ``perfbench/reference.json``, together with whether every
deviation lies within the reported error plus the reference's own.
Points where the reference itself is known to be off carry a note.

With ``--scan`` (layer a, BENCH_kernel.json): the domain scan, 41
log-spaced box lengths in [0.03, 50] x SCAN_R x the pieces ``density``,
``step`` and ``site_x``, each evaluated alone by
``correlators._lattice_piece(name, l, state)`` from an empty cache (a
private function: a checkout from before its ``spec`` argument was
removed cannot be scanned).  Each of SCAN_RUNS runs per side is a
fresh interpreter; the sides alternate, and so does which one runs
first.  A run first records, per cell, the method (``series``,
``lattice``, or ``series_then_lattice`` where the series was summed and
then discarded), the series' terms and the lattice's u-panels, the
value and the bound, then times every cell SCAN_REPEATS times without
instrumentation, in an order shuffled per run (the same for both sides
of a run), and keeps each cell's median.  Recorded per cell and
side: the median over runs of those medians, with the quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import points  # noqa: E402  (perfbench/points.py imports no boxspin)

PAIRS = ("zz", "xx", "yy", "zx", "xz")
ADDRESS_SPACE_LIMIT = 2 * 1024**3
DEADLINE_S = 30.0
# (first run under this many seconds, runs whose median is recorded);
# a sub-millisecond point's cold runs spread up to 2x.
REPEATS = ((0.1, 21), (2.0, 3))

SCAN_L_RANGE = (0.03, 50.0, 41)
SCAN_R = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)
SCAN_PIECES = ("density", "step", "site_x")
# Fresh interpreters per side, and timed evaluations of every cell per
# run (the run records their median).
SCAN_RUNS = 8
SCAN_REPEATS = 7
SCAN_DEADLINE_S = 600.0


# perfbench/reference.py writes the step shift as (s - c)*l/(2c), which
# cancels as r grows; these are the points where that exceeds the
# reference's own error.
REFERENCE_NOTES = {
    (2.0, 7.5): "reference cxx and cyy carry the (s - c) step-shift cancellation: off by 5.4e-14",
    (5.0, 1.0): "reference cxx and cyy carry the (s - c) step-shift cancellation: off by 1.25e-12",
    (5.0, 50.0): "reference cxx and cyy carry the (s - c) step-shift cancellation: off by 2.85e-9",
}


def _count_evaluations(quadrature, counter):
    """Count the erf lattice's erfc values and the theta series' exponentials."""
    real_erfc = quadrature.erfc

    def counted_erfc(x, *args, **kwargs):
        counter[0] += int(getattr(x, "size", 1))
        return real_erfc(x, *args, **kwargs)

    quadrature.erfc = counted_erfc
    # The series is planned for every piece and summed where it wins.
    real_integrate = quadrature.PoissonSeries.integrate

    def counted_integrate(series, which=None):
        terms = series.terms
        counter[0] += sum(terms if which is None else (terms[i] for i in which))
        return real_integrate(series, which)

    quadrature.PoissonSeries.integrate = counted_integrate
    return "erfc values (u-node x v-edge) + theta-series exponentials"


def worker(r: float, l: float) -> dict:
    """One point in this interpreter; boxspin comes from PYTHONPATH."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    import boxspin.correlators as correlators
    import boxspin.quadrature as quadrature

    counter = [0]
    counted = _count_evaluations(quadrature, counter)
    seconds = []
    try:
        while True:
            correlators.clear_cache()
            start = time.perf_counter()
            cs = correlators.correlator_set(l, r)
            seconds.append(time.perf_counter() - start)
            if len(seconds) == 1:
                evaluations = counter[0]
                runs = next((n for below, n in REPEATS if seconds[0] < below), 1)
            if len(seconds) == runs:
                break
    except MemoryError:
        return {"ok": False, "failure": "MemoryError"}
    return {
        "ok": True,
        "seconds": statistics.median(seconds),
        "runs": len(seconds),
        "evaluations": evaluations,
        "evaluations_counted": counted,
        "values": {p: getattr(cs, "c" + p) for p in PAIRS},
        "errors": {p: getattr(cs, "c" + p + "_err") for p in PAIRS},
    }


def scan_cells() -> list[tuple[float, float, str]]:
    import numpy as np

    ls = [float(l) for l in np.geomspace(*SCAN_L_RANGE)]
    return [(r, l, name) for r in SCAN_R for l in ls for name in SCAN_PIECES]


def scan_worker(seed: int) -> dict:
    """The domain scan in this interpreter; boxspin comes from PYTHONPATH.

    The timing passes visit the cells in an order shuffled by ``seed``,
    so a cell's time does not depend on where the scan puts it.
    """
    import random

    import boxspin.correlators as correlators
    import boxspin.quadrature as quadrature
    from boxspin.gaussian_state import SqueezeState

    cells = scan_cells()
    states = {r: SqueezeState(r) for r in SCAN_R}
    calls = []
    real_integrate = quadrature.PoissonSeries.integrate
    real_lattice = correlators.integrate_gaussian_lattice

    def counted_integrate(series, which=None):
        # One box length per call here: _lattice_piece plans each piece alone.
        calls.append(("series", sum(series.terms)))
        return real_integrate(series, which)

    def counted_lattice(*args):
        result = real_lattice(*args)
        calls.append(("lattice", result.panels_used))
        return result

    quadrature.PoissonSeries.integrate = counted_integrate
    correlators.integrate_gaussian_lattice = counted_lattice
    records = []
    for r, l, name in cells:
        correlators.clear_cache()
        calls.clear()
        result = correlators._lattice_piece(name, l, states[r])
        used = dict(calls)
        method = "series_then_lattice" if len(used) == 2 else calls[0][0]
        records.append({"method": method, "terms": used.get("series"), "panels": used.get("lattice"),
                        "value": result.value, "bound": result.error_estimate})
    quadrature.PoissonSeries.integrate = real_integrate
    correlators.integrate_gaussian_lattice = real_lattice

    seconds = [[] for _ in cells]
    order = list(range(len(cells)))
    random.Random(seed).shuffle(order)
    for _ in range(SCAN_REPEATS):
        for k in order:
            r, l, name = cells[k]
            correlators.clear_cache()
            start = time.perf_counter()
            correlators._lattice_piece(name, l, states[r])
            seconds[k].append(time.perf_counter() - start)
    for record, times in zip(records, seconds):
        record["ms"] = 1e3 * statistics.median(times)
    return {"cells": records}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_scan(parent_src: Path, out: Path) -> None:
    srcs = {"parent": parent_src.resolve(), "change": ROOT / "src"}
    results = {side: [] for side in srcs}
    for i in range(SCAN_RUNS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            env = dict(os.environ, PYTHONPATH=str(srcs[side]))
            cmd = [sys.executable, __file__, "--scan-worker", str(i)]
            done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=SCAN_DEADLINE_S, check=True)
            results[side].append(json.loads(done.stdout.strip().splitlines()[-1])["cells"])
            total = sum(c["ms"] for c in results[side][-1])
            print(f"run {i + 1}/{SCAN_RUNS} {side}: {total:.1f} ms over the scan", file=sys.stderr)

    rows = []
    totals = {side: {} for side in srcs}
    for k, (r, l, name) in enumerate(scan_cells()):
        row = {"r": r, "l": l, "piece": name}
        for side in srcs:
            first = results[side][0][k]
            computed = {f: v for f, v in first.items() if f != "ms"}
            if any({f: run[k][f] for f in computed} != computed for run in results[side][1:]):
                raise SystemExit(f"{side} runs disagree on what ({r}, {l}, {name}) computed")
            q1, ms, q3 = _quartiles([run[k]["ms"] for run in results[side]])
            row[side] = dict(first, ms=ms, ms_q1=q1, ms_q3=q3)
            totals[side][first["method"]] = totals[side].get(first["method"], 0.0) + ms
        parent, change = row["parent"], row["change"]
        row["evaluator_changed"] = parent["method"] != change["method"]
        row["value_identical"] = parent["value"] == change["value"]
        row["within_summed_bounds"] = (
            abs(parent["value"] - change["value"]) <= parent["bound"] + change["bound"]
        )
        spread = max(parent["ms_q3"] - parent["ms_q1"], change["ms_q3"] - change["ms_q1"])
        row["slower_beyond_spread"] = change["ms"] - parent["ms"] > spread
        rows.append(row)

    def lattice_seconds(side):
        t = totals[side]
        return 1e-3 * (t.get("lattice", 0.0) + t.get("series_then_lattice", 0.0))

    payload = {
        "layer": "kernel",
        "what": "one piece by correlators._lattice_piece from an empty cache, over "
                "the domain scan; ms are medians over runs of each run's median of "
                f"{SCAN_REPEATS} evaluations",
        "machine": machine(),
        "runs_per_side": SCAN_RUNS,
        "scan": {"l": "numpy.geomspace(%g, %g, %d)" % SCAN_L_RANGE, "r": SCAN_R,
                 "pieces": SCAN_PIECES},
        "summary": {
            side: {
                "cells_by_method": {m: sum(row[side]["method"] == m for row in rows)
                                    for m in ("series", "lattice", "series_then_lattice")},
                "ms_by_method": totals[side],
                "lattice_and_discarded_series_s": lattice_seconds(side),
                "total_s": 1e-3 * sum(totals[side].values()),
            }
            for side in srcs
        },
        "values_differ": sum(not row["value_identical"] for row in rows),
        "values_differ_where_evaluator_kept": sum(
            not row["value_identical"] and not row["evaluator_changed"] for row in rows),
        "evaluator_changed": [
            {"r": row["r"], "l": row["l"], "piece": row["piece"],
             "parent": [row["parent"]["method"], row["parent"]["value"], row["parent"]["bound"]],
             "change": [row["change"]["method"], row["change"]["value"], row["change"]["bound"]],
             "within_summed_bounds": row["within_summed_bounds"]}
            for row in rows if row["evaluator_changed"]
        ],
        "slower_beyond_spread_rule": "change median - parent median > the larger of the two "
                                     "sides' interquartile ranges",
        "slower_beyond_spread": [
            {"r": row["r"], "l": row["l"], "piece": row["piece"],
             "parent_ms": [row["parent"]["ms_q1"], row["parent"]["ms"], row["parent"]["ms_q3"]],
             "change_ms": [row["change"]["ms_q1"], row["change"]["ms"], row["change"]["ms_q3"]]}
            for row in rows if row["slower_beyond_spread"]
        ],
        "cells": rows,
    }
    # One line per cell keeps the file readable and diffable: the header
    # is indented JSON without its closing brace, then the cells.
    head = json.dumps({k: v for k, v in payload.items() if k != "cells"}, indent=2)
    cells = ",\n".join("    " + json.dumps(row) for row in rows)
    out.write_text(head.removesuffix("\n}") + ',\n  "cells": [\n' + cells + "\n  ]\n}\n")


def run_side(src: Path, r: float, l: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, __file__, "--worker", repr(r), repr(l)]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "failure": f"deadline {DEADLINE_S:g} s"}
    if done.returncode != 0:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"ok": False, "failure": last[:200]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def reference_table() -> dict:
    data = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    return {(row["r"], row["l"]): row for row in data["points"]}


def score(side: dict, ref: dict) -> None:
    """Add the largest deviation from the reference and whether errors cover it."""
    if not side["ok"]:
        return
    devs = {p: abs(side["values"][p] - ref["values"][p]) for p in PAIRS}
    side["max_abs_dev"] = max(devs.values())
    side["err_covers_dev"] = all(
        devs[p] <= side["errors"][p] + ref["errors"][p] for p in PAIRS
    )


def machine() -> dict:
    import numpy
    import scipy

    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", type=Path, help="src/ directory of the parent checkout")
    parser.add_argument("--scan", action="store_true",
                        help="run the domain scan (layer a) instead of the correlator_set points")
    parser.add_argument("--out", type=Path,
                        help="output file (default BENCH_kernel.json with --scan, "
                             "else BENCH_correlator_set.json)")
    parser.add_argument("--worker", nargs=2, type=float, metavar=("R", "L"), help=argparse.SUPPRESS)
    parser.add_argument("--scan-worker", type=int, metavar="SEED", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(*args.worker)))
        return 0
    if args.scan_worker is not None:
        print(json.dumps(scan_worker(args.scan_worker)))
        return 0
    if args.parent_src is None:
        parser.error("--parent-src is required")
    if args.scan:
        run_scan(args.parent_src, args.out or ROOT / "BENCH_kernel.json")
        return 0
    args.out = args.out or ROOT / "BENCH_correlator_set.json"

    table = reference_table()
    grid = [("sweep", r, l) for r, l in points.all_sweep_points()]
    grid += [("corner", r, l) for r, l in points.CORNERS]
    rows = []
    for kind, r, l in grid:
        row = {"set": kind, "r": r, "l": l}
        for (r_note, l_note), note in REFERENCE_NOTES.items():
            if r == r_note and abs(l - l_note) <= 1e-12 * l_note:
                row["note"] = note
        for side, src in (("parent", args.parent_src.resolve()), ("change", ROOT / "src")):
            row[side] = run_side(src, r, l)
            score(row[side], table[(r, l)])
            row[side].pop("values", None)
            row[side].pop("errors", None)
        if row["parent"]["ok"] and row["change"]["ok"]:
            row["speedup"] = row["parent"]["seconds"] / row["change"]["seconds"]
        print(json.dumps(row), file=sys.stderr)
        rows.append(row)

    payload = {
        "layer": "correlator_set",
        "what": "one correlator_set(l, r) from an empty piece cache",
        "machine": machine(),
        "deadline_s": DEADLINE_S,
        "address_space_limit_gib": ADDRESS_SPACE_LIMIT / 1024**3,
        "reference": "perfbench/reference.json",
        "points": rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
