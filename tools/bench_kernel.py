"""Before/after numbers for one ``correlator_set`` call, written to BENCH_correlator_set.json.

Usage (from the repository root):

    git archive <parent-commit> src | tar -x -C /tmp/parent
    python3 tools/bench_kernel.py --parent-src /tmp/parent/src

For every point of the benchmark's sweep grid and every ROADMAP corner,
r in {0, 2, 5} x l in {0.03, 1, 50}, each side (``--parent-src`` and
this checkout's ``src``) computes ``correlator_set(l, r)`` from an empty
piece cache.  It runs in a fresh interpreter per point, with a 2 GiB
address-space cap and a deadline, so a point whose grid exhausts memory
or time is recorded as failed instead of pressing on the machine.

Recorded per point and side: wall time (the median of 21 runs when the
first takes under 0.1 s, of three when it takes under 2 s, else the one
run), the kernel's evaluation count (2-D integrand values for the
tensor-grid kernel, erfc values for the erf kernel, plus exponentials
for the theta series), and the largest deviation from
``perfbench/reference.json``, together with whether every deviation
lies within the reported error plus the reference's own.  Points where
the reference itself is known to be off carry a note.
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


# perfbench/reference.py writes the step shift as (s - c)*l/(2c), which
# cancels as r grows; these are the points where that exceeds the
# reference's own error.
REFERENCE_NOTES = {
    (2.0, 7.5): "reference cxx and cyy carry the (s - c) step-shift cancellation: off by 5.4e-14",
    (5.0, 1.0): "reference cxx and cyy carry the (s - c) step-shift cancellation: off by 1.25e-12",
    (5.0, 50.0): "reference cxx and cyy carry the (s - c) step-shift cancellation: off by 2.85e-9",
}


def _count_evaluations(correlators, quadrature, counter):
    """Wrap whichever kernels this checkout has so their evaluations are counted."""
    if hasattr(quadrature, "integrate_gaussian_lattice"):
        real_erfc = quadrature.erfc

        def counted_erfc(x, *args, **kwargs):
            counter[0] += int(getattr(x, "size", 1))
            return real_erfc(x, *args, **kwargs)

        quadrature.erfc = counted_erfc
        counted = "erfc values (u-node x v-edge) + theta-series exponentials"
        if hasattr(quadrature, "PoissonSeries"):
            # The series is planned for every piece and summed where it wins.
            real_integrate = quadrature.PoissonSeries.integrate

            def counted_integrate(series):
                counter[0] += series.terms
                return real_integrate(series)

            quadrature.PoissonSeries.integrate = counted_integrate
            return counted
        if not hasattr(correlators, "integrate_gaussian_poisson"):
            return "erfc values (u-node x v-edge)"
        real_series = correlators.integrate_gaussian_poisson

        def counted_series(*args):
            counter[0] += quadrature.gaussian_poisson_terms(*args)
            return real_series(*args)

        correlators.integrate_gaussian_poisson = counted_series
        return counted

    import numpy as np

    real_lattice = correlators.integrate_lattice_signed

    def counted_lattice(f, *args, **kwargs):
        def counted_f(u, v):
            counter[0] += int(np.broadcast(u, v).size)
            return f(u, v)

        return real_lattice(counted_f, *args, **kwargs)

    correlators.integrate_lattice_signed = counted_lattice
    return "2-D integrand values"


def worker(r: float, l: float) -> dict:
    """One point in this interpreter; boxspin comes from PYTHONPATH."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    import boxspin.correlators as correlators
    import boxspin.quadrature as quadrature

    counter = [0]
    counted = _count_evaluations(correlators, quadrature, counter)
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
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_correlator_set.json")
    parser.add_argument("--worker", nargs=2, type=float, metavar=("R", "L"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(*args.worker)))
        return 0
    if args.parent_src is None:
        parser.error("--parent-src is required")

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
        "what": "one correlator_set(l, r) from an empty piece cache, default spec",
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
