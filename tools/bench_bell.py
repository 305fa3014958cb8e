"""Before/after numbers for the Bell layer, written to BENCH_bell.json.

Usage (from the repository root):

    git archive <parent-commit> src | tar -x -C /tmp/parent
    python3 tools/bench_bell.py --parent-src /tmp/parent/src

The points are the benchmark's 12 settings-workload points and the nine
ROADMAP corners, r in {0, 2, 5} x l in {0.03, 1, 50}.  Each correlator
set is computed once, with this checkout's ``correlator_set``, and both
sides (``--parent-src`` and this checkout's ``src``) work on the same
values, each side in its own fresh interpreter.  Each side first computes
the set itself, which must equal this checkout's, and so warms the cache
that its queries read.

Recorded per point and side: the median wall time of one warm query,
the query the benchmark's ``settings`` workload times (a cached
``correlator_set`` lookup, ``chsh_from_correlators``,
``bit_bell_from_correlators`` and ``optimize_settings`` planar and with
``include_y``); and, for the planar and the ``include_y`` optimum, the
median wall time of one ``optimize_settings`` call, the value, and its
deviations from two references in ``perfbench/reference.py``:
the closed form 2 sqrt(t1**2 + t2**2) (t1, t2 the two largest singular
values of the correlation matrix) and the CHSH expression evaluated at
the returned settings.  The planar value also records its deviation
from ``acceptance._grid_search_chsh``, the grid search that acceptance
criterion 11 uses as its oracle.  ``change_vs_parent`` compares the two
sides' values and angles (mod 2 pi) next to the relative separation of
the two leading singular values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import points  # noqa: E402  (perfbench/points.py imports no boxspin)
import reference  # noqa: E402  (nor does perfbench/reference.py)
from bench_kernel import machine  # noqa: E402

PAIRS = ("zz", "xx", "yy", "zx", "xz")
DEADLINE_S = 900.0
# Timed calls per mode stop at MAX_RUNS or once MIN_RUNS calls took TIME_BUDGET_S.
MIN_RUNS = 3
MAX_RUNS = 1000
TIME_BUDGET_S = 0.5


def _timed(call) -> tuple[float, int, object]:
    seconds = []
    while len(seconds) < MAX_RUNS and (len(seconds) < MIN_RUNS or sum(seconds) < TIME_BUDGET_S):
        start = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), len(seconds), result


def worker(points: list[dict]) -> list[dict]:
    """Time every point in this interpreter; boxspin comes from PYTHONPATH."""
    from boxspin.bell import bit_bell_from_correlators, chsh_from_correlators, optimize_settings
    from boxspin.correlators import CorrelatorSet, correlator_set

    # A point's set names every c<pair> and c<pair>_err; a side's
    # CorrelatorSet takes those that are its fields.
    names = [f.name for f in dataclasses.fields(CorrelatorSet)]
    rows = []
    for point in points:
        r, l = point["r"], point["l"]
        corr = CorrelatorSet(**{name: point["set"][name] for name in names})
        if correlator_set(l, r) != corr:
            raise SystemExit(f"correlator_set({l}, {r}) differs from the one being scored")

        def query():
            cs = correlator_set(l, r)
            chsh_from_correlators(cs)
            bit_bell_from_correlators(cs)
            optimize_settings(cs)
            return optimize_settings(cs, include_y=True)

        seconds, runs, _ = _timed(query)
        row = {"query": {"seconds": seconds, "runs": runs}}
        for mode, include_y in (("planar", False), ("include_y", True)):
            seconds, runs, (settings, value) = _timed(
                lambda: optimize_settings(corr, include_y=include_y)
            )
            if not include_y:
                settings = settings.as_tuple()
            row[mode] = {"seconds": seconds, "runs": runs, "value": value,
                         "settings": settings}
        rows.append(row)
    return rows


def run_side(src: Path, points: list[dict]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, "--worker"], input=json.dumps(points),
                          env=env, capture_output=True, text=True, timeout=DEADLINE_S, check=True)
    return json.loads(done.stdout)


def score(side: dict, values: dict, grid: float) -> None:
    """Add each mode's deviations from the closed form and from its own settings."""
    for mode, include_y in (("planar", False), ("include_y", True)):
        entry = side[mode]
        at_settings = (reference.chsh_directions(values, entry["settings"]) if include_y
                       else reference.chsh_planar(values, entry["settings"]))
        entry["dev_closed_form"] = abs(entry["value"] - reference.chsh_max(values, planar=not include_y))
        entry["dev_at_settings"] = abs(entry["value"] - at_settings)
    side["planar"]["dev_grid_search"] = abs(side["planar"]["value"] - grid)


def _angle_gap(a: float, b: float) -> float:
    gap = (a - b) % (2.0 * math.pi)
    return min(gap, 2.0 * math.pi - gap)


def _flat(settings) -> list[float]:
    return [a for x in settings for a in (x if isinstance(x, list) else [x])]


def against_parent(row: dict, values: dict) -> dict:
    """Per mode: |change - parent| in value, the largest angle gap mod 2 pi, and
    the relative gap (t1 - t2) / t1 of the two leading singular values, below
    which the leading singular vectors, and so the settings, are not unique.
    The correlation matrix is diagonal, so t1 and t2 are its two largest
    |entries|: |czz| and |cxx|, and |cyy| with include_y."""
    out = {}
    for mode, diagonal in (("planar", ("zz", "xx")), ("include_y", ("zz", "xx", "yy"))):
        t1, t2 = sorted((abs(values[p]) for p in diagonal), reverse=True)[:2]
        parent, change = row["parent"][mode], row["change"][mode]
        out[mode] = {
            "value_dev": abs(change["value"] - parent["value"]),
            "max_angle_gap": max(map(_angle_gap, _flat(change["settings"]), _flat(parent["settings"]))),
            "leading_separation": (t1 - t2) / t1 if t1 else 0.0,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", type=Path, help="src/ directory of the parent checkout")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_bell.json")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(json.loads(sys.stdin.read()))))
        return 0
    if args.parent_src is None:
        parser.error("--parent-src is required")

    sys.path.insert(0, str(ROOT / "src"))
    from boxspin.acceptance import _grid_search_chsh
    from boxspin.correlators import correlator_set

    grid = [("settings", r, l) for r, l in points.settings_points()]
    grid += [("corner", r, l) for r, l in points.CORNERS]
    sets = [correlator_set(l, r) for _kind, r, l in grid]
    names = ["l", "r"] + [f"c{p}{suffix}" for suffix in ("", "_err") for p in PAIRS]
    inputs = [{"r": r, "l": l, "set": {name: getattr(cs, name) for name in names}}
              for (_kind, r, l), cs in zip(grid, sets)]
    sides = {side: run_side(src, inputs) for side, src in
             (("parent", args.parent_src.resolve()), ("change", ROOT / "src"))}

    rows = []
    for i, ((kind, r, l), cs) in enumerate(zip(grid, sets)):
        values = {p: getattr(cs, "c" + p) for p in PAIRS}
        row = {"set": kind, "r": r, "l": l, "correlators": values}
        oracle = _grid_search_chsh(cs)
        for side in ("parent", "change"):
            row[side] = sides[side][i]
            score(row[side], values, oracle)
        row["change_vs_parent"] = against_parent(row, values)
        row["speedup"] = {mode: row["parent"][mode]["seconds"] / row["change"][mode]["seconds"]
                          for mode in ("query", "planar", "include_y")}
        print(json.dumps({k: row[k] for k in ("set", "r", "l", "speedup")}), file=sys.stderr)
        rows.append(row)

    payload = {
        "layer": "bell",
        "what": "query: one warm settings-workload query (correlator_set cache hit, "
                "chsh_from_correlators, bit_bell_from_correlators, optimize_settings planar and "
                "include_y); planar, include_y: one optimize_settings(corr[, include_y=True]) on a "
                "precomputed correlator set; seconds are medians over repeated calls",
        "machine": machine(),
        "reference": "closed form 2 sqrt(t1^2 + t2^2); perfbench/reference.py at the returned "
                     "settings; acceptance._grid_search_chsh for planar",
        "points": rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
