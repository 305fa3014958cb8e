"""Before/after numbers for the Bell layer's ``optimize_settings``, written to BENCH_bell.json.

Usage (from the repository root):

    git archive <parent-commit> src | tar -x -C /tmp/parent
    python3 tools/bench_bell.py --parent-src /tmp/parent/src

The points are the benchmark's 12 settings-workload points and the nine
ROADMAP corners, r in {0, 2, 5} x l in {0.03, 1, 50}.  Each correlator
set is computed once, with this checkout's ``correlator_set``, and both
sides (``--parent-src`` and this checkout's ``src``) optimize the same
values, each side in its own fresh interpreter.

Recorded per point and side, for the planar and the ``include_y``
optimum: the median wall time of one ``optimize_settings`` call, the
value, and its deviations from two references in ``perfbench/reference.py``:
the closed form 2 sqrt(t1**2 + t2**2) (t1, t2 the two largest singular
values of the correlation matrix) and the CHSH expression evaluated at
the returned settings.  The planar value also records its deviation
from ``acceptance._grid_search_chsh``, the grid search that acceptance
criterion 11 uses as its oracle.
"""

from __future__ import annotations

import argparse
import json
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


def worker(sets: list[dict]) -> list[dict]:
    """Optimize every set in this interpreter; boxspin comes from PYTHONPATH."""
    from boxspin.bell import optimize_settings
    from boxspin.correlators import CorrelatorSet

    rows = []
    for entry in sets:
        corr = CorrelatorSet(**entry)
        row = {}
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


def run_side(src: Path, sets: list[dict]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, "--worker"], input=json.dumps(sets),
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
    inputs = [{name: getattr(cs, name) for name in cs.__dataclass_fields__} for cs in sets]
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
        row["speedup"] = {mode: row["parent"][mode]["seconds"] / row["change"][mode]["seconds"]
                          for mode in ("planar", "include_y")}
        print(json.dumps({k: row[k] for k in ("set", "r", "l", "speedup")}), file=sys.stderr)
        rows.append(row)

    payload = {
        "layer": "bell",
        "what": "one optimize_settings(corr) and one optimize_settings(corr, include_y=True) "
                "on a precomputed correlator set; seconds are medians over repeated calls",
        "machine": machine(),
        "reference": "closed form 2 sqrt(t1^2 + t2^2); perfbench/reference.py at the returned "
                     "settings; acceptance._grid_search_chsh for planar",
        "points": rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
