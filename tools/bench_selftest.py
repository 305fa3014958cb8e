"""Before/after numbers for the acceptance battery, written to BENCH_selftest.json.

Usage (from the repository root):

    git archive <parent-commit> src | tar -x -C /tmp/parent
    python3 tools/bench_selftest.py --parent-src /tmp/parent/src

The criteria are the benchmark's selftest set (1, 2 and 7-12, from
``perfbench/points.py``).  Each run is a fresh interpreter on one side
(``--parent-src`` or this checkout's ``src``); the sides alternate, and
so does which one runs first.  A run imports the battery, then makes
PASSES passes over the criteria in battery order, each pass from an
empty piece cache, as the benchmark's selftest workload does.

Recorded per side and criterion: the median seconds over every pass of
every run, and the process's ``ru_maxrss`` right after the criterion
in each pass (one median over runs per pass).  ``ru_maxrss`` is a
high-water mark, so a criterion's stamp minus the one before it is the
memory it added on top of everything before it; a later pass can set
the peak because the first pass leaves the process larger than it found
it.  Also recorded: the stamp after the import, the peak after the last
pass, and every failed criterion.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import points  # noqa: E402  (perfbench/points.py imports no boxspin)
from bench_kernel import machine  # noqa: E402

DEADLINE_S = 600.0
PASSES = 3


def worker() -> dict:
    """One run in this interpreter; boxspin comes from PYTHONPATH."""
    import resource

    def rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import boxspin.acceptance as acceptance
    import boxspin.correlators as correlators

    after_import = rss_mb()
    seconds = {cid: [] for cid in points.SELFTEST_CRITERIA}
    stamps = {cid: [] for cid in points.SELFTEST_CRITERIA}
    failed = []
    for i in range(PASSES):
        correlators.clear_cache()
        for cid in points.SELFTEST_CRITERIA:
            result = acceptance.run_criterion(cid)
            seconds[cid].append(result.seconds)
            stamps[cid].append(rss_mb())
            if not result.passed:
                failed.append({"criterion": cid, "pass": i, "detail": result.detail})
    return {"import_rss_mb": after_import, "seconds": seconds, "rss_after_mb": stamps,
            "peak_rss_mb": rss_mb(), "failed": failed}


def run_side(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, __file__, "--worker"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=DEADLINE_S,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    """Medians over runs (stamps, per pass) and over all passes (seconds)."""
    criteria = {}
    for cid in points.SELFTEST_CRITERIA:
        key = str(cid)
        criteria[key] = {
            "seconds": statistics.median(s for run in runs for s in run["seconds"][key]),
            "rss_after_mb": [statistics.median(run["rss_after_mb"][key][i] for run in runs)
                             for i in range(PASSES)],
        }
    return {
        "runs": len(runs),
        "import_rss_mb": statistics.median(run["import_rss_mb"] for run in runs),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "peak_rss_mb_range": [min(run["peak_rss_mb"] for run in runs),
                              max(run["peak_rss_mb"] for run in runs)],
        "battery_seconds": statistics.median(
            sum(run["seconds"][str(cid)][i] for cid in points.SELFTEST_CRITERIA)
            for run in runs for i in range(PASSES)
        ),
        "criteria": criteria,
        "failed": [f for run in runs for f in run["failed"]],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", type=Path, help="src/ directory of the parent checkout")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_selftest.json")
    parser.add_argument("--runs", type=int, default=6, help="fresh interpreters per side")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker()))
        return 0
    if args.parent_src is None:
        parser.error("--parent-src is required")

    sides = {"parent": args.parent_src.resolve(), "change": ROOT / "src"}
    runs = {side: [] for side in sides}
    for i in range(args.runs):
        # Which side goes first alternates too.
        for side, src in list(sides.items())[:: 1 if i % 2 == 0 else -1]:
            runs[side].append(run_side(src))
            print(f"run {i + 1}/{args.runs} {side}: peak "
                  f"{runs[side][-1]['peak_rss_mb']:.1f} MB", file=sys.stderr)

    summary = {side: summarize(side_runs) for side, side_runs in runs.items()}
    ratios = {
        "peak_rss_mb": summary["change"]["peak_rss_mb"] / summary["parent"]["peak_rss_mb"],
        "battery_seconds": summary["change"]["battery_seconds"]
        / summary["parent"]["battery_seconds"],
    }
    payload = {
        "layer": "selftest",
        "what": "acceptance criteria 1, 2 and 7-12 in battery order, each pass from an empty "
                "piece cache; seconds are medians over all passes, rss_after_mb lists ru_maxrss "
                "after the criterion in each pass (median over runs)",
        "machine": machine(),
        "passes_per_run": PASSES,
        "parent": summary["parent"],
        "change": summary["change"],
        "change_over_parent": ratios,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
