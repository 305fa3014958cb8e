"""Before/after numbers for the figure sweeps, written to BENCH_cli.json.

Usage (from the repository root):

    git archive <parent-commit> src | tar -x -C /tmp/parent
    python3 tools/bench_cli.py --parent-src /tmp/parent/src

Each case is ``fig1`` then ``fig2`` through ``cli.main`` in process, each
command from an empty piece cache, as the benchmark's sweep workload runs
them.  The cases are the benchmark's sweep argv, the default range at 16
and 64 points, and r in {0, 0.5, 1, 2, 3, 5} up to l = 50.  Two variants
run: the parent checkout and this one.

Each run is a fresh interpreter on one variant; the variants alternate,
and so does which one runs first, because one process per side can be
bimodal.  A run makes OPS[case] ops per case after one warm-up op.

Every command is split at the points it evaluates, which it finds by
wrapping whichever of ``cli.correlator``, ``cli.correlator_set`` and
``cli.correlator_grid`` the checkout has: ``parse`` runs from ``main``'s
entry to the first evaluation's start (parser, config), ``points`` from
there to the last one's end, and ``render`` from there to ``main``'s
return (rows that are not evaluations, CSV or JSON, the write).
Recorded per variant, case and command: the median over runs of each
run's median ms per phase, with every run's value, and whether every
variant printed the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
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
from bench_kernel import machine  # noqa: E402

COMMANDS = ("fig1", "fig2")
PHASES = ("total", "parse", "points", "render")
CASES = {
    "sweep_workload": ["--format", "json", "--r-list", *(repr(r) for r in points.SWEEP_R),
                       "--points", str(points.SWEEP_POINTS),
                       "--l-min", repr(points.SWEEP_L[0]), "--l-max", repr(points.SWEEP_L[1])],
    "default_16": ["--points", "16"],
    "default_64": [],
    "r_to_5_l_to_50": ["--r-list", "0", "0.5", "1", "2", "3", "5", "--l-max", "50"],
}
# Measured ops per run after the warm-up op: about a second of work each.
OPS = {"sweep_workload": 40, "default_16": 20, "default_64": 8, "r_to_5_l_to_50": 3}
VARIANTS = ("parent", "change")
DEADLINE_S = 600.0


def worker() -> dict:
    """Every case in this interpreter; boxspin comes from PYTHONPATH."""
    import boxspin.cli as cli
    import boxspin.correlators as correlators

    stamps = []
    for name in ("correlator", "correlator_set", "correlator_grid"):
        if not hasattr(cli, name):
            continue
        def timed(*args, _real=getattr(cli, name), **kwargs):
            start = time.perf_counter()
            try:
                return _real(*args, **kwargs)
            finally:
                stamps.append((start, time.perf_counter()))

        setattr(cli, name, timed)

    def command(argv):
        correlators.clear_cache()
        stamps.clear()
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        end = time.perf_counter()
        if code != 0:
            raise SystemExit(f"{argv} exited {code}")
        first = min(s for s, _ in stamps)
        last = max(e for _, e in stamps)
        ms = {"total": end - start, "parse": first - start, "points": last - first,
              "render": end - last}
        return {k: 1e3 * v for k, v in ms.items()}, buf.getvalue()

    out = {}
    for case, args in CASES.items():
        argv = {c: [c, *args] for c in COMMANDS}
        digests = {c: hashlib.sha256(command(argv[c])[1].encode()).hexdigest() for c in COMMANDS}
        ms = {c: {p: [] for p in PHASES} for c in COMMANDS}
        for _ in range(OPS[case]):
            for c in COMMANDS:
                phases, _text = command(argv[c])
                for p in PHASES:
                    ms[c][p].append(phases[p])
        out[case] = {
            "sha256": digests,
            "ms": {c: {p: statistics.median(v) for p, v in ms[c].items()} for c in COMMANDS},
            "op_ms": statistics.median(a + b for a, b in zip(ms["fig1"]["total"], ms["fig2"]["total"])),
        }
    return out


def run_variant(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, __file__, "--worker"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=DEADLINE_S,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    """Per case: the median over runs of each run's medians, and every run's value."""
    cases = {}
    for case in CASES:
        per_run = [run[case] for run in runs]
        cases[case] = {
            "op_ms": statistics.median(r["op_ms"] for r in per_run),
            "op_ms_runs": [round(r["op_ms"], 3) for r in per_run],
            "commands": {
                c: {p: statistics.median(r["ms"][c][p] for r in per_run) for p in PHASES}
                for c in COMMANDS
            },
        }
    return cases


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", type=Path, help="src/ directory of the parent checkout")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cli.json")
    parser.add_argument("--runs", type=int, default=6, help="fresh interpreters per variant")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker()))
        return 0
    if args.parent_src is None:
        parser.error("--parent-src is required")

    srcs = {"parent": args.parent_src.resolve(), "change": ROOT / "src"}
    runs = {name: [] for name in VARIANTS}
    for i in range(args.runs):
        # Which variant goes first alternates too.
        for k in range(len(VARIANTS)):
            name = VARIANTS[(i + k) % len(VARIANTS)]
            runs[name].append(run_variant(srcs[name]))
            ops = ", ".join(f"{c} {runs[name][-1][c]['op_ms']:.1f}" for c in CASES)
            print(f"run {i + 1}/{args.runs} {name}: op ms {ops}", file=sys.stderr)

    summary = {name: summarize(variant_runs) for name, variant_runs in runs.items()}
    digests = {(case, c): {run[case]["sha256"][c] for variant_runs in runs.values()
                           for run in variant_runs}
               for case in CASES for c in COMMANDS}
    change = summary["change"]
    payload = {
        "layer": "cli",
        "what": "fig1 then fig2 through cli.main in process, each command from an empty piece "
                "cache; ms are medians over runs of each run's median over its ops",
        "machine": machine(),
        "runs_per_variant": args.runs,
        "ops_per_run": OPS,
        "cases": {case: " ".join(argv) for case, argv in CASES.items()},
        "identical_outputs": all(len(d) == 1 for d in digests.values()),
        "variants": summary,
        "op_speedup": {case: summary["parent"][case]["op_ms"] / change[case]["op_ms"]
                       for case in CASES},
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
