"""Build perfbench/reference.json: reference correlators and their self-checks.

Usage: python3 perfbench/make_reference.py [--jobs N]

Computes every (r, l) point a workload checks with the independent
evaluator in reference.py, then runs the self-checks below
and refuses to write the table if one fails.  The r = 5 corners take
15-50 s each on a 2-core Xeon; the whole table takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import points  # noqa: E402
import reference as ref  # noqa: E402


def _evaluate(rl):
    r, l = rl
    start = time.perf_counter()
    cs = ref.correlator_set(l, r)
    return {
        "r": r,
        "l": l,
        "values": {p: cs[p][0] for p in ref.PAIRS},
        "errors": {p: cs[p][1] for p in ref.PAIRS},
        "seconds": round(time.perf_counter() - start, 3),
    }


def _needed_points():
    wanted = set(points.all_sweep_points())
    wanted.update(points.CORNERS)
    wanted.update((r, l) for _pair, l, r in points.SELFTEST_READBACK)
    return sorted(wanted)


def self_checks(table):
    """Invariants the reference itself must satisfy, as {check, ok, detail} records."""
    out = []

    def check(name, ok, detail):
        out.append({"check": name, "ok": bool(ok), "detail": detail})

    for l, r in ((1.0, 0.0), (1.0, 2.0), (0.03, 1.0), (50.0, 0.5), (1.0, 5.0)):
        m, e = ref.mass(l, r)
        check(f"mass(l={l}, r={r}) = 1", abs(m - 1.0) <= 1e-12 + e, f"{m - 1.0:.2e}")

    for row in table:
        v, e = row["values"], row["errors"]
        tag = f"r={row['r']}, l={row['l']!r}"
        if row["r"] == 0.0:
            check(f"czz = 0 at {tag}", abs(v["zz"]) <= 1e-13 + e["zz"], f"{v['zz']:.2e}")
        check(f"cyy <= 0 at {tag}", v["yy"] <= e["yy"], f"{v['yy']:.3e}")
        check(f"czx = cxz at {tag}", abs(v["zx"] - v["xz"]) <= e["zx"] + e["xz"] + 1e-15,
              f"{v['zx'] - v['xz']:.2e}")
        check(f"|c| <= 1 at {tag}", all(abs(x) <= 1.0 + 1e-13 for x in v.values()), "")

    for r in (0.5, 1.0, 2.0):
        v, e = ref.correlator_set(50.0, r)["zz"]
        target = ref.czz_asymptote(r)
        check(f"czz(50, {r}) -> asymptote", abs(v - target) <= 1e-12 + e, f"{v - target:.2e}")

    for l in (0.03, 0.5, 2.0):
        sx, esx = ref.site_x(l, 0.0)
        cxx, exx = ref.correlator_set(l, 0.0)["xx"]
        check(f"cxx = <s_x>**2 at r=0, l={l}", abs(cxx - sx * sx) <= 1e-12 + exx + 2 * esx,
              f"{cxx - sx * sx:.2e}")

    by_point = {(row["r"], row["l"]): row for row in table}
    for i, (r, l) in enumerate(((0.5, 1.0), (2.0, 1.0), (1.0, 0.25), (5.0, 1.0), (2.0, 0.03))):
        v = by_point[(r, l)]["values"]["zz"] if (r, l) in by_point else ref.correlator_set(l, r)["zz"][0]
        est, se = ref.czz_monte_carlo(l, r, 4_000_000, seed=1000 + i)
        check(f"czz({l}, {r}) vs Monte Carlo", abs(v - est) <= 3.0 * se, f"{abs(v - est) / se:.2f} sigma")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    wanted = _needed_points()
    # Slowest (largest r) first so the pool stays busy to the end.
    wanted.sort(key=lambda rl: (-rl[0], rl[1]))
    with ProcessPoolExecutor(max_workers=max(1, args.jobs), mp_context=get_context("spawn")) as pool:
        table = list(pool.map(_evaluate, wanted))
    table.sort(key=lambda row: (row["r"], row["l"]))
    checks = self_checks(table)
    failed = [c for c in checks if not c["ok"]]
    for c in failed:
        print(f"FAILED {c['check']}: {c['detail']}", file=sys.stderr)
    payload = {
        "about": "Reference correlators from perfbench/reference.py (erf-reduced v-sum, "
                 "Gauss-Legendre u-panels); errors are the evaluator's own estimates.",
        "points": table,
        # The per-point invariants (cyy, czx, |c|) are counted, not listed.
        "self_checks": {"total": len(checks), "failed": len(failed),
                        "list": [c for c in checks if not c["check"].startswith(("cyy", "czx", "|c|"))]},
    }
    if failed:
        return 1
    (HERE / "reference.json").write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(table)} points, {len(checks)} self-checks passed, "
          f"{sum(row['seconds'] for row in table):.0f} s of evaluation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
