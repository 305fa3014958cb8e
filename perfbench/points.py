"""Input points shared by the workloads and make_reference.py.

Nothing here imports boxspin, so the reference table can be rebuilt
without the package under test.
"""

from __future__ import annotations

import math

import numpy as np

# sweep: both figures at these squeezing values and box lengths.  The
# seed sets the order of the r list, and so the order in which the cli
# pool takes the points.  The l grid is fixed: the kernel's panel count
# steps with l (a point at r = 2 costs 4x more just above l = 0.27 than
# just below), so moving the l ends by a tenth would change the work of
# a pass by -7% to +73% from seed to seed.
SWEEP_R = (0.5, 1.0, 2.0)
SWEEP_POINTS = 4
SWEEP_JOBS = 2
SWEEP_L = (0.25, 7.5)

# settings: one Latin-hypercube design of (r, l) points, l log-uniform,
# drawn once from SETTINGS_DESIGN_SEED.  The workload seed sets the query order
# only: the Nelder-Mead cost of one point is erratic (0.3-1.5 s for the
# 3-D optimum between neighbouring points), so points drawn per seed
# would move the per-run mean by +-13% from seed to seed.
SETTINGS_POINTS = 12
SETTINGS_R = (0.25, 1.5)
SETTINGS_LOG2_L = (-2.0, 2.0)
SETTINGS_DESIGN_SEED = 20031

# reach: the ROADMAP corners.  MEASURED are the corners that finish
# within REACH_DEADLINE_S at the parent commit; the rest are probed in
# the traced run only, so their failures are recorded, not counted.
CORNER_R = (0.0, 2.0, 5.0)
CORNER_L = (0.03, 1.0, 50.0)
CORNERS = tuple((r, l) for r in CORNER_R for l in CORNER_L)
REACH_MEASURED = ((0.0, 0.03), (0.0, 1.0), (0.0, 50.0), (2.0, 1.0))
REACH_PROBED = tuple(p for p in CORNERS if p not in REACH_MEASURED)
REACH_DEADLINE_S = 15.0

# selftest: the acceptance criteria each pass runs.  Criteria 3-6 are
# left out: together they take about 50 s of pure correlator_set work,
# which the sweep workload already measures.
SELFTEST_CRITERIA = (1, 2, 7, 8, 9, 10, 11, 12)
# Correlators the battery computes with the default spec, read back from
# the package after a pass and compared with the reference: (pair, l, r).
SELFTEST_READBACK = (
    tuple(("zz", 7.5, r) for r in (0.5, 1.0, 2.0))
    + tuple(("zz", l, r) for l, r in ((0.5, 0.3), (1.0, 1.0), (1.5, 0.7), (3.0, 2.0)))
    + (("xx", 1.0, 1.0), ("yy", 1.0, 1.0))
    + tuple((p, l, r) for p in ("zx", "xz")
            for l, r in ((0.3, 0.25), (0.7, 0.75), (1.0, 1.0), (2.5, 1.5), (5.0, 2.0)))
    + tuple((p, 1.0, 2.0) for p in ("zz", "xx", "yy", "zx", "xz"))
)


def sweep_l_values() -> list[float]:
    """The l grid the figure commands use: evenly spaced in log2."""
    grid = np.exp2(np.linspace(math.log2(SWEEP_L[0]), math.log2(SWEEP_L[1]), SWEEP_POINTS))
    return [float(x) for x in grid]


def sweep_r_order(seed: int) -> list[float]:
    rng = np.random.default_rng([seed, 1])
    return [SWEEP_R[i] for i in rng.permutation(len(SWEEP_R))]


def all_sweep_points() -> list[tuple[float, float]]:
    """Every (r, l) on the sweep grid."""
    return [(r, l) for r in SWEEP_R for l in sweep_l_values()]


def settings_points() -> list[tuple[float, float]]:
    """The fixed (r, l) design the Bell queries run on."""
    rng = np.random.default_rng(SETTINGS_DESIGN_SEED)
    n = SETTINGS_POINTS
    r_lo, r_hi = SETTINGS_R
    e_lo, e_hi = SETTINGS_LOG2_L
    r = r_lo + (np.arange(n) + rng.random(n)) / n * (r_hi - r_lo)
    e = e_lo + (rng.permutation(n) + rng.random(n)) / n * (e_hi - e_lo)
    return [(float(ri), float(2.0 ** ei)) for ri, ei in zip(r, e)]


def settings_round(seed: int, k: int) -> list[int]:
    """Query order of round k: every design point once, shuffled by the seed."""
    rng = np.random.default_rng([seed, 2, k])
    return [int(i) for i in rng.permutation(SETTINGS_POINTS)]
