"""Release gate: every shipped criterion must pass within its budget.

Each criterion is one parametrized test so the -v listing shows a
pass/fail line per criterion; the detail line is printed as well so a
captured log carries the measured numbers.  The oracles behind criteria
9 and 11 are also pinned to their exact values and held to a memory
budget.
"""

import tracemalloc

import pytest

from boxspin import Grid, SqueezeState, build_spin_operator, expectation
from boxspin.acceptance import CRITERIA, _grid_search_chsh, format_result, run_criterion
from boxspin.correlators import CorrelatorSet, correlator_set, czz_sampled

_IDS = [f"{cid:02d}-{title.replace(' ', '-')}" for cid, title, _, _ in CRITERIA]


@pytest.mark.parametrize("cid", [c[0] for c in CRITERIA], ids=_IDS)
def test_criterion(cid):
    result = run_criterion(cid)
    print(format_result(result))
    assert result.passed, f"criterion {result.cid} ({result.title}): {result.detail}"


# Criterion 11's sets: three synthetic ones and the computed set at l = 1, r = 2.
_CRITERION_11_SETS = [
    ((1.0, 0.0, 1.0, 1.0, 0.0), 2.8284271247461907),
    ((1.0, 0.0, 1.0, 0.0, 0.0), 2.0),
    ((1.0, 0.0, 0.6, 0.8, -0.2), 2.0),
    (None, 2.3630216743554024),
]


def _criterion_11_set(fields):
    if fields is None:
        return correlator_set(1.0, 2.0)
    return CorrelatorSet(*fields, *([0.0] * 7))


@pytest.mark.parametrize("fields, expected", _CRITERION_11_SETS, ids=["tsirelson", "z-only", "tilted", "computed"])
def test_grid_search_is_pinned(fields, expected):
    """The exact values of the search that built both n**3 cubes."""
    assert _grid_search_chsh(_criterion_11_set(fields)) == expected


def _peak_mb(call) -> float:
    """Peak traced allocation of ``call()`` in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestOraclesRunInBoundedMemory:
    """The memory the battery's oracles trace at criterion 9's and 11's sizes."""

    def test_expectation_holds_psi_and_a_few_blocks(self):
        # psi at Grid(2048) alone takes 32 MB.
        grid = Grid(2048, 1.0 / 64.0, -16.0)
        op = build_spin_operator("y", 64, grid)
        assert _peak_mb(lambda: expectation(op, op, SqueezeState(1.0))) <= 48.0

    def test_sampling_holds_its_two_normal_streams(self):
        # The first stream of 10**6 normals takes 8 MB; the second is
        # drawn a chunk at a time.  Both held whole would take 16 MB.
        assert _peak_mb(lambda: czz_sampled(1.0, 1.0, 1_000_000, seed=100)) <= 16.0

    def test_grid_search_builds_no_cube(self):
        corr = correlator_set(1.0, 2.0)
        assert _peak_mb(lambda: _grid_search_chsh(corr)) <= 8.0
