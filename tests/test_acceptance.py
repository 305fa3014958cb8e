"""Release gate: every shipped criterion must pass within its budget.

Each criterion is one parametrized test so the -v listing shows a
pass/fail line per criterion; the detail line is printed as well so a
captured log carries the measured numbers.  The oracles behind criteria
9 and 11 are also pinned to their exact values and held to a memory
budget.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from boxspin import acceptance, boxops
from boxspin import (
    Grid,
    SqueezeState,
    build_spin_operator,
    expectation,
    expectations,
    wavefunction,
)
from boxspin.acceptance import CRITERIA, _grid_search_chsh, format_result, run_criterion
from boxspin.correlators import CorrelatorSet, correlator_set, czz_sampled

_IDS = [f"{cid:02d}-{title.replace(' ', '-')}" for cid, title, _, _ in CRITERIA]


@pytest.mark.parametrize("cid", [c[0] for c in CRITERIA], ids=_IDS)
def test_criterion(cid):
    result = run_criterion(cid)
    print(format_result(result))
    assert result.passed, f"criterion {result.cid} ({result.title}): {result.detail}"


# Sign pairs (even-box value, odd-box value): the parity and the even-box indicator.
_PARITY, _EVEN = (1, -1), (1, 0)


@pytest.mark.parametrize("pair, signs", [("zx", (_PARITY, _EVEN)), ("xz", (_EVEN, _PARITY))], ids=["zx", "xz"])
def test_symmetry_criterion_fails_on_an_asymmetric_pair(monkeypatch, pair, signs):
    """Criterion 7 sums the cross sign pairs itself.  Without the x site's
    half-box shift, reflection maps its even boxes onto odd ones, the pair
    no longer vanishes, and the criterion reports it."""
    monkeypatch.setitem(acceptance._CROSS_SIGNS, pair, (*signs, (0, 0)))
    result = run_criterion(7)
    assert not result.passed
    assert result.detail.startswith(f"c{pair} at (l=0.7, r=0.75)")


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
    return CorrelatorSet(*fields, *([0.0] * 3))


@pytest.mark.parametrize("fields, expected", _CRITERION_11_SETS, ids=["tsirelson", "z-only", "tilted", "computed"])
def test_grid_search_is_pinned(fields, expected):
    """The exact values of the search that built both n**3 cubes."""
    assert _grid_search_chsh(_criterion_11_set(fields)) == expected


def test_grid_search_refines_with_the_bell_objective(monkeypatch):
    """The Nelder-Mead refinement evaluates bell's own CHSH of four angles."""
    calls = []
    real = acceptance._chsh_of_angles

    def counted(angles, corr):
        calls.append(corr)
        return real(angles, corr)

    monkeypatch.setattr(acceptance, "_chsh_of_angles", counted)
    corr = _criterion_11_set(_CRITERION_11_SETS[2][0])
    assert _grid_search_chsh(corr) == _CRITERION_11_SETS[2][1]
    assert calls and all(c is corr for c in calls)


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

    def test_expectation_holds_a_few_blocks(self):
        # psi at Grid(2048) would take 32 MB whole; one block of 128 rows
        # takes 2 MB.
        grid = Grid(2048, 1.0 / 64.0, -16.0)
        op = build_spin_operator("y", 64, grid)
        assert _peak_mb(lambda: expectation(op, op, SqueezeState(1.0))) <= 16.0

    def test_expectation_of_wide_boxes_holds_the_rows_they_read(self):
        # A box of 512 cells reads 512 rows away, so each block of 128
        # rows evaluates psi on 256.
        grid = Grid(2048, 1.0 / 64.0, -16.0)
        op = build_spin_operator("y", 512, grid)
        assert _peak_mb(lambda: expectation(op, op, SqueezeState(1.0))) <= 24.0

    def test_expectation_of_a_general_operator_holds_a_few_blocks(self):
        """A random operator of density 0.2 on Grid(512) stores about 100
        entries per row.  Gathering psi's columns for every stored entry of
        B at once would take 512 rows x 52 000 entries (214 MB) for the one
        block; the product gathers one entry of each row at a time."""
        grid = Grid(512, 1.0 / 16.0, -16.0)
        rng = np.random.default_rng(3)
        matrix = sp.random(512, 512, density=0.2, format="csr", random_state=rng)
        op = boxops.GridOperator(grid, 1, "random", matrix)
        assert _peak_mb(lambda: expectation(op, op, SqueezeState(1.0))) <= 24.0

    def test_aligned_spin_operators_evaluate_each_psi_row_once(self, monkeypatch):
        """Criterion 9's call: every two-box block of 64-cell boxes lies in
        one row block, so psi is evaluated on each of the 2048 rows once."""
        grid = Grid(2048, 1.0 / 64.0, -16.0)
        ops = [build_spin_operator(ax, 64, grid) for ax in ("x", "y")]
        evaluated = []

        def counted(q, q2, state):
            evaluated.append(np.ravel(q))
            return wavefunction(q, q2, state)

        monkeypatch.setattr(boxops, "wavefunction", counted)
        expectations([(op, op) for op in ops], SqueezeState(1.0))
        np.testing.assert_array_equal(np.concatenate(evaluated), grid.midpoints())

    def test_sampling_holds_its_two_normal_streams(self):
        # The first stream of 10**6 normals takes 8 MB; the second is
        # drawn a chunk at a time.  Both held whole would take 16 MB.
        assert _peak_mb(lambda: czz_sampled(1.0, 1.0, 1_000_000, seed=100)) <= 16.0

    def test_grid_search_builds_no_cube(self):
        corr = correlator_set(1.0, 2.0)
        assert _peak_mb(lambda: _grid_search_chsh(corr)) <= 8.0


@pytest.mark.parametrize("axis", ["z", "x", "y"])
def test_operator_algebra_criterion_fails_on_a_flipped_sign(monkeypatch, axis):
    """Criterion 8 composes the spin operators' row maps itself.  With one
    operator's sign flipped its square is still I, but [x, y] is -2i z,
    and the criterion reports it on the first grid."""
    real = acceptance.build_spin_operator

    def flipped(ax, cpb, grid):
        op = real(ax, cpb, grid)
        return boxops.GridOperator(grid, cpb, op.label, -op.matrix) if ax == axis else op

    monkeypatch.setattr(acceptance, "build_spin_operator", flipped)
    result = run_criterion(8)
    assert not result.passed
    assert result.detail == "[x,y] != 2iz at cpb=1 on 16 cells"
