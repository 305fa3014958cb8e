"""Exact sparse operators: algebra with zero tolerance, oracle duties.

All matrix entries are 0, +/-1, or +/-i, so every product of a few
operators is exact in double precision and equality checks can demand
literal zeros.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from boxspin import acceptance, boxops
from boxspin import (
    Grid,
    GridMismatch,
    InvalidScale,
    MisalignedGrid,
    SqueezeState,
    TruncationWindow,
    build_box_projector,
    build_box_translation,
    build_spin_operator,
    commutator,
    correlator,
    expectation,
    expectations,
    hierarchy_commutes,
    is_zero,
    position_from_bits,
    truncated_value,
    wavefunction,
)


def _dense(op):
    return op.matrix.toarray()


@pytest.fixture(scope="module")
def spin_grid():
    return Grid(32, cell_width=0.5, origin=-8.0)


@pytest.fixture(scope="module")
def proj_grid():
    return Grid(16, cell_width=1.0, origin=0.0)


class TestGrid:
    def test_cell_count_must_be_power_of_two(self):
        with pytest.raises(InvalidScale):
            Grid(3)
        with pytest.raises(InvalidScale):
            Grid(1)

    def test_cell_width_must_be_dyadic(self):
        with pytest.raises(InvalidScale):
            Grid(8, cell_width=0.3)
        Grid(8, cell_width=0.25)

    def test_origin_must_sit_on_the_lattice(self):
        with pytest.raises(MisalignedGrid):
            Grid(8, cell_width=1.0, origin=0.5)
        g = Grid(8, cell_width=0.5, origin=-2.0)
        assert g.origin_cells == -4

    def test_midpoints_and_edges(self):
        g = Grid(4, cell_width=0.5, origin=-1.0)
        np.testing.assert_allclose(g.left_edges(), [-1.0, -0.5, 0.0, 0.5])
        np.testing.assert_allclose(g.midpoints(), [-0.75, -0.25, 0.25, 0.75])


class TestSpinAlgebra:
    def test_z_is_box_parity(self, spin_grid):
        op = build_spin_operator("z", 4, spin_grid)
        diag = _dense(op).diagonal()
        box = (spin_grid.origin_cells + np.arange(32)) // 4
        np.testing.assert_array_equal(diag, 1 - 2 * (box % 2))

    def test_plus_minus_are_adjoint(self, spin_grid):
        plus = build_spin_operator("plus", 4, spin_grid)
        minus = build_spin_operator("minus", 4, spin_grid)
        assert is_zero((plus.matrix.conj().T - minus.matrix).tocsr())

    def test_squares_are_identity(self, spin_grid):
        ident = sp.identity(32, dtype=np.complex128, format="csr")
        for axis in ("z", "x", "y"):
            op = build_spin_operator(axis, 4, spin_grid)
            assert is_zero((op.matrix @ op.matrix - ident).tocsr()), axis

    def test_cyclic_commutators(self, spin_grid):
        ops = {ax: build_spin_operator(ax, 4, spin_grid) for ax in ("x", "y", "z")}
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            lhs = commutator(ops[a], ops[b]) - 2j * ops[c].matrix
            assert is_zero(lhs.tocsr()), (a, b, c)

    def test_anticommutation(self, spin_grid):
        x = build_spin_operator("x", 4, spin_grid)
        z = build_spin_operator("z", 4, spin_grid)
        assert is_zero((x.matrix @ z.matrix + z.matrix @ x.matrix).tocsr())

    def test_axis_validation(self, spin_grid):
        with pytest.raises(ValueError):
            build_spin_operator("w", 4, spin_grid)

    def test_block_alignment_is_required(self):
        # 8 cells starting at cell 4: boxes of 4 cells exist, but the
        # first box has odd absolute index and no partner below it.
        grid = Grid(8, cell_width=1.0, origin=4.0)
        with pytest.raises(MisalignedGrid):
            build_spin_operator("x", 4, grid)


class TestSharedSpinOperators:
    """build_spin_operator builds each operator once and hands out a
    read-only matrix."""

    def test_repeated_build_returns_the_same_object(self, spin_grid):
        op = build_spin_operator("y", 4, spin_grid)
        assert build_spin_operator("y", 4, spin_grid) is op
        assert build_spin_operator("y", 4, Grid(32, cell_width=0.5, origin=-8.0)) is op
        assert build_spin_operator("x", 4, spin_grid) is not op

    @pytest.mark.parametrize("name", ["data", "indices", "indptr"])
    def test_in_place_writes_raise(self, spin_grid, name):
        array = getattr(build_spin_operator("x", 4, spin_grid).matrix, name)
        with pytest.raises(ValueError):
            array[0] = array[0]

    def test_a_cached_int_scale_does_not_admit_its_float(self, spin_grid):
        build_spin_operator("x", 4, spin_grid)
        with pytest.raises(InvalidScale):
            build_spin_operator("x", 4.0, spin_grid)

    def test_criterion_8_hierarchy_reports_match_uncached_builds(self, monkeypatch):
        """Every hierarchy_commutes call of the operator-algebra criterion,
        in both argument orders, against a run that builds each operator anew."""
        calls = []
        recorded = acceptance.hierarchy_commutes

        def record(*args):
            calls.append(args)
            return recorded(*args)

        monkeypatch.setattr(acceptance, "hierarchy_commutes", record)
        acceptance.criterion_operator_algebra()
        cached = [hierarchy_commutes(*args) for args in calls]
        monkeypatch.setattr(boxops, "build_spin_operator", build_spin_operator.__wrapped__)
        uncached = [hierarchy_commutes(*args) for args in calls]
        assert len(calls) == 52
        assert {(a, b) for a, b, _ in calls} >= {(1, 2), (2, 1), (1, 1)}
        assert cached == uncached


class TestProjectorsAndTranslations:
    def test_projectors_resolve_identity(self, proj_grid):
        total = sum(
            build_box_projector(b, 4, proj_grid).matrix for b in range(4)
        )
        assert is_zero((total - sp.identity(16, dtype=np.complex128)).tocsr())
        p = build_box_projector(1, 4, proj_grid)
        assert is_zero((p.matrix @ p.matrix - p.matrix).tocsr())

    def test_missing_box_is_an_error(self, proj_grid):
        with pytest.raises(MisalignedGrid):
            build_box_projector(9, 4, proj_grid)

    def test_translation_times_adjoint_is_projector(self, proj_grid):
        t = build_box_translation(0, 4, proj_grid)
        p0 = build_box_projector(0, 4, proj_grid)
        assert is_zero((t.matrix @ t.matrix.conj().T - p0.matrix).tocsr())

    def test_translation_needs_both_boxes(self, proj_grid):
        with pytest.raises(MisalignedGrid):
            build_box_translation(3, 4, proj_grid)  # box 4 is off the grid


def _explicit_zero_csr():
    m = sp.csr_matrix((np.array([0.0]), np.array([1]), np.array([0, 1, 1])), shape=(2, 2))
    assert m.nnz == 1
    return m


class TestIsZero:
    """is_zero returns a Python bool, whatever scalar type scipy's count_nonzero gives."""

    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda g: commutator(build_spin_operator("z", 4, g), build_spin_operator("x", 4, g)), False),
            (lambda g: commutator(build_spin_operator("z", 4, g), build_spin_operator("z", 4, g)), True),
            (lambda g: _explicit_zero_csr(), True),
        ],
        ids=["nonzero_commutator", "zero_commutator", "explicitly_stored_zero"],
    )
    def test_returns_python_bool(self, spin_grid, make, expected):
        result = is_zero(make(spin_grid))
        assert type(result) is bool
        assert result is expected


class TestHierarchy:
    def test_even_scale_ratios_commute(self):
        grid = Grid(64, cell_width=0.5, origin=-16.0)
        report = hierarchy_commutes(2, 4, grid)
        assert report
        assert len(report.pairs) == 9
        assert all(report.pairs.values())
        assert hierarchy_commutes(2, 8, grid)

    def test_equal_scales_do_not_commute(self):
        grid = Grid(64, cell_width=0.5, origin=-16.0)
        report = hierarchy_commutes(4, 4, grid)
        assert not report
        assert report.pairs[("z", "x")] is False
        assert report.pairs[("z", "z")] is True

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        log_cells=st.integers(4, 8),
        log_scale=st.integers(0, 6),
        ratio=st.sampled_from([1, 2, 4, 3]),
        fine_first=st.booleans(),
        log_width=st.integers(-3, 1),
        block_offset=st.integers(-4, 4),
    )
    def test_reports_equal_sparse_commutators(
        self, log_cells, log_scale, ratio, fine_first, log_width, block_offset
    ):
        """Every pair of the row-map report is is_zero(commutator(a, b)),
        on grids of 16 to 256 cells whose origin sits on a two-box block
        of the coarser scale, in both argument orders.  A ratio of 3 has
        no such block on a power-of-two grid."""
        n = 2**log_cells
        # The coarser scale's two-box block, in the finer scale's blocks.
        span = 1 if ratio == 3 else ratio
        fine = 2 ** min(log_scale, log_cells - span.bit_length())
        coarse = fine * ratio
        block = 2 * fine * span
        grid = Grid(n, cell_width=2.0**log_width, origin=block_offset * block * 2.0**log_width)
        a, b = (fine, coarse) if fine_first else (coarse, fine)
        if ratio == 3:
            with pytest.raises(MisalignedGrid):
                hierarchy_commutes(a, b, grid)
            return
        report = hierarchy_commutes(a, b, grid)
        expected = {
            (ax_a, ax_b): is_zero(
                commutator(build_spin_operator(ax_a, a, grid), build_spin_operator(ax_b, b, grid))
            )
            for ax_a in ("z", "x", "y")
            for ax_b in ("z", "x", "y")
        }
        assert list(report.pairs.items()) == list(expected.items())
        assert all(type(value) is bool for value in report.pairs.values())
        assert bool(report) is (ratio != 1)

    def test_row_maps_that_land_in_different_columns(self, monkeypatch, spin_grid):
        """Spin operators move rows by commuting bit flips, so only their
        values decide.  Here z is a reversal and x a cyclic shift by the
        box size, whose products land in different columns, and y is a
        reversal that stores only zeros, so its commutators vanish."""
        n = spin_grid.n_cells
        rows = np.arange(n)

        def row_map_operator(axis, cpb, grid):
            cols = (rows + cpb) % n if axis == "x" else n - 1 - rows
            vals = np.full(n, 0.0 if axis == "y" else 1.0, dtype=np.complex128)
            matrix = sp.csr_matrix((vals, cols, np.arange(n + 1)), shape=(n, n))
            return boxops.GridOperator(grid, cpb, f"{axis}_{cpb}", matrix)

        monkeypatch.setattr(boxops, "build_spin_operator", row_map_operator)
        report = hierarchy_commutes(2, 4, spin_grid)
        expected = {
            (ax_a, ax_b): is_zero(
                commutator(row_map_operator(ax_a, 2, spin_grid), row_map_operator(ax_b, 4, spin_grid))
            )
            for ax_a in ("z", "x", "y")
            for ax_b in ("z", "x", "y")
        }
        assert report.pairs == expected
        assert not report.pairs[("z", "x")] and not report.pairs[("x", "z")]
        assert report.pairs[("z", "z")] and report.pairs[("y", "x")] and report.pairs[("x", "y")]

    def test_row_map_refuses_rows_without_exactly_one_entry(self, spin_grid):
        plus = build_spin_operator("plus", 4, spin_grid)
        z, x = (build_spin_operator(ax, 4, spin_grid) for ax in ("z", "x"))
        z_plus_x = boxops.GridOperator(spin_grid, 4, "s_z + s_x", (z.matrix + x.matrix).tocsr())
        with pytest.raises(ValueError, match="s_plus stores 0 entries in row 4"):
            boxops._row_map(plus)
        with pytest.raises(ValueError, match="s_z \\+ s_x stores 2 entries in row 0"):
            boxops._row_map(z_plus_x)
        col, val = boxops._row_map(x)
        np.testing.assert_array_equal(_dense(x)[np.arange(32), col], val)

    def test_hierarchy_checks_each_operator_is_a_row_map(self, monkeypatch, spin_grid):
        monkeypatch.setattr(
            boxops, "build_spin_operator",
            lambda axis, cpb, grid: build_spin_operator("plus" if axis == "y" else axis, cpb, grid),
        )
        with pytest.raises(ValueError, match="s_plus"):
            hierarchy_commutes(2, 4, spin_grid)

    def test_cross_grid_commutator_is_rejected(self):
        a = build_spin_operator("z", 2, Grid(16, 1.0, 0.0))
        b = build_spin_operator("x", 2, Grid(16, 1.0, -8.0))
        with pytest.raises(GridMismatch):
            commutator(a, b)


class TestPositionFromBits:
    def test_diagonal_is_truncated_midpoint(self):
        grid = Grid(16, cell_width=0.25, origin=0.0)
        window = TruncationWindow(k_hi=1, k_lo=-2)
        op = position_from_bits(window, grid)
        diag = _dense(op).diagonal()
        want = [truncated_value(m, window) for m in grid.midpoints()]
        np.testing.assert_array_equal(diag.real, want)
        assert np.all(diag.imag == 0.0)

    def test_window_below_cell_width_is_rejected(self):
        grid = Grid(16, cell_width=0.25, origin=0.0)
        with pytest.raises(MisalignedGrid):
            position_from_bits(TruncationWindow(k_hi=1, k_lo=-3), grid)

    def test_origin_must_be_zero(self):
        grid = Grid(16, cell_width=0.25, origin=-2.0)
        with pytest.raises(MisalignedGrid):
            position_from_bits(TruncationWindow(k_hi=1, k_lo=-2), grid)


class TestExpectationOracle:
    def test_matches_quadrature_correlators(self):
        """Midpoint matrix expectations agree with the lattice quadrature."""
        state = SqueezeState(0.8)
        grid = Grid(1024, cell_width=1.0 / 32.0, origin=-16.0)
        cpb = 16  # box length 0.5
        for axis, pair in (("z", "zz"), ("x", "xx"), ("y", "yy")):
            op = build_spin_operator(axis, cpb, grid)
            matrix_value = expectation(op, op, state)
            assert abs(matrix_value.imag) < 1e-12
            quad_value, _ = correlator(pair, 0.5, 0.8)
            assert matrix_value.real == pytest.approx(quad_value, abs=1e-3)

    def test_no_pairs_give_no_values(self):
        assert expectations([], SqueezeState(0.5)) == []

    def test_criterion_9_values_are_pinned(self):
        grid = Grid(2048, 1.0 / 64.0, -16.0)
        ops = [build_spin_operator(ax, 64, grid) for ax in ("x", "y")]
        assert expectations([(op, op) for op in ops], SqueezeState(1.0)) == [
            0.6791493635973423 + 0j,
            -0.6439553533647212 + 0j,
        ]

    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5])
    def test_times_transpose_writes_the_product_in_c_order(self, density):
        """Rows of B with no entry, one, or several; applied @ B.T in C order."""
        rng = np.random.default_rng(11)
        part = sp.random(24, 24, density=density, format="csr", random_state=rng)
        part = (part + sp.csr_matrix(([2.0], ([3], [5])), shape=(24, 24))).tocsr()
        applied = rng.standard_normal((7, 24))
        product = boxops._times_transpose(applied, boxops._entry_slots(part))
        assert product.flags.c_contiguous
        np.testing.assert_allclose(product, applied @ part.toarray().T, rtol=1e-15, atol=1e-15)

    def test_grid_mismatch_rejected(self):
        a = build_spin_operator("z", 2, Grid(16, 1.0, 0.0))
        b = build_spin_operator("z", 2, Grid(32, 1.0, 0.0))
        with pytest.raises(GridMismatch):
            expectation(a, b, SqueezeState(0.5))
        with pytest.raises(GridMismatch):
            expectations([(a, a), (b, b)], SqueezeState(0.5))

    def test_mixed_rows_leave_the_operator_unchanged(self):
        """s_z + s_y has rows mixing real and purely imaginary entries; the
        real/imaginary split must not compact the operator's own data."""
        grid = Grid(16, 1.0, -8.0)
        mixed = build_spin_operator("z", 2, grid).matrix + build_spin_operator("y", 2, grid).matrix
        op = boxops.GridOperator(grid, 2, "s_z + s_y", mixed)
        before = [array.copy() for array in (mixed.data, mixed.indices, mixed.indptr)]
        state = SqueezeState(0.5)
        mid = grid.midpoints()
        psi = wavefunction(mid[:, None], mid[None, :], state)
        expected = _dense_expectation(_dense(op), _dense(op), psi)
        first = expectation(op, op, state)
        second = expectation(op, op, state)
        for was, now in zip(before, (mixed.data, mixed.indices, mixed.indptr)):
            np.testing.assert_array_equal(now, was)
        assert abs(first - expected) <= 1e-13
        assert abs(first.imag) <= 1e-13
        assert second == first


def _dense_expectation(a, b, psi):
    """The definition, densely: <psi| A (x) B |psi> / <psi|psi> with A on
    the first index of psi and B on the second."""
    return np.vdot(psi, a @ psi @ b.T) / np.vdot(psi, psi)


def _lopsided(q, q2, state):
    """A real Gaussian whose modes differ in centre and width, so that
    psi(q, q2) != psi(q2, q) and a swap of the modes shows."""
    return np.exp(0.4 * q * q2 - 0.5 * (q - 0.7) ** 2 - 0.2 * (q2 + 1.1) ** 2)


class TestExpectationIsTheDefinition:
    """The blocked, real-part expectation against vdot(psi, A psi B^T),
    on a lopsided psi, in one block and in blocks of 3 and 4 rows.  The
    3-row blocks split two-box blocks, so psi rows outside them are read;
    each 4-row block holds one two-box block, so spin operators read only
    its own rows, re-indexed from past row 0."""

    AXES = [("plus", "y"), ("y", "minus"), ("plus", "minus"), ("z", "plus"), ("minus", "x")]

    @pytest.fixture(
        params=[3 * 32, 4 * 32, 1 << 18], ids=["3-row-blocks", "4-row-blocks", "one-block"]
    )
    def lopsided(self, request, monkeypatch, spin_grid):
        monkeypatch.setattr(boxops, "_BLOCK_ENTRIES", request.param)
        monkeypatch.setattr(boxops, "wavefunction", _lopsided)
        mid = spin_grid.midpoints()
        return _lopsided(mid[:, None], mid[None, :], None)

    def test_all_pairs_at_once_equal_each_pair_alone(self, lopsided, spin_grid):
        pairs = [tuple(build_spin_operator(ax, 2, spin_grid) for ax in axes) for axes in self.AXES]
        state = SqueezeState(0.5)
        assert expectations(pairs, state) == [expectation(a, b, state) for a, b in pairs]

    @pytest.mark.parametrize("axes", AXES, ids=["-".join(a) for a in AXES])
    def test_spin_pairs_match_dense_formula(self, lopsided, spin_grid, axes):
        op_a, op_b = (build_spin_operator(ax, 2, spin_grid) for ax in axes)
        expected = _dense_expectation(_dense(op_a), _dense(op_b), lopsided)
        assert abs(expected) > 1e-3
        assert abs(expectation(op_a, op_b, SqueezeState(0.5)) - expected) <= 1e-13

    def test_general_operators_match_and_wrong_contractions_do_not(self, lopsided, spin_grid):
        """Complex, non-Hermitian sparse A != B: a transposed or conjugated
        operator, or swapped modes, would each give another value."""
        rng = np.random.default_rng(7)
        n = spin_grid.n_cells

        def random_op(label):
            matrix = sp.random(n, n, density=0.2, random_state=rng) + 1j * sp.random(
                n, n, density=0.2, random_state=rng
            )
            return boxops.GridOperator(spin_grid, 2, label, sp.csr_matrix(matrix))

        op_a, op_b = random_op("A"), random_op("B")
        a, b = _dense(op_a), _dense(op_b)
        expected = _dense_expectation(a, b, lopsided)
        for wrong in (
            _dense_expectation(a, b.T, lopsided),
            _dense_expectation(a.T, b, lopsided),
            _dense_expectation(a, b.conj(), lopsided),
            _dense_expectation(a.conj(), b, lopsided),
            _dense_expectation(b, a, lopsided),
        ):
            assert abs(wrong - expected) > 1e-3
        assert abs(expectation(op_a, op_b, SqueezeState(0.5)) - expected) <= 1e-13

    def test_matches_dense_formula_on_the_state(self):
        state = SqueezeState(0.8)
        grid = Grid(256, cell_width=1.0 / 16.0, origin=-8.0)
        op_a = build_spin_operator("plus", 8, grid)
        op_b = build_spin_operator("y", 8, grid)
        mid = grid.midpoints()
        psi = wavefunction(mid[:, None], mid[None, :], state)
        expected = _dense_expectation(_dense(op_a), _dense(op_b), psi)
        assert abs(expected.imag) > 1e-3
        assert abs(expectation(op_a, op_b, state) - expected) <= 1e-13

    def test_all_pairs_at_once_equal_each_pair_alone_on_the_state(self):
        state = SqueezeState(0.8)
        grid = Grid(256, cell_width=1.0 / 16.0, origin=-8.0)
        pairs = [
            tuple(build_spin_operator(ax, 8, grid) for ax in axes)
            for axes in (("x", "x"), ("y", "y"), ("plus", "y"), ("z", "minus"))
        ]
        assert expectations(pairs, state) == [expectation(a, b, state) for a, b in pairs]
