"""Exact box-spin operators on a finite position grid.

A grid of 2**p cells of dyadic width discretizes an interval of the
position axis.  Boxes of ``cells_per_box`` cells carry the spin
structure: s_z is the box parity sign, s_plus translates each odd box
onto the even box below it, s_minus is its transpose, and s_x, s_y are
the usual combinations.  All matrix entries are in {0, +/-1, +/-i}, so
products and commutators of these operators stay on Gaussian integers
far below 2**53 and are exact in double precision; tests can therefore
assert algebraic identities with zero tolerance.

s_z, s_x and s_y store exactly one entry per row, so each is a row map:
a column and a value per row.  hierarchy_commutes, and the acceptance
battery's spin algebra, compose those maps instead of multiplying
sparse matrices: row r of A B is val_a[r] * val_b[col_a[r]] in column
col_b[col_a[r]].  The values stay Gaussian integers, so the composition
is as exact as the sparse product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .bits import TruncationWindow
from .errors import GridMismatch, InvalidScale, MisalignedGrid
from .gaussian_state import SqueezeState, wavefunction

__all__ = [
    "Grid",
    "GridOperator",
    "HierarchyReport",
    "build_spin_operator",
    "build_box_projector",
    "build_box_translation",
    "commutator",
    "is_zero",
    "hierarchy_commutes",
    "position_from_bits",
    "expectation",
    "expectations",
]

SPIN_AXES = ("z", "x", "y", "plus", "minus")

# expectations() works on row blocks of psi of about this many entries
# (2 MB of float64).
_BLOCK_ENTRIES = 1 << 18

# Distinct spin operators kept by build_spin_operator.  The acceptance
# battery's operator-algebra criterion asks for 69 over its three grids.
_SPIN_CACHE_SIZE = 256


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform cells [origin + i*w, origin + (i+1)*w) for i in range(n_cells).

    n_cells must be a power of two >= 2, the cell width an exact power
    of two, and the origin an integer multiple of the cell width, so
    every cell edge is an exact dyadic float and box membership is an
    integer computation.
    """

    n_cells: int
    cell_width: float = 1.0
    origin: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.n_cells, int) and _is_power_of_two(self.n_cells) and self.n_cells >= 2):
            raise InvalidScale(
                f"n_cells must be a power of two >= 2, got {self.n_cells!r}"
            )
        w = float(self.cell_width)
        mantissa, _ = math.frexp(w)
        if not (w > 0.0 and mantissa == 0.5):
            raise InvalidScale(
                f"cell_width must be a power of two, got {self.cell_width!r}"
            )
        ratio = float(self.origin) / w
        if ratio != int(ratio):
            raise MisalignedGrid(
                f"origin {self.origin!r} is not a multiple of cell_width {w!r}"
            )

    @property
    def origin_cells(self) -> int:
        """Grid origin measured in cells from position zero."""
        return int(float(self.origin) / float(self.cell_width))

    def midpoints(self) -> np.ndarray:
        i = np.arange(self.n_cells)
        return (self.origin_cells + i + 0.5) * float(self.cell_width)

    def left_edges(self) -> np.ndarray:
        i = np.arange(self.n_cells)
        return (self.origin_cells + i) * float(self.cell_width)


@dataclass(frozen=True)
class GridOperator:
    """A sparse operator tied to the grid and box size it was built on.

    Spin operators are shared between callers (build_spin_operator
    returns one object per argument triple), so their matrix arrays are
    read-only; derive new matrices instead of writing into them.
    """

    grid: Grid
    cells_per_box: int
    label: str
    matrix: sp.csr_matrix = field(repr=False)


def _require_box_alignment(grid: Grid, cells_per_box: int, *, block: bool) -> np.ndarray:
    """Absolute box index of each cell; raises unless boxes (and, when
    ``block`` is set, two-box blocks) tile the grid exactly."""
    if not (isinstance(cells_per_box, int) and cells_per_box >= 1):
        raise InvalidScale(f"cells_per_box must be a positive int, got {cells_per_box!r}")
    unit = 2 * cells_per_box if block else cells_per_box
    if grid.n_cells % unit != 0 or grid.origin_cells % unit != 0:
        raise MisalignedGrid(
            f"grid of {grid.n_cells} cells at origin_cells={grid.origin_cells} "
            f"is not tiled by units of {unit} cells"
        )
    cells = grid.origin_cells + np.arange(grid.n_cells)
    return cells // cells_per_box


@functools.lru_cache(maxsize=_SPIN_CACHE_SIZE, typed=True)
def build_spin_operator(axis: str, cells_per_box: int, grid: Grid) -> GridOperator:
    """Spin component for boxes of ``cells_per_box`` cells.

    axis is one of 'z', 'x', 'y', 'plus', 'minus'.  The grid must be
    tiled by two-box blocks so every even box has its odd partner.

    Repeated calls return the same operator, whose matrix's ``data``,
    ``indices`` and ``indptr`` are read-only.
    """
    if axis not in SPIN_AXES:
        raise ValueError(f"axis must be one of {SPIN_AXES}, got {axis!r}")
    box = _require_box_alignment(grid, cells_per_box, block=True)
    n = grid.n_cells
    if axis == "z":
        diag = (1 - 2 * (box % 2)).astype(np.complex128)
        matrix = sp.diags(diag, format="csr")
    else:
        rows = np.nonzero(box % 2 == 0)[0]
        cols = rows + cells_per_box
        ones = np.ones(rows.size, dtype=np.complex128)
        plus = sp.csr_matrix((ones, (rows, cols)), shape=(n, n))
        if axis == "plus":
            matrix = plus
        elif axis == "minus":
            matrix = plus.T.tocsr()
        elif axis == "x":
            matrix = (plus + plus.T).tocsr()
        else:  # y
            matrix = (-1j * plus + 1j * plus.T).tocsr()
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return GridOperator(grid=grid, cells_per_box=cells_per_box, label=f"s_{axis}", matrix=matrix)


def build_box_projector(box_index: int, cells_per_box: int, grid: Grid) -> GridOperator:
    """Projector onto the box with absolute index ``box_index``."""
    box = _require_box_alignment(grid, cells_per_box, block=False)
    hits = (box == box_index)
    if not hits.any():
        raise MisalignedGrid(f"box {box_index} does not lie on the grid")
    matrix = sp.diags(hits.astype(np.complex128), format="csr")
    return GridOperator(grid=grid, cells_per_box=cells_per_box, label=f"P_{box_index}", matrix=matrix)


def build_box_translation(box_index: int, cells_per_box: int, grid: Grid) -> GridOperator:
    """Partial translation pulling box ``box_index + 1`` onto box ``box_index``."""
    box = _require_box_alignment(grid, cells_per_box, block=False)
    rows = np.nonzero(box == box_index)[0]
    if rows.size == 0 or not (box == box_index + 1).any():
        raise MisalignedGrid(
            f"boxes {box_index} and {box_index + 1} must both lie on the grid"
        )
    cols = rows + cells_per_box
    ones = np.ones(rows.size, dtype=np.complex128)
    matrix = sp.csr_matrix((ones, (rows, cols)), shape=(grid.n_cells, grid.n_cells))
    return GridOperator(grid=grid, cells_per_box=cells_per_box, label=f"t_{box_index}", matrix=matrix)


def commutator(op_a: GridOperator, op_b: GridOperator) -> sp.csr_matrix:
    """[A, B] as a sparse matrix; exact for these integer-valued operators."""
    if op_a.grid != op_b.grid:
        raise GridMismatch("operators live on different grids")
    c = op_a.matrix @ op_b.matrix - op_b.matrix @ op_a.matrix
    return c.tocsr()


def is_zero(matrix: sp.spmatrix) -> bool:
    """True when every stored entry is exactly zero.

    Explicitly stored zeros count as zero. The result is a Python ``bool``
    whatever integer scalar type ``count_nonzero`` returns (a ``numpy.int64``
    on recent scipy, whose ``== 0`` would otherwise give a ``numpy.bool_``).
    """
    return bool(matrix.count_nonzero() == 0)


@dataclass(frozen=True)
class HierarchyReport:
    """Commutation record for all component pairs at two box scales."""

    cells_per_box_a: int
    cells_per_box_b: int
    pairs: dict

    @property
    def commutes(self) -> bool:
        return all(self.pairs.values())

    def __bool__(self) -> bool:
        return self.commutes


def _row_map(op: GridOperator) -> tuple[np.ndarray, np.ndarray]:
    """(col, val): the column and the value of the one stored entry in
    each row of ``op``; raises ValueError unless every row stores exactly
    one."""
    counts = np.diff(op.matrix.indptr)
    if np.any(counts != 1):
        row = int(np.flatnonzero(counts != 1)[0])
        raise ValueError(
            f"{op.label} stores {counts[row]} entries in row {row}, not one per row"
        )
    return op.matrix.indices, op.matrix.data


def _compose(map_a, map_b) -> tuple[np.ndarray, np.ndarray]:
    """The row map of A B from those of A and B: row r of A B is row
    col_a[r] of B times val_a[r]."""
    col_a, val_a = map_a
    col_b, val_b = map_b
    return col_b[col_a], val_a * val_b[col_a]


def _rows_cancel(*maps) -> np.ndarray:
    """Whether each row of the sum of the row maps ``maps`` is zero: in
    every column a row reaches, the values that land there add to 0."""
    return np.logical_and.reduce([
        sum(np.where(col == col_t, val, 0) for col, val in maps) == 0
        for col_t, _ in maps
    ])


def hierarchy_commutes(cells_per_box_a: int, cells_per_box_b: int, grid: Grid) -> HierarchyReport:
    """Check [component at scale a, component at scale b] for all 9 pairs.

    The report is truthy exactly when every commutator vanishes.

    All nine products of each order are composed at once on the
    operators' row maps (see the module docstring).  Row r of [A, B]
    vanishes when A B and B A put equal values in one column, or both
    put 0.  Every value is a product of two of +/-1, +/-i and exact, so
    each pair is what is_zero(commutator(A, B)) gives.
    """
    axes = ("z", "x", "y")
    maps_a = [_row_map(build_spin_operator(ax, cells_per_box_a, grid)) for ax in axes]
    maps_b = [_row_map(build_spin_operator(ax, cells_per_box_b, grid)) for ax in axes]
    col_a, val_a = (np.stack(arrays) for arrays in zip(*maps_a))
    col_b, val_b = (np.stack(arrays) for arrays in zip(*maps_b))
    # Index [i, j, r] is row r of A_i B_j and of B_j A_i; via_a and via_b
    # are the rows of B_j and A_i that those products read.
    a_ix, b_ix = np.arange(3)[:, None, None], np.arange(3)[None, :, None]
    via_a, via_b = col_a[:, None], col_b[None]
    col_ab, val_ab = col_b[b_ix, via_a], val_a[:, None] * val_b[b_ix, via_a]
    col_ba, val_ba = col_a[a_ix, via_b], val_b[None] * val_a[a_ix, via_b]
    rows_vanish = np.where(
        col_ab == col_ba, val_ab == val_ba, (val_ab == 0) & (val_ba == 0)
    )
    vanish = rows_vanish.all(axis=-1)
    pairs = {
        (ax_a, ax_b): bool(vanish[i, j])
        for i, ax_a in enumerate(axes)
        for j, ax_b in enumerate(axes)
    }
    return HierarchyReport(
        cells_per_box_a=cells_per_box_a,
        cells_per_box_b=cells_per_box_b,
        pairs=pairs,
    )


def position_from_bits(window: TruncationWindow, grid: Grid) -> GridOperator:
    """Weighted digit operator sum(2**k * (I - s_z at scale 2**k) / 2).

    Requires origin = 0 (nonnegative domain) and every scale 2**k in
    the window to be block-representable on the grid.  The resulting
    diagonal entry at a cell covering [c, c + w) is the floor-truncated
    binary value of c over the window; all arithmetic is exact because
    the entries are small dyadics.
    """
    if grid.origin_cells != 0:
        raise MisalignedGrid(
            f"digit operators need an origin of 0, got origin {grid.origin!r}"
        )
    w = float(grid.cell_width)
    k_min = int(round(math.log2(w)))
    if window.k_lo < k_min:
        raise MisalignedGrid(
            f"scale 2**{window.k_lo} is below the cell width 2**{k_min}"
        )
    identity = sp.identity(grid.n_cells, dtype=np.complex128, format="csr")
    total = sp.csr_matrix((grid.n_cells, grid.n_cells), dtype=np.complex128)
    for k in window.ks():
        z_k = build_spin_operator("z", 2 ** (k - k_min), grid)
        total = total + math.ldexp(0.5, k) * (identity - z_k.matrix)
    return GridOperator(
        grid=grid,
        cells_per_box=1,
        label=f"q[{window.k_hi},{window.k_lo}]",
        matrix=total.tocsr(),
    )


def _real_parts(matrix: sp.csr_matrix) -> list[tuple[complex, sp.csr_matrix]]:
    """``matrix`` as sum of unit * part with real parts and unit in {1, 1j};
    parts with no nonzero entry are left out.

    Each part is a copy: ``.real`` and ``.imag`` share their data with
    ``matrix``, and eliminate_zeros() compacts that data in place.
    """
    parts = []
    for unit, part in ((1.0, matrix.real.copy()), (1j, matrix.imag.copy())):
        part.eliminate_zeros()
        if part.nnz:
            parts.append((unit, part))
    return parts


def _entry_slots(part: sp.csr_matrix) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``part``'s stored entries as slots (rows, cols, vals): slot k holds
    the k-th stored entry of each row that has one.  Slot 0 lists every
    row; a row that stores nothing holds 0 at column 0 there."""
    counts = np.diff(part.indptr)
    stored = counts > 0
    first = np.minimum(part.indptr[:-1], part.nnz - 1)
    slots = [(
        np.arange(counts.size),
        np.where(stored, part.indices[first], 0),
        np.where(stored, part.data[first], 0.0),
    )]
    for k in range(1, int(counts.max(initial=0))):
        rows = np.flatnonzero(counts > k)
        at = part.indptr[rows] + k
        slots.append((rows, part.indices[at], part.data[at]))
    return slots


def _times_transpose(applied: np.ndarray, slots: list) -> np.ndarray:
    """applied @ B.T in C order, for the B whose _entry_slots are
    ``slots``: column c is the sum of applied[:, j] * B[c, j] over the
    entries of row c, in slot order."""
    (_, cols, vals), *rest = slots
    product = np.take(applied, cols, axis=1)
    product *= vals
    for rows, cols, vals in rest:
        term = np.take(applied, cols, axis=1)
        term *= vals
        product[:, rows] += term
    return product


def expectation(op_a: GridOperator, op_b: GridOperator, state: SqueezeState) -> complex:
    """<psi| A (x) B |psi> / <psi|psi> with psi sampled at cell midpoints.

    A acts on the first mode, B on the second; the shared grid supplies
    the sample points.  The cell-width factors cancel in the ratio.
    This is ``expectations([(op_a, op_b)], state)[0]``.
    """
    return expectations([(op_a, op_b)], state)[0]


def expectations(
    pairs: list[tuple[GridOperator, GridOperator]], state: SqueezeState
) -> list[complex]:
    """expectation() of every (A, B) in ``pairs``, from one psi.

    All operators must share one grid.  psi is real.  Each operator
    splits into real sparse parts times 1 or i, and each pair's
    numerator, the sum of psi * (A psi B^T), is accumulated over row
    blocks R of A psi, one real product per pair of parts.  A pair's
    value does not depend on the other pairs.

    psi is never held whole: for each block R it is evaluated on the
    sorted union of R and the rows that the A parts' rows in R read,
    and those rows are re-indexed into that union.  An operator that
    maps each block into itself (spin operators whose two-box blocks
    tile R) reads R alone, so every psi row is evaluated once.  One
    that reads rows outside R evaluates those rows again for every
    block that reads them, and holds them next to R while it does.
    Nothing complex or dense n x n is ever built.

    (A psi) B^T is written in C order, as the vdot reads it: column c
    gathers the columns of A psi that row c of a B part stores, scales
    them and sums them in index order, one stored entry of every row at
    a time.  A spin operator stores at most one entry per row, so its
    product is one gather and one scaling of the block.  A general B
    costs block rows x nnz(B) multiply-adds, like a sparse product, and
    holds the block's product and one gathered slot, each at most
    rows x n, never rows x nnz(B).  No pairs give [].
    """
    if not pairs:
        return []
    grid = pairs[0][0].grid
    if any(op.grid != grid for pair in pairs for op in pair):
        raise GridMismatch("operators live on different grids")
    mid = grid.midpoints()
    n = mid.size
    rows = max(1, _BLOCK_ENTRIES // n)
    split = [
        (
            _real_parts(op_a.matrix),
            [(unit, _entry_slots(part)) for unit, part in _real_parts(op_b.matrix)],
        )
        for op_a, op_b in pairs
    ]
    numerators = [0j] * len(pairs)
    denominator = 0.0
    for i in range(0, n, rows):
        stop = min(i + rows, n)
        blocks_a = [
            [(unit_a, part_a[i:stop]) for unit_a, part_a in parts_a] for parts_a, _ in split
        ]
        read = np.unique(np.concatenate(
            [np.arange(i, stop)] + [part.indices for parts in blocks_a for _, part in parts]
        ))
        psi = wavefunction(mid[read, None], mid[None, :], state)
        start = int(np.searchsorted(read, i))
        block = psi[start:start + stop - i]
        denominator += float(np.vdot(block, block))
        for k, (_, parts_b) in enumerate(split):
            for unit_a, part in blocks_a[k]:
                local = sp.csr_matrix(
                    (part.data, np.searchsorted(read, part.indices), part.indptr),
                    shape=(stop - i, read.size),
                )
                applied = local @ psi
                for unit_b, slots in parts_b:
                    product = float(np.vdot(block, _times_transpose(applied, slots)))
                    numerators[k] += unit_a * unit_b * product
    return [numerator / denominator for numerator in numerators]
