"""Exact box-spin operators on a finite position grid.

A grid of 2**p cells of dyadic width discretizes an interval of the
position axis.  Boxes of ``cells_per_box`` cells carry the spin
structure: s_z is the box parity sign, s_plus translates each odd box
onto the even box below it, s_minus is its transpose, and s_x, s_y are
the usual combinations.  All matrix entries are in {0, +/-1, +/-i}, so
products and commutators of these operators stay on Gaussian integers
far below 2**53 and are exact in double precision; tests can therefore
assert algebraic identities with zero tolerance.
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


def hierarchy_commutes(cells_per_box_a: int, cells_per_box_b: int, grid: Grid) -> HierarchyReport:
    """Check [component at scale a, component at scale b] for all 9 pairs.

    The report is truthy exactly when every commutator vanishes.
    """
    ops_a = {ax: build_spin_operator(ax, cells_per_box_a, grid) for ax in ("z", "x", "y")}
    ops_b = {ax: build_spin_operator(ax, cells_per_box_b, grid) for ax in ("z", "x", "y")}
    pairs = {
        (ax_a, ax_b): is_zero(commutator(op_a, op_b))
        for ax_a, op_a in ops_a.items()
        for ax_b, op_b in ops_b.items()
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
    """
    grid = pairs[0][0].grid
    if any(op.grid != grid for pair in pairs for op in pair):
        raise GridMismatch("operators live on different grids")
    mid = grid.midpoints()
    n = mid.size
    rows = max(1, _BLOCK_ENTRIES // n)
    split = [
        (
            _real_parts(op_a.matrix),
            [(unit, part.T.tocsr()) for unit, part in _real_parts(op_b.matrix)],
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
                for unit_b, part_bt in parts_b:
                    numerators[k] += unit_a * unit_b * float(np.vdot(block, applied @ part_bt))
    return [numerator / denominator for numerator in numerators]
