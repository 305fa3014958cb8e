"""Pseudo-spin correlators of the squeezed state over a position-box lattice.

Site spin components are defined from position boxes of length ``l``:
``s_z`` is +1 on even boxes and -1 on odd boxes, while ``s_x`` and
``s_y`` are built from the translation that maps each odd box onto the
even box below it.  Every two-site correlator then reduces to one
piece: a mass times the expectation of su(n) * sv(m) under a normal law
with covariance [[c, s], [s, c]]/2 (c = cosh 2r, s = sinh 2r), where n
and m are the boxes of the two coordinates, su and sv are the parity,
the even-box indicator or 1, and the mean is 0 or -l/2 on each axis.
The masses are closed forms, written without the difference
c - s = exp(-2r), which cancels; the whole assembly prefactor is in
them, so each piece is its correlator.  See
docs/correlator-reduction.md for the derivations.

Each piece is evaluated by one of two closed forms in
:mod:`boxspin.quadrature`: the theta series of
:class:`~boxspin.quadrature.PoissonSeries`, or the erf lattice of
:func:`~boxspin.quadrature.integrate_gaussian_lattice`.
:func:`_evaluate` plans the series once for all the box lengths it is
asked for at one r, sums it at those where it takes fewer terms than
the lattice's predicted work, and falls back to the lattice where the
series leaves a nonnegative piece with few significant digits.
:func:`correlator_grid` evaluates a sweep's box lengths that way;
:func:`correlator` and :func:`correlator_set` take one box length.

Results are cached per (piece, l, r), so a cache hit builds no spec.
The cache holds at most _PIECE_CACHE_SIZE pieces and drops the oldest
insertion when full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidScale, RangeError
from .gaussian_state import SqueezeState
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    PoissonSeries,
    gaussian_lattice_floor,
    gaussian_lattice_work,
    integrate_gaussian_lattice,
    integrate_gaussian_line,
)

__all__ = [
    "PAIRS",
    "MAX_BOX_LENGTH",
    "CorrelatorSet",
    "correlator",
    "single_site",
    "correlator_set",
    "correlator_grid",
    "rotated_correlator",
    "czz_sampled",
    "default_spec",
    "clear_cache",
]

PAIRS = ("zz", "xx", "yy", "zx", "xz")

# Beyond this the xx/yy prefactor exponents can overflow double range.
MAX_BOX_LENGTH = 50.0

# czz_sampled maps its normal draws to parities this many at a time.
_SAMPLE_CHUNK = 1 << 16

# A set's cross correlators must agree within this multiple of their
# combined error bounds (czx = cxz exactly, so a multiple of 1 already
# holds for correct values; 10 leaves a margin).
_SYMMETRY_SLACK = 10.0


@dataclass(frozen=True)
class CorrelatorSet:
    """All five measured correlators at one (l, r), with error estimates."""

    l: float
    r: float
    czz: float
    cxx: float
    cyy: float
    czx: float
    cxz: float
    czz_err: float
    cxx_err: float
    cyy_err: float
    czx_err: float
    cxz_err: float

    def __post_init__(self) -> None:
        for name in ("czz", "cxx", "cyy", "czx", "cxz"):
            value = getattr(self, name)
            err = getattr(self, name + "_err")
            if abs(value) > 1.0 + 10.0 * err + 1e-12:
                raise RangeError(
                    f"{name} = {value!r} exceeds magnitude 1 beyond tolerance"
                )
        slack = _SYMMETRY_SLACK * (self.czx_err + self.cxz_err) + 1e-9
        if abs(self.czx - self.cxz) > slack:
            raise RangeError(
                f"czx and cxz differ by {abs(self.czx - self.cxz):.3e}, "
                f"more than the allowed {slack:.3e}"
            )

    @classmethod
    def from_pairs(cls, l: float, r: float, values: dict) -> "CorrelatorSet":
        """The set whose ``values[pair]`` is (value, error) for every pair in PAIRS."""
        fields = {}
        for pair in PAIRS:
            fields["c" + pair], fields["c" + pair + "_err"] = values[pair]
        return cls(l=float(l), r=float(r), **fields)

    def as_dict(self) -> dict:
        return {
            "l": self.l,
            "r": self.r,
            "czz": self.czz,
            "cxx": self.cxx,
            "cyy": self.cyy,
            "czx": self.czx,
            "cxz": self.cxz,
            "errs": {
                "czz": self.czz_err,
                "cxx": self.cxx_err,
                "cyy": self.cyy_err,
                "czx": self.czx_err,
                "cxz": self.cxz_err,
            },
        }


def default_spec(l: float, state: SqueezeState) -> QuadratureSpec:
    """The erf lattice's spec for this box length and state.

    The tail radius, max(8*sigma, 3*l), follows the marginal std sigma,
    so the discarded tail is negligible.  Panels are capped at
    min(l, 2*sigma/cosh2r): two widths of the conditional std
    1/sqrt(2*cosh2r), the Gaussian scale of every piece's axis sections,
    where both the full-order and half-order Legendre rules integrate a
    Gaussian to machine precision.
    """
    return QuadratureSpec(
        max_panel_width=min(l, 2.0 * (state.sigma / state.cosh2r)),
        tail_radius=max(8.0 * state.sigma, 3.0 * l),
    )


def _check_box_length(l: float) -> float:
    l = float(l)
    if not (math.isfinite(l) and 0.0 < l <= MAX_BOX_LENGTH):
        raise InvalidScale(
            f"box length must be in (0, {MAX_BOX_LENGTH}], got {l!r}"
        )
    return l


# Sign functions over box indices.  Boxes are [n*l, (n+1)*l); the box
# parity (-1)**n and the even-box indicator both follow Python's
# floor-mod convention for negative n.  Every piece's sign over a box
# pair is a product su(n) * sv(m) of two of these.

def _parity(n):
    return 1 - 2 * (n % 2)


def _even(n):
    return (n % 2 == 0).astype(int)


def _one(n):
    return np.ones_like(n)


# Each piece is exp(log_mass) times the expectation of su(n) * sv(m) under
# the normal law of covariance [[c, s], [s, c]]/2 and mean -(hu, hv)*l/2;
# per piece: (su, sv, (hu, hv)).
_PIECES = {
    "density": (_parity, _parity, (0, 0)),
    "step": (_even, _even, (1, 1)),
    "zx": (_parity, _even, (0, 1)),
    "xz": (_even, _parity, (1, 0)),
    "site_x": (_even, _one, (1, 0)),
}


# Pieces whose signs are never negative, and the relative error of the
# theta series above which they go to the lattice instead.
_NONNEGATIVE_PIECES = ("step", "site_x")
_SERIES_RELATIVE_ERROR = 1e-12


def _log_mass(name: str, l: float, state: SqueezeState) -> float:
    """Log of the piece's mass, whole assembly prefactor included.

    The piece is then the correlator itself: czz for density, cxx for
    step (cyy = -tanh(s*l**2/2) * cxx), czx, cxz, and <s_x> for site_x.
    Written with exp(-2r) where c - s = exp(-2r) would cancel.
    """
    if name == "density":
        return 0.0
    if name == "step":
        # (2/pi)*(e_diag + e_anti) times the anti-diagonal translate
        # product's mass, with e_anti/e_diag = exp(-s*l**2).
        return (
            math.log(2.0)
            + math.log1p(math.exp(-state.sinh2r * l * l))
            - l * l * math.exp(-2.0 * state.r) / 2.0
        )
    if name in _PIECES:
        return math.log(2.0) - state.cosh2r * l * l / 4.0
    raise ValueError(f"unknown piece {name!r}")


def _series_lost_digits(name: str, result: IntegralResult) -> bool:
    """Whether the theta series left a nonnegative piece with few digits.

    The series adds and subtracts terms as large as the mass, so a piece
    far below its mass keeps few digits; with nonnegative signs the
    lattice only adds box masses and keeps them all.  A value of 0 means
    the mass underflowed, which the lattice would repeat.
    """
    return (
        name in _NONNEGATIVE_PIECES
        and result.value != 0.0
        and result.error_estimate > _SERIES_RELATIVE_ERROR * abs(result.value)
    )


# Pieces the cache holds: 4 per point, so a sweep of 1024 points fits.
_PIECE_CACHE_SIZE = 4096
_PIECE_CACHE: dict = {}


def clear_cache() -> None:
    _PIECE_CACHE.clear()


def _cache_put(key, result: IntegralResult) -> None:
    """Cache ``result``, first dropping the oldest insertion if the cache is full."""
    if len(_PIECE_CACHE) >= _PIECE_CACHE_SIZE:
        del _PIECE_CACHE[next(iter(_PIECE_CACHE))]
    _PIECE_CACHE[key] = result


def _erf_piece(name: str, l: float, state: SqueezeState, spec: QuadratureSpec) -> IntegralResult:
    """One piece by the erf lattice on ``spec``."""
    su, sv, shifts = _PIECES[name]
    mean = (-shifts[0] * l / 2.0, -shifts[1] * l / 2.0)
    return integrate_gaussian_lattice(
        l, state.cosh2r, state.sinh2r, mean, su, sv, _log_mass(name, l, state), spec
    )


def _lattice_piece(name: str, l: float, state: SqueezeState) -> IntegralResult:
    """One piece, prefactor included, cached per (name, l, r); see :func:`_evaluate`."""
    hit = _PIECE_CACHE.get((name, l, state.r))
    return hit if hit is not None else _evaluate(name, [l], state)[0]


def _pieces(name: str, l_values: list[float], state: SqueezeState) -> list[IntegralResult]:
    """:func:`_lattice_piece` at each box length; the misses are evaluated together."""
    r = state.r
    found = {l: _PIECE_CACHE.get((name, l, r)) for l in l_values}
    missing = [l for l, hit in found.items() if hit is None]
    if missing:
        found.update(zip(missing, _evaluate(name, missing, state)))
    return [found[l] for l in l_values]


def _evaluate(name: str, l_values: list[float], state: SqueezeState) -> list[IntegralResult]:
    """One piece at each of the distinct box lengths ``l_values``, cached per (name, l, r).

    One theta-series plan covers every box length.  At each, the series
    evaluates the piece where it takes fewer terms than the erf
    lattice's u-nodes x edges under :func:`default_spec`, counted over
    the panels the lattice lays for this piece's mass, and the lattice
    on that spec elsewhere and where the series leaves a nonnegative
    piece with few digits.  The spec is built only where the series'
    terms reach the lattice's floor or the lattice runs.  The series is
    summed at once at every box length where it wins.
    """
    su, sv, shifts = _PIECES[name]
    log_masses = [_log_mass(name, l, state) for l in l_values]
    series = PoissonSeries(l_values, state.r, su, sv, log_masses, shifts)
    summed, defaults = [], {}
    for i, (l, terms) in enumerate(zip(l_values, series.terms)):
        if terms >= gaussian_lattice_floor(l, state.cosh2r):
            defaults[i] = default = default_spec(l, state)
            if terms >= gaussian_lattice_work(l, state.cosh2r, log_masses[i], default):
                continue
        summed.append(i)
    results = [None] * len(l_values)
    for i, result in zip(summed, series.integrate(summed) if summed else ()):
        results[i] = result
    for i, (l, terms) in enumerate(zip(l_values, series.terms)):
        # An empty series (zx, xz, or a mass that underflows) is an exact 0.
        if terms and (results[i] is None or _series_lost_digits(name, results[i])):
            results[i] = _erf_piece(name, l, state, defaults.get(i) or default_spec(l, state))
        _cache_put((name, l, state.r), results[i])
    return results


# The piece each pair reads.
_PAIR_PIECES = {"zz": "density", "xx": "step", "yy": "step", "zx": "zx", "xz": "xz"}


def _check_pair(pair: str) -> str:
    if pair not in PAIRS:
        raise ValueError(f"pair must be one of {PAIRS}, got {pair!r}")
    return pair


def _pair_value(pair: str, l: float, state: SqueezeState, piece: IntegralResult) -> tuple[float, float]:
    """(value, error) of ``pair`` from its piece at box length l."""
    if pair == "yy":
        # The diagonal translate product is exp(s*l**2) times the
        # anti-diagonal one, so cyy/cxx = -(1 - e)/(1 + e) with
        # e = exp(-s*l**2).
        ratio = math.tanh(state.sinh2r * l * l / 2.0)
        return -ratio * piece.value, ratio * piece.error_estimate
    # zz: the parity sum; xx: the translate product; zx / xz: a parity
    # sum on one site against the translate overlap on the other.
    return piece.value, piece.error_estimate


def correlator(pair: str, l: float, r: float) -> tuple[float, float]:
    """Two-site correlator for ``pair`` in {'zz', 'xx', 'yy', 'zx', 'xz'}.

    Returns (value, error_estimate).
    """
    pair = _check_pair(pair)
    l = _check_box_length(l)
    state = SqueezeState(r)
    return _pair_value(pair, l, state, _lattice_piece(_PAIR_PIECES[pair], l, state))


def single_site(axis: str, l: float, r: float) -> tuple[float, float]:
    """Single-site expectation of s_z or s_x.  Returns (value, error).

    <s_z> is the parity sum over the position marginal, a centred normal,
    in closed form; <s_x> is the site_x piece.
    """
    l = _check_box_length(l)
    state = SqueezeState(r)
    if axis == "z":
        res = integrate_gaussian_line(l, state.sigma, _parity)
        return res.value, res.error_estimate
    if axis == "x":
        res = _lattice_piece("site_x", l, state)
        return res.value, res.error_estimate
    raise ValueError(f"axis must be 'z' or 'x', got {axis!r}")


def correlator_set(l: float, r: float) -> CorrelatorSet:
    """All five correlators at one (l, r) as a validated set."""
    l = _check_box_length(l)
    state = SqueezeState(r)
    values = {
        pair: _pair_value(pair, l, state, _lattice_piece(_PAIR_PIECES[pair], l, state))
        for pair in PAIRS
    }
    return CorrelatorSet.from_pairs(l, r, values)


def correlator_grid(pairs, l_values, r: float) -> list[dict[str, tuple[float, float]]]:
    """The correlators ``pairs`` at every box length of ``l_values``, at one r.

    Returns one {pair: (value, error)} per box length, in order, each
    what :func:`correlator` gives there, to the bit, and from the same
    cache.  Each piece plans its theta series
    once for all the box lengths it misses (:func:`_pieces`).
    """
    pairs = [_check_pair(pair) for pair in pairs]
    l_values = [_check_box_length(l) for l in l_values]
    state = SqueezeState(r)
    pieces = {
        name: _pieces(name, l_values, state)
        for name in dict.fromkeys(_PAIR_PIECES[pair] for pair in pairs)
    }
    return [
        {pair: _pair_value(pair, l, state, pieces[_PAIR_PIECES[pair]][i]) for pair in pairs}
        for i, l in enumerate(l_values)
    ]


def rotated_correlator(
    angle_a: float,
    angle_b: float,
    corr: CorrelatorSet,
) -> float:
    """Correlator of spins rotated in the x-z plane by the given angles.

    Direction at angle t measures cos(t)*s_z + sin(t)*s_x, so the full
    bilinear form is ca*cb*czz + sa*sb*cxx + ca*sb*czx + sa*cb*cxz; the
    cross terms are kept even though they vanish for this state, so the
    symmetry is tested rather than baked in.
    """
    ca, sa = math.cos(angle_a), math.sin(angle_a)
    cb, sb = math.cos(angle_b), math.sin(angle_b)
    return (
        ca * cb * corr.czz
        + sa * sb * corr.cxx
        + ca * sb * corr.czx
        + sa * cb * corr.cxz
    )


def czz_sampled(
    l: float,
    r: float,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of the parity-parity correlator.

    Draws position pairs from the joint density (a bivariate normal
    with per-mode variance cosh(2r)/2 and correlation tanh(2r)) and
    averages the box-parity product.  Returns (estimate, std_error).

    The first normal stream is drawn whole; the second is drawn chunk
    by chunk, _SAMPLE_CHUNK samples at a time, which continues the same
    generator stream, so only one stream of n_samples is ever held.
    Each chunk is mapped to box parities at once.  The mean of the +/-1
    products is (n - 2 * odd)/n with ``odd`` the count of odd box-index
    sums, which is what summing the +/-1 values gives exactly.
    """
    l = _check_box_length(l)
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    state = SqueezeState(r)
    rng = np.random.Generator(np.random.PCG64(seed))
    sigma = state.sigma
    rho = state.rho
    root = math.sqrt(1.0 - rho * rho)
    z1 = rng.standard_normal(n_samples)
    odd = 0
    buffers = np.empty((2, min(n_samples, _SAMPLE_CHUNK)))
    for i in range(0, n_samples, _SAMPLE_CHUNK):
        z1c = z1[i:i + _SAMPLE_CHUNK]
        z2c, q2 = buffers[:, :z1c.size]
        rng.standard_normal(out=z2c)
        # q2 = sigma * (rho * z1c + root * z2c), then both box indices;
        # the first mode's index q overwrites the z1 chunk it came from.
        np.multiply(z1c, rho, out=q2)
        q2 += np.multiply(z2c, root, out=z2c)
        q2 *= sigma
        q2 /= l
        np.floor(q2, out=q2)
        q = np.multiply(z1c, sigma, out=z1c)
        q /= l
        np.floor(q, out=q)
        # The floors are integers, so half their sum has a fractional
        # part of exactly 0 (even) or 0.5 (odd); an infinite or nan sum
        # leaves nan, as fmod(sum, 2) would.
        q += q2
        q *= 0.5
        q -= np.floor(q, out=q2)
        odd += int(np.count_nonzero(q))
    mean = (n_samples - 2 * odd) / n_samples
    # parity is +/-1, so the sample variance is 1 - mean**2 up to the
    # n/(n-1) correction.
    var = max(0.0, 1.0 - mean * mean) * n_samples / (n_samples - 1)
    return mean, math.sqrt(var / n_samples)
