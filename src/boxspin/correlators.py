"""Pseudo-spin correlators of the squeezed state over a position-box lattice.

Site spin components are defined from position boxes of length ``l``:
``s_z`` is +1 on even boxes and -1 on odd boxes, while ``s_x`` and
``s_y`` are built from the translation that maps each odd box onto the
even box below it.  Every two-site correlator then reduces to one
piece: a mass times the expectation of su(n) * sv(m) under a normal law
with covariance [[c, s], [s, c]]/2 (c = cosh 2r, s = sinh 2r), where n
and m are the boxes of the two coordinates, su and sv are the parity
(1, -1) or the even-box indicator (1, 0) as (even-box value, odd-box
value) pairs, and the mean is 0 or -l/2 on each axis.
The masses are closed forms, written without the difference
c - s = exp(-2r), which cancels; the whole assembly prefactor is in
them, so each piece is its correlator.  See
docs/correlator-reduction.md for the derivations.

Reflection maps box n to box -n - 1 on both axes and leaves the state
unchanged.  It flips s_z and maps each s_x pair of boxes onto a pair,
so czx, cxz and <s_z> are exactly 0 and take no piece.  czz reads the
``density`` piece, cxx and cyy the ``step`` piece.

:func:`~boxspin.quadrature.integrate_gaussian_box_sums` evaluates a
piece at all the box lengths it is asked for at one r: by the theta
series or the erf lattice, whichever it predicts is cheaper, and by the
lattice where the series leaves a nonnegative box sum with few digits.
:func:`correlator_grid` evaluates a sweep's box lengths that way;
:func:`correlator` and :func:`correlator_set` take one box length.
:func:`single_site` needs neither: <s_x> is one 1-D box sum of the
position marginal.  Nor does r = 0, where the state is a product of
the two sites: there ``density`` is exactly 0 and ``step`` is <s_x>
squared (:func:`_evaluate`).

Pieces are cached per (piece, l, r), so a cache hit plans no series
and estimates no lattice work.  The cache holds at most
_PIECE_CACHE_SIZE pieces and drops the oldest insertion when full.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidScale, RangeError
from .gaussian_state import SqueezeState
from .quadrature import IntegralResult, integrate_gaussian_box_sums, integrate_gaussian_line

__all__ = [
    "PAIRS",
    "MIN_BOX_LENGTH",
    "MAX_BOX_LENGTH",
    "CorrelatorSet",
    "correlator",
    "single_site",
    "correlator_set",
    "correlator_grid",
    "czz_sampled",
    "clear_cache",
]

PAIRS = ("zz", "xx", "yy", "zx", "xz")
# The pairs a CorrelatorSet stores; the other two are exactly 0.
_DIAGONAL = ("zz", "xx", "yy")

# Beyond this the xx/yy prefactor exponents can overflow double range.
MAX_BOX_LENGTH = 50.0

# Below this the work grows without bound: <s_x>'s line sum holds about
# 1364/l boxes at r = 5 (350k here, 28 ms), and the theta series'
# exponents, of order 1/l**2, overflow.  Every documented use has l >= 0.03.
MIN_BOX_LENGTH = 2.0**-8

# czz_sampled maps its normal draws to parities this many at a time.
_SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class CorrelatorSet:
    """The correlators at one (l, r), with error estimates.

    The correlation matrix over (z, x, y) is diag(czz, cxx, cyy): czx
    and cxz are exactly 0 by reflection, so they are class constants,
    as are their errors, and every pair in PAIRS reads as c<pair> and
    c<pair>_err.
    """

    l: float
    r: float
    czz: float
    cxx: float
    cyy: float
    czz_err: float
    cxx_err: float
    cyy_err: float
    czx: ClassVar[float] = 0.0
    cxz: ClassVar[float] = 0.0
    czx_err: ClassVar[float] = 0.0
    cxz_err: ClassVar[float] = 0.0

    def __post_init__(self) -> None:
        for pair in _DIAGONAL:
            value = getattr(self, "c" + pair)
            err = getattr(self, "c" + pair + "_err")
            if not 0.0 <= err < math.inf:
                raise RangeError(f"c{pair}_err = {err!r} is not a finite error >= 0")
            if not math.isfinite(value):
                raise RangeError(f"c{pair} = {value!r} is not finite")
            if abs(value) > 1.0 + 10.0 * err + 1e-12:
                raise RangeError(
                    f"c{pair} = {value!r} exceeds magnitude 1 beyond tolerance"
                )

    @classmethod
    def from_pairs(cls, l: float, r: float, values: dict) -> "CorrelatorSet":
        """The set whose ``values[pair]`` is (value, error) for zz, xx and yy; other pairs are ignored."""
        fields = {}
        for pair in _DIAGONAL:
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


def _check_box_length(l: float) -> float:
    l = float(l)
    if not (MIN_BOX_LENGTH <= l <= MAX_BOX_LENGTH):
        raise InvalidScale(
            f"box length must be in [{MIN_BOX_LENGTH}, {MAX_BOX_LENGTH}], got {l!r}"
        )
    return l


# Each piece is exp(log_mass) times the expectation of su(n) * sv(m) under
# the normal law of covariance [[c, s], [s, c]]/2 and mean -(hu, hv)*l/2,
# with boxes [n*l, (n+1)*l).  Per piece: the values of su and sv on even
# and odd boxes, the parity (1, -1) or the even-box indicator (1, 0), and
# (hu, hv).
_PIECES = {
    "density": ((1, -1), (1, -1), (0, 0)),
    "step": ((1, 0), (1, 0), (1, 1)),
}


def _log_mass(name: str, l: float, state: SqueezeState) -> float:
    """Log of the piece's mass, whole assembly prefactor included.

    The piece is then the correlator itself: czz for density, cxx for
    step (cyy = -tanh(s*l**2/2) * cxx).  Written with exp(-2r) where
    c - s = exp(-2r) would cancel.
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
    raise ValueError(f"unknown piece {name!r}")


# Pieces the cache holds: 2 per point, so a sweep of 2048 points fits.
_PIECE_CACHE_SIZE = 4096
_PIECE_CACHE: dict = {}


def clear_cache() -> None:
    _PIECE_CACHE.clear()


def _cache_put(key, result: IntegralResult) -> None:
    """Cache ``result``, first dropping the oldest insertion if the cache is full."""
    if len(_PIECE_CACHE) >= _PIECE_CACHE_SIZE:
        del _PIECE_CACHE[next(iter(_PIECE_CACHE))]
    _PIECE_CACHE[key] = result


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

    At r = 0 the state is a product and no 2-D box sum runs.  Reflecting
    one site alone (box n -> -n - 1) leaves it unchanged and flips that
    site's s_z, so ``density`` is exactly 0.  ``step`` is <s_x>**2, with
    <s_x> the line sum :func:`single_site` takes; its error propagates
    the line's bound e through the square, e*(2|<s_x>| + e), plus the
    product's rounding and the smallest subnormal for its underflow.
    """
    if state.r == 0.0:
        results = [_product_piece(name, l, state) for l in l_values]
    else:
        su, sv, shifts = _PIECES[name]
        log_masses = [_log_mass(name, l, state) for l in l_values]
        results = integrate_gaussian_box_sums(l_values, state.r, su, sv, log_masses, shifts)
    for l, result in zip(l_values, results):
        _cache_put((name, l, state.r), result)
    return results


def _site_x_line(l: float, state: SqueezeState) -> IntegralResult:
    """<s_x> as one line sum; see :func:`single_site`."""
    log_mass = math.log(2.0) - state.cosh2r * l * l / 4.0
    return integrate_gaussian_line(l, state.sigma, (1, 0), -l / 2.0, log_mass)


def _product_piece(name: str, l: float, state: SqueezeState) -> IntegralResult:
    """One piece of the unsqueezed product state in closed form; see :func:`_evaluate`."""
    if name == "density":
        return IntegralResult(0.0, 0.0, 0)
    line = _site_x_line(l, state)
    sx, e = line.value, line.error_estimate
    error = e * (2.0 * abs(sx) + e) + sys.float_info.epsilon * sx * sx + math.ulp(0.0)
    return IntegralResult(sx * sx, error, 0)


# The piece each pair reads; czx and cxz, exactly 0, read none.
_PAIR_PIECES = {"zz": "density", "xx": "step", "yy": "step"}


def _check_pair(pair: str) -> str:
    if pair not in PAIRS:
        raise ValueError(f"pair must be one of {PAIRS}, got {pair!r}")
    return pair


def _pair_value(pair: str, l: float, state: SqueezeState, piece) -> tuple[float, float]:
    """(value, error) of ``pair`` at box length l; ``piece(name)`` gives a piece there."""
    name = _PAIR_PIECES.get(pair)
    if name is None:
        return 0.0, 0.0
    result = piece(name)
    if pair == "yy":
        # The diagonal translate product is exp(s*l**2) times the
        # anti-diagonal one, so cyy/cxx = -(1 - e)/(1 + e) with
        # e = exp(-s*l**2).
        ratio = math.tanh(state.sinh2r * l * l / 2.0)
        return -ratio * result.value, ratio * result.error_estimate
    # zz: the parity sum; xx: the translate product.
    return result.value, result.error_estimate


def correlator(pair: str, l: float, r: float) -> tuple[float, float]:
    """Two-site correlator for ``pair`` in {'zz', 'xx', 'yy', 'zx', 'xz'}.

    Returns (value, error_estimate).
    """
    pair = _check_pair(pair)
    l = _check_box_length(l)
    state = SqueezeState(r)
    return _pair_value(pair, l, state, lambda name: _lattice_piece(name, l, state))


def single_site(axis: str, l: float, r: float) -> tuple[float, float]:
    """Single-site expectation of s_z or s_x.  Returns (value, error).

    <s_z> is exactly 0: reflection maps box n of the centred marginal onto
    box -n - 1, of opposite parity.  <s_x> sums 2*psi(u, v)*psi(u + l, v)
    over every v and over u in the even boxes.  That product is
    2*exp(-c*l**2/4) times a normal density whose u-marginal is
    N(-l/2, c/2), so the sum is that mass times the probability that the
    marginal falls in an even box.
    """
    l = _check_box_length(l)
    state = SqueezeState(r)
    if axis == "z":
        return 0.0, 0.0
    if axis == "x":
        res = _site_x_line(l, state)
        return res.value, res.error_estimate
    raise ValueError(f"axis must be 'z' or 'x', got {axis!r}")


def correlator_set(l: float, r: float) -> CorrelatorSet:
    """The correlators at one (l, r) as a validated set.

    At r = 0 they are in closed form: czz is (0.0, 0.0) and cxx is
    single_site("x", l, 0.0) squared, with that bound carried through
    the square; no 2-D box sum runs.
    """
    l = _check_box_length(l)
    state = SqueezeState(r)
    values = {pair: _pair_value(pair, l, state, lambda name: _lattice_piece(name, l, state)) for pair in _DIAGONAL}
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
        for name in dict.fromkeys(_PAIR_PIECES[pair] for pair in pairs if pair in _PAIR_PIECES)
    }
    return [
        {pair: _pair_value(pair, l, state, lambda name: pieces[name][i]) for pair in pairs}
        for i, l in enumerate(l_values)
    ]


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
