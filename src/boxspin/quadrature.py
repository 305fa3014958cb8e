"""Signed box sums of Gaussians: theta series, erf closed forms and panels.

Every correlator piece is exp(log_mass) times the expectation of
su(n) * sv(m) under a correlated normal law, with (n, m) the boxes of
length l holding the two coordinates.  Every sign has period 2 in the
box index, so each sign argument is a pair (s_even, s_odd): its value
on even boxes and on odd boxes, each in {-1, 0, +1}.  Entry points:

* :class:`PoissonSeries` sums that expectation as a theta series.
  Poisson summation turns the box sum into a double series over the
  signs' Fourier coefficients, whose terms fall off as Gaussians in
  the frequencies.  Its error is an explicit tail bound plus a rounding
  floor.  It plans the series at several box lengths before summing
  any.
* :func:`integrate_gaussian_lattice` evaluates the same expectation in
  position space.  One axis is summed in closed form as erf
  differences, the other is integrated on Gauss-Legendre panels
  aligned with the boxes, sized from the box length and cosh 2r alone.
* :func:`gaussian_lattice_work` predicts the lattice's work, and
  :func:`integrate_gaussian_box_sums` weighs it against the series'
  planned terms at each box length and sums the series only where it
  wins.
* :func:`integrate_gaussian_line` is the one-dimensional signed box sum
  of a normal density, entirely in erf differences.

Error estimates of the panel rules combine the difference between the
full-order and half-order rules (panel truncation), what the cut-off
tail carries (an erfc bound), and a floating-point rounding floor
proportional to the summed absolute mass.  Both evaluators reject a
``log_mass`` whose exponential overflows before doing any work.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc, roots_legendre

from .errors import InvalidScale, NonFiniteIntegrand

__all__ = [
    "IntegralResult",
    "integrate_gaussian_lattice",
    "integrate_gaussian_line",
    "integrate_gaussian_box_sums",
    "gaussian_lattice_work",
    "PoissonSeries",
]

# The erf sums keep the edges within this many erf widths (1/sqrt(c)) of
# each Gaussian centre; the lattice reports erfc(6.5) ~ 4e-20 of the mass
# for the boxes beyond, the line the tails beyond its outermost edges.
_ERF_WINDOW = 6.5

# Gauss-Legendre nodes per u-panel of the lattice; its error estimate
# compares this rule with the one of half the order.
_PANEL_ORDER = 20

# Node-by-edge entries the erf evaluator holds at once, both panel rules
# together: 256 kB per array, so a step's arrays stay in cache.  Each
# step's partial sums are added to running totals, so the step also sets
# how the sums group, which moves only the last bits of the value and of
# its rounding bound.
_EDGE_CHUNK_ENTRIES = 1 << 15

_EPS = float(np.finfo(float).eps)

# exp(x) rounds to exactly 0.0 for x below ln(ulp(0)/2), half the
# smallest subnormal (ulp(0)/2 itself rounds to 0, so its log is taken
# in two parts).  The lattice's cut at that exponent is widened by
# _UNDERFLOW_SLACK, far more than the ~1e-12 to which the nodes'
# exponents round.
_LOG_HALF_ULP0 = math.log(math.ulp(0.0)) - math.log(2.0)
_UNDERFLOW_SLACK = 1e-6

# exp(log_mass) overflows beyond this; exp(_LOG_MAX) itself is finite.
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    panels_used: int


@lru_cache(maxsize=None)
def _unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = roots_legendre(order)
    return (x + 1.0) / 2.0, w / 2.0


def _check_log_mass(log_mass: float) -> None:
    if not log_mass <= _LOG_MAX:
        raise NonFiniteIntegrand(
            f"exp(log_mass) overflows: need log_mass <= {_LOG_MAX!r}, got {log_mass!r}"
        )


def _sign_pair(sign) -> tuple[float, float]:
    """A sign (s_even, s_odd) as two floats, checked to be a pair in {-1, 0, +1}."""
    if not (isinstance(sign, (tuple, list)) and len(sign) == 2
            and all(v in (-1, 0, 1) for v in sign)):
        raise InvalidScale(f"a sign must be a pair (s_even, s_odd) in {{-1, 0, +1}}, got {sign!r}")
    return float(sign[0]), float(sign[1])


def _sign_table(sign: tuple[float, float], n: int) -> np.ndarray:
    """sign(k) for k = 0, ..., n - 1: the pair (s_even, s_odd) repeated."""
    table = np.empty(n)
    table[0::2], table[1::2] = sign
    return table


def _edge_count(l, root_c):
    """Edges one erf window spans: enough to reach _ERF_WINDOW/root_c past either side."""
    return math.ceil(2.0 * _ERF_WINDOW / (root_c * l)) + 2


def _lattice_rule(l: float, c: float) -> tuple[float, float]:
    """The lattice's u-panel width and tail radius for box length l, c = cosh 2r.

    The tail radius, max(8*sigma, 3*l), follows the marginal std sigma =
    sqrt(c/2), so the discarded tail is negligible.  Panels are at most
    min(l, 2*sigma/c) wide: two widths of the conditional std
    1/sqrt(2*c), the Gaussian scale of every piece's axis sections,
    where both the full-order and half-order Legendre rules integrate a
    Gaussian to machine precision.
    """
    sigma = math.sqrt(c / 2.0)
    return min(l, 2.0 * (sigma / c)), max(8.0 * sigma, 3.0 * l)


def _panels_per_box(l, panel_width):
    return max(1, math.ceil(l / panel_width - 1e-12))


def _erf_boxes(mu, k0, l, root_c, sv_table, n_edges):
    """Signed erf-difference box masses, a row per centre mu_i.

    Row i holds sv(m) * [erf(root_c*(e_{m+1} - mu_i)) - erf(root_c*(e_m - mu_i))],
    e_m = m*l, for the ``n_edges`` edges from m = k0_i; ``sv_table`` is
    :func:`_sign_table` of sv and n_edges.
    """
    # Edge-major (edge x centre), so every elementwise operation runs over
    # rows as long as the step's nodes rather than as short as one window.
    x = (k0 + np.arange(n_edges)[:, None]) * l
    x -= mu
    x *= root_c
    above = x >= 0.0
    tails = erfc(np.abs(x, out=x), out=x)
    # One erfc per edge, shared by the two boxes that meet there.  A box
    # on one side of mu is the difference of its two tails, which keeps
    # full relative accuracy far out; the box holding mu is 2 minus both.
    lo, hi = tails[:-1], tails[1:]
    diff = lo - hi
    np.negative(diff, out=diff, where=~above[:-1])
    np.subtract(2.0 - lo, hi, out=diff, where=above[1:] & ~above[:-1])
    # sv has period 2, so box k0_i + k takes sv_table[k0_i mod 2 + k].
    rows = (k0 % 2).astype(np.intp)
    diff *= sv_table[rows + np.arange(n_edges - 1)[:, None]]
    # Centre-major, so each centre's boxes are summed contiguously, in the
    # order numpy's pairwise sum takes a row.
    return np.ascontiguousarray(diff.T)


@lru_cache(maxsize=None)
def _paired_rule(full: int, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Both Gauss-Legendre rules on [0, 1]: the full-order nodes, then the half-order ones."""
    (xf, wf), (xh, wh) = _unit_rule(full), _unit_rule(half)
    return np.concatenate((xf, xh)), np.concatenate((wf, wh))


def integrate_gaussian_lattice(
    l: float,
    c: float,
    s: float,
    mean: tuple[float, float],
    su: tuple[int, int],
    sv: tuple[int, int],
    log_mass: float,
) -> IntegralResult:
    """Signed box-lattice sum of a correlated Gaussian, one axis in closed form.

    Computes exp(log_mass) times the expectation of su(n(u)) * sv(n(v))
    for (u, v) normal with mean ``mean`` = (u0, v0) and covariance
    [[c, s], [s, c]]/2, where c = cosh(2r), s = sinh(2r) for some r >= 0
    and n(u) is the box B_n = [n*l, (n+1)*l) holding u; ``su`` and ``sv``
    are sign pairs (s_even, s_odd).  The density is
    exp(-c*x**2 - c*y**2 + 2*s*x*y)/pi in (x, y) = (u - u0, v - v0).  For
    fixed u the v-factor is a Gaussian of centre mu(u) = v0 + (s/c)*(u - u0)
    and width 1/sqrt(2c), so the v box-sum H(u) is sqrt(pi/c)/2 times a
    signed sum of erf differences over the edges within 6.5/sqrt(c) of mu.
    What remains is

        integral of exp(log_mass - (u - u0)**2 / c) / pi * su(n(u)) * H(u) du,

    taken on Gauss-Legendre panels of _PANEL_ORDER nodes aligned with the
    u-boxes, over u0 +/- a tail radius; :func:`_lattice_rule` sizes both
    from l and c.  ``log_mass`` is folded into that exponent.  Beyond
    R0 = sqrt(c*(log_mass - ln(pi) - ln(ulp(0)/2))) from u0 that weight
    rounds to exactly 0.0, so only the panels reaching inside R0 are
    laid, each whole; the others would add exact zeros to the value and
    to every rounding term.  The laid panels are summed in steps of
    _EDGE_CHUNK_ENTRIES node-by-edge entries, each step's partial sums
    added to running totals.

    The u-curvature 1/c = (c**2 - s**2)/c uses c**2 - s**2 = 1: the
    difference c - s = exp(-2r) cancels catastrophically in floating
    point (to 4e-8 relative at r = 5), which shifts the result as much.
    The mean is an input for the same reason: derived from the shifts of
    an exponent 2*s*u*v - c*(u - a)**2 - c*(v - b)**2, it is
    c*(a*c + b*s), which cancels to c**2 times the rounding of a and b.

    The error estimate is |full-order - half-order value| + an erfc bound
    on the cut u-tail + a bound on the v-boxes outside the erf windows +
    a rounding floor.  The floor is eps * sqrt(terms) * sum of |terms|,
    plus eps * |exponent| * |term| summed over the nodes, since exp()
    turns the absolute rounding of a large exponent into relative error
    that a cancelling signed sum does not average away, plus what the
    rounding of absolute positions moves: a node u is off by up to
    2*eps*|u|, which moves its Gaussian factor by 2|u - u0|/c per unit
    shift, and mu(u) and the edges near it are off by a few eps*|mu|,
    which moves H(u) by at most 4*(sqrt(c/pi) + 1/l) per unit shift in
    erf units, and by at most 7*max(1/l, 17*sqrt(c)) times the node's
    sum of |box masses|.  Far from the origin this term dominates.  In
    the floor, terms counts the full-order u-nodes x edges laid;
    ``panels_used`` counts the u-panels laid.
    """
    if not l > 0.0:
        raise InvalidScale(f"box_length must be positive, got {l!r}")
    if not (c >= 1.0 and abs((c - s) * (c + s) - 1.0) <= 1e-6):
        raise InvalidScale(f"need c = cosh(2r), s = sinh(2r); got c={c!r}, s={s!r}")
    _check_log_mass(log_mass)
    su, sv = _sign_pair(su), _sign_pair(sv)
    root_c = math.sqrt(c)
    u0, v0 = (float(m) for m in mean)
    log_w = log_mass - math.log(math.pi)
    # Absolute size of the terms that make up each node's exponent.
    exponent_scale = abs(log_mass) + math.log(math.pi)
    panel_width, tail_radius = _lattice_rule(l, c)
    u_lo = u0 - tail_radius
    u_hi = u0 + tail_radius
    reach = min(tail_radius, _weight_reach(c, log_mass))

    # u-panels: each kept box split into equal panels, clipped to the cut.
    boxes = np.arange(math.floor(u_lo / l), math.floor(u_hi / l) + 1)
    box_signs = np.array(su)[boxes % 2]
    kept = box_signs != 0.0
    per_box = _panels_per_box(l, panel_width)
    h = l / per_box
    starts = (boxes[kept, None] * l + h * np.arange(per_box)).ravel()
    signs = np.repeat(box_signs[kept], per_box)
    ends = np.minimum(starts + h, u_hi)
    starts = np.maximum(starts, u_lo)
    live = ends > starts
    starts, ends, signs = starts[live], ends[live], signs[live]
    widths = ends - starts
    # Panels wholly beyond `reach` of u0 carry exact zeros: only panels
    # [first, last) are laid, each whole.
    first = int(np.searchsorted(ends, u0 - reach, side="right"))
    last = int(np.searchsorted(starts, u0 + reach, side="left"))

    # Each centre mu sums n_edges edges from the first one at or below mu -
    # _ERF_WINDOW/root_c.
    n_edges = _edge_count(l, root_c)
    sv_table = _sign_table(sv, n_edges)

    magnitude = 0.0
    exponent_error = 0.0
    position_error = 0.0
    # The rounding of absolute positions, per unit eps.  A node u is off
    # by up to 2|u| <= 2(|u0| + d), d = |u - u0|, which moves its Gaussian
    # factor by 2d/c per unit: 4(|u0| d + d**2)/c per |term|.  Through it
    # mu = v0 + (s/c)(u - u0) moves by s/c per unit; mu rounds to |v0| +
    # |mu| + 2(s/c)d itself and the edges near it to |mu| + 1/sqrt(c),
    # with |mu| <= |v0| + (s/c)d: v_shift0 + v_shift1*d in all.  H moves
    # by at most h_slope per unit shift, in erf units: every erfc is shared
    # by two boxes and moves by 2/sqrt(pi) exp(-x**2) sqrt(c), and the sum
    # of exp(-x**2) over the edges is at most 1 + sqrt(pi)/(sqrt(c) l).
    # Per box it also moves by at most h_relative times the box's |mass|:
    # an edge's exp(-x**2) is at most 3.5 max(1/(sqrt(c) l), 2(|x| + 1))
    # times the erf difference of the box beside it, and |x| <= 7.5 for
    # every box above 1e-26.
    h_slope = 4.0 * (root_c / math.sqrt(math.pi) + 1.0 / l)
    h_relative = 7.0 * max(1.0 / l, 17.0 * root_c)
    v_shift0 = 3.0 * abs(v0) + 1.0 / root_c + 2.0 * (s / c) * abs(u0)
    v_shift1 = 6.0 * (s / c)
    full, half = _PANEL_ORDER, _PANEL_ORDER // 2
    x, w = _paired_rule(full, half)
    # One pass over the laid panels evaluates both rules' nodes, a few
    # panels at a time.
    step = max(1, _EDGE_CHUNK_ENTRIES // ((full + half) * n_edges))
    total = half_total = 0.0
    for lo in range(first, last, step):
        hi = min(lo + step, last)
        width = widths[lo:hi, None]
        u = starts[lo:hi, None] + width * x
        weight = (width * signs[lo:hi, None]) * w
        d = u - u0
        d2 = d ** 2 / c
        weight *= np.exp(log_w - d2)
        mu = (v0 + (s / c) * d).ravel()
        k0 = np.floor((mu - _ERF_WINDOW / root_c) / l)
        boxes = _erf_boxes(mu, k0, l, root_c, sv_table, n_edges)
        hs, ha = boxes.sum(axis=1), np.abs(boxes, out=boxes).sum(axis=1)
        both = weight * hs.reshape(weight.shape)
        total += float(both[:, :full].sum())
        half_total += float(both[:, full:].sum())
        # Per full-order node: |weight| times the sum of |box masses|,
        # |u - u0| and H's slope bound.
        abs_weight = np.abs(weight[:, :full])
        ha = ha.reshape(weight.shape)[:, :full]
        slope = np.minimum(h_slope, h_relative * ha) * abs_weight
        habs = ha * abs_weight
        offset = np.abs(d[:, :full])
        magnitude += float(habs.sum())
        spread_sum = float((d2[:, :full] * habs).sum())
        exponent_error += spread_sum
        # einsum, not @: BLAS threads long dot products, which costs a
        # hand-off and ties the last bits to its thread count.
        position_error += (
            (4.0 * abs(u0) / c) * float(np.einsum("ij,ij->", offset, habs)) + 4.0 * spread_sum
            + v_shift0 * float(slope.sum())
            + v_shift1 * float(np.einsum("ij,ij->", offset, slope))
        )

    v_scale = 0.5 * math.sqrt(math.pi / c)
    # sqrt(pi/c) bounds |H(u)| and sqrt(pi*c)*exp(log_w) is the full
    # u-weight mass; their product is the mass exp(log_mass).
    mass = math.exp(log_mass)
    tail = mass * float(erfc(tail_radius / root_c))
    window = mass * float(erfc(_ERF_WINDOW))
    laid = last - first
    terms = laid * full * n_edges
    rounding = _EPS * v_scale * (
        (math.sqrt(terms) + exponent_scale) * magnitude + exponent_error + position_error
    )
    value = v_scale * total
    error = v_scale * abs(total - half_total) + tail + window + rounding
    if not (math.isfinite(value) and math.isfinite(error)):
        raise NonFiniteIntegrand("Gaussian lattice sum is not finite")
    return IntegralResult(value=value, error_estimate=error, panels_used=laid)


def integrate_gaussian_line(
    l: float,
    sigma: float,
    sign: tuple[int, int],
    mean: float = 0.0,
    log_mass: float = 0.0,
) -> IntegralResult:
    """exp(log_mass) times the sum over m of sign(m) * P(N(mean, sigma**2) in
    [m*l, (m+1)*l)), in closed form, for the sign pair ``sign`` = (s_even, s_odd).

    Half the signed erf differences of the boxes within _ERF_WINDOW erf
    widths (sigma*sqrt(2)) of the mean and one box more on each side, so
    boxes at equal distance from the mean are kept or dropped together.
    The error is a bound: the normal tail beyond the outermost edges, plus
    eps * (sqrt(boxes) + 8 * x**2) times each |box| with x its nearer edge
    in erf widths from the mean (erfc turns an argument's relative rounding
    into 2 * x**2 times as much), 4 * eps * (1 + |log_mass|) of the value
    for exp(), and the smallest subnormal.  ``panels_used`` is 0.
    """
    if not l > 0.0:
        raise InvalidScale(f"box_length must be positive, got {l!r}")
    if not sigma > 0.0:
        raise InvalidScale(f"sigma must be positive, got {sigma!r}")
    _check_log_mass(log_mass)
    sign = _sign_pair(sign)
    root_c = 1.0 / (math.sqrt(2.0) * sigma)
    reach = _ERF_WINDOW / root_c
    first, last = math.floor((mean - reach) / l) - 1, math.ceil((mean + reach) / l) + 1
    x = (np.arange(first, last + 1) * l - mean) * root_c
    sign_table = _sign_table(sign, x.size)
    boxes = _erf_boxes(np.array([mean]), np.array([first]), l, root_c, sign_table, x.size)[0]
    half_mass = 0.5 * math.exp(log_mass)
    value = half_mass * float(boxes.sum())
    magnitude = np.abs(boxes, out=boxes)
    near = np.minimum(x[:-1] ** 2, x[1:] ** 2)
    # einsum, not @, as in integrate_gaussian_lattice.
    rounding = (
        math.sqrt(boxes.size) * float(magnitude.sum())
        + 8.0 * float(np.einsum("i,i->", magnitude, near))
    )
    error = half_mass * (float(erfc(-x[0]) + erfc(x[-1])) + _EPS * rounding)
    error += 4.0 * _EPS * (1.0 + abs(log_mass)) * abs(value) + math.ulp(0.0)
    return IntegralResult(value=value, error_estimate=error, panels_used=0)


def _weight_reach(c: float, log_mass: float) -> float:
    """Distance from u0 beyond which the lattice's u-weight is exactly 0.0.

    The weight exp(log_mass - ln(pi) - d**2/c) underflows to 0.0 where
    its exponent is below ln(ulp(0)/2), that is beyond R0 =
    sqrt(c*(log_mass - ln(pi) - ln(ulp(0)/2))).  The exponent is widened
    by _UNDERFLOW_SLACK for rounding; 0 where even the peak underflows.
    """
    excess = log_mass - math.log(math.pi) - _LOG_HALF_ULP0 + _UNDERFLOW_SLACK
    return math.sqrt(c * excess) if excess > 0.0 else 0.0


def gaussian_lattice_work(l: float, c: float, log_mass: float) -> int:
    """Predicted u-nodes x edges of one :func:`integrate_gaussian_lattice` call.

    The full-order nodes on every u-panel the lattice lays times the
    edges of one erf window; the half-order rule adds half as much
    again.  Panels are laid within the smaller of the tail radius of
    :func:`_lattice_rule` and the distance R0 where the u-weight
    underflows to 0.0 (which ``log_mass`` sets) from the centre.  Where
    R0 reaches past the tail radius T that is every panel of the
    floor(2*T/l) + 2 boxes a range of that length can touch; where it
    does not, the floor(2*R0/h) + 2 panels of width h that a range of
    length 2*R0 can touch, since that range may end inside a box.  Boxes
    whose sign is 0 are counted, so this overestimates the even-box
    indicator's work.
    """
    panel_width, tail_radius = _lattice_rule(l, c)
    per_box = _panels_per_box(l, panel_width)
    panels = (math.floor(2.0 * tail_radius / l) + 2) * per_box
    reach = _weight_reach(c, log_mass)
    if reach < tail_radius:
        panels = min(panels, math.floor(2.0 * reach / (l / per_box)) + 2)
    return panels * _PANEL_ORDER * _edge_count(l, math.sqrt(c))


# The theta series stops where the dropped terms carry at most this
# share of the Gaussian's mass.
_POISSON_TAIL = 1e-18

# A plan for one box length with at most this many bands of the odd
# block finds them in math, where numpy's fixed cost per call is more
# than the bands' work; wider plans (about 160 bands at l = 50) use numpy.
_SHORT_PLAN_BANDS = 16

# Box lengths whose series are summed together share an exponent block
# as wide as the union of their terms; a group may hold this many
# entries beyond its rows' own terms, about what one group's fixed cost
# buys in elementwise work.
_SERIES_BLOCK_WASTE = 1 << 12


def _sign_fourier(sign) -> tuple[float, float]:
    """Fourier data of a sign pair (s0, s1) = (s_even, s_odd).

    On boxes of length l, u -> sign(floor(u/l)) has period 2l.  Its
    coefficient of exp(i*pi*j*u/l) is (s0 + s1)/2 at j = 0,
    (s0 - s1)/(i*pi*j) at odd j, and 0 at even j != 0.
    Returns ``(F0, f)``: the odd coefficients are -i * f / j.
    """
    s0, s1 = _sign_pair(sign)
    return 0.5 * (s0 + s1), (s0 - s1) / math.pi


def _theta_bound(x: float, cut: float) -> float:
    """1 + sqrt(pi*cut/x), at least the sum over integers n of exp(-x*n**2/cut)."""
    return 1.0 + math.sqrt(math.pi * cut / x)


def _band_count(p: int, q_max: int) -> int:
    """Terms in band p of the odd block.

    Band p keeps the q of the parity opposite to p with |q| <= q_max:
    q_max + 1 of them when q_max + p is odd, else q_max; in band 0 only
    the (q_max + 1)//2 with q > 0; none where q_max is -1.
    """
    return (q_max + 1) // 2 if p == 0 else max(0, q_max + (q_max + p) % 2)


def _band_counts(q_max: np.ndarray, p: np.ndarray) -> np.ndarray:
    """:func:`_band_count` for every band p along the last axis of ``q_max``."""
    counts = q_max + (q_max + p) % 2
    counts[..., 0] = (q_max[..., 0] + 1) // 2
    return np.maximum(counts, 0, out=counts)


class PoissonSeries:
    """The theta series of one signed box sum at several box lengths, planned but not summed.

    At box length l the sum is exp(log_mass) times the expectation of
    su(n(u)) * sv(n(v)) for (u, v) normal with mean -(hu, hv) * l/2,
    (hu, hv) = ``mean_half_boxes``, and covariance [[c, s], [s, c]]/2
    (c = cosh 2r, s = sinh 2r), where n(u) is the box [n*l, (n+1)*l)
    holding u, and ``su``, ``sv`` are sign pairs (s_even, s_odd).  Each
    is a 2l-periodic step function with Fourier coefficients F_j, G_k,
    and Poisson summation gives

        exp(log_mass) * sum over (j, k) of F_j * G_k * (-i)**(hu*j + hv*k)
                        * exp(-pi**2/(4*l**2) * [exp(-2r)*(j**2 + k**2)
                                                 + s*(j + k)**2]).

    Only j, k in {0} and the odd integers carry coefficients, every
    phase is a power of -i, and the sum is real.  ``log_mass`` is folded
    into each term's exponent.  The terms fall off in j + k on the scale
    l*exp(-r) and in j - k on the scale l*exp(r), so small boxes and
    strong squeezing need few of them.

    ``l_values`` holds the box lengths and ``log_masses`` one log_mass
    per box length.  Building it finds, per box length, the blocks, where
    each stops and the tail bound; ``terms[i]`` is the number of
    exponentials :meth:`integrate` takes at box length i, so a caller can
    weigh the series against other work before summing it.

    Indices split by whether j and k are 0 or odd.  The blocks (j, 0)
    and (0, k) have exponent ``axis * j**2`` and ``axis * k**2``; the odd
    block, in p = (j + k)/2 and q = (j - k)/2, has ``a*p**2 + b*q**2``.
    A block's coefficient is 0 when its terms vanish or all have zero
    real part; when every block's is, nothing else is planned.  A term
    equals its mirror at (-j, -k), so the sums run over j > 0 and over
    the half-plane p > 0 or p = 0 < q, doubled.  Box length i keeps the
    odd j <= ``axis_j[i]`` on each axis block and, in band p of the odd
    block, the q of the parity opposite to p with |q| <= ``q_max[i, p]``
    (q > 0 in band 0, q_max -1 past its last band).  Every kept term has
    exponent at most the box length's cut, and ``tail[i]`` bounds the
    dropped terms as a share of the mass.  ``kept[i]`` counts the kept
    terms; where exp(log_mass) underflows to 0, so does every term and
    ``terms[i]`` is 0.
    """

    def __init__(self, l_values, r, su, sv, log_masses, mean_half_boxes=(0, 0)) -> None:
        l_values = list(map(float, l_values))
        for l in l_values:
            if not l > 0.0:
                raise InvalidScale(f"box_length must be positive, got {l!r}")
        if not (math.isfinite(r) and r >= 0.0):
            raise InvalidScale(f"squeezing must be finite and >= 0, got {r!r}")
        self.log_mass = list(map(float, log_masses))
        if len(self.log_mass) != len(l_values):
            raise ValueError("need one log_mass per box length")
        for log_mass in self.log_mass:
            _check_log_mass(log_mass)
        f0u, fu = _sign_fourier(su)
        f0v, fv = _sign_fourier(sv)
        hu, hv = self.shifts = tuple(map(int, mean_half_boxes))
        self.mass = list(map(math.exp, self.log_mass))
        # The phase of F_j G_k is (-i)**(1 + h*j) on an axis block and
        # (-i)**(2 + hu*j + hv*k) on the odd block; when that power is odd
        # for every term the block has no real part.
        self.origin = f0u * f0v
        self.u_axis = u_axis = fu * f0v if hu % 2 else 0.0
        self.v_axis = v_axis = f0u * fv if hv % 2 else 0.0
        self.odd = odd = fu * fv if (hu + hv) % 2 == 0 else 0.0
        self.tail = [0.0] * len(l_values)
        self.axis_j = [0] * len(l_values)
        self.kept = [int(self.origin != 0.0)] * len(l_values)
        if u_axis or v_axis or odd:
            self._plan_blocks(l_values, r)
        # Exponentials integrate() takes per box length: none where the mass underflows.
        self.terms = [k if m else 0 for k, m in zip(self.kept, self.mass)]

    def _plan_blocks(self, l_values: list[float], r: float) -> None:
        """Cut, tail bound, axis_j and bands of every box length."""
        u_axis, v_axis, odd = self.u_axis, self.v_axis, self.odd
        grow, shrink = math.exp(2.0 * r), math.exp(-2.0 * r)
        axes = (u_axis != 0.0) + (v_axis != 0.0)
        self.a, self.b, self.axis, cuts, bands = [], [], [], [], []
        for i, l in enumerate(l_values):
            # pi**2/(4*l**2) * [exp(-2r)*(j**2 + k**2) + sinh(2r)*(j + k)**2]
            # is a*p**2 + b*q**2 and, on the axes, (a + b)/4 * j**2: no c - s.
            scale = math.pi**2 / (2.0 * l * l)
            a = scale * grow
            b = scale * shrink
            axis = 0.25 * (a + b)

            def weight(cut):
                return (
                    (abs(u_axis) + abs(v_axis)) * _theta_bound(axis, cut)
                    + abs(odd) * _theta_bound(a, cut) * _theta_bound(b, cut)
                )

            # With theta = 1 - 1/cut, a dropped exp(-E) (E > cut) is at most
            # exp(-theta*cut) * exp(-E/cut), and no coefficient exceeds its
            # block's, so the dropped terms sum to at most exp(1 - cut) *
            # weight(cut).  A few steps move the cut to where that is _POISSON_TAIL.
            cut = 1.0 - math.log(_POISSON_TAIL)
            for _ in range(3):
                cut = 1.0 + math.log(weight(cut) / _POISSON_TAIL)
            self.tail[i] = math.exp(1.0 - cut) * weight(cut)
            self.axis_j[i] = math.isqrt(int(cut / axis))
            self.kept[i] += axes * ((self.axis_j[i] + 1) // 2)
            self.a.append(a)
            self.b.append(b)
            self.axis.append(axis)
            cuts.append(cut)
            bands.append(math.isqrt(int(cut / a)) + 1)
        if not odd:
            return
        # Band p = 0, 1, ... keeps |q| <= q_max[i][p]: a row per box length
        # over the bands of the widest, -1 past a row's last band.
        if len(bands) == 1 and bands[0] <= _SHORT_PLAN_BANDS:
            # The same floats as numpy's below: sqrt, division and floor
            # are exactly rounded in both.
            a, b, cut = self.a[0], self.b[0], cuts[0]
            q_max = [math.floor(math.sqrt(max(cut - a * p * p, 0.0) / b)) for p in range(bands[0])]
            self.kept[0] += sum(_band_count(p, q) for p, q in enumerate(q_max))
            self.q_max = [q_max]
            return
        p = np.arange(max(bands))
        if len(bands) == 1:
            a, b, cut = self.a[0], self.b[0], cuts[0]
        else:
            a, b, cut = (np.array(v)[:, None] for v in (self.a, self.b, cuts))
        q_max = np.floor(np.sqrt(np.maximum(cut - a * p * p, 0.0) / b)).astype(np.int64)
        if len(bands) == 1:
            q_max = q_max[None]
        else:
            q_max[p >= np.array(bands)[:, None]] = -1
        for i, n in enumerate(_band_counts(q_max, p).sum(axis=1).tolist()):
            self.kept[i] += n
        self.q_max = q_max.tolist()

    def integrate(self, which=None) -> list[IntegralResult]:
        """Sum the planned terms at the box lengths ``which`` (indices; default all).

        Returns one result per index, each what a series planned at that
        box length alone gives.  The error is a bound: the Gaussian-tail
        bound on the dropped terms, plus a rounding floor.  The terms are
        summed exactly (``math.fsum``), so the floor covers each term's
        own rounding: 8 * eps * (1 + |log_mass| + exponent) * |term|
        summed over the terms, since exp() turns the absolute rounding of
        its argument into relative error, plus the smallest subnormal per
        term.  ``panels_used`` is 0.
        """
        which = range(len(self.kept)) if which is None else list(which)
        results, rows = {}, []
        for i in which:
            if i in results:
                continue
            if self.mass[i] == 0.0:
                results[i] = IntegralResult(
                    value=0.0, error_estimate=self.kept[i] * math.ulp(0.0), panels_used=0
                )
            elif not self.kept[i]:
                # The empty sum is exactly 0; only the dropped terms remain.
                results[i] = IntegralResult(
                    value=0.0, error_estimate=self.mass[i] * self.tail[i], panels_used=0
                )
            else:
                results[i] = None
                rows.append(i)
        if len(rows) > 1:
            # Largest first, in groups whose exponent block holds at most
            # _SERIES_BLOCK_WASTE entries beyond their rows' own terms
            # (taking the block as wide as its first row keeps).
            rows.sort(key=self.kept.__getitem__, reverse=True)
            group, size = [], 0
            for i in rows:
                waste = (len(group) + 1) * self.kept[group[0]] - size - self.kept[i] if group else 0
                if waste > _SERIES_BLOCK_WASTE:
                    results.update(zip(group, self._sum_rows(group)))
                    group, size = [], 0
                group.append(i)
                size += self.kept[i]
            rows = group
        if rows:
            results.update(zip(rows, self._sum_rows(rows)))
        return [results[i] for i in which]

    def _sum_rows(self, rows: list[int]) -> list[IntegralResult]:
        """Sum box lengths ``rows``, each keeping some terms, from one exponent block.

        The block has a row per box length, and its columns are the
        union of the rows' kept terms in the order one box length alone
        keeps them: the origin, each axis block's j up to the largest
        ``axis_j``, then the odd block band by band, each band's q up to
        the largest q_max among the rows.  A mask picks each row's own
        terms, which keeps their order; one exp() takes them all, row
        after row, and each row's slice is then summed alone, so numpy's
        pairwise sums group its terms as for that row by itself.  A
        single row keeps every column and needs no mask.
        """
        hu, hv = self.shifts
        many = len(rows) > 1

        def column(values):
            return np.array([values[i] for i in rows])[:, None] if many else values[rows[0]]

        exponents, coefs, masks = [], [], []
        if self.origin:
            exponents.append(np.zeros((len(rows), 1) if many else 1))
            coefs.append([self.origin])
            masks.append(np.ones((len(rows), 1), dtype=bool) if many else None)
        axis_j = max(self.axis_j[i] for i in rows)
        if axis_j and (self.u_axis or self.v_axis):
            j = np.arange(1, axis_j + 1, 2)
            exponent = column(self.axis) * j * j
            within = j <= column(self.axis_j) if many else None
            # Twice the j > 0 half of F_j G_0 (-i)**(h*j) = coef (-i)**(1 + h*j) / j;
            # the two axis blocks share the array when coef and h agree (step).
            blocks = {}
            for coef, h in ((self.u_axis, hu), (self.v_axis, hv)):
                if coef:
                    if (coef, h) not in blocks:
                        blocks[coef, h] = (2.0 * coef) * (1 - (1 + h * j) % 4) / j
                    exponents.append(exponent)
                    coefs.append(blocks[coef, h])
                    masks.append(within)
        if self.odd:
            q_rows = [self.q_max[i] for i in rows]
            union = list(map(max, *q_rows)) if many else q_rows[0]
            # Per band p, in Python since a sum's bands are few next to its
            # terms: the count, the first q less twice the terms of the
            # bands before (q runs up in steps of 2 from 1 in band 0,
            # elsewhere from -union[p] or the next q of the parity opposite
            # to p), and twice F_j G_k (-i)**(hu*j + hv*k) times j*k.  That
            # phase is (-i)**(2 + hu*j + hv*k) with hu*j + hv*k = (hu + hv)*p
            # + (hu - hv)*q, where hu - hv is even and q = p + 1 mod 2: one
            # power of -i per band.
            counts, base, phase, start = [], [], [], 0
            for p, q in enumerate(union):
                first, n = 1 if p == 0 else (q + p + 1) % 2 - q, _band_count(p, q)
                counts.append(n)
                base.append(first - 2 * start)
                phase.append((2.0 * self.odd) * (1 - (2 + (hu + hv) * p + (hu - hv) * (p + 1)) % 4))
                start += n
            p, q, coef = np.repeat(np.array((range(len(union)), base, phase)), counts, axis=1)
            q += 2 * np.arange(q.size)
            pp, qq = p * p, q * q
            exponents.append(column(self.a) * pp + column(self.b) * qq)
            # j*k = p**2 - q**2.
            coefs.append(coef / (pp - qq))
            if many:
                masks.append(np.repeat(q_rows, counts, axis=1) >= np.abs(q))
        counts = [self.kept[i] for i in rows]
        log_mass = [self.log_mass[i] for i in rows]
        exponent = np.concatenate(exponents, axis=-1)
        terms = np.concatenate(coefs)
        if many:
            row, col = np.nonzero(np.concatenate(masks, axis=1))
            exponent = exponent[row, col]
            terms = terms[col]
            terms *= np.exp(np.repeat(log_mass, counts) - exponent)
        else:
            terms *= np.exp(log_mass[0] - exponent)
        values = terms.tolist()
        magnitude = np.abs(terms, out=terms)
        spread = exponent * magnitude
        results = []
        end = 0
        for i, n, m in zip(rows, counts, log_mass):
            start, end = end, end + n
            # Summed exactly, so mirrored terms that cancel give exactly 0.
            value = math.fsum(values[start:end])
            rounding = 8.0 * _EPS * (
                (1.0 + abs(m)) * float(magnitude[start:end].sum())
                + float(spread[start:end].sum())
            ) + n * math.ulp(0.0)
            error = self.mass[i] * self.tail[i] + rounding
            if not (math.isfinite(value) and math.isfinite(error)):
                raise NonFiniteIntegrand("theta series sum is not finite")
            results.append(IntegralResult(value=value, error_estimate=error, panels_used=0))
        return results


# Above this error relative to its value, a series result whose signs
# are nonnegative is replaced by the lattice's.
_SERIES_RELATIVE_ERROR = 1e-12


def _lost_digits(result: IntegralResult) -> bool:
    """Whether a nonzero series result has an error above _SERIES_RELATIVE_ERROR of its value."""
    return result.value != 0.0 and result.error_estimate > _SERIES_RELATIVE_ERROR * abs(result.value)


def integrate_gaussian_box_sums(
    l_values,
    r: float,
    su: tuple[int, int],
    sv: tuple[int, int],
    log_masses,
    mean_half_boxes: tuple[int, int],
) -> list[IntegralResult]:
    """One signed box sum at each box length of ``l_values``, by the cheaper evaluator.

    Takes the arguments of :class:`PoissonSeries`, whose one plan covers
    every box length.  At each, the series is summed where it is empty
    or takes fewer terms than the lattice's predicted work
    (:func:`gaussian_lattice_work`); :func:`integrate_gaussian_lattice`
    runs elsewhere.  The series adds and subtracts terms as large as the
    mass, so a sum far below its mass keeps few digits, while with both
    sign pairs nonnegative the lattice only adds box masses and
    keeps them all: there the lattice also replaces a series result that
    lost its digits.  A series value of 0 means the mass underflowed,
    which the lattice would repeat.
    """
    series = PoissonSeries(l_values, r, su, sv, log_masses, mean_half_boxes)
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    nonnegative = min(*su, *sv) >= 0
    log_masses = series.log_mass
    summed = [
        i for i, (l, terms) in enumerate(zip(l_values, series.terms))
        if not terms or terms < gaussian_lattice_work(l, c, log_masses[i])
    ]
    results = [None] * len(log_masses)
    for i, result in zip(summed, series.integrate(summed) if summed else ()):
        results[i] = result
    for i, (l, terms, result) in enumerate(zip(l_values, series.terms, results)):
        # An empty series is an exact 0.
        if terms and (result is None or _lost_digits(result) and nonnegative):
            mean = tuple(-h * l / 2.0 for h in series.shifts)
            results[i] = integrate_gaussian_lattice(l, c, s, mean, su, sv, log_masses[i])
    return results
