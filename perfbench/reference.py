"""Independent reference evaluator for the five box-spin correlators.

It shares no code with ``boxspin.quadrature`` or ``boxspin.correlators``
and uses a different algorithm.  Every correlator piece is

    exp(log_factor) * sum_{n, m} su(n) sv(m) * integral over B_n x B_m of
        exp(2 s u v - c (u - a)**2 - c (v - b)**2)

with c = cosh 2r, s = sinh 2r, boxes B_n = [n l, (n+1) l) and the shifts
and prefactors of docs/correlator-reduction.md.  For fixed u the
v-integrand is a Gaussian of centre mu(u) = b + (s/c) u and width
1/sqrt(2c), so the v box-sum is a short signed sum of erf differences
over the edges near mu.  What remains is a 1-D Gaussian in u, centre
u0 = c (a c + b s) and variance c/2, times that smooth erf sum; it is
integrated by Gauss-Legendre panels aligned with the u-box edges.
Exponents are combined in log form before ``exp`` so nothing overflows
up to l = 50, r = 5.

The error of each value is |order-24 rule - order-16 rule| + the
Gaussian u-tail beyond the cut + a rounding term, eps * sqrt(terms
summed) * the summed magnitudes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, erfc, roots_legendre

PAIRS = ("zz", "xx", "yy", "zx", "xz")

# u is cut at TAIL_STD * sqrt(c) from its centre (the weight's std is
# sqrt(c/2)); v-edges further than V_WINDOW / sqrt(c) from mu have
# saturated erf values and are left out of the sum.
TAIL_STD = 7.5
V_WINDOW = 6.5
ORDER_HI = 24
ORDER_LO = 16
EPS = 2.2e-16
# Nodes per evaluation chunk; bounds memory to a few tens of MB.
CHUNK_NODES = 200_000


def _parity(n):
    return 1.0 - 2.0 * np.mod(n, 2)


def _even(n):
    return (np.mod(n, 2) == 0).astype(float)


def _one(n):
    return np.ones_like(n, dtype=float)


def _gauss_rule(order):
    x, w = roots_legendre(order)
    return (x + 1.0) / 2.0, w / 2.0


_RULES = {order: _gauss_rule(order) for order in (ORDER_HI, ORDER_LO)}


def _v_box_sum(mu, l, c, sv, k_max):
    """sum_m sv(m) * integral over B_m of exp(-c (v - mu)**2) dv, per node."""
    root_c = math.sqrt(c)
    m0 = np.floor((mu - V_WINDOW / root_c) / l)
    m = m0[:, None] + np.arange(k_max)[None, :]
    lo = root_c * (m * l - mu[:, None])
    hi = root_c * ((m + 1.0) * l - mu[:, None])
    # Both ends on one side of mu: use erfc to keep the difference exact.
    both_pos = lo >= 0.0
    both_neg = hi <= 0.0
    diff = np.where(
        both_pos, erfc(lo) - erfc(hi),
        np.where(both_neg, erfc(-hi) - erfc(-lo), erf(hi) - erf(lo)),
    )
    terms = sv(m) * diff
    scale = 0.5 * math.sqrt(math.pi / c)
    return scale * terms.sum(axis=1), scale * np.abs(terms).sum(axis=1)


def piece(l, r, a, b, su, sv, log_factor):
    """One signed lattice piece, already multiplied by exp(log_factor).

    Returns (value, error_estimate).
    """
    c = math.cosh(2.0 * r)
    s = math.sinh(2.0 * r)
    root_c = math.sqrt(c)
    u0 = c * (a * c + b * s)
    g0 = c * (a * c + b * s) ** 2 - c * a * a
    log_w = log_factor + g0

    half_width = TAIL_STD * root_c
    u_lo, u_hi = u0 - half_width, u0 + half_width
    # Panel width: half the shorter of the weight's std and the u-scale
    # on which mu(u) crosses one erf width.
    scale = math.sqrt(c / 2.0) if s == 0.0 else min(math.sqrt(c / 2.0), root_c / s)
    h_max = 0.5 * scale

    n_lo = math.floor(u_lo / l)
    n_hi = math.floor(u_hi / l)
    boxes = np.arange(n_lo, n_hi + 1)
    box_sign = su(boxes)
    boxes = boxes[box_sign != 0.0]
    box_sign = box_sign[box_sign != 0.0]
    per_box = max(1, math.ceil(l / h_max - 1e-12))
    h = l / per_box
    # Panel starts, clipped to [u_lo, u_hi] on the two end boxes.
    starts = (boxes[:, None] * l + h * np.arange(per_box)[None, :]).ravel()
    signs = np.repeat(box_sign, per_box)
    ends = np.minimum(starts + h, u_hi)
    starts = np.maximum(starts, u_lo)
    keep = ends > starts
    starts, ends, signs = starts[keep], ends[keep], signs[keep]

    k_max = int(math.ceil(2.0 * V_WINDOW / (root_c * l))) + 2
    values = {}
    magnitude = 0.0
    terms = starts.size * ORDER_HI * k_max
    for order in (ORDER_HI, ORDER_LO):
        x, w = _RULES[order]
        total = 0.0
        step = max(1, CHUNK_NODES // (order * k_max) + 1)
        for i in range(0, starts.size, step):
            p0, p1, sg = starts[i:i + step], ends[i:i + step], signs[i:i + step]
            width = p1 - p0
            u = p0[:, None] + width[:, None] * x[None, :]
            mu = b + (s / c) * u.ravel()
            hsum, habs = _v_box_sum(mu, l, c, sv, k_max)
            weight = np.exp(log_w - (u.ravel() - u0) ** 2 / c)
            wq = (width[:, None] * w[None, :]).ravel() * np.repeat(sg, order)
            total += float(np.dot(wq * weight, hsum))
            if order == ORDER_HI:
                magnitude += float(np.dot(np.abs(wq) * weight, habs))
        values[order] = total
    tail = math.exp(log_w) * 0.5 * math.sqrt(math.pi / c) * 2.0 * math.sqrt(math.pi * c) * erfc(TAIL_STD)
    rounding = EPS * max(10.0, math.sqrt(terms)) * magnitude
    error = abs(values[ORDER_HI] - values[ORDER_LO]) + tail + rounding
    return values[ORDER_HI], error


def _shifts(l, r):
    c = math.cosh(2.0 * r)
    s = math.sinh(2.0 * r)
    step = (s - c) * l / (2.0 * c)
    return c, s, step


def correlator_set(l, r):
    """All five correlators at (l, r) as {pair: (value, error)}."""
    l = float(l)
    r = float(r)
    c, s, step = _shifts(l, r)
    log_pi = math.log(math.pi)
    out = {}
    out["zz"] = piece(l, r, 0.0, 0.0, _parity, _parity, -log_pi)

    # xx = p_xx L_step and yy = -p_yy L_step with
    # p_xx, p_yy = (2/pi) (e_diag +/- e_anti); e_anti / e_diag = exp(-s l**2).
    # The prefactor goes into the log factor because L_step alone can
    # exceed double range (it reaches exp(375) at r = 0.35, l = 50).
    ratio = math.exp(-s * l * l)
    log_xx = math.log(2.0 / math.pi) - l * l / (2.0 * c) + math.log1p(ratio)
    v_xx, e_xx = piece(l, r, step, step, _even, _even, log_xx)
    yy_per_xx = (1.0 - ratio) / (1.0 + ratio)
    out["xx"] = (v_xx, e_xx)
    out["yy"] = (-yy_per_xx * v_xx, yy_per_xx * e_xx)

    log_cross = math.log(2.0 / math.pi) - l * l / (4.0 * c)
    out["zx"] = piece(l, r, s * l / (2.0 * c), -l / 2.0, _parity, _even, log_cross)
    out["xz"] = piece(l, r, -l / 2.0, s * l / (2.0 * c), _even, _parity, log_cross)
    return out


def site_x(l, r):
    """Single-site <s_x> at (l, r) as (value, error)."""
    c, s, _ = _shifts(l, r)
    log_cross = math.log(2.0 / math.pi) - l * l / (4.0 * c)
    return piece(l, r, -l / 2.0, s * l / (2.0 * c), _even, _one, log_cross)


def mass(l, r):
    """Total probability of the joint density summed over every box pair."""
    return piece(l, r, 0.0, 0.0, _one, _one, -math.log(math.pi))


def czz_asymptote(r):
    """Large-box limit of czz, (2/pi) atan(sinh 2r)."""
    return (2.0 / math.pi) * math.atan(math.sinh(2.0 * r))


def czz_monte_carlo(l, r, n_samples, seed):
    """Parity-parity correlator by direct sampling; returns (mean, std_error)."""
    c = math.cosh(2.0 * r)
    rho = math.tanh(2.0 * r)
    sigma = math.sqrt(c / 2.0)
    rng = np.random.default_rng(seed)
    total = 0.0
    done = 0
    while done < n_samples:
        n = min(1_000_000, n_samples - done)
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        q1 = sigma * z1
        q2 = sigma * (rho * z1 + math.sqrt(1.0 - rho * rho) * z2)
        parity = 1.0 - 2.0 * np.mod(np.floor(q1 / l) + np.floor(q2 / l), 2)
        total += float(parity.sum())
        done += n
    mean = total / n_samples
    return mean, math.sqrt(max(0.0, 1.0 - mean * mean) / n_samples)


def _chsh(e, a, b, g, d):
    return abs(e(a, g) + e(a, d)) + abs(e(b, g) - e(b, d))


def chsh_planar(cs, angles):
    """CHSH value at analyzer angles (alpha, beta, gamma, delta) in the x-z plane."""

    def e(x, y):
        return (math.cos(x) * math.cos(y) * cs["zz"] + math.sin(x) * math.sin(y) * cs["xx"]
                + math.cos(x) * math.sin(y) * cs["zx"] + math.sin(x) * math.cos(y) * cs["xz"])

    return _chsh(e, *angles)


def standard_chsh(cs):
    """CHSH value at the standard settings (0, pi/2 | pi/4, -pi/4)."""
    return chsh_planar(cs, (0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0))


def chsh_directions(cs, directions):
    """CHSH value for four (theta, phi) directions, (z, x, y) = (cos t, sin t cos p, sin t sin p)."""

    def vec(t, p):
        return math.cos(t), math.sin(t) * math.cos(p), math.sin(t) * math.sin(p)

    def e(d1, d2):
        z1, x1, y1 = vec(*d1)
        z2, x2, y2 = vec(*d2)
        return (z1 * z2 * cs["zz"] + x1 * x2 * cs["xx"] + y1 * y2 * cs["yy"]
                + z1 * x2 * cs["zx"] + x1 * z2 * cs["xz"])

    return _chsh(e, *directions)


def chsh_max(cs, planar):
    """Largest CHSH value over settings: 2 sqrt(t1**2 + t2**2) (Horodecki 1995).

    t1, t2 are the two largest singular values of the correlation matrix,
    2x2 over (z, x) when ``planar``, else 3x3 over (z, x, y).
    """
    if planar:
        t = np.array([[cs["zz"], cs["zx"]], [cs["xz"], cs["xx"]]])
    else:
        t = np.array([[cs["zz"], cs["zx"], 0.0], [cs["xz"], cs["xx"], 0.0], [0.0, 0.0, cs["yy"]]])
    sv = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(sv[0] ** 2 + sv[1] ** 2)
