"""High-precision references in mpmath, for the tests only.

Nothing here calls boxspin: each value is summed from its definition at
a working precision well above double, so it checks the library's value
and its reported error bound without sharing any of its arithmetic.
"""

from __future__ import annotations

import mpmath


def _even_box_probability(l, c, digits: int) -> mpmath.mpf:
    """P(N(-l/2, c/2) falls in an even box [n*l, (n+1)*l)), at the caller's precision.

    In erf units t = (u + l/2)/sqrt(c), box n spans [(n + 1/2)*w,
    (n + 3/2)*w] with w = l/sqrt(c) and holds (erf(t_hi) - erf(t_lo))/2.
    Even box -2k - 2 is the mirror image of even box 2k, so the even
    boxes hold the sum over k >= 0 of erfc((2k + 1/2)*w) - erfc((2k +
    3/2)*w): a difference of tails, which keeps its relative precision
    however far out the box lies.  The sum stops once both tails beyond
    the last pair, erfc((2k + 3/2)*w), hold under 10**-(digits + 5) of it.
    """
    w = l / mpmath.sqrt(c)
    cut = mpmath.mpf(10) ** -(digits + 5)
    total = mpmath.mpf(0)
    k = 0
    while True:
        beyond = mpmath.erfc((2 * k + mpmath.mpf(1.5)) * w)
        total += mpmath.erfc((2 * k + mpmath.mpf(0.5)) * w) - beyond
        if beyond <= cut * total:
            return total
        k += 1


def site_x(l: float, r: float, digits: int = 40) -> mpmath.mpf:
    """<s_x> at box length l and squeezing r, to ``digits`` significant digits.

    <s_x> is 2*exp(-c*l**2/4), c = cosh 2r, times the probability that
    the u-marginal N(-l/2, c/2) falls in an even box.
    """
    with mpmath.workdps(digits + 10):
        l, c = mpmath.mpf(l), mpmath.cosh(2 * mpmath.mpf(r))
        return 2 * mpmath.exp(-c * l * l / 4) * _even_box_probability(l, c, digits)


def cxx_unsqueezed(l: float, digits: int = 40) -> mpmath.mpf:
    """cxx at r = 0, to ``digits`` significant digits.

    At r = 0 the two modes are independent, so cxx factorizes into the
    product of the sites' <s_x>: 4*exp(-l**2/2) times the square of the
    even-box probability of N(-l/2, 1/2).
    """
    with mpmath.workdps(digits + 10):
        l = mpmath.mpf(l)
        p_even = _even_box_probability(l, mpmath.mpf(1), digits)
        return 4 * mpmath.exp(-l * l / 2) * p_even * p_even


# Per piece: the values of the sign functions on boxes 0 and 1 of each
# mode, and the means of the two coordinates in half box lengths.
_THETA_PIECES = {
    "density": ((1, -1), (1, -1), (0, 0)),
    "step": ((1, 0), (1, 0), (1, 1)),
}


def _fourier(signs, j: int):
    """Coefficient of exp(i*pi*j*u/l) of the 2l-periodic step s(floor(u/l))."""
    s0, s1 = signs
    if j == 0:
        return mpmath.mpf(s0 + s1) / 2
    if j % 2 == 0:
        return mpmath.mpf(0)
    return (s0 - s1) / (mpmath.j * mpmath.pi * j)


def piece_mass(name: str, l: float, r: float) -> mpmath.mpf:
    """The mass of the ``density`` or ``step`` piece, at the caller's precision:
    1 for density and 2*(1 + exp(-s*l**2))*exp(-(c - s)*l**2/2) for step,
    with c - s = exp(-2r)."""
    if name == "density":
        return mpmath.mpf(1)
    l, r = mpmath.mpf(l), mpmath.mpf(r)
    s = mpmath.sinh(2 * r)
    return 2 * (1 + mpmath.exp(-s * l * l)) * mpmath.exp(-mpmath.exp(-2 * r) * l * l / 2)


def theta_piece(name: str, l: float, r: float, digits: int = 40) -> mpmath.mpf:
    """czz (``density``) or cxx (``step``) as a theta series, to ``digits`` digits of the mass.

    The piece is mass * E[su(n(u)) * sv(n(v))] for (u, v) normal with
    mean -(hu, hv)*l/2 and covariance [[c, s], [s, c]]/2, c = cosh 2r,
    s = sinh 2r, with n(u) the box [n*l, (n+1)*l) holding u.  Each sign is
    a 2l-periodic step with Fourier coefficients F_j, so the expectation
    is the sum over (j, k) of F_j * G_k * exp(-i*pi*(hu*j + hv*k)/2) times
    the characteristic function at pi*(j, k)/l, exp(-E) with
    E = pi**2/(4*l**2) * (c*j**2 + 2*s*j*k + c*k**2).  The masses are 1
    for density and 2*(1 + exp(-s*l**2))*exp(-(c - s)*l**2/2) for step.

    Every (j, k) with E <= (digits + 10)*ln(10) is kept: for each j the k
    between the roots of that quadratic, whose minimum over k is
    pi**2/(4*l**2) * j**2/c.  Each dropped term is below 10**-(digits + 10)
    of the mass.
    """
    su, sv, (hu, hv) = _THETA_PIECES[name]
    with mpmath.workdps(digits + 15):
        mass = piece_mass(name, l, r)
        l, r = mpmath.mpf(l), mpmath.mpf(r)
        c, s = mpmath.cosh(2 * r), mpmath.sinh(2 * r)
        scale = mpmath.pi ** 2 / (4 * l * l)
        cut = (digits + 10) * mpmath.log(10) / scale
        total = mpmath.mpc(0)
        j_max = int(mpmath.floor(mpmath.sqrt(cut * c)))
        for j in range(-j_max, j_max + 1):
            fj = _fourier(su, j)
            if fj == 0:
                continue
            # c*k**2 + 2*s*j*k + c*j**2 <= cut for k within root of centre.
            root = mpmath.sqrt(max(c * cut - j * j, 0)) / c
            centre = -s * j / c
            for k in range(int(mpmath.ceil(centre - root)), int(mpmath.floor(centre + root)) + 1):
                gk = _fourier(sv, k)
                if gk == 0:
                    continue
                exponent = scale * (c * j * j + 2 * s * j * k + c * k * k)
                phase = (-mpmath.j) ** ((hu * j + hv * k) % 4)
                total += fj * gk * phase * mpmath.exp(-exponent)
        return mass * total.real
