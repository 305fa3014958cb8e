"""High-precision references in mpmath, for the tests only.

Nothing here calls boxspin: each value is summed from its definition at
a working precision well above double, so it checks the library's value
and its reported error bound without sharing any of its arithmetic.
"""

from __future__ import annotations

import mpmath


def site_x(l: float, r: float, digits: int = 40) -> mpmath.mpf:
    """<s_x> at box length l and squeezing r, to ``digits`` significant digits.

    <s_x> is 2*exp(-c*l**2/4), c = cosh 2r, times the probability that
    the u-marginal N(-l/2, c/2) falls in an even box [n*l, (n+1)*l).  In
    erf units t = (u + l/2)/sqrt(c), box n spans [(n + 1/2)*w, (n + 3/2)*w]
    with w = l/sqrt(c) and holds (erf(t_hi) - erf(t_lo))/2.  Even box
    -2k - 2 is the mirror image of even box 2k, so the even boxes hold
    the sum over k >= 0 of erfc((2k + 1/2)*w) - erfc((2k + 3/2)*w): a
    difference of tails, which keeps its relative precision however far
    out the box lies.  The sum stops once both tails beyond the last
    pair, erfc((2k + 3/2)*w), hold under 10**-(digits + 5) of it.
    """
    with mpmath.workdps(digits + 10):
        l, c = mpmath.mpf(l), mpmath.cosh(2 * mpmath.mpf(r))
        w = l / mpmath.sqrt(c)
        cut = mpmath.mpf(10) ** -(digits + 5)
        total = mpmath.mpf(0)
        k = 0
        while True:
            beyond = mpmath.erfc((2 * k + mpmath.mpf(1.5)) * w)
            total += mpmath.erfc((2 * k + mpmath.mpf(0.5)) * w) - beyond
            if beyond <= cut * total:
                break
            k += 1
        return 2 * mpmath.exp(-c * l * l / 4) * total
