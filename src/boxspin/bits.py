"""Binary digits of measured positions and the spin/bit dictionary.

Every float is an exact dyadic rational, so the digit of q at scale
2**k is computed exactly with integer arithmetic; floor semantics make
this well defined for negative positions too (the expansion of a
negative number is the two's-complement-style one, with bits equal to
1 at all sufficiently high k).

The digit B at scale 2**k and the box spin S at box length l = 2**k
are two labels for the same measurement: S = 1 - 2B, and a product of
spins on two sites maps to the XOR of the digits through
E_xor = (1 - E_spin) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RangeError

__all__ = [
    "TruncationWindow",
    "bit_at",
    "spin_from_bit",
    "spin_at",
    "xor_expectation",
    "truncated_value",
    "format_binary",
]

# Tolerated overshoot of |spin correlator| beyond 1 before RangeError.
_CORR_TOL = 1e-9


@dataclass(frozen=True)
class TruncationWindow:
    """Digit scales 2**k for k from k_hi down to k_lo, inclusive."""

    k_hi: int = 1
    k_lo: int = -3

    def __post_init__(self) -> None:
        if self.k_hi < self.k_lo:
            raise ValueError(
                f"window requires k_hi >= k_lo, got [{self.k_hi}, {self.k_lo}]"
            )

    def ks(self) -> range:
        """Scales from most to least significant."""
        return range(self.k_hi, self.k_lo - 1, -1)

    def weight_total(self) -> float:
        """Sum of 2**k over the window (the all-ones value); ValueError for k_hi >= 1023."""
        try:
            return math.ldexp(1.0, self.k_hi + 1) - math.ldexp(1.0, self.k_lo)
        except OverflowError:
            raise ValueError(
                f"window [{self.k_hi}, {self.k_lo}]: 2**{self.k_hi + 1} is beyond the float range"
            ) from None


def bit_at(q: float, k: int) -> int:
    """Digit of q at scale 2**k: floor(q / 2**k) mod 2, computed exactly."""
    q = float(q)
    if not math.isfinite(q):
        raise ValueError(f"position must be finite, got {q!r}")
    num, den = q.as_integer_ratio()
    # den is a power of two, so scaling by 2**k stays in integers.
    if k >= 0:
        den <<= k
    else:
        num <<= -k
    return (num // den) & 1


def spin_from_bit(bit: int) -> int:
    """Spin value 1 - 2*bit: digit 0 is spin +1, digit 1 is spin -1."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return 1 - 2 * bit


def spin_at(q: float, k: int) -> int:
    """Box spin of q at box length 2**k."""
    return spin_from_bit(bit_at(q, k))


def xor_expectation(spin_corr: float) -> float:
    """Expectation of the XOR of two digits from the spin correlator.

    S*S' = 1 - 2*(B xor B') pointwise, so E_xor = (1 - E_spin) / 2.
    """
    if abs(spin_corr) > 1.0 + _CORR_TOL:
        raise RangeError(f"spin correlator {spin_corr!r} exceeds magnitude 1")
    return min(1.0, max(0.0, (1.0 - spin_corr) / 2.0))


def truncated_value(q: float, window: TruncationWindow) -> float:
    """Sum of 2**k * bit_at(q, k) over the window; exact in floats."""
    return math.fsum(math.ldexp(float(bit_at(q, k)), k) for k in window.ks())


def format_binary(q: float, window: TruncationWindow) -> str:
    """Binary rendering of q's digits over the window.

    Positions run from max(k_hi, 0) down to min(k_lo, 0) with a radix
    point after the k = 0 position; the point is omitted when the window
    holds no fractional digits.  Positions outside the window print 0,
    so the string reads as truncated_value(q, window).  For negative q
    these are the floor-expansion digits, i.e. the rendering equals q
    only modulo 2**(k_hi + 1).
    """

    def digit(k: int) -> str:
        return str(bit_at(q, k)) if window.k_lo <= k <= window.k_hi else "0"

    digits = "".join(digit(k) for k in range(max(window.k_hi, 0), -1, -1))
    if window.k_lo < 0:
        digits += "." + "".join(digit(k) for k in range(-1, window.k_lo - 1, -1))
    return digits
