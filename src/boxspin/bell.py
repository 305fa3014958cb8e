"""CHSH combinations, their digit-XOR form, and local-model bounds.

A measurement setting is a rotation angle in the x-z spin plane; the
CHSH value for settings (alpha, beta | gamma, delta) is

    |E(alpha, gamma) + E(alpha, delta)| + |E(beta, gamma) - E(beta, delta)|

with local bound 2.  Rewriting each spin as 1 - 2*digit turns the same
data into the digit form |E1 + E2 - 1| + |E3 - E4| with local bound 1,
and a weighted sum of digit forms over a scale window gives the
multibit inequality with bound sum(2**k).  The local bounds are not
hard-coded: they are maxima over all deterministic strategies,
enumerated once, at import, and read by :func:`lhv_chsh_max` and
:func:`lhv_bit_bell_max`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

from .bits import TruncationWindow, xor_expectation
from .correlators import CorrelatorSet, rotated_correlator
from .errors import RangeError

__all__ = [
    "ChshSettings",
    "STANDARD_SETTINGS",
    "BellReport",
    "chsh_value",
    "chsh_from_correlators",
    "bit_bell_value",
    "bit_bell_from_correlators",
    "multibit_value",
    "lhv_chsh_max",
    "lhv_chsh_values",
    "lhv_bit_bell_max",
    "lhv_multibit_bound",
    "optimize_settings",
]

# Slack allowed on |E| <= 1 before a correlator is rejected.
_CORR_TOL = 1e-6


def _wrap_angle(a: float) -> float:
    """Map an angle to [-pi, pi)."""
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {a!r}")
    return (a + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class ChshSettings:
    """Analyzer angles: alpha, beta on site 1 and gamma, delta on site 2."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, _wrap_angle(getattr(self, name)))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)


STANDARD_SETTINGS = ChshSettings(0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0)


@dataclass(frozen=True)
class BellReport:
    """Value of a Bell expression against its local bound."""

    value: float
    bound: float
    violated: bool
    e_ag: float | None = None
    e_ad: float | None = None
    e_bg: float | None = None
    e_bd: float | None = None

    def __post_init__(self) -> None:
        if self.violated != (self.value > self.bound):
            raise ValueError("violated flag is inconsistent with value and bound")


def _checked(e: float) -> float:
    if not abs(e) <= 1.0 + _CORR_TOL:
        raise RangeError(f"correlator {e!r} is not a number of magnitude <= 1")
    return float(e)


def chsh_value(
    correlator_of: Callable[[float, float], float],
    settings: ChshSettings = STANDARD_SETTINGS,
) -> BellReport:
    """CHSH combination of spin correlators at the four setting pairs."""
    a, b, g, d = settings.as_tuple()
    e_ag = _checked(correlator_of(a, g))
    e_ad = _checked(correlator_of(a, d))
    e_bg = _checked(correlator_of(b, g))
    e_bd = _checked(correlator_of(b, d))
    value = abs(e_ag + e_ad) + abs(e_bg - e_bd)
    bound = _LHV_CHSH_MAX
    return BellReport(
        value=value,
        bound=bound,
        violated=value > bound,
        e_ag=e_ag,
        e_ad=e_ad,
        e_bg=e_bg,
        e_bd=e_bd,
    )


def chsh_from_correlators(
    corr: CorrelatorSet,
    settings: ChshSettings = STANDARD_SETTINGS,
) -> BellReport:
    """CHSH report for one computed correlator set."""
    return chsh_value(lambda a, b: rotated_correlator(a, b, corr), settings)


def bit_bell_value(
    xor_of: Callable[[float, float], float],
    settings: ChshSettings = STANDARD_SETTINGS,
) -> BellReport:
    """Digit form |E1 + E2 - 1| + |E3 - E4| from XOR expectations in [0, 1]."""
    a, b, g, d = settings.as_tuple()
    es = [xor_of(a, g), xor_of(a, d), xor_of(b, g), xor_of(b, d)]
    for e in es:
        if not -1e-9 <= e <= 1.0 + 1e-9:
            raise RangeError(f"XOR expectation {e!r} is outside [0, 1]")
    e1, e2, e3, e4 = es
    value = abs(e1 + e2 - 1.0) + abs(e3 - e4)
    bound = _LHV_BIT_BELL_MAX
    return BellReport(
        value=value,
        bound=bound,
        violated=value > bound,
        e_ag=e1,
        e_ad=e2,
        e_bg=e3,
        e_bd=e4,
    )


def bit_bell_from_correlators(
    corr: CorrelatorSet,
    settings: ChshSettings = STANDARD_SETTINGS,
) -> BellReport:
    """Digit form computed from spin correlators through E_xor = (1 - E)/2."""
    return bit_bell_value(
        lambda a, b: xor_expectation(rotated_correlator(a, b, corr)),
        settings,
    )


def multibit_value(
    per_bit: Mapping[int, float],
    window: TruncationWindow,
) -> BellReport:
    """Weighted sum of digit-form values, 2**k each, against sum(2**k)."""
    missing = [k for k in window.ks() if k not in per_bit]
    if missing:
        raise ValueError(f"per_bit is missing scales {missing}")
    value = math.fsum(math.ldexp(float(per_bit[k]), k) for k in window.ks())
    bound = lhv_multibit_bound(window)
    return BellReport(value=value, bound=bound, violated=value > bound)


def lhv_chsh_values() -> list[float]:
    """CHSH value of every deterministic +/-1 assignment (16 strategies)."""
    values = []
    for a, b, g, d in itertools.product((-1, 1), repeat=4):
        values.append(abs(a * g + a * d) + abs(b * g - b * d))
    return values


# The strategies are fixed, so the bound is enumerated once, at import.
_LHV_CHSH_MAX = float(max(lhv_chsh_values()))


def lhv_chsh_max() -> float:
    """Local bound of the CHSH combination, maximized by enumeration."""
    return _LHV_CHSH_MAX


# Likewise the digit form's bound, over the 16 deterministic digit assignments.
_LHV_BIT_BELL_MAX = float(max(
    abs((a ^ g) + (a ^ d) - 1.0) + abs((b ^ g) - (b ^ d))
    for a, b, g, d in itertools.product((0, 1), repeat=4)
))


def lhv_bit_bell_max() -> float:
    """Local bound of the digit form, maximized over deterministic digits."""
    return _LHV_BIT_BELL_MAX


def lhv_multibit_bound(window: TruncationWindow) -> float:
    """Local bound of the weighted digit form over the window."""
    return window.weight_total() * _LHV_BIT_BELL_MAX


def _chsh_of_angles(angles, corr: CorrelatorSet) -> float:
    a, b, g, d = angles
    e_ag = rotated_correlator(a, g, corr)
    e_ad = rotated_correlator(a, d, corr)
    e_bg = rotated_correlator(b, g, corr)
    e_bd = rotated_correlator(b, d, corr)
    return abs(e_ag + e_ad) + abs(e_bg - e_bd)


def _spherical_correlator(t1: float, p1: float, t2: float, p2: float, corr: CorrelatorSet) -> float:
    """Correlator for directions (theta, phi) on each site's spin sphere.

    Direction components are (z, x, y) = (cos t, sin t cos p, sin t sin p).
    The correlation matrix over (z, x, y) is diagonal for this state
    (:class:`~boxspin.correlators.CorrelatorSet`), so only czz, cxx and cyy
    enter.
    """
    z1, x1, y1 = math.cos(t1), math.sin(t1) * math.cos(p1), math.sin(t1) * math.sin(p1)
    z2, x2, y2 = math.cos(t2), math.sin(t2) * math.cos(p2), math.sin(t2) * math.sin(p2)
    return z1 * z2 * corr.czz + x1 * x2 * corr.cxx + y1 * y2 * corr.cyy


def _chsh_of_directions(params, corr: CorrelatorSet) -> float:
    ta, pa, tb, pb, tg, pg, td, pd = params
    e_ag = _spherical_correlator(ta, pa, tg, pg, corr)
    e_ad = _spherical_correlator(ta, pa, td, pd, corr)
    e_bg = _spherical_correlator(tb, pb, tg, pg, corr)
    e_bd = _spherical_correlator(tb, pb, td, pd, corr)
    return abs(e_ag + e_ad) + abs(e_bg - e_bd)


# The coordinate axes over (z, x) and over (z, x, y), each as (e, -e).
_AXES = {
    False: (((1.0, 0.0), (-1.0, 0.0)), ((0.0, 1.0), (0.0, -1.0))),
    True: (
        ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)),
        ((0.0, 1.0, 0.0), (0.0, -1.0, 0.0)),
        ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)),
    ),
}


def _axis_triple(c: float, axis) -> tuple:
    """The singular triple (|c|, e, sign(c) e) of diagonal entry c on axis (e, -e)."""
    e, minus_e = axis
    return abs(c), e, e if math.copysign(1.0, c) > 0.0 else minus_e


def _leading_pairs(corr: CorrelatorSet, include_y: bool = False):
    """The two largest singular triples (t, u, v) of the correlation matrix of corr.

    The matrix is diag(czz, cxx) over (z, x), or diag(czz, cxx, cyy)
    over (z, x, y) with ``include_y``, so the leading triples are the
    :func:`_axis_triple` of its two largest |entries|.  On a tie z ranks
    before x, and y below the larger of the two and above the smaller.
    """
    axes = _AXES[include_y]
    first, second = _axis_triple(corr.czz, axes[0]), _axis_triple(corr.cxx, axes[1])
    if second[0] > first[0]:
        first, second = second, first
    if include_y:
        y = _axis_triple(corr.cyy, axes[2])
        if y[0] > first[0]:
            return y, first
        if y[0] >= second[0]:
            return first, y
    return first, second


def _optimal_vectors(corr: CorrelatorSet, include_y: bool = False):
    """Analyzer vectors (a, a', b, b') maximizing CHSH for the correlation matrix of corr.

    With (t1, u1, v1), (t2, u2, v2) the two leading singular triples
    (:func:`_leading_pairs`), a = u1, a' = u2 and b, b' = cos(phi) v1 +-
    sin(phi) v2, tan(phi) = t2/t1.  Each u_i is a coordinate axis and
    v_i is u_i signed like its correlator.
    """
    (t1, u1, v1), (t2, u2, v2) = _leading_pairs(corr, include_y)
    phi = math.atan2(t2, t1)
    c, s = math.cos(phi), math.sin(phi)
    return (
        u1,
        u2,
        tuple(c * p + s * q for p, q in zip(v1, v2)),
        tuple(c * p - s * q for p, q in zip(v1, v2)),
    )


def optimize_settings(
    corr: CorrelatorSet,
    *,
    include_y: bool = False,
):
    """Maximize the CHSH value over measurement settings.

    By default settings are single angles in the x-z plane and the
    result is (ChshSettings, value).  With ``include_y`` each setting
    becomes a (theta, phi) direction so the yy correlator participates;
    the result is then (((theta, phi),)*4 tuple, value).

    The maximum is closed-form (Horodecki, Horodecki & Horodecki, Phys.
    Lett. A 200, 340 (1995)): with T = U diag(t1, t2, ...) V^T the
    correlation matrix over (z, x[, y]), a = u1, a' = u2 and b, b' =
    cos(phi) v1 +- sin(phi) v2, tan(phi) = t2/t1, give 2*sqrt(t1**2 + t2**2).
    T is diag(czz, cxx), with ``include_y`` diag(czz, cxx, cyy), so the
    t_i are its two largest |entries|, u_i their coordinate axes and v_i
    = sign(c_i) u_i.  On a tie z ranks before x, and y below the larger
    of the two and above the smaller.  The value returned is the CHSH
    expression at the returned settings.  The result is deterministic,
    and the planar value is never below the standard-settings value.
    """
    if include_y:
        directions = tuple(
            (_wrap_angle(math.atan2(math.hypot(x, y), z)), _wrap_angle(math.atan2(y, x)))
            for z, x, y in _optimal_vectors(corr, include_y=True)
        )
        return directions, _chsh_of_directions([p for d in directions for p in d], corr)

    settings = ChshSettings(*(math.atan2(x, z) for z, x in _optimal_vectors(corr)))
    value = _chsh_of_angles(settings.as_tuple(), corr)
    standard_value = _chsh_of_angles(STANDARD_SETTINGS.as_tuple(), corr)
    if value < standard_value:
        return STANDARD_SETTINGS, standard_value
    return settings, value
