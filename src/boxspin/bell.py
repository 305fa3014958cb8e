"""CHSH combinations, their digit-XOR form, and local-model bounds.

A plane setting t, an angle in the x-z spin plane, is the analyzer
vector (cos t, sin t) over (z, x); a direction (theta, phi) is
(cos theta, sin theta cos phi, sin theta sin phi) over (z, x, y).  The
correlation matrix is diag(czz, cxx, cyy), so every correlator is the
one bilinear form E(u, v) = sum_i u_i v_i c_ii, linear in the diagonal.
The CHSH value for analyzers (alpha, beta | gamma, delta) is

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
from typing import Mapping

from .bits import TruncationWindow
from .correlators import CorrelatorSet
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


def _direction(theta: float, phi: float) -> tuple[float, float, float]:
    """The analyzer vector (cos theta, sin theta cos phi, sin theta sin phi) over (z, x, y)."""
    s = math.sin(theta)
    return (math.cos(theta), s * math.cos(phi), s * math.sin(phi))


@dataclass(frozen=True)
class ChshSettings:
    """Analyzer angles: alpha, beta on site 1 and gamma, delta on site 2.

    Each is wrapped to [-pi, pi); ``_vectors`` (not a field) holds their (cos t, sin t).
    """

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        vectors = []
        for name in ("alpha", "beta", "gamma", "delta"):
            t = _wrap_angle(getattr(self, name))
            object.__setattr__(self, name, t)
            vectors.append((math.cos(t), math.sin(t)))
        object.__setattr__(self, "_vectors", tuple(vectors))

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


def _correlator(u, v, diag) -> float:
    """E(u, v) = sum_i u_i v_i diag_i over the 2 (z, x) or 3 (z, x, y) components of u and v."""
    e = u[0] * v[0] * diag[0] + u[1] * v[1] * diag[1]
    return e + u[2] * v[2] * diag[2] if len(u) > 2 else e


def _correlators(vectors, diag) -> tuple[float, float, float, float]:
    """E(a, g), E(a, d), E(b, g), E(b, d) for the analyzer vectors (a, b, g, d)."""
    a, b, g, d = vectors
    return (
        _correlator(a, g, diag),
        _correlator(a, d, diag),
        _correlator(b, g, diag),
        _correlator(b, d, diag),
    )


def _checked(e: float) -> float:
    """The one range rule for a spin correlator: |e| <= 1 within _CORR_TOL."""
    if not abs(e) <= 1.0 + _CORR_TOL:
        raise RangeError(f"correlator {e!r} is not a number of magnitude <= 1")
    return float(e)


def _chsh(e_ag: float, e_ad: float, e_bg: float, e_bd: float) -> float:
    """The CHSH sum |E(a, g) + E(a, d)| + |E(b, g) - E(b, d)|."""
    return abs(e_ag + e_ad) + abs(e_bg - e_bd)


def _chsh_at(vectors, diag) -> float:
    """The CHSH value at analyzer vectors (a, b, g, d), each correlator checked."""
    e_ag, e_ad, e_bg, e_bd = _correlators(vectors, diag)
    return _chsh(_checked(e_ag), _checked(e_ad), _checked(e_bg), _checked(e_bd))


def chsh_value(e_ag: float, e_ad: float, e_bg: float, e_bd: float) -> BellReport:
    """CHSH combination of four spin correlators, each of magnitude <= 1 (within 1e-6)."""
    e_ag, e_ad, e_bg, e_bd = map(_checked, (e_ag, e_ad, e_bg, e_bd))
    value = _chsh(e_ag, e_ad, e_bg, e_bd)
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
    return chsh_value(*_correlators(settings._vectors, (corr.czz, corr.cxx, corr.cyy)))


def bit_bell_value(x_ag: float, x_ad: float, x_bg: float, x_bd: float) -> BellReport:
    """Digit form |E1 + E2 - 1| + |E3 - E4| from XOR expectations in [0, 1] (within 1e-9)."""
    for x in (x_ag, x_ad, x_bg, x_bd):
        if not -1e-9 <= x <= 1.0 + 1e-9:
            raise RangeError(f"XOR expectation {x!r} is outside [0, 1]")
    value = abs(x_ag + x_ad - 1.0) + abs(x_bg - x_bd)
    bound = _LHV_BIT_BELL_MAX
    return BellReport(
        value=value,
        bound=bound,
        violated=value > bound,
        e_ag=x_ag,
        e_ad=x_ad,
        e_bg=x_bg,
        e_bd=x_bd,
    )


def bit_bell_from_correlators(
    corr: CorrelatorSet,
    settings: ChshSettings = STANDARD_SETTINGS,
) -> BellReport:
    """Digit form through E_xor = (1 - E)/2, clipped to [0, 1], each E checked as by chsh_value."""
    return bit_bell_value(*(
        min(1.0, max(0.0, (1.0 - _checked(e)) / 2.0))
        for e in _correlators(settings._vectors, (corr.czz, corr.cxx, corr.cyy))
    ))


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
        values.append(_chsh(a * g, a * d, b * g, b * d))
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
    diag = (corr.czz, corr.cxx, corr.cyy)
    if include_y:
        directions = tuple(
            (_wrap_angle(math.atan2(math.hypot(x, y), z)), _wrap_angle(math.atan2(y, x)))
            for z, x, y in _optimal_vectors(corr, include_y=True)
        )
        return directions, _chsh_at([_direction(*d) for d in directions], diag)

    settings = ChshSettings(*(math.atan2(x, z) for z, x in _optimal_vectors(corr)))
    value = _chsh_at(settings._vectors, diag)
    standard_value = _chsh_at(STANDARD_SETTINGS._vectors, diag)
    if value < standard_value:
        return STANDARD_SETTINGS, standard_value
    return settings, value
