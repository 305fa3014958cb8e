"""Bell expressions on synthetic correlators.

Everything here uses closed-form or hand-built correlator values, so
the tests exercise the Bell layer without any quadrature.
"""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from boxspin import bell
from boxspin import (
    STANDARD_SETTINGS,
    BellReport,
    ChshSettings,
    CorrelatorSet,
    RangeError,
    TruncationWindow,
    bit_bell_from_correlators,
    bit_bell_value,
    chsh_from_correlators,
    chsh_value,
    lhv_bit_bell_max,
    lhv_chsh_max,
    lhv_chsh_values,
    lhv_multibit_bound,
    multibit_value,
    optimize_settings,
)

ROOT2 = math.sqrt(2.0)


def _make_set(czz, cxx, cyy=0.0):
    return CorrelatorSet(
        l=1.0,
        r=0.8,
        czz=czz,
        cxx=cxx,
        cyy=cyy,
        czz_err=0.0,
        cxx_err=0.0,
        cyy_err=0.0,
    )


def _matrix(corr, include_y):
    """The correlation matrix over (z, x) or, with include_y, (z, x, y)."""
    return np.diag([corr.czz, corr.cxx, corr.cyy][: 3 if include_y else 2])


def _angle_gap(a, b):
    """Distance between two angles, mod 2 pi."""
    gap = (a - b) % (2.0 * math.pi)
    return min(gap, 2.0 * math.pi - gap)


def _lapack_optimum(corr, include_y, flips):
    """optimize_settings through np.linalg.svd and the documented sign fix.

    ``flips[i]`` negates LAPACK's i-th singular pair (u_i, v_i) before the
    fix, so every sign LAPACK could return is tried.  Returns the flat list
    of angles and the CHSH value at them.
    """
    t = _matrix(corr, include_y)
    u, sv, vh = np.linalg.svd(t)
    for i, flip in enumerate(flips):
        if flip:
            u[:, i], vh[i] = -u[:, i], -vh[i]
    for i in (0, 1):
        if u[np.flatnonzero(u[:, i])[0], i] < 0.0:
            u[:, i], vh[i] = -u[:, i], -vh[i]
    phi = math.atan2(sv[1], sv[0])
    c, s = math.cos(phi), math.sin(phi)
    a, a2, b, b2 = u[:, 0], u[:, 1], c * vh[0] + s * vh[1], c * vh[0] - s * vh[1]
    if include_y:
        value = abs(a @ t @ b + a @ t @ b2) + abs(a2 @ t @ b - a2 @ t @ b2)
        directions = [(math.atan2(math.hypot(x, y), z), math.atan2(y, x)) for z, x, y in (a, a2, b, b2)]
        return [angle for d in directions for angle in d], value
    settings = ChshSettings(*(math.atan2(x, z) for z, x in (a, a2, b, b2)))
    value = chsh_from_correlators(corr, settings).value
    standard = chsh_from_correlators(corr).value
    if value < standard:
        return list(STANDARD_SETTINGS.as_tuple()), standard
    return list(settings.as_tuple()), value


class TestSettings:
    def test_angles_wrap_into_half_open_interval(self):
        s = ChshSettings(2.0 * math.pi, 3.0 * math.pi / 2.0, math.pi, -math.pi)
        assert s.alpha == pytest.approx(0.0, abs=1e-15)
        assert s.beta == pytest.approx(-math.pi / 2.0, abs=1e-15)
        assert s.gamma == pytest.approx(-math.pi)
        assert s.delta == pytest.approx(-math.pi)

    def test_standard_settings(self):
        assert STANDARD_SETTINGS == ChshSettings(
            0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0
        )


def _cosines(settings=STANDARD_SETTINGS):
    """cos(a - b) at the four setting pairs: the correlators of czz = cxx = 1."""
    a, b, g, d = settings.as_tuple()
    return math.cos(a - g), math.cos(a - d), math.cos(b - g), math.cos(b - d)


class TestChshValue:
    def test_cosine_correlators_reach_tsirelson(self):
        for report in (chsh_value(*_cosines()), chsh_from_correlators(_make_set(1.0, 1.0))):
            assert report.value == pytest.approx(2.0 * ROOT2, abs=1e-12)
            assert report.bound == 2.0
            assert report.violated

    def test_arbitrary_settings_match_manual_sum(self):
        settings = ChshSettings(0.1, 1.2, 0.7, -0.4)
        want = abs(math.cos(0.1 - 0.7) + math.cos(0.1 + 0.4)) + abs(
            math.cos(1.2 - 0.7) - math.cos(1.2 + 0.4)
        )
        report = chsh_from_correlators(_make_set(1.0, 1.0), settings)
        assert report.value == pytest.approx(want, abs=1e-14)
        assert report.e_ag == pytest.approx(math.cos(0.1 - 0.7))
        e = _cosines(settings)
        report = chsh_value(*e)
        assert report.value == abs(e[0] + e[1]) + abs(e[2] - e[3])
        assert (report.e_ag, report.e_ad, report.e_bg, report.e_bd) == e

    @pytest.mark.parametrize("position", range(4))
    def test_out_of_range_correlator_is_rejected(self, position):
        es = [0.5] * 4
        es[position] = 1.5
        with pytest.raises(RangeError):
            chsh_value(*es)

    @pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf])
    def test_non_finite_correlator_is_rejected(self, e):
        with pytest.raises(RangeError, match=repr(e)):
            chsh_value(0.0, 0.0, 0.0, e)

    def test_report_flag_must_match_value(self):
        with pytest.raises(ValueError):
            BellReport(value=2.5, bound=2.0, violated=False)
        with pytest.raises(ValueError):
            BellReport(value=1.5, bound=2.0, violated=True)


class TestChshFromCorrelators:
    def test_standard_settings_sum_z_and_x(self):
        report = chsh_from_correlators(_make_set(0.9, 0.7, cyy=-0.5))
        assert report.value == pytest.approx(ROOT2 * (0.9 + 0.7), abs=1e-12)

    def test_z_only_state_cannot_violate(self):
        report = chsh_from_correlators(_make_set(1.0, 0.0))
        assert report.value == pytest.approx(ROOT2, abs=1e-12)
        assert not report.violated

    def test_axis_extractions(self):
        """Settings 0 and pi/2 read czz and cxx off the diagonal, and 0 across."""
        settings = ChshSettings(0.0, math.pi / 2, 0.0, math.pi / 2)
        report = chsh_from_correlators(_make_set(0.6, 0.5, cyy=-0.4), settings)
        assert report.e_ag == pytest.approx(0.6)
        assert report.e_bd == pytest.approx(0.5)
        assert report.e_ad == pytest.approx(0.0, abs=1e-15)
        assert report.e_bg == pytest.approx(0.0, abs=1e-15)

    def test_bilinear_form(self):
        """E(a, b) = cos a cos b czz + sin a sin b cxx at every setting pair."""
        corr = _make_set(0.6, 0.5, cyy=-0.4)
        rng = np.random.default_rng(7)
        for angles in rng.uniform(-math.pi, math.pi, size=(20, 4)):
            settings = ChshSettings(*angles)
            report = chsh_from_correlators(corr, settings)
            a, b, g, d = settings.as_tuple()
            es = (report.e_ag, report.e_ad, report.e_bg, report.e_bd)
            for e, (p, q) in zip(es, ((a, g), (a, d), (b, g), (b, d))):
                want = math.cos(p) * math.cos(q) * 0.6 + math.sin(p) * math.sin(q) * 0.5
                assert e == pytest.approx(want, abs=1e-14)


class TestBitForm:
    def test_bit_value_is_half_the_spin_value(self):
        es = _cosines()
        spin = chsh_value(*es)
        bit = bit_bell_value(*(0.5 * (1.0 - e) for e in es))
        assert bit.bound == 1.0
        assert bit.value == pytest.approx(spin.value / 2.0, abs=1e-12)

    def test_from_correlators_matches_direct_halving(self):
        corr = _make_set(0.9, 0.7)
        spin = chsh_from_correlators(corr)
        bit = bit_bell_from_correlators(corr)
        assert bit.value == pytest.approx(spin.value / 2.0, abs=1e-12)
        assert bit.violated == (bit.value > 1.0)

    def test_algebraic_maximum(self):
        report = bit_bell_value(0.0, 0.0, 0.0, 1.0)
        assert report.value == 2.0
        assert report.violated

    @pytest.mark.parametrize("x", [-0.2, 1.2, math.nan, math.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_xor_expectations_must_be_probabilities(self, x, position):
        xs = [0.5] * 4
        xs[position] = x
        with pytest.raises(RangeError):
            bit_bell_value(*xs)

    def test_both_forms_accept_and_reject_the_same_correlators(self):
        """A correlator within the tolerance passes both forms, and its XOR value is clipped."""
        settings = ChshSettings(0.0, math.pi / 2.0, 0.0, math.pi / 2.0)
        corr = CorrelatorSet(1.0, 1.0, 1.0 + 5e-8, 0.5, -0.4, 1e-8, 0.0, 0.0)
        spin = chsh_from_correlators(corr, settings)
        bit = bit_bell_from_correlators(corr, settings)
        assert spin.e_ag == 1.0 + 5e-8
        assert spin.value == pytest.approx(1.50000005, abs=1e-15)
        assert bit.e_ag == 0.0
        assert bit.value == 0.75
        assert optimize_settings(corr)[1] == pytest.approx(2.0 * math.hypot(1.0 + 5e-8, 0.5), abs=1e-15)
        beyond = CorrelatorSet(1.0, 1.0, 1.0 + 2e-6, 0.0, 0.0, 1e-6, 0.0, 0.0)
        for form in (chsh_from_correlators, bit_bell_from_correlators):
            with pytest.raises(RangeError, match="1.000002"):
                form(beyond, settings)
        for include_y in (False, True):
            with pytest.raises(RangeError, match="1.000002"):
                optimize_settings(beyond, include_y=include_y)


class TestMultibit:
    def test_weighted_total_and_bound(self):
        window = TruncationWindow(k_hi=1, k_lo=-3)
        per_bit = {k: 1.25 for k in window.ks()}
        report = multibit_value(per_bit, window)
        assert report.bound == 3.875
        assert report.value == pytest.approx(1.25 * 3.875, abs=1e-12)
        assert report.violated

    def test_single_bit_window_reduces_to_bit_bound(self):
        window = TruncationWindow(k_hi=0, k_lo=0)
        report = multibit_value({0: 0.75}, window)
        assert report.bound == 1.0
        assert report.value == pytest.approx(0.75)
        assert not report.violated

    def test_missing_scale_is_an_error(self):
        window = TruncationWindow(k_hi=1, k_lo=-1)
        with pytest.raises(ValueError, match="-1"):
            multibit_value({1: 1.0, 0: 1.0}, window)


class TestLocalBounds:
    def test_every_deterministic_strategy_scores_two(self):
        values = lhv_chsh_values()
        assert len(values) == 16
        assert set(values) == {2.0}
        assert lhv_chsh_max() == 2.0

    def test_chsh_reports_the_bound_without_enumerating(self, monkeypatch):
        """The bound is enumerated once, at import, not on every call."""
        def unused():
            raise AssertionError("the strategies were enumerated again")

        monkeypatch.setattr(bell, "lhv_chsh_values", unused)
        report = chsh_value(*_cosines())
        assert report.bound == lhv_chsh_max() == 2.0

    def test_bit_bound_is_one(self):
        assert lhv_bit_bell_max() == 1.0

    def test_digit_forms_report_the_bound_without_enumerating(self, monkeypatch):
        """The digit-form bound is enumerated once, at import, not on every call."""
        def unused(*args, **kwargs):
            raise AssertionError("the strategies were enumerated again")

        monkeypatch.setattr(bell.itertools, "product", unused)
        report = bit_bell_value(*(0.5 * (1.0 - e) for e in _cosines()))
        window = TruncationWindow(k_hi=1, k_lo=-3)
        assert report.bound == lhv_bit_bell_max() == 1.0
        assert lhv_multibit_bound(window) == window.weight_total()
        assert multibit_value({k: 0.5 for k in window.ks()}, window).bound == window.weight_total()

    def test_multibit_bound_is_the_weight_total(self):
        for k_hi, k_lo in ((1, -3), (0, 0), (2, -1)):
            window = TruncationWindow(k_hi=k_hi, k_lo=k_lo)
            assert lhv_multibit_bound(window) == window.weight_total()


class TestOptimizer:
    def test_recovers_tsirelson_for_perfect_correlators(self):
        _, value = optimize_settings(_make_set(1.0, 1.0))
        assert value == pytest.approx(2.0 * ROOT2, abs=1e-9)

    def test_matches_singular_value_formula(self):
        """Planar optimum is 2*sqrt(czz**2 + cxx**2) for diagonal sets."""
        settings, value = optimize_settings(_make_set(0.9, 0.7, cyy=-0.5))
        assert isinstance(settings, ChshSettings)
        assert value == pytest.approx(2.0 * math.hypot(0.9, 0.7), abs=1e-9)

    def test_degenerate_set_caps_at_local_bound(self):
        _, value = optimize_settings(_make_set(1.0, 0.0))
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_never_below_standard_settings(self):
        corr = _make_set(0.82, -0.55)
        standard = chsh_from_correlators(corr)
        _, value = optimize_settings(corr)
        assert value >= standard.value - 1e-12

    def test_directional_mode_returns_four_directions(self):
        corr = _make_set(0.9, 0.7, cyy=-0.5)
        _, planar = optimize_settings(corr)
        directions, value = optimize_settings(corr, include_y=True)
        assert len(directions) == 4
        assert all(len(d) == 2 for d in directions)
        assert value >= planar - 1e-6

    def test_deterministic_across_runs(self):
        corr = _make_set(0.77, 0.64)
        first = optimize_settings(corr)
        second = optimize_settings(corr)
        assert first == second

    @pytest.mark.parametrize(
        "corr",
        [
            _make_set(0.6, -0.45, cyy=-0.3),
            _make_set(0.3, 0.7, cyy=-0.5),
            _make_set(-0.8, 0.35, cyy=0.9),
            _make_set(0.5, 0.45, cyy=-0.1),
            _make_set(-0.2, -0.9, cyy=0.55),
        ],
    )
    @pytest.mark.parametrize("include_y", [False, True])
    def test_matches_lapack_under_every_sign_of_its_pairs(self, corr, include_y):
        """Closed form against np.linalg.svd with the sign fix, whatever signs
        LAPACK returns, where the leading singular values are separated."""
        settings, value = optimize_settings(corr, include_y=include_y)
        got = [a for d in settings for a in d] if include_y else list(settings.as_tuple())
        pairs = 3 if include_y else 2
        for flips in itertools.product((False, True), repeat=pairs):
            want, want_value = _lapack_optimum(corr, include_y, flips)
            assert value == pytest.approx(want_value, abs=1e-12)
            assert max(map(_angle_gap, got, want)) <= 1e-12

    def test_y_axis_strictly_wins_when_cyy_is_large(self):
        corr = _make_set(0.9, 0.2, cyy=-0.7)
        _, planar = optimize_settings(corr)
        _, value = optimize_settings(corr, include_y=True)
        assert planar == pytest.approx(2.0 * math.sqrt(0.85), abs=1e-12)
        assert value == pytest.approx(2.0 * math.sqrt(1.30), abs=1e-12)

    def test_zero_set_gives_zero_with_finite_angles(self):
        corr = _make_set(0.0, 0.0)
        settings, planar = optimize_settings(corr)
        directions, value = optimize_settings(corr, include_y=True)
        assert planar == 0.0 and value == 0.0
        assert all(math.isfinite(a) for a in settings.as_tuple())
        assert all(math.isfinite(a) for d in directions for a in d)


_unit = st.floats(-1.0, 1.0)
_EPS = np.finfo(float).eps


def _directions_chsh(t, directions):
    """CHSH of a 3x3 correlation matrix at four (theta, phi) directions, by numpy."""
    a, a2, b, b2 = (
        np.array([math.cos(th), math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph)])
        for th, ph in directions
    )
    return abs(a @ t @ b + a @ t @ b2) + abs(a2 @ t @ b - a2 @ t @ b2)


@hypothesis_settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(czz=_unit, cxx=_unit, cyy=_unit)
@example(czz=0.0, cxx=0.0, cyy=0.0)  # zero matrix
@example(czz=1.0, cxx=1.0, cyy=-1.0)  # identity up to sign, three equal values
@example(czz=0.0, cxx=0.48261945022445896, cyy=-0.0)  # r = 0 product state
@example(czz=0.82037284495481, cxx=0.10969017178176203, cyy=-0.10969017178176203)  # |cxx| = |cyy|
@example(czz=1e-170, cxx=6.67e-168, cyy=-1e-300)  # squares underflow
def test_closed_form_is_the_maximum(czz, cxx, cyy):
    """The settings reach 2*hypot of the two largest |entries| of the diagonal
    matrix, reproduce their value, and no other settings beat them."""
    corr = _make_set(czz, cxx, cyy=cyy)
    settings, planar = optimize_settings(corr)
    assert planar == chsh_from_correlators(corr, settings).value
    assert abs(planar - 2.0 * math.hypot(czz, cxx)) <= 4 * _EPS
    rng = np.random.default_rng(0)
    for angles in rng.uniform(-math.pi, math.pi, size=(64, 4)):
        assert planar >= chsh_from_correlators(corr, ChshSettings(*angles)).value - 1e-12
    directions, value = optimize_settings(corr, include_y=True)
    t1, t2, _ = sorted(map(abs, (czz, cxx, cyy)), reverse=True)
    assert abs(value - 2.0 * math.hypot(t1, t2)) <= 4 * _EPS
    assert value == pytest.approx(_directions_chsh(_matrix(corr, True), directions), abs=4 * _EPS)
    assert value >= planar - 4 * _EPS


_angle = st.floats(-math.pi, math.pi)
_angles = st.tuples(_angle, _angle, _angle, _angle)


@hypothesis_settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(czz=_unit, cxx=_unit, cyy=_unit, angles=_angles)
@example(czz=1.0, cxx=1.0, cyy=-1.0, angles=STANDARD_SETTINGS.as_tuple())
def test_digit_form_is_half_the_chsh_value(czz, cxx, cyy, angles):
    """At any settings the digit form of a valid set is half its CHSH value."""
    corr = _make_set(czz, cxx, cyy=cyy)
    settings = ChshSettings(*angles)
    bit = bit_bell_from_correlators(corr, settings)
    assert abs(bit.value - chsh_from_correlators(corr, settings).value / 2.0) <= 1e-15


@hypothesis_settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(czz=_unit, cxx=_unit, cyy=_unit, angles=_angles)
@example(czz=0.0, cxx=-0.0, cyy=-1.0, angles=(0.0, math.pi / 2.0, -math.pi, 0.0))
def test_plane_settings_are_directions_at_phi_zero(czz, cxx, cyy, angles):
    """A plane setting t has the correlators of the direction (t, 0), up to the sign of a zero."""
    settings = ChshSettings(*angles)
    diag = (czz, cxx, cyy)
    directions = [bell._direction(t, 0.0) for t in settings.as_tuple()]
    assert bell._correlators(settings._vectors, diag) == bell._correlators(directions, diag)


def _check_triples(t, triples):
    """The triples are singular triples of t, the largest ones, signed by the convention."""
    s = np.array([p[0] for p in triples])
    u = np.array([p[1] for p in triples]).T
    v = np.array([p[2] for p in triples]).T
    assert s[0] >= s[1] >= 0.0
    assert (np.abs(s - np.linalg.svd(t, compute_uv=False)[: len(s)]) <= 4 * _EPS * s).all()
    assert (u.T @ u == np.eye(len(s))).all()
    assert (v.T @ v == np.eye(len(s))).all()
    assert (t @ v == u * s).all()
    assert (t.T @ u == v * s).all()
    for column in u.T:
        assert column[np.flatnonzero(column)[0]] > 0.0


@hypothesis_settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(czz=_unit, cxx=_unit, cyy=_unit)
@example(czz=0.0, cxx=0.0, cyy=0.0)
@example(czz=-0.6, cxx=0.6, cyy=-0.6)
@example(czz=0.9, cxx=0.5, cyy=-0.5)
@example(czz=1e-170, cxx=6.67e-168, cyy=-1e-300)
def test_leading_pairs_are_exact_singular_triples(czz, cxx, cyy):
    """Axis triples of the diagonal matrix: t v = s u exactly, and s within 4 eps of LAPACK's."""
    corr = _make_set(czz, cxx, cyy=cyy)
    for include_y in (False, True):
        _check_triples(_matrix(corr, include_y), bell._leading_pairs(corr, include_y))


_Z, _X, _Y = "zxy"


@pytest.mark.parametrize(
    "czz, cxx, cyy, planar, with_y",
    [
        (0.5, 0.5, 0.0, (_Z, _X), (_Z, _X)),  # z before x
        (0.5, -0.5, 0.1, (_Z, _X), (_Z, _X)),
        (0.3, 0.7, -0.7, (_X, _Z), (_X, _Y)),  # y below the block's first
        (0.7, 0.3, -0.7, (_Z, _X), (_Z, _Y)),
        (0.7, 0.3, -0.3, (_Z, _X), (_Z, _Y)),  # y above the block's second
        (0.3, 0.7, -0.3, (_X, _Z), (_X, _Y)),
        (0.6, -0.6, -0.6, (_Z, _X), (_Z, _Y)),  # all three equal
        (0.0, 0.0, -0.0, (_Z, _X), (_Z, _Y)),
        (0.0, 0.48261945022445896, -0.0, (_X, _Z), (_X, _Y)),  # r = 0 product state
    ],
    ids=["zx", "zx-signed", "y-x-first", "y-z-first", "y-x-second", "y-z-second", "all", "zero", "product"],
)
def test_exact_ties_follow_the_stated_rule(czz, cxx, cyy, planar, with_y):
    """On a tie z ranks before x, and y below the larger of the two and above the smaller."""
    corr = _make_set(czz, cxx, cyy=cyy)
    for include_y, axes in ((False, planar), (True, with_y)):
        (_, u1, _), (_, u2, _) = bell._leading_pairs(corr, include_y)
        assert ("zxy"[u1.index(1.0)], "zxy"[u2.index(1.0)]) == axes


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, boxspin, boxspin.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
