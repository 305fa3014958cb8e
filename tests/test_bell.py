"""Bell expressions on synthetic correlators.

Everything here uses closed-form or hand-built correlator values, so
the tests exercise the Bell layer without any quadrature.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
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


def _svd_chsh_max(t):
    """2*sqrt(t1**2 + t2**2) over the two largest singular values of t."""
    sv = np.linalg.svd(np.asarray(t, dtype=float), compute_uv=False)
    return 2.0 * math.hypot(sv[0], sv[1])


def _make_set(czz, cxx, cyy=0.0, czx=0.0, cxz=0.0, cross_err=0.0):
    return CorrelatorSet(
        l=1.0,
        r=0.8,
        czz=czz,
        cxx=cxx,
        cyy=cyy,
        czx=czx,
        cxz=cxz,
        czz_err=0.0,
        cxx_err=0.0,
        cyy_err=0.0,
        czx_err=cross_err,
        cxz_err=cross_err,
    )


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


class TestChshValue:
    def test_cosine_correlators_reach_tsirelson(self):
        report = chsh_value(lambda a, b: math.cos(a - b))
        assert report.value == pytest.approx(2.0 * ROOT2, abs=1e-12)
        assert report.bound == 2.0
        assert report.violated

    def test_arbitrary_settings_match_manual_sum(self):
        settings = ChshSettings(0.1, 1.2, 0.7, -0.4)
        report = chsh_value(lambda a, b: math.cos(a - b), settings)
        want = abs(math.cos(0.1 - 0.7) + math.cos(0.1 + 0.4)) + abs(
            math.cos(1.2 - 0.7) - math.cos(1.2 + 0.4)
        )
        assert report.value == pytest.approx(want, abs=1e-14)
        assert report.e_ag == pytest.approx(math.cos(0.1 - 0.7))

    def test_out_of_range_correlator_is_rejected(self):
        with pytest.raises(RangeError):
            chsh_value(lambda a, b: 1.5)

    def test_report_flag_must_match_value(self):
        with pytest.raises(ValueError):
            BellReport(value=2.5, bound=2.0, violated=False)
        with pytest.raises(ValueError):
            BellReport(value=1.5, bound=2.0, violated=True)


class TestChshFromCorrelators:
    def test_standard_settings_sum_z_and_x(self):
        report = chsh_from_correlators(_make_set(0.9, 0.7, cyy=-0.5))
        assert report.value == pytest.approx(ROOT2 * (0.9 + 0.7), abs=1e-12)

    def test_symmetric_cross_terms_cancel_at_standard_settings(self):
        plain = chsh_from_correlators(_make_set(0.8, 0.6))
        crossed = chsh_from_correlators(_make_set(0.8, 0.6, czx=0.3, cxz=0.3))
        assert crossed.value == pytest.approx(plain.value, abs=1e-12)

    def test_z_only_state_cannot_violate(self):
        report = chsh_from_correlators(_make_set(1.0, 0.0))
        assert report.value == pytest.approx(ROOT2, abs=1e-12)
        assert not report.violated


class TestBitForm:
    def test_bit_value_is_half_the_spin_value(self):
        spin = chsh_value(lambda a, b: math.cos(a - b))
        bit = bit_bell_value(lambda a, b: 0.5 * (1.0 - math.cos(a - b)))
        assert bit.bound == 1.0
        assert bit.value == pytest.approx(spin.value / 2.0, abs=1e-12)

    def test_from_correlators_matches_direct_halving(self):
        corr = _make_set(0.9, 0.7)
        spin = chsh_from_correlators(corr)
        bit = bit_bell_from_correlators(corr)
        assert bit.value == pytest.approx(spin.value / 2.0, abs=1e-12)
        assert bit.violated == (bit.value > 1.0)

    def test_algebraic_maximum(self):
        table = {
            (0.0, math.pi / 4.0): 0.0,
            (0.0, -math.pi / 4.0): 0.0,
            (math.pi / 2.0, math.pi / 4.0): 0.0,
            (math.pi / 2.0, -math.pi / 4.0): 1.0,
        }
        report = bit_bell_value(lambda a, b: table[(a, b)])
        assert report.value == 2.0
        assert report.violated

    def test_xor_expectations_must_be_probabilities(self):
        with pytest.raises(RangeError):
            bit_bell_value(lambda a, b: -0.2)
        with pytest.raises(RangeError):
            bit_bell_value(lambda a, b: 1.2)


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
        report = chsh_value(lambda a, b: math.cos(a - b))
        assert report.bound == lhv_chsh_max() == 2.0

    def test_bit_bound_is_one(self):
        assert lhv_bit_bell_max() == 1.0

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
        corr = _make_set(0.82, 0.55, czx=0.1, cxz=0.1)
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

    def test_settings_do_not_depend_on_singular_vector_signs(self, monkeypatch):
        corr = _make_set(0.6, -0.45, cyy=-0.3, czx=0.2, cxz=0.2)
        want = (optimize_settings(corr), optimize_settings(corr, include_y=True))
        real_svd = np.linalg.svd

        def flipped_svd(t):
            u, sv, vh = real_svd(t)
            return -u, sv, -vh

        monkeypatch.setattr(np.linalg, "svd", flipped_svd)
        assert (optimize_settings(corr), optimize_settings(corr, include_y=True)) == want

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


@hypothesis_settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(czz=_unit, cxx=_unit, cyy=_unit, czx=_unit, cxz=_unit)
def test_closed_form_is_the_maximum(czz, cxx, cyy, czx, cxz):
    """The SVD settings reach 2 sqrt(t1^2 + t2^2) and no other settings beat them."""
    # Scale so no setting pair gives |E| > 1, which chsh_from_correlators rejects.
    norm = max(1.0, np.linalg.norm([[czz, czx], [cxz, cxx]], 2))
    czz, cxx, cyy, czx, cxz = (c / norm for c in (czz, cxx, cyy, czx, cxz))
    # A cross error of 0.1 lets czx and cxz differ by up to 2.
    corr = _make_set(czz, cxx, cyy=cyy, czx=czx, cxz=cxz, cross_err=0.1)
    settings, planar = optimize_settings(corr)
    assert planar == pytest.approx(chsh_from_correlators(corr, settings).value, abs=1e-12)
    assert planar == pytest.approx(_svd_chsh_max([[czz, czx], [cxz, cxx]]), abs=1e-12)
    rng = np.random.default_rng(0)
    for angles in rng.uniform(-math.pi, math.pi, size=(64, 4)):
        assert planar >= chsh_from_correlators(corr, ChshSettings(*angles)).value - 1e-12
    _, value = optimize_settings(corr, include_y=True)
    assert value >= planar - 1e-12
    t3 = [[czz, czx, 0.0], [cxz, cxx, 0.0], [0.0, 0.0, cyy]]
    assert value == pytest.approx(_svd_chsh_max(t3), abs=1e-12)


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, boxspin, boxspin.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
