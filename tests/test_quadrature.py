"""Panel quadrature against closed forms computed through erf.

The box-sum evaluators are checked against exact box probabilities of
the normal distribution: with independent coordinates every signed box
sum factorizes, so 2D answers follow from 1D erf differences.
"""

import math

import numpy as np
import pytest

from boxspin import (
    InvalidScale,
    NonFiniteIntegrand,
    QuadratureSpec,
    integrate_gaussian_lattice,
    integrate_gaussian_line,
    integrate_gaussian_poisson,
)
from boxspin import quadrature
from boxspin.quadrature import PoissonSeries


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestSpecValidation:
    def test_rejects_tiny_panel_order(self):
        with pytest.raises(InvalidScale):
            QuadratureSpec(panel_order=1, tail_radius=5.0)

    def test_rejects_bad_tail_radius(self):
        with pytest.raises(InvalidScale):
            QuadratureSpec(tail_radius=0.0)
        with pytest.raises(InvalidScale):
            QuadratureSpec(tail_radius=math.inf)


def _box_integrals(l: float, centre: float, ns: np.ndarray) -> np.ndarray:
    """Integral of exp(-(x - centre)**2) over each box [n*l, (n+1)*l)."""
    return np.array(
        [0.5 * math.sqrt(math.pi) * (math.erf((n + 1) * l - centre) - math.erf(n * l - centre))
         for n in ns]
    )


def _parity(n):
    return 1 - 2 * (n % 2)


def _even(n):
    return (n % 2 == 0).astype(int)


class TestGaussianLattice:
    """At r = 0 (c = 1, s = 0) the coordinates are independent, so every
    signed box sum factorizes into two one-dimensional erf sums."""

    @pytest.mark.parametrize(
        "spec, max_err",
        [
            (QuadratureSpec(max_panel_width=0.5, tail_radius=9.0), 1e-12),
            # Under-resolved panels: the half-order difference must carry the error.
            (QuadratureSpec(panel_order=4, max_panel_width=0.7, tail_radius=9.0), 1e-2),
        ],
    )
    def test_independent_coordinates_factorize(self, spec, max_err):
        l, a, b = 0.7, 0.3, -0.2
        # Mass 2*pi: the sum of 2*exp(-(u - a)**2 - (v - b)**2) over the boxes.
        res = integrate_gaussian_lattice(
            l, 1.0, 0.0, (a, b), _parity, _even, math.log(2.0 * math.pi), spec
        )
        ns = np.arange(-40, 40)
        expected = 2.0 * float(
            np.sum(_parity(ns) * _box_integrals(l, a, ns))
            * np.sum(_even(ns) * _box_integrals(l, b, ns))
        )
        assert abs(expected) > 1e-3  # the oracle must not be trivially zero
        assert abs(res.value - expected) <= res.error_estimate
        assert res.error_estimate < max_err

    def test_far_mean_keeps_the_mass(self):
        """A mean about a hundred boxes out: with every sign +1 the sum is the mass."""
        c, s = math.cosh(1.0), math.sinh(1.0)
        one = np.ones_like
        spec = QuadratureSpec(max_panel_width=0.5, tail_radius=10.0)
        res = integrate_gaussian_lattice(0.6, c, s, (60.3, -40.7), one, one, math.log(math.pi), spec)
        assert res.value == pytest.approx(math.pi, rel=1e-9)
        assert abs(res.value - math.pi) <= res.error_estimate

    @pytest.mark.parametrize("mean", [(1800.0, -1200.0), (-1800.1, 1799.9), (0.3, 1800.2)])
    def test_mean_thousands_of_boxes_out_stays_within_the_bound(self, mean):
        """About 3000 boxes out the rounding of absolute positions, not of
        the sums, sets the error, and the bound must cover it."""
        c, s = math.cosh(1.0), math.sinh(1.0)
        one = np.ones_like
        spec = QuadratureSpec(max_panel_width=0.5, tail_radius=10.0)
        res = integrate_gaussian_lattice(0.6, c, s, mean, one, one, math.log(math.pi), spec)
        assert abs(res.value - math.pi) <= res.error_estimate
        assert res.error_estimate < 1e-10

    def test_rejects_bad_inputs(self):
        one = np.ones_like
        spec = QuadratureSpec(tail_radius=5.0)
        with pytest.raises(InvalidScale):
            integrate_gaussian_lattice(0.0, 1.0, 0.0, (0.0, 0.0), one, one, 0.0, spec)
        with pytest.raises(InvalidScale):  # not a (cosh 2r, sinh 2r) pair
            integrate_gaussian_lattice(1.0, 2.0, 0.5, (0.0, 0.0), one, one, 0.0, spec)
        with pytest.raises(InvalidScale):
            integrate_gaussian_lattice(
                1.0, 1.0, 0.0, (0.0, 0.0), lambda n: 2 * np.ones_like(n), one, 0.0, spec
            )


class TestGaussianPoisson:
    """The theta series against the same factorized erf oracle at r = 0,
    where the coordinates are independent with variance 1/2."""

    @pytest.mark.parametrize("l", [0.3, 0.7, 2.5, 9.0])
    @pytest.mark.parametrize("half_boxes", [(1, 0), (0, 1), (1, 1), (2, 0)])
    def test_independent_coordinates_factorize(self, l, half_boxes):
        res = integrate_gaussian_poisson(l, 0.0, _parity, _even, math.log(2.0), half_boxes)
        ns = np.arange(-60, 60)
        a, b = (-h * l / 2.0 for h in half_boxes)
        expected = 2.0 / math.pi * float(
            np.sum(_parity(ns) * _box_integrals(l, a, ns))
            * np.sum(_even(ns) * _box_integrals(l, b, ns))
        )
        assert abs(res.value - expected) <= res.error_estimate + 1e-15
        assert res.error_estimate < 1e-13

    def test_blocks_without_real_part_are_exactly_zero(self):
        """Parity on u, even boxes on v, mean (0, -l/2): every term is
        imaginary, so there is nothing to sum and no tail to bound."""
        res = integrate_gaussian_poisson(0.8, 1.5, _parity, _even, 0.0, (0, 1))
        assert (res.value, res.error_estimate) == (0.0, 0.0)
        assert PoissonSeries([0.8], 1.5, _parity, _even, [0.0], (0, 1)).terms == [0]

    @pytest.mark.parametrize("l, r", [(0.03, 2.0), (0.25, 0.5), (7.5, 1.0), (50.0, 0.0)])
    @pytest.mark.parametrize("half_boxes", [(0, 0), (1, 1), (1, 0)])
    def test_the_sum_takes_the_planned_terms(self, monkeypatch, l, r, half_boxes):
        """``terms`` counts the exponentials the sum evaluates, and the plan
        sums to what the one-call form returns."""
        series = PoissonSeries([l], r, _even, _parity, [math.log(2.0)], half_boxes)
        evaluated = []
        real_exp = np.exp

        def counted_exp(x, *args, **kwargs):
            evaluated.append(np.size(x))
            return real_exp(x, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "exp", counted_exp)
            (res,) = series.integrate()
        assert sum(evaluated) == series.terms[0]
        assert res == integrate_gaussian_poisson(l, r, _even, _parity, math.log(2.0), half_boxes)

    def test_mirrored_terms_cancel_exactly(self):
        """At r = 0 the density series pairs (j, k) with (j, -k) and sums to 0."""
        for l in (0.5, 3.0, 20.0):
            assert integrate_gaussian_poisson(l, 0.0, _parity, _parity, 0.0).value == 0.0

    def test_underflowing_mass_takes_no_terms(self):
        assert PoissonSeries([50.0], 0.0, _even, _even, [-1250.0], (1, 1)).terms == [0]
        res = integrate_gaussian_poisson(50.0, 0.0, _even, _even, -1250.0, (1, 1))
        assert res.value == 0.0
        assert 0.0 < res.error_estimate < 1e-300

    def test_terms_shrink_with_the_box(self):
        counts = PoissonSeries([50.0, 7.5, 1.0, 0.03], 2.0, _parity, _parity, [0.0] * 4).terms
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 0

    def test_rejects_bad_inputs(self):
        one = np.ones_like
        with pytest.raises(InvalidScale):
            integrate_gaussian_poisson(0.0, 0.0, one, one, 0.0)
        with pytest.raises(InvalidScale):
            integrate_gaussian_poisson(1.0, -0.5, one, one, 0.0)
        with pytest.raises(InvalidScale):  # period 3, not 2
            integrate_gaussian_poisson(1.0, 0.0, lambda n: (n % 3 == 0).astype(int), one, 0.0)
        with pytest.raises(InvalidScale):
            integrate_gaussian_poisson(1.0, 0.0, lambda n: 2 * np.ones_like(n), one, 0.0)


class TestOverflowingMass:
    """A log_mass whose exponential overflows is rejected before any work."""

    @pytest.mark.parametrize("log_mass", [800.0, math.inf, math.nan])
    def test_lattice_rejects_it_up_front(self, monkeypatch, log_mass):
        def unused(*args):
            raise AssertionError("the panel loop ran")

        monkeypatch.setattr(quadrature, "_erf_box_sums", unused)
        one = np.ones_like
        with pytest.raises(NonFiniteIntegrand):
            integrate_gaussian_lattice(
                1.0, 1.0, 0.0, (0.0, 0.0), one, one, log_mass, QuadratureSpec(tail_radius=5.0)
            )

    @pytest.mark.parametrize("log_mass", [800.0, math.inf, math.nan])
    def test_series_rejects_it_up_front(self, log_mass):
        one = np.ones_like
        with pytest.raises(NonFiniteIntegrand):
            PoissonSeries([1.0], 0.0, one, one, [log_mass])
        with pytest.raises(NonFiniteIntegrand):
            PoissonSeries([1.0, 2.0], 0.0, one, one, [0.0, log_mass])
        with pytest.raises(NonFiniteIntegrand):
            integrate_gaussian_poisson(1.0, 0.0, one, one, log_mass)

    def test_largest_finite_mass_passes_the_check(self):
        """exp(ln(max float)) is finite, so the check lets it through."""
        assert math.isfinite(math.exp(quadrature._LOG_MAX))
        one = np.ones_like
        series = PoissonSeries([1.0], 0.0, one, one, [quadrature._LOG_MAX])
        assert series.mass == [math.exp(quadrature._LOG_MAX)]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_lattice_sum_past_the_float_range_is_an_error(self):
        """At log_mass = 709 the mass is finite but the lattice's sums overflow."""
        one = np.ones_like
        with pytest.raises(NonFiniteIntegrand):
            integrate_gaussian_lattice(
                1.0, 1.0, 0.0, (0.0, 0.0), one, one, 709.0, QuadratureSpec(tail_radius=5.0)
            )


class TestGaussianLine:
    """The closed-form box sum of a centred normal; the cases take the erf
    window from 2 boxes (l = 50, sigma = 0.7) to ~45000 (l = 0.03,
    sigma = 74, the marginal width at r = 5)."""

    CASES = [(0.6, 1.0), (1.5, 1.0), (0.03, 0.7), (50.0, 0.7), (0.03, 74.0), (7.5, 74.0)]

    @pytest.mark.parametrize("l, sigma", CASES)
    def test_total_mass_is_one(self, l, sigma):
        res = integrate_gaussian_line(l, sigma, np.ones_like)
        assert abs(res.value - 1.0) <= res.error_estimate
        assert res.error_estimate < 1e-13

    @pytest.mark.parametrize(
        "sign",
        [
            lambda n: (n % 2 == 0).astype(int),
            lambda n: (n % 3 == 0).astype(int) - (n % 3 == 1).astype(int),
        ],
        ids=["even", "mod3"],
    )
    @pytest.mark.parametrize("l, sigma", CASES)
    def test_signed_boxes_match_cdf_sum(self, l, sigma, sign):
        """Against a sum of normal-cdf differences.

        Reflection maps box m onto box -m - 1, so the even-box sum is 1/2
        at every l; the mod-3 signs have no such pairing, so a sign table
        shifted by one box shows.
        """
        res = integrate_gaussian_line(l, sigma, sign)
        n_max = math.ceil(12.0 * sigma / l) + 1
        ns = np.arange(-n_max, n_max)
        expected = math.fsum(
            int(k) * (_normal_cdf((n + 1) * l / sigma) - _normal_cdf(n * l / sigma))
            for n, k in zip(ns, sign(ns))
        )
        # Each cdf difference carries at most ~1.5 eps of rounding.
        oracle_err = 4.0 * np.finfo(float).eps * n_max
        assert abs(res.value - expected) <= res.error_estimate + oracle_err

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidScale):
            integrate_gaussian_line(0.0, 1.0, np.ones_like)
        with pytest.raises(InvalidScale):
            integrate_gaussian_line(1.0, 0.0, np.ones_like)
        with pytest.raises(InvalidScale):  # signs outside {-1, 0, +1}
            integrate_gaussian_line(1.0, 1.0, lambda n: 2 * np.ones_like(n))
