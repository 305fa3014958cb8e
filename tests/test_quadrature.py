"""Panel quadrature against closed forms computed through erf.

The box-sum evaluators are checked against exact box probabilities of
the normal distribution: with independent coordinates every signed box
sum factorizes, so 2D answers follow from 1D erf differences.
"""

import itertools
import math

import numpy as np
import pytest

from boxspin import (
    InvalidScale,
    NonFiniteIntegrand,
    integrate_gaussian_lattice,
    integrate_gaussian_line,
)
from boxspin import quadrature
from boxspin.quadrature import PoissonSeries, integrate_gaussian_box_sums


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _box_integrals(l: float, centre: float, ns: np.ndarray) -> np.ndarray:
    """Integral of exp(-(x - centre)**2) over each box [n*l, (n+1)*l)."""
    return np.array(
        [0.5 * math.sqrt(math.pi) * (math.erf((n + 1) * l - centre) - math.erf(n * l - centre))
         for n in ns]
    )


# Signs as the evaluators take them: (value on even boxes, value on odd boxes).
_PARITY, _EVEN, _ODD, _ONE = (1, -1), (1, 0), (0, 1), (1, 1)
# All nine of them.
_PAIRS = list(itertools.product((-1, 0, 1), repeat=2))
_PAIR_IDS = [f"{s0:+d}{s1:+d}" for s0, s1 in _PAIRS]


def _on_boxes(sign, ns: np.ndarray) -> np.ndarray:
    """The sign pair's value on each box index of ``ns``."""
    return np.array(sign)[ns % 2]


class TestGaussianLattice:
    """At r = 0 (c = 1, s = 0) the coordinates are independent, so every
    signed box sum factorizes into two one-dimensional erf sums."""

    @pytest.mark.parametrize(
        "panel_order, max_err",
        [
            (quadrature._PANEL_ORDER, 1e-12),
            # Under-resolved panels: the half-order difference must carry the error.
            (4, 1e-2),
        ],
    )
    def test_independent_coordinates_factorize(self, monkeypatch, panel_order, max_err):
        monkeypatch.setattr(quadrature, "_PANEL_ORDER", panel_order)
        l, a, b = 0.7, 0.3, -0.2
        # Mass 2*pi: the sum of 2*exp(-(u - a)**2 - (v - b)**2) over the boxes.
        res = integrate_gaussian_lattice(
            l, 1.0, 0.0, (a, b), _PARITY, _EVEN, math.log(2.0 * math.pi)
        )
        ns = np.arange(-40, 40)
        expected = 2.0 * float(
            np.sum(_on_boxes(_PARITY, ns) * _box_integrals(l, a, ns))
            * np.sum(_on_boxes(_EVEN, ns) * _box_integrals(l, b, ns))
        )
        assert abs(expected) > 1e-3  # the oracle must not be trivially zero
        assert abs(res.value - expected) <= res.error_estimate
        assert res.error_estimate < max_err

    def test_far_mean_keeps_the_mass(self):
        """A mean about a hundred boxes out: with every sign +1 the sum is the mass."""
        c, s = math.cosh(1.0), math.sinh(1.0)
        res = integrate_gaussian_lattice(0.6, c, s, (60.3, -40.7), _ONE, _ONE, math.log(math.pi))
        assert res.value == pytest.approx(math.pi, rel=1e-9)
        assert abs(res.value - math.pi) <= res.error_estimate

    @pytest.mark.parametrize("mean", [(1800.0, -1200.0), (-1800.1, 1799.9), (0.3, 1800.2)])
    def test_mean_thousands_of_boxes_out_stays_within_the_bound(self, mean):
        """About 3000 boxes out the rounding of absolute positions, not of
        the sums, sets the error, and the bound must cover it."""
        c, s = math.cosh(1.0), math.sinh(1.0)
        res = integrate_gaussian_lattice(0.6, c, s, mean, _ONE, _ONE, math.log(math.pi))
        assert abs(res.value - math.pi) <= res.error_estimate
        assert res.error_estimate < 1e-10

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidScale):
            integrate_gaussian_lattice(0.0, 1.0, 0.0, (0.0, 0.0), _ONE, _ONE, 0.0)
        with pytest.raises(InvalidScale):  # not a (cosh 2r, sinh 2r) pair
            integrate_gaussian_lattice(1.0, 2.0, 0.5, (0.0, 0.0), _ONE, _ONE, 0.0)


def _theta(l, r, su, sv, log_mass, half_boxes=(0, 0)):
    """The theta series at one box length, planned and summed."""
    return PoissonSeries([l], r, su, sv, [log_mass], half_boxes).integrate()[0]


class TestGaussianPoisson:
    """The theta series against the same factorized erf oracle at r = 0,
    where the coordinates are independent with variance 1/2."""

    @pytest.mark.parametrize("l", [0.3, 0.7, 2.5, 9.0])
    @pytest.mark.parametrize("half_boxes", [(1, 0), (0, 1), (1, 1), (2, 0)])
    def test_independent_coordinates_factorize(self, l, half_boxes):
        res = _theta(l, 0.0, _PARITY, _EVEN, math.log(2.0), half_boxes)
        ns = np.arange(-60, 60)
        a, b = (-h * l / 2.0 for h in half_boxes)
        expected = 2.0 / math.pi * float(
            np.sum(_on_boxes(_PARITY, ns) * _box_integrals(l, a, ns))
            * np.sum(_on_boxes(_EVEN, ns) * _box_integrals(l, b, ns))
        )
        assert abs(res.value - expected) <= res.error_estimate + 1e-15
        assert res.error_estimate < 1e-13

    def test_blocks_without_real_part_are_exactly_zero(self):
        """Parity on u, even boxes on v, mean (0, -l/2): every term is
        imaginary, so there is nothing to sum and no tail to bound."""
        res = _theta(0.8, 1.5, _PARITY, _EVEN, 0.0, (0, 1))
        assert (res.value, res.error_estimate) == (0.0, 0.0)
        assert PoissonSeries([0.8], 1.5, _PARITY, _EVEN, [0.0], (0, 1)).terms == [0]

    @pytest.mark.parametrize("l, r", [(0.03, 2.0), (0.25, 0.5), (7.5, 1.0), (50.0, 0.0)])
    @pytest.mark.parametrize("half_boxes", [(0, 0), (1, 1), (1, 0)])
    def test_the_sum_takes_the_planned_terms(self, monkeypatch, l, r, half_boxes):
        """``terms`` counts the exponentials the sum evaluates, and the plan
        sums to what a fresh plan at that box length returns."""
        series = PoissonSeries([l], r, _EVEN, _PARITY, [math.log(2.0)], half_boxes)
        evaluated = []
        real_exp = np.exp

        def counted_exp(x, *args, **kwargs):
            evaluated.append(np.size(x))
            return real_exp(x, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "exp", counted_exp)
            (res,) = series.integrate()
        assert sum(evaluated) == series.terms[0]
        assert res == _theta(l, r, _EVEN, _PARITY, math.log(2.0), half_boxes)

    def test_mirrored_terms_cancel_exactly(self):
        """At r = 0 the density series pairs (j, k) with (j, -k) and sums to 0."""
        for l in (0.5, 3.0, 20.0):
            assert _theta(l, 0.0, _PARITY, _PARITY, 0.0).value == 0.0

    def test_underflowing_mass_takes_no_terms(self):
        assert PoissonSeries([50.0], 0.0, _EVEN, _EVEN, [-1250.0], (1, 1)).terms == [0]
        res = _theta(50.0, 0.0, _EVEN, _EVEN, -1250.0, (1, 1))
        assert res.value == 0.0
        assert 0.0 < res.error_estimate < 1e-300

    def test_terms_shrink_with_the_box(self):
        counts = PoissonSeries([50.0, 7.5, 1.0, 0.03], 2.0, _PARITY, _PARITY, [0.0] * 4).terms
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidScale):
            _theta(0.0, 0.0, _ONE, _ONE, 0.0)
        with pytest.raises(InvalidScale):
            _theta(1.0, -0.5, _ONE, _ONE, 0.0)


class TestOverflowingMass:
    """A log_mass whose exponential overflows is rejected before any work."""

    @pytest.mark.parametrize("log_mass", [800.0, math.inf, math.nan])
    def test_lattice_rejects_it_up_front(self, monkeypatch, log_mass):
        def unused(*args):
            raise AssertionError("the panel loop ran")

        monkeypatch.setattr(quadrature, "_erf_boxes", unused)
        with pytest.raises(NonFiniteIntegrand):
            integrate_gaussian_lattice(1.0, 1.0, 0.0, (0.0, 0.0), _ONE, _ONE, log_mass)

    @pytest.mark.parametrize("log_mass", [800.0, math.inf, math.nan])
    def test_series_rejects_it_up_front(self, log_mass):
        with pytest.raises(NonFiniteIntegrand):
            PoissonSeries([1.0], 0.0, _ONE, _ONE, [log_mass])
        with pytest.raises(NonFiniteIntegrand):
            PoissonSeries([1.0, 2.0], 0.0, _ONE, _ONE, [0.0, log_mass])

    def test_largest_finite_mass_passes_the_check(self):
        """exp(ln(max float)) is finite, so the check lets it through."""
        assert math.isfinite(math.exp(quadrature._LOG_MAX))
        series = PoissonSeries([1.0], 0.0, _ONE, _ONE, [quadrature._LOG_MAX])
        assert series.mass == [math.exp(quadrature._LOG_MAX)]

    @pytest.mark.parametrize("log_mass", [704.0, 707.0, 709.0])
    def test_series_sum_past_the_float_range_is_an_error(self, log_mass):
        """The mass is finite, but the sum's rounding floor overflows."""
        series = PoissonSeries([1.0], 0.0, _ONE, _ONE, [log_mass])
        with pytest.raises(NonFiniteIntegrand):
            series.integrate()

    @pytest.mark.parametrize("log_mass", [800.0, math.inf, math.nan])
    def test_line_rejects_it_up_front(self, log_mass):
        with pytest.raises(NonFiniteIntegrand):
            integrate_gaussian_line(1.0, 1.0, _ONE, 0.0, log_mass)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_lattice_sum_past_the_float_range_is_an_error(self):
        """At log_mass = 709 the mass is finite but the lattice's sums overflow."""
        with pytest.raises(NonFiniteIntegrand):
            integrate_gaussian_lattice(1.0, 1.0, 0.0, (0.0, 0.0), _ONE, _ONE, 709.0)


class TestGaussianLine:
    """The closed-form box sum of a centred normal; the cases take the erf
    window from 2 boxes (l = 50, sigma = 0.7) to ~45000 (l = 0.03,
    sigma = 74, the marginal width at r = 5)."""

    CASES = [(0.6, 1.0), (1.5, 1.0), (0.03, 0.7), (50.0, 0.7), (0.03, 74.0), (7.5, 74.0)]

    @pytest.mark.parametrize("l, sigma", CASES)
    def test_total_mass_is_one(self, l, sigma):
        res = integrate_gaussian_line(l, sigma, _ONE)
        assert abs(res.value - 1.0) <= res.error_estimate
        assert res.error_estimate < 1e-13

    @pytest.mark.parametrize("sign", _PAIRS, ids=_PAIR_IDS)
    @pytest.mark.parametrize("l, sigma", CASES)
    def test_signed_boxes_match_cdf_sum(self, l, sigma, sign):
        """Against a sum of normal-cdf differences, with the mean 1.37 boxes
        from 0: no reflection pairs the boxes about it, so a sign table
        shifted by one box shows wherever s_even != s_odd and sigma/l is
        small enough for the even and odd boxes to hold unequal mass.
        """
        mean = 1.37 * l
        res = integrate_gaussian_line(l, sigma, sign, mean)
        ns = np.arange(math.floor((mean - 12.0 * sigma) / l), math.ceil((mean + 12.0 * sigma) / l))
        expected = math.fsum(
            int(k) * (_normal_cdf(((n + 1) * l - mean) / sigma) - _normal_cdf((n * l - mean) / sigma))
            for n, k in zip(ns, _on_boxes(sign, ns))
        )
        # Each cdf difference carries at most ~1.5 eps of rounding.
        oracle_err = 2.0 * np.finfo(float).eps * len(ns)
        assert abs(res.value - expected) <= res.error_estimate + oracle_err

    @pytest.mark.parametrize("l, sigma", CASES)
    @pytest.mark.parametrize("shift", [-0.5, 0.37, 5000.25])
    def test_off_centre_boxes_match_cdf_sum(self, l, sigma, shift):
        """The even-box sum with the mean ``shift`` boxes from 0, against
        normal-cdf differences over every box within 12 sigma of the mean,
        each taken on the side of the mean away from it."""
        mean = shift * l
        res = integrate_gaussian_line(l, sigma, _EVEN, mean)
        lo = math.floor((mean - 12.0 * sigma) / l)
        hi = math.ceil((mean + 12.0 * sigma) / l)
        ns = np.arange(lo - lo % 2, hi, 2)

        def tail(x):
            return 0.5 * math.erfc(abs(x) / math.sqrt(2.0))

        expected = 0.0
        for n in ns:
            a, b = (n * l - mean) / sigma, ((n + 1) * l - mean) / sigma
            expected += tail(a) - tail(b) if a >= 0.0 else (
                tail(b) - tail(a) if b <= 0.0 else 1.0 - tail(a) - tail(b))
        oracle_err = 4.0 * np.finfo(float).eps * len(ns)
        assert abs(res.value - expected) <= res.error_estimate + oracle_err

    @pytest.mark.parametrize("l", [13.0, 19.49, 50.0])
    def test_boxes_at_equal_distance_are_kept_together(self, l):
        """With the mean at the centre of box -1, far beyond the window from
        either edge, the even boxes 0 and -2 hold the same mass, and the
        bound is relative to the value: 8 eps x**2 of it at x = l/2 erf widths
        out, where a window bound erfc(6.5) would exceed the value by up to
        10**254."""
        sigma = math.sqrt(0.5)
        res = integrate_gaussian_line(l, sigma, _EVEN, -l / 2.0)
        one_box = 0.5 * (math.erfc(l / 2.0) - math.erfc(3.0 * l / 2.0))
        assert res.value == pytest.approx(2.0 * one_box, rel=1e-12)
        assert res.error_estimate <= 10.0 * np.finfo(float).eps * (l / 2.0) ** 2 * res.value

    @pytest.mark.parametrize("l", [13.0, 19.49, 50.0])
    def test_bound_covers_the_rounding_of_the_erf_arguments(self, l):
        """The erf arguments carry a few eps of relative rounding; far out,
        erfc turns it into 2 x**2 times as much relative error, which the
        bound covers: moving sigma by 3 eps moves the value within it."""
        sigma = math.sqrt(0.5)
        res = integrate_gaussian_line(l, sigma, _EVEN, -l / 2.0)
        moved = integrate_gaussian_line(l, sigma * (1.0 + 3.0 * np.finfo(float).eps), _EVEN, -l / 2.0)
        assert moved.value != res.value
        assert abs(moved.value - res.value) <= res.error_estimate

    @pytest.mark.parametrize("l, sigma", CASES)
    def test_bound_covers_the_boxes_beyond_the_window(self, monkeypatch, l, sigma):
        """With every sign +1 the value misses just the mass beyond the
        outermost kept edges: those of the boxes within the window of the
        mean, 0.3 boxes from 0, and one box more on each side.  A window of
        1 erf width makes that mass visible; the bound must cover it."""
        monkeypatch.setattr(quadrature, "_ERF_WINDOW", 1.0)
        mean = 0.3 * l
        reach = math.sqrt(2.0) * sigma
        lo = (math.floor((mean - reach) / l) - 1) * l
        hi = (math.ceil((mean + reach) / l) + 1) * l
        beyond = _normal_cdf((lo - mean) / sigma) + _normal_cdf((mean - hi) / sigma)
        res = integrate_gaussian_line(l, sigma, _ONE, mean)
        assert res.error_estimate >= beyond
        assert abs(res.value - 1.0) <= res.error_estimate

    def test_mass_scales_the_value(self):
        """The log mass multiplies the value; at a mass that underflows the
        value is 0 and the bound the smallest subnormal."""
        base = integrate_gaussian_line(0.6, 1.0, _EVEN, -0.3)
        scaled = integrate_gaussian_line(0.6, 1.0, _EVEN, -0.3, -50.0)
        assert abs(scaled.value - math.exp(-50.0) * base.value) <= scaled.error_estimate
        assert scaled.error_estimate < 1e-13 * scaled.value
        gone = integrate_gaussian_line(0.6, 1.0, _EVEN, -0.3, -800.0)
        assert (gone.value, gone.error_estimate) == (0.0, math.ulp(0.0))

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidScale):
            integrate_gaussian_line(0.0, 1.0, _ONE)
        with pytest.raises(InvalidScale):
            integrate_gaussian_line(1.0, 0.0, _ONE)


# Each evaluator with ``sign`` in one of its sign arguments.
_SIGN_TAKERS = {
    "lattice-su": lambda sign: integrate_gaussian_lattice(1.0, 1.0, 0.0, (0.0, 0.0), sign, _ONE, 0.0),
    "lattice-sv": lambda sign: integrate_gaussian_lattice(1.0, 1.0, 0.0, (0.0, 0.0), _ONE, sign, 0.0),
    "line": lambda sign: integrate_gaussian_line(1.0, 1.0, sign),
    "series-su": lambda sign: PoissonSeries([1.0], 0.0, sign, _ONE, [0.0]),
    "series-sv": lambda sign: PoissonSeries([1.0], 0.0, _ONE, sign, [0.0]),
}


@pytest.mark.parametrize("taker", _SIGN_TAKERS.values(), ids=_SIGN_TAKERS.keys())
@pytest.mark.parametrize(
    "sign", [(2, 0), (1,), (1, 0, 1), np.ones_like], ids=["value-2", "one-value", "three-values", "callable"]
)
def test_rejects_a_sign_that_is_not_a_pair(taker, sign):
    """A sign is (value on even boxes, value on odd boxes), each in {-1, 0, +1}."""
    with pytest.raises(InvalidScale, match="pair"):
        taker(sign)


# Every (su, sv) pair of sign pairs, each half-box shift of the mean, and
# cells (l, r) from a few boxes per standard deviation to one box over several.
_BOX_SUM_SHIFTS = [(0, 0), (1, 0), (0, 1), (1, 1)]
_BOX_SUM_CELLS = [(0.3, 0.0), (1.0, 0.5), (2.5, 1.0), (0.7, 2.0), (7.5, 0.25)]


@pytest.mark.parametrize("l, r", _BOX_SUM_CELLS)
def test_every_sign_pair_agrees_across_evaluators(l, r):
    """The theta series and the erf lattice share no summation, so on every
    one of the 81 (su, sv) and each half-box shift they must agree within
    their summed bounds."""
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    failures = []
    for su, sv in itertools.product(_PAIRS, repeat=2):
        for shifts in _BOX_SUM_SHIFTS:
            series = _theta(l, r, su, sv, 0.0, shifts)
            mean = tuple(-h * l / 2.0 for h in shifts)
            lattice = integrate_gaussian_lattice(l, c, s, mean, su, sv, 0.0)
            if abs(series.value - lattice.value) > series.error_estimate + lattice.error_estimate:
                failures.append((su, sv, shifts, series, lattice))
    assert not failures


class TestBoxSumDispatch:
    """integrate_gaussian_box_sums picks each box length's evaluator from
    the predicted work and the signs, not from a list of pieces."""

    L, R, HALF_BOXES = 7.5, 0.0, (1, 1)
    MEAN = (-3.75, -3.75)

    def test_nonnegative_signs_fall_back_to_the_lattice(self):
        """Even boxes on u, odd boxes on v, both means half a box below 0.
        u's even boxes lie over 5 standard deviations from its mean, so
        the sum sits far below its mass and the series keeps few digits.
        Both signs are nonnegative, so the lattice's result replaces it."""
        series = PoissonSeries([self.L], self.R, _EVEN, _ODD, [0.0], self.HALF_BOXES)
        assert 0 < series.terms[0] < quadrature.gaussian_lattice_work(self.L, 1.0, 0.0)
        summed = series.integrate()[0]
        assert quadrature._lost_digits(summed)
        lattice = integrate_gaussian_lattice(self.L, 1.0, 0.0, self.MEAN, _EVEN, _ODD, 0.0)
        got = integrate_gaussian_box_sums([self.L], self.R, _EVEN, _ODD, [0.0], self.HALF_BOXES)
        assert got == [lattice]
        assert lattice.error_estimate < 1e-3 * summed.error_estimate
        assert abs(lattice.value - summed.value) <= lattice.error_estimate + summed.error_estimate

    def test_signed_sums_keep_the_series(self):
        """Parity on v, signs of both kinds: the series loses its digits
        just as above, but the lattice would cancel as much, so the series
        result stands."""
        series = PoissonSeries([self.L], self.R, _EVEN, _PARITY, [0.0], self.HALF_BOXES)
        assert 0 < series.terms[0] < quadrature.gaussian_lattice_work(self.L, 1.0, 0.0)
        summed = series.integrate()
        assert quadrature._lost_digits(summed[0])
        assert integrate_gaussian_box_sums([self.L], self.R, _EVEN, _PARITY, [0.0], self.HALF_BOXES) == summed
