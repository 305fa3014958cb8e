"""Correlators against a direct dense-sampling oracle and against bounds.

The dense oracle discretizes the two-mode wavefunction on a fine
midpoint mesh and applies the box operators literally: parity signs
multiply rows and columns, and the flip operator moves amplitude by one
box length between box partners.  No lattice reduction, prefactor
algebra, or shared quadrature code is involved, so agreement pins both
the integrand derivation and the panel sums.

Each piece's signs, mean and mass are checked pointwise against the
wavefunction products that define it, and against a 50-digit
derivation.  The error-bound tests check that every reported error
covers the distance to an independent value: the exact mass 1, the
exact <s_z> = 0, Monte Carlo sampling, and 40-digit mpmath sums: the
even boxes of <s_x>, their square for cxx at r = 0, and the theta
series of czz and cxx at squeezed corners and of cxx and cyy at the
benchmark sweep's lattice cells.  The two closed-form evaluators, the theta series and the erf
lattice, are also checked against each other over the whole accepted
domain.
"""

import dataclasses
import math
import sys
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxspin import (
    CorrelatorSet,
    InvalidScale,
    RangeError,
    SqueezeState,
    bit_bell_from_correlators,
    chsh_from_correlators,
    correlator,
    correlator_grid,
    correlator_set,
    czz_sampled,
    integrate_gaussian_lattice,
    rotated_correlator,
    single_site,
    wavefunction,
)
from boxspin import acceptance, correlators, quadrature
from boxspin.correlators import (
    _PIECES,
    PAIRS,
    MAX_BOX_LENGTH,
    MIN_BOX_LENGTH,
    _lattice_piece,
    _log_mass,
    clear_cache,
)
from boxspin.quadrature import PoissonSeries, gaussian_lattice_work, integrate_gaussian_box_sums

import mp_reference


# The box signs as the paper defines them, independent of the sign pairs
# (even-box value, odd-box value) production hands the evaluators.
def _parity(n):
    return 1 - 2 * (n % 2)


def _even(n):
    return (n % 2 == 0).astype(int)


def _on_boxes(sign, n):
    """A sign pair's value on each box index of ``n``."""
    return np.array(sign)[n % 2]


# The pieces czx and cxz would read if they were not exactly 0 by
# reflection, as acceptance criterion 7 sums them: (su, sv, (hu, hv)) as
# in _PIECES, with the mass <s_x> shares.
_CROSS_PIECES = acceptance._CROSS_SIGNS
_ALL_PIECES = {**_PIECES, **_CROSS_PIECES}


def _piece_log_mass(name: str, l: float, state: SqueezeState) -> float:
    if name in _CROSS_PIECES:
        return math.log(2.0) - state.cosh2r * l * l / 4.0
    return _log_mass(name, l, state)


def _box_sum(name: str, l: float, state: SqueezeState):
    """One piece, or one cross sign pair, by the evaluator integrate_gaussian_box_sums picks."""
    su, sv, shifts = _ALL_PIECES[name]
    return integrate_gaussian_box_sums([l], state.r, su, sv, [_piece_log_mass(name, l, state)], shifts)[0]


def _erf_piece(name: str, l: float, state: SqueezeState):
    """One piece, or one cross sign pair, by the erf lattice alone."""
    su, sv, shifts = _ALL_PIECES[name]
    mean = (-shifts[0] * l / 2.0, -shifts[1] * l / 2.0)
    return integrate_gaussian_lattice(
        l, state.cosh2r, state.sinh2r, mean, su, sv, _piece_log_mass(name, l, state)
    )


class _DenseOracle:
    """Mesh wavefunction with literal box-operator actions."""

    def __init__(self, l: float, r: float, extent: float = 6.0, h: float = 1.0 / 128.0):
        n = int(round(2 * extent / h))
        self.x = -extent + (np.arange(n) + 0.5) * h
        self.h = h
        state = SqueezeState(r)
        self.psi = wavefunction(self.x[:, None], self.x[None, :], state)
        self.norm = float(np.sum(self.psi**2))
        box = np.floor(self.x / l).astype(int)
        self.parity = 1 - 2 * (box % 2)
        self.shift = int(round(l / h))
        assert abs(self.shift * h - l) < 1e-12, "box length must sit on the mesh"
        self.even = box % 2 == 0

    def _flip(self, field: np.ndarray, axis: int, phase_plus, phase_minus) -> np.ndarray:
        """Apply phase_plus * (pull from partner above, on even boxes)
        plus phase_minus * (pull from partner below, on odd boxes)."""
        moved = np.zeros_like(field, dtype=complex)
        idx = np.arange(field.shape[axis])
        up = idx + self.shift
        down = idx - self.shift
        even = self.even
        f = np.moveaxis(field.astype(complex), axis, 0)
        out = np.moveaxis(moved, axis, 0)
        ok_up = even & (up < field.shape[axis])
        ok_down = (~even) & (down >= 0)
        out[idx[ok_up]] += phase_plus * f[up[ok_up]]
        out[idx[ok_down]] += phase_minus * f[down[ok_down]]
        return np.moveaxis(out, 0, axis)

    def apply(self, axis_ops: tuple[str, str]) -> complex:
        field = self.psi.astype(complex)
        for axis, op in enumerate(axis_ops):
            if op == "z":
                field = field * (self.parity[:, None] if axis == 0 else self.parity[None, :])
            elif op == "x":
                field = self._flip(field, axis, 1.0, 1.0)
            elif op == "y":
                field = self._flip(field, axis, -1.0j, 1.0j)
            elif op == "1":
                pass
            else:
                raise ValueError(op)
        return complex(np.sum(self.psi * field)) / self.norm


@pytest.fixture(scope="module")
def oracle():
    return _DenseOracle(l=1.0, r=0.6)


class TestAgainstDenseOracle:
    def test_all_pairs_at_moderate_squeezing(self, oracle):
        for pair, ops in (("zz", "zz"), ("xx", "xx"), ("yy", "yy"), ("zx", "zx"), ("xz", "xz")):
            want = oracle.apply(tuple(ops))
            assert abs(want.imag) < 1e-12
            got, err = correlator(pair, 1.0, 0.6)
            assert got == pytest.approx(want.real, abs=5e-4), pair

    def test_single_site_x(self, oracle):
        want = oracle.apply(("x", "1"))
        got, _ = single_site("x", 1.0, 0.6)
        assert got == pytest.approx(want.real, abs=5e-4)

    def test_single_site_z(self, oracle):
        want = oracle.apply(("z", "1"))
        got, _ = single_site("z", 1.0, 0.6)
        assert abs(want.real) < 1e-6
        assert abs(got) < 1e-9


def _derived_mean_and_log_mass(name: str, l: float, r: float):
    """Mean and log mass from the shifts (a, b) and prefactor of the
    derivation in docs/correlator-reduction.md, in 50-digit decimals.

    The piece is exp(log_const) times the box sum of exp(2s*u*v -
    c*(u - a)**2 - c*(v - b)**2).  That Gaussian has mean (c*(a*c + b*s),
    c*(b*c + a*s)) and mass pi*exp(g0), g0 its exponent at the mean; the
    log pi cancels against the one in log_const.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        l, r = Decimal(l), Decimal(r)
        e2r = (2 * r).exp()
        c, s = (e2r + 1 / e2r) / 2, (e2r - 1 / e2r) / 2
        if name == "density":
            a = b = Decimal(0)
            rest = Decimal(0)  # log pi + log_const = 0
        elif name == "step":
            a = b = (s - c) * l / (2 * c)
            rest = Decimal(2).ln() - l * l / (2 * c) + (1 + (-s * l * l).exp()).ln()
        else:
            a, b = s * l / (2 * c), -l / 2
            if name != "zx":
                a, b = b, a
            rest = Decimal(2).ln() - l * l / (4 * c)
        u0 = c * (a * c + b * s)
        v0 = c * (b * c + a * s)
        g0 = 2 * s * u0 * v0 - c * (u0 - a) ** 2 - c * (v0 - b) ** 2
        return (float(u0), float(v0)), float(rest + g0)


def _defining_integrand(name: str, l: float, state: SqueezeState):
    """Integrand and box signs of a piece, straight from the wavefunction.

    <A x B> = <psi|A x B|psi> with s_x = t + t^T, where t pulls psi down
    by one box onto the even boxes; both translation directions give the
    same real overlap, hence the factors 2.
    """
    def psi(u, v):
        return wavefunction(u, v, state)

    if name == "density":
        return (lambda u, v: psi(u, v) ** 2), (lambda n, m: _parity(n) * _parity(m))
    if name == "step":
        return (
            lambda u, v: 2.0 * (psi(u, v) * psi(u + l, v + l) + psi(u, v + l) * psi(u + l, v)),
            lambda n, m: _even(n) * _even(m),
        )
    if name == "zx":
        return (lambda u, v: 2.0 * psi(u, v) * psi(u, v + l)), (lambda n, m: _parity(n) * _even(m))
    sv = _parity if name == "xz" else np.ones_like
    return (lambda u, v: 2.0 * psi(u, v) * psi(u + l, v)), (lambda n, m: _even(n) * sv(m))


def _site_x_line(l: float, r: float) -> tuple:
    """The arguments (l, sigma, sign, mean, log_mass) of the one line sum
    single_site('x', l, r) takes."""
    calls = []
    real = correlators.integrate_gaussian_line

    def recorded(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlators, "integrate_gaussian_line", recorded)
        single_site("x", l, r)
    (args,) = calls
    return args


def _closed_forms(l: float, state: SqueezeState):
    """(name, su, sv, mean, log_mass) of every piece and cross sign pair,
    and of <s_x> as single_site sums it: the line's sign on u and its mean
    and mass, with sign 1 on the v it sums out."""
    for name, (su, sv, shifts) in _ALL_PIECES.items():
        mean = (-shifts[0] * l / 2.0, -shifts[1] * l / 2.0)
        yield name, su, sv, mean, _piece_log_mass(name, l, state)
    _, _, sign, mean, log_mass = _site_x_line(l, state.r)
    yield "site_x", sign, (1, 1), (mean, 0.0), log_mass


class TestClosedForms:
    @pytest.mark.parametrize("r", [0.0, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("l", [0.03, 1.0, 7.5, 50.0])
    def test_means_and_masses_match_the_derivation(self, r, l):
        """_PIECES, _log_mass, the cross sign pairs and <s_x>'s line against the (a, b) form,
        without its cancellations; the line's width is the u-marginal's,
        sqrt(c/2), since summing v out of the piece leaves N(u0, c/2)."""
        state = SqueezeState(r)
        for name, _, _, mean, log_mass in _closed_forms(l, state):
            derived_mean, derived_log_mass = _derived_mean_and_log_mass(name, l, r)
            assert mean == pytest.approx(derived_mean, abs=1e-14), name
            scale = 1.0 + abs(derived_log_mass) + l * l * math.exp(-2.0 * r)
            assert abs(log_mass - derived_log_mass) <= 4e-16 * scale, name
        sigma = _site_x_line(l, r)[1]
        assert sigma == pytest.approx(math.sqrt(math.cosh(2.0 * r) / 2.0), rel=4e-16)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.5, 3.0, 5.0])
    @pytest.mark.parametrize("l", [0.03, 0.25, 1.0, 4.0, 7.5, 50.0])
    def test_pieces_match_the_wavefunction_pointwise(self, r, l):
        """_PIECES, _log_mass, the cross sign pairs and <s_x>'s line against the wavefunction
        products that define each piece.

        The defining box signs must be su(n) * sv(m) on every box pair
        (both have period 2), and the defining integrand must equal
        exp(log_mass - c*x**2 - c*y**2 + 2*s*x*y)/pi, (x, y) = (u - u0,
        v - v0), at points along the ridge around the mean: out to 4
        standard deviations along it and 2 across.  Equal integrands
        have equal box sums, so this checks what both evaluators sum
        against the definition without integrating; for <s_x> the sum
        over v is then exp(log_mass) times the N(u0, c/2) density the
        line sums.  The wavefunctions' exponents, of size
        c*(|u| + l)**2, cancel down to the piece's, so the tolerance is
        8 eps relative on that scale.
        """
        state = SqueezeState(r)
        c, s = state.cosh2r, state.sinh2r
        # Standard deviations e**r/sqrt(2) along (1, 1) and e**-r/sqrt(2) across it.
        along = np.linspace(-4.0, 4.0, 17)[:, None] * (math.exp(r) / 2.0)
        across = np.linspace(-2.0, 2.0, 5)[None, :] * (math.exp(-r) / 2.0)
        boxes = np.arange(-4, 4)
        n, m = boxes[:, None], boxes[None, :]
        for name, su, sv, (u0, v0), log_mass in _closed_forms(l, state):
            f, sign = _defining_integrand(name, l, state)
            assert np.array_equal(sign(n, m), _on_boxes(su, n) * _on_boxes(sv, m)), name
            u, v = (u0 + along + across).ravel(), (v0 + along - across).ravel()
            x, y = u - u0, v - v0
            want = np.exp(log_mass - c * x * x - c * y * y + 2.0 * s * x * y) / math.pi
            scale = 1.0 + c * ((np.abs(u) + l) ** 2 + (np.abs(v) + l) ** 2)
            assert np.all(np.abs(f(u, v) - want) <= 8.0 * sys.float_info.epsilon * scale * want), name


class TestStructure:
    def test_product_state_factorizes(self):
        """At r=0 the two modes are independent: cxx = <s_x>^2, czz = cyy = 0."""
        l = 0.8
        cxx, cxx_err = correlator("xx", l, 0.0)
        sx, sx_err = single_site("x", l, 0.0)
        assert cxx == pytest.approx(sx**2, abs=5e-7)
        czz, _ = correlator("zz", l, 0.0)
        cyy, _ = correlator("yy", l, 0.0)
        assert abs(czz) < 1e-9
        assert abs(cyy) < 1e-12

    def test_yy_is_never_positive(self):
        for l, r in ((0.4, 0.5), (1.0, 1.0), (2.0, 2.0)):
            cyy, _ = correlator("yy", l, r)
            assert cyy <= 0.0

    def test_monte_carlo_agreement(self):
        value, err = correlator("zz", 0.9, 1.1)
        est, se = czz_sampled(0.9, 1.1, 200_000, seed=42)
        assert abs(value - est) <= 4.0 * se + err

    def test_correlator_set_is_consistent(self):
        cs = correlator_set(1.0, 0.6)
        assert cs.czz == correlator("zz", 1.0, 0.6)[0]
        assert cs.cxx == correlator("xx", 1.0, 0.6)[0]
        assert (cs.czx, cs.cxz, cs.czx_err, cs.cxz_err) == (0.0, 0.0, 0.0, 0.0)
        d = cs.as_dict()
        assert set(d) == {"l", "r", "czz", "cxx", "cyy", "czx", "cxz", "errs"}
        assert set(d["errs"]) == {"czz", "cxx", "cyy", "czx", "cxz"}


class TestRotation:
    def _synthetic(self):
        return CorrelatorSet(
            l=1.0, r=0.0, czz=0.6, cxx=0.5, cyy=-0.4,
            czz_err=0.0, cxx_err=0.0, cyy_err=0.0,
        )

    def test_axis_extractions(self):
        cs = self._synthetic()
        assert rotated_correlator(0.0, 0.0, cs) == pytest.approx(0.6)
        assert rotated_correlator(math.pi / 2, math.pi / 2, cs) == pytest.approx(0.5)
        assert rotated_correlator(0.0, math.pi / 2, cs) == pytest.approx(0.0, abs=1e-15)

    def test_bilinear_form(self):
        cs = self._synthetic()
        rng = np.random.default_rng(7)
        for a, b in rng.uniform(-math.pi, math.pi, size=(20, 2)):
            want = math.cos(a) * math.cos(b) * 0.6 + math.sin(a) * math.sin(b) * 0.5
            assert rotated_correlator(a, b, cs) == pytest.approx(want, abs=1e-14)


class TestValidation:
    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError):
            correlator("qq", 1.0, 0.5)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            single_site("y", 1.0, 0.5)

    def test_box_length_bounds(self):
        with pytest.raises(InvalidScale):
            correlator("zz", 0.0, 0.5)
        with pytest.raises(InvalidScale):
            correlator("zz", MAX_BOX_LENGTH * 2, 0.5)
        with pytest.raises(InvalidScale):
            czz_sampled(-1.0, 0.5, 1000)

    @pytest.mark.parametrize(
        "call, l",
        [
            (lambda l: correlator("zz", l, 1.0), 1e-160),
            (lambda l: correlator_set(l, 1.0), 5e-324),
            (lambda l: single_site("x", l, 1.0), 1e-150),
            (lambda l: correlator_grid(["xx"], [1.0, l], 0.5), math.nextafter(MIN_BOX_LENGTH, 0.0)),
        ],
    )
    def test_box_lengths_below_the_smallest_are_rejected(self, call, l):
        """The first three once failed inside the evaluators (a nan series
        plan, a division by zero, an array too large to allocate)."""
        with pytest.raises(InvalidScale, match=f"got {l!r}$"):
            call(l)

    @pytest.mark.parametrize("r", [0.0, 5.0])
    def test_the_smallest_box_length_evaluates(self, r):
        cs = correlator_set(MIN_BOX_LENGTH, r)
        assert cs.cyy <= cs.cyy_err and cs.cxx > 0.9
        sx, sx_err = single_site("x", MIN_BOX_LENGTH, r)
        assert 0.9 < sx <= 1.0 + sx_err

    def test_set_rejects_out_of_range_values(self):
        with pytest.raises(RangeError):
            CorrelatorSet(
                l=1.0, r=0.0, czz=1.5, cxx=0.0, cyy=0.0,
                czz_err=0.0, cxx_err=0.0, cyy_err=0.0,
            )

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"cxx": math.nan}, "cxx = nan"),
            ({"czz": math.inf}, "czz = inf"),
            ({"cyy": -math.inf, "cyy_err": 1.0}, "cyy = -inf"),
            ({"czz": 5.0, "czz_err": math.inf}, "czz_err = inf"),
            ({"cxx_err": math.nan}, "cxx_err = nan"),
            ({"cyy_err": -1e-3}, "cyy_err = -0.001"),
        ],
        ids=["nan-value", "inf-value", "minus-inf-value", "inf-error", "nan-error", "negative-error"],
    )
    def test_set_rejects_non_finite_values_and_errors(self, fields, name):
        """abs(nan) > bound is False, and an infinite error widens the
        bound to inf: both once let a set through that chsh_from_correlators
        reported as nan and optimize_settings could not wrap."""
        values = dict(l=1.0, r=0.0, czz=0.5, cxx=0.5, cyy=-0.2, czz_err=0.0, cxx_err=0.0, cyy_err=0.0)
        with pytest.raises(RangeError, match=name):
            CorrelatorSet(**{**values, **fields})

    @pytest.mark.parametrize("name", ["czx", "cxz", "czx_err", "cxz_err"])
    def test_set_holds_no_cross_terms(self, name):
        """The correlation matrix is diagonal: the set stores czz, cxx and
        cyy with their errors, rejects a cross term, and reads each as 0.0."""
        assert [f.name for f in dataclasses.fields(CorrelatorSet)] == [
            "l", "r", "czz", "cxx", "cyy", "czz_err", "cxx_err", "cyy_err",
        ]
        with pytest.raises(TypeError, match=name):
            CorrelatorSet(
                l=1.0, r=0.0, czz=0.0, cxx=0.0, cyy=0.0,
                czz_err=0.0, cxx_err=0.0, cyy_err=0.0, **{name: 0.2},
            )
        assert getattr(correlator_set(1.0, 2.0), name) == 0.0


class TestSampling:
    def test_seed_reproducibility(self):
        a = czz_sampled(1.0, 0.8, 50_000, seed=5)
        b = czz_sampled(1.0, 0.8, 50_000, seed=5)
        assert a == b
        c = czz_sampled(1.0, 0.8, 50_000, seed=6)
        assert a != c

    def test_standard_error_shrinks(self):
        _, se_small = czz_sampled(1.0, 0.8, 10_000, seed=1)
        _, se_big = czz_sampled(1.0, 0.8, 160_000, seed=1)
        assert se_big == pytest.approx(se_small / 4.0, rel=0.25)

    def test_tiny_sample_rejected(self):
        with pytest.raises(ValueError):
            czz_sampled(1.0, 0.8, 1)

    @pytest.mark.parametrize(
        "l, r, n, seed, expected",
        [
            (0.5, 0.3, 1_000_000, 100, (0.000686, 0.0010000002647022296)),
            (3.0, 2.0, 1_000_000, 103, (0.927614, 0.0003735403680144978)),
            # An odd count, so the last chunk is ragged.
            (0.03, 5.0, 200_001, 7, (0.6420617896910515, 0.0017142879837103273)),
        ],
    )
    def test_estimates_are_pinned(self, l, r, n, seed, expected):
        """The exact floats of the whole-array estimator this one replaced:
        the same stream and arithmetic, counted in chunks."""
        assert czz_sampled(l, r, n, seed=seed) == expected


class TestLatticeRuleAndCache:
    def test_lattice_rule_tracks_state_scales(self):
        """The tail radius is 8 sigma, or 3*l where that is wider; panels
        are capped at the box length or 2*sigma/cosh2r, whichever is less."""
        state = SqueezeState(2.0)
        for l, tail_radius, panel in (
            (0.1, 8.0 * state.sigma, 0.1),
            (1.0, 8.0 * state.sigma, 2.0 * state.sigma / state.cosh2r),
            (40.0, 120.0, 2.0 * state.sigma / state.cosh2r),
        ):
            width, radius = quadrature._lattice_rule(l, state.cosh2r)
            assert radius == pytest.approx(tail_radius)
            assert width == pytest.approx(panel)

    def test_cache_roundtrip(self):
        clear_cache()
        first = correlator("zz", 0.6, 0.9)
        again = correlator("zz", 0.6, 0.9)
        assert first == again
        clear_cache()
        fresh = correlator("zz", 0.6, 0.9)
        assert first == fresh


# Domain-scan box lengths, numpy.geomspace(0.03, 50, 41), and the <s_x>
# cells checked against the mpmath reference.
_SCAN_L = [float(l) for l in np.geomspace(0.03, 50.0, 41)]
_SITE_X_CELLS = (
    [(5.0, _SCAN_L[15]), (3.0, _SCAN_L[26])]
    + [(0.0, l) for l in _SCAN_L if l >= 13.0]
    + [(r, l) for r in (0.0, 2.0, 5.0) for l in (1.0, 50.0)]
)


class TestReportedErrorIsABound:
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("l", [0.25, 1.0, 4.0, 50.0])
    def test_mass_is_one(self, r, l):
        """The density piece with every sign +1 sums the whole joint density."""
        state = SqueezeState(r)
        one = (1, 1)
        res = integrate_gaussian_lattice(
            l, state.cosh2r, state.sinh2r, (0.0, 0.0), one, one, 0.0
        )
        assert abs(res.value - 1.0) <= res.error_estimate
        series = PoissonSeries([l], r, one, one, [0.0]).integrate()[0]
        assert abs(series.value - 1.0) <= series.error_estimate

    @pytest.mark.parametrize("r", [0.0, 2.0, 5.0])
    @pytest.mark.parametrize("l", [0.03, 1.0, 50.0])
    def test_sz_vanishes_within_error_at_corners(self, r, l):
        """Reflection maps box m onto box -m - 1 of opposite parity, so <s_z>
        is exactly 0, as single_site reports.  The dense oracle checks the
        symmetry itself (TestAgainstDenseOracle::test_single_site_z)."""
        assert single_site("z", l, r) == (0.0, 0.0)

    @pytest.mark.parametrize("r, l", _SITE_X_CELLS)
    def test_sx_matches_the_mpmath_reference(self, r, l):
        """<s_x> against a 40-digit sum of its even boxes' erfc differences:
        the two slowest cells of the domain scan before <s_x> became a
        line sum, the r = 0 cells with l >= 13, where the two even boxes
        at distance l/2 from the mean carry the value, and the corners
        with l >= 1."""
        value, err = single_site("x", l, r)
        assert abs(mpmath.mpf(value) - mp_reference.site_x(l, r)) <= err

    @pytest.mark.parametrize("l", _SCAN_L)
    def test_unsqueezed_xx_and_yy_match_the_mpmath_product(self, l):
        """At r = 0 the modes are independent, so cxx is the product of the
        sites' <s_x> (a 40-digit erfc sum) and cyy is 0.  correlator squares
        the line sum of <s_x>; where the square underflows (l > 27.2, the
        four largest box lengths here) its bound is the smallest
        subnormal, which covers the true value."""
        value, err = correlator("xx", l, 0.0)
        assert abs(mpmath.mpf(value) - mp_reference.cxx_unsqueezed(l)) <= err
        value, err = correlator("yy", l, 0.0)
        assert abs(value) <= err

    @pytest.mark.parametrize("l", _SCAN_L)
    def test_unsqueezed_step_box_sum_matches_the_mpmath_product(self, l):
        """The 2-D evaluators' step piece at r = 0, which production no
        longer runs, against the same product: the theta series takes the
        small boxes and the lattice the large ones; from l = 13.65 to 23.81
        the lattice keeps one of the two even boxes that carry the value,
        so it returns half of it, and only the bound covers that."""
        res = _box_sum("step", l, SqueezeState(0.0))
        assert abs(mpmath.mpf(res.value) - mp_reference.cxx_unsqueezed(l)) <= res.error_estimate

    @pytest.mark.parametrize("l", _SCAN_L)
    def test_unsqueezed_xx_bound_certifies_nine_digits(self, l):
        """Where cxx at r = 0 is a normal float its bound is at most
        5e-10 of it, so the printed digits are certified; the lattice's
        half values above l = 13.7 failed this."""
        value, err = correlator("xx", l, 0.0)
        if abs(value) >= sys.float_info.min:
            assert err <= 5e-10 * abs(value)

    @pytest.mark.parametrize("pair", ["zz", "xx"])
    @pytest.mark.parametrize("r", [2.0, 5.0])
    @pytest.mark.parametrize("l", [0.03, 1.0])
    def test_squeezed_corners_match_the_mpmath_theta_series(self, pair, r, l):
        """czz and cxx at the squeezed corners with l <= 1 against a
        40-digit theta series summed over (j, k) directly."""
        name = {"zz": "density", "xx": "step"}[pair]
        value, err = correlator(pair, l, r)
        assert abs(mpmath.mpf(value) - mp_reference.theta_piece(name, l, r)) <= err

    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_squeezed_lattice_cells_match_the_mpmath_theta_series(self, r):
        """cxx at l = 7.5, where the benchmark sweep's step piece falls back
        to the lattice, against the theta series at 40 digits of the value
        (40 + log10(mass/|value|) of the mass), and cyy through its ratio
        -tanh(s*l**2/2) to cxx."""
        l = 7.5
        value, err = correlator("xx", l, r)
        mass = mp_reference.piece_mass("step", l, r)
        digits = 40 + math.ceil(mpmath.log10(mass / abs(value)))
        ref = mp_reference.theta_piece("step", l, r, digits)
        assert abs(mpmath.mpf(value) - ref) <= err
        value, err = correlator("yy", l, r)
        with mpmath.workdps(digits + 10):
            ratio = mpmath.tanh(mpmath.sinh(2 * mpmath.mpf(r)) * mpmath.mpf(l) ** 2 / 2)
            assert abs(mpmath.mpf(value) + ratio * ref) <= err

    @pytest.mark.parametrize("l", [0.03, 1.0])
    def test_the_theta_reference_factorizes_at_r0(self, l):
        """The mpmath theta series against the mpmath erfc product, which
        shares no summation with it: the step series is the product and
        the density series cancels to 0, to 35 digits of the mass."""
        assert abs(mp_reference.theta_piece("step", l, 0.0) - mp_reference.cxx_unsqueezed(l)) < 1e-35
        assert abs(mp_reference.theta_piece("density", l, 0.0)) < 1e-35

    @pytest.mark.parametrize("r", [3.0, 5.0])
    def test_czz_matches_sampling_at_strong_squeezing(self, r):
        value, err = correlator("zz", 1.0, r)
        est, se = czz_sampled(1.0, r, 200_000, seed=11)
        assert abs(value - est) <= 4.0 * se + err

    @pytest.mark.parametrize("r", [0.0, 2.0, 5.0])
    @pytest.mark.parametrize("l", [0.03, 1.0, 50.0])
    def test_cross_sign_pairs_vanish_on_the_lattice_at_corners(self, r, l):
        """czx and cxz are exactly 0 by reflection, as correlator reports;
        the erf lattice, which sums the boxes in position space, finds each
        cross sign pair 0 within its bound at every corner."""
        state = SqueezeState(r)
        for name in _CROSS_PIECES:
            res = _erf_piece(name, l, state)
            assert abs(res.value) <= res.error_estimate, name
            assert correlator(name, l, r) == (0.0, 0.0)


# r <= 4 over every ROADMAP box length; at r = 5 the lattice takes about
# 2 s per box length, so only l = 50 is kept there.
_CROSS_GRID = [
    (r, l) for r in (0.0, 1.0, 2.0, 3.0, 4.0) for l in (0.03, 0.25, 1.0, 7.5, 50.0)
] + [(5.0, 50.0)]


def _series(name: str, l: float, state: SqueezeState) -> PoissonSeries:
    """The piece's (or cross sign pair's) theta series at box length l alone, planned."""
    su, sv, shifts = _ALL_PIECES[name]
    return PoissonSeries([l], state.r, su, sv, [_piece_log_mass(name, l, state)], shifts)


def _series_pays(name: str, l: float, state: SqueezeState) -> bool:
    """Whether the series takes fewer terms than the lattice's predicted work."""
    work = gaussian_lattice_work(l, state.cosh2r, _piece_log_mass(name, l, state))
    return _series(name, l, state).terms[0] < work


class TestEvaluatorsAgree:
    """The theta series (Fourier side) and the erf lattice (position side)
    share no summation, so each checks the other's value and bound."""

    @pytest.mark.parametrize("r, l", _CROSS_GRID)
    def test_pieces_agree_within_summed_bounds(self, r, l):
        state = SqueezeState(r)
        for name in _ALL_PIECES:
            series = _series(name, l, state).integrate()[0]
            lattice = _erf_piece(name, l, state)
            bound = series.error_estimate + lattice.error_estimate
            assert abs(series.value - lattice.value) <= bound, name

    def test_dispatch_follows_predicted_work(self):
        """Small boxes need a few series terms and many lattice nodes; at
        l = 50 and r = 0 the density series needs more terms than the
        lattice's nodes x edges.  The piece comes from the predicted winner."""
        state = SqueezeState(0.0)
        for name in _PIECES:
            assert _series_pays(name, 0.03, state), name
            assert _box_sum(name, 0.03, state) == _series(name, 0.03, state).integrate()[0]
        assert not _series_pays("density", 50.0, state)
        assert _box_sum("density", 50.0, state) == _erf_piece("density", 50.0, state)

    @pytest.mark.parametrize("name, r, l", [("step", 0.0, 7.5)])
    def test_nonnegative_pieces_fall_back_to_the_lattice(self, name, r, l):
        """Far below its mass a nonnegative piece keeps its digits on the lattice only."""
        state = SqueezeState(r)
        assert _series_pays(name, l, state)
        got = _box_sum(name, l, state)
        assert got == _erf_piece(name, l, state)
        assert got.error_estimate < 1e-3 * _series(name, l, state).integrate()[0].error_estimate


# Values and errors of the erf lattice before
# the lattice laid its u-panels only where the u-weight is nonzero:
# (piece, r, l): (value, error, u-panels laid then).
_UNCUT_LATTICE = {
    ("density", 0.0, 50.0): (0.0, 2.6346764293357707e-14, 216),
    ("step", 1.5, 50.0): (8.398858039300482e-56, 7.207635151886242e-47, 340),
    ("step", 2.0, 50.0): (2.7223347511183616e-21, 8.763865993958484e-30, 556),
    ("step", 0.0, 19.491549): (6.673666835973762e-168, 4.874718929395021e-102, 42),
}


class TestLatticeCut:
    """The erf lattice lays u-panels only where exp() of the u-weight's
    exponent is not 0.0, and its predicted work counts those panels."""

    @pytest.mark.parametrize("name, r, l", list(_UNCUT_LATTICE))
    def test_dropped_panels_held_only_zeros(self, name, r, l):
        """Fewer panels, the same value to the bit, and no larger error."""
        value, error, panels = _UNCUT_LATTICE[(name, r, l)]
        state = SqueezeState(r)
        res = _erf_piece(name, l, state)
        assert res.panels_used < panels
        assert res.value == value
        assert res.error_estimate <= error

    @pytest.mark.parametrize(
        "name, r, l",
        [(name, r, l) for name in ("density", "step")
         for r, l in ((0.0, 50.0), (0.25, 23.81), (1.0, 50.0), (2.0, 50.0), (0.0, 19.491549),
                      (0.5, 7.5), (2.0, 1.0), (1.0, 0.25))],
    )
    def test_work_counts_the_panels_laid(self, monkeypatch, name, r, l):
        """The prediction covers the full-order u-nodes x edges the lattice
        evaluates; where the cut ends the range inside a box it counts
        panels, so for density, whose every box is laid, it is within one
        panel per side."""
        state = SqueezeState(r)
        log_mass = _log_mass(name, l, state)
        entries = []
        real_erfc = quadrature.erfc

        def counted(x, *args, **kwargs):
            if np.ndim(x) == 2:
                entries.append(x.size)
            return real_erfc(x, *args, **kwargs)

        monkeypatch.setattr(quadrature, "erfc", counted)
        res = _erf_piece(name, l, state)
        full, half = quadrature._PANEL_ORDER, quadrature._PANEL_ORDER // 2
        edges = quadrature._edge_count(l, math.sqrt(state.cosh2r))
        assert sum(entries) == res.panels_used * (full + half) * edges
        evaluated = res.panels_used * full * edges
        work = gaussian_lattice_work(l, state.cosh2r, log_mass)
        assert work >= evaluated
        tail_radius = quadrature._lattice_rule(l, state.cosh2r)[1]
        if name == "density" and quadrature._weight_reach(state.cosh2r, log_mass) < tail_radius:
            assert work - evaluated <= 2 * full * edges

    @pytest.mark.parametrize(
        "name, r, l",
        [("step", 0.5, 7.5), ("step", 2.0, 50.0), ("step", 2.0, 1.0),
         ("density", 0.0, 50.0), ("density", 1.0, 0.25)],
    )
    def test_step_size_moves_only_rounding(self, monkeypatch, name, r, l):
        """Summed one panel per step, the lattice lays the same panels and
        its value moves by less than either reported bound."""
        state = SqueezeState(r)
        default = _erf_piece(name, l, state)
        monkeypatch.setattr(quadrature, "_EDGE_CHUNK_ENTRIES", 1)
        one_panel = _erf_piece(name, l, state)
        assert one_panel.panels_used == default.panels_used
        moved = abs(one_panel.value - default.value)
        assert moved <= min(default.error_estimate, one_panel.error_estimate)

    def test_step_at_large_box_skips_the_series_sum(self, monkeypatch):
        """At r = 0.5, l = 50 the lattice lays few enough panels to win
        on predicted work, so the step series is planned but not summed."""
        state = SqueezeState(0.5)

        def unused(self):
            raise AssertionError("the series was summed")

        monkeypatch.setattr(PoissonSeries, "integrate", unused)
        clear_cache()
        got = _lattice_piece("step", 50.0, state)
        assert got == _erf_piece("step", 50.0, state)
        clear_cache()


# The benchmark's sweep points (r in {0.5, 1, 2}, four box lengths from
# 0.25 to 7.5) and the ROADMAP corners.
_SWEEP_AND_CORNERS = [
    (r, 0.25 * 30.0 ** (i / 3.0)) for r in (0.5, 1.0, 2.0) for i in range(4)
] + [(r, l) for r in (0.0, 2.0, 5.0) for l in (0.03, 1.0, 50.0)]


class TestPieceDispatch:
    """What one uncached piece builds, and what a cached one skips."""

    @pytest.mark.parametrize(
        "name, r, l", [("density", 0.5, 0.25), ("step", 2.0, 7.5), ("step", 0.5, 7.5), ("density", 0.0, 50.0)]
    )
    def test_an_uncached_piece_plans_its_series_once(self, monkeypatch, name, r, l):
        """Counting and summing share one plan, whichever evaluator wins:
        the last two end on the lattice, by fallback and by predicted work.
        A squeezed piece plans once more when first asked for and not
        again from the cache; the unsqueezed one plans no series at all."""
        plans = []

        class Counted(PoissonSeries):
            def __init__(self, *args):
                plans.append(args)
                super().__init__(*args)

        monkeypatch.setattr(quadrature, "PoissonSeries", Counted)
        state = SqueezeState(r)
        _box_sum(name, l, state)
        assert len(plans) == 1
        clear_cache()
        _lattice_piece(name, l, state)
        _lattice_piece(name, l, state)
        assert len(plans) == (2 if r > 0.0 else 1)

    @pytest.mark.parametrize("r, l", _SWEEP_AND_CORNERS)
    def test_cross_pairs_are_exactly_zero_without_a_piece(self, monkeypatch, r, l):
        """czx and cxz are (0.0, 0.0) by reflection, as <s_z> is: no box
        sum is evaluated and nothing is cached."""

        def unused(*args):
            raise AssertionError("a cross pair evaluated a box sum")

        monkeypatch.setattr(correlators, "integrate_gaussian_box_sums", unused)
        clear_cache()
        for pair in ("zx", "xz"):
            assert correlator(pair, l, r) == (0.0, 0.0)
        assert correlator_grid(["zx", "xz"], [l], r) == [{"zx": (0.0, 0.0), "xz": (0.0, 0.0)}]
        assert correlators._PIECE_CACHE == {}
        assert single_site("z", l, r) == (0.0, 0.0)

    @pytest.mark.parametrize("l", _SCAN_L + [MIN_BOX_LENGTH])
    def test_the_product_state_runs_no_box_sum(self, monkeypatch, l):
        """At r = 0 a set takes czz as an exact 0 and cxx from one line
        sum, so no 2-D evaluator runs, at any scan box length or the
        smallest accepted one."""

        def unused(*args):
            raise AssertionError("an unsqueezed set evaluated a 2-D box sum")

        monkeypatch.setattr(correlators, "integrate_gaussian_box_sums", unused)
        clear_cache()
        cs = correlator_set(l, 0.0)
        assert (cs.czz, cs.czz_err) == (0.0, 0.0)
        clear_cache()

    @pytest.mark.parametrize("r, l", _SWEEP_AND_CORNERS)
    def test_cross_sign_pairs_plan_an_empty_series(self, monkeypatch, r, l):
        """The Fourier side of the same symmetry: no block of the zx or xz
        sign pair has a real part, so its series is planned and summed
        without a tail bound or any array, to an exact (0.0, 0.0)."""
        state = SqueezeState(r)

        def unused(*args):
            raise AssertionError("an empty series sized its tail")

        monkeypatch.setattr(quadrature, "_theta_bound", unused)
        for name in _CROSS_PIECES:
            with monkeypatch.context() as m:
                m.setattr(quadrature, "np", None)
                series = _series(name, l, state)
                assert (series.terms, series.tail) == ([0], [0.0])
                assert series.integrate() == [quadrature.IntegralResult(0.0, 0.0, 0)]

    @pytest.mark.parametrize(
        "name, r, l", [(name, r, l) for name in _CROSS_PIECES for r, l in _SWEEP_AND_CORNERS]
        + [("step", 0.0, 50.0)],
    )
    def test_an_empty_series_takes_no_work_estimate(self, monkeypatch, name, r, l):
        """The cross sign pairs at every point, and a step piece whose mass
        underflows, plan no terms: the series' exact 0 needs no work
        estimate and no lattice."""
        state = SqueezeState(r)
        expected = _series(name, l, state).integrate()[0]

        def unused(*args):
            raise AssertionError("an empty series estimated or ran the lattice")

        monkeypatch.setattr(quadrature, "gaussian_lattice_work", unused)
        monkeypatch.setattr(quadrature, "integrate_gaussian_lattice", unused)
        result = _box_sum(name, l, state)
        assert result == expected and result.value == 0.0

    def test_a_cache_hit_evaluates_nothing(self, monkeypatch):
        clear_cache()
        first = correlator_set(0.7768, 0.5)

        def unused(*args):
            raise AssertionError("a cache hit evaluated a piece")

        monkeypatch.setattr(correlators, "_evaluate", unused)
        monkeypatch.setattr(correlators, "integrate_gaussian_box_sums", unused)
        assert correlator_set(0.7768, 0.5) == first


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.0, 5.0), l=st.floats(0.03, 50.0))
def test_invariants_hold_within_reported_errors(r, l):
    """cyy <= 0, czx = cxz = 0, <s_z> = 0, 0 <= <s_x> <= 1, digit form =
    CHSH / 2, and r = 0 factorizes."""
    cs = correlator_set(l, r)
    assert single_site("z", l, r) == (0.0, 0.0)
    sx, sx_err = single_site("x", l, r)
    assert 0.0 <= sx <= 1.0 + sx_err
    assert cs.cyy <= cs.cyy_err
    assert cs.czx == cs.cxz == 0.0
    chsh = chsh_from_correlators(cs).value
    assert bit_bell_from_correlators(cs).value == pytest.approx(chsh / 2.0, abs=1e-12)

    product = correlator_set(l, 0.0)
    sx, sx_err = single_site("x", l, 0.0)
    assert abs(product.czz) <= product.czz_err
    assert abs(product.cxx - sx * sx) <= product.cxx_err + (2.0 * abs(sx) + sx_err) * sx_err


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(l=st.floats(MIN_BOX_LENGTH, MAX_BOX_LENGTH))
def test_the_product_state_is_closed_form(l):
    """At r = 0, czz is exactly (0.0, 0.0) and cxx is <s_x> squared, bit for bit."""
    assert correlator("zz", l, 0.0) == (0.0, 0.0)
    sx, _ = single_site("x", l, 0.0)
    assert correlator("xx", l, 0.0)[0] == sx * sx


class TestCorrelatorGrid:
    """correlator_grid against per-point sets, the bounded cache, and one
    state per set."""

    def test_cells_cover_every_dispatch(self):
        """At r = 0.25 the density piece goes to the lattice on predicted work
        at l = 50, and the series sums it at l = 7.5; the step piece's mass
        underflows at l = 50, the series sums it at l = 0.03 and loses its
        digits at l = 7.5.  The grid property below starts from these cells,
        and from the same box lengths at r = 0, where the pieces are closed
        forms."""
        state = SqueezeState(0.25)
        assert not _series_pays("density", 50.0, state)
        assert _series_pays("density", 7.5, state)
        assert _series("step", 50.0, state).terms == [0]
        assert _series_pays("step", 0.03, state)
        step = _series("step", 7.5, state)
        assert quadrature._lost_digits(step.integrate()[0])

    def test_a_set_builds_one_state(self, monkeypatch):
        states = []

        class Counted(SqueezeState):
            def __post_init__(self):
                states.append(self)
                super().__post_init__()

        monkeypatch.setattr(correlators, "SqueezeState", Counted)
        clear_cache()
        first = correlator_set(0.7768, 0.5)
        assert len(states) == 1
        assert correlator_set(0.7768, 0.5) == first
        assert len(states) == 2

    def test_eviction_keeps_results(self, monkeypatch):
        """A full cache drops its oldest insertion; a dropped piece is
        evaluated again to the same bits."""
        monkeypatch.setattr(correlators, "_PIECE_CACHE_SIZE", 3)
        clear_cache()
        first = correlator_set(0.7768, 0.5)
        assert len(correlators._PIECE_CACHE) == 2
        others = [correlator_set(l, r) for l, r in ((2.5, 1.0), (0.03, 2.0))]
        assert len(correlators._PIECE_CACHE) == 3
        assert ("density", 0.7768, 0.5) not in correlators._PIECE_CACHE
        assert correlator_set(0.7768, 0.5) == first
        assert [correlator_set(l, r) for l, r in ((2.5, 1.0), (0.03, 2.0))] == others
        grid = correlator_grid(PAIRS, [0.7768, 2.5], 0.5)
        clear_cache()
        assert correlator_grid(PAIRS, [0.7768, 2.5], 0.5) == grid
        clear_cache()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            correlator_grid(["zy"], [1.0], 0.5)
        with pytest.raises(InvalidScale):
            correlator_grid(["zz"], [1.0, 0.0], 0.5)
        with pytest.raises(InvalidScale):
            correlator_grid(["zz"], [1.0], -0.5)
        assert correlator_grid(["zz"], [], 0.5) == []


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    r=st.floats(0.0, 5.0),
    l_values=st.lists(st.floats(0.03, 50.0), min_size=1, max_size=4),
    repeats=st.lists(st.integers(0, 3), max_size=2),
)
@example(r=0.0, l_values=[50.0, 0.03, 7.5], repeats=[1])
@example(r=0.25, l_values=[50.0, 0.03, 7.5], repeats=[1])
@example(r=0.25, l_values=[30.0], repeats=[])
@example(r=5.0, l_values=[0.03], repeats=[0])
def test_grid_matches_per_point_sets(r, l_values, repeats):
    """Every pair at every box length, value and error, to the bit, whether
    its piece came from the series, the lattice on predicted work or after
    the series lost digits, an underflowing mass, or the closed forms at
    r = 0; box lengths unsorted and repeated."""
    l_values = l_values + [l_values[i % len(l_values)] for i in repeats]
    clear_cache()
    grid = correlator_grid(PAIRS, l_values, r)
    assert len(grid) == len(l_values)
    for l, values in zip(l_values, grid):
        clear_cache()
        cs = correlator_set(l, r)
        for pair in PAIRS:
            assert values[pair] == (getattr(cs, "c" + pair), getattr(cs, "c" + pair + "_err")), (pair, l)
        assert CorrelatorSet.from_pairs(l, r, values) == cs
    clear_cache()
