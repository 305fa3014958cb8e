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
exact <s_z> = 0, and Monte Carlo sampling.  The two closed-form
evaluators, the theta series and the erf lattice, are also checked
against each other over the whole accepted domain.
"""

import math
import sys
from decimal import Decimal, localcontext

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
    integrate_gaussian_poisson,
    rotated_correlator,
    single_site,
    wavefunction,
)
from boxspin import correlators, quadrature
from boxspin.correlators import (
    _PIECES,
    PAIRS,
    MAX_BOX_LENGTH,
    _erf_piece,
    _even,
    _lattice_piece,
    _log_mass,
    _one,
    _parity,
    clear_cache,
    default_spec,
)
from boxspin.quadrature import PoissonSeries, gaussian_lattice_floor, gaussian_lattice_work


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
    sv = _parity if name == "xz" else _one
    return (lambda u, v: 2.0 * psi(u, v) * psi(u + l, v)), (lambda n, m: _even(n) * sv(m))


class TestClosedForms:
    @pytest.mark.parametrize("r", [0.0, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("l", [0.03, 1.0, 7.5, 50.0])
    def test_means_and_masses_match_the_derivation(self, r, l):
        """_PIECES and _log_mass against the (a, b) form, without its cancellations."""
        state = SqueezeState(r)
        for name, (_, _, shifts) in _PIECES.items():
            mean, log_mass = _derived_mean_and_log_mass(name, l, r)
            assert mean == pytest.approx((-shifts[0] * l / 2.0, -shifts[1] * l / 2.0), abs=1e-14)
            scale = 1.0 + abs(log_mass) + l * l * math.exp(-2.0 * r)
            assert abs(_log_mass(name, l, state) - log_mass) <= 4e-16 * scale, name

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.5, 3.0, 5.0])
    @pytest.mark.parametrize("l", [0.03, 0.25, 1.0, 4.0, 7.5, 50.0])
    def test_pieces_match_the_wavefunction_pointwise(self, r, l):
        """_PIECES and _log_mass against the wavefunction products that define each piece.

        The defining box signs must be su(n) * sv(m) on every box pair
        (both have period 2), and the defining integrand must equal
        exp(log_mass - c*x**2 - c*y**2 + 2*s*x*y)/pi, (x, y) = (u - u0,
        v - v0), at points along the ridge around the mean: out to 4
        standard deviations along it and 2 across.  Equal integrands
        have equal box sums, so this checks what both evaluators sum
        against the definition without integrating.  The wavefunctions'
        exponents, of size c*(|u| + l)**2, cancel down to the piece's,
        so the tolerance is 8 eps relative on that scale.
        """
        state = SqueezeState(r)
        c, s = state.cosh2r, state.sinh2r
        # Standard deviations e**r/sqrt(2) along (1, 1) and e**-r/sqrt(2) across it.
        along = np.linspace(-4.0, 4.0, 17)[:, None] * (math.exp(r) / 2.0)
        across = np.linspace(-2.0, 2.0, 5)[None, :] * (math.exp(-r) / 2.0)
        boxes = np.arange(-4, 4)
        n, m = boxes[:, None], boxes[None, :]
        for name, (su, sv, shifts) in _PIECES.items():
            f, sign = _defining_integrand(name, l, state)
            assert np.array_equal(sign(n, m), su(n) * sv(m)), name
            u0, v0 = -shifts[0] * l / 2.0, -shifts[1] * l / 2.0
            u, v = (u0 + along + across).ravel(), (v0 + along - across).ravel()
            x, y = u - u0, v - v0
            want = np.exp(_log_mass(name, l, state) - c * x * x - c * y * y + 2.0 * s * x * y) / math.pi
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
        assert abs(cs.czx - cs.cxz) < 1e-9
        d = cs.as_dict()
        assert set(d) == {"l", "r", "czz", "cxx", "cyy", "czx", "cxz", "errs"}
        assert set(d["errs"]) == {"czz", "cxx", "cyy", "czx", "cxz"}


class TestRotation:
    def _synthetic(self):
        return CorrelatorSet(
            l=1.0, r=0.0, czz=0.6, cxx=0.5, cyy=-0.4, czx=0.0, cxz=0.0,
            czz_err=0.0, cxx_err=0.0, cyy_err=0.0, czx_err=0.0, cxz_err=0.0,
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

    def test_set_rejects_out_of_range_values(self):
        with pytest.raises(RangeError):
            CorrelatorSet(
                l=1.0, r=0.0, czz=1.5, cxx=0.0, cyy=0.0, czx=0.0, cxz=0.0,
                czz_err=0.0, cxx_err=0.0, cyy_err=0.0, czx_err=0.0, cxz_err=0.0,
            )

    def test_set_rejects_asymmetric_cross_terms(self):
        with pytest.raises(RangeError):
            CorrelatorSet(
                l=1.0, r=0.0, czz=0.0, cxx=0.0, cyy=0.0, czx=0.2, cxz=-0.2,
                czz_err=0.0, cxx_err=0.0, cyy_err=0.0, czx_err=1e-6, cxz_err=1e-6,
            )


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


class TestSpecAndCache:
    def test_default_spec_tracks_state_scales(self):
        """The tail radius is 8 sigma, or 3*l where that is wider; panels
        are capped at the box length or 2*sigma/cosh2r, whichever is less."""
        state = SqueezeState(2.0)
        for l, tail_radius, panel in (
            (0.1, 8.0 * state.sigma, 0.1),
            (1.0, 8.0 * state.sigma, 2.0 * state.sigma / state.cosh2r),
            (40.0, 120.0, 2.0 * state.sigma / state.cosh2r),
        ):
            spec = default_spec(l, state)
            assert spec.tail_radius == pytest.approx(tail_radius)
            assert spec.max_panel_width == pytest.approx(panel)

    def test_cache_roundtrip(self):
        clear_cache()
        first = correlator("zz", 0.6, 0.9)
        again = correlator("zz", 0.6, 0.9)
        assert first == again
        clear_cache()
        fresh = correlator("zz", 0.6, 0.9)
        assert first == fresh


class TestReportedErrorIsABound:
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("l", [0.25, 1.0, 4.0, 50.0])
    def test_mass_is_one(self, r, l):
        """The density piece with every sign +1 sums the whole joint density."""
        state = SqueezeState(r)
        one = np.ones_like
        res = integrate_gaussian_lattice(
            l, state.cosh2r, state.sinh2r, (0.0, 0.0), one, one, 0.0, default_spec(l, state)
        )
        assert abs(res.value - 1.0) <= res.error_estimate
        series = integrate_gaussian_poisson(l, r, one, one, 0.0)
        assert abs(series.value - 1.0) <= series.error_estimate

    @pytest.mark.parametrize("r", [0.0, 2.0, 5.0])
    @pytest.mark.parametrize("l", [0.03, 1.0, 50.0])
    def test_sz_vanishes_within_error_at_corners(self, r, l):
        """Reflection maps box m onto box -m - 1 of opposite parity, so <s_z> = 0."""
        value, err = single_site("z", l, r)
        assert abs(value) <= err

    @pytest.mark.parametrize("r", [3.0, 5.0])
    def test_czz_matches_sampling_at_strong_squeezing(self, r):
        value, err = correlator("zz", 1.0, r)
        est, se = czz_sampled(1.0, r, 200_000, seed=11)
        assert abs(value - est) <= 4.0 * se + err


# r <= 4 over every ROADMAP box length; at r = 5 the lattice takes about
# 2 s per box length, so only l = 50 is kept there.
_CROSS_GRID = [
    (r, l) for r in (0.0, 1.0, 2.0, 3.0, 4.0) for l in (0.03, 0.25, 1.0, 7.5, 50.0)
] + [(5.0, 50.0)]


def _series(name: str, l: float, state: SqueezeState) -> PoissonSeries:
    """The piece's theta series at box length l alone, planned."""
    su, sv, shifts = _PIECES[name]
    return PoissonSeries([l], state.r, su, sv, [_log_mass(name, l, state)], shifts)


def _series_pays(name: str, l: float, state: SqueezeState) -> bool:
    """Whether the series takes fewer terms than the lattice's predicted work."""
    work = gaussian_lattice_work(l, state.cosh2r, _log_mass(name, l, state), default_spec(l, state))
    return _series(name, l, state).terms[0] < work


class TestEvaluatorsAgree:
    """The theta series (Fourier side) and the erf lattice (position side)
    share no summation, so each checks the other's value and bound."""

    @pytest.mark.parametrize("r, l", _CROSS_GRID)
    def test_pieces_agree_within_summed_bounds(self, r, l):
        state = SqueezeState(r)
        spec = default_spec(l, state)
        for name in _PIECES:
            series = _series(name, l, state).integrate()[0]
            lattice = _erf_piece(name, l, state, spec)
            bound = series.error_estimate + lattice.error_estimate
            assert abs(series.value - lattice.value) <= bound, name

    def test_dispatch_follows_predicted_work(self):
        """Small boxes need a few series terms and many lattice nodes; at
        l = 50 and r = 0 the density series needs more terms than the
        lattice's nodes x edges.  The piece comes from the predicted winner."""
        state = SqueezeState(0.0)
        clear_cache()
        for name in _PIECES:
            assert _series_pays(name, 0.03, state), name
            assert _lattice_piece(name, 0.03, state) == _series(name, 0.03, state).integrate()[0]
        assert not _series_pays("density", 50.0, state)
        assert _lattice_piece("density", 50.0, state) == _erf_piece(
            "density", 50.0, state, default_spec(50.0, state)
        )

    @pytest.mark.parametrize("name, r, l", [("step", 0.0, 7.5), ("site_x", 1.0, 20.0)])
    def test_nonnegative_pieces_fall_back_to_the_lattice(self, name, r, l):
        """Far below its mass a nonnegative piece keeps its digits on the lattice only."""
        state = SqueezeState(r)
        spec = default_spec(l, state)
        assert _series_pays(name, l, state)
        clear_cache()
        got = _lattice_piece(name, l, state)
        assert got == _erf_piece(name, l, state, spec)
        assert got.error_estimate < 1e-3 * _series(name, l, state).integrate()[0].error_estimate


# Values and errors of the erf lattice under the default spec before
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
        res = _erf_piece(name, l, state, default_spec(l, state))
        assert res.panels_used < panels
        assert res.value == value
        assert res.error_estimate <= error

    @pytest.mark.parametrize(
        "name, r, l",
        [(name, r, l) for name in ("density", "step", "site_x")
         for r, l in ((0.0, 50.0), (0.25, 23.81), (1.0, 50.0), (2.0, 50.0), (0.0, 19.491549),
                      (0.5, 7.5), (2.0, 1.0), (1.0, 0.25))],
    )
    def test_work_counts_the_panels_laid(self, monkeypatch, name, r, l):
        """The prediction covers the full-order u-nodes x edges the lattice
        evaluates; where the cut ends the range inside a box it counts
        panels, so for density, whose every box is laid, it is within one
        panel per side."""
        state = SqueezeState(r)
        spec = default_spec(l, state)
        log_mass = _log_mass(name, l, state)
        entries = []
        real_erfc = quadrature.erfc

        def counted(x, *args, **kwargs):
            if np.ndim(x) == 2:
                entries.append(x.size)
            return real_erfc(x, *args, **kwargs)

        monkeypatch.setattr(quadrature, "erfc", counted)
        res = _erf_piece(name, l, state, spec)
        full, half = spec.panel_order, spec.panel_order // 2
        edges = quadrature._edge_count(l, math.sqrt(state.cosh2r))
        assert sum(entries) == res.panels_used * (full + half) * edges
        evaluated = res.panels_used * full * edges
        work = gaussian_lattice_work(l, state.cosh2r, log_mass, spec)
        assert work >= evaluated
        if name == "density" and quadrature._weight_reach(state.cosh2r, log_mass) < spec.tail_radius:
            assert work - evaluated <= 2 * full * edges

    def test_floor_bounds_the_work(self):
        """A series below the floor wins without the spec being built, so
        the floor may not exceed the work under the default spec anywhere."""
        for r in (0.0, 0.5, 2.0, 5.0):
            state = SqueezeState(r)
            for l in np.geomspace(0.03, 50.0, 25):
                spec = default_spec(l, state)
                for name in ("density", "step", "site_x"):
                    work = gaussian_lattice_work(l, state.cosh2r, _log_mass(name, l, state), spec)
                    assert gaussian_lattice_floor(l, state.cosh2r) <= work, (name, r, l)

    def test_step_at_large_box_skips_the_series_sum(self, monkeypatch):
        """At r = 0.5, l = 50 the lattice lays few enough panels to win
        on predicted work, so the step series is planned but not summed."""
        state = SqueezeState(0.5)

        def unused(self):
            raise AssertionError("the series was summed")

        monkeypatch.setattr(PoissonSeries, "integrate", unused)
        clear_cache()
        got = _lattice_piece("step", 50.0, state)
        assert got == _erf_piece("step", 50.0, state, default_spec(50.0, state))
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
        the last two end on the lattice, by fallback and by predicted work."""
        plans = []

        class Counted(PoissonSeries):
            def __init__(self, *args):
                plans.append(args)
                super().__init__(*args)

        monkeypatch.setattr(correlators, "PoissonSeries", Counted)
        state = SqueezeState(r)
        clear_cache()
        _lattice_piece(name, l, state)
        assert len(plans) == 1
        _lattice_piece(name, l, state)
        assert len(plans) == 1

    @pytest.mark.parametrize("r, l", _SWEEP_AND_CORNERS)
    def test_cross_pieces_are_exactly_zero_without_a_series(self, monkeypatch, r, l):
        """No block of zx or xz has a real part, so their series is planned
        and summed without a tail bound or any array: (0.0, 0.0), as the
        summed empty series gives."""
        state = SqueezeState(r)
        _series("zx", l, state)  # warms the sign functions' Fourier cache

        def unused(*args):
            raise AssertionError("an empty series sized its tail")

        monkeypatch.setattr(quadrature, "_theta_bound", unused)
        for name in ("zx", "xz"):
            with monkeypatch.context() as m:
                m.setattr(quadrature, "np", None)
                series = _series(name, l, state)
                assert (series.terms, series.tail) == ([0], [0.0])
                assert series.integrate() == [quadrature.IntegralResult(0.0, 0.0, 0)]
            clear_cache()
            assert correlator(name, l, r) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "name, r, l", [(name, r, l) for name in ("zx", "xz") for r, l in _SWEEP_AND_CORNERS]
        + [("step", 0.0, 50.0)],
    )
    def test_an_empty_series_builds_no_spec(self, monkeypatch, name, r, l):
        """zx and xz at every point, and a step piece whose mass underflows,
        plan no terms: the series' exact 0 needs no spec and no work estimate."""
        state = SqueezeState(r)
        expected = _series(name, l, state).integrate()[0]

        def unused(*args):
            raise AssertionError("an empty series built a spec")

        monkeypatch.setattr(correlators, "default_spec", unused)
        monkeypatch.setattr(correlators, "gaussian_lattice_work", unused)
        clear_cache()
        result = _lattice_piece(name, l, state)
        assert result == expected and result.value == 0.0

    def test_a_cache_hit_builds_no_spec(self, monkeypatch):
        clear_cache()
        first = correlator_set(0.7768, 0.5)
        sx = single_site("x", 0.7768, 0.5)

        def unused(*args):
            raise AssertionError("a cache hit built a spec")

        monkeypatch.setattr(correlators, "default_spec", unused)
        assert correlator_set(0.7768, 0.5) == first
        assert single_site("x", 0.7768, 0.5) == sx


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.0, 5.0), l=st.floats(0.03, 50.0))
def test_invariants_hold_within_reported_errors(r, l):
    """cyy <= 0, czx = cxz = 0, digit form = CHSH / 2, and r = 0 factorizes."""
    cs = correlator_set(l, r)
    assert cs.cyy <= cs.cyy_err
    assert abs(cs.czx - cs.cxz) <= cs.czx_err + cs.cxz_err
    assert abs(cs.czx) < 1e-5
    chsh = chsh_from_correlators(cs).value
    assert bit_bell_from_correlators(cs).value == pytest.approx(chsh / 2.0, abs=1e-12)

    product = correlator_set(l, 0.0)
    sx, sx_err = single_site("x", l, 0.0)
    assert abs(product.czz) <= product.czz_err
    assert abs(product.cxx - sx * sx) <= product.cxx_err + (2.0 * abs(sx) + sx_err) * sx_err


class TestCorrelatorGrid:
    """correlator_grid against per-point sets, the bounded cache, and one
    state per set."""

    def test_cells_cover_every_dispatch(self):
        """At r = 0 the density piece goes to the lattice on predicted work
        at l = 50, and the series sums it at l = 7.5; the step piece's mass
        underflows at l = 50, the series sums it at l = 0.03 and loses its
        digits at l = 7.5.  The grid property below starts from these cells."""
        state = SqueezeState(0.0)
        assert not _series_pays("density", 50.0, state)
        assert _series_pays("density", 7.5, state)
        assert _series("step", 50.0, state).terms == [0]
        assert _series_pays("step", 0.03, state)
        step = _series("step", 7.5, state)
        assert correlators._series_lost_digits("step", step.integrate()[0])

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
        assert len(correlators._PIECE_CACHE) == 3
        assert ("density", 0.7768, 0.5) not in correlators._PIECE_CACHE
        others = [correlator_set(l, r) for l, r in ((2.5, 1.0), (0.03, 2.0))]
        assert len(correlators._PIECE_CACHE) == 3
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
@example(r=0.25, l_values=[30.0], repeats=[])
@example(r=5.0, l_values=[0.03], repeats=[0])
def test_grid_matches_per_point_sets(r, l_values, repeats):
    """Every pair at every box length, value and error, to the bit, whether
    its piece came from the series, the lattice on predicted work or after
    the series lost digits, or an underflowing mass; box lengths unsorted
    and repeated."""
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
