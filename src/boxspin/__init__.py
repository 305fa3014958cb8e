"""Pseudo-spin Bell tests for position measurements on a squeezed state.

Spin-1/2 observables are carved out of the position line by boxes of
length l; this package computes their correlators for the two-mode
squeezed vacuum by lattice quadrature, evaluates CHSH and digit-XOR
Bell expressions against enumerated local bounds, and cross-checks the
operator algebra exactly on finite grids.
"""

from .bell import (
    STANDARD_SETTINGS,
    BellReport,
    ChshSettings,
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
from .bits import (
    TruncationWindow,
    bit_at,
    format_binary,
    spin_at,
    spin_from_bit,
    truncated_value,
    xor_expectation,
)
from .boxops import (
    Grid,
    GridOperator,
    HierarchyReport,
    build_box_projector,
    build_box_translation,
    build_spin_operator,
    commutator,
    expectation,
    expectations,
    hierarchy_commutes,
    is_zero,
    position_from_bits,
)
from .correlators import (
    PAIRS,
    CorrelatorSet,
    correlator,
    correlator_grid,
    correlator_set,
    czz_sampled,
    rotated_correlator,
    single_site,
)
from .errors import (
    GridMismatch,
    InvalidScale,
    MisalignedGrid,
    NonFiniteIntegrand,
    RangeError,
)
from .gaussian_state import (
    MAX_SQUEEZING,
    SqueezeState,
    czz_asymptote,
    joint_density,
    marginal_density,
    wavefunction,
)
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    integrate_gaussian_lattice,
    integrate_gaussian_line,
    integrate_gaussian_poisson,
)

__version__ = "0.1.0"
