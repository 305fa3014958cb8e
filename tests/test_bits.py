"""Digit extraction and truncation, checked against exact rationals."""

import math
from fractions import Fraction

import pytest

from boxspin import (
    RangeError,
    TruncationWindow,
    bit_at,
    format_binary,
    spin_at,
    spin_from_bit,
    truncated_value,
    xor_expectation,
)


def _bit_oracle(q: float, k: int) -> int:
    """Digit of |scale 2**k| via exact rational arithmetic."""
    scaled = Fraction(q) / Fraction(2) ** k
    return int(math.floor(scaled)) % 2


class TestWindow:
    def test_defaults(self):
        window = TruncationWindow()
        assert (window.k_hi, window.k_lo) == (1, -3)

    def test_ks_runs_high_to_low(self):
        assert list(TruncationWindow(1, -2).ks()) == [1, 0, -1, -2]

    def test_weight_total(self):
        assert TruncationWindow(1, -3).weight_total() == 3.875
        assert TruncationWindow(0, 0).weight_total() == 1.0
        assert TruncationWindow(2, -1).weight_total() == 7.5

    def test_weight_total_beyond_the_float_range_is_rejected(self):
        assert TruncationWindow(1022, -3).weight_total() == math.ldexp(1.0, 1023)
        with pytest.raises(ValueError, match=r"window \[1023, -3\]"):
            TruncationWindow(1023, -3).weight_total()

    def test_inverted_window_is_rejected(self):
        with pytest.raises(ValueError):
            TruncationWindow(k_hi=-1, k_lo=0)


class TestBitAt:
    def test_worked_example(self):
        # 5.296875 = 101.0100110 in binary
        q = 5.296875
        digits = {2: 1, 1: 0, 0: 1, -1: 0, -2: 1, -3: 0, -4: 0, -5: 1, -6: 1, -7: 0}
        for k, want in digits.items():
            assert bit_at(q, k) == want

    def test_matches_rational_oracle(self):
        values = (0.0, 0.3125, 1.0, 2.75, 5.296875, 17.999, -0.25, -1.625, -6.03)
        for q in values:
            for k in range(-8, 4):
                assert bit_at(q, k) == _bit_oracle(q, k), (q, k)

    def test_dyadic_edges_use_floor_semantics(self):
        # exactly representable edges: the digit flips at the edge itself
        assert bit_at(0.5, -1) == 1
        assert bit_at(0.5 - 2.0**-53, -1) == 0
        assert bit_at(2.0, 1) == 1
        assert bit_at(-2.0, 1) == 1  # floor(-2/2) = -1 is odd

    def test_spin_is_one_minus_two_bit(self):
        for q in (0.7, 5.296875, -1.3):
            for k in (-3, 0, 2):
                assert spin_at(q, k) == 1 - 2 * bit_at(q, k)
        assert spin_from_bit(0) == 1
        assert spin_from_bit(1) == -1

    def test_non_finite_positions_are_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                bit_at(bad, 0)


class TestTruncatedValue:
    def test_drops_digits_outside_window(self):
        window = TruncationWindow(k_hi=1, k_lo=-2)
        assert truncated_value(5.296875, window) == 1.25  # keeps 01.01
        assert truncated_value(3.9375, window) == 3.75
        assert truncated_value(0.124, window) == 0.0

    def test_dyadic_points_are_exact_fixed_points(self):
        window = TruncationWindow(k_hi=3, k_lo=-4)
        for numerator in range(0, 16 * 16):
            q = numerator / 16.0
            assert truncated_value(q, window) == q

    def test_negative_values_wrap_modulo_window_span(self):
        window = TruncationWindow(k_hi=1, k_lo=-2)
        # floor-expansion digits of -0.5 are ...111.10; the window keeps 11.10
        assert truncated_value(-0.5, window) == 3.5
        assert format_binary(-0.5, window) == "11.10"


class TestFormatBinary:
    def test_worked_example(self):
        assert format_binary(5.296875, TruncationWindow(2, -7)) == "101.0100110"

    def test_integer_part_always_reaches_the_point(self):
        assert format_binary(0.75, TruncationWindow(-1, -2)) == "0.11"

    def test_point_is_omitted_without_fractional_digits(self):
        assert format_binary(2.5, TruncationWindow(1, 0)) == "10"

    @pytest.mark.parametrize(
        "q, window, expected",
        [(5.296875, (3, 1), "0100"), (1.75, (-1, -2), "0.11"), (0.75, (-2, -3), "0.010")],
    )
    def test_positions_outside_the_window_print_zero(self, q, window, expected):
        """The rendering reads as the truncated value, not as q's own digits."""
        window = TruncationWindow(*window)
        rendered = format_binary(q, window)
        assert rendered == expected
        assert int(rendered.replace(".", ""), 2) * 2.0 ** min(window.k_lo, 0) == truncated_value(q, window)


class TestXorExpectation:
    def test_endpoint_map(self):
        assert xor_expectation(1.0) == 0.0
        assert xor_expectation(-1.0) == 1.0
        assert xor_expectation(0.0) == 0.5

    def test_tiny_overshoot_is_clamped(self):
        assert xor_expectation(1.0 + 5e-10) == 0.0
        assert xor_expectation(-1.0 - 5e-10) == 1.0

    def test_large_overshoot_is_rejected(self):
        with pytest.raises(RangeError):
            xor_expectation(1.1)
        with pytest.raises(RangeError):
            xor_expectation(-1.1)
