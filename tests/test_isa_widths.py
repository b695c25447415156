"""Unit and property tests for the width/number helpers of the ISA."""

from hypothesis import given
from hypothesis import strategies as st

from repro.isa import (
    INT64_MAX,
    INT64_MIN,
    Width,
    significant_bytes,
    size_class_bytes,
    to_signed,
    to_unsigned,
    width_for_signed_range,
    width_for_value,
    wrap_to_width,
)
from repro.isa.widths import to_signed_n

int64 = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)


def _significant_bytes_loop(value: int) -> int:
    """Reference form of ``significant_bytes``: the narrowest byte count
    whose sign extension gives the (64-bit signed) value back."""
    value = to_signed(value)
    for nbytes in range(1, 8):
        low = value & ((1 << (nbytes * 8)) - 1)
        if to_signed_n(low, nbytes * 8) == value:
            return nbytes
    return 8


class TestWidth:
    def test_ordering_and_bytes(self):
        assert Width.BYTE < Width.HALF < Width.WORD < Width.QUAD
        assert [w.bytes for w in Width.all_widths()] == [1, 2, 4, 8]

    def test_signed_bounds(self):
        assert Width.BYTE.min_signed() == -128
        assert Width.BYTE.max_signed() == 127
        assert Width.QUAD.max_signed() == INT64_MAX

    def test_next_wider_saturates(self):
        assert Width.BYTE.next_wider() is Width.HALF
        assert Width.QUAD.next_wider() is Width.QUAD


class TestWidthForRange:
    def test_byte_range(self):
        assert width_for_signed_range(-128, 127) is Width.BYTE

    def test_unsigned_byte_needs_half(self):
        # 255 does not fit a signed byte: 2's-complement convention (§2.4).
        assert width_for_signed_range(0, 255) is Width.HALF

    def test_word_and_quad(self):
        assert width_for_value(2**31 - 1) is Width.WORD
        assert width_for_value(2**31) is Width.QUAD

    def test_empty_range_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            width_for_signed_range(3, 2)

    @given(int64)
    def test_value_always_fits_its_width(self, value):
        width = width_for_value(value)
        assert width.contains_signed(value)


class TestWrapAndConversion:
    @given(int64)
    def test_signed_unsigned_roundtrip(self, value):
        assert to_signed(to_unsigned(value)) == value

    @given(int64)
    def test_wrap_to_quad_is_identity(self, value):
        assert wrap_to_width(value, Width.QUAD) == value

    @given(st.integers(min_value=-(10**30), max_value=10**30))
    def test_wrap_stays_in_width(self, value):
        for width in Width.all_widths():
            wrapped = wrap_to_width(value, width)
            assert width.contains_signed(wrapped)

    def test_wrap_examples(self):
        assert wrap_to_width(128, Width.BYTE) == -128
        assert wrap_to_width(-129, Width.BYTE) == 127
        assert wrap_to_width(0xFFFF, Width.HALF) == -1


class TestSignificantBytes:
    def test_small_values(self):
        assert significant_bytes(0) == 1
        assert significant_bytes(127) == 1
        assert significant_bytes(-1) == 1
        assert significant_bytes(128) == 2
        assert significant_bytes(-129) == 2

    def test_wide_values(self):
        assert significant_bytes(2**31) == 5
        assert significant_bytes(2**40) == 6
        assert significant_bytes(INT64_MAX) == 8

    @given(int64)
    def test_sign_extension_recovers_value(self, value):
        nbytes = significant_bytes(value)
        bits = nbytes * 8
        low = value & ((1 << bits) - 1)
        recovered = low - (1 << bits) if low >> (bits - 1) else low
        assert recovered == value

    @staticmethod
    def _boundaries() -> list[int]:
        """Every ±2^(8k-1) boundary and its neighbours, past 64 bits too."""
        values = []
        for bits in range(8, 80, 8):
            edge = 1 << (bits - 1)
            for base in (edge, -edge):
                values += [base - 1, base, base + 1]
        return values + [INT64_MIN, INT64_MAX, 1 << 64, (1 << 64) - 1, -(1 << 64)]

    def test_closed_form_matches_loop_on_boundaries(self):
        for value in self._boundaries():
            assert significant_bytes(value) == _significant_bytes_loop(value), value

    @given(st.integers(min_value=-(1 << 72), max_value=1 << 72))
    def test_closed_form_matches_loop(self, value):
        assert significant_bytes(value) == _significant_bytes_loop(value)

    @given(int64)
    def test_size_class_covers_significant_bytes(self, value):
        assert size_class_bytes(value) >= significant_bytes(value)
        assert size_class_bytes(value) in (1, 2, 5, 8)
