"""Operand widths used by the width-annotated instruction set.

The paper assumes a 64-bit architecture whose opcodes may specify operand
widths of a byte, halfword, word and doubleword (quadword in Alpha
terminology).  ``Width`` is the common currency between the compiler
analyses (:mod:`repro.core`), the instruction set (:mod:`repro.isa`) and the
power model (:mod:`repro.power`).
"""

from __future__ import annotations

import enum

__all__ = [
    "Width",
    "MACHINE_BITS",
    "INT64_MIN",
    "INT64_MAX",
    "UINT64_MAX",
    "width_for_signed_range",
    "width_for_value",
    "significant_bytes",
    "size_class_bytes",
    "to_signed",
    "to_unsigned",
    "wrap_to_width",
]

MACHINE_BITS = 64
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
UINT64_MAX = (1 << 64) - 1


class Width(enum.IntEnum):
    """Operand width in bits.

    The integer value of each member is the number of bits, so ``Width``
    members order naturally (``Width.BYTE < Width.QUAD``) and can be used
    directly in arithmetic (``width // 8`` gives bytes).
    """

    BYTE = 8
    HALF = 16
    WORD = 32
    QUAD = 64

    @property
    def bytes(self) -> int:
        """Number of bytes spanned by this width."""
        return self.value // 8

    @property
    def bits(self) -> int:
        """Number of bits spanned by this width (same as ``int(self)``)."""
        return self.value

    def min_signed(self) -> int:
        """Smallest representable two's-complement value at this width."""
        return -(1 << (self.value - 1))

    def max_signed(self) -> int:
        """Largest representable two's-complement value at this width."""
        return (1 << (self.value - 1)) - 1

    def contains_signed(self, value: int) -> bool:
        """Return True when ``value`` fits in this width as a signed int."""
        return self.min_signed() <= value <= self.max_signed()

    def next_wider(self) -> "Width":
        """Return the next wider width (QUAD maps to itself)."""
        order = [Width.BYTE, Width.HALF, Width.WORD, Width.QUAD]
        index = order.index(self)
        return order[min(index + 1, len(order) - 1)]

    @staticmethod
    def all_widths() -> tuple["Width", ...]:
        """All widths from narrowest to widest."""
        return (Width.BYTE, Width.HALF, Width.WORD, Width.QUAD)


def width_for_signed_range(min_value: int, max_value: int) -> Width:
    """Return the narrowest :class:`Width` that holds ``[min_value, max_value]``.

    Values are interpreted as signed two's complement, matching the paper's
    "narrow values are always kept in 2's complement to keep information
    about the sign" (§2.4).  Ranges exceeding 64 bits clamp to QUAD.
    """
    if min_value > max_value:
        raise ValueError(f"empty range [{min_value}, {max_value}]")
    for width in Width.all_widths():
        if width.contains_signed(min_value) and width.contains_signed(max_value):
            return width
    return Width.QUAD


def width_for_value(value: int) -> Width:
    """Return the narrowest width holding a single signed value."""
    return width_for_signed_range(value, value)


def to_unsigned(value: int) -> int:
    """Map a signed 64-bit value onto its unsigned bit pattern."""
    return value & UINT64_MAX


def to_signed(value: int) -> int:
    """Map an unsigned 64-bit bit pattern onto its signed interpretation."""
    value &= UINT64_MAX
    if value > INT64_MAX:
        value -= 1 << 64
    return value


def wrap_to_width(value: int, width: Width = Width.QUAD) -> int:
    """Wrap ``value`` to the signed range of ``width`` (two's complement).

    This implements the wrap-around overflow behaviour assumed by the paper
    (§2.2.1): arithmetic overflows are not trapped, they wrap.
    """
    mask = (1 << width.value) - 1
    value &= mask
    if value > (mask >> 1):
        value -= 1 << width.value
    return value


def significant_bytes(value: int) -> int:
    """Number of significant bytes of a signed 64-bit value.

    A byte is insignificant when it consists only of leading sign bits, i.e.
    the value can be recovered by sign extension from the remaining low
    bytes.  This is the quantity used by the hardware significance
    compression scheme (§4.6) and by Figure 12's data-size distribution.

    Closed form: ``v ^ (v >> 63)`` clears the leading sign bits (it is
    ``v`` for ``v >= 0`` and ``~v`` otherwise), so its bit length is the
    number of value bits below the sign bit, and ``n`` bytes hold the
    value exactly when that count is at most ``8n - 1``.
    """
    value = to_signed(value)
    return ((value ^ (value >> 63)).bit_length() >> 3) + 1


def to_signed_n(value: int, bits: int) -> int:
    """Interpret the low ``bits`` bits of ``value`` as a signed integer."""
    mask = (1 << bits) - 1
    value &= mask
    if value > (mask >> 1):
        value -= 1 << bits
    return value


def size_class_bytes(value: int) -> int:
    """Size class used by the hardware *size compression* scheme (§4.6).

    Two tag bits encode whether a value needs 1, 2, 5 or 8 bytes; the odd
    5-byte class exists because memory addresses on the evaluated machine
    are 33-40 bits long (Figure 12 discussion).
    """
    needed = significant_bytes(value)
    for cls in (1, 2, 5, 8):
        if needed <= cls:
            return cls
    return 8
