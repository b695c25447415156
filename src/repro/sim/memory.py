"""Sparse byte-addressed memory for the functional simulator."""

from __future__ import annotations

import struct

from ..isa import Width
from ..isa.widths import to_signed_n
from ..ir import Program

__all__ = ["Memory", "load_program_data"]

_PAGE_SIZE = 4096
_PAGE_MASK = _PAGE_SIZE - 1
_PAGE_SHIFT = _PAGE_SIZE.bit_length() - 1


class Memory:
    """A sparse, paged, little-endian memory.

    Pages are materialised lazily and zero-filled, so the simulator can use
    a realistic 64-bit address space (globals high, stack higher) without
    allocating it.

    The block-compiled interpreter tier (:mod:`repro.sim.blockc`) inlines
    this layout — page size, mask, byte order, lazy zero-fill — for
    accesses that stay inside one materialized page, falling back to the
    bound :meth:`load`/:meth:`store` methods otherwise; changes here must
    keep that generated fast path equivalent (the differential tests in
    ``tests/test_sim_machine.py`` enforce it).
    """

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}

    # ------------------------------------------------------------------
    # Raw byte access
    # ------------------------------------------------------------------
    def _page(self, address: int) -> bytearray:
        page_number = address >> _PAGE_SHIFT
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[page_number] = page
        return page

    def read_bytes(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``address``."""
        result = bytearray()
        while size > 0:
            page = self._page(address)
            offset = address & _PAGE_MASK
            chunk = min(size, _PAGE_SIZE - offset)
            result += page[offset : offset + chunk]
            address += chunk
            size -= chunk
        return bytes(result)

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``."""
        index = 0
        size = len(data)
        while index < size:
            page = self._page(address)
            offset = address & _PAGE_MASK
            chunk = min(size - index, _PAGE_SIZE - offset)
            page[offset : offset + chunk] = data[index : index + chunk]
            address += chunk
            index += chunk

    # ------------------------------------------------------------------
    # Typed access
    # ------------------------------------------------------------------
    def load(self, address: int, width: Width, signed: bool) -> int:
        """Load a value of ``width`` bytes; sign- or zero-extend to 64 bits."""
        raw = self.read_bytes(address, width.bytes)
        value = int.from_bytes(raw, "little", signed=False)
        if signed:
            return to_signed_n(value, width.bits)
        return value

    def store(self, address: int, value: int, width: Width) -> None:
        """Store the low ``width`` bytes of ``value``."""
        mask = (1 << width.bits) - 1
        self.write_bytes(address, (value & mask).to_bytes(width.bytes, "little"))

    @property
    def touched_pages(self) -> int:
        """Number of pages that have been materialised."""
        return len(self._pages)


#: ``struct`` format letter of an element of each width (little-endian,
#: unsigned, standard sizes).
_ELEMENT_FORMAT = {Width.BYTE: "B", Width.HALF: "H", Width.WORD: "I", Width.QUAD: "Q"}


def load_program_data(memory: Memory, program: Program) -> None:
    """Initialise ``memory`` with the program's static data objects.

    Each object's initial values are packed, masked to the element width
    as :meth:`Memory.store` masks them, and written with one
    :meth:`Memory.write_bytes`: the same pages and bytes as one store per
    element, in one call per object.
    """
    for obj in program.data_objects.values():
        values = obj.initial_values
        if not values:
            continue
        width = obj.element_width
        mask = (1 << width.bits) - 1
        data = struct.pack(
            f"<{len(values)}{_ELEMENT_FORMAT[width]}", *[value & mask for value in values]
        )
        memory.write_bytes(obj.address, data)
