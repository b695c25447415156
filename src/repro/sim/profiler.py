"""Value profiling infrastructure (Calder-style top-value tables).

Section 3.3 of the paper adopts the value-profiling scheme of Calder et
al.: at each profiling point a fixed-size table of (value, count) pairs is
maintained; when the table fills up, the least frequently used entries are
periodically evicted so new values can enter.  A separate counter records
the total number of executions of the profiling point.

The profiler plugs into :class:`repro.sim.machine.Machine` through the
``ValueObserver`` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["ValueTable", "ValueProfiler"]


@dataclass
class ValueTable:
    """Fixed-size value table for a single profiling point."""

    capacity: int = 16
    clean_interval: int = 256
    total: int = 0
    entries: dict[int, int] = field(default_factory=dict)
    _since_clean: int = 0

    def observe(self, value: int) -> None:
        """Record one observation of ``value``."""
        self.observe_all((value,))

    def observe_all(self, values: Iterable[int]) -> None:
        """Record an observation of each of ``values``, in order."""
        entries = self.entries
        capacity = self.capacity
        interval = self.clean_interval
        total = self.total
        since_clean = self._since_clean
        for value in values:
            total += 1
            since_clean += 1
            if value in entries:
                entries[value] += 1
            elif len(entries) < capacity:
                entries[value] = 1
            # When the table is full the value is ignored (per Calder's
            # scheme); the periodic cleaning below makes room for new values.
            if since_clean >= interval:
                self._clean()
                entries = self.entries
                since_clean = 0
        self.total = total
        self._since_clean = since_clean

    def _clean(self) -> None:
        """Evict the least frequently used half of the table."""
        self._since_clean = 0
        if len(self.entries) < self.capacity:
            return
        ranked = sorted(self.entries.items(), key=lambda item: item[1], reverse=True)
        self.entries = dict(ranked[: max(1, self.capacity // 2)])

    # ------------------------------------------------------------------
    # Queries used by VRS
    # ------------------------------------------------------------------
    @property
    def covered(self) -> int:
        """Number of observations represented in the table."""
        return sum(self.entries.values())

    def observed_range(self) -> tuple[int, int] | None:
        """(min, max) over the values retained in the table, or None."""
        if not self.entries:
            return None
        values = list(self.entries)
        return min(values), max(values)

    def dominant_value(self) -> tuple[int, float] | None:
        """Most frequent value and its frequency relative to ``total``."""
        if not self.entries or self.total == 0:
            return None
        value, count = max(self.entries.items(), key=lambda item: item[1])
        return value, count / self.total

    def range_frequency(self, low: int, high: int) -> float:
        """Estimated fraction of executions whose value lies in [low, high].

        The estimate is conservative: observations that fell out of the
        table are assumed to lie *outside* the range.
        """
        if self.total == 0:
            return 0.0
        inside = sum(count for value, count in self.entries.items() if low <= value <= high)
        return inside / self.total


class ValueProfiler:
    """Profiles the result values of a chosen set of instructions."""

    def __init__(self, watched_uids: set[int], capacity: int = 16, clean_interval: int = 256) -> None:
        self.watched_uids = set(watched_uids)
        self.capacity = capacity
        self.clean_interval = clean_interval
        self.tables: dict[int, ValueTable] = {}

    def observe(self, uid: int, value: int) -> None:
        table = self.tables.get(uid)
        if table is None:
            table = ValueTable(capacity=self.capacity, clean_interval=self.clean_interval)
            self.tables[uid] = table
        table.observe(value)

    def table(self, uid: int) -> ValueTable | None:
        return self.tables.get(uid)

    def profiled_points(self) -> int:
        """Number of watched points that executed at least once."""
        return len(self.tables)
