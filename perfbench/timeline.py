"""Host-speed-corrected timing for a shared host.

On a host whose cores other tenants share, the same Python code runs up
to twice as slow in some seconds as in others, and slow phases last
from seconds to minutes, so a median over the passes of one run still
moves with the host.  A :class:`Timeline` therefore cuts the measured
work at every unit (a paper point, a sweep's trace-signature group) and
times a fixed reference loop, :func:`probe`, at each cut.  The probe
shares no code with the program, runs with the garbage collector off
(so the program's garbage is never collected inside it) and is left out
of every measured interval.

:func:`corrected` rescales each interval by the probes on either side
of it: an interval between two probes that each took twice
:data:`REFERENCE_S` counts half.  The result is the time the work would
take on a host where the probe takes exactly :data:`REFERENCE_S`, a
time in units of the reference loop.  The raw intervals are kept next
to it.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Optional

#: The probe time that corrected times are scaled to.  On the host the
#: benchmark was written on (2-vCPU virtual machine, Python 3.11) the
#: probe took 7.7 to 9.5 ms at best and about 10 ms on median.
REFERENCE_S = 0.010


def probe(iterations: int = 40_000) -> float:
    """Seconds a fixed dictionary-and-integer loop takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.monotonic()
        table: dict[int, int] = {}
        total = 0
        for i in range(iterations):
            table[i & 1023] = table.get(i & 1023, 0) + i
            total += (i * 7) ^ (i >> 3)
        return time.monotonic() - start
    finally:
        if enabled:
            gc.enable()


class Timeline:
    """Measured work as segments cut by probes.

    ``mark(phase)`` closes the segment that began at the previous mark,
    charges it to ``phase`` (``None``: not measured), and probes.  A
    segment is ``[phase, seconds, probe_before, probe_after]``; the
    first one starts at ``launched`` (a ``time.monotonic()`` value) and
    has no probe before it.
    """

    def __init__(
        self,
        launched: float,
        clock: Callable[[], float] = time.monotonic,
        reference: Callable[[], float] = probe,
    ) -> None:
        self.segments: list[list] = []
        self._clock = clock
        self._reference = reference
        self._start = launched
        self._probe: Optional[float] = None

    def mark(self, phase: Optional[str]) -> None:
        seconds = self._clock() - self._start
        after = self._reference()
        if phase is not None:
            self.segments.append([phase, seconds, self._probe, after])
        self._probe = after
        self._start = self._clock()

    def seconds(self, phase: str) -> float:
        """Raw seconds charged to ``phase``."""
        return sum(segment[1] for segment in self.segments if segment[0] == phase)


def probes(segments: list) -> list[float]:
    """Every probe time among ``segments``."""
    return [value for segment in segments for value in segment[2:] if value is not None]


def corrected(segments: list, phase: str) -> float:
    """Seconds charged to ``phase``, each interval rescaled to :data:`REFERENCE_S` probes."""
    total = 0.0
    for name, seconds, before, after in segments:
        if name != phase:
            continue
        around = [value for value in (before, after) if value is not None]
        total += seconds * REFERENCE_S * len(around) / sum(around)
    return total
