"""Host time measured against a reference loop, for steady timings on a
machine whose speed drifts.

On a shared host, such as a 2-vCPU virtual machine with busy neighbours,
the same pure-Python loop can take from 0.6x to 1.2x its typical time, in
phases that last seconds to tens of seconds, so two runs of identical work
differ by a third.  ``RefClock`` runs a short fixed loop (the probe) every
``PROBE_EVERY`` seconds while the benchmark works and scales the time
between probes by ``PROBE_REF / recent probe time``.  What it reports is the
time the work would have taken had the probe run at ``PROBE_REF``: reference
seconds.  The time spent in probes is left out of both the raw and the
reference clock.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

PROBE_EVERY = 0.05  # seconds of work between probes
PROBE_REF = 0.0015  # probe time that defines a reference second (about the
# probe's typical time under CPython 3.11 on a 2-vCPU x86-64 virtual machine)
PROBE_WINDOW = 5  # recent probes whose median sets the scale

clock = time.perf_counter


def probe_loop() -> int:
    """Fixed interpreter work: integer arithmetic, dict stores and loads."""
    d = dict.fromkeys(range(64), 0)
    s = 0
    for i in range(8000):
        d[i & 63] = i
        s += d[(i * 7) & 63] % 5
    return s


class RefClock:
    """Raw and reference-scaled host time, with probe time excluded."""

    def __init__(self) -> None:
        self.raw = 0.0
        self.ref = 0.0
        self.probes: deque = deque(maxlen=PROBE_WINDOW)
        self._scale = 1.0
        self._last = clock()
        self._since_probe = 0.0
        probe_loop()  # the first run of a loop is slower while the interpreter adapts it
        self.probe()

    def _advance(self) -> None:
        t = clock()
        dt = t - self._last
        self._last = t
        self.raw += dt
        self.ref += dt * self._scale
        self._since_probe += dt

    def probe(self) -> None:
        self._advance()
        t0 = clock()
        probe_loop()
        dt = clock() - t0
        self.probes.append(dt)
        self._scale = PROBE_REF / statistics.median(self.probes)
        self._since_probe = 0.0
        self._last = clock()

    def now(self) -> tuple[float, float]:
        """(raw seconds, reference seconds) of work so far."""
        self._advance()
        return self.raw, self.ref

    def tick(self, *_args) -> None:
        """Probe if due; cheap enough to call every simulator step (it is
        shaped as a ``Simulator.run`` observer)."""
        if clock() - self._last + self._since_probe >= PROBE_EVERY:
            self.probe()
