"""Host time scaled to a reference machine speed.

A shared machine's speed drifts: neighbours load its cores and caches,
and a fixed pure-Python loop can take 60 % longer from one half-minute
to the next.  Raw host seconds then spread more between runs than any
useful bound.  :class:`RefClock` measures the drift while a replay runs:
a ``SIGALRM`` timer interrupts the process every :data:`INTERVAL_S` host
seconds, and the handler times :func:`calibration_loop`.  A phase's
*reference seconds* are its host seconds, less the time the handler
took, scaled by ``REF_LOOP_S / mean loop time`` over the phase: the time
the phase would have taken on a machine where the loop takes
:data:`REF_LOOP_S`.

The handler touches no program state, so simulated results are
unchanged.  It runs in the one thread of the process, between Python
bytecodes.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import defaultdict
from typing import Dict, List

#: Host seconds between calibration samples.
INTERVAL_S = 0.05
#: Loop time, in host seconds, of the reference machine.
REF_LOOP_S = 1e-3


def calibration_loop() -> None:
    """Fixed interpreter work: dict lookups and integer adds."""
    d: Dict[int, int] = {}
    for i in range(8000):
        d[i & 255] = d.get(i & 255, 0) + i


class RefClock:
    """Samples machine speed per phase; use as a context manager."""

    def __init__(self) -> None:
        self.current = "setup"
        self.loop_s: Dict[str, List[float]] = defaultdict(list)
        #: host seconds the handler itself took, per phase
        self.handler_s: Dict[str, float] = defaultdict(float)
        self._saved = None

    def phase(self, name: str) -> None:
        self.current = name

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.loop_s[self.current].append(t1 - t0)
        # One-shot re-arm: a slow sample cannot nest inside itself.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.handler_s[self.current] += time.perf_counter() - t0

    def speed(self, name: str) -> float:
        """Reference loop time over the phase's mean loop time."""
        # A phase shorter than one interval uses the whole iteration's.
        samples = self.loop_s.get(name) or [
            s for v in self.loop_s.values() for s in v]
        return REF_LOOP_S / statistics.fmean(samples)

    def ref_seconds(self, name: str, host_s: float) -> float:
        """``host_s`` of phase ``name`` in reference seconds."""
        return (host_s - self.handler_s.get(name, 0.0)) * self.speed(name)

    def __enter__(self) -> "RefClock":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
