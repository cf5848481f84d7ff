"""CPU-speed probe used to put timings on a common scale.

On a shared host the effective speed of one core drifts by tens of percent
over seconds to minutes, which swamps program changes of a few percent.
The benchmark therefore runs this fixed, program-independent piece of
work between operations: per-character small-object creation and a
string join, then a character-by-character pattern scan (the two kinds
of work the extractor and the sentence locator spend their time on).
Every time is reported as it would read at the reference speed: measured
seconds times REFERENCE_S / (probe seconds around that moment).  Raw
seconds are printed alongside.  The probe needs nothing the package
imports, so it can run before the package is imported without changing
what the import has to load.

The probe runs with the cyclic garbage collector off.  Its objects would
otherwise set off collections whose cost grows with everything the
program keeps alive at that moment (a full collection walks the whole
heap), and a change that shrinks the program's heap would then speed up
the probe and understate its own gain.
"""

import bisect
import gc
import time

# Probe time the reported seconds are scaled to (a quiet 2-core x86 host
# running Python 3.11 takes about this long).
REFERENCE_S = 0.010

_TEXT = "the quick brown fox jumps over the lazy dog, " * 20
_SCAN = _TEXT * 24
_PATTERN = "lazy dog, the quick"

# Seconds between probes, and probes taken on each side of a moment.
PROBE_INTERVAL_S = 0.2
PROBES_EACH_SIDE = 3


class _Ref:
    __slots__ = ("c", "b", "t")

    def __init__(self, c, b, t):
        self.c = c
        self.b = b
        self.t = t


def probe() -> float:
    """Seconds one fixed unit of work takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        refs = []
        for b in range(32):
            for t, c in enumerate(_TEXT):
                if not c.isspace():
                    refs.append(_Ref(c, b, t))
        "".join(r.c for r in refs)
        del refs
        n, m = len(_SCAN), len(_PATTERN)
        for i in range(n):
            j = 0
            while j < m and i + j < n and _SCAN[i + j] == _PATTERN[j]:
                j += 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Scale:
    """Probes taken during a run, and the factor that maps a raw duration
    measured at some moment onto the reference speed."""

    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []

    def take(self) -> None:
        seconds = probe()
        self.times.append(time.perf_counter())
        self.probes.append(seconds)

    def due(self) -> None:
        """Probe when the last probe is older than the interval."""
        if (not self.times
                or time.perf_counter() - self.times[-1] >= PROBE_INTERVAL_S):
            self.take()

    def factor(self, moment: float) -> float:
        """REFERENCE_S over the mean of the few probes taken just before
        and just after ``moment`` (one probe alone is too noisy)."""
        i = bisect.bisect_left(self.times, moment)
        first = max(i - PROBES_EACH_SIDE, 0)
        around = self.probes[first:i + PROBES_EACH_SIDE]
        return REFERENCE_S / (sum(around) / len(around))
