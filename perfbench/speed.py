"""Clock that reads time at a nominal machine speed.

On a shared machine the same CPU-bound code can run at two speeds a factor
of about two apart, switching every few seconds (an outside load: CPU time
slows as much as wall time).  Raw wall times of one program then spread by
tens of percent between runs, more than any bound a regression check can
use, and no estimate inside one run (fastest repeat, median) undoes a run
that falls wholly in a slow phase.

`SpeedClock` measures the machine's speed while the benchmark runs.  Every
`TICK_S` of wall time a timer signal interrupts the process and the handler
times `reference()`, a fixed pure-Python kernel (small `Fraction` and float
arithmetic, the kind of work the package does).  A stretch of wall time
between two ticks then counts as

    length * NOMINAL_REFERENCE_S / (reference time around the stretch)

and the reference runs themselves count as zero.  `nominal(t)` maps a
`perf_counter()` reading taken during `start()` .. `stop()` onto that
clock, so any duration measured with `perf_counter()` (a job, a pass, a
span, a set-up process waited for) converts by mapping its two ends.

A program that does twice the work reads twice the time whatever the
machine's speed, since the reference kernel is fixed code of the benchmark
and shares nothing with the package.  The figures read as seconds on a
machine where `reference()` takes `NOMINAL_REFERENCE_S`, about the fastest
it runs on a shared 2-core x86-64 virtual machine with CPython 3.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

TICK_S = 0.02
NOMINAL_REFERENCE_S = 0.0003
WINDOW = 4          # ticks around a stretch whose median gives its speed


def reference():
    acc, x = Fraction(0), 0.0
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
        x += (i * 0.5) ** 0.5
    return acc, x


class SpeedClock:
    def __init__(self):
        self.ticks: list = []        # (start, end) of each reference run
        self._xs: list = []          # breakpoints of the piecewise-linear map
        self._ys: list = []
        self._rates = (1.0, 1.0)     # nominal seconds per raw second at the two ends
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        reference()
        self.ticks.append((start, perf_counter()))

    def start(self):
        for _ in range(50):          # warm the kernel's code paths before timing it
            reference()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._build()

    def _build(self):
        ticks = self.ticks
        if not ticks:
            return                   # too short to measure: the raw clock
        took = [end - start for start, end in ticks]
        half = WINDOW // 2
        xs, ys, rates = [ticks[0][0]], [0.0], []
        for k in range(len(ticks)):
            if k:
                # the stretch between ticks k-1 and k, timed by the ticks around it
                around = took[max(0, k - half):k + half]
                rate = NOMINAL_REFERENCE_S / statistics.median(around)
                rates.append(rate)
                xs.append(ticks[k][0])
                ys.append(ys[-1] + (ticks[k][0] - ticks[k - 1][1]) * rate)
            xs.append(ticks[k][1])   # the reference run itself counts as zero
            ys.append(ys[-1])
        if not rates:
            rates = [NOMINAL_REFERENCE_S / took[0]]
        self._xs, self._ys, self._rates = xs, ys, (rates[0], rates[-1])

    def nominal(self, t: float) -> float:
        """`perf_counter()` reading `t` on the nominal clock."""
        xs, ys = self._xs, self._ys
        if not xs:
            return t
        if t <= xs[0]:
            return ys[0] - (xs[0] - t) * self._rates[0]
        if t >= xs[-1]:
            return ys[-1] + (t - xs[-1]) * self._rates[1]
        i = bisect.bisect_right(xs, t)
        x0, x1, y0, y1 = xs[i - 1], xs[i], ys[i - 1], ys[i]
        return y0 if x1 == x0 else y0 + (t - x0) * (y1 - y0) / (x1 - x0)

    def span(self, start: float, end: float) -> float:
        return self.nominal(end) - self.nominal(start)

    def summary(self) -> dict:
        took = sorted(end - start for start, end in self.ticks)
        if not took:
            return {"ticks": 0}
        return {"ticks": len(took), "tick_s": TICK_S,
                "nominal_reference_s": NOMINAL_REFERENCE_S,
                "reference_s_min": took[0], "reference_s_median": statistics.median(took),
                "reference_s_p90": took[int(0.9 * (len(took) - 1))]}
