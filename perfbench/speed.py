"""The machine-speed probe that every timed figure is scaled by.

The reference machine is a 2-core share of a host that other tenants use, and
its speed drifts by tens of percent over minutes. A fixed pure-Python loop
slows and speeds up with it, so each timed call is bracketed by two samples of
the loop and reported as the time it would take at the speed where the loop
takes ``REFERENCE_S`` (its typical time on the reference machine). Two runs of
the same code then agree much more closely than their raw wall times do, and a
change to ``uplan`` moves the figure as it moves the wall time, since the loop
does not involve ``uplan``.
"""

from __future__ import annotations

from time import perf_counter

ITERATIONS = 400_000
REFERENCE_S = 0.045


def sample() -> float:
    """Seconds that the fixed loop takes now."""
    start = perf_counter()
    s = 0
    for i in range(ITERATIONS):
        s += i * i % 7
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given probe samples taken just
    before and just after them."""
    return seconds * REFERENCE_S * 2 / (before + after)
