"""A fixed reference kernel that scales host times to a steady machine speed.

On a shared host the same trial can take twice as long for minutes at a time
while other tenants load the cores, and process CPU time drifts with wall
time, so neither can be compared across runs as it is. The benchmark runs
this kernel right before and right after every trial and reports the trial's
time as ``host_s * REF_S / kernel_s``, with ``kernel_s`` the mean of the two
readings: seconds on a host where the kernel takes ``REF_S``. (One reading
after the trial left the p90 of scaled times about twice as noisy.) The kernel is plain Python float arithmetic, attribute reads and
calls, like the simulator's step loop, and uses no wvcsim code, so a change
to wvcsim moves the scaled times fully. It must never change: scaled times
are only comparable between runs of the same kernel.
"""

from __future__ import annotations

import time

# Nominal seconds of one kernel call (it took 1.6 to 3.4 ms on the 2-vCPU
# development host, depending on load); only the scale of reported times.
REF_S = 0.0025
_ITERATIONS = 4000


class _Params:
    __slots__ = ("a", "b", "c")

    def __init__(self):
        self.a, self.b, self.c = 2.5, 4.0, 1.5


def _accel(v: float, dv: float, s: float, p: _Params) -> float:
    s_star = 5.0 + v * p.c + v * dv / (2.0 * (p.a * p.b) ** 0.5)
    a = p.a * (1.0 - (v / 27.78) ** 4 - (s_star / s) ** 2)
    return a if a > -9.0 else -9.0


def _run(iterations: int) -> float:
    p = _Params()
    gaps = [31.0 + (i % 17) for i in range(64)]
    acc = 0.0
    for i in range(iterations):
        acc += _accel(20.0 + (i & 7), 0.1, gaps[i & 63], p)
    return acc


def kernel_seconds() -> float:
    """Host seconds of one run of the fixed reference kernel.

    An untimed short run first brings the kernel back into the caches, so
    what the preceding trial left there does not change the reading.
    """
    _run(_ITERATIONS // 10)
    t = time.perf_counter()
    _run(_ITERATIONS)
    return time.perf_counter() - t


def scaled(host_s: float, kernel_s: list[float]) -> float:
    """``host_s`` as seconds on a host where the kernel takes ``REF_S``, given
    the kernel readings taken around it."""
    return host_s * REF_S * len(kernel_s) / sum(kernel_s)
