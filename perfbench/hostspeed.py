"""Host speed, sampled while the work runs, to normalise timings.

The benchmark runs on a few vCPUs of a shared host whose speed drifts.
On the 2-vCPU Xeon VM it was tuned on, a pure-Python loop alternated
between 29 ms and 48 ms per pass, in phases of a fraction of a second,
and the mix of fast and slow phases changed over tens of seconds: the
same 9-week adaptive arm took 14 s to 21 s. Runs of half a minute
cannot average that out, and a calibration run between `prism` calls
misses the phases the call itself ran in.

So a fixed kernel that does not use `prism` runs from a SIGALRM handler
every ``PERIOD_S`` of wall time while a call runs, and once when
sampling starts. Its mean time divided by ``REF_KERNEL_S`` is the host
``factor`` over exactly that call: above 1 when the host ran slower than
the reference. A call's host-normalised time is its wall time, minus
the kernel's own time, divided by the factor.
"""

from __future__ import annotations

import hashlib
import re
import signal
import time

import numpy as np

PERIOD_S = 0.025
# Mean kernel time inside a sampled `prism simulate` call on the 2-vCPU
# Xeon VM the benchmark was tuned on; normalised times read as seconds
# on that machine at its typical speed.
REF_KERNEL_S = 0.00055

_rng = np.random.default_rng(0)
_VECTORS = [_rng.standard_normal(16) for _ in range(8)]
_MATRIX = _rng.standard_normal((16, 16))
_TEXT = "call me at 555-123-4567 or mail jo.smith@example.org about week 12 " * 3
_PATTERN = re.compile(r"\d{3}-\d{3}-\d{4}|[\w.]+@[\w.]+")
_BLOB = _TEXT.encode() * 4


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def kernel() -> float:
    """Fixed work of the three kinds `prism` spends its time on, which
    slow down by different amounts when the host is loaded: about 30%
    small-vector numpy, 60% interpreted object and dict code and 10% C
    string work (regex, sha256). Of the mixes tried, this one tracked
    all three workloads' slowdowns best (per-arm spread 0.04-0.05 after
    normalising against 0.13-0.25 before; equal shares gave 0.06-0.07)."""
    acc = 0.0
    for i in range(25):
        v = _VECTORS[i & 7]
        acc += float(v @ _MATRIX @ v)
    pairs = {j: _Pair(j, j) for j in range(64)}
    for i in range(420):
        pair = _Pair(i, 3 * i)
        pairs[i & 63] = pair
        acc += pair.a + pairs[(7 * i) & 63].b
    digest = b""
    for _ in range(2):
        digest = hashlib.sha256(_BLOB + digest).digest()
        acc += len(_PATTERN.findall(_TEXT))
    return acc


class Sampler:
    """Context manager that runs ``kernel`` on entry and every
    ``PERIOD_S`` until exit. Main thread only (signal handlers)."""

    def __init__(self) -> None:
        self.busy_s = 0.0
        self.samples = 0

    def _sample(self, *_signal_args) -> None:
        started = time.perf_counter()
        kernel()
        self.busy_s += time.perf_counter() - started
        self.samples += 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def factor(self) -> float:
        """Mean kernel time over the reference; 1.0 at reference speed."""
        return self.busy_s / self.samples / REF_KERNEL_S

    def normalise(self, wall_s: float) -> float:
        """``wall_s`` (kernel runs included) at the reference host speed."""
        return (wall_s - self.busy_s) / self.factor
