"""Host-speed reference for the timed runs.

The benchmark runs on a few virtual cores of a shared host, and a core's
speed changes with what the host's other tenants run: a fixed kernel
takes 1.6 to 2 times as long in a slow period as in a fast one, the
periods switch every few seconds, and their mix drifts over minutes.
Raw child times follow that drift, so ten runs of the same code can
spread by more than a fifth.

``SpeedProbe`` measures the core's speed while the child runs.  The
benchmark process and its children are pinned to one core; a probe
thread in the benchmark process wakes every ``INTERVAL_S`` seconds, runs
a fixed kernel of small numpy and interpreter work (the kind of work
``ifgame`` does), and records the kernel's thread CPU time, so time
spent waiting for the core does not count.  ``factor(t0, t1)`` is the
mean kernel time of the samples taken in ``[t0, t1]`` over
``REFERENCE_S``; a child time divided by it is that time at the
reference speed.  The probe takes about 1 % of the core.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

# Kernel time that counts as speed 1.  Fixed, so that rescaled times of
# two commits compare; about the kernel's time while a child shares the
# core in a fast period of the host.
REFERENCE_S = 2.0e-3
# Seconds between kernel runs: the kernel takes about 1 % of the core.
INTERVAL_S = 0.2


def _make_kernel():
    import numpy as np  # after run.py has pinned the BLAS threads

    rng = np.random.default_rng(20140926)
    mats = rng.standard_normal((64, 3, 3))
    mats = mats + mats.transpose(0, 2, 1)
    rates = rng.uniform(size=(3, 512))

    def kernel():
        start = time.thread_time()
        for _ in range(8):
            np.linalg.eigvalsh(mats)
            levels = np.log1p(rates / (1.0 + rates.sum(axis=0)))
            levels.sort(axis=1)
            total = 0
            for i in range(2000):
                total += i
        return time.thread_time() - start

    return kernel


class SpeedProbe:
    """Samples the core's speed on a thread until the context exits."""

    def __init__(self):
        self._kernel = _make_kernel()
        self._starts: list[float] = []
        self._times: list[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _take(self):
        began = time.perf_counter()
        took = self._kernel()
        with self._lock:
            self._starts.append(began)
            self._times.append(took)

    def _sample(self):
        while not self._stop.wait(INTERVAL_S):
            self._take()

    def __enter__(self):
        for _ in range(20):  # first calls pay numpy's lazy set-up
            self._kernel()
        self._take()  # so that factor() always has a sample to fall back on
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def factor(self, t0, t1):
        """Mean kernel time over ``REFERENCE_S`` for samples begun in
        ``[t0, t1]`` (``time.perf_counter`` readings); the last sample
        before ``t1`` when the window holds none."""
        with self._lock:
            lo = bisect.bisect_left(self._starts, t0)
            hi = bisect.bisect_right(self._starts, t1)
            window = self._times[lo:hi] or self._times[max(hi - 1, 0):hi]
        if not window:
            raise RuntimeError("speed probe took no sample")
        return statistics.fmean(window) / REFERENCE_S
