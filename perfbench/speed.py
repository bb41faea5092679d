"""Machine-speed calibration for the timed end-to-end metrics.

On a shared virtual machine the speed of the same code drifts by ±25%
within seconds, and by as much again over minutes, as neighbours come and
go.  Medians over passes do not remove a drift that lasts longer than a run.
So a pass times a fixed kernel, which uses no ncmart code, after the import,
after each tower's set-up and after each timed operation, and scales its
wall times by ``nominal_s`` over the mean kernel time of the pass.  The
reported times are thus seconds at the machine speed at which the kernel
takes ``nominal_s``; raw wall times are kept beside them in the result
record.

The kernel mixes interpreter loops over dicts, small LAPACK calls, a
complex matrix product, a sort that fits in cache and sums over 4 MB of
memory.  It allocates no more than that, so that it adds little to
``peak_rss_mb``.  Its speed follows that of interpreter-bound and small
LAPACK work, such as imports and set-up, but not that of large memory-bound
products, so the operation time of workloads of the latter kind is
reported unscaled (``scale_run`` in ``workloads.py``).  A kernel that
streams over memory is no fix: it shares the L3 cache with the program's
own arrays, so it would slow down with the program's footprint and hide a
change to it.
"""

from __future__ import annotations

import time

# Median single-thread kernel time on a 2-vCPU Intel Xeon virtual machine at
# 2.1 GHz; with n threads the nominal time is n times this.
NOMINAL_S = 0.05


class Kernel:
    """The calibration kernel, run on as many threads as the workload's workers.

    With two workers the program's speed also depends on whether the second
    vCPU is free, which one thread cannot see.  Copies on several threads
    contend for the GIL as the workers do, so the nominal time grows with
    the thread count.
    """

    def __init__(self, threads=1):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.vec = rng.standard_normal(20000)
        self.big = rng.standard_normal(500_000)
        self.sym = rng.standard_normal((24, 24))
        self.sym = self.sym + self.sym.T
        self.gen = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self.threads = threads
        self.nominal_s = NOMINAL_S * threads
        self.pool = None
        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            self.pool = ThreadPoolExecutor(threads)
        self.samples = []
        self.sample()  # first call pays allocation, page faults and thread start
        self.samples = []

    def run(self):
        np = self.np
        s = 0.0
        for i in range(112):
            s += float(np.sort(self.vec * (i + 1))[0])
            s += float(np.linalg.eigvalsh(self.sym)[0])
            if i % 28 == 0:
                s += float(np.abs(self.gen @ self.gen).sum())
                s += float(self.big.sum()) + float(self.big[::-1].sum())
            d = {}
            for j in range(1800):
                d[j % 97] = d.get(j % 97, 0.0) + j * 0.5
            s += d[0]
        return s

    def sample(self):
        t = time.perf_counter()
        if self.pool is None:
            self.run()
        else:
            for f in [self.pool.submit(self.run) for _ in range(self.threads)]:
                f.result()
        self.samples.append(time.perf_counter() - t)

    def scale(self):
        """Factor from wall seconds of this pass to nominal seconds."""
        return self.nominal_s * len(self.samples) / sum(self.samples)

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()
