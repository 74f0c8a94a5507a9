"""Machine-speed normalization for the benchmark's timings.

On a 2-vCPU VM shared with other tenants (Python 3.11.7, numpy 2.4.6) the
same code runs up to ~1.5x slower for minutes at a time, which swamps any
change worth measuring.  A fixed kernel of numpy and Python work, the same at
every commit and independent of glscov, is timed before every op; each timing
of a run is then reported as

    measured seconds * REFERENCE_S / mean kernel seconds of the run,

i.e. the time it would take while the kernel runs at its reference speed.
The mean, not the median, follows the ops: the kernel is short and sees the
machine's fast and slow instants, which a long op averages.  On that VM this
cut the spread of 8-second windows of pair_bounds op times from 39% to 6%.
Raw timings are kept in each run's record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the kernel's time on the reference VM in its fast state; only a unit, it
#: cancels in every comparison between two commits
REFERENCE_S = 1.0e-3

_X = np.linspace(0.1, 1.0, 256)
_Y = np.random.default_rng(0).random(4096)


def kernel():
    """Many one-element array operations, like glscov's scalar sups, and a few vector ones."""
    acc = 0.0
    for i in range(300):
        a = np.asarray([_X[i & 255]], dtype=float)
        acc += float(np.log(a)[0]) + float(np.where(a > 0.5, a, -a)[0])
    return acc + float(np.sort(_Y)[10] + np.exp(_Y).sum())


def kernel_time():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(samples):
    """Factor turning measured seconds into reference seconds."""
    return REFERENCE_S / statistics.fmean(samples)


def settled_scale():
    """`scale` from 60 kernel runs, for a one-off timing such as set-up."""
    return scale([kernel_time() for _ in range(60)])
