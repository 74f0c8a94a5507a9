"""The dense scan table of every psi: the reference for glscov's scan tables.

Every psi, piecewise log-linear or not, scans a dense u grid.  A smooth
psi's is the grid of its support cut at the truncation point, the table
`psi_table` builds.  A piecewise psi's is the dense grid of its scan range
with its breakpoints added, as `psi_table` was first written.
`dense_tables` puts it in place of `psi_table` at every lookup site, so a
computation run inside it reads the dense grid: the 1-D sups and both axes
of the two-exponent sup.
"""

import contextlib
import importlib
import math

import numpy as np
import pytest

from glscov._optimize import N_GRID
from glscov.psi import scan_bound

#: (module, name) of every lookup site of the table function; glscov
#: re-exports the function `fundamental` under the module's name, so the
#: modules come by import path
_SITES = [(importlib.import_module(f"glscov.{module}"), name) for module, name in (
    ("_optimize", "psi_table"), ("fundamental", "psi_table"), ("tails", "psi_table"),
    ("bounds", "psi_table"),
)]


def dense_table(psi, s, n=N_GRID):
    """(us, ln psi(1/us), cuts) on a dense grid within [lo, hi] =
    [1/min(b, P_MAX), 1/s], with psi's kinks inside it at the indices cuts.

    A smooth psi: the grid of its support on [lo, 1], its points below hi
    and hi itself.  For an unbounded support that grid is linspace(n) and
    128 geometric points; for a finite b it is lo + (1 - lo) t, ending at 1
    exactly, over t in linspace(n) on [0, 1] and 63 points geometric toward
    0.  A kinked psi adds its kinks below hi.  So a smooth sup read off
    either table is the same computation.

    A piecewise psi: linspace(n), 128 geometric points, for a finite b 64
    more toward p -> b, and psi's breakpoints, all on [lo, hi].  The last of
    the 64 is lo + (hi - lo), which can round one ulp below hi, a point
    psi's own table does not hold.
    """
    lo, hi = 1.0 / scan_bound(psi), 1.0 / s
    kinks = psi.kinks[(psi.kinks > lo) & (psi.kinks < hi)]
    if psi.breakpoints is None:
        if math.isfinite(psi.b):
            unit = np.union1d(np.linspace(0.0, 1.0, n), np.logspace(-12, 0, 64)[:-1])
            us = lo + (1.0 - lo) * unit
            us[-1] = 1.0
        else:
            us = np.union1d(np.linspace(lo, 1.0, n), np.geomspace(lo, 1.0, 128))
        us = np.append(us[us < hi], hi) if hi >= lo else us[:0]
        us = np.union1d(us, kinks)
        return us, psi.log_u(us), np.searchsorted(us, kinks)
    parts = [np.linspace(lo, hi, n), np.geomspace(lo, hi, 128), psi.breakpoints]
    if math.isfinite(psi.b):
        parts.append(lo + (hi - lo) * np.logspace(-12, 0, 64))
    us = np.unique(np.concatenate(parts))
    us = us[(us >= lo) & (us <= hi)]
    return us, psi.log_u(us), np.searchsorted(us, kinks)


@contextlib.contextmanager
def dense_tables():
    """Every sup inside the block scans `dense_table`."""
    with pytest.MonkeyPatch.context() as patch:
        for module, name in _SITES:
            patch.setattr(module, name, dense_table)
        yield
