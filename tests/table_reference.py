"""The dense scan table of every psi: the reference for glscov's scan tables.

Every psi, piecewise log-linear or not, scans the dense u grid of its scan
range, with a piecewise psi's breakpoints added, as `psi_table` was first
written.  `dense_tables` puts it in place of `psi_table` at every lookup
site, so a computation run inside it reads the dense grid: the 1-D sups and
both axes of the two-exponent sup.
"""

import contextlib
import importlib
import math

import numpy as np
import pytest

from glscov.psi import scan_bound

#: (module, name) of every lookup site of the table function; glscov
#: re-exports the function `fundamental` under the module's name, so the
#: modules come by import path
_SITES = [(importlib.import_module(f"glscov.{module}"), name) for module, name in (
    ("_optimize", "psi_table"), ("fundamental", "psi_table"), ("tails", "psi_table"),
    ("bounds", "psi_table"),
)]


def dense_table(psi, s, n):
    """(us, ln psi(1/us)) on linspace(n), 128 geometric points, for a finite
    b 64 more toward p -> b, and psi's breakpoints, within [1/min(b, P_MAX), 1/s].

    The last of the 64 is lo + (hi - lo), which can round one ulp below hi.
    A piecewise psi keeps it, a point its own table does not hold; a smooth
    psi's table is this grid without it, so a smooth sup read off either
    is the same computation.
    """
    lo, hi = 1.0 / scan_bound(psi), 1.0 / s
    parts = [np.linspace(lo, hi, n), np.geomspace(lo, hi, 128)]
    if math.isfinite(psi.b):
        toward_b = np.logspace(-12, 0, 64)
        parts.append(lo + (hi - lo) * (toward_b if psi.breakpoints is not None else toward_b[:-1]))
    if psi.breakpoints is not None:
        parts.append(psi.breakpoints)
    us = np.unique(np.concatenate(parts))
    us = us[(us >= lo) & (us <= hi)]
    return us, psi.log_u(us)


@contextlib.contextmanager
def dense_tables():
    """Every sup inside the block scans `dense_table`."""
    with pytest.MonkeyPatch.context() as patch:
        for module, name in _SITES:
            patch.setattr(module, name, dense_table)
        yield
