"""The dense scan table of every psi: the reference for glscov's scan tables.

Every psi, piecewise log-linear or not, scans the dense u grid of its scan
range, with a piecewise psi's breakpoints added, as `psi_table` was first
written.  `dense_tables` puts it in place of `psi_table` at every lookup
site, and in place of `axis_table`, so a computation run inside it reads the
dense grid.
"""

import contextlib
import importlib
import math

import numpy as np
import pytest

from glscov.psi import scan_bound

#: (module, name) of every lookup site of the two table functions; glscov
#: re-exports the function `fundamental` under the module's name, so the
#: modules come by import path
_SITES = [(importlib.import_module(f"glscov.{module}"), name) for module, name in (
    ("_optimize", "psi_table"), ("fundamental", "psi_table"), ("tails", "psi_table"),
    ("_optimize", "axis_table"), ("bounds", "axis_table"),
)]


def dense_table(psi, s, n):
    """(us, ln psi(1/us)) on linspace(n), 128 geometric points, for a finite
    b 64 more toward p -> b, and psi's breakpoints, within [1/min(b, P_MAX), 1/s]."""
    lo, hi = 1.0 / scan_bound(psi), 1.0 / s
    parts = [np.linspace(lo, hi, n), np.geomspace(lo, hi, 128)]
    if math.isfinite(psi.b):
        parts.append(lo + (hi - lo) * np.logspace(-12, 0, 64))
    if psi.breakpoints is not None:
        parts.append(psi.breakpoints)
    us = np.unique(np.concatenate(parts))
    us = us[(us >= lo) & (us <= hi)]
    return us, psi.log_u(us)


@contextlib.contextmanager
def dense_tables():
    """Every sup inside the block scans `dense_table`, on [1/s, ...] for a
    1-D sup and on [1, ...] along a two-exponent axis."""
    with pytest.MonkeyPatch.context() as patch:
        for module, name in _SITES:
            table = dense_table if name == "psi_table" else lambda psi, n: dense_table(psi, 1.0, n)
            patch.setattr(module, name, table)
        yield
