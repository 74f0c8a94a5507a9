"""One-dimensional maximization helpers: grid scan plus golden-section refinement.

Objectives are evaluated in log space by the callers; a value of -inf marks an
infeasible point and is simply never selected.  `psi_table` is the one scan
grid of a generating function: every sup over p reads its grid from it.  The
grid holds every breakpoint of a piecewise log-linear psi, so a 1-D sup whose
objective is linear or monotone on each cell between them is the grid
maximum, and its caller skips the golden-section refinement.
"""

import math
from functools import lru_cache

import numpy as np

from .psi import log_eval_piecewise, scan_bound

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - np.sqrt(5.0)) / 2.0

#: golden-section steps at most; 200 steps shrink any bracket below 1e-40
_MAX_ITER = 200

#: scan tables kept at once (about 36 kB each).  The size caps what the cache
#: holds however many generating functions a caller keeps alive.  The 1-D sups
#: of one psi use at most two tables (on [1, b) for fundamental and the
#: conjugate, on [s, b) for a truncated sup); a two-exponent bound on
#: (psi, nu) adds one axis table per function, which the nested route shares.
TABLE_CACHE_SIZE = 8


def golden_max(f, a, b, tol=1e-12):
    """Golden-section maximization of a scalar function on [a, b].

    Returns (x_best, f_best) over every point actually evaluated, so a
    boundary maximum found by the caller's grid is never lost.  When both
    interior probes are infeasible (-inf) the bracket shrinks toward the end
    with the larger value, which keeps a sup that sits on an infeasibility
    boundary inside the bracket.
    """
    fa, fb = f(a), f(b)
    best_x, best_f = (b, fb) if fb > fa else (a, fa)
    dist = b - a
    if dist <= tol:
        return best_x, best_f
    c = a + _INV_PHI2 * dist
    d = a + _INV_PHI * dist
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
        if fc > best_f:
            best_x, best_f = c, fc
        if fd > best_f:
            best_x, best_f = d, fd
        if dist <= tol:
            break
        if fc > fd or (fc == fd == -np.inf and fa > fb):
            b, fb, d, fd = d, fd, c, fc
            dist *= _INV_PHI
            c = a + _INV_PHI2 * dist
            fc = f(c)
        else:
            a, fa, c, fc = c, fc, d, fd
            dist *= _INV_PHI
            d = a + _INV_PHI * dist
            fd = f(d)
    return best_x, best_f


def grid_golden_max(xs, fs, f, refine=True, tol=1e-12):
    """Maximize an objective given by its values `fs` on the sorted grid `xs`.

    Takes the best grid point, then refines by golden-section search with the
    scalar objective `f` on the cell bracketing it.  Returns (x_best, f_best);
    f_best is -inf when the objective is -inf everywhere.
    """
    i = int(np.argmax(fs))
    best_x, best_f = float(xs[i]), float(fs[i])
    if not np.isfinite(best_f) or not refine:
        return best_x, best_f
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, len(xs) - 1)])
    if b > a:
        x, fx = golden_max(f, a, b, tol=tol * max(1.0, float(xs[-1] - xs[0])))
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def psi_table(psi, s, n):
    """The scan grid of psi for a sup over p in [s, min(b, P_MAX)], and ln psi on it.

    The grid is in u = 1/p on [1/min(b, P_MAX), 1/s]: linspace(n), 128
    geometric points (dense toward p -> infinity), for a finite b 64 more
    points geometric toward p -> b, and psi's breakpoints when it is
    piecewise log-linear.  ln psi at the two ends is taken at the exact
    exponents min(b, P_MAX) and s, not at 1/(1/p), which can fall outside a
    closed support; a piecewise psi is interpolated in u between its
    breakpoints, so every closed support end of its factors is feasible too.
    Returns (us, ln psi); both arrays are read-only, since every caller
    shares them.
    """
    p_hi = scan_bound(psi)
    lo, hi = 1.0 / p_hi, 1.0 / s
    parts = [np.linspace(lo, hi, n), np.geomspace(lo, hi, 128)]
    if math.isfinite(psi.b):
        parts.append(lo + (hi - lo) * np.logspace(-12, 0, 64))
    breakpoints = psi.breakpoints
    if breakpoints is not None:
        parts.append(breakpoints)
    us = np.unique(np.concatenate(parts))
    us = us[(us >= lo) & (us <= hi)]
    if breakpoints is None:
        ps = 1.0 / us
        ps[0], ps[-1] = p_hi, s
        logs = psi.log_eval(ps)
    else:
        logs = log_eval_piecewise(psi, us)
    us.flags.writeable = False
    logs.flags.writeable = False
    return us, logs
