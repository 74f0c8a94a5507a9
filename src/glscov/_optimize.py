"""One-dimensional maximization helpers: grid scan plus golden-section refinement.

Objectives are evaluated in log space by the callers; a value of -inf marks an
infeasible point and is simply never selected.
"""

from functools import lru_cache

import numpy as np

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - np.sqrt(5.0)) / 2.0

#: scan tables kept at once (about 36 kB each).  The size caps what the cache
#: holds however many generating functions a caller keeps alive; the 1-D sups
#: of one psi use at most three tables (fundamental, truncated, conjugate),
#: and a two-exponent bound on (psi, nu) adds one triangle axis per function
#: and the nested route's table of nu.
TABLE_CACHE_SIZE = 8


def golden_max(f, a, b, tol=1e-12, max_iter=200):
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
    for _ in range(max_iter):
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


def scan_grid(lo, hi, n, extra):
    """linspace(lo, hi, n) merged with the `extra` abscissae inside [lo, hi]."""
    extra = extra[(extra >= lo) & (extra <= hi)]
    return np.unique(np.concatenate([np.linspace(lo, hi, n), extra]))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def psi_table(psi, grid, lo, hi, n):
    """A scan grid of [lo, hi] and ln psi on it, built once per argument set.

    `grid(psi, lo, hi, n)` returns the abscissae xs and the exponents p they
    stand for; the result is (xs, ln psi(p)).  Both arrays are read-only,
    since every caller shares them.
    """
    xs, ps = grid(psi, lo, hi, n)
    logs = psi.log_eval(ps)
    xs.flags.writeable = False
    logs.flags.writeable = False
    return xs, logs
