"""One-dimensional maximization: a grid scan, then a refinement of its best point.

Objectives are evaluated in log space by the callers; a value of -inf marks an
infeasible point and is simply never selected.  `psi_table` is the one scan
grid of a generating function: every sup over p reads its grid from it.  The
grid holds every breakpoint of a piecewise log-linear psi, so a 1-D sup whose
objective is linear or monotone on each cell between them is the grid
maximum, and its caller skips the refinement.

`cell_max` refines a grid point on its two cells by safeguarded Newton
(`newton_max`) when the caller hands it a derivative probe, which the sups
over a smooth psi do (`log_ratio`, the conjugate, the two-exponent cell
moves), and by golden-section search otherwise: for psi that are extremal
or have a piecewise factor, for kernels and moment curves, and next to an
infeasible grid point.  `grid_golden_max` is a grid scan plus `cell_max`.
Newton never takes more evaluations than the golden search on the same
cells.

Sups over p scan u = 1/p and read psi there (`PsiFunction.log_u`), so no
scan turns u back into p for psi.  A reported exponent, and the exponents
handed to functions of p (kernels, moments), take a scan end as its exact
end exponent: `exponent` and `u_axis`.  `log_ratio` is the objective
u ln x - ln psi(1/u).
"""

import math
from functools import lru_cache

import numpy as np

from .psi import scan_bound

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


def cell_max(f, xs, i, cap=math.inf, tol=1e-13, df=None, fs=None):
    """Max of f on the two grid cells around xs[i], clipped at cap.

    Refines by `newton_max` from xs[i] when the caller hands a derivative
    probe `df` (f is smooth) and both neighbouring grid values `fs` are
    finite, by golden_max otherwise: a cell next to an infeasible grid point
    reaches past the support, where a derivative means nothing.  Returns
    (x, f(x)), or None when the clipped cells are empty.
    """
    j, k = max(i - 1, 0), min(i + 1, xs.size - 1)
    lo, hi = float(xs[j]), float(xs[k])
    if cap < hi:
        hi = cap
    if hi <= lo:
        return None
    if df is not None and fs[j] > -np.inf and fs[k] > -np.inf:
        return newton_max(df, lo, min(float(xs[i]), hi), hi, tol)
    return golden_max(f, lo, hi, tol=tol)


def _golden_evals(width, tol):
    """Objective evaluations golden_max makes on a bracket of this width."""
    if width <= tol:
        return 2
    evals = 4
    while width > tol and evals < _MAX_ITER + 4:
        width *= _INV_PHI
        evals += 1
    return evals


def newton_max(df, lo, x, hi, tol):
    """Safeguarded Newton on f' for the max of a smooth f on [lo, hi], from x.

    df(x) returns (f(x), f'(x), f''(x)).  The sign of f' at x picks the side
    of x that holds the max, and every later point shrinks that bracket by
    the sign of f' there.

    A Newton step past an end of [lo, hi] not yet evaluated tries that end,
    where a clipped cell or an edge can hold the sup: f' >= 0 at hi (<= 0
    at lo) ends the search there.  Otherwise the step is retaken as a
    bisection, since Newton from an end near a support edge mistakes huge
    curvature for convergence.  Any other step that leaves the bracket, or
    one taken where f'' >= 0, becomes a bisection.  So does every step once
    another Newton step could leave too few evaluations to finish by
    bisection within golden_max's count on [lo, hi]: no refinement costs
    more than the golden search it replaces.

    Stops once a Newton step or the bracket is below tol, and at once when
    f(x) = -inf, where f' picks no side.  Returns (x_best, f_best) over every
    point evaluated.
    """
    budget = _golden_evals(hi - lo, tol)
    fx, d1, d2 = df(x)
    best_x, best_f = x, fx
    if d1 == 0 or fx == -math.inf:
        return best_x, best_f
    a, b = (x, hi) if d1 > 0 else (lo, x)
    tried = (x,)
    evals = 1
    while b - a > tol:
        step = -d1 / d2 if d2 < 0 else math.nan
        if abs(step) <= tol:
            break
        bisections = math.ceil(math.log2((b - a) / tol))
        if not a < x + step < b:
            end = b if x + step >= b else a if x + step <= a else None  # None: NaN
            if end in (lo, hi) and end not in tried and evals + 1 + bisections <= budget:
                tried += (end,)
                fe, e1, _ = df(end)
                evals += 1
                if fe >= best_f:
                    best_x, best_f = end, fe
                if fe > -math.inf and (e1 >= 0 if end == b else e1 <= 0):
                    break
                continue
            step = 0.5 * (a + b) - x
        elif evals + 1 + bisections > budget:
            step = 0.5 * (a + b) - x
        x += step
        fx, d1, d2 = df(x)
        evals += 1
        if fx >= best_f:  # on a tie the later iterate is nearer the root
            best_x, best_f = x, fx
        if d1 > 0:
            a = x
        elif d1 < 0:
            b = x
        else:
            break
    return best_x, best_f


def grid_golden_max(xs, fs, f, refine=True, tol=1e-12, df=None):
    """Maximize an objective given by its values `fs` on the sorted grid `xs`.

    Takes the best grid point, then refines it with the scalar objective `f`
    on the two grid cells around it (`cell_max`: by Newton on the derivative
    probe `df` of a smooth objective, by golden section otherwise).  Returns
    (x_best, f_best); f_best is -inf when the objective is -inf everywhere.
    """
    i = int(np.argmax(fs))
    best_x, best_f = float(xs[i]), float(fs[i])
    if not np.isfinite(best_f) or not refine:
        return best_x, best_f
    tol *= max(1.0, float(xs[-1] - xs[0]))
    cell = cell_max(f, xs, i, tol=tol, df=df, fs=fs)
    if cell is not None and cell[1] > best_f:
        best_x, best_f = cell
    return best_x, best_f


def u_axis(p_hi, p_lo, n):
    """linspace(n) in u = 1/p on [1/p_hi, 1/p_lo], and the exponents on it.

    The exponents are 1/u with the exact end exponents, for functions of p
    such as kernels and moments; psi itself is read at u.
    """
    us = np.linspace(1.0 / p_hi, 1.0 / p_lo, n)
    ps = 1.0 / us
    ps[0], ps[-1] = p_hi, p_lo
    return us, ps


def exponent(u, p_hi, p_lo):
    """The exponent of scan point u on [1/p_hi, 1/p_lo]: 1/u, or an exact end."""
    if u == 1.0 / p_hi:
        return float(p_hi)
    return float(p_lo) if u == 1.0 / p_lo else 1.0 / u


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def psi_table(psi, s, n):
    """The scan grid of psi for a sup over p in [s, min(b, P_MAX)], and ln psi on it.

    The grid is in u = 1/p on [1/min(b, P_MAX), 1/s]: linspace(n), 128
    geometric points (dense toward p -> infinity), for a finite b 64 more
    points geometric toward p -> b, and psi's breakpoints when it is
    piecewise log-linear.  Returns (us, ln psi(1/us)); both arrays are
    read-only, since every caller shares them.
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
    logs = psi.log_u(us)
    us.flags.writeable = False
    logs.flags.writeable = False
    return us, logs


def log_ratio(psi, log_x, s, n):
    """u ln x - ln psi(1/u) for a sup over p in [s, min(b, P_MAX)].

    Returns psi_table(psi, s, n)'s grid, the objective on it, the objective
    as a scalar probe of u and, for a smooth psi, its derivative probe u ->
    (f, f', f'') for `grid_golden_max` (None otherwise).  u > 0 and
    ln psi > -inf, so no value is NaN; -inf marks an infeasible point.
    """
    us, logs = psi_table(psi, s, n)

    def probe(u):  # golden section needs the value only
        return u * log_x - psi.log_u_jet(u)[0]

    def newton(u):
        g, d1, d2 = psi.log_u_jet(u)
        return u * log_x - g, log_x - d1, -d2

    return us, us * log_x - logs, probe, newton if psi.smooth else None
