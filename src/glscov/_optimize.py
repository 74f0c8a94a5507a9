"""One-dimensional maximization: a grid scan, then a refinement of its best point.

Objectives are evaluated in log space by the callers; a value of -inf marks an
infeasible point and is simply never selected.  `psi_table` is the scan grid
of a 1-D sup over p, with ln psi on it.  A piecewise log-linear psi's is its
breakpoints and the scan ends alone: a 1-D objective linear or monotone on
each cell between them has its sup at one of them, the grid maximum, and
its caller skips the refinement.  Any other psi reads the dense `_u_grid`
of its support, its kinks added: one shared array for an unbounded support,
and one shared unit grid scaled onto [1/b, 1] for a finite one.  A truncated
sup over [s, b) reads the [1, b) table cut at u = 1/s, so it builds no grid.

Every other psi refines by safeguarded Newton (`newton_max`, `cell_max`)
on its jet `log_u_jet`, exact on every cell, next to an infeasible grid
point too: Newton closes its bracket at a point past the support.  It never
takes more evaluations than golden section (`golden_max`) on the same cells.
`grid_golden_max` is a grid scan plus `cell_max` on each concave piece
between kinks (`piece_maxima`): the route of every sup over p and of Phi's
edge.  An objective read on whole arrays, such as a user kernel or a moment
curve, refines by `zoom_max` (`zoom_cells`) until its bracket is below tol
or flat: a few array calls in place of one per probe.

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

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_LOG_PHI = -math.log(_INV_PHI)

#: golden-section steps at most; 200 steps shrink any bracket below 1e-40
_MAX_ITER = 200

#: points of each zoom_max pass, and passes at most (each shrinks the bracket
#: 16-fold, so 64 passes shrink any bracket below 1e-77 of its width)
_ZOOM_POINTS = 33
_ZOOM_PASSES = 64
_ZOOM_STEPS = np.linspace(0.0, 1.0, _ZOOM_POINTS)

#: scan tables kept at once, and as many u grids: a smooth psi's table holds
#: ln psi on a shared u grid (about 18 kB each), a piecewise psi's about one
#: point per knot.  The size caps what the caches hold however many
#: generating functions a caller keeps alive.  One psi uses at most two
#: tables: on [1, b) for fundamental, the conjugate, both routes of a
#: two-exponent sup and y, and its cut at 1/s for a truncated sup on [s, b),
#: which builds no grid.  The u grids are one for every unbounded support
#: and one per finite support bound, each scaling one unit grid.
TABLE_CACHE_SIZE = 8

#: elements at most in one array of a batched pass (8 MB of floats): sups
#: over many arguments and stacked mixing reductions run in chunks of rows or
#: lags below it
CHUNK_ELEMENTS = 1 << 20

#: how far a refinement stays inside a piece: at a rounded, mirrored kink a jet reads either slope
_KINK_GAP = 8.0 * math.ulp(1.0)


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


def zoom_max(F, lo, hi, tol):
    """Maximization of an array objective F on [lo, hi] by nested grids.

    Evaluates F on _ZOOM_POINTS points of [lo, hi], ends included, and keeps
    the two cells around the best; repeats until that bracket is below tol or
    flat (`_flat`), or at once when every point is infeasible (-inf).  Each
    pass shrinks the bracket 16-fold in one call of F.  Returns (x_best,
    f_best) over every point evaluated, like golden_max.
    """
    best_x, best_f = lo, -math.inf
    last = _ZOOM_POINTS - 1
    for _ in range(_ZOOM_PASSES):
        xs = lo + (hi - lo) * _ZOOM_STEPS  # linspace, without its call overhead
        xs[-1] = hi
        fs = F(xs)
        k = int(np.argmax(fs))
        if fs[k] > best_f:
            best_x, best_f = float(xs[k]), float(fs[k])
        lo, hi = float(xs[max(k - 1, 0)]), float(xs[min(k + 1, last)])
        if hi - lo <= tol or fs[k] == -math.inf or _flat(fs, k):
            break
    return best_x, best_f


def _flat(fs, k):
    """Whether no point of the cells around the best point k of a pass can
    beat fs[k] by 4 ulp, were f concave: below fs[k] plus its larger drop to
    a neighbour, or at an end below the secant through the next two points.
    A -inf or NaN neighbour certifies nothing."""
    if 0 < k < fs.size - 1:  # the neighbours a, b
        a, top, b = fs[k - 1 : k + 2].tolist()
        rise = top - min(a, b)
    else:  # the next two points inward, a then b
        top, a, b = (fs[:3] if k == 0 else fs[:-4:-1]).tolist()
        rise = 2.0 * a - b - top
    return a > -math.inf and b > -math.inf and rise <= 4.0 * math.ulp(top)


def _cell(xs, i, cap=math.inf, floor=-math.inf):
    """The two grid cells around xs[i], clipped to [floor, cap]: (lo, hi), or
    None when they are empty."""
    lo, hi = max(float(xs[max(i - 1, 0)]), floor), min(float(xs[min(i + 1, xs.size - 1)]), cap)
    return (lo, hi) if hi > lo else None


def cell_max(df, xs, i, cap=math.inf, tol=1e-13, floor=-math.inf):
    """`newton_max` from xs[i] of a smooth objective, given by its derivative
    probe df, on `_cell`(xs, i, cap, floor), next to an infeasible grid point
    too: (x, f(x)), or None when the cells are empty."""
    cell = _cell(xs, i, cap, floor)
    return cell and newton_max(df, cell[0], min(max(float(xs[i]), cell[0]), cell[1]), cell[1], tol)


def piece_maxima(df, xs, fs, cuts, tol=1e-13):
    """[(x, f(x))]: `cell_max` from the best grid point of each piece of an
    objective, values fs on the sorted grid xs and derivative probe df, split
    at its kinks xs[cuts] (ascending indices).  Concave on a piece, it peaks
    in the cells around that point, which stop _KINK_GAP short of a kink."""
    ends, out = [0, *cuts, xs.size - 1], []
    for k0, k1 in zip(ends, ends[1:]):
        i = k0 + int(fs[k0 : k1 + 1].argmax())
        floor = float(xs[k0]) + _KINK_GAP if k0 else -math.inf
        cap = float(xs[k1]) - _KINK_GAP if k1 < ends[-1] else math.inf
        cell = fs[i] > -math.inf and cell_max(df, xs, i, cap, tol, floor)
        out += [cell] if cell else []
    return out


def zoom_cells(F, xs, i, cap=math.inf, tol=1e-13):
    """`zoom_max` of the array objective F on `_cell`(xs, i, cap), or None."""
    cell = _cell(xs, i, cap)
    return cell and zoom_max(F, *cell, tol)


def _golden_evals(width, tol):
    """Objective evaluations golden_max makes on a bracket of this width.

    golden_max shrinks the width by INV_PHI until it is <= tol, rounding at
    each step, so near a step boundary it may take one step more than the
    exact count ceil(ln(width/tol) / ln phi).  Within 1e-9 of a boundary the
    count is rounded down, so it never exceeds golden_max's.
    """
    if width <= tol:
        return 2
    steps = math.log(width / tol) / _LOG_PHI - 1e-9
    return 4 + math.ceil(min(steps, _MAX_ITER))


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

    A later point where f = -inf lies past the support: it closes the
    bracket on its side of the best point, and the next step bisects.  Stops
    once a Newton step or the bracket is below tol, and at once when f = -inf
    at the start, where f' picks no side.  Returns (x_best, f_best) over
    every point evaluated.
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
        if fx == -math.inf:  # past the support: close the bracket here, then bisect
            a, b, d2 = (a, x, 0.0) if x > best_x else (x, b, 0.0)
        elif d1 > 0:
            a = x
        elif d1 < 0:
            b = x
        else:
            break
    return best_x, best_f


def grid_golden_max(xs, fs, df, refine=True, tol=1e-12, cuts=()):
    """Maximize a smooth objective given by its values `fs` on the sorted grid `xs`.

    Takes the best grid point, then refines by `cell_max` on the derivative
    probe `df` the two cells around it, or each piece between the kinks
    xs[cuts] (`piece_maxima`).  Returns (x_best, f_best); f_best is -inf
    when the objective is -inf everywhere.
    """
    i = int(fs.argmax())  # the method: np.argmax's dispatch costs more than the scan
    best = float(xs[i]), float(fs[i])
    if refine and math.isfinite(best[1]):
        cells = piece_maxima(df, xs, fs, cuts, tol) if len(cuts) else [cell_max(df, xs, i, tol=tol)]
        for cell in cells:
            if cell and cell[1] > best[1]:
                best = cell
    return best


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
def _unit_grid(n):
    """linspace(n) on [0, 1] and 63 points geometric toward 0, read-only:
    the shape of every finite support's dense scan grid."""
    # without logspace's end: linspace holds 1
    t = np.unique(np.concatenate([np.linspace(0.0, 1.0, n), np.logspace(-12, 0, 64)[:-1]]))
    t.flags.writeable = False
    return t


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _u_grid(lo, n, finite_b):
    """The dense scan grid in u on [lo, 1], read-only and shared by every
    psi that scans it.

    Unbounded support: linspace(n) and 128 geometric points, dense toward
    p -> infinity.  A finite support bound: lo + (1 - lo) `_unit_grid`(n),
    whose 63 geometric points are dense toward p -> b, one unit grid for
    every b.  Both start at lo and end at 1 exactly, strictly increasing.
    """
    if not finite_b:
        us = np.unique(np.concatenate([np.linspace(lo, 1.0, n), np.geomspace(lo, 1.0, 128)]))
    else:
        us = lo + (1.0 - lo) * _unit_grid(n)
        us[-1] = 1.0  # lo + (1 - lo) can round off 1
        # next to b = 1 the scaled steps can round to nothing
        us = us[np.diff(us, prepend=-np.inf) > 0.0]
    us.flags.writeable = False
    return us


def _frozen(us, logs, cuts):
    """(us, logs, cuts), all read-only, since every caller shares them."""
    us.flags.writeable = logs.flags.writeable = cuts.flags.writeable = False
    return us, logs, cuts


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def psi_table(psi, s, n):
    """The scan grid of a 1-D sup over p in [s, min(b, P_MAX)], and ln psi on it.

    The grid is in u = 1/p on [lo, 1/s], lo = 1/min(b, P_MAX).  For s = 1
    a piecewise log-linear psi scans its breakpoints there and both ends,
    about one point per knot: every 1-D objective is linear or monotone in u
    between them, so its grid maximum is its sup.  Any other psi scans
    `_u_grid(lo, n, b < inf)`, one array for every such psi with that
    support bound, and psi's `kinks` inside it.  For s > 1 the table is
    psi's own [1, b) table cut to its points below 1/s, plus the point 1/s
    with ln psi read there: no grid is built for it.  It is empty when
    1/s < lo.  Returns (us, ln psi(1/us), cuts), read-only: cuts index the
    kinks inside (us[0], us[-1]).
    """
    lo = 1.0 / scan_bound(psi)
    if s > 1.0:
        us, logs, cuts = psi_table(psi, 1.0, n)
        if 1.0 / s < lo:
            return _frozen(us[:0], logs[:0], cuts[:0])
        k, hi = int(np.searchsorted(us, 1.0 / s)), np.array([1.0 / s])
        return _frozen(np.append(us[:k], hi), np.append(logs[:k], psi.log_u(hi)), cuts[cuts < k])
    piecewise = psi.breakpoints is not None  # then its kinks are its breakpoints
    kinks = psi.kinks
    kinks = kinks[(kinks > lo) & (kinks < 1.0)] if kinks.size else kinks  # no kink: no array call
    us = [lo, 1.0] if piecewise else _u_grid(lo, n, math.isfinite(psi.b))
    us = np.union1d(us, kinks) if piecewise or kinks.size else us
    return _frozen(us, psi.log_u(us), us.searchsorted(kinks))


def log_ratio(psi, log_x, table):
    """u ln x - ln psi(1/u) on a table (us, ln psi(1/us), cuts) of psi.

    Returns the grid, the objective on it, its derivative probe u -> (f, f',
    f'') for `grid_golden_max`, read from psi's jet, and the cuts.  u > 0 and
    ln psi > -inf, so no value is NaN; -inf marks an infeasible point.
    """
    us, logs, cuts = table

    def newton(u):
        g, d1, d2 = psi.log_u_jet(u)
        return u * log_x - g, log_x - d1, -d2

    return us, us * log_x - logs, newton, cuts
