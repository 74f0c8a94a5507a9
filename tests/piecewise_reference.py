"""Brute-force sups of piecewise log-linear generating functions.

ln psi(1/u) of a tabulated psi is linear in u between its knots and flat from
the first knot to u = 1; ln zeta(1/u) of zeta(p) = psi(p) nu(p/(p-1)) adds
ln nu at w = 1 - u.  An objective that is linear or monotone in u on each cell
between these vertices attains its sup over a scan range [lo, hi] at a vertex
inside it or at lo or hi, so the references below take the max over exactly
those points; `dense_two_exponent_sup`, for a pair with a smooth function,
scans a dense grid on each axis and along the edge, with the kinks on it.
The references never call glscov; `piecewise_case` builds the glscov
function they are compared with.
"""

import math

import numpy as np
from hypothesis import strategies as st

from glscov import moments_from_samples, natural_from_moments, product_zeta, tabulated

#: knot slopes in (1/p, ln psi) of both signs
KNOTS = [(1.0, 1.0), (1.5, 2.5), (2.0, 1.1), (3.0, 4.0), (5.0, 1.6), (8.0, 30.0)]
KNOTS_2 = [(1.0, 2.0), (1.2, 0.5), (2.5, 6.0), (4.0, 0.8), (12.0, 50.0)]

#: knot slopes that are not monotone: ln psi(1/u) is not convex, so a sup
#: over u can have several local maxima
NON_CONVEX = [(1.0, 1.0), (1.5, 3.0), (2.0, 1.2), (3.0, 4.0), (5.0, 1.5), (8.0, 30.0)]
NON_CONVEX_2 = KNOTS_2


def vertices(knots):
    """[(u, ln psi(1/u))] of a tabulated psi, ascending in u, ending at u = 1."""
    out = [(1.0 / p, math.log(v)) for p, v in sorted(knots, reverse=True)]
    if out[-1][0] < 1.0:
        out.append((1.0, out[-1][1]))
    return out


def product_vertices(left, right):
    """Vertices of ln psi(1/u) + ln nu(1/(1 - u)) from the factors' vertices.

    A vertex of nu at w becomes one at u = 1 - w and carries nu's knot value
    itself, so the closed support end u = 1 - 1/b_nu is never lost to the
    rounding of 1 - u.
    """
    lu, lv = zip(*left)
    ru, rv = zip(*right)
    lo, hi = max(lu[0], 1.0 - ru[-1]), min(lu[-1], 1.0 - ru[0])
    out = [(u, a + float(np.interp(1.0 - u, ru, rv))) for u, a in left if lo <= u <= hi]
    for w, c in right:
        u = 1.0 - w
        if lo <= u <= hi:
            out.append((u, float(np.interp(u, lu, lv)) + c))
    return sorted(out)


def brute_sup(verts, objective, lo, hi):
    """max of objective(u, ln psi(1/u)) over the vertices in [lo, hi] and at lo, hi."""
    us = [u for u, _ in verts]
    logs = [a for _, a in verts]
    cands = [(u, a) for u, a in verts if lo <= u <= hi]
    cands += [(x, float(np.interp(x, us, logs))) for x in (lo, hi) if us[0] <= x <= us[-1]]
    return max(objective(u, a) for u, a in cands)


def dense_max(verts, objective, lo, hi, n=20001):
    """max of the objective on n evenly spaced u in [lo, hi] inside the support."""
    us = [u for u, _ in verts]
    grid = np.linspace(max(lo, us[0]), min(hi, us[-1]), n)
    return float(np.max(objective(grid, np.interp(grid, us, [a for _, a in verts]))))


def log_fundamental(verts, delta, s=1.0):
    """ln sup over p in [s, b] of delta^(1/p) / psi(p)."""
    ld = math.log(delta)
    return brute_sup(verts, lambda u, a: u * ld - a, verts[0][0], 1.0 / s)


def conjugate(verts, x):
    """sup over p in [1, b] of p (x - ln psi(p)), in u = 1/p."""
    return brute_sup(verts, lambda u, a: (x - a) / u, verts[0][0], 1.0)


def piecewise_case(name):
    """A piecewise psi of the named kind and its vertices from its knots."""
    if name == "tabulated":
        return tabulated(KNOTS), vertices(KNOTS)
    if name == "empirical":
        x = np.random.default_rng(7).laplace(size=500)
        grid = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)
        psi = natural_from_moments(moments_from_samples(x, grid, seed=7))
        return psi, vertices(psi.params["points"])
    verts = product_vertices(vertices(KNOTS), vertices(KNOTS_2))
    return product_zeta(tabulated(KNOTS), tabulated(KNOTS_2)), verts


@st.composite
def knot_sets(draw, max_knots=7):
    """Up to max_knots knots with random values, the last one at p = b >= 2.

    Random values give knot slopes of either sign.  Knots sit on multiples
    of 1/64: two knots a rounding error apart would make psi jump, which no
    generating function of a variable does.
    """
    b = draw(st.integers(128, 1280))
    inner = set(draw(st.lists(st.integers(64, b), max_size=max_knots - 1)))
    ps = sorted(k / 64.0 for k in inner | {b})
    vals = draw(st.lists(st.floats(0.05, 50.0), min_size=len(ps), max_size=len(ps)))
    return list(zip(ps, vals))


def two_exponent_sup(left, right, log_alpha, log_beta, edge):
    """ln sup over u + w <= edge of u ln alpha - ln psi(1/u) + w ln beta - ln nu(1/w).

    The objective is affine on each product of two cells, so its sup sits at
    a vertex of a cell's admissible part: two vertices (u, w) with
    u + w <= edge, or a point of the edge u + w = edge where u or w is a
    vertex.  -inf when no point is admissible.
    """
    lu, lv = zip(*left)
    ru, rv = zip(*right)

    def value(u, w):
        return (u * log_alpha - float(np.interp(u, lu, lv))
                + w * log_beta - float(np.interp(w, ru, rv)))

    cands = [(u, w) for u in lu for w in ru if u + w <= edge]
    cands += [(u, edge - u) for u in lu if ru[0] <= edge - u <= ru[-1]]
    cands += [(edge - w, w) for w in ru if lu[0] <= edge - w <= lu[-1]]
    return max((value(u, w) for u, w in cands), default=-math.inf)


def log_power(m):
    """ln psi(1/w) of psi(p) = p^(1/m), on arrays of w in (0, 1]."""
    return lambda w: -np.log(w) / m


def log_finite_support(b, beta):
    """ln psi(1/w) of psi(p) = (b - p)^(-beta) on [1, b), +inf for w <= 1/b."""
    def g(w):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = b - 1.0 / w
            return np.where(d > 0.0, -beta * np.log(d), np.inf)

    return g


def log_dual_power(m):
    """ln psi(1/w) of the dual of power(m), psi(p) = (p/(p-1))^(1/m), on
    arrays of w in [0, 1]: +inf at w = 1."""
    def g(w):
        with np.errstate(divide="ignore"):
            return -np.log(1.0 - w) / m

    return g


def kink_aware_max(objective, log_psi, lo, hi, kinks, n=20001):
    """max of objective(u, ln psi(1/u)) over n evenly spaced u in [lo, hi],
    the kinks inside and both ends, where log_psi(u) = ln psi(1/u) on arrays
    is +inf outside the support: -inf where psi is nowhere finite.

    A lower estimate of a sup whose objective is smooth between the kinks,
    however steeply it rises into one of them."""
    us = np.union1d(np.linspace(lo, hi, n), [k for k in kinks if lo < k < hi])
    with np.errstate(divide="ignore", invalid="ignore"):
        values = objective(us, log_psi(us))
    return float(np.max(np.where(np.isnan(values), -np.inf, values)))


def log_table(verts):
    """ln psi(1/u) of a tabulated psi from its vertices, on arrays of u; +inf
    outside [first vertex, 1]."""
    us, logs = (np.array(x) for x in zip(*verts))
    return lambda u: np.where((u >= us[0]) & (u <= us[-1]), np.interp(u, us, logs), np.inf)


def dense_two_exponent_sup(log_psi, u_lo, u_kinks, log_nu, w_lo, log_alpha, log_beta, edge,
                           n=20001):
    """ln sup over u + w <= edge of u ln alpha - ln psi(1/u) + w ln beta - ln nu(1/w),
    u in [u_lo, 1] and w in [w_lo, 1], where log_psi(u) = ln psi(1/u) and
    log_nu(w) = ln nu(1/w) on arrays, +inf outside the supports.

    A lower estimate: n dense u and the kinks u_kinks of psi, each paired
    with the best of n dense w admissible with it, and n dense points of the
    edge u + w = edge with the kinks on it.  -inf when no point is
    admissible.
    """
    def axis(lo, extra):
        xs = np.concatenate([np.linspace(lo, 1.0, n), np.geomspace(lo, 1.0, n // 4), extra])
        return np.unique(xs[(xs >= lo) & (xs <= 1.0)])

    us, ws = axis(u_lo, u_kinks), axis(w_lo, [])
    lo, hi = max(u_lo, edge - 1.0), edge - w_lo
    kinks = np.asarray(u_kinks, dtype=float)
    ts = np.concatenate([np.linspace(lo, hi, n), kinks[(kinks > lo) & (kinks < hi)]])
    with np.errstate(divide="ignore", invalid="ignore"):  # ln 0 = -inf: outside a support
        a = us * log_alpha - log_psi(us)
        run = np.maximum.accumulate(ws * log_beta - log_nu(ws))
        on_edge = ts * log_alpha - log_psi(ts) + (edge - ts) * log_beta - log_nu(edge - ts)
    k = np.searchsorted(ws, edge - us, side="right") - 1
    best = float(np.max(np.where(k >= 0, a + run[np.maximum(k, 0)], -np.inf)))
    if hi > lo:
        best = max(best, float(np.max(on_edge)))
    return best
