"""Brute-force sups of piecewise log-linear generating functions.

ln psi(1/u) of a tabulated psi is linear in u between its knots and flat from
the first knot to u = 1; ln zeta(1/u) of zeta(p) = psi(p) nu(p/(p-1)) adds
ln nu at w = 1 - u.  An objective that is linear or monotone in u on each cell
between these vertices attains its sup over a scan range [lo, hi] at a vertex
inside it or at lo or hi, so the references below take the max over exactly
those points.  The references never call glscov; `piecewise_case` builds the
glscov function they are compared with.
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
def knot_sets(draw):
    """Up to seven knots with random values, the last one at p = b >= 2.

    Random values give knot slopes of either sign.  Knots sit on multiples
    of 1/64: two knots a rounding error apart would make psi jump, which no
    generating function of a variable does.
    """
    b = draw(st.integers(128, 1280))
    ps = sorted(k / 64.0 for k in set(draw(st.lists(st.integers(64, b), max_size=6))) | {b})
    vals = draw(st.lists(st.floats(0.05, 50.0), min_size=len(ps), max_size=len(ps)))
    return list(zip(ps, vals))
