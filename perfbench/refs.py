"""Independent reference values for the benchmark's output checks.

Nothing here calls glscov.  A generating function is described by the spec
the benchmark drew it from, and every sup is either a closed form or a dense
numpy grid on the family's explicit formula, zoomed onto the cell that
brackets the grid maximum.  All formulas work in u = 1/p, where the conjugate
exponent p' = p/(p-1) becomes 1 - u.
"""

from __future__ import annotations

import math

import numpy as np

_ZOOM_POINTS = 513
_ZOOM_ROUNDS = 6


# ---------------------------------------------------------------------------
# generating functions from their specs
#
# ("power", m)             psi(p) = p^(1/m)
# ("finite_support", b, beta)  psi(p) = (b - p)^(-beta) on [1, b)
# ("extremal", r)          psi = 1 on [1, r]
# ("tabulated", knots)     linear in (1/p, ln psi) through the knots, flat
#                          below the first knot, +inf beyond the last
# ("product", left, right) psi(p) = left(p) * right(p')
# ("dual", inner)          psi(p) = inner(p')


def support(spec):
    """Support bound b of a spec (math.inf when unbounded)."""
    kind = spec[0]
    if kind in ("power", "dual"):
        return math.inf
    if kind in ("finite_support", "extremal"):
        return spec[1]
    if kind == "tabulated":
        return max(p for p, _ in spec[1])
    if kind == "product":
        return support(spec[1])
    raise ValueError(f"unknown spec {kind!r}")


def log_psi_u(spec, u):
    """ln psi(1/u) for u in [0, 1]; +inf outside the support."""
    u = np.asarray(u, dtype=float)
    kind = spec[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "power":
            return -np.log(u) / spec[1]
        if kind == "finite_support":
            b, beta = spec[1], spec[2]
            gap = b - 1.0 / u
            out = -beta * np.log(np.where(gap > 0, gap, 1.0))
            return np.where(gap > 0, out, np.inf)
        if kind == "extremal":
            return np.where(u * spec[1] >= 1.0, 0.0, np.inf)
        if kind == "tabulated":
            knots = sorted(spec[1], reverse=True)
            us = np.array([1.0 / p for p, _ in knots])
            logs = np.log(np.array([v for _, v in knots]))
            out = np.interp(u, us, logs)
            return np.where(u * knots[0][0] >= 1.0, out, np.inf)
        if kind == "product":
            return log_psi_u(spec[1], u) + log_psi_u(spec[2], 1.0 - u)
        if kind == "dual":
            return log_psi_u(spec[1], 1.0 - u)
    raise ValueError(f"unknown spec {kind!r}")


# ---------------------------------------------------------------------------
# dense-grid maximization


def _abscissae(lo, hi):
    """Linear and geometric grids on [lo, hi], densest toward both ends."""
    span = hi - lo
    ramp = np.logspace(-15, 0, 512)
    parts = [np.linspace(lo, hi, 4097), lo + span * ramp, hi - span * ramp]
    if lo > 0:
        parts.append(np.geomspace(lo, hi, 2049))
    xs = np.concatenate(parts)
    return np.unique(xs[(xs >= lo) & (xs <= hi)])


def dense_max(objective, lo, hi, m):
    """Column-wise max over x in [lo, hi] of m objectives.

    `objective` maps an (k, m) array of abscissae to (k, m) values, -inf (or
    nan) marking infeasible points.  Returns (max values, argmax), each of
    shape (m,); a column infeasible everywhere gets -inf.
    """
    xs = _abscissae(lo, hi)
    cols = np.arange(m)

    def evaluate(grid):
        with np.errstate(all="ignore"):
            vals = np.asarray(objective(grid), dtype=float)
        return np.where(np.isnan(vals), -np.inf, vals)

    vals = evaluate(np.broadcast_to(xs[:, None], (xs.size, m)))
    i = np.argmax(vals, axis=0)
    best, arg = vals[i, cols], xs[i]
    a = xs[np.maximum(i - 1, 0)]
    b = xs[np.minimum(i + 1, xs.size - 1)]
    t = np.linspace(0.0, 1.0, _ZOOM_POINTS)[:, None]
    for _ in range(_ZOOM_ROUNDS):
        grid = a + (b - a) * t
        vals = evaluate(grid)
        j = np.argmax(vals, axis=0)
        val = vals[j, cols]
        better = val > best
        best = np.where(better, val, best)
        arg = np.where(better, grid[j, cols], arg)
        a = grid[np.maximum(j - 1, 0), cols]
        b = grid[np.minimum(j + 1, _ZOOM_POINTS - 1), cols]
    return best, arg


# ---------------------------------------------------------------------------
# fundamental functions, conjugates and the two-exponent sup


def log_fundamental(spec, deltas, p_cap, s=1.0):
    """ln sup over p in [s, min(b, p_cap)] of delta^(1/p)/psi(p), per delta."""
    ld = np.log(np.asarray(deltas, dtype=float))
    u_lo = 1.0 / min(support(spec), p_cap)
    best, _ = dense_max(
        lambda u: u * ld[None, :] - log_psi_u(spec, u), u_lo, 1.0 / s, ld.size
    )
    return best


def log_fundamental_power(m, deltas):
    """Closed form ln phi for psi = p^(1/m): (e m)^(-1/m) |ln delta|^(-1/m)."""
    ld = np.log(np.asarray(deltas, dtype=float))
    return -(1.0 + math.log(m) + np.log(-ld)) / m


def conjugate(spec, xs, p_cap):
    """Young-Fenchel v*(x) = sup over p in [1, min(b, p_cap)] of p (x - ln psi(p))."""
    xs = np.asarray(xs, dtype=float)
    u_lo = 1.0 / min(support(spec), p_cap)
    best, _ = dense_max(
        lambda u: (xs[None, :] - log_psi_u(spec, u)) / u, u_lo, 1.0, xs.size
    )
    return best


def log_two_exponent_sup(spec_a, spec_b, alpha, beta, p_cap):
    """ln sup over 1/p + 1/q < 1 of alpha^(1/p) beta^(1/q) / (psi(p) nu(q)).

    The sup over the open triangle is the max over its closure, u + w <= 1.
    The best q for each p comes from a prefix maximum over a dense w grid;
    the two one-dimensional maximizers (when jointly admissible) and a
    zoomed search along the edge u + w = 1 sharpen the grid value.
    """
    la, lb = math.log(alpha), math.log(beta)
    u_lo = 1.0 / min(support(spec_a), p_cap)
    w_lo = 1.0 / min(support(spec_b), p_cap)
    if u_lo + w_lo > 1.0:
        return -math.inf

    def fa(u):
        return u * la - log_psi_u(spec_a, u)

    def fb(w):
        return w * lb - log_psi_u(spec_b, w)

    us, ws = _abscissae(u_lo, 1.0), _abscissae(w_lo, 1.0)
    with np.errstate(all="ignore"):
        a_vals, b_vals = fa(us), fb(ws)
    a_vals = np.where(np.isnan(a_vals), -np.inf, a_vals)
    b_best = np.maximum.accumulate(np.where(np.isnan(b_vals), -np.inf, b_vals))
    k = np.searchsorted(ws, 1.0 - us, side="right") - 1
    ok = k >= 0
    best = float(np.max(a_vals[ok] + b_best[k[ok]])) if np.any(ok) else -math.inf
    (va,), (ua,) = dense_max(fa, u_lo, 1.0, 1)
    (vb,), (wb,) = dense_max(fb, w_lo, 1.0, 1)
    if ua + wb <= 1.0:
        best = max(best, va + vb)
    lo, hi = u_lo, 1.0 - w_lo
    if hi > lo:
        (ve,), _ = dense_max(lambda t: fa(t) + fb(1.0 - t), lo, hi, 1)
        best = max(best, ve)
    return best


# ---------------------------------------------------------------------------
# finite Markov chains


def stationary(transition):
    """Stationary law from the linear system pi (P - I) = 0, sum(pi) = 1."""
    n = transition.shape[0]
    a = transition.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(a, rhs)


def natural_knots(transition, values, p_grid):
    """(p, |gamma(0) - E gamma(0)|_p) under the stationary law."""
    pi = stationary(transition)
    x = np.abs(values - pi @ values)
    return tuple((p, float((pi @ x**p) ** (1.0 / p))) for p in p_grid)


def sigma_n(transition, values, n):
    """Exact Var(n^(-1/2) sum gamma(i)) of the stationary chain."""
    pi = stationary(transition)
    c = values - pi @ values
    total, pk_c = pi @ (c * c), c.copy()
    for k in range(1, n):
        pk_c = transition @ pk_c
        total += 2.0 * (1.0 - k / n) * (pi @ (c * pk_c))
    return float(total)


def symmetric_two_state(q, lags):
    """alpha(k) = |1-2q|^k / 4 and beta(k) = |1-2q|^k / 2 for k = 1..lags."""
    rho = abs(1.0 - 2.0 * q) ** np.arange(1, lags + 1)
    return rho / 4.0, rho / 2.0
