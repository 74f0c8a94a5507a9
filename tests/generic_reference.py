"""generic_bound's search with its coordinate rounds always run three times.

`generic_bound` stops its rounds once a round moves neither coordinate: the
search is deterministic, so the next round would repeat that one exactly.
`generic_search` below is the same search without that stop, and with
-ln(h psi nu) in its plain out-of-place form, so a test can check both
shortcuts bit for bit.  Like `generic_bound` it returns the log of the inf
and its exponents; it reuses glscov's one-dimensional kernels, which other
tests cover.
"""

import math

import numpy as np

from glscov._optimize import exponent, golden_max, grid_golden_max, u_axis
from glscov.bounds import _T_MARGIN
from glscov.psi import conjugate_exponent, scan_bound


def neg_log_kernel(hv, lp, lq):
    """-ln(h psi nu), broadcast; NaN (an infinite factor) maps to -inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -(np.log(np.asarray(hv, dtype=float)) + lp + lq)
    return np.where(np.isnan(out), -np.inf, out)


def _cell(f, xs, i, cap):
    lo = float(xs[max(i - 1, 0)])
    hi = min(float(xs[min(i + 1, xs.size - 1)]), cap)
    return golden_max(f, lo, hi, tol=1e-13) if hi > lo else None


def _edge(f, u_lo, w_lo):
    edge = 1.0 - _T_MARGIN
    lo, hi = max(u_lo, edge - 1.0), min(1.0, edge - w_lo)
    if hi <= lo:
        return None
    t, ft = golden_max(lambda t: f(t, edge - t), lo, hi, tol=1e-13)
    return t, edge - t, ft


def generic_search(h, psi, nu, domain, n_grid=512):
    """(sup of -ln(h psi nu), p, q) as generic_bound finds it, three rounds."""
    if domain == "conjugate":
        def line(us, ps):
            return neg_log_kernel(h(ps, conjugate_exponent(ps)), psi.log_u(us),
                                  nu.log_u(1.0 - us))

        p_top = scan_bound(psi)
        us, ps = u_axis(p_top, 1.0, n_grid)
        u, best = grid_golden_max(
            us, line(us, ps), lambda t: float(line(np.array([t]), np.array([1.0 / t]))[0])
        )
        p = exponent(u, p_top, 1.0)
        return best, p, float(conjugate_exponent(np.array([p]))[0])
    if domain in ("T", "R"):
        p_top, q_top, p_bot, q_bot = scan_bound(psi), scan_bound(nu), 1.0, 1.0
    else:
        (p_lo, p_hi), (q_lo, q_hi) = domain
        p_top, q_top = min(p_hi, scan_bound(psi)), min(q_hi, scan_bound(nu))
        p_bot, q_bot = max(p_lo, 1.0), max(q_lo, 1.0)
    tri = domain == "T"
    us, ps = u_axis(p_top, p_bot, n_grid)
    ws, qs = u_axis(q_top, q_bot, n_grid)
    u_rng, w_rng = (float(us[0]), float(us[-1])), (float(ws[0]), float(ws[-1]))
    P, Q = np.broadcast_arrays(ps[:, None], qs[None, :])
    f = neg_log_kernel(h(P, Q), psi.log_u(us)[:, None], nu.log_u(ws)[None, :])
    if tri:
        f[us[:, None] + ws[None, :] > 1.0 - _T_MARGIN] = -np.inf
    i, j = np.unravel_index(np.argmax(f), f.shape)
    best = f[i, j]

    def objective(s, t):
        lk = psi.log_u_scalar(s) + nu.log_u_scalar(t)
        if lk == math.inf:
            return -math.inf
        hv = float(np.asarray(h(np.array([1.0 / s]), np.array([1.0 / t])), dtype=float)[0])
        if hv > 0:
            return -(math.log(hv) + lk)
        return math.inf if hv == 0 else -math.inf

    cap = 1.0 - _T_MARGIN if tri else math.inf
    u, w = float(us[i]), float(ws[j])
    cell = _cell(lambda t: objective(t, w), us, i, cap - w)
    if cell is not None and cell[1] > best:
        u, best = cell
    cell = _cell(lambda t: objective(u, t), ws, j, cap - u)
    if cell is not None and cell[1] > best:
        w, best = cell
    for _ in range(3):
        hi_u = min(u_rng[1], 1.0 - w - _T_MARGIN) if tri else u_rng[1]
        if hi_u > u_rng[0]:
            u2, fu = golden_max(lambda t: objective(t, w), u_rng[0], hi_u, tol=1e-13)
            if fu > best:
                u, best = u2, fu
        hi_w = min(w_rng[1], 1.0 - u - _T_MARGIN) if tri else w_rng[1]
        if hi_w > w_rng[0]:
            w2, fw = golden_max(lambda t: objective(u, t), w_rng[0], hi_w, tol=1e-13)
            if fw > best:
                w, best = w2, fw
    edge = _edge(objective, u_rng[0], w_rng[0]) if tri else None
    if edge is not None and edge[2] > best:
        u, w, best = edge
    return best, exponent(u, p_top, p_bot), exponent(w, q_top, q_bot)
