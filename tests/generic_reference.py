"""Two references for generic_bound's search.

`generic_search` is generic_bound's search with its shortcuts taken out: the
kernel on the whole grid with the triangle masked by the sum u + w, where
generic_bound evaluates only the admissible row blocks; and -ln(h psi nu) in
its plain out-of-place form.  It refines by the same batched line search
(`zoom_max`) on the same points, in at most three coordinate rounds that stop
once a round raises the value by at most 4 ulp, as generic_bound's do, so a
test can check both shortcuts bit for bit.

`golden_search` is the scalar search generic_bound ran before: the same grid,
then golden-section moves that call the kernel on one-element arrays and read
psi through its jet.  A test holds generic_bound to never being looser than
it.

Like generic_bound both return the log of the inf and its exponents; they
reuse glscov's one-dimensional kernels, which other tests cover.
"""

import math

import numpy as np

from glscov._optimize import exponent, golden_max, u_axis, zoom_max
from glscov.bounds import _T_MARGIN
from glscov.psi import conjugate_exponent, scan_bound


def neg_log_kernel(hv, lp, lq):
    """-ln(h psi nu), broadcast; NaN (an infinite factor) maps to -inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -(np.log(np.asarray(hv, dtype=float)) + lp + lq)
    return np.where(np.isnan(out), -np.inf, out)


def _axes(psi, nu, domain, n_grid):
    if domain in ("T", "R"):
        p_top, q_top, p_bot, q_bot = scan_bound(psi), scan_bound(nu), 1.0, 1.0
    else:
        (p_lo, p_hi), (q_lo, q_hi) = domain
        p_top, q_top = min(p_hi, scan_bound(psi)), min(q_hi, scan_bound(nu))
        p_bot, q_bot = max(p_lo, 1.0), max(q_lo, 1.0)
    return (p_top, p_bot, q_top, q_bot), u_axis(p_top, p_bot, n_grid), u_axis(q_top, q_bot, n_grid)


def masked_grid_best(h, psi, nu, us, ps, ws, qs, tri):
    """(i, j, value): the first argmax of -ln(h psi nu) on the whole grid,
    with the points past the cut u + w <= 1 - margin masked when tri."""
    P, Q = np.broadcast_arrays(ps[:, None], qs[None, :])
    f = neg_log_kernel(h(P, Q), psi.log_u(us)[:, None], nu.log_u(ws)[None, :])
    if tri:
        f[us[:, None] + ws[None, :] > 1.0 - _T_MARGIN] = -np.inf
    i, j = np.unravel_index(np.argmax(f), f.shape)
    return int(i), int(j), f[i, j]


def _zoom_cell(F, xs, i, cap, tol=1e-13):
    lo = float(xs[max(i - 1, 0)])
    hi = min(float(xs[min(i + 1, xs.size - 1)]), cap)
    return zoom_max(F, lo, hi, tol) if hi > lo else None


def generic_search(h, psi, nu, domain, n_grid=512):
    """(sup of -ln(h psi nu), p, q) as generic_bound finds it, on the whole grid."""
    if domain == "conjugate":
        def line(us, ps):
            return neg_log_kernel(h(ps, conjugate_exponent(ps)), psi.log_u(us),
                                  nu.log_u(1.0 - us))

        p_top = scan_bound(psi)
        us, ps = u_axis(p_top, 1.0, n_grid)
        fs = line(us, ps)
        i = int(np.argmax(fs))
        u, best = float(us[i]), float(fs[i])
        cell = _zoom_cell(lambda ts: line(ts, 1.0 / ts), us, i, math.inf, tol=1e-12)
        if cell is not None and cell[1] > best:
            u, best = cell
        p = exponent(u, p_top, 1.0)
        return best, p, float(conjugate_exponent(np.array([p]))[0])
    tri = domain == "T"
    (p_top, p_bot, q_top, q_bot), (us, ps), (ws, qs) = _axes(psi, nu, domain, n_grid)
    u_rng, w_rng = (float(us[0]), float(us[-1])), (float(ws[0]), float(ws[-1]))
    i, j, best = masked_grid_best(h, psi, nu, us, ps, ws, qs, tri)

    def along_u(w):
        return lambda ts: neg_log_kernel(h(1.0 / ts, np.full(ts.shape, 1.0 / w)),
                                         psi.log_u(ts), nu.log_u(w))

    def along_w(u):
        return lambda ts: neg_log_kernel(h(np.full(ts.shape, 1.0 / u), 1.0 / ts),
                                         psi.log_u(u), nu.log_u(ts))

    cap = 1.0 - _T_MARGIN if tri else math.inf
    u, w = float(us[i]), float(ws[j])
    cell = _zoom_cell(along_u(w), us, i, cap - w)
    if cell is not None and cell[1] > best:
        u, best = cell
    cell = _zoom_cell(along_w(u), ws, j, cap - u)
    if cell is not None and cell[1] > best:
        w, best = cell
    for _ in range(3):
        start = best
        hi_u = min(u_rng[1], 1.0 - w - _T_MARGIN) if tri else u_rng[1]
        if hi_u > u_rng[0]:
            u2, fu = zoom_max(along_u(w), u_rng[0], hi_u, 1e-13)
            if fu > best:
                u, best = u2, fu
        hi_w = min(w_rng[1], 1.0 - u - _T_MARGIN) if tri else w_rng[1]
        if hi_w > w_rng[0]:
            w2, fw = zoom_max(along_w(u), w_rng[0], hi_w, 1e-13)
            if fw > best:
                w, best = w2, fw
        if best <= start + 4.0 * math.ulp(start):
            break
    edge = 1.0 - _T_MARGIN
    lo, hi = max(u_rng[0], edge - 1.0), min(1.0, edge - w_rng[0])
    if tri and hi > lo:
        t, ft = zoom_max(lambda ts: neg_log_kernel(h(1.0 / ts, 1.0 / (edge - ts)),
                                                   psi.log_u(ts), nu.log_u(edge - ts)),
                         lo, hi, 1e-13)
        if ft > best:
            u, w, best = t, edge - t, ft
    return best, exponent(u, p_top, p_bot), exponent(w, q_top, q_bot)


def _golden_cell(f, xs, i, cap, tol=1e-13):
    lo = float(xs[max(i - 1, 0)])
    hi = min(float(xs[min(i + 1, xs.size - 1)]), cap)
    return golden_max(f, lo, hi, tol=tol) if hi > lo else None


def golden_search(h, psi, nu, domain, n_grid=512):
    """(sup of -ln(h psi nu), p, q) by the earlier scalar golden-section search."""
    if domain == "conjugate":
        def line(us, ps):
            return neg_log_kernel(h(ps, conjugate_exponent(ps)), psi.log_u(us),
                                  nu.log_u(1.0 - us))

        p_top = scan_bound(psi)
        us, ps = u_axis(p_top, 1.0, n_grid)
        fs = line(us, ps)
        i = int(np.argmax(fs))
        u, best = float(us[i]), float(fs[i])
        cell = _golden_cell(lambda t: float(line(np.array([t]), np.array([1.0 / t]))[0]),
                            us, i, math.inf, tol=1e-12)
        if cell is not None and cell[1] > best:
            u, best = cell
        p = exponent(u, p_top, 1.0)
        return best, p, float(conjugate_exponent(np.array([p]))[0])
    tri = domain == "T"
    (p_top, p_bot, q_top, q_bot), (us, ps), (ws, qs) = _axes(psi, nu, domain, n_grid)
    u_rng, w_rng = (float(us[0]), float(us[-1])), (float(ws[0]), float(ws[-1]))
    i, j, best = masked_grid_best(h, psi, nu, us, ps, ws, qs, tri)

    def objective(s, t):
        lk = psi.log_u_jet(s)[0] + nu.log_u_jet(t)[0]
        if lk == math.inf:
            return -math.inf
        hv = float(np.asarray(h(np.array([1.0 / s]), np.array([1.0 / t])), dtype=float)[0])
        if hv > 0:
            return -(math.log(hv) + lk)
        return math.inf if hv == 0 else -math.inf

    cap = 1.0 - _T_MARGIN if tri else math.inf
    u, w = float(us[i]), float(ws[j])
    cell = _golden_cell(lambda t: objective(t, w), us, i, cap - w)
    if cell is not None and cell[1] > best:
        u, best = cell
    cell = _golden_cell(lambda t: objective(u, t), ws, j, cap - u)
    if cell is not None and cell[1] > best:
        w, best = cell
    for _ in range(3):
        start = (u, w)
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
        if (u, w) == start:
            break
    edge = 1.0 - _T_MARGIN
    lo, hi = max(u_rng[0], edge - 1.0), min(1.0, edge - w_rng[0])
    if tri and hi > lo:
        t, ft = golden_max(lambda t: objective(t, edge - t), lo, hi, tol=1e-13)
        if ft > best:
            u, w, best = t, edge - t, ft
    return best, exponent(u, p_top, p_bot), exponent(w, q_top, q_bot)
