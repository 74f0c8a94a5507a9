"""Covariance bounds for random variables measurable w.r.t. mixing fields.

Classical bounds (Davydov, Ibragimov, Hoelder), their Grand Lebesgue Space
lifts via fundamental functions, closed-form family bounds, the two-exponent
factorization analysis, and a generic kernel engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optimize import (
    cell_max,
    exponent,
    golden_max,
    grid_golden_max,
    log_ratio,
    newton_max,
    u_axis,
)
from .errors import DomainError
from .fundamental import finite_support_constant, fundamental, fundamental_truncated, g_prime
from .psi import conjugate_exponent, product_zeta, scan_bound

#: margin keeping two-exponent grids strictly inside the open region 1/p + 1/q < 1
_T_MARGIN = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """A covariance bound with its provenance; infeasible bounds are +inf."""

    value: float
    theorem: str
    feasible: bool = True
    p: float | None = None
    q: float | None = None
    notes: tuple = ()


def _infeasible(theorem, reason):
    return BoundReport(math.inf, theorem, feasible=False, notes=(reason,))


def _check_unit(x, name):
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1]")


# ---------------------------------------------------------------------------
# classical bounds


def davydov_bound(alpha, p, q, norm_p, norm_q):
    """12 alpha^(1 - 1/p - 1/q) |xi|_p |eta|_q, needs 1/p + 1/q < 1."""
    _check_unit(alpha, "alpha")
    if p < 1 or q < 1:
        raise DomainError("exponents must lie in [1, infinity]")
    if 1.0 / p + 1.0 / q >= 1.0:
        return _infeasible("davydov", "1/p + 1/q < 1 violated")
    expo = 1.0 - 1.0 / p - 1.0 / q
    return BoundReport(12.0 * alpha**expo * norm_p * norm_q, "davydov", p=p, q=q)


def ibragimov_bound(beta, p, norm_p, norm_q):
    """2 beta^(1/p) |xi|_p |eta|_q on the conjugate line q = p/(p-1).

    p = +inf is the sentinel for the (q = 1, factor beta^0 = 1) end.
    """
    _check_unit(beta, "beta")
    if p <= 1 and not math.isinf(p):
        raise DomainError("ibragimov bound needs p > 1 (or the p = +inf sentinel)")
    factor = 1.0 if math.isinf(p) else beta ** (1.0 / p)
    q = float(conjugate_exponent(np.array([p]))[0])
    return BoundReport(2.0 * factor * norm_p * norm_q, "ibragimov", p=p, q=q)


def holder_bound(norm_p, norm_q):
    """The trivial estimate 2 |xi|_p |eta|_q on conjugate exponents."""
    return BoundReport(2.0 * norm_p * norm_q, "holder")


# ---------------------------------------------------------------------------
# strong mixing (GLS)


def gls_strong_bound(psi, nu, beta, norm_xi, norm_eta, n_grid=2048, refine=True):
    """2 ||xi|| ||eta|| / phi[G zeta[psi,nu]](1/beta).

    The trace carries the p minimizing beta^(1/p) zeta(p).
    """
    _check_unit(beta, "beta")
    if beta == 0.0:
        return BoundReport(0.0, "gls_strong", notes=("beta=0: independent fields",))
    zeta = product_zeta(psi, nu)
    try:
        fund = fundamental(zeta, 1.0 / beta, n_grid=n_grid, refine=refine)
    except DomainError:
        return _infeasible("gls_strong", "product generating function nowhere finite")
    value = 2.0 * norm_xi * norm_eta / fund.value
    return BoundReport(value, "gls_strong", p=fund.argmax_p)


def gls_dual_pair_bound(psi, beta, norm_xi, norm_eta):
    """Dual-pair specialization: 2 [phi[G psi](beta^(-1/2))]^(-2) ||xi|| ||eta||."""
    _check_unit(beta, "beta")
    if beta == 0.0:
        return BoundReport(0.0, "gls_dual_pair")
    phi = fundamental(psi, beta**-0.5).value
    return BoundReport(2.0 * norm_xi * norm_eta / phi**2, "gls_dual_pair")


# ---------------------------------------------------------------------------
# uniform mixing (GLS): the two-exponent sup and its two routes


@dataclass(frozen=True)
class UniformPhi:
    alpha: float
    beta: float
    value: float
    p: float
    q: float


def _running_max(c):
    """Prefix maximum of c and the first index attaining it."""
    run = np.maximum.accumulate(c)
    new = np.concatenate([[True], c[1:] > run[:-1]])
    return run, np.maximum.accumulate(np.where(new, np.arange(c.size), 0))


def _triangle_grid_best(us, a, ws, c):
    """Best grid point (i, j, a[i] + c[j]) with us[i] + ws[j] <= 1 - margin.

    The admissible j for one i are a prefix of the sorted ws, so the best of
    a row is a[i] plus a running maximum of c.  This is the masked n x n
    argmax (same value, same first-occurrence index) in O(n log n); the value
    is -inf when no grid point is admissible.
    """
    edge = 1.0 - _T_MARGIN
    n = ws.size
    # k[i] = number of admissible j.  searchsorted on edge - us can round the
    # other way than the sum us[i] + ws[j] that defines admissibility, so
    # step k until the sum agrees on both sides of the cut.
    k = np.searchsorted(ws, edge - us, side="right")
    while True:
        up = (k < n) & (us + ws[np.minimum(k, n - 1)] <= edge)
        down = (k > 0) & (us + ws[np.maximum(k - 1, 0)] > edge)
        if not (up.any() or down.any()):
            break
        k = k + up - down
    run, arg = _running_max(c)
    last = np.maximum(k - 1, 0)
    rows = np.where(k > 0, a + run[last], -np.inf)
    i = int(np.argmax(rows))
    return i, int(arg[last[i]]), float(rows[i])


def _cell_polish(along_u, along_w, us, ws, i, j, best, cap):
    """Moves of the grid point (us[i], ws[j]) inside its own cells, first in
    u and then in w, keeping u + w <= cap.

    Where the objective is not concave its grid-best can hold a local sup
    that no other candidate reaches.  along_u(w) returns `cell_max`'s
    (f, df, fs) for the u-move at fixed w: the objective along u, its
    derivative probe or None, and grid values along us whose finiteness
    admits Newton.  along_w(u) does the same for the w-move at fixed u.
    Returns (u, w, value).
    """
    u, w = float(us[i]), float(ws[j])
    f, df, fs = along_u(w)
    cell = cell_max(f, us, i, cap - w, df=df, fs=fs)
    if cell is not None and cell[1] > best:
        u, best = cell
    f, df, fs = along_w(u)
    cell = cell_max(f, ws, j, cap - u, df=df, fs=fs)
    if cell is not None and cell[1] > best:
        w, best = cell
    return u, w, best


def _edge_max(f, u_lo, w_lo, da=None, dc=None):
    """Max of f(u, w) along the edge u + w = 1 - margin.

    Coordinate moves stall there, so the triangle sups search it explicitly.
    With the derivative probes da, dc of both parts of a separable
    f(u, w) = a(u) + c(w) the edge objective f(t) = a(t) + c(e - t) is
    smooth, with f' = a'(t) - c'(e - t) and f'' = a''(t) + c''(e - t), and
    refines by `newton_max` from the middle of the edge; otherwise, or when
    that middle is infeasible, by golden section.  Returns (u, w, value), or
    None when the edge misses [u_lo, 1] x [w_lo, 1].
    """
    edge = 1.0 - _T_MARGIN
    lo, hi = max(u_lo, edge - 1.0), min(1.0, edge - w_lo)
    if hi <= lo:
        return None
    if da is not None and dc is not None:
        def df(t):
            fa, a1, a2 = da(t)
            fc, c1, c2 = dc(edge - t)
            return fa + fc, a1 - c1, a2 + c2

        t, ft = newton_max(df, lo, 0.5 * (lo + hi), hi, 1e-13)
        if ft > -math.inf:
            return t, edge - t, ft
    t, ft = golden_max(lambda t: f(t, edge - t), lo, hi, tol=1e-13)
    return t, edge - t, ft


def _shifted(df, shift):
    """The derivative probe df with its value raised by a constant; None stays None."""
    if df is None:
        return None

    def probe(t):
        v, d1, d2 = df(t)
        return v + shift, d1, d2

    return probe


def phi_uniform(psi, nu, alpha, beta, n_grid=512):
    """sup over 1/p + 1/q < 1 of alpha^(1/p) beta^(1/q) / (psi(p) nu(q)).

    In (u, w) = (1/p, 1/q) the log objective a(u) + c(w) is separable; a and
    c are `log_ratio` on one cached table per function, which the nested
    route shares.  The grid-best over the triangle comes from a running
    maximum of c.  Refinement keeps the best of: the grid-best polished
    inside its own cells; the product point of the two 1-D sups, when it
    lies in the triangle (the factorization); and a search along the edge
    u + w = 1.  Each of these refines by Newton where its objective is
    smooth (a move in u over a smooth psi, in w over a smooth nu, the edge
    when both are) and by golden section otherwise.  For concave a and c,
    which every built-in kind gives except a tabulated psi with
    non-monotone knot slopes, the sup is one of the last two; for a
    tabulated psi the knots on the grid put the grid-best on the right
    local maximum.  Every candidate is an evaluated admissible point, so
    the value is a lower estimate for any psi.  Returns a UniformPhi (value
    0.0 when the admissible region carries no finite point).
    """
    _check_unit(alpha, "alpha")
    _check_unit(beta, "beta")
    la = math.log(alpha) if alpha > 0 else -math.inf
    lb = math.log(beta) if beta > 0 else -math.inf
    us, a, a_at, a_newton = log_ratio(psi, la, 1.0, n_grid)
    ws, c, c_at, c_newton = log_ratio(nu, lb, 1.0, n_grid)
    i, j, best = _triangle_grid_best(us, a, ws, c)
    if best == -math.inf:
        return UniformPhi(alpha, beta, 0.0, math.nan, math.nan)

    def f(s, t):
        return a_at(s) + c_at(t)

    def along_u(w):
        cw = c_at(w)
        return (lambda t: a_at(t) + cw), _shifted(a_newton, cw), a

    def along_w(u):
        au = a_at(u)
        return (lambda t: au + c_at(t)), _shifted(c_newton, au), c

    edge = 1.0 - _T_MARGIN
    u, w, best = _cell_polish(along_u, along_w, us, ws, i, j, best, edge)
    u1, fu = grid_golden_max(us, a, a_at, tol=1e-13, df=a_newton)
    w1, fw = grid_golden_max(ws, c, c_at, tol=1e-13, df=c_newton)
    if u1 + w1 <= edge and fu + fw > best:
        u, w, best = u1, w1, fu + fw
    on_edge = _edge_max(f, float(us[0]), float(ws[0]), a_newton, c_newton)
    if on_edge is not None and on_edge[2] > best:
        u, w, best = on_edge
    return UniformPhi(alpha, beta, float(math.exp(best)),
                      exponent(u, scan_bound(psi), 1.0), exponent(w, scan_bound(nu), 1.0))


def phi_uniform_theta(psi, nu, alpha, n_grid=512):
    """The same sup via the nested route: sup_p alpha^(1/p)/theta(p) with
    theta(p) = psi(p) / (sup over q >= p' of alpha^(1/q)/nu(q)).

    In u = 1/p the inner sup runs over w = 1/q in [1/b_nu, 1 - u].  It comes
    from the running maximum of c(w) = w ln alpha - ln nu(1/w) on nu's
    table, which phi_uniform at the same n_grid reads too, and c(1 - u).
    The outer scan uses that grid value; its golden-section probes also
    refine the inner sup on the cells around the running argmax, clipped at
    1 - u: by Newton for a smooth nu, by golden section otherwise
    (`cell_max`).
    """
    _check_unit(alpha, "alpha")
    if alpha == 0.0:
        return 0.0
    la = math.log(alpha)
    ws, c, c_at, c_newton = log_ratio(nu, la, 1.0, n_grid)
    w_lo = float(ws[0])
    run, arg = _running_max(c)

    def objective(u):
        lp = psi.log_u_jet(u)[0]
        top = 1.0 - u
        if math.isinf(lp) or top < w_lo:
            return -math.inf
        k = int(np.searchsorted(ws, top, side="right")) - 1
        inner = max(float(run[k]), c_at(top))
        cell = (cell_max(c_at, ws, int(arg[k]), top, df=c_newton, fs=c)
                if math.isfinite(run[k]) else None)
        if cell is not None:
            inner = max(inner, cell[1])
        return u * la - lp + inner

    us, _ = u_axis(scan_bound(psi), 1.0, n_grid)
    tops = 1.0 - us
    tops = tops[tops >= w_lo]  # a prefix, since us increases
    inner = np.full(n_grid, -np.inf)
    inner[: tops.size] = np.maximum(
        run[np.searchsorted(ws, tops, side="right") - 1], tops * la - nu.log_u(tops)
    )
    fs = us * la - psi.log_u(us) + inner
    _, best = grid_golden_max(us, fs, objective, tol=1e-12)
    return 0.0 if best == -math.inf else float(math.exp(best))


def gls_uniform_bound(psi, nu, alpha, norm_xi, norm_eta, n_grid=512):
    """12 alpha ||xi|| ||eta|| / Phi[psi,nu](alpha, alpha).

    Phi is computed by the 2-D triangle sup and the nested 1-D route; both
    are lower estimates of the same sup, so the larger one is used and a
    note records any disagreement beyond 1e-6 relative.
    """
    _check_unit(alpha, "alpha")
    if alpha == 0.0:
        return BoundReport(0.0, "gls_uniform", notes=("alpha=0: independent fields",))
    two_d = phi_uniform(psi, nu, alpha, alpha, n_grid=n_grid)
    theta = phi_uniform_theta(psi, nu, alpha, n_grid=n_grid)
    notes = [f"phi_2d={two_d.value!r}", f"phi_theta={theta!r}"]
    phi = max(two_d.value, theta)
    if phi > 0 and abs(theta - two_d.value) > 1e-6 * phi:
        notes.append("route_mismatch")
    if phi == 0.0:
        return _infeasible("gls_uniform", "admissible exponent region empty")
    value = 12.0 * alpha * norm_xi * norm_eta / phi
    return BoundReport(value, "gls_uniform", p=two_d.p, q=two_d.q, notes=tuple(notes))


def gls_identical_bound(psi, alpha, norm_xi, norm_eta, n_grid=2048, refine=True):
    """12 alpha ||xi|| ||eta|| / phi^2[G psi](alpha) for a shared psi."""
    _check_unit(alpha, "alpha")
    if alpha == 0.0:
        return BoundReport(0.0, "gls_identical", notes=("alpha=0: independent fields",))
    try:
        fund = fundamental(psi, alpha, n_grid=n_grid, refine=refine)
    except DomainError:
        return _infeasible("gls_identical", "psi nowhere finite")
    value = 12.0 * alpha * norm_xi * norm_eta / fund.value**2
    return BoundReport(value, "gls_identical", p=fund.argmax_p, q=fund.argmax_p)


# ---------------------------------------------------------------------------
# closed-form example bounds


def _check_small_alpha(alpha):
    _check_unit(alpha, "alpha")
    if alpha > 1.0 / math.e:
        raise DomainError(
            "closed-form bounds need alpha <= 1/e; use the plain Hoelder bound"
        )
    if alpha == 0.0:
        raise DomainError("closed-form bounds need alpha > 0")


def example_power_pair(m, n, alpha, norm_xi=1.0, norm_eta=1.0):
    """12 e^(1/m+1/n) m^(1/m) n^(1/n) alpha |ln alpha|^(1/m+1/n) norms."""
    _check_small_alpha(alpha)
    if m <= 0 or n <= 0:
        raise DomainError("power family parameters must be positive")
    ln = abs(math.log(alpha))
    value = (
        12.0
        * math.e ** (1.0 / m + 1.0 / n)
        * m ** (1.0 / m)
        * n ** (1.0 / n)
        * alpha
        * ln ** (1.0 / m + 1.0 / n)
        * norm_xi
        * norm_eta
    )
    return BoundReport(value, "example_5_1")


def example_finite_pair(b1, beta1, b2, beta2, alpha, norm_xi=1.0, norm_eta=1.0):
    """12 K(b1,beta1) K(b2,beta2) alpha^(1-1/b1-1/b2) |ln alpha|^(beta1+beta2).

    Carries the finite-support constant caveat: only the alpha-shape is
    normative (see FiniteClosedForm).
    """
    _check_small_alpha(alpha)
    if 1.0 / b1 + 1.0 / b2 >= 1.0:
        return _infeasible("example_5_2", "1/b1 + 1/b2 < 1 violated")
    ln = abs(math.log(alpha))
    value = (
        12.0
        * finite_support_constant(b1, beta1)
        * finite_support_constant(b2, beta2)
        * alpha ** (1.0 - 1.0 / b1 - 1.0 / b2)
        * ln ** (beta1 + beta2)
        * norm_xi
        * norm_eta
    )
    return BoundReport(value, "example_5_2", notes=("reference_constant_K",))


def example_mixed_pair(m, b, beta, alpha, norm_xi=1.0, norm_eta=1.0):
    """12 (em)^(1/m) K(b,beta) alpha^(1-1/b) |ln alpha|^(beta+1/m) norms."""
    _check_small_alpha(alpha)
    ln = abs(math.log(alpha))
    value = (
        12.0
        * (math.e * m) ** (1.0 / m)
        * finite_support_constant(b, beta)
        * alpha ** (1.0 - 1.0 / b)
        * ln ** (beta + 1.0 / m)
        * norm_xi
        * norm_eta
    )
    return BoundReport(value, "example_5_3", notes=("reference_constant_K",))


def example_combined(psi, q0, alpha, norm_gls, norm_q0):
    """12 alpha^(1-1/q0) ||xi||Gpsi |eta|_{q0} / phi_{q0'}[G psi](alpha).

    One variable in a GLS, the other in a plain L_{q0}; the sup is truncated
    at the conjugate exponent q0' = q0/(q0-1), which must lie inside the
    support of psi.
    """
    _check_small_alpha(alpha)
    if q0 <= 1:
        raise DomainError("combined bound needs q0 > 1")
    q0p = q0 / (q0 - 1.0)
    if q0p >= psi.b:
        return _infeasible("example_5_4", "conjugate exponent exceeds the support")
    phi = fundamental_truncated(psi, q0p, alpha)
    value = 12.0 * alpha ** (1.0 - 1.0 / q0) * norm_gls * norm_q0 / phi.value
    return BoundReport(value, "example_5_4", p=phi.argmax_p, q=q0)


# ---------------------------------------------------------------------------
# factorization of the two-exponent sup


@dataclass(frozen=True)
class FactorizationResult:
    lhs: float  # sup over the open triangle
    rhs: float  # product of the two one-dimensional sups
    holds: bool
    case: str  # infinite/infinite, finite/finite, mixed
    alpha_threshold: float | None
    beta_threshold: float | None
    reason: str | None = None


def _threshold(psi, x):
    try:
        return math.exp(-g_prime(psi, x))
    except (DomainError, OverflowError):
        return 0.0


def factorization_check(psi, nu, alpha, beta, n_grid=512):
    """Compare the triangle sup with the product of one-dimensional sups.

    The one-sided inequality (triangle <= product) always holds; equality is
    expected below the case-dependent thresholds computed from g'.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise DomainError("factorization check needs alpha, beta in (0, 1)")
    lhs = phi_uniform(psi, nu, alpha, beta, n_grid=n_grid).value
    rhs = fundamental(psi, alpha).value * fundamental(nu, beta).value
    holds = rhs > 0 and abs(lhs - rhs) <= 1e-6 * rhs
    inf_psi = math.isinf(psi.b)
    inf_nu = math.isinf(nu.b)
    reason = None
    if inf_psi and inf_nu:
        case = "infinite/infinite"
        a0 = _threshold(psi, 1.0 / math.e)
        b0 = _threshold(nu, 1.0 / math.e)
    elif not inf_psi and not inf_nu:
        case = "finite/finite"
        if 1.0 / psi.b + 1.0 / nu.b >= 1.0:
            return FactorizationResult(
                lhs, rhs, False, case, None, None, reason="supports too small"
            )
        a0 = _threshold(psi, (psi.b + 1.0) / (3.0 * psi.b))
        b0 = _threshold(nu, (nu.b + 1.0) / (3.0 * nu.b))
    else:
        case = "mixed"
        unb, bdd = (psi, nu) if inf_psi else (nu, psi)
        t_unb = _threshold(unb, (bdd.b - 1.0) / (3.0 * bdd.b))
        t_bdd = _threshold(bdd, (bdd.b + 1.0) / (2.0 * bdd.b))
        a0, b0 = (t_unb, t_bdd) if inf_psi else (t_bdd, t_unb)
    return FactorizationResult(lhs, rhs, holds, case, a0, b0, reason=reason)


# ---------------------------------------------------------------------------
# generic kernel engine


def generic_bound(h, psi, nu, domain, norm_xi, norm_eta, n_grid=512):
    """inf over the domain of h(p,q) psi(p) nu(q), times the two GLS norms.

    `h` must accept ndarray exponent pairs and return non-negative values.
    `domain` is "T" (open triangle 1/p+1/q<1), "R" (full quadrant),
    "conjugate" (the line q = p/(p-1)), or ((p_lo, p_hi), (q_lo, q_hi)).

    The inf becomes a sup of -ln(h psi nu) in (u, w) = (1/p, 1/q), with
    w = 1 - u on the conjugate line.  psi and nu are evaluated once on each
    grid axis and h on the whole grid.  The best grid point is refined by
    golden-section moves inside its own cells, then along each coordinate in
    turn (h need not be separable): it rounds until a round moves neither
    coordinate, at most three.  On "T" a golden-section search along the
    edge u + w = 1, where coordinate moves stall, competes with them.  Probes
    evaluate psi and nu by `log_u_jet` and h on one-element arrays.  Every
    search is golden section, since a kernel carries no derivative.
    """
    if domain == "conjugate":
        def objective(us, ps):
            hv = h(ps, conjugate_exponent(ps))
            return _neg_log_kernel(hv, psi.log_u(us), nu.log_u(1.0 - us))

        p_top = scan_bound(psi)
        us, ps = u_axis(p_top, 1.0, n_grid)
        u, best = grid_golden_max(
            us, objective(us, ps),
            lambda t: float(objective(np.array([t]), np.array([1.0 / t]))[0]),
        )
        if best == -math.inf:
            return _infeasible("generic", "empty domain")
        p = exponent(u, p_top, 1.0)
        return BoundReport(
            math.exp(-best) * norm_xi * norm_eta, "generic", p=p,
            q=float(conjugate_exponent(np.array([p]))[0]),
        )
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
    f = _neg_log_kernel(h(P, Q), psi.log_u(us)[:, None], nu.log_u(ws)[None, :])
    if tri:
        f[us[:, None] + ws[None, :] > 1.0 - _T_MARGIN] = -np.inf
    i, j = np.unravel_index(np.argmax(f), f.shape)
    best = f[i, j]
    if best == -math.inf:
        return _infeasible("generic", "empty domain")

    def objective(s, t):
        # _neg_log_kernel for one pair, in floats
        lk = psi.log_u_jet(s)[0] + nu.log_u_jet(t)[0]
        if lk == math.inf:
            return -math.inf
        hv = float(np.asarray(h(np.array([1.0 / s]), np.array([1.0 / t])), dtype=float)[0])
        if hv > 0:
            return -(math.log(hv) + lk)
        return math.inf if hv == 0 else -math.inf

    def along_u(w):
        return (lambda t: objective(t, w)), None, None

    def along_w(u):
        return (lambda t: objective(u, t)), None, None

    u, w, best = _cell_polish(along_u, along_w, us, ws, i, j, best,
                              1.0 - _T_MARGIN if tri else math.inf)
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
        if (u, w) == start:  # the next round would repeat this one exactly
            break
    edge = _edge_max(objective, u_rng[0], w_rng[0]) if tri else None
    if edge is not None and edge[2] > best:
        u, w, best = edge
    return BoundReport(
        math.exp(-best) * norm_xi * norm_eta, "generic",
        p=exponent(u, p_top, p_bot), q=exponent(w, q_top, q_bot),
    )


def _neg_log_kernel(hv, lp, lq):
    """-ln(h psi nu) from the kernel's values and ln psi, ln nu.

    hv has the full shape of the grid, and ln psi, ln nu broadcast to it.  A
    zero kernel at a feasible exponent pair maps to +inf (the bound is 0);
    an infinite generating factor maps to -inf (the pair is infeasible).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        # in place on ln h's new array, in the order of -(ln h + ln psi + ln nu)
        out = np.log(np.asarray(hv, dtype=float))
        out += lp
        out += lq
    np.negative(out, out=out)
    out[np.isnan(out)] = -np.inf
    return out
