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
    zoom_max,
)
from .errors import DomainError
from .fundamental import finite_support_constant, fundamental, fundamental_truncated, g_prime
from .psi import conjugate_exponent, product_zeta, scan_bound

#: margin keeping two-exponent grids strictly inside the open region 1/p + 1/q < 1
_T_MARGIN = 1e-9

#: row blocks of generic_bound's kernel grid: more blocks hug the admissible
#: staircase closer, but each is one more kernel call
_GRID_BLOCKS = 4


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
    q = 1.0 if math.isinf(p) else p / (p - 1.0)
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
    if math.isinf(1.0 / beta):  # a subnormal beta: 1/beta overflows before any sup
        return _infeasible("gls_strong", "1/beta overflows to +inf")
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
    return BoundReport(2.0 * norm_xi * norm_eta / phi / phi, "gls_dual_pair")  # phi^2 can overflow


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


def _triangle_counts(us, ws):
    """k[i], the number of ws[j] with us[i] + ws[j] <= 1 - margin, for sorted us, ws.

    The admissible j for one i are a prefix of ws, and k does not increase
    with i.  searchsorted on edge - us can round the other way than the sum
    us[i] + ws[j] that defines admissibility, so k is stepped until the sum
    agrees on both sides of the cut.
    """
    edge = 1.0 - _T_MARGIN
    n = ws.size
    k = np.searchsorted(ws, edge - us, side="right")
    while True:
        up = (k < n) & (us + ws[np.minimum(k, n - 1)] <= edge)
        down = (k > 0) & (us + ws[np.maximum(k - 1, 0)] > edge)
        if not (up.any() or down.any()):
            return k
        k = k + up - down


def _triangle_grid_best(us, a, ws, c):
    """Best grid point (i, j, a[i] + c[j]) with us[i] + ws[j] <= 1 - margin.

    The best of a row is a[i] plus a running maximum of c over its
    admissible prefix (`_triangle_counts`).  This is the masked n x n argmax
    (same value, same first-occurrence index) in O(n log n); the value is
    -inf when no grid point is admissible.
    """
    k = _triangle_counts(us, ws)
    run, arg = _running_max(c)
    last = np.maximum(k - 1, 0)
    rows = np.where(k > 0, a + run[last], -np.inf)
    i = int(np.argmax(rows))
    return i, int(arg[last[i]]), float(rows[i])


def _cell_polish(move_u, move_w, u, w, best):
    """Moves of the grid-best point (u, w) inside its own cells, first in u
    and then in w.

    Where the objective is not concave its grid-best can hold a local sup
    that no other candidate reaches.  move_u(w) returns the best (u, value)
    of the u-move at fixed w, or None; move_w(u) does the same for w.
    Returns (u, w, value).
    """
    cell = move_u(w)
    if cell is not None and cell[1] > best:
        u, best = cell
    cell = move_w(u)
    if cell is not None and cell[1] > best:
        w, best = cell
    return u, w, best


def _edge_max(f, u_lo, w_lo, da=None, dc=None):
    """Max of f(u, w) along the edge u + w = 1 - margin.

    Coordinate moves stall there, so the triangle sups search it explicitly.
    With the derivative probes da, dc of both parts of a separable
    f(u, w) = a(u) + c(w) the edge objective f(t) = a(t) + c(e - t) has
    f' = a'(t) - c'(e - t) and f'' = a''(t) + c''(e - t), exact on every
    cell, and refines by `newton_max` from the middle of the edge; an
    infeasible middle by golden section.  Returns (u, w, value), or None
    when the edge misses [u_lo, 1] x [w_lo, 1].
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


def _separable_move(psi, xs, k, fs, at, df, shift, cap):
    """The move of at(t) + shift on the cells around the grid-best xs[k],
    clipped at cap, for a separable objective: (t, value) or None.

    at is the part of the objective over psi, fs its grid values and df its
    derivative probe.  For a piecewise psi at is linear between grid
    points, so the max is at a grid point or at the clip point.  The grid
    points were rivals of the grid-best at its other coordinate, so the
    clip point is the one point evaluated.  Any other psi moves by
    `cell_max`.
    """
    if psi.breakpoints is not None:
        return (cap, at(cap) + shift) if xs[k] < cap < xs[min(k + 1, xs.size - 1)] else None
    return cell_max(lambda t: at(t) + shift, xs, k, cap, df=_shifted(df, shift), fs=fs)


def phi_uniform(psi, nu, alpha, beta, n_grid=512):
    """sup over 1/p + 1/q < 1 of alpha^(1/p) beta^(1/q) / (psi(p) nu(q)).

    In (u, w) = (1/p, 1/q) the log objective a(u) + c(w) is separable; a and
    c are `log_ratio` on one cached table per function, which the nested
    route shares.  The grid-best over the triangle comes from a running
    maximum of c.  Refinement keeps the best of: the grid-best moved inside
    its own cells; the product point of the two 1-D sups, when it lies in
    the triangle (the factorization); and the sup along the edge u + w = 1.
    Along a piecewise psi's coordinate the objective is linear between grid
    points: its move evaluates the clip point alone, and its 1-D sup is the
    grid maximum.  On a pair of piecewise psi the edge sup is the best edge
    vertex (u at a breakpoint of psi, or w at one of nu), all evaluated as
    one array.  Every other search is Newton on the exact jets.  For concave
    a and c, which every built-in kind gives except a tabulated psi with
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
    edge = 1.0 - _T_MARGIN
    u, w, best = _cell_polish(
        lambda w: _separable_move(psi, us, i, a, a_at, a_newton, c_at(w), edge - w),
        lambda u: _separable_move(nu, ws, j, c, c_at, c_newton, a_at(u), edge - u),
        float(us[i]), float(ws[j]), best,
    )
    u1, fu = grid_golden_max(us, a, a_at, refine=psi.breakpoints is None, tol=1e-13, df=a_newton)
    w1, fw = grid_golden_max(ws, c, c_at, refine=nu.breakpoints is None, tol=1e-13, df=c_newton)
    if u1 + w1 <= edge and fu + fw > best:
        u, w, best = u1, w1, fu + fw
    if psi.breakpoints is None or nu.breakpoints is None:
        on_edge = _edge_max(lambda s, t: a_at(s) + c_at(t), float(us[0]), float(ws[0]),
                            a_newton, c_newton)
    else:  # linear between the edge's vertices: its ends, u at a breakpoint of psi, w at one of nu
        lo, hi = max(float(us[0]), edge - 1.0), min(1.0, edge - float(ws[0]))
        ts = np.clip(np.concatenate([[lo, hi], psi.breakpoints, edge - nu.breakpoints]), lo, hi)
        fs = ts * la - psi.log_u(ts) + (edge - ts) * lb - nu.log_u(edge - ts)
        k = int(np.argmax(fs))
        on_edge = float(ts[k]), edge - float(ts[k]), float(fs[k])
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
    1 - u, by `cell_max`.  For a piecewise nu, c is linear between grid
    points, so the running maximum and c(1 - u) are already exact and the
    inner sup is not refined.
    """
    _check_unit(alpha, "alpha")
    if alpha == 0.0:
        return 0.0
    la = math.log(alpha)
    ws, c, c_at, c_newton = log_ratio(nu, la, 1.0, n_grid)
    w_lo = float(ws[0])
    run, arg = _running_max(c)
    refine = nu.breakpoints is None

    def objective(u):
        lp = psi.log_u_jet(u)[0]
        top = 1.0 - u
        if math.isinf(lp) or top < w_lo:
            return -math.inf
        k = int(np.searchsorted(ws, top, side="right")) - 1
        inner = max(float(run[k]), c_at(top))
        cell = (cell_max(c_at, ws, int(arg[k]), top, df=c_newton, fs=c)
                if refine and math.isfinite(run[k]) else None)
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
    value = 12.0 * alpha * norm_xi * norm_eta / fund.value / fund.value  # phi^2 can overflow
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

    `h` must accept same-shape ndarray exponent pairs and return non-negative
    values.  `domain` is "T" (open triangle 1/p+1/q<1), "R" (full quadrant),
    "conjugate" (the line q = p/(p-1)), or ((p_lo, p_hi), (q_lo, q_hi)) with
    p_lo <= p_hi and q_lo <= q_hi; anything else raises DomainError.  A
    domain with no point where psi and nu are finite is reported infeasible.

    The inf becomes a sup of -ln(h psi nu) in (u, w) = (1/p, 1/q), with
    w = 1 - u on the conjugate line.  psi and nu are evaluated once on each
    grid axis and h on the grid's admissible points, in a few row blocks
    (`_kernel_grid_best`).  The best grid point is refined by moves inside
    its own cells, then along each coordinate in turn (h need not be
    separable): it rounds until a round moves neither coordinate, at most
    three.  On "T" a search along the edge u + w = 1, where coordinate moves
    stall, competes with them.  A kernel carries no derivative, and every
    search is `zoom_max`, which reads h on a whole array of points per pass.
    """
    if domain == "conjugate":
        def line(us, ps):
            return _neg_log_kernel(h(ps, conjugate_exponent(ps)), psi.log_u(us),
                                   nu.log_u(1.0 - us))

        p_top = scan_bound(psi)
        us, ps = u_axis(p_top, 1.0, n_grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            fs = line(us, ps)
            i = int(np.argmax(fs))
            u, best = float(us[i]), float(fs[i])
            cell = _zoom_cells(lambda ts: line(ts, 1.0 / ts), us, i, tol=1e-12)
        if best == -math.inf:
            return _infeasible("generic", "empty domain")
        if cell is not None and cell[1] > best:
            u, best = cell
        p = exponent(u, p_top, 1.0)
        return BoundReport(
            math.exp(-best) * norm_xi * norm_eta, "generic", p=p,
            q=float(conjugate_exponent(np.array([p]))[0]),
        )
    tri = domain == "T"
    if tri or domain == "R":
        p_top, q_top, p_bot, q_bot = scan_bound(psi), scan_bound(nu), 1.0, 1.0
    else:
        try:
            (p_lo, p_hi), (q_lo, q_hi) = ((float(lo), float(hi)) for lo, hi in domain)
        except (TypeError, ValueError):
            raise DomainError(f"unknown domain {domain!r}: use 'T', 'R', 'conjugate' "
                              "or ((p_lo, p_hi), (q_lo, q_hi))") from None
        if not (p_lo <= p_hi and q_lo <= q_hi):
            raise DomainError(f"rectangle domain {domain!r} needs p_lo <= p_hi and q_lo <= q_hi")
        p_top, q_top = min(p_hi, scan_bound(psi)), min(q_hi, scan_bound(nu))
        p_bot, q_bot = max(p_lo, 1.0), max(q_lo, 1.0)
        if p_top < p_bot or q_top < q_bot:  # the rectangle misses a support
            return _infeasible("generic", "empty domain")
    us, ps = u_axis(p_top, p_bot, n_grid)
    ws, qs = u_axis(q_top, q_bot, n_grid)
    u_rng, w_rng = (float(us[0]), float(us[-1])), (float(ws[0]), float(ws[-1]))
    counts = _triangle_counts(us, ws) if tri else np.full(n_grid, n_grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        i, j, best = _kernel_grid_best(h, ps, psi.log_u(us), qs, nu.log_u(ws), counts)
        if best == -math.inf:
            return _infeasible("generic", "empty domain")

        def along_u(w):  # the objective in u at fixed w, with ln nu(w) and 1/w hoisted
            q, lq = 1.0 / w, nu.log_u(w)
            return lambda ts: _neg_log_kernel(h(1.0 / ts, np.full(ts.shape, q)),
                                              psi.log_u(ts), lq)

        def along_w(u):
            p, lp = 1.0 / u, psi.log_u(u)
            return lambda ts: _neg_log_kernel(h(np.full(ts.shape, p), 1.0 / ts),
                                              lp, nu.log_u(ts))

        edge = 1.0 - _T_MARGIN
        cap = edge if tri else math.inf
        u, w, best = _cell_polish(
            lambda w: _zoom_cells(along_u(w), us, i, cap - w),
            lambda u: _zoom_cells(along_w(u), ws, j, cap - u),
            float(us[i]), float(ws[j]), best,
        )
        for _ in range(3):
            start = (u, w)
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
            if (u, w) == start:  # the next round would repeat this one exactly
                break
        lo, hi = max(u_rng[0], edge - 1.0), min(1.0, edge - w_rng[0])  # as in _edge_max
        if tri and hi > lo:
            t, ft = zoom_max(lambda ts: _neg_log_kernel(h(1.0 / ts, 1.0 / (edge - ts)),
                                                        psi.log_u(ts), nu.log_u(edge - ts)),
                             lo, hi, 1e-13)
            if ft > best:
                u, w, best = t, edge - t, ft
    return BoundReport(
        math.exp(-best) * norm_xi * norm_eta, "generic",
        p=exponent(u, p_top, p_bot), q=exponent(w, q_top, q_bot),
    )


def _zoom_cells(F, xs, i, cap=math.inf, tol=1e-13):
    """zoom_max of F on the two grid cells around xs[i], clipped at cap, or None
    when the clipped cells are empty."""
    lo, hi = float(xs[max(i - 1, 0)]), min(float(xs[min(i + 1, xs.size - 1)]), cap)
    return zoom_max(F, lo, hi, tol) if hi > lo else None


def _kernel_grid_best(h, ps, lp, qs, lq, counts):
    """(i, j, value): the first row-major argmax of -ln(h psi nu) on the grid
    ps x qs, where row i admits the columns [0, counts[i]).

    lp, lq are ln psi, ln nu on the axes, and counts does not increase.  The
    admissible staircase is evaluated in _GRID_BLOCKS row blocks, each the
    rectangle under its first row's count, with h called on same-shape
    broadcast pairs; each block's tail past its rows' counts is masked.
    Value -inf when no point is admissible and feasible.  Call under
    np.errstate(divide="ignore", invalid="ignore").
    """
    rows = int(np.count_nonzero(counts))
    cuts = np.unique(np.linspace(0, rows, _GRID_BLOCKS + 1).astype(int))
    best = (0, 0, -math.inf)
    for r0, r1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        width = int(counts[r0])
        shape = (r1 - r0, width)
        P, Q = np.broadcast_to(ps[r0:r1, None], shape), np.broadcast_to(qs[:width], shape)
        f = _neg_log_kernel(h(P, Q), lp[r0:r1, None], lq[None, :width])
        if counts[r1 - 1] < width:
            f[np.arange(width) >= counts[r0:r1, None]] = -np.inf
        k = int(np.argmax(f))
        if f.flat[k] > best[2]:
            best = (r0 + k // width, k % width, float(f.flat[k]))
    return best


def _neg_log_kernel(hv, lp, lq):
    """-ln(h psi nu) from the kernel's values and ln psi, ln nu.

    hv has the full shape of the grid, and ln psi, ln nu broadcast to it.  A
    zero kernel at a feasible exponent pair maps to +inf (the bound is 0);
    an infinite generating factor maps to -inf (the pair is infeasible).
    Call under np.errstate(divide="ignore", invalid="ignore").
    """
    # in place on ln h's new array, in the order of -(ln h + ln psi + ln nu)
    out = np.log(np.asarray(hv, dtype=float))
    out += lp
    out += lq
    np.negative(out, out=out)
    return np.fmax(out, -np.inf, out=out)  # NaN -> -inf, every other value kept
