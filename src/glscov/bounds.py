"""Covariance bounds for random variables measurable w.r.t. mixing fields.

Classical bounds (Davydov, Ibragimov, Hoelder), their Grand Lebesgue Space
lifts via fundamental functions, closed-form family bounds, the two-exponent
factorization analysis, and a generic kernel engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._optimize import (
    _KINK_GAP,
    cell_max,
    exponent,
    grid_golden_max,
    log_ratio,
    piece_maxima,
    psi_table,
    u_axis,
    zoom_cells,
    zoom_max,
)
from .errors import DomainError
from .fundamental import (
    _candidates,
    _exp_sup,
    _log_inverse,
    _over_phi,
    _sup,
    finite_support_constant,
    fundamental,
    fundamental_truncated,
    g_prime,
)
from .psi import conjugate_exponent, product_zeta, scan_bound

#: margin keeping two-exponent grids strictly inside the open region 1/p + 1/q < 1
_T_MARGIN = 1e-9

#: row blocks of generic_bound's kernel grid: more blocks hug the admissible
#: staircase closer (8: 1.125 times its points), but each is one more call
_GRID_BLOCKS = 8


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
    if not (p >= 1 and q >= 1):
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
    if not p > 1:
        raise DomainError("ibragimov bound needs p > 1 (or the p = +inf sentinel)")
    factor = 1.0 if math.isinf(p) else beta ** (1.0 / p)
    q = 1.0 if math.isinf(p) else p / (p - 1.0)
    return BoundReport(2.0 * factor * norm_p * norm_q, "ibragimov", p=p, q=q)


def holder_bound(norm_p, norm_q):
    """The trivial estimate 2 |xi|_p |eta|_q on conjugate exponents."""
    return BoundReport(2.0 * norm_p * norm_q, "holder")


# ---------------------------------------------------------------------------
# strong mixing (GLS)


def gls_strong_bound(psi, nu, beta, norm_xi, norm_eta):
    """2 ||xi|| ||eta|| / phi[G zeta[psi,nu]](1/beta).

    The trace carries the p minimizing beta^(1/p) zeta(p).  The sup reads ln
    phi at ln(1/beta), or at -ln beta for a subnormal beta, where 1/beta
    overflows, on zeta's table, refined as `fundamental` refines.
    """
    _check_unit(beta, "beta")
    if beta == 0.0:
        return BoundReport(0.0, "gls_strong", notes=("beta=0: independent fields",))
    zeta = product_zeta(psi, nu)
    u, log_phi = _sup(zeta, _log_inverse(beta), 1.0)
    if log_phi == -math.inf:
        return _infeasible("gls_strong", "product generating function nowhere finite")
    value = _over_phi(2.0 * norm_xi * norm_eta, log_phi)
    return BoundReport(value, "gls_strong", p=exponent(u, scan_bound(zeta), 1.0))


def gls_dual_pair_bound(psi, beta, norm_xi, norm_eta):
    """Dual-pair specialization: 2 [phi[G psi](beta^(-1/2))]^(-2) ||xi|| ||eta||."""
    _check_unit(beta, "beta")
    if beta == 0.0:
        return BoundReport(0.0, "gls_dual_pair")
    _, log_phi = _sup(psi, math.log(beta**-0.5), 1.0)
    if log_phi == -math.inf:
        return _infeasible("gls_dual_pair", "psi nowhere finite")
    return BoundReport(_over_phi(2.0 * norm_xi * norm_eta, log_phi, 2), "gls_dual_pair")


# ---------------------------------------------------------------------------
# uniform mixing (GLS): the two-exponent sup and its two routes


@dataclass(frozen=True)
class UniformPhi:
    """value: Phi[psi,nu](alpha, beta) at an evaluated admissible point (a
    lower estimate), p and q: that point's exponents; 0.0 and NaN, NaN where
    1/p + 1/q < 1 holds no point at which psi and nu are finite."""

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


def _on_edge(psi, nu, la, lb, ku, kw, starts):
    """Best point (u, w, value) of a(u) + c(w) on the edge u + w = e, or None.

    The edge splits at psi's kinks ku and at e - kw for nu's.  Its vertices
    are one array, each side read at its own exact coordinate, so nu's
    closed end w = 1/b survives the rounding of e - u.  Unless both psi are
    piecewise, `piece_maxima` refines the pieces on the vertices, midpoints
    and u = starts, a start within _KINK_GAP of a vertex dropped."""
    e, w_lo = 1.0 - _T_MARGIN, 1.0 / scan_bound(nu)
    lo, hi = 1.0 / scan_bound(psi), e - w_lo
    if hi <= lo:
        return None
    ku, kw = ku[(ku > lo) & (ku < hi)], kw[(e - kw > lo) & (e - kw < hi)]
    us = np.concatenate([[lo], ku, e - kw, [hi]])
    order = np.argsort(us, kind="stable")
    us, ws = us[order], np.concatenate([[e - lo], e - ku, kw, [w_lo]])[order]
    fs = (us * la - psi.log_u(us)) + (ws * lb - nu.log_u(ws))
    k = int(np.argmax(fs))
    best = float(us[k]), float(ws[k]), float(fs[k])
    if psi.breakpoints is not None and nu.breakpoints is not None:
        return best
    ts = np.unique(np.concatenate([0.5 * (us[:-1] + us[1:]), starts]))
    j = np.clip(np.searchsorted(us, ts), 1, us.size - 1)  # us[j - 1] < ts <= us[j] inside
    keep = np.minimum(ts - us[j - 1], us[j] - ts) > _KINK_GAP  # inside (lo, hi), off the vertices
    ts, j = ts[keep], j[keep]
    gs = (ts * la - psi.log_u(ts)) + ((e - ts) * lb - nu.log_u(e - ts))
    cuts = np.arange(1, us.size - 1) + np.searchsorted(ts, us[1:-1])  # the inner vertices

    def df(t):
        ga, a1, a2 = psi.log_u_jet(t)
        gc, c1, c2 = nu.log_u_jet(e - t)
        return (t * la - ga) + ((e - t) * lb - gc), la - a1 - lb + c1, -a2 - c2

    for t, f in piece_maxima(df, np.insert(us, j, ts), np.insert(fs, j, gs), cuts):
        if f > best[2]:
            best = t, e - t, f
    return best


def phi_uniform(psi, nu, alpha, beta):
    """sup over 1/p + 1/q < 1 of alpha^(1/p) beta^(1/q) / (psi(p) nu(q)).

    In (u, w) = (1/p, 1/q) the log objective a(u) + c(w) is separable and
    concave on every pair of pieces of the axes, so (KKT) its sup there is
    the product point of the two 1-D sups or on the edge u + w = e =
    1 - margin.  Phi is the better of the best admissible pair of the axes'
    candidates (their 1-D sups' points, `fundamental._candidates`) and the
    best edge point (`_on_edge`; skipped when neither axis has a kink and
    their product point is admissible).  Every candidate is an evaluated
    admissible point: a lower estimate for any psi (`UniformPhi`)."""
    _check_unit(alpha, "alpha")
    _check_unit(beta, "beta")
    la = math.log(alpha) if alpha > 0 else -math.inf
    lb = math.log(beta) if beta > 0 else -math.inf
    us, a, ku = _candidates(psi, la)
    ws, c, kw = _candidates(nu, lb)
    i, j = int(np.argmax(a)), int(np.argmax(c))  # the product point of the 1-D sups
    u, w, best = float(us[i]), float(ws[j]), float(a[i] + c[j])
    if ku.size or kw.size or u + w > 1.0 - _T_MARGIN:
        i, j, best = _triangle_grid_best(us, a, ws, c)
        u, w = float(us[i]), float(ws[j])
        smooth = [xs for f, xs in ((psi, us), (nu, 1.0 - _T_MARGIN - ws)) if f.breakpoints is None]
        on_edge = _on_edge(psi, nu, la, lb, ku, kw, np.concatenate([[], *smooth]))
        if on_edge is not None and on_edge[2] > best:
            u, w, best = on_edge
    if best == -math.inf:
        return UniformPhi(alpha, beta, 0.0, math.nan, math.nan)
    return UniformPhi(alpha, beta, _exp_sup(best),
                      exponent(u, scan_bound(psi), 1.0), exponent(w, scan_bound(nu), 1.0))


def phi_uniform_theta(psi, nu, alpha, n_grid=512):
    """The same sup via the nested route: sup_p alpha^(1/p)/theta(p) with
    theta(p) = psi(p) / (sup over q >= p' of alpha^(1/q)/nu(q)).

    In u = 1/p this is the sup of F(u) = u ln alpha - ln psi(1/u) + C(1 - u),
    C(top) the sup of c(w) = w ln alpha - ln nu(1/w) over w in [1/b_nu, top]:
    the running maximum of c on nu's `psi_table` on [1, b) (fundamental's),
    c(top), and for a smooth nu its running argmax refined once by
    `cell_max` (a piecewise nu's c is linear between its knots).  The scan
    holds psi's kinks and one minus nu's and 1/b_nu, so a piecewise pair's F
    is convex on each cell and its grid exact.  Any other F refines by Newton
    on its slope from the envelope theorem: F' = ln alpha - g'(u), less
    c'(1 - u) where the clip w = top holds the inner sup, and F'' alike.
    n_grid sizes the outer scan only.
    """
    _check_unit(alpha, "alpha")
    if alpha == 0.0:
        return 0.0
    la = math.log(alpha)
    ws, c, c_jet, _ = log_ratio(nu, la, psi_table(nu, 1.0))
    run, arg = _running_max(c)
    refine = nu.breakpoints is None
    concave = refine and not nu.kinks.size
    peak = cache(lambda i: cell_max(c_jet, ws, i) or (math.inf, -math.inf))  # c's max near ws[i]

    def df(u):
        lp, g1, g2 = psi.log_u_jet(u)
        top = 1.0 - u
        k = int(np.searchsorted(ws, top, side="right")) - 1
        if math.isinf(lp) or k < 0:  # past psi's support, or top below nu's
            return -math.inf, 0.0, 0.0
        inner, past_peak = float(run[k]), False
        if refine and math.isfinite(inner):
            w, f = peak(int(arg[k]))
            if w <= top:
                inner, past_peak = max(inner, f), concave
        if not past_peak:  # past its peak, a concave c stays below it
            ct, c1, c2 = c_jet(top)
            if ct >= inner:  # the clip w = top holds the inner sup
                return u * la - lp + ct, la - g1 - c1, c2 - g2
        return u * la - lp + inner, la - g1, -g2

    lo = 1.0 / scan_bound(psi)
    # one ulp down, so that top = 1 - u reaches each kink of nu and 1/b_nu
    ts = np.concatenate([psi.kinks, np.nextafter(1.0 - np.append(nu.kinks, ws[0]), 0.0)])
    us = np.unique(np.concatenate([np.linspace(lo, 1.0, n_grid), ts[(ts > lo) & (ts < 1.0)]]))
    tops = 1.0 - us
    k = np.searchsorted(ws, tops, side="right") - 1
    inner = np.where(k >= 0, np.maximum(run[k], tops * la - nu.log_u(tops)), -np.inf)
    fs = us * la - psi.log_u(us) + inner
    _, best = grid_golden_max(us, fs, df, refine=refine or psi.breakpoints is None, tol=1e-12)
    return _exp_sup(best)


def gls_uniform_bound(psi, nu, alpha, norm_xi, norm_eta, n_grid=512):
    """12 alpha ||xi|| ||eta|| / Phi[psi,nu](alpha, alpha).

    Phi is computed by `phi_uniform` (note phi_2d), which reports the
    exponents, and the nested route `phi_uniform_theta` (note phi_theta);
    both are lower estimates of the same sup, so the larger one is used and
    a note records any disagreement beyond 1e-6 relative; n_grid goes to theta.
    """
    _check_unit(alpha, "alpha")
    if alpha == 0.0:
        return BoundReport(0.0, "gls_uniform", notes=("alpha=0: independent fields",))
    two_d = phi_uniform(psi, nu, alpha, alpha)
    theta = phi_uniform_theta(psi, nu, alpha, n_grid=n_grid)
    notes = [f"phi_2d={two_d.value!r}", f"phi_theta={theta!r}"]
    phi = max(two_d.value, theta)
    if phi > 0 and abs(theta - two_d.value) > 1e-6 * phi:
        notes.append("route_mismatch")
    if phi == 0.0:
        return _infeasible("gls_uniform", "admissible exponent region empty")
    value = 12.0 * alpha * norm_xi * norm_eta / phi
    return BoundReport(value, "gls_uniform", p=two_d.p, q=two_d.q, notes=tuple(notes))


def gls_identical_bound(psi, alpha, norm_xi, norm_eta):
    """12 alpha ||xi|| ||eta|| / phi^2[G psi](alpha) for a shared psi, with
    phi read from psi's table and refined as `fundamental` refines."""
    _check_unit(alpha, "alpha")
    if alpha == 0.0:
        return BoundReport(0.0, "gls_identical", notes=("alpha=0: independent fields",))
    u, log_phi = _sup(psi, math.log(alpha), 1.0)
    if log_phi == -math.inf:
        return _infeasible("gls_identical", "psi nowhere finite")
    value = _over_phi(12.0 * alpha * norm_xi * norm_eta, log_phi, 2)  # phi^2 can overflow
    p = exponent(u, scan_bound(psi), 1.0)
    return BoundReport(value, "gls_identical", p=p, q=p)


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
    expected below the case-dependent thresholds computed from g'; n_grid
    sizes nothing and stays for callers that pass it.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise DomainError("factorization check needs alpha, beta in (0, 1)")
    lhs = phi_uniform(psi, nu, alpha, beta).value
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
    its own cells, in u then in w (a non-concave objective's local sup),
    then along each coordinate in turn (h need not be separable): it rounds
    until a round raises the value by at most 4 ulp, at most three.  On "T"
    a search along the edge u + w = 1, where coordinate moves stall,
    competes with them.  A kernel carries no derivative, and every search is
    `zoom_max`, which reads h on a whole array of points per pass and stops
    once its bracket is flat.
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
            cell = zoom_cells(lambda ts: line(ts, 1.0 / ts), us, i, tol=1e-12)
        if best == -math.inf:
            return _infeasible("generic", "empty domain")
        if cell is not None and cell[1] > best:
            u, best = cell
        p = exponent(u, p_top, 1.0)
        return BoundReport(
            _exp_sup(-best) * norm_xi * norm_eta, "generic", p=p,
            q=math.inf if p == 1.0 else p / (p - 1.0),
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
        u, w = float(us[i]), float(ws[j])
        cell = zoom_cells(along_u(w), us, i, cap - w)
        if cell is not None and cell[1] > best:
            u, best = cell
        cell = zoom_cells(along_w(u), ws, j, cap - u)
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
            if best <= start + 4.0 * math.ulp(start):  # the value stopped moving
                break
        lo, hi = max(u_rng[0], edge - 1.0), min(1.0, edge - w_rng[0])
        if tri and hi > lo:
            t, ft = zoom_max(lambda ts: _neg_log_kernel(h(1.0 / ts, 1.0 / (edge - ts)),
                                                        psi.log_u(ts), nu.log_u(edge - ts)),
                             lo, hi, 1e-13)
            if ft > best:
                u, w, best = t, edge - t, ft
    return BoundReport(
        _exp_sup(-best) * norm_xi * norm_eta, "generic",
        p=exponent(u, p_top, p_bot), q=exponent(w, q_top, q_bot),
    )


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
