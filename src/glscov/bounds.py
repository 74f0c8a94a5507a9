"""Covariance bounds for random variables measurable w.r.t. mixing fields.

Classical bounds (Davydov, Ibragimov, Hoelder), their Grand Lebesgue Space
lifts via fundamental functions, closed-form family bounds, the two-exponent
factorization analysis, and a generic kernel engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._optimize import golden_max, grid_golden_max
from .errors import DomainError
from .fundamental import (
    finite_support_constant,
    fundamental,
    fundamental_truncated,
    g_prime,
    truncated_sup_value,
)
from .psi import _conjugate_scalar, conjugate_exponent, product_zeta, scan_bound

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


def gls_dual_pair_bound(psi, beta, norm_xi, norm_eta, n_grid=2048):
    """Dual-pair specialization: 2 [phi[G psi](beta^(-1/2))]^(-2) ||xi|| ||eta||."""
    _check_unit(beta, "beta")
    if beta == 0.0:
        return BoundReport(0.0, "gls_dual_pair")
    phi = fundamental(psi, beta**-0.5, n_grid=n_grid).value
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


@lru_cache(maxsize=64)
def _triangle_axis(lo, n_grid):
    """phi_uniform's grid on [lo, 1]: uniform plus geometric near lo.

    Cached because the campaign asks for the same few grids thousands of
    times; the array is read-only since every caller shares it.
    """
    xs = np.unique(np.concatenate([np.linspace(lo, 1.0, n_grid),
                                   np.geomspace(lo, 1.0, n_grid // 4)]))
    xs.flags.writeable = False
    return xs


def phi_uniform(psi, nu, alpha, beta, n_grid=512, refine=True):
    """sup over 1/p + 1/q < 1 of alpha^(1/p) beta^(1/q) / (psi(p) nu(q)).

    Grid over the open triangle in (u, w) = (1/p, 1/q), then coordinate
    golden-section refinement.  Returns a UniformPhi (value 0.0 when the
    admissible region carries no finite point).
    """
    _check_unit(alpha, "alpha")
    _check_unit(beta, "beta")
    la = math.log(alpha) if alpha > 0 else -math.inf
    lb = math.log(beta) if beta > 0 else -math.inf
    u_lo = 1.0 / scan_bound(psi)
    w_lo = 1.0 / scan_bound(nu)
    us, ws = _triangle_axis(u_lo, n_grid), _triangle_axis(w_lo, n_grid)
    with np.errstate(invalid="ignore"):
        a = us * la - psi.log_eval(1.0 / us)
        c = ws * lb - nu.log_eval(1.0 / ws)
    a = np.where(np.isnan(a), -np.inf, a)
    c = np.where(np.isnan(c), -np.inf, c)
    f = a[:, None] + c[None, :]
    f[us[:, None] + ws[None, :] > 1.0 - _T_MARGIN] = -np.inf
    i, j = np.unravel_index(np.argmax(f), f.shape)
    best = f[i, j]
    if best == -math.inf:
        return UniformPhi(alpha, beta, 0.0, math.nan, math.nan)
    u, w = float(us[i]), float(ws[j])

    def f_u(t):
        return t * la - psi.log_eval_scalar(1.0 / t)

    def f_w(t):
        return t * lb - nu.log_eval_scalar(1.0 / t)

    if refine:
        for _ in range(3):
            hi_u = min(1.0, 1.0 - w - _T_MARGIN)
            if hi_u > u_lo:
                u2, fu = golden_max(f_u, u_lo, hi_u, tol=1e-13)
                if fu + f_w(w) > best:
                    u, best = u2, fu + f_w(w)
            hi_w = min(1.0, 1.0 - u - _T_MARGIN)
            if hi_w > w_lo:
                w2, fw = golden_max(f_w, w_lo, hi_w, tol=1e-13)
                if f_u(u) + fw > best:
                    w, best = w2, f_u(u) + fw
        # coordinate moves stall when the sup sits on u + w = 1; slide along
        # that edge explicitly
        edge = 1.0 - _T_MARGIN

        def f_edge(t):
            return f_u(t) + f_w(edge - t)

        lo_e, hi_e = max(u_lo, edge - 1.0), min(1.0, edge - w_lo)
        if hi_e > lo_e:
            t2, fe = golden_max(f_edge, lo_e, hi_e, tol=1e-13)
            if fe > best:
                u, w, best = t2, edge - t2, fe
    return UniformPhi(alpha, beta, float(math.exp(best)), 1.0 / u, 1.0 / w)


def phi_uniform_theta(psi, nu, alpha, n_grid=512, inner_grid=256):
    """The same sup via the nested route: sup_p alpha^(1/p)/theta(p) with
    theta(p) = psi(p) / (sup over q >= p' of alpha^(1/q)/nu(q))."""
    _check_unit(alpha, "alpha")
    if alpha == 0.0:
        return 0.0
    la = math.log(alpha)
    u_lo = 1.0 / scan_bound(psi)

    def objective(u):
        lp = psi.log_eval_scalar(1.0 / u)
        if math.isinf(lp):
            return -math.inf
        s = _conjugate_scalar(1.0 / u)
        inner = truncated_sup_value(nu, s, alpha, n_grid=inner_grid)
        return -math.inf if inner <= 0 else u * la - lp + math.log(inner)

    us = np.linspace(u_lo, 1.0, n_grid)
    fs = np.array([objective(u) for u in us.tolist()])
    _, best = grid_golden_max(us, fs, objective, tol=1e-12)
    return 0.0 if best == -math.inf else float(math.exp(best))


def gls_uniform_bound(psi, nu, alpha, norm_xi, norm_eta, n_grid=512, theta_route=True):
    """12 alpha ||xi|| ||eta|| / Phi[psi,nu](alpha, alpha).

    Phi is computed by the 2-D triangle sup and (optionally) the nested
    1-D route; both are lower estimates of the same sup, so the larger one
    is used and a note records any disagreement beyond 1e-6 relative.
    """
    _check_unit(alpha, "alpha")
    if alpha == 0.0:
        return BoundReport(0.0, "gls_uniform", notes=("alpha=0: independent fields",))
    two_d = phi_uniform(psi, nu, alpha, alpha, n_grid=n_grid)
    notes = [f"phi_2d={two_d.value!r}"]
    phi = two_d.value
    if theta_route:
        theta = phi_uniform_theta(psi, nu, alpha, n_grid=n_grid)
        notes.append(f"phi_theta={theta!r}")
        if max(theta, phi) > 0 and abs(theta - phi) > 1e-6 * max(theta, phi):
            notes.append("route_mismatch")
        phi = max(phi, theta)
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


def example_combined(psi, q0, alpha, norm_gls, norm_q0, n_grid=2048):
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
    phi = fundamental_truncated(psi, q0p, alpha, n_grid=n_grid)
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
    """
    u_cap = 1.0 / scan_bound(psi)
    w_cap = 1.0 / scan_bound(nu)
    if domain == "conjugate":
        def objective(us):
            p = 1.0 / np.asarray(us)
            q = conjugate_exponent(p)
            return _neg_log_kernel(h, psi, nu, p, q)

        us = np.linspace(max(u_cap, 1e-12), 1.0, n_grid)
        u, best = grid_golden_max(
            us, objective(us), lambda t: float(objective(np.array([t]))[0])
        )
        if best == -math.inf:
            return _infeasible("generic", "empty domain")
        p = 1.0 / u
        return BoundReport(
            math.exp(-best) * norm_xi * norm_eta, "generic", p=p,
            q=float(conjugate_exponent(np.array([p]))[0]),
        )
    if domain == "T":
        u_rng, w_rng, tri = (u_cap, 1.0), (w_cap, 1.0), True
    elif domain == "R":
        u_rng, w_rng, tri = (u_cap, 1.0), (w_cap, 1.0), False
    else:
        (p_lo, p_hi), (q_lo, q_hi) = domain
        u_rng = (1.0 / min(p_hi, scan_bound(psi)), 1.0 / max(p_lo, 1.0))
        w_rng = (1.0 / min(q_hi, scan_bound(nu)), 1.0 / max(q_lo, 1.0))
        tri = False
    us = np.linspace(u_rng[0], u_rng[1], n_grid)
    ws = np.linspace(w_rng[0], w_rng[1], n_grid)
    P, Q = 1.0 / us[:, None], 1.0 / ws[None, :]
    f = _neg_log_kernel(h, psi, nu, np.broadcast_to(P, (len(us), len(ws))),
                        np.broadcast_to(Q, (len(us), len(ws))))
    if tri:
        f[us[:, None] + ws[None, :] > 1.0 - _T_MARGIN] = -np.inf
    i, j = np.unravel_index(np.argmax(f), f.shape)
    best = f[i, j]
    if best == -math.inf:
        return _infeasible("generic", "empty domain")
    u, w = float(us[i]), float(ws[j])

    def along_u(t):
        return float(_neg_log_kernel(h, psi, nu, np.array([1.0 / t]), np.array([1.0 / w]))[0])

    def along_w(t):
        return float(_neg_log_kernel(h, psi, nu, np.array([1.0 / u]), np.array([1.0 / t]))[0])

    for _ in range(3):
        hi_u = min(u_rng[1], 1.0 - w - _T_MARGIN) if tri else u_rng[1]
        if hi_u > u_rng[0]:
            u2, fu = golden_max(along_u, u_rng[0], hi_u, tol=1e-13)
            if fu > best:
                u, best = u2, fu
        hi_w = min(w_rng[1], 1.0 - u - _T_MARGIN) if tri else w_rng[1]
        if hi_w > w_rng[0]:
            w2, fw = golden_max(along_w, w_rng[0], hi_w, tol=1e-13)
            if fw > best:
                w, best = w2, fw
    return BoundReport(
        math.exp(-best) * norm_xi * norm_eta, "generic", p=1.0 / u, q=1.0 / w
    )


def _neg_log_kernel(h, psi, nu, p, q):
    """-ln(h(p,q) psi(p) nu(q)); the inf becomes a sup of this quantity.

    A zero kernel at a feasible exponent pair maps to +inf (the bound is 0);
    an infinite generating factor maps to -inf (the pair is infeasible).
    """
    hv = np.asarray(h(p, q), dtype=float)
    lp, lq = psi.log_eval(p), nu.log_eval(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -(np.log(hv) + lp + lq)
    return np.where(np.isnan(out), -np.inf, out)
