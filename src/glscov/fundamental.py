"""Fundamental functions of Grand Lebesgue Spaces and their maximizers.

The sup over p of delta^(1/p) / psi(p) is computed in the u = 1/p coordinate
on (1/b, 1]: the delta term is log-linear in u and the singularities sit at
the interval ends, where a dense grid plus golden-section refinement behaves
well.  For a piecewise log-linear psi (tabulated, empirical, and products of
these) the objective is linear in u between psi's breakpoints, which are all
on the grid, so the grid maximum is the sup and no refinement runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._optimize import exponent, grid_golden_max, log_ratio
from .errors import DomainError
from .psi import scan_bound

#: scan points of a 1-D sup on [1, b) or [s, b); the conjugate reads the same
#: table as fundamental
N_GRID = 2048

#: scan points of truncated_sup_value
_N_GRID_VALUE = 512


@dataclass(frozen=True)
class FundamentalResult:
    """A computed sup with its maximizer and boundary provenance."""

    value: float
    argmax_p: float
    delta: float
    boundary: str | None = None  # at_one | at_s (s > 1) | at_b | at_infinity
    trunc_low: float = 1.0


def _sup(psi, delta, s, n_grid, refine):
    """(u, ln value) at the sup over p in [s, b) of delta^(1/p)/psi(p); None if empty."""
    if delta <= 0:
        raise DomainError("delta must be positive")
    if 1.0 / s < 1.0 / scan_bound(psi):
        return None  # empty domain
    us, fs, probe = log_ratio(psi, math.log(delta), s, n_grid)
    # linear in u between the breakpoints of a piecewise psi: the grid is exact
    refine = refine and psi.breakpoints is None
    u_best, f_best = grid_golden_max(us, fs, probe, refine=refine)
    if f_best == -math.inf:
        return None
    return u_best, f_best


def _result(psi, delta, s, packed):
    u_best, f_best = packed
    b_scan = scan_bound(psi)
    u_lo, u_hi = 1.0 / b_scan, 1.0 / s
    span = max(u_hi - u_lo, 1e-300)
    boundary = None
    if u_hi - u_best <= 1e-9 * span:
        boundary = "at_one" if s == 1.0 else "at_s"
    elif u_best - u_lo <= 1e-9 * span:
        boundary = "at_b" if math.isfinite(psi.b) else "at_infinity"
    return FundamentalResult(
        value=float(math.exp(f_best)),
        argmax_p=exponent(u_best, b_scan, s),
        delta=float(delta),
        boundary=boundary,
        trunc_low=float(s),
    )


def fundamental(psi, delta, n_grid=N_GRID, refine=True):
    """Fundamental function: sup over p in [1, b) of delta^(1/p)/psi(p).

    delta may exceed 1 (the strong-mixing bound evaluates at 1/beta); the sup
    then favors small p and the maximizer is typically reported at_one.
    """
    packed = _sup(psi, delta, 1.0, n_grid, refine)
    if packed is None:
        raise DomainError("empty effective support: psi is +inf on [1, b)")
    return _result(psi, delta, 1.0, packed)


def fundamental_truncated(psi, s, delta):
    """Sup restricted to p in [s, b); coincides with fundamental() at s = 1."""
    if not 1.0 <= s < psi.b:
        raise DomainError("truncation point must satisfy 1 <= s < b")
    packed = _sup(psi, delta, float(s), N_GRID, True)
    if packed is None:
        raise DomainError("empty effective support on the truncated interval")
    return _result(psi, delta, float(s), packed)


def truncated_sup_value(psi, s, delta):
    """Like fundamental_truncated().value, but 0.0 on an empty domain.

    Used where a sup over an empty set should silently contribute nothing
    (e.g. inside the two-exponent optimization routes).
    """
    if s > scan_bound(psi):
        return 0.0
    packed = _sup(psi, delta, float(s), _N_GRID_VALUE, True)
    if packed is None:
        return 0.0
    return float(math.exp(packed[1]))


# ---------------------------------------------------------------------------
# closed forms


def closed_form_power(m, delta):
    """(e m)^(-1/m) |ln delta|^(-1/m), valid for delta in (0, 1/e)."""
    if m <= 0:
        raise DomainError("m must be positive")
    if not 0.0 < delta < 1.0 / math.e:
        raise DomainError("closed form for the power family needs delta in (0, 1/e)")
    return (math.e * m) ** (-1.0 / m) * abs(math.log(delta)) ** (-1.0 / m)


def finite_support_constant(b, beta):
    """b^(2 beta - 1) * beta^beta (with 0^0 = 1)."""
    return b ** (2.0 * beta - 1.0) * beta**beta


@dataclass(frozen=True)
class FiniteClosedForm:
    """Closed-form value for the finite-support family plus a numeric check.

    `observed_constant` is the ratio of the numeric sup to the shape
    delta^(1/b) |ln delta|^(-beta); it does not match `reference_constant` (only
    the shape is treated as normative), so both are reported.
    """

    value: float
    reference_constant: float
    observed_constant: float
    constant_mismatch: bool


def closed_form_finite(b, beta, delta):
    if b <= 1 or beta < 0:
        raise DomainError("finite-support closed form needs b > 1, beta >= 0")
    if not 0.0 < delta <= 1.0 / math.e:
        raise DomainError("finite-support closed form needs delta in (0, 1/e]")
    from .psi import finite_support  # local import to avoid cycle at module load

    shape = delta ** (1.0 / b) * abs(math.log(delta)) ** (-beta)
    k_ref = finite_support_constant(b, beta)
    observed = fundamental(finite_support(b, beta), delta).value / shape
    mismatch = abs(observed - k_ref) > 1e-3 * max(k_ref, observed)
    return FiniteClosedForm(
        value=k_ref * shape,
        reference_constant=k_ref,
        observed_constant=observed,
        constant_mismatch=mismatch,
    )


# ---------------------------------------------------------------------------
# g-transform and the maximizer equation


def g_transform(psi, x):
    """g(x) = -ln psi(1/x) for 1/x inside the support."""
    if x <= 0:
        raise DomainError("g-transform needs x > 0")
    if x > 1.0:
        raise DomainError("1/x lies outside the support of psi")
    val = psi.log_u_scalar(x)
    if math.isinf(val):
        raise DomainError("1/x lies outside the support of psi")
    return -val


def g_prime(psi, x):
    """dg/dx, closed form for the power and finite-support families.

    Other kinds (tabulated, products) fall back to a central finite
    difference with step h = max(1e-6 x, 1e-9).
    """
    if psi.kind == "power":
        return 1.0 / (psi.params["m"] * x)
    if psi.kind == "finite_support":
        b, beta = psi.params["b"], psi.params["beta"]
        p = 1.0 / x
        if not 1.0 <= p < b:
            raise DomainError("1/x lies outside the support of psi")
        return beta / (x * x * (b - p))
    if psi.kind == "extremal":
        if x < 1.0 / psi.params["r"]:
            raise DomainError("1/x lies outside the support of psi")
        return 0.0
    h = max(1e-6 * x, 1e-9)
    for _ in range(6):
        try:
            return (g_transform(psi, x + h) - g_transform(psi, x - h)) / (2.0 * h)
        except DomainError:
            h *= 0.1
    raise DomainError("cannot take a finite difference inside the support")


#: points of solve_argmax's bracket scan in x = 1/p
_N_BRACKET_SCAN = 64


def solve_argmax(psi, delta):
    """Maximizer p0(delta) of delta^(1/p)/psi(p) via the g'(x) = ln(1/delta) root.

    Bisection in x = 1/p.  When no bracket exists (non-monotone derivative or
    boundary optimum) falls back to the grid maximizer with a warning.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("solve_argmax needs delta in (0, 1)")
    target = math.log(1.0 / delta)
    x_lo = 1.0 / scan_bound(psi)
    if not psi.closed_at_b and math.isfinite(psi.b):
        x_lo *= 1.0 + 1e-12
    xs = np.geomspace(x_lo, 1.0, _N_BRACKET_SCAN)
    vals = []
    for x in xs:
        try:
            vals.append(g_prime(psi, x) - target)
        except DomainError:
            vals.append(math.nan)
    vals = np.array(vals)
    brackets = [
        (xs[i], xs[i + 1])
        for i in range(len(xs) - 1)
        if np.isfinite(vals[i]) and np.isfinite(vals[i + 1]) and vals[i] * vals[i + 1] <= 0
    ]
    if len(brackets) != 1:
        warnings.warn(
            "no unique bracket for the maximizer equation; "
            "falling back to the grid maximizer",
            RuntimeWarning,
            stacklevel=2,
        )
        return fundamental(psi, delta).argmax_p
    a, b = brackets[0]
    fa = g_prime(psi, a) - target
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = g_prime(psi, mid) - target
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a < 1e-15 * b:
            break
    return 2.0 / (a + b)
