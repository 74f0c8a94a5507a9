"""Fundamental functions of Grand Lebesgue Spaces and their maximizers.

The sup over p of delta^(1/p) / psi(p) is computed in the u = 1/p coordinate
on (1/b, 1]: the delta term is log-linear in u and the singularities sit at
the interval ends, where a dense grid plus a refinement of its best point
behaves well.  For a smooth psi (`PsiFunction.smooth`) the objective
u ln delta - ln psi(1/u) is concave with exact derivatives, and the
refinement is safeguarded Newton; an extremal psi, or one with a piecewise
factor that is not piecewise itself, refines by golden-section search.  For
a piecewise log-linear psi (tabulated, empirical, and products of these)
the objective is linear in u between psi's breakpoints, which are all on
the grid, so the grid maximum is the sup and no refinement runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    if not 0.0 < delta < math.inf:
        raise DomainError("delta must be positive and finite")
    if 1.0 / s < 1.0 / scan_bound(psi):
        return None  # empty domain
    us, fs, probe, newton = log_ratio(psi, math.log(delta), s, n_grid)
    # linear in u between the breakpoints of a piecewise psi: the grid is exact
    refine = refine and psi.breakpoints is None
    u_best, f_best = grid_golden_max(us, fs, probe, refine=refine, df=newton)
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
    val = psi.log_u_jet(x)[0]
    if math.isinf(val):
        raise DomainError("1/x lies outside the support of psi")
    return -val


def g_prime(psi, x):
    """dg/dx = -d ln psi(1/x)/dx, from `PsiFunction.log_u_jet`.

    Exact for every smooth kind (duals and products by the chain rule); a
    piecewise log-linear psi gives the slope of the cell holding x, and
    extremal 0.
    """
    if not 0.0 < x <= 1.0:
        raise DomainError("1/x lies outside the support of psi")
    g, d1, _ = psi.log_u_jet(x)
    if g == math.inf:
        raise DomainError("1/x lies outside the support of psi")
    return -d1


def solve_argmax(psi, delta):
    """Maximizer p0(delta) of delta^(1/p)/psi(p): fundamental's argmax.

    Inside the support it is the root of g'(1/p) = ln(1/delta), which
    fundamental's Newton refinement solves for a smooth psi; at a scan end
    it is that end.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("solve_argmax needs delta in (0, 1)")
    return fundamental(psi, delta).argmax_p
