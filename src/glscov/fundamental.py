"""Fundamental functions of Grand Lebesgue Spaces and their maximizers.

The sup over p of delta^(1/p) / psi(p) is computed in the u = 1/p coordinate
on (1/b, 1]: the delta term is log-linear in u and the singularities sit at
the interval ends, where a dense grid plus a refinement of its best point
behaves well.  For a piecewise log-linear psi (`PsiFunction.breakpoints`:
extremal, tabulated, empirical, and products of these) the objective
u ln delta - ln psi(1/u) is linear in u between psi's breakpoints, which
with the scan ends make up its whole grid, so the grid maximum is the sup
and no refinement runs.  Every other psi refines by safeguarded Newton on
the exact derivatives of its jet, once per concave piece between its kinks
(a product with one piecewise factor has them), which its table holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _optimize
from ._optimize import exponent, grid_golden_max, log_ratio, piece_maxima, psi_table
from .errors import DomainError
from .psi import finite_support, scan_bound

#: scan points of a smooth psi's 1-D table on [1, b), which every refined sup
#: over that one psi reads (fundamental, conjugate, Phi, y and z), and a
#: truncated sup on [s, b) reads cut at u = 1/s
N_GRID = 2048


@dataclass(frozen=True)
class FundamentalResult:
    """A computed sup with its maximizer and boundary provenance."""

    value: float
    argmax_p: float
    delta: float
    boundary: str | None = None  # at_one | at_s (s > 1) | at_b | at_infinity
    trunc_low: float = 1.0


def _log_delta(delta):
    """ln delta for a delta the fundamental functions accept."""
    if not 0.0 < delta < math.inf:
        raise DomainError("delta must be positive and finite")
    return math.log(delta)


def _sup(psi, log_x, s, n_grid=N_GRID, refine=True):
    """(u, ln value) at the sup over p in [s, b) of x^(1/p)/psi(p), from ln x.

    The one row kernel of every fundamental function: a scan of psi's table,
    refined by Newton on each piece between psi's kinks unless psi is
    piecewise log-linear, where the objective is linear in u between the
    breakpoints and the grid is exact.  ln value is -inf on an empty
    domain, where psi's table is empty.
    """
    us, fs, newton, cuts = log_ratio(psi, log_x, psi_table(psi, s, n_grid))
    if not us.size:
        return 0.0, -math.inf
    return grid_golden_max(us, fs, newton, refine and psi.breakpoints is None, cuts=cuts)


def _candidates(psi, log_x):
    """(us, values, kinks): where the sup over p in [1, b) of x^(1/p)/psi(p)
    may sit, ascending in u, the objective there, and psi's kinks inside the
    scan: a piecewise psi's table, else `_sup`'s point or, with kinks, the
    scan ends, the kinks and each concave piece's max (`piece_maxima`)."""
    us, fs, newton, cuts = log_ratio(psi, log_x, psi_table(psi, 1.0, N_GRID))
    if psi.breakpoints is not None:
        return us, fs, us[cuts]
    if not cuts.size:
        u, f = grid_golden_max(us, fs, newton)
        return np.array([u]), np.array([f]), us[:0]
    points = [(float(us[k]), float(fs[k])) for k in (0, *cuts, -1)]
    xs, values = np.array(sorted(points + piece_maxima(newton, us, fs, cuts, 1e-12))).T
    return xs, values, us[cuts]


def _sups(psi, log_xs, s):
    """[`_sup`(psi, log_x, s) for log_x in log_xs] as the lists (u, ln value).

    A smooth psi runs `_sup` row by row.  A piecewise one takes each row's
    grid maximum from one matrix u ln x - ln psi(1/u) over its table, its
    breakpoints and scan ends (rows x about its knot count), in chunks of rows
    below `_optimize.CHUNK_ELEMENTS`.
    """
    us, logs, _ = psi_table(psi, s, N_GRID)
    if psi.breakpoints is None or not us.size:  # smooth, or an empty domain
        rows = [_sup(psi, log_x, s) for log_x in log_xs]
        return [u for u, _ in rows], [f for _, f in rows]
    u_best, f_best = [], []
    step = max(1, _optimize.CHUNK_ELEMENTS // us.size)
    for lo in range(0, len(log_xs), step):
        rows = np.asarray(log_xs[lo : lo + step], dtype=float)
        fs = us[None, :] * rows[:, None] - logs[None, :]
        best = np.argmax(fs, axis=1)
        u_best += us[best].tolist()
        f_best += fs[np.arange(rows.size), best].tolist()
    return u_best, f_best


def _log_fundamentals(psi, deltas, s=None):
    """(u, ln value) lists of [fundamental(psi, d) for d in deltas], or
    of fundamental_truncated(psi, s, d) when s is given, from one `_sups`;
    raises what the first failing call would.
    """
    if s is not None and not 1.0 <= s < psi.b:
        raise DomainError("truncation point must satisfy 1 <= s < b")
    valid = next((i for i, d in enumerate(deltas) if not 0.0 < d < math.inf), len(deltas))
    low = 1.0 if s is None else float(s)
    us, lns = _sups(psi, [math.log(d) for d in deltas[:valid]], low)
    if -math.inf in lns:  # then it is -inf for every delta
        raise _empty(low)
    if valid < len(deltas):
        raise DomainError("delta must be positive and finite")
    return us, lns


def _fundamentals(psi, deltas, s=None):
    """[fundamental(psi, d) for d in deltas], or fundamental_truncated(psi, s, d)
    when s is given, as `_log_fundamentals` computes them."""
    packed = zip(*_log_fundamentals(psi, deltas, s))
    low = 1.0 if s is None else float(s)
    return [_result(psi, d, low, p) for d, p in zip(deltas, packed)]


def _empty(s):
    """The error of a sup over p in [s, b) where psi is +inf."""
    if s == 1.0:
        return DomainError("empty effective support: psi is +inf on [1, b)")
    return DomainError("empty effective support on the truncated interval")


def _result(psi, delta, s, packed):
    """The FundamentalResult of `_sup`'s (u, ln value) on [s, b)."""
    u_best, f_best = packed
    if f_best == -math.inf:
        raise _empty(s)
    value = _exp_sup(f_best)
    b_scan = scan_bound(psi)
    u_lo, u_hi = 1.0 / b_scan, 1.0 / s
    span = max(u_hi - u_lo, 1e-300)
    boundary = None
    if u_hi - u_best <= 1e-9 * span:
        boundary = "at_one" if s == 1.0 else "at_s"
    elif u_best - u_lo <= 1e-9 * span:
        boundary = "at_b" if math.isfinite(psi.b) else "at_infinity"
    return FundamentalResult(
        value=value,
        argmax_p=exponent(u_best, b_scan, s),
        delta=float(delta),
        boundary=boundary,
        trunc_low=float(s),
    )


def _exp_sup(log_value):
    """e^log_value for a sup computed in logs; DomainError where it overflows."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError("the sup exceeds the float range (above 1.8e308)") from None


def _log_inverse(x):
    """ln(1/x) for x in (0, 1], or -ln x where 1/x overflows (a subnormal x)."""
    inverse = 1.0 / x
    return math.log(inverse) if inverse < math.inf else -math.log(x)


def _over_phi(c, log_phi, power=1):
    """c / phi^power for phi = e^log_phi, power 1 or 2, one division a factor;
    exp(ln c - power ln phi) where phi or the quotient leaves the float
    range, and DomainError (`_exp_sup`) where that does too."""
    try:
        phi = math.exp(log_phi)
        out = c / phi if power == 1 else c / phi / phi
    except (OverflowError, ZeroDivisionError):  # phi past the float range, or 0
        out = math.inf
    if out < math.inf:
        return out
    return _exp_sup(math.log(c) - power * log_phi) if c > 0.0 else 0.0


def fundamental(psi, delta):
    """Fundamental function: sup over p in [1, b) of delta^(1/p)/psi(p).

    delta may exceed 1 (the strong-mixing bound evaluates at 1/beta); the sup
    then favors small p and the maximizer is typically reported at_one.
    """
    return _result(psi, delta, 1.0, _sup(psi, _log_delta(delta), 1.0))


def fundamental_truncated(psi, s, delta):
    """Sup restricted to p in [s, b); coincides with fundamental() at s = 1.

    It scans the table `fundamental` reads, cut at u = 1/s (`psi_table`),
    so a new s builds no scan grid.
    """
    if not 1.0 <= s < psi.b:
        raise DomainError("truncation point must satisfy 1 <= s < b")
    return _result(psi, delta, float(s), _sup(psi, _log_delta(delta), float(s)))


def truncated_sup_value(psi, s, delta):
    """fundamental_truncated(psi, s, delta).value, but 0.0 on an empty domain.

    Nothing in glscov calls it; it stays for the benchmark's hook on it.  A
    sup past the float range raises DomainError, as fundamental_truncated.
    """
    return _exp_sup(_sup(psi, _log_delta(delta), float(s))[1])


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

    Exact for power and finite_support psi (duals and products by the chain
    rule); a piecewise log-linear psi gives the slope of the cell holding x.
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
    fundamental's Newton refinement solves; at a scan end it is that end.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("solve_argmax needs delta in (0, 1)")
    return fundamental(psi, delta).argmax_p
