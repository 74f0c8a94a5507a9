"""Young-Fenchel machinery: v(p) = p ln psi(p), its conjugate, tail bounds,
and the exponential Orlicz function built from the conjugate.

The conjugate is a 1-D sup over u = 1/p on fundamental's table: exact on
the grid for a piecewise log-linear psi (extremal included), and refined by
safeguarded Newton on each piece between every other psi's kinks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optimize import exponent, grid_golden_max, psi_table
from .errors import DomainError
from .fundamental import _exp_sup
from .psi import scan_bound


def v_of(psi, p):
    """v(p) = p ln psi(p); +inf outside the support.

    At p = inf it is the limit of g(u)/u as u -> 0, with g(u) = ln psi(1/u):
    g'(0) when g(0) = 0 (a dual reads its inner psi at 1), +-inf by the sign
    of g(0) otherwise.  For a finite p so large that a dual's 1 - 1/p rounds
    to 1, it reads psi(1) and returns 0 (-0.0) rather than near that limit.
    """
    if not p >= 1.0:
        raise DomainError("p must lie in [1, infinity]")
    if p == math.inf:
        g0, d1, _ = psi.log_u_jet(0.0)
        return d1 if g0 == 0.0 else math.copysign(math.inf, g0)
    return p * psi.log_u_jet(1.0 / p)[0]


@dataclass(frozen=True)
class ConjugateInfo:
    value: float
    argmax_p: float
    unbounded_at_cap: bool


def conjugate_info(psi, x):
    """sup over p in [1, min(b, P_MAX)] of p x - v(p), with provenance.

    The scan runs in u = 1/p, on fundamental's table, with the objective
    (x - ln psi(1/u)) / u.  For a piecewise log-linear psi, ln psi(1/u) =
    a + c u on each cell between breakpoints, so the objective (x - a)/u - c
    is monotone there and the grid maximum, over the breakpoints and scan
    ends, is the sup.  Every other psi refines it by Newton on each piece
    between its kinks, with f' = -(g' + f)/u and f'' = -(g'' + 2 f')/u.
    `unbounded_at_cap` flags a sup still increasing at the scan cap (the
    conjugate is then effectively +inf for this x).
    """
    if not math.isfinite(x):
        raise DomainError("x must be finite")

    def newton(u):
        g, d1, d2 = psi.log_u_jet(u)
        f = (x - g) / u
        f1 = -(d1 + f) / u
        return f, f1, -(d2 + 2.0 * f1) / u

    us, logs, cuts = psi_table(psi, 1.0)
    # u > 0 and ln psi > -inf on every table: x - (+inf) is -inf, never NaN
    fs = (x - logs) / us
    u_best, f_best = grid_golden_max(us, fs, newton, psi.breakpoints is None, 1e-13, cuts)
    if f_best == -math.inf:
        raise DomainError("empty effective support: psi is +inf on [1, b)")
    p_cap = scan_bound(psi)
    p_best = exponent(u_best, p_cap, 1.0)
    unbounded = (math.isinf(psi.b) and p_best >= p_cap * (1 - 1e-9)
                 and f_best > newton(1.0 / (p_cap * (1 - 1e-6)))[0])
    return ConjugateInfo(float(f_best), float(p_best), unbounded)


def conjugate(psi, x):
    """Young-Fenchel transform v*(x) as a plain float."""
    return conjugate_info(psi, x).value


def tail_bound(psi, norm, y):
    """P(|zeta| > y) <= min(1, 2 exp(-v*(ln(y/norm)))), valid for y >= e norm."""
    if not (0.0 < norm < math.inf and math.isfinite(y)):
        raise DomainError("tail bound needs a positive finite norm and a finite y")
    if y < math.e * norm * (1 - 1e-12):
        raise DomainError("below validity threshold: tail bound needs y >= e * norm")
    return min(1.0, 2.0 * math.exp(-conjugate(psi, math.log(y / norm))))


def orlicz_N(psi, u):
    """Exponential Orlicz function: exp(v*(ln|u|)) for |u| >= e, C u^2 below.

    C is fixed by continuity at |u| = e (any positive C gives an equivalent
    Orlicz function).  A value past the float range raises DomainError.
    """
    a = abs(u)
    if not a < math.inf:
        raise DomainError("u must be finite")
    if a >= math.e:
        return _exp_sup(conjugate(psi, math.log(a)))
    c = _exp_sup(conjugate(psi, 1.0)) / (math.e**2)
    return c * u * u


def empirical_tail(samples, y):
    """max of the two one-sided empirical tail frequencies at level y."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise DomainError("empty sample")
    return float(max(np.mean(x >= y), np.mean(x <= -y)))
