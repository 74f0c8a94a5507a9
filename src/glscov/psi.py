"""Generating functions for Grand Lebesgue Spaces and the norms they induce.

A generating function psi lives on [1, b) for a support bound b in (1, inf];
beyond a finite b it is extended by +inf.  All evaluation happens in log
space and in the scan coordinate u = 1/p of every sup (`log_u`), vectorized
over numpy arrays, so products and suprema never overflow.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError

#: numeric stand-in for p -> infinity when the support is unbounded
P_MAX = 1.0e6

#: positivity floor for tabulated generating functions
PSI_FLOOR = 1e-300
_LOG_FLOOR = math.log(PSI_FLOOR)

#: log_u_jet outside the support: g = +inf, no derivatives
_OUTSIDE = (math.inf, math.nan, math.nan)


def logsumexp(a, axis=None):
    """ln sum exp(a) over `axis` (all of `a` when None), shifted by the maximum.

    The shift keeps exp from overflowing; a slice that is all -inf gives -inf.
    """
    a = np.asarray(a, dtype=float)
    # ndarray methods rather than np.max / np.sum: the callers pass a few
    # atoms at a time, where numpy's Python-level dispatch is the main cost
    m = a.max(axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(divide="ignore"):
        s = np.log(np.exp(a - m).sum(axis=axis))
    return s + m.squeeze(axis=axis)


def conjugate_exponent(p):
    """p -> p/(p-1), with 1 -> inf and inf -> 1 (vectorized)."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = p / (p - 1.0)
    out = np.where(p == 1.0, np.inf, out)
    out = np.where(np.isinf(p), 1.0, out)
    return out


@dataclass(frozen=True, eq=False)
class PsiFunction:
    """A generating function: immutable, pure, safe to share across threads.

    kind is one of power / finite_support / extremal / tabulated / empirical
    / product / dual.  `b` is the support bound (math.inf when unbounded);
    `closed_at_b` tells whether psi is finite at p = b itself (extremal and
    tabulated kinds are).
    """

    kind: str
    b: float
    closed_at_b: bool = False
    params: dict = field(default_factory=dict)
    left: "PsiFunction | None" = None
    right: "PsiFunction | None" = None

    @cached_property
    def _table(self):
        """(u, ln psi(1/u)) at the breakpoints of a piecewise log-linear psi.

        ln psi(1/u) is finite exactly on [u[0], u[-1]] and linear in u between
        consecutive breakpoints.  Read only where `breakpoints` is not None:
        caching anything on another psi would build its instance __dict__,
        which made its scalar evaluations ~20% slower (CPython 3.11).
        """
        if self.kind == "product":
            # the right factor is read at w = 1 - u; lo and hi are elements of
            # the union, so both closed support ends stay breakpoints
            (ul, ll), (wr, lr) = self.left._table, self.right._table
            mirrored = 1.0 - wr
            lo, hi = max(ul[0], mirrored[-1]), min(ul[-1], mirrored[0])
            us = np.unique(np.concatenate([ul, mirrored]))
            us = us[(us >= lo) & (us <= hi)]
            right = np.interp(1.0 - us, wr, lr)
            # at its own breakpoints the right factor takes its knot values:
            # 1 - (1 - w) need not round back to w, and a steep cell would
            # carry that rounding into the value
            own = (mirrored >= lo) & (mirrored <= hi)
            right[np.searchsorted(us, mirrored[own])] = lr[own]
            return us, np.interp(us, ul, ll) + right
        pts = sorted(self.params["points"])
        ps = np.array([p for p, _ in pts], dtype=float)
        vals = np.array([v for _, v in pts], dtype=float)
        # linear in (1/p, log psi); ascending in u = 1/p
        us, logs = 1.0 / ps[::-1], np.log(np.maximum(vals[::-1], PSI_FLOOR))
        if us[-1] < 1.0:  # the flat extension on [1, p_min) ends at u = 1
            us, logs = np.append(us, 1.0), np.append(logs, logs[-1])
        return us, logs

    @property
    def breakpoints(self):
        """The u = 1/p breakpoints of a piecewise log-linear psi, ascending.

        tabulated and empirical: the knots, and u = 1 where the flat
        extension below the first knot ends.  A product of two piecewise
        factors: the left factor's breakpoints and one minus the right
        factor's, within the range where both are finite.  None for every
        other kind.  ln psi(1/u) is finite exactly on [first, last] and linear
        in u between consecutive breakpoints, so a sup of a function linear
        or monotone in u on each cell sits on one of them or at a scan end.
        """
        k = self.kind
        if k in ("tabulated", "empirical") or (k == "product" and self.params["piecewise"]):
            return self._table[0]
        return None

    def log_u(self, u):
        """ln psi(1/u) on u in [0, 1] (scalar or ndarray); +inf outside support.

        Every sup scans u = 1/p, and psi is read there directly: no p is
        rebuilt from 1/u, which can round past a closed support end.  u = 0
        stands for p = infinity.
        """
        u = np.asarray(u, dtype=float)
        k = self.kind
        if k == "power":
            with np.errstate(divide="ignore"):
                return -np.log(u) / self.params["m"]
        if k == "finite_support":
            b, beta = self.params["b"], self.params["beta"]
            with np.errstate(divide="ignore", over="ignore"):
                p = 1.0 / u
            out = np.full(u.shape, np.inf)
            # u = 1/b stands for p = b, outside the open support, however
            # 1/u rounds; p < b keeps b - p positive
            inside = (u > 1.0 / b) & (p < b)
            out[inside] = -beta * np.log(b - p[inside])
            return out
        if k == "extremal":
            return np.where(u >= 1.0 / self.params["r"], 0.0, np.inf)
        if k == "dual":
            return self.left.log_u(1.0 - u)
        if k == "product" and not self.params["piecewise"]:
            # a dual right factor read at 1 - u is its inner psi read at u:
            # reading that directly skips the rounding of 1 - (1 - u), which
            # at large p costs ln psi most of its relative precision
            r = self.right
            right = r.left.log_u(u) if r.kind == "dual" else r.log_u(1.0 - u)
            return self.left.log_u(u) + right
        if self.breakpoints is None:
            raise ValueError(f"unknown generating-function kind {k!r}")
        bp, logs = self._table
        if bp.size == 0:
            return np.full(u.shape, np.inf)
        return np.where((u >= bp[0]) & (u <= bp[-1]), np.interp(u, bp, logs), np.inf)

    @property
    def smooth(self):
        """Whether ln psi(1/u) is smooth inside its support.

        power and finite_support, and duals and products built only from
        these: `log_u_jet` then gives an exact g'' as well, and a sup over u
        refines by Newton.  extremal, tabulated and empirical psi, and
        anything with such a factor, are not.
        """
        k = self.kind
        if k in ("power", "finite_support"):
            return True
        if k == "dual":
            return self.left.smooth
        return k == "product" and self.left.smooth and self.right.smooth

    @cached_property
    def _knots(self):
        """`_table` as two lists, for the bisection of `log_u_jet`."""
        return tuple(a.tolist() for a in self._table)

    def log_u_jet(self, u):
        """(g, g', g'') of g(u) = ln psi(1/u) at one float u: log_u's scalar twin.

        One formula per kind, the chain rule for a dual (inner psi at 1 - u)
        and a product (right factor at 1 - u).  A piecewise psi reads g and
        the slope of the cell holding u (the right one at a breakpoint) off
        one bisection, with np.interp's arithmetic, and g'' = 0.  Outside the
        support g = +inf, the one outside marker; g' and g'' are NaN there.
        """
        k = self.kind
        if k == "power":
            if u <= 0.0:
                return _OUTSIDE
            m = self.params["m"]
            s = m * u * u  # underflows to 0 for u below about 1e-162
            return -math.log(u) / m, -1.0 / (m * u), 1.0 / s if s else math.inf
        if k == "finite_support":
            b = self.params["b"]
            d = b - 1.0 / u if u > 1.0 / b else 0.0  # positive exactly inside
            if d <= 0.0:
                return _OUTSIDE
            beta, s = self.params["beta"], u * u * d  # s = b u^2 - u
            return -beta * math.log(d), -beta / s, beta * (1.0 + 2.0 * u * d) / (s * s)
        if k == "extremal":
            return (0.0, 0.0, 0.0) if u >= 1.0 / self.params["r"] else _OUTSIDE
        if k == "dual":
            g, d1, d2 = self.left.log_u_jet(1.0 - u)
            return g, -d1, d2
        if k == "product" and not self.params["piecewise"]:
            # a dual right factor at 1 - u is its inner psi at u, as in log_u
            r, dual = self.right, self.right.kind == "dual"
            rg, r1, r2 = r.left.log_u_jet(u) if dual else r.log_u_jet(1.0 - u)
            lg, l1, l2 = self.left.log_u_jet(u)
            return lg + rg, l1 + r1 if dual else l1 - r1, l2 + r2
        if self.breakpoints is None:
            raise ValueError(f"unknown generating-function kind {k!r}")
        us, logs = self._knots
        if not (us and us[0] <= u <= us[-1]):
            return _OUTSIDE
        if len(us) == 1:
            return logs[0], 0.0, 0.0
        i = min(bisect_right(us, u), len(us) - 1)
        slope = (logs[i] - logs[i - 1]) / (us[i] - us[i - 1])
        g = logs[i] if u == us[i] else slope * (u - us[i - 1]) + logs[i - 1]
        return g, slope, 0.0

    def log_eval(self, p):
        """ln psi(p) for p >= 1 (scalar or ndarray); +inf outside support.

        The p-space entry to `log_u`, for callers that hold exponents.
        """
        p = np.asarray(p, dtype=float)
        # ndarray.any skips np.any's Python-level dispatch
        if (p < 1.0).any():
            raise DomainError("generating functions are defined for p >= 1 only")
        return self.log_u(1.0 / p)

    def __call__(self, p):
        return eval_psi(self, p)


def power(m):
    """psi(p) = p^(1/m) on [1, inf)."""
    if m <= 0:
        raise DomainError("power family requires m > 0")
    return PsiFunction("power", math.inf, params={"m": float(m)})


def finite_support(b, beta):
    """psi(p) = (b - p)^(-beta) on [1, b), +inf beyond."""
    if b <= 1:
        raise DomainError("finite-support family requires b > 1")
    if beta < 0:
        raise DomainError("finite-support family requires beta >= 0")
    return PsiFunction(
        "finite_support", float(b), params={"b": float(b), "beta": float(beta)}
    )


def extremal(r):
    """psi identically 1 on [1, r], +inf beyond: the plain L_r space."""
    if r <= 1:
        raise DomainError("extremal family requires r > 1")
    return PsiFunction("extremal", float(r), closed_at_b=True, params={"r": float(r)})


def tabulated(points, kind="tabulated"):
    """Piecewise function through (p, psi(p)) knots, linear in (1/p, log psi)."""
    pts = sorted((float(p), float(v)) for p, v in points)
    if not pts:
        raise DomainError("tabulated generating function needs at least one knot")
    if any(p < 1.0 for p, _ in pts):
        raise DomainError("tabulated knots require p >= 1")
    if any(v <= 0 or not math.isfinite(v) for _, v in pts):
        raise DomainError("tabulated knot values must be positive and finite")
    return PsiFunction(kind, pts[-1][0], closed_at_b=True, params={"points": tuple(pts)})


def eval_psi(psi, p):
    """psi(p) as a float; +inf exactly when p is outside the support."""
    if p < 1.0:
        raise DomainError("p must lie in [1, infinity)")
    return float(np.exp(psi.log_eval(np.array([float(p)]))[0]))


def dual_psi(psi):
    """The dual generating function p -> psi(p/(p-1)); needs unbounded support.

    For a finite support bound the dual space collapses to the essentially
    bounded variables and has no generating-function representation.
    """
    if math.isfinite(psi.b):
        raise DomainError(
            "dual of a finite-support generating function degenerates to the "
            "essentially-bounded space and is not representable"
        )
    return PsiFunction("dual", math.inf, left=psi)


@lru_cache(maxsize=8)
def product_zeta(psi, nu):
    """p -> psi(p) * nu(p/(p-1)); +inf wherever either factor is.

    The same (psi, nu) objects give the same product object, so its cached
    scan tables are reused across calls.  Whether both factors are piecewise
    is decided once here, so a smooth product's evaluation never tests them.
    """
    piecewise = psi.breakpoints is not None and nu.breakpoints is not None
    return PsiFunction("product", psi.b, closed_at_b=psi.closed_at_b,
                       params={"piecewise": piecewise}, left=psi, right=nu)


def scan_bound(psi):
    """Largest p worth scanning: min(b, P_MAX)."""
    return min(psi.b, P_MAX)


# ---------------------------------------------------------------------------
# moment tables and natural functions


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Finite list of (p, |zeta|_p) values with strictly increasing p.

    Values must be non-decreasing in p (Lyapunov monotonicity on a
    probability space), up to 1e-12 slack.
    """

    entries: tuple
    provenance: str = "analytic"

    def __post_init__(self):
        ents = tuple((float(p), float(v)) for p, v in self.entries)
        object.__setattr__(self, "entries", ents)
        if not ents:
            raise DomainError("moment table must be non-empty")
        ps = [p for p, _ in ents]
        vs = [v for _, v in ents]
        if any(p < 1.0 for p in ps):
            raise DomainError("moment table requires p >= 1")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise DomainError("moment table p values must be strictly increasing")
        if any(v < 0 for v in vs):
            raise DomainError("moment table values must be non-negative")
        if any(b < a - 1e-12 for a, b in zip(vs, vs[1:])):
            raise DomainError("moment table violates L_p monotonicity")


def lp_norm_of_samples(samples, p):
    """(mean |x|^p)^(1/p), computed in log space so large p cannot overflow."""
    x = np.abs(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise DomainError("empty sample")
    if p < 1.0:
        raise DomainError("p must lie in [1, infinity)")
    if math.isinf(p):
        return float(x.max())
    nz = x[x > 0]
    if nz.size == 0:
        return 0.0
    lse = logsumexp(p * np.log(nz)) - math.log(x.size)
    return float(math.exp(lse / p))


def moments_from_samples(samples, p_grid, seed=None):
    """Empirical MomentTable of a sample at the given p grid."""
    x = np.asarray(samples, dtype=float)
    entries = [(p, lp_norm_of_samples(x, p)) for p in sorted(p_grid)]
    tag = f"sample({x.size},{seed})" if seed is not None else f"sample({x.size})"
    return MomentTable(tuple(entries), provenance=tag)


def natural_from_moments(table):
    """Generating function interpolating a moment table.

    Requires a finite positive value at some p > 1; knots are clamped below
    by the positivity floor and the support bound is the largest tabulated p.
    """
    ok = any(p > 1.0 and 0.0 < v < math.inf for p, v in table.entries)
    if not ok:
        raise DomainError("natural function trivial: no finite moment at any p > 1")
    pts = [(p, max(v, PSI_FLOOR)) for p, v in table.entries if math.isfinite(v)]
    kind = "empirical" if table.provenance.startswith("sample") else "tabulated"
    return tabulated(pts, kind=kind)


@dataclass(frozen=True)
class GlsNorm:
    value: float
    argmax_p: float


def gls_norm(table, psi):
    """Lower estimate of sup_p |zeta|_p / psi(p) over the table's p grid."""
    ps = np.array([p for p, _ in table.entries])
    vs = np.array([v for _, v in table.entries])
    with np.errstate(divide="ignore"):
        logs = np.where(vs > 0, np.log(np.maximum(vs, PSI_FLOOR)), -np.inf)
    f = logs - psi.log_eval(ps)
    i = int(np.argmax(f))
    val = 0.0 if f[i] == -np.inf else float(np.exp(f[i]))
    return GlsNorm(val, float(ps[i]))


# ---------------------------------------------------------------------------
# JSON serialization


def psi_to_obj(psi):
    k = psi.kind
    if k == "power":
        return {"kind": "power", "m": psi.params["m"]}
    if k == "finite_support":
        return {"kind": "finite_support", "b": psi.params["b"], "beta": psi.params["beta"]}
    if k == "extremal":
        return {"kind": "extremal", "r": psi.params["r"]}
    if k in ("tabulated", "empirical"):
        return {"kind": "tabulated", "points": [[p, v] for p, v in psi.params["points"]]}
    if k == "product":
        return {"kind": "product", "left": psi_to_obj(psi.left), "right": psi_to_obj(psi.right)}
    if k == "dual":
        return {"kind": "dual", "inner": psi_to_obj(psi.left)}
    raise ValueError(f"unknown generating-function kind {k!r}")


def psi_from_obj(obj):
    """The generating function a `psi_to_obj` object describes; DomainError if malformed."""
    try:
        k = obj["kind"]
        if k == "power":
            return power(obj["m"])
        if k == "finite_support":
            return finite_support(obj["b"], obj["beta"])
        if k == "extremal":
            return extremal(obj["r"])
        if k == "tabulated":
            return tabulated([(p, v) for p, v in obj["points"]])
        if k == "product":
            return product_zeta(psi_from_obj(obj["left"]), psi_from_obj(obj["right"]))
        if k == "dual":
            return dual_psi(psi_from_obj(obj["inner"]))
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # a KeyError names the missing field
        raise DomainError(f"malformed generating function: {exc!r}") from None
    raise DomainError(f"unknown generating-function kind {k!r}")


def psi_to_json(psi):
    return json.dumps(psi_to_obj(psi))


def psi_from_json(text):
    return psi_from_obj(json.loads(text))


def moment_table_to_csv(table):
    lines = ["p,norm"]
    lines += [f"{p!r},{v!r}" for p, v in table.entries]
    return "\n".join(lines) + "\n"


def moment_table_from_csv(text, provenance="analytic"):
    rows = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not rows or rows[0].strip().lower() != "p,norm":
        raise DomainError("moment table CSV must start with header 'p,norm'")
    entries = []
    for ln in rows[1:]:
        a, b = ln.split(",")
        entries.append((float(a), float(b)))
    return MomentTable(tuple(entries), provenance=provenance)
