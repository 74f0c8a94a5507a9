"""Partial-sum diagnostics for dependent stationary sequences.

Mixing profiles map a lag k to exact coefficients; from these and the
sequence's natural generating function the two summability sequences are
built, and Monte Carlo estimates of the normalized partial-sum variance are
compared against closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fundamental import fundamental
from .psi import MomentTable, natural_from_moments, product_zeta, scan_bound
from .finite import _log_moments, _mixing_pair

_DEFAULT_P_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)


@dataclass(frozen=True, eq=False)
class CltProfile:
    """Lag-indexed mixing coefficients plus the sequence's natural function.

    alpha_seq[k-1] and beta_seq[k-1] hold the coefficients at lag k for
    k = 1..K; the summability sequences start at k = 2.
    """

    alpha_seq: np.ndarray
    beta_seq: np.ndarray
    psi_gamma: object
    K: int

    def __post_init__(self):
        a = np.asarray(self.alpha_seq, dtype=float)
        b = np.asarray(self.beta_seq, dtype=float)
        object.__setattr__(self, "alpha_seq", a)
        object.__setattr__(self, "beta_seq", b)
        if self.K < 2:
            raise DomainError("profile horizon K must be at least 2")
        if a.size < self.K or b.size < self.K:
            raise DomainError("mixing sequences must cover lags 1..K")
        for seq in (a, b):
            if np.any((seq < 0) | (seq > 1)):
                raise DomainError("mixing coefficients must lie in [0, 1]")


def _require_nontrivial(psi):
    hi = scan_bound(psi)
    ps = np.geomspace(min(1.0 + 1e-9, hi), hi, 64)
    finite = np.isfinite(psi.log_eval(ps)) & (ps > 1.0)
    if not np.any(finite):
        raise DomainError(
            "natural function trivial: finite at no p > 1, so the summability "
            "sequences are undefined"
        )


def y_sequence(profile, n_grid=512):
    """y(k) = alpha(k) / phi^2(alpha(k)) for k = 2..K; 0 where alpha(k) = 0.

    The ratio at alpha = 0 is 0/0 in the raw formula; it is defined as 0 by
    monotone continuity.
    """
    _require_nontrivial(profile.psi_gamma)
    out = np.zeros(profile.K - 1)
    cache = {}
    for k in range(2, profile.K + 1):
        a = float(profile.alpha_seq[k - 1])
        if a == 0.0:
            continue
        if a not in cache:
            phi = fundamental(profile.psi_gamma, a, n_grid=n_grid).value
            cache[a] = a / phi**2
        out[k - 2] = cache[a]
    return out


def z_sequence(profile, n_grid=512):
    """z(k) = 1 / phi[G zeta](1/beta(k)) with zeta(p) = psi(p) psi(p/(p-1))."""
    _require_nontrivial(profile.psi_gamma)
    zeta = product_zeta(profile.psi_gamma, profile.psi_gamma)
    out = np.zeros(profile.K - 1)
    cache = {}
    for k in range(2, profile.K + 1):
        b = float(profile.beta_seq[k - 1])
        if b == 0.0:
            continue
        if b not in cache:
            try:
                phi = fundamental(zeta, 1.0 / b, n_grid=n_grid).value
            except DomainError:
                raise DomainError("product generating function nowhere finite")
            cache[b] = 1.0 / phi
        out[k - 2] = cache[b]
    return out


@dataclass(frozen=True)
class SummabilityReport:
    partial_sum: float
    tail_ratio: float
    verdict: str  # summable_evidence | divergent_evidence | inconclusive
    block_sums: tuple
    note: str = "finite data cannot certify summability of an infinite series"


def summability_report(seq, K=None):
    """Evidence-level verdict from dyadic block sums of the term sequence.

    Blocks C_j = sum over (n/2^j, n/2^(j-1)] shrink geometrically for any
    geometrically-or-faster decaying sequence (summable evidence) and
    stabilize for a divergent one; slowly-summable tails land in between and
    are honestly reported as inconclusive.
    """
    seq = np.asarray(seq, dtype=float)
    n = seq.size
    if K is not None and K < 16 or n < 15:
        raise DomainError("summability diagnostics need a horizon K >= 16")
    total = float(seq.sum())
    half = float(seq[: n // 2].sum())
    tail_ratio = (total - half) / half if half > 0 else 0.0
    edges = [n]
    while edges[-1] > 8:
        edges.append(edges[-1] // 2)
    blocks = [float(seq[b:a].sum()) for a, b in zip(edges, edges[1:])]
    blocks.reverse()  # ordered by increasing lag
    last = blocks[-1]
    prev = blocks[-2] if len(blocks) > 1 else 0.0
    if last == 0.0:
        verdict = "summable_evidence"
    elif prev > 0 and last >= 0.95 * prev:
        verdict = "divergent_evidence"
    else:
        ratios = [
            b / a for a, b in zip(blocks, blocks[1:]) if a > 0
        ][-4:]
        if ratios and max(ratios) <= 0.8:
            verdict = "summable_evidence"
        else:
            verdict = "inconclusive"
    return SummabilityReport(total, tail_ratio, verdict, tuple(blocks))


# ---------------------------------------------------------------------------
# sequence models and Monte Carlo variance of partial sums


@dataclass(frozen=True, eq=False)
class MDependentModel:
    """Moving average gamma(i) = sum_j coeffs[j] eps(i+j), eps iid N(0,1)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.coeffs:
            raise DomainError("m-dependent model needs at least one coefficient")

    @property
    def m(self):
        return len(self.coeffs) - 1

    def autocovariance(self, k):
        c = np.asarray(self.coeffs)
        if k >= len(c):
            return 0.0
        return float(c[: len(c) - k] @ c[k:])

    def exact_sigma_n(self, n):
        acv = [self.autocovariance(k) for k in range(min(n, len(self.coeffs)))]
        return acv[0] + 2.0 * sum((1.0 - k / n) * acv[k] for k in range(1, len(acv)))


@dataclass(frozen=True, eq=False)
class FiniteMarkovModel:
    """Stationary finite-state chain observed through per-state values."""

    transition: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or v.size != t.shape[0]:
            raise DomainError("transition matrix must be square and match values")
        if np.any(t < 0) or np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-10):
            raise DomainError("transition matrix rows must be stochastic")

    def stationary(self):
        w, vecs = np.linalg.eig(self.transition.T)
        i = int(np.argmin(np.abs(w - 1.0)))
        pi = np.abs(np.real(vecs[:, i]))
        return pi / pi.sum()

    def mean(self):
        return float(self.stationary() @ self.values)


@dataclass(frozen=True, eq=False)
class UserSamplesModel:
    """Pre-simulated paths, one replication per row; centered at the grand mean."""

    paths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "paths", np.asarray(self.paths, dtype=float))
        if self.paths.ndim != 2:
            raise DomainError("user samples must be a replications x length matrix")


@dataclass(frozen=True)
class SigmaEstimate:
    n: int
    mean: float
    sigma_n: float
    se: float


def _paths_ma(model, n, reps, rng):
    m = model.m
    eps = rng.standard_normal((reps, n + m))
    out = np.zeros((reps, n))
    for j, c in enumerate(model.coeffs):
        out += c * eps[:, j : j + n]
    return out


def _paths_markov(model, n, reps, rng):
    pi = model.stationary()
    cum = np.cumsum(model.transition, axis=1)
    state = rng.choice(len(pi), size=reps, p=pi)
    vals = np.empty((reps, n))
    centered = model.values - model.mean()
    vals[:, 0] = centered[state]
    for t in range(1, n):
        u = rng.random(reps)
        state = (u[:, None] > cum[state]).sum(axis=1)
        vals[:, t] = centered[state]
    return vals


def sigma_n_estimate(model, n_grid, replications=2000, seed=0):
    """Monte Carlo Var(n^(-1/2) sum gamma(i)) per n, with standard errors."""
    results = []
    for idx, n in enumerate(n_grid):
        rng = np.random.default_rng((seed, idx))
        if isinstance(model, MDependentModel):
            paths = _paths_ma(model, n, replications, rng)
        elif isinstance(model, FiniteMarkovModel):
            paths = _paths_markov(model, n, replications, rng)
        elif isinstance(model, UserSamplesModel):
            if model.paths.shape[1] < n:
                raise DomainError("user sample paths shorter than requested n")
            paths = model.paths[:, :n] - model.paths.mean()
        else:
            raise DomainError(f"unknown sequence model {type(model).__name__}")
        s = paths.sum(axis=1) / math.sqrt(n)
        dev2 = (s - s.mean()) ** 2
        var = float(dev2.mean())
        se = float(dev2.std(ddof=1) / math.sqrt(dev2.size))
        results.append(SigmaEstimate(int(n), float(s.mean()), var, se))
    return results


def natural_function_of_markov(model, p_grid=_DEFAULT_P_GRID):
    """Natural generating function of gamma(0) under the stationary law."""
    lms = _log_moments(model.stationary(), model.values - model.mean(), p_grid)
    entries = [(p, math.exp(v / p)) for p, v in zip(p_grid, lms.tolist())]
    return natural_from_moments(MomentTable(tuple(entries)))


def markov_mixing_profile(model, K, p_grid=_DEFAULT_P_GRID):
    """Exact single-coordinate mixing profile of a finite chain.

    Coefficients are computed for the fields generated by the single
    coordinates (state at time 0, state at time k), which is a lower bound
    on the full past/future coefficients: infinite pasts are not enumerable.
    """
    pi = model.stationary()
    alpha_seq = np.zeros(K)
    beta_seq = np.zeros(K)
    # repeated matrix powers accumulate rounding error, so coefficients below
    # this floor are indistinguishable from noise and reported as exact zeros
    noise_floor = 4096.0 * np.finfo(float).eps
    pk = np.eye(pi.size)
    for k in range(1, K + 1):
        pk = pk @ model.transition
        a, b = _mixing_pair(pi[:, None] * pk)
        alpha_seq[k - 1] = a if a > noise_floor else 0.0
        beta_seq[k - 1] = b if b > noise_floor else 0.0
    psi = natural_function_of_markov(model, p_grid)
    return CltProfile(alpha_seq, beta_seq, psi, K)
