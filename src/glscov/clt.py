"""Partial-sum diagnostics for dependent stationary sequences.

Mixing profiles map a lag k to exact coefficients; from these and the
sequence's natural generating function the two summability sequences are
built, and Monte Carlo estimates of the normalized partial-sum variance are
compared against closed forms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _optimize
from .errors import DomainError
from .fundamental import _exp_sup, _log_fundamentals, _log_inverse, _over_phi, _sups
from .psi import MomentTable, natural_from_moments, product_zeta
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
            if not np.all((seq >= 0) & (seq <= 1)):  # NaN fails both
                raise DomainError("mixing coefficients must lie in [0, 1]")


def _require_nontrivial(psi):
    """DomainError unless psi's table on [1, b), which y scans, is finite at a p > 1."""
    us, logs, _ = _optimize.psi_table(psi, 1.0)
    if not np.any(np.isfinite(logs) & (us < 1.0)):
        raise DomainError(
            "natural function trivial: finite at no p > 1, so the summability "
            "sequences are undefined"
        )


def _lag_terms(coeffs, K, term):
    """term(c) at each lag k = 2..K, from one list call on the distinct
    nonzero coefficients c(k); 0 where c(k) = 0."""
    lags = coeffs[1:K]
    out = np.zeros(K - 1)
    nonzero = lags != 0.0
    distinct, at = np.unique(lags[nonzero], return_inverse=True)
    if distinct.size:
        out[nonzero] = np.array(term(distinct.tolist()))[at]
    return out


def y_sequence(profile):
    """y(k) = alpha(k) / phi^2(alpha(k)) for k = 2..K; 0 where alpha(k) = 0.

    The ratio at alpha = 0 is 0/0 in the raw formula; it is defined as 0 by
    monotone continuity.
    """
    _require_nontrivial(profile.psi_gamma)

    def term(alphas):
        _, lns = _log_fundamentals(profile.psi_gamma, alphas)
        return [_y_term(a, f) for a, f in zip(alphas, lns)]

    return _lag_terms(profile.alpha_seq, profile.K, term)


def z_sequence(profile):
    """z(k) = 1 / phi[G zeta](1/beta(k)) with zeta(p) = psi(p) psi(p/(p-1)).

    The sup reads ln phi at ln(1/beta), or at -ln beta for a subnormal beta,
    where 1/beta overflows, as `gls_strong_bound` does.
    """
    _require_nontrivial(profile.psi_gamma)
    zeta = product_zeta(profile.psi_gamma, profile.psi_gamma)

    def term(betas):
        _, lns = _sups(zeta, [_log_inverse(b) for b in betas], 1.0)
        if -math.inf in lns:  # then it is -inf for every beta
            raise DomainError("product generating function nowhere finite")
        return [_over_phi(1.0, f) for f in lns]

    return _lag_terms(profile.beta_seq, profile.K, term)


def _y_term(alpha, log_phi):
    """alpha / phi^2; in logs where phi^2 or the quotient leaves the float
    range, and DomainError (`_exp_sup`) where that does too."""
    try:
        out = alpha / math.exp(log_phi) ** 2
    except (OverflowError, ZeroDivisionError):  # phi^2 past the float range, or 0
        out = math.inf
    if out < math.inf:
        return out
    return _exp_sup(math.log(alpha) - 2.0 * log_phi)  # alpha > 0: `_lag_terms` skips 0


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
        if not all(math.isfinite(c) for c in self.coeffs):
            raise DomainError("m-dependent coefficients must be finite")

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
    """Stationary finite-state chain observed through per-state values.

    The model holds read-only copies of its arrays, so its stationary law is
    computed once.
    """

    transition: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.transition, dtype=float)
        v = np.array(self.values, dtype=float)
        t.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or v.size != t.shape[0]:
            raise DomainError("transition matrix must be square and match values")
        if not np.all(np.isfinite(t)):
            raise DomainError("transition matrix entries must be finite")
        if not np.all(np.isfinite(v)):
            raise DomainError("values must be finite")
        if np.any(t < 0) or np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-10):
            raise DomainError("transition matrix rows must be stochastic")

    @cached_property
    def _stationary(self):
        w, vecs = np.linalg.eig(self.transition.T)
        i = int(np.argmin(np.abs(w - 1.0)))
        pi = np.abs(np.real(vecs[:, i]))
        pi = pi / pi.sum()
        pi.flags.writeable = False
        return pi

    def stationary(self):
        """The stationary law pi (read-only)."""
        return self._stationary

    def mean(self):
        return float(self.stationary() @ self.values)

    def exact_sigma_n(self, n):
        """Var(n^(-1/2) sum gamma(i)) = g_0 + 2 sum_{k<n} (1 - k/n) g_k of the
        stationary chain, with autocovariances g_k = sum_i pi_i c_i (P^k c)_i
        of the centred values c."""
        if n < 1:
            raise DomainError("n must be at least 1")
        pi = self.stationary()
        c = self.values - self.mean()
        acv, pk_c = [], c
        for _ in range(n):
            acv.append(float(pi @ (c * pk_c)))
            pk_c = self.transition @ pk_c
        return acv[0] + 2.0 * sum((1.0 - k / n) * acv[k] for k in range(1, n))


@dataclass(frozen=True, eq=False)
class UserSamplesModel:
    """Pre-simulated paths, one replication per row; centered at the grand mean."""

    paths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "paths", np.asarray(self.paths, dtype=float))
        if self.paths.ndim != 2:
            raise DomainError("user samples must be a replications x length matrix")
        if self.paths.shape[0] < 2:
            raise DomainError("user samples need at least 2 replications")
        if not np.all(np.isfinite(self.paths)):
            raise DomainError("user samples must be finite")


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


#: guide-table buckets per state at most; a power of two, so u B and cum B
#: are exact
_GUIDE_BUCKETS = 1 << 10

#: uniforms drawn at once (32 kB): larger blocks raised peak memory and were
#: no faster
_DRAW_BLOCK = 1 << 12


def _paths_markov(model, n, reps, rng):
    """Paths of the stationary chain, one replication per row of a
    C-contiguous (reps, n) array of centred values.

    The state after s on a uniform u is #{j : cum[s, j] < u}, found by
    guide-table inversion (Chen & Asau 1974; Devroye 1986, ch. III) over B
    buckets: guide[s, b] counts the cuts with floor(cum B) < b, all of them
    below any u in bucket b = floor(u B), and each of `passes` compare-and-add
    steps moves past one more cut of u's own bucket.  The count is exact, ties
    and repeated cuts included, so the paths equal a direct count's.
    """
    pi = model.stationary()
    k = pi.size
    cum = np.cumsum(model.transition, axis=1)
    # rows may sum to 1 within rounding: the last state takes the slack
    cum[:, -1] = np.maximum(cum[:, -1], 1.0)
    B = _GUIDE_BUCKETS
    while B > 1 and k * B > _optimize.CHUNK_ELEMENTS:
        B //= 2
    cum *= B
    cuts = np.floor(cum).astype(np.intp)
    # a row of the guide has B + 1 columns: column b + 1 first counts the
    # cuts in bucket b, then the running sum makes column b the cuts below b
    width = B + 1
    rows, cols = np.nonzero(cuts < B)
    guide = np.bincount(rows * width + cuts[rows, cols] + 1, minlength=k * width)
    passes = int(guide.max(initial=0))
    guide = guide.reshape(k, width)
    np.cumsum(guide, axis=1, out=guide)
    # the guide holds flat indices s k + j into cum; next_base maps one to
    # the next step's guide row offset j (B + 1), value to the centred value
    guide += (k * np.arange(k))[:, None]
    guide, cum = guide.ravel(), cum.ravel()
    next_base = np.tile(width * np.arange(k), k)
    centered = model.values - model.mean()
    value = np.tile(centered, k)

    state = rng.choice(k, size=reps, p=pi)
    vals = np.empty((reps, n))
    vals[:, 0] = centered[state]
    base = state * width
    # a block of consecutive steps' uniforms is the stream of one draw a step
    step = max(1, min(_DRAW_BLOCK, _optimize.CHUNK_ELEMENTS) // reps)
    for lo in range(1, n, step):
        us = rng.random((min(step, n - lo), reps))
        us *= B
        for t, u in enumerate(us, lo):
            at = guide.take(base + u.astype(np.intp))
            for _ in range(passes):
                at += u > cum.take(at)
            base = next_base.take(at)
            vals[:, t] = value.take(at)
    return vals


def sigma_n_estimate(model, n_grid, replications=2000, seed=0):
    """Monte Carlo Var(n^(-1/2) sum gamma(i)) per n, with standard errors.

    Every n must be an integer (a Python or numpy one) of at least 1, and
    `replications` at least 2; a user-sample model reads its own rows as the
    replications.
    """
    if replications < 2:
        raise DomainError("replications must be at least 2 for a standard error")
    if not all(isinstance(n, numbers.Integral) for n in n_grid):
        raise DomainError("n must be an integer")
    if any(n < 1 for n in n_grid):
        raise DomainError("n must be at least 1")
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
    """Exact past/future mixing profile of a finite chain.

    Coefficients are computed for the fields generated by the single
    coordinates (state at time 0, state at time k).  For a Markov chain these
    equal the coefficients of the full past and future (Bradley, Probab.
    Surveys 2, 2005, section 7).
    """
    pi = model.stationary()
    alpha_seq, beta_seq = np.empty(K), np.empty(K)
    # the joint laws P(X_0 = i, X_k = j) of a chunk of lags, below the cap
    step = max(1, _optimize.CHUNK_ELEMENTS // pi.size**2)
    pk = np.eye(pi.size)
    for lo in range(0, K, step):
        joints = np.empty((min(step, K - lo), pi.size, pi.size))
        for joint in joints:
            pk = pk @ model.transition
            np.multiply(pi[:, None], pk, out=joint)
        alpha_seq[lo : lo + step], beta_seq[lo : lo + step] = _mixing_pair(joints)
    # repeated matrix powers accumulate rounding error, so coefficients below
    # this floor are indistinguishable from noise and reported as exact zeros
    noise_floor = 4096.0 * np.finfo(float).eps
    alpha_seq = np.where(alpha_seq > noise_floor, alpha_seq, 0.0)
    beta_seq = np.where(beta_seq > noise_floor, beta_seq, 0.0)
    psi = natural_function_of_markov(model, p_grid)
    return CltProfile(alpha_seq, beta_seq, psi, K)
