"""Exact ground truth on small finite probability spaces.

Sigma-fields are generated by partitions of the atoms, so the joint law of
two fields is the table of block-intersection masses.  Both mixing
coefficients reduce to one-sided problems on that table: beta is a maximum
over single blocks of one field, and alpha a maximum over the block unions
of the smaller field only.  The randomized campaign replays every covariance
bound against exact covariances and norms, computed for a chunk of
instances at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _optimize
from ._optimize import u_axis, zoom_cells
from .errors import DomainError
from .psi import logsumexp, power, scan_bound
from . import bounds as _bounds

#: scan points in u of every exact GLS norm, the campaign's and `gls_norm_exact`'s
_N_GRID = 256

#: elements of one array of `_log_moment_rows` at most (64 kB): the
#: campaign's working set stays near that of one instance at a time, where
#: larger arrays raised the benchmark's peak RSS
_TERMS_BLOCK = 1 << 13

#: alpha enumerates 2^(k-1) block unions of the smaller field, k blocks;
#: a pair of fields that both have more blocks than this is refused
MAX_BLOCKS = 12


@dataclass(frozen=True, eq=False)
class FiniteProbSpace:
    """Atomic probability space: strictly positive masses summing to one."""

    atom_probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.atom_probs, dtype=float)
        object.__setattr__(self, "atom_probs", p)
        _check_masses(p.reshape(1, -1), np.ones((1, p.size), dtype=bool))


def _check_masses(probs, real):
    """Each row of `probs` is a law: its masses where `real` strictly
    positive, summing to 1; every other entry is a zero pad.  NaN fails."""
    if not real.any(axis=1).all() or not np.all(probs[real] > 0):
        raise DomainError("atom probabilities must be strictly positive")
    if not np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12):
        raise DomainError("atom probabilities must sum to 1")


@dataclass(frozen=True, eq=False)
class SigmaField:
    """Sub-sigma-field generated by a partition (block label per atom)."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=int)
        # relabel to 0..k-1 preserving first-appearance order, so blocks are
        # guaranteed non-empty
        _, lab = np.unique(lab, return_inverse=True)
        object.__setattr__(self, "labels", lab)

    @property
    def block_count(self):
        return int(self.labels.max()) + 1


@dataclass(frozen=True, eq=False)
class RandomVar:
    """Atom-indexed real function."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def is_measurable(self, sigma_field):
        """True iff constant on every block (exact comparison)."""
        lab = sigma_field.labels
        for block in range(sigma_field.block_count):
            vals = self.values[lab == block]
            if np.any(vals != vals[0]):
                return False
        return True


def _joint_law(space, field_f, field_g):
    """k_F x k_G table of block-intersection masses P(F_i G_j)."""
    joint = np.zeros((field_f.block_count, field_g.block_count))
    np.add.at(joint, (field_f.labels, field_g.labels), space.atom_probs)
    return joint


def _mixing_pair(joint):
    """(alpha, beta) of two partitions from their joint block law
    joint[i, j] = P(F_i G_j), by one-sided reductions.

    beta: for a fixed A the best B gives the total-variation distance between
    P(.|A) and P.  It is convex in P(.|A), a mixture of the single-block
    conditionals, so A is one block of F.  alpha: for a fixed union B of the
    smaller field's blocks, the best A collects the other field's blocks with
    d_i = P(A_i B) - P(A_i) P(B) > 0.  d(B^c) = -d(B) and the d_i sum to
    zero, so B and its complement give the same value, and B leaves out the
    last block.  Blocks of zero mass are dropped first.

    A stack of tables (..., k_F, k_G) gives two arrays of its shape (...), in
    a few array operations per set of dropped blocks; one 2-D table gives two
    floats.
    """
    stack = joint.reshape((-1,) + joint.shape[-2:])
    if not len(stack):
        return np.empty(joint.shape[:-2]), np.empty(joint.shape[:-2])
    rows, cols = stack.sum(axis=2) > 0, stack.sum(axis=1) > 0
    if len(stack) == 1 or ((rows == rows[0]).all() and (cols == cols[0]).all()):
        alpha, beta = _masked_mixing_pair(stack[:, rows[0]][:, :, cols[0]])
    else:  # one reduction per set of dropped blocks
        # each table's masks packed into one byte string: a 1-D unique
        keys = np.packbits(np.concatenate((rows, cols), axis=1), axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1])))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        alpha, beta = np.empty(len(stack)), np.empty(len(stack))
        for g, i in enumerate(first):
            at = inverse == g
            alpha[at], beta[at] = _masked_mixing_pair(stack[at][:, rows[i]][:, :, cols[i]])
    if joint.ndim == 2:
        return float(alpha[0]), float(beta[0])
    return alpha.reshape(joint.shape[:-2]), beta.reshape(joint.shape[:-2])


@lru_cache(maxsize=MAX_BLOCKS)
def _unions(k):
    """2^(k-1) x k indicators of the block unions that leave out the last block."""
    unions = ((np.arange(2 ** (k - 1))[:, None] >> np.arange(k)) & 1).astype(float)
    unions.flags.writeable = False
    return unions


def _masked_mixing_pair(tables):
    """(alpha, beta) arrays of a stack of joint laws without zero-mass blocks."""
    if min(tables.shape[1:]) > MAX_BLOCKS:
        raise DomainError(f"both fields have more than {MAX_BLOCKS} blocks")
    # each table column-major, like a masked 2-D table, so every reduction
    # below adds in the same order whether a table comes alone or stacked
    tables = np.ascontiguousarray(tables.transpose(0, 2, 1)).transpose(0, 2, 1)
    p_f, p_g = tables.sum(axis=2), tables.sum(axis=1)
    # the marginal is normalized, so a one-block field gives exact zeros
    cond = tables / p_f[:, :, None] - (p_g / p_g.sum(axis=1)[:, None])[:, None, :]
    beta = np.maximum(cond, 0.0).sum(axis=2).max(axis=1)
    if tables.shape[1] <= tables.shape[2]:
        small, p_small, p_other = tables, p_f, p_g
    else:
        small, p_small, p_other = tables.transpose(0, 2, 1), p_g, p_f
    unions = _unions(small.shape[1])
    alpha = np.empty(len(tables))
    # the union products of a chunk of tables stay below the element cap
    step = max(1, _optimize.CHUNK_ELEMENTS // (unions.shape[0] * small.shape[2]))
    for lo in range(0, len(tables), step):
        hi = lo + step
        d = unions @ small[lo:hi]
        d -= (unions @ p_small[lo:hi, :, None]) * p_other[lo:hi, None, :]
        alpha[lo:hi] = np.maximum(d, 0.0, out=d).sum(axis=2).max(axis=1)
    return alpha, beta


def alpha_coefficient(space, field_f, field_g):
    """Exact sup over event pairs of |P(AB) - P(A) P(B)|."""
    return _mixing_pair(_joint_law(space, field_f, field_g))[0]


def beta_coefficient(space, field_f, field_g):
    """Exact sup over event pairs with P(A) > 0 of |P(B|A) - P(B)|."""
    return _mixing_pair(_joint_law(space, field_f, field_g))[1]


def exact_cov(space, xi, eta):
    w = space.atom_probs
    return float(w @ (xi.values * eta.values) - (w @ xi.values) * (w @ eta.values))


def exact_lp(space, xi, p):
    """Exact L_p norm; p = +inf is the sup over atoms of positive mass."""
    if not p >= 1.0:
        raise DomainError("p must lie in [1, infinity]")
    if math.isinf(p):
        return float(np.abs(xi.values).max())
    return math.exp(float(_log_moments(space.atom_probs, xi.values, (p,))[0]) / p)


def _log_moments(probs, values, ps):
    """ln E|X|^p for each p in `ps`, X taking `values` with masses `probs`,
    from one batched logsumexp; -inf where X = 0 almost surely."""
    x = np.abs(values)
    nz = x > 0
    ps = np.asarray(ps, dtype=float)
    if not nz.any():
        return np.full(ps.size, -np.inf)
    return logsumexp(np.log(probs[nz]) + ps[:, None] * np.log(x[nz]), axis=1)


def _log_moment_rows(probs, values, ps):
    """`_log_moments` of each row of `probs` and `values`, bit for bit, as a
    (rows, len(ps)) array; atoms where a row's variable is 0, zero pads
    included, drop out.

    Rows with the same count m of nonzero atoms share a logsumexp, its steps
    done in place on an (m, rows, ps) array of at most `_TERMS_BLOCK`
    elements (one row when a row alone is larger).  Each row's sum adds its
    m terms in the order numpy gives a lone row of m contiguous terms: one
    after another for m < 8, as a sum across the atoms-first array does, and
    pairwise from 8 on, where the terms are laid out atoms-last.
    """
    x = np.abs(values)
    nz = x > 0
    counts = nz.sum(axis=1)
    out = np.full((len(x), ps.size), -np.inf)
    for m in np.unique(counts[counts > 0]).tolist():
        rows = np.flatnonzero(counts == m)
        step = max(1, _TERMS_BLOCK // (m * ps.size))
        for at in np.split(rows, range(step, rows.size, step)):
            kept = nz[at]
            log_p = np.log(probs[at][kept]).reshape(-1, m).T[:, :, None]
            terms = np.log(x[at][kept]).reshape(-1, m).T[:, :, None] * ps
            terms += log_p  # ln p_i + p ln |x_i|: finite, as every mass is positive
            top = terms.max(axis=0)
            terms -= top
            np.exp(terms, out=terms)
            if m < 8:
                sums = terms.sum(axis=0)
            else:
                sums = np.ascontiguousarray(np.moveaxis(terms, 0, -1)).sum(axis=-1)
            np.log(sums, out=sums)
            sums += top
            out[at] = sums
    return out


def gls_norm_exact(space, xi, psi):
    """sup over p of |xi|_p / psi(p), from exact moments on `_N_GRID` points in u
    and psi's kinks, zoomed on the best point's cells (`zoom_cells`)."""

    def log_norms(ps):
        return _log_moments(space.atom_probs, xi.values, ps) / ps

    us, ps = u_axis(scan_bound(psi), 1.0, _N_GRID)
    kinks = psi.kinks  # ln |xi|_(1/u) is convex in u: a piecewise psi's sup is at a kink or end
    us = np.union1d(us, kinks[(kinks > us[0]) & (kinks < 1.0)])
    ps = np.concatenate((ps[:1], 1.0 / us[1:-1], ps[-1:]))  # with the exact end exponents
    fs = log_norms(ps) - psi.log_u(us)
    i = int(np.argmax(fs))
    cell = zoom_cells(lambda ts: log_norms(1.0 / ts) - psi.log_u(ts), us, i, tol=1e-12)
    best = max(float(fs[i]), cell[1] if cell else -math.inf)
    return 0.0 if best == -math.inf else math.exp(best)


# ---------------------------------------------------------------------------
# randomized verification campaign


@dataclass(frozen=True)
class CampaignConfig:
    instances: int = 1000
    seed: int = 42
    max_atoms: int = 10
    max_blocks: int = 4
    slack: float = 1e-12


@dataclass
class CampaignReport:
    instances: int
    violations: int
    violation_details: list = field(default_factory=list)
    checks: int = 0
    min_slack_ratio: float = math.inf  # min over instances of bound/|Cov|
    tightest: dict | None = None
    rows: list = field(default_factory=list)


_PQ_GRID = [(2.0, 4.0), (4.0, 4.0), (4.0, 2.0), (8.0, 8.0)]
_IBRAGIMOV_P = [1.5, 2.0, 4.0]
#: the exponents at which the checks need each variable's exact L_p norm
#: (the union over xi and eta, since both share one log-moment matrix)
_LP_P = tuple(sorted({x for pq in _PQ_GRID for x in pq} | set(_IBRAGIMOV_P)
                     | {p / (p - 1.0) for p in _IBRAGIMOV_P}))
#: the campaign's generating functions, shared by every instance: the table
#: cache is keyed by the psi object, so per-instance copies would always miss
_PSI1, _PSI2 = power(1.0), power(2.0)


def _draw_chunk(config, lo, hi):
    """Instances lo..hi-1, each from its own generator `default_rng((seed, i))`
    with the draws of one instance at a time, written into zero-padded rows.

    Returns masses (rows, atoms), block labels and values of xi and eta
    (2, rows, atoms) each, the most blocks of any field in the chunk, and
    the exact covariances.  A field of k blocks labels them 0..k-1, each
    used.
    """
    rows, width = hi - lo, config.max_atoms
    probs = np.zeros((rows, width))
    labels = np.zeros((2, rows, width), dtype=np.intp)
    values = np.zeros((2, rows, width))
    atoms = np.empty(rows, dtype=np.intp)
    cov = np.empty(rows)
    blocks = np.arange(width)
    for r in range(rows):
        rng = np.random.default_rng((config.seed, lo + r))
        n = atoms[r] = int(rng.integers(2, width + 1))
        w = probs[r, :n] = rng.dirichlet(np.ones(n))
        ks = []
        for lab in labels[:, r, :n]:
            k = int(rng.integers(1, min(n, config.max_blocks) + 1))
            lab[:k] = blocks[:k]
            lab[k:] = rng.integers(0, k, size=n - k)
            rng.shuffle(lab)
            ks.append(k)
        for lab, k, vals in zip(labels[:, r, :n], ks, values[:, r, :n]):
            vals[:] = rng.uniform(-1.0, 1.0, size=k)[lab]
            if rng.random() < 0.5:
                vals -= w @ vals
        xi, eta = values[:, r, :n]
        cov[r] = w @ (xi * eta) - (w @ xi) * (w @ eta)
    _check_masses(probs, blocks < atoms[:, None])
    return probs, labels, values, int(labels.max(initial=0)) + 1, cov


def _instances(config):
    """(alpha, beta, Cov, checks) of every instance in order, a chunk at a time.

    The mixing coefficients of a chunk come from one stacked `_mixing_pair`
    call on its zero-padded joint laws, and every exact norm from one
    log-moment matrix over the rows of xi and eta: the L_p exponents and the
    GLS scan grid, one moment curve per variable for both psi.  The exported
    bounds are then evaluated instance by instance on these inputs.
    """
    us, grid_ps = u_axis(scan_bound(_PSI1), 1.0, _N_GRID)
    ps = np.concatenate((_LP_P, grid_ps))
    log_psi1, log_psi2 = _PSI1.log_u(us), _PSI2.log_u(us)
    # the log-moment terms of a chunk, (2 rows, ps, atoms), stay below the cap
    step = max(1, _optimize.CHUNK_ELEMENTS // (2 * ps.size * config.max_atoms))
    for lo in range(0, config.instances, step):
        hi = min(lo + step, config.instances)
        probs, labels, values, k, cov = _draw_chunk(config, lo, hi)
        rows = hi - lo
        joint = np.bincount(
            ((np.arange(rows)[:, None] * k + labels[0]) * k + labels[1]).ravel(),
            weights=probs.ravel(), minlength=rows * k * k,
        ).reshape(rows, k, k)
        alphas, betas = _mixing_pair(joint)
        lms = _log_moment_rows(np.concatenate((probs, probs)), values.reshape(2 * rows, -1), ps)
        lps = [[math.exp(v / p) for p, v in zip(_LP_P, row)]
               for row in lms[:, : len(_LP_P)].tolist()]
        curve = lms[:, len(_LP_P):] / grid_ps
        gls = [[0.0 if v == -math.inf else math.exp(v) for v in best]
               for best in ((curve - log_psi1).max(axis=1).tolist(),
                            (curve - log_psi2).max(axis=1).tolist())]
        for r, (alpha, beta) in enumerate(zip(alphas.tolist(), betas.tolist())):
            lp_xi = dict(zip(_LP_P, lps[r]))
            lp_eta = dict(zip(_LP_P, lps[rows + r]))
            nx1, nx2, ne2 = gls[0][r], gls[1][r], gls[1][rows + r]
            yield alpha, beta, float(cov[r]), _checks(alpha, beta, lp_xi, lp_eta, nx1, nx2, ne2)


def _checks(alpha, beta, lp_xi, lp_eta, nx1, nx2, ne2):
    """Every feasible bound of one instance as (name, value) pairs, from its
    mixing coefficients and exact norms: L_p by exponent and GLS under
    power(1) (nx1) and power(2) (nx2, ne2)."""
    out = []
    for p, q in _PQ_GRID:
        rep = _bounds.davydov_bound(alpha, p, q, lp_xi[p], lp_eta[q])
        if rep.feasible:
            out.append((f"davydov({p:g},{q:g})", rep.value))
    for p in _IBRAGIMOV_P:
        q = p / (p - 1.0)
        rep = _bounds.ibragimov_bound(beta, p, lp_xi[p], lp_eta[q])
        out.append((f"ibragimov({p:g})", rep.value))
    out.append(("holder(2)", _bounds.holder_bound(lp_xi[2.0], lp_eta[2.0]).value))
    rep = _bounds.gls_strong_bound(_PSI1, _PSI2, beta, nx1, ne2)
    if rep.feasible:
        out.append(("gls_strong", rep.value))
    if alpha == 0.0:
        out.append(("gls_uniform", 0.0))
    else:
        phi2d = _bounds.phi_uniform(_PSI1, _PSI2, alpha, alpha)
        if phi2d.value > 0:
            out.append(("gls_uniform", 12.0 * alpha * nx1 * ne2 / phi2d.value))
    rep = _bounds.gls_identical_bound(_PSI2, alpha, nx2, ne2)
    if rep.feasible:
        out.append(("gls_identical", rep.value))
    return out


def verify_campaign(config=CampaignConfig(), collect_rows=False):
    """Randomized campaign: every feasible bound must dominate the exact |Cov|.

    A violation beyond the configured slack indicates an implementation bug;
    that is the whole point of this oracle.

    Instances are drawn one generator each, `default_rng((seed, i))`, and
    evaluated a chunk at a time (capped by `_optimize.CHUNK_ELEMENTS`): one
    stacked `_mixing_pair` call for every alpha and beta of the chunk, one
    padded log-moment matrix for every L_p norm and the GLS norms, each
    the maximum over `_N_GRID` scan points, not zoomed.  The exported bound
    functions are called once per instance on these inputs, with their
    defaults, and `phi_uniform` only where alpha > 0: at alpha = 0 the
    uniform bound is 0 whatever phi is.
    """
    report = CampaignReport(instances=config.instances, violations=0)
    for i, (alpha, beta, cov, checks) in enumerate(_instances(config)):
        acov = abs(cov)
        tight_name, tight_val = None, math.inf
        for name, val in checks:
            report.checks += 1
            if acov > val + config.slack:
                report.violations += 1
                report.violation_details.append(
                    {"instance": i, "bound": name, "value": val, "cov": cov}
                )
            if val < tight_val:
                tight_name, tight_val = name, val
        if acov > config.slack and tight_val < math.inf:
            ratio = tight_val / acov
            if ratio < report.min_slack_ratio:
                report.min_slack_ratio = ratio
                report.tightest = {
                    "instance": i,
                    "bound": tight_name,
                    "value": tight_val,
                    "cov": cov,
                    "alpha": alpha,
                    "beta": beta,
                }
        if collect_rows:
            report.rows.append(
                {
                    "instance": i,
                    "alpha": alpha,
                    "beta": beta,
                    "cov": cov,
                    "tightest_bound": tight_name,
                    "slack": (tight_val / acov) if acov > config.slack else math.inf,
                }
            )
    return report


# ---------------------------------------------------------------------------
# sharpness probe (F = G construction)


@dataclass(frozen=True)
class SharpnessResult:
    ratio: float
    witness: dict


def rademacher_witness():
    """Fair two-atom space with F = G the full partition and xi = eta = +-1."""
    space = FiniteProbSpace(np.array([0.5, 0.5]))
    fld = SigmaField(np.array([0, 1]))
    var = RandomVar(np.array([1.0, -1.0]))
    return space, fld, var


def sharpness_probe(p, q, search_budget=500, seed=0):
    """Randomized search over F = G instances for |Cov| >= alpha^expo |xi|_p |eta|_q.

    The Rademacher witness is always evaluated first; instances with alpha = 0
    are skipped (the ratio is undefined there).
    """
    if 1.0 / p + 1.0 / q >= 1.0:
        raise DomainError("sharpness probe needs 1/p + 1/q < 1")
    expo = 1.0 - 1.0 / p - 1.0 / q

    def ratio_of(space, fld, var):
        alpha = alpha_coefficient(space, fld, fld)
        if alpha == 0.0:
            return None, alpha
        cov = abs(exact_cov(space, var, var))
        denom = alpha**expo * exact_lp(space, var, p) * exact_lp(space, var, q)
        if denom == 0.0:
            return None, alpha
        return cov / denom, alpha

    space, fld, var = rademacher_witness()
    best_ratio, best_alpha = ratio_of(space, fld, var)
    best = {
        "atom_probs": space.atom_probs.tolist(),
        "labels": fld.labels.tolist(),
        "values": var.values.tolist(),
        "alpha": best_alpha,
        "source": "rademacher",
    }
    for i in range(search_budget):
        rng = np.random.default_rng((seed, i))
        n = int(rng.integers(2, 7))
        space = FiniteProbSpace(rng.dirichlet(np.ones(n)))
        k = int(rng.integers(2, min(n, 4) + 1))
        lab = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        rng.shuffle(lab)
        fld = SigmaField(lab)
        block_vals = rng.uniform(-1.0, 1.0, size=fld.block_count)
        vals = block_vals[fld.labels] - space.atom_probs @ block_vals[fld.labels]
        var = RandomVar(vals)
        r, a = ratio_of(space, fld, var)
        if r is not None and r > best_ratio:
            best_ratio = r
            best = {
                "atom_probs": space.atom_probs.tolist(),
                "labels": fld.labels.tolist(),
                "values": var.values.tolist(),
                "alpha": a,
                "source": f"random({i})",
            }
    return SharpnessResult(best_ratio, best)
