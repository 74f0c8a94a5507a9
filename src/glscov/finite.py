"""Exact ground truth on small finite probability spaces.

Sigma-fields are generated by partitions of the atoms, so the joint law of
two fields is the table of block-intersection masses.  Both mixing
coefficients reduce to one-sided problems on that table: beta is a maximum
over single blocks of one field, and alpha a maximum over the block unions
of the smaller field only.  The randomized campaign replays every covariance
bound against exact covariances and norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._optimize import grid_golden_max, u_axis
from .errors import DomainError
from .psi import logsumexp, power, scan_bound
from . import bounds as _bounds

#: scan points of the campaign's sups and exact GLS norms
_N_GRID = 256

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
        if p.size == 0 or np.any(p <= 0):
            raise DomainError("atom probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-12:
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
    """
    joint = joint[joint.sum(axis=1) > 0][:, joint.sum(axis=0) > 0]
    if min(joint.shape) > MAX_BLOCKS:
        raise DomainError(f"both fields have more than {MAX_BLOCKS} blocks")
    p_f, p_g = joint.sum(axis=1), joint.sum(axis=0)
    # the marginal is normalized, so a one-block field gives exact zeros
    cond = joint / p_f[:, None] - p_g / p_g.sum()
    beta = float(np.maximum(cond, 0.0).sum(axis=1).max())
    small = joint if joint.shape[0] <= joint.shape[1] else joint.T
    k = small.shape[0]
    unions = ((np.arange(2 ** (k - 1))[:, None] >> np.arange(k)) & 1).astype(float)
    d = unions @ small - (unions @ small.sum(axis=1))[:, None] * small.sum(axis=0)
    alpha = float(np.maximum(d, 0.0).sum(axis=1).max())
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
    if p < 1.0:
        raise DomainError("p must lie in [1, infinity]")
    if math.isinf(p):
        return float(np.abs(xi.values).max())
    return _exact_lps(space, xi, (p,))[p]


def _log_moments(probs, values, ps):
    """ln E|X|^p for each p in `ps`, X taking `values` with masses `probs`,
    from one batched logsumexp; -inf where X = 0 almost surely."""
    x = np.abs(values)
    nz = x > 0
    ps = np.asarray(ps, dtype=float)
    if not nz.any():
        return np.full(ps.size, -np.inf)
    return logsumexp(np.log(probs[nz]) + ps[:, None] * np.log(x[nz]), axis=1)


def _exact_lps(space, xi, ps):
    """{p: exact L_p norm} for finite p >= 1."""
    lms = _log_moments(space.atom_probs, xi.values, ps)
    return {p: math.exp(v / p) for p, v in zip(ps, lms.tolist())}


def gls_norm_exact(space, xi, psi, n_grid=512, refine=True):
    """sup over p of |xi|_p / psi(p), using exact moments at every scanned p."""
    return _gls_norms_exact(space, xi, (psi,), n_grid, refine)[0]


def _gls_norms_exact(space, xi, psis, n_grid, refine):
    """gls_norm_exact of xi for each psi in `psis`, which share one scan bound.

    The exact moment curve of xi on the shared grid is computed once.
    """

    def log_norms(ps):
        return _log_moments(space.atom_probs, xi.values, ps) / ps

    us, ps = u_axis(scan_bound(psis[0]), 1.0, n_grid)
    curve = log_norms(ps)
    out = []
    for psi in psis:

        def objective(t, psi=psi):
            return float(log_norms(np.array([1.0 / t]))[0]) - psi.log_u_jet(t)[0]

        _, best = grid_golden_max(us, curve - psi.log_u(us), objective, refine=refine)
        out.append(0.0 if best == -math.inf else float(math.exp(best)))
    return out


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
    min_slack_ratio: float = math.inf  # min over instances of bound/|Cov|
    tightest: dict | None = None
    checks: int = 0
    rows: list = field(default_factory=list)


def _random_instance(rng, max_atoms, max_blocks):
    n = int(rng.integers(2, max_atoms + 1))
    space = FiniteProbSpace(rng.dirichlet(np.ones(n)))
    fields = []
    for _ in range(2):
        k = int(rng.integers(1, min(n, max_blocks) + 1))
        lab = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        rng.shuffle(lab)
        fields.append(SigmaField(lab))
    f_field, g_field = fields
    variables = []
    for fld in (f_field, g_field):
        block_vals = rng.uniform(-1.0, 1.0, size=fld.block_count)
        vals = block_vals[fld.labels]
        if rng.random() < 0.5:
            vals = vals - space.atom_probs @ vals
        variables.append(RandomVar(vals))
    return space, f_field, g_field, variables[0], variables[1]


_PQ_GRID = [(2.0, 4.0), (4.0, 4.0), (4.0, 2.0), (8.0, 8.0)]
_IBRAGIMOV_P = [1.5, 2.0, 4.0]
#: the exponents at which the checks need each variable's exact L_p norm
_XI_P = tuple(sorted({p for p, _ in _PQ_GRID} | set(_IBRAGIMOV_P) | {2.0}))
_ETA_P = tuple(sorted({q for _, q in _PQ_GRID} | {p / (p - 1.0) for p in _IBRAGIMOV_P} | {2.0}))
#: the campaign's generating functions, shared by every instance: the table
#: cache is keyed by the psi object, so per-instance copies would always miss
_PSI1, _PSI2 = power(1.0), power(2.0)


def _instance_checks(space, f_field, g_field, xi, eta):
    """Every feasible bound evaluated on one instance, as (name, value) pairs."""
    alpha, beta = _mixing_pair(_joint_law(space, f_field, g_field))
    lp_xi = _exact_lps(space, xi, _XI_P)
    lp_eta = _exact_lps(space, eta, _ETA_P)
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
    nx1, nx2 = _gls_norms_exact(space, xi, (_PSI1, _PSI2), _N_GRID, refine=False)
    ne2 = gls_norm_exact(space, eta, _PSI2, n_grid=_N_GRID, refine=False)
    rep = _bounds.gls_strong_bound(_PSI1, _PSI2, beta, nx1, ne2, n_grid=_N_GRID, refine=False)
    if rep.feasible:
        out.append(("gls_strong", rep.value))
    phi2d = _bounds.phi_uniform(_PSI1, _PSI2, alpha, alpha, n_grid=64)
    if alpha == 0.0:
        out.append(("gls_uniform", 0.0))
    elif phi2d.value > 0:
        out.append(("gls_uniform", 12.0 * alpha * nx1 * ne2 / phi2d.value))
    rep = _bounds.gls_identical_bound(_PSI2, alpha, nx2, ne2, n_grid=_N_GRID, refine=False)
    if rep.feasible:
        out.append(("gls_identical", rep.value))
    return alpha, beta, out


def verify_campaign(config=CampaignConfig(), collect_rows=False):
    """Randomized campaign: every feasible bound must dominate the exact |Cov|.

    A violation beyond the configured slack indicates an implementation bug;
    that is the whole point of this oracle.
    """
    report = CampaignReport(instances=config.instances, violations=0)
    for i in range(config.instances):
        rng = np.random.default_rng((config.seed, i))
        space, ff, gg, xi, eta = _random_instance(rng, config.max_atoms, config.max_blocks)
        cov = exact_cov(space, xi, eta)
        alpha, beta, checks = _instance_checks(space, ff, gg, xi, eta)
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
