"""One instance at a time: the reference for glscov.finite's chunked campaign.

Each instance is drawn into the public dataclasses and evaluated on its own,
its norms from per-instance log-moment vectors, as the campaign was first
written.
"""

import math

import numpy as np

from glscov import bounds as _bounds
from glscov._optimize import u_axis
from glscov.finite import (
    _N_GRID,
    _PQ_GRID,
    _IBRAGIMOV_P,
    _PSI1,
    _PSI2,
    FiniteProbSpace,
    RandomVar,
    SigmaField,
    _joint_law,
    _log_moments,
    _mixing_pair,
    exact_cov,
)
from glscov.psi import scan_bound

_XI_P = tuple(sorted({p for p, _ in _PQ_GRID} | set(_IBRAGIMOV_P) | {2.0}))
_ETA_P = tuple(sorted({q for _, q in _PQ_GRID} | {p / (p - 1.0) for p in _IBRAGIMOV_P} | {2.0}))


def _exact_lps(space, xi, ps):
    lms = _log_moments(space.atom_probs, xi.values, ps)
    return {p: math.exp(v / p) for p, v in zip(ps, lms.tolist())}


def _gls_norms_exact(space, xi, psis, n_grid):
    """The scan-grid maxima of the GLS norms, unrefined, as the campaign reads them."""
    us, ps = u_axis(scan_bound(psis[0]), 1.0, n_grid)
    curve = _log_moments(space.atom_probs, xi.values, ps) / ps
    out = []
    for psi in psis:
        best = float(np.max(curve - psi.log_u(us)))
        out.append(0.0 if best == -math.inf else float(math.exp(best)))
    return out


def random_instance(rng, max_atoms, max_blocks):
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


def instance_checks(space, f_field, g_field, xi, eta):
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
    nx1, nx2 = _gls_norms_exact(space, xi, (_PSI1, _PSI2), _N_GRID)
    (ne2,) = _gls_norms_exact(space, eta, (_PSI2,), _N_GRID)
    rep = _bounds.gls_strong_bound(_PSI1, _PSI2, beta, nx1, ne2, n_grid=_N_GRID, refine=False)
    if rep.feasible:
        out.append(("gls_strong", rep.value))
    phi2d = _bounds.phi_uniform(_PSI1, _PSI2, alpha, alpha)
    if alpha == 0.0:
        out.append(("gls_uniform", 0.0))
    elif phi2d.value > 0:
        out.append(("gls_uniform", 12.0 * alpha * nx1 * ne2 / phi2d.value))
    rep = _bounds.gls_identical_bound(_PSI2, alpha, nx2, ne2, n_grid=_N_GRID, refine=False)
    if rep.feasible:
        out.append(("gls_identical", rep.value))
    return alpha, beta, out


def per_instance(config, i):
    """(alpha, beta, Cov, checks) of instance i of a campaign config."""
    rng = np.random.default_rng((config.seed, i))
    space, ff, gg, xi, eta = random_instance(rng, config.max_atoms, config.max_blocks)
    alpha, beta, checks = instance_checks(space, ff, gg, xi, eta)
    return alpha, beta, exact_cov(space, xi, eta), checks
