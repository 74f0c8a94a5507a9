"""Per-lag summability sequences: the reference for glscov.clt's batched sups.

y(k) and z(k) from one `fundamental` call per distinct coefficient, lag by
lag, as the sequences were first written; z(k) at a subnormal beta(k), where
1/beta overflows, from fundamental's kernel at -ln beta.
"""

import math

import numpy as np

from glscov import DomainError, fundamental, product_zeta
from glscov.fundamental import _sup


def per_lag_y(profile):
    out = np.zeros(profile.K - 1)
    cache = {}
    for k in range(2, profile.K + 1):
        a = float(profile.alpha_seq[k - 1])
        if a == 0.0:
            continue
        if a not in cache:
            phi = fundamental(profile.psi_gamma, a).value
            cache[a] = a / phi**2
        out[k - 2] = cache[a]
    return out


def per_lag_z(profile):
    zeta = product_zeta(profile.psi_gamma, profile.psi_gamma)
    out = np.zeros(profile.K - 1)
    cache = {}
    for k in range(2, profile.K + 1):
        b = float(profile.beta_seq[k - 1])
        if b == 0.0:
            continue
        if b not in cache:
            if 1.0 / b < math.inf:
                try:
                    phi = fundamental(zeta, 1.0 / b).value
                except DomainError:
                    raise DomainError("product generating function nowhere finite")
                cache[b] = 1.0 / phi
            else:  # fundamental takes no delta past the float range: its kernel at -ln b
                log_phi = _sup(zeta, -math.log(b), 1.0)[1]
                cache[b] = math.exp(-log_phi)
        out[k - 2] = cache[b]
    return out


def per_step_markov_paths(model, n, reps, rng):
    """The Markov sampler of glscov.clt as first written: one uniform per
    replication and step, the next state counted on an R x k comparison
    matrix.  A draw above a row's last cumulative sum indexes state k."""
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
