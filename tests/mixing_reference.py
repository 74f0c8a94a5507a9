"""Brute-force mixing coefficients: the reference for glscov.finite's reductions.

Every event of a partition-generated field is a union of blocks, so both
coefficients are maxima over all 2^k_F x 2^k_G pairs of block unions.
"""

import numpy as np

from glscov import FiniteProbSpace, SigmaField


def _unions(k):
    """2^k x k indicator matrix of all block unions."""
    return ((np.arange(2**k)[:, None] >> np.arange(k)) & 1).astype(float)


def brute_force_mixing(space, field_f, field_g):
    """(alpha, beta) = (sup |P(AB) - P(A)P(B)|, sup over P(A) > 0 of
    |P(B|A) - P(B)|), A in F and B in G, by enumerating every event pair."""
    joint = np.zeros((field_f.block_count, field_g.block_count))
    np.add.at(joint, (field_f.labels, field_g.labels), space.atom_probs)
    ind_f, ind_g = _unions(joint.shape[0]), _unions(joint.shape[1])
    pa, pb = ind_f @ joint.sum(axis=1), ind_g @ joint.sum(axis=0)
    right = joint @ ind_g.T
    alpha = beta = 0.0
    for start in range(0, ind_f.shape[0], 512):
        pab = ind_f[start : start + 512] @ right
        pa_c = pa[start : start + 512]
        alpha = max(alpha, float(np.abs(pab - pa_c[:, None] * pb).max()))
        pos = pa_c > 0
        if pos.any():
            beta = max(beta, float(np.abs(pab[pos] / pa_c[pos, None] - pb).max()))
    return alpha, beta


def flattened_space(joint):
    """The atom space of a joint block law: one atom per cell of positive mass,
    renormalized, with the row and the column fields."""
    rows, cols = np.nonzero(joint > 0)
    probs = joint[rows, cols]
    return FiniteProbSpace(probs / probs.sum()), SigmaField(rows), SigmaField(cols)
