import math

import numpy as np
import pytest

from glscov import (
    CampaignConfig,
    DomainError,
    FiniteProbSpace,
    RandomVar,
    SigmaField,
    alpha_coefficient,
    beta_coefficient,
    exact_cov,
    exact_lp,
    gls_norm_exact,
    power,
    rademacher_witness,
    sharpness_probe,
    verify_campaign,
)
import glscov._optimize
from glscov import bounds as _bounds
from glscov.finite import (
    _LP_P,
    _N_GRID,
    MAX_BLOCKS,
    _instances,
    _log_moment_rows,
    _log_moments,
    _mixing_pair,
)
from campaign_reference import per_instance
from mixing_reference import brute_force_mixing, flattened_space


def fair_coin():
    space = FiniteProbSpace(np.array([0.5, 0.5]))
    full = SigmaField(np.array([0, 1]))
    return space, full


def test_space_validation():
    with pytest.raises(DomainError):
        FiniteProbSpace(np.array([0.5, 0.6]))
    with pytest.raises(DomainError):
        FiniteProbSpace(np.array([1.0, 0.0]))
    with pytest.raises(DomainError, match="strictly positive"):
        FiniteProbSpace(np.array([]))
    with pytest.raises(DomainError, match="strictly positive"):
        FiniteProbSpace(np.array([0.5, math.nan, 0.5]))


def test_fair_coin_self_mixing():
    space, full = fair_coin()
    # events {}, {H}, {T}, {H,T}; worst pair A=B={H}: |1/2 - 1/4| = 1/4
    assert alpha_coefficient(space, full, full) == pytest.approx(0.25)
    # beta: P(B|A) - P(B) with A=B={H}: 1 - 1/2 = 1/2
    assert beta_coefficient(space, full, full) == pytest.approx(0.5)


def test_independent_fields_have_zero_mixing():
    # product of two fair coins; marginals are independent
    space = FiniteProbSpace(np.full(4, 0.25))
    first = SigmaField(np.array([0, 0, 1, 1]))
    second = SigmaField(np.array([0, 1, 0, 1]))
    assert alpha_coefficient(space, first, second) == 0.0
    assert beta_coefficient(space, first, second) == 0.0


def test_trivial_field_zero_mixing():
    space, full = fair_coin()
    trivial = SigmaField(np.array([0, 0]))
    assert alpha_coefficient(space, trivial, full) == 0.0


def _random_joint(rng, i):
    """Joint block law of instance i: every fourth is 1 x 12, every fourth
    12 x 3, the rest up to 8 x 8; a third get a zero row, and cells are
    zeroed at random."""
    shape = [(1, 12), (12, 3)][i % 4] if i % 4 < 2 else tuple(rng.integers(1, 9, size=2))
    joint = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
    joint *= rng.random(shape) < 0.8
    if i % 3 == 0 and shape[0] > 1:
        joint[rng.integers(shape[0])] = 0.0
    return joint


def test_reductions_match_the_enumeration():
    rng = np.random.default_rng(2026)
    checked = 0
    for i in range(2400):
        joint = _random_joint(rng, i)
        if joint.sum() == 0.0:
            continue
        space, f_field, g_field = flattened_space(joint)
        alpha, beta = _mixing_pair(joint / joint.sum())
        ref_alpha, ref_beta = brute_force_mixing(space, f_field, g_field)
        assert abs(alpha - ref_alpha) <= 1e-15, (i, alpha, ref_alpha)
        assert abs(beta - ref_beta) <= 1e-15, (i, beta, ref_beta)
        checked += 1
    assert checked >= 2000


def test_one_block_field_gives_exact_zeros():
    # Dirichlet masses sum to 1 only up to rounding; the coefficients of a
    # trivial field must still be exactly 0, not rounding noise
    trivial = SigmaField(np.zeros(7, dtype=int))
    for seed in range(50):
        rng = np.random.default_rng(seed)
        space = FiniteProbSpace(rng.dirichlet(np.ones(7)))
        other = SigmaField(rng.integers(0, 5, size=7))
        for pair in ((trivial, other), (other, trivial)):
            assert alpha_coefficient(space, *pair) == 0.0
            assert beta_coefficient(space, *pair) == 0.0


def test_only_the_smaller_field_is_capped():
    rng = np.random.default_rng(1)
    space = FiniteProbSpace(rng.dirichlet(np.ones(20)))
    fine = SigmaField(np.arange(20))
    halves = SigmaField(np.arange(20) % 2)
    p_b = float(space.atom_probs[::2].sum())
    # F = the atoms: alpha = P(B) P(B^c), beta = max(P(B), P(B^c))
    assert alpha_coefficient(space, fine, halves) == pytest.approx(p_b * (1.0 - p_b), abs=1e-15)
    assert beta_coefficient(space, fine, halves) == pytest.approx(max(p_b, 1.0 - p_b), abs=1e-15)
    assert alpha_coefficient(space, halves, fine) == pytest.approx(p_b * (1.0 - p_b), abs=1e-15)
    big = SigmaField(np.arange(2 * (MAX_BLOCKS + 1)) % (MAX_BLOCKS + 1))
    space = FiniteProbSpace(np.full(2 * (MAX_BLOCKS + 1), 1.0 / (2 * (MAX_BLOCKS + 1))))
    with pytest.raises(DomainError):
        alpha_coefficient(space, big, big)


def test_measurability():
    space, full = fair_coin()
    trivial = SigmaField(np.array([0, 0]))
    xi = RandomVar(np.array([1.0, -1.0]))
    assert xi.is_measurable(full)
    assert not xi.is_measurable(trivial)


def test_exact_cov_and_lp():
    space = FiniteProbSpace(np.array([0.25, 0.75]))
    xi = RandomVar(np.array([2.0, -2.0]))
    mean = 0.25 * 2.0 - 0.75 * 2.0
    assert exact_cov(space, xi, xi) == pytest.approx(4.0 - mean * mean)
    assert exact_lp(space, xi, 2.0) == pytest.approx(2.0)
    assert exact_lp(space, xi, math.inf) == 2.0
    with pytest.raises(DomainError):
        exact_lp(space, xi, 0.5)


def test_gls_norm_exact_dominates_single_p():
    space = FiniteProbSpace(np.array([0.3, 0.3, 0.4]))
    xi = RandomVar(np.array([1.0, -2.0, 0.5]))
    psi = power(2.0)
    norm = gls_norm_exact(space, xi, psi)
    for p in (1.0, 2.0, 7.0, 30.0):
        ratio = exact_lp(space, xi, p) / psi(p)
        assert norm >= ratio - 1e-12


def test_small_campaign_clean():
    report = verify_campaign(CampaignConfig(instances=200, seed=7))
    assert report.violations == 0
    assert report.checks > 0
    assert report.min_slack_ratio >= 1.0


def test_campaign_seed42_numbers_pinned():
    # recorded before the campaign's per-call speed-ups; they must not move
    report = verify_campaign(CampaignConfig(instances=500, seed=42))
    assert report.violations == 0
    assert report.checks == 5500
    assert report.min_slack_ratio == pytest.approx(1.2699302719949894, rel=1e-12)
    assert report.tightest["instance"] == 429
    assert report.tightest["bound"] == "ibragimov(1.5)"
    assert report.tightest["value"] == pytest.approx(0.10554094333099348, rel=1e-12)


def test_campaign_rows_collected():
    report = verify_campaign(CampaignConfig(instances=5, seed=3), collect_rows=True)
    assert len(report.rows) == 5
    assert {"instance", "alpha", "beta", "cov"} <= set(report.rows[0])


def test_campaign_rows_skip_rounding_level_covariances_like_the_min_ratio():
    # instance 11 of seed 42 has |Cov| = 6.2e-33 and every bound 0: its slack
    # is undefined, as in min_slack_ratio, which only counts |Cov| > slack
    config = CampaignConfig(instances=12, seed=42)
    report = verify_campaign(config, collect_rows=True)
    row = report.rows[11]
    assert abs(row["cov"]) <= config.slack
    assert row["slack"] == math.inf
    counted = [r["slack"] for r in report.rows if abs(r["cov"]) > config.slack]
    assert min(counted) == report.min_slack_ratio
    assert all(r["slack"] == math.inf for r in report.rows if abs(r["cov"]) <= config.slack)


def test_rademacher_witness_ratio():
    space, fld, var = rademacher_witness()
    assert exact_cov(space, var, var) == pytest.approx(1.0)
    assert alpha_coefficient(space, fld, fld) == pytest.approx(0.25)
    res = sharpness_probe(4.0, 4.0, search_budget=10, seed=0)
    assert res.ratio >= 2.0 - 1e-12


def test_sharpness_needs_feasible_exponents():
    with pytest.raises(DomainError):
        sharpness_probe(2.0, 2.0)


def _chain_joints(transition, pi, K):
    """Stack of the joint laws pi_i P^k_ij of lags k = 1..K."""
    pk, joints = np.eye(len(pi)), []
    for _ in range(K):
        pk = pk @ transition
        joints.append(pi[:, None] * pk)
    return np.array(joints)


def _assert_stack_equals_tables(joints):
    alpha, beta = _mixing_pair(joints)
    assert alpha.shape == beta.shape == joints.shape[:-2]
    for idx in np.ndindex(joints.shape[:-2]):
        assert _mixing_pair(joints[idx]) == (alpha[idx], beta[idx]), idx


def test_stacked_mixing_pair_equals_per_table_calls():
    # 8 states included: a C-ordered stack would add rows of 8 pairwise, while
    # a masked 2-D table is column-major and adds them in sequence
    for n in range(2, MAX_BLOCKS + 1):
        for seed in range(4):
            rng = np.random.default_rng((n, seed))
            lazy = rng.uniform(0.05, 0.5)
            transition = (1.0 - lazy) * np.eye(n) + lazy * rng.dirichlet(np.ones(n), size=n)
            w, vecs = np.linalg.eig(transition.T)
            pi = np.abs(np.real(vecs[:, np.argmin(np.abs(w - 1.0))]))
            _assert_stack_equals_tables(_chain_joints(transition, pi / pi.sum(), 24))


def test_stacked_mixing_pair_with_a_transient_state_and_a_periodic_chain():
    transient = np.array([[0.7, 0.3, 0.0], [0.4, 0.6, 0.0], [0.3, 0.3, 0.4]])
    joints = _chain_joints(transient, np.array([4.0, 3.0, 0.0]) / 7.0, 16)
    _assert_stack_equals_tables(joints)
    # the zero-mass state is dropped: a two-state chain with flip rates 0.3, 0.4
    alpha, beta = _mixing_pair(joints)
    alpha2, beta2 = _mixing_pair(_chain_joints(transient[:2, :2], np.array([4.0, 3.0]) / 7.0, 16))
    assert np.array_equal(alpha, alpha2) and np.array_equal(beta, beta2)
    cycle = np.roll(np.eye(4), 1, axis=1)  # period 4: every P^k is a permutation
    joints = _chain_joints(cycle, np.full(4, 0.25), 8)
    _assert_stack_equals_tables(joints)
    assert np.all(_mixing_pair(joints)[1] == 0.75)


def test_stacked_mixing_pair_groups_tables_by_their_zero_mass_blocks():
    rng = np.random.default_rng(7)
    joints = rng.dirichlet(np.ones(30), size=(3, 5)).reshape(3, 5, 5, 6)
    joints[0, 1, 2] = 0.0
    joints[1, :, :, 4] = 0.0
    joints[2, 3, :, [0, 5]] = 0.0
    joints[2, 4, 1:] = 0.0
    _assert_stack_equals_tables(joints)


def test_stacked_mixing_pair_refuses_two_large_fields():
    n = MAX_BLOCKS + 1
    joints = np.full((3, n, n), 1.0 / n**2)
    with pytest.raises(DomainError):
        _mixing_pair(joints)
    joints[1, :, 1:] = 0.0  # one table of a stack small enough is not enough
    with pytest.raises(DomainError):
        _mixing_pair(joints)
    assert _mixing_pair(joints[1]) == (0.0, 0.0)


def _assert_matches_reference(config, got):
    assert len(got) == config.instances
    for i, (alpha, beta, cov, checks) in enumerate(got):
        want_alpha, want_beta, want_cov, want = per_instance(config, i)
        assert (alpha, beta, cov) == (want_alpha, want_beta, want_cov), i
        assert [name for name, _ in checks] == [name for name, _ in want], i
        assert [value for _, value in checks] == [value for _, value in want], i


@pytest.mark.parametrize("seed", [42, 7])
def test_chunked_campaign_equals_the_per_instance_reference(seed):
    # same check names in the same order, and every number bit for bit
    config = CampaignConfig(instances=2000, seed=seed)
    _assert_matches_reference(config, list(_instances(config)))


@pytest.mark.parametrize("instances", [0, 1, 10])
def test_campaign_chunks_of_three(monkeypatch, instances):
    # 10 instances in chunks of 3 leave a last chunk of 1
    config = CampaignConfig(instances=instances, seed=5)
    whole = list(_instances(config))
    terms = 2 * (len(_LP_P) + _N_GRID) * config.max_atoms  # of one instance
    monkeypatch.setattr(glscov._optimize, "CHUNK_ELEMENTS", 3 * terms)
    chunked = list(_instances(config))
    assert chunked == whole
    _assert_matches_reference(config, chunked)
    report = verify_campaign(config)
    assert (report.instances, report.checks, report.violations) == (instances, 11 * instances, 0)


def test_campaign_calls_phi_uniform_only_where_alpha_is_positive(monkeypatch):
    seen = []

    def counting(psi, nu, alpha, beta, **kwargs):
        seen.append(alpha)
        return phi_uniform(psi, nu, alpha, beta, **kwargs)

    phi_uniform = _bounds.phi_uniform
    monkeypatch.setattr(_bounds, "phi_uniform", counting)
    got = list(_instances(CampaignConfig(instances=60, seed=42)))
    alphas = [alpha for alpha, _, _, _ in got]
    assert 0.0 in alphas and 0.0 not in seen
    assert seen == [a for a in alphas if a > 0.0]
    assert all(("gls_uniform", 0.0) in checks for alpha, _, _, checks in got if alpha == 0.0)


def test_mixing_pair_of_an_empty_stack():
    alpha, beta = _mixing_pair(np.zeros((0, 3, 3)))
    assert alpha.shape == beta.shape == (0,)


def test_stacked_log_moments_equal_each_row_alone():
    # rows of 1-20 atoms, zeros and zero-mass pads among them: the atom count
    # decides numpy's summation order (pairwise from 8 terms on)
    rng = np.random.default_rng(3)
    ps = np.concatenate(([1.0, 4.0 / 3.0, 2.0, 8.0], 1.0 / np.linspace(1e-6, 1.0, 50)))
    width = 20
    probs, values = np.zeros((60, width)), np.zeros((60, width))
    for r in range(60):
        n = r % width + 1
        probs[r, :n] = rng.dirichlet(np.ones(n))
        values[r, :n] = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-3, 3, n)
        values[r, :n][rng.random(n) < 0.2] = 0.0
    values[5] = 0.0
    got = _log_moment_rows(probs, values, ps)
    for r in range(60):
        assert np.array_equal(got[r], _log_moments(probs[r], values[r], ps)), r
    assert np.all(got[5] == -np.inf)
