import math

import numpy as np
import pytest

from glscov import (
    CltProfile,
    DomainError,
    FiniteMarkovModel,
    MDependentModel,
    UserSamplesModel,
    gls_strong_bound,
    markov_mixing_profile,
    fundamental,
    power,
    product_zeta,
    sigma_n_estimate,
    summability_report,
    y_sequence,
    z_sequence,
)
from mixing_reference import brute_force_mixing, flattened_space


def geometric_profile(K=32, rho=math.e**-1, psi=None):
    ks = np.arange(1, K + 1)
    seq = rho**ks
    return CltProfile(seq, seq, psi or power(1.0), K)


def test_profile_validation():
    with pytest.raises(DomainError):
        CltProfile(np.array([0.5]), np.array([0.5]), power(1.0), 1)
    with pytest.raises(DomainError):
        CltProfile(np.array([0.5, 1.5]), np.array([0.5, 0.5]), power(1.0), 2)


def test_iid_profile_gives_zero_sequences():
    K = 20
    prof = CltProfile(np.zeros(K), np.zeros(K), power(1.0), K)
    assert np.all(y_sequence(prof) == 0.0)
    assert np.all(z_sequence(prof) == 0.0)


def test_trivial_psi_rejected():
    from glscov import tabulated

    only_at_one = tabulated([(1.0, 1.0)])  # support collapses to the point p = 1
    prof = geometric_profile(psi=only_at_one)
    with pytest.raises(DomainError):
        y_sequence(prof)


def test_y_closed_form_power():
    # alpha(k) = e^-k, psi = power(m): y(k) = (em)^(2/m) e^-k k^(2/m)
    m = 2.0
    prof = geometric_profile(K=24, psi=power(m))
    y = y_sequence(prof)
    for j, k in enumerate(range(2, 25)):
        want = (math.e * m) ** (2.0 / m) * math.exp(-k) * k ** (2.0 / m)
        assert y[j] == pytest.approx(want, rel=1e-7)


def test_z_matches_strong_bound_identity():
    # z(k) is half the identical-pair strong bound at beta(k) with unit norms
    prof = geometric_profile(K=8)
    z = z_sequence(prof, n_grid=2048)
    for j, k in enumerate(range(2, 9)):
        beta = math.exp(-float(k))
        want = gls_strong_bound(power(1.0), power(1.0), beta, 1.0, 1.0).value / 2.0
        assert z[j] == pytest.approx(want, rel=1e-9)


def test_z_sup_on_the_support_end_of_the_product():
    # zeta(p) = psi(p) psi(p/(p-1)) of a natural psi with knots up to p = 16 is
    # finite for p in [16/15, 16]; at large 1/beta the sup sits at p = 16/15,
    # where p/(p-1) evaluates to 16.000000000000004, past psi's support.  There
    # z = psi(16/15) psi(16) beta^(15/16), with ln psi(16/15) interpolated in
    # 1/p between the knots p = 1 and p = 1.5 (u = 1 and u = 2/3).
    transition = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.1, 0.3, 0.6]])
    chain = FiniteMarkovModel(transition, np.array([3.0, -1.0, 0.5]))
    prof = markov_mixing_profile(chain, 24)
    psi = prof.psi_gamma
    knots = dict(psi.params["points"])
    assert max(knots) == 16.0
    log_end = (13.0 * math.log(knots[1.0]) + 3.0 * math.log(knots[1.5])) / 16.0 + math.log(
        knots[16.0]
    )
    z = z_sequence(prof)
    for k in range(2, 25):
        beta = float(prof.beta_seq[k - 1])
        assert fundamental(product_zeta(psi, psi), 1.0 / beta, n_grid=512).argmax_p == 16.0 / 15.0
        want = math.exp(log_end + 15.0 / 16.0 * math.log(beta))
        assert z[k - 2] == pytest.approx(want, rel=1e-15, abs=0.0)


def test_summability_geometric():
    ks = np.arange(2, 34)
    rep = summability_report(2.0 ** -ks)
    assert rep.verdict == "summable_evidence"
    assert rep.partial_sum == pytest.approx(0.5, abs=1e-4)


def test_summability_harmonic():
    ks = np.arange(2, 2 * 10**4)
    rep = summability_report(1.0 / ks)
    assert rep.verdict == "divergent_evidence"


def test_summability_slow_but_summable_is_not_divergent():
    ks = np.arange(2, 10**4)
    rep = summability_report(1.0 / (ks * np.log(ks) ** 2))
    assert rep.verdict != "divergent_evidence"


def test_summability_needs_horizon():
    with pytest.raises(DomainError):
        summability_report(np.ones(5))


def test_ma1_model_exact_sigma():
    c = 1.0 / math.sqrt(2.0)
    model = MDependentModel((c, c))
    for n in (10, 100):
        assert model.exact_sigma_n(n) == pytest.approx(1.0 + (n - 1) / n)


def test_sigma_estimate_iid():
    model = MDependentModel((1.0,))
    for est in sigma_n_estimate(model, [100, 1000], replications=1500, seed=3):
        assert abs(est.sigma_n - 1.0) <= 3.0 * est.se


def test_sigma_estimate_ma1_matches_closed_form():
    c = 1.0 / math.sqrt(2.0)
    model = MDependentModel((c, c))
    for est in sigma_n_estimate(model, [100, 1000], replications=1500, seed=5):
        assert abs(est.sigma_n - model.exact_sigma_n(est.n)) <= 3.0 * est.se


def test_markov_model_validation():
    with pytest.raises(DomainError):
        FiniteMarkovModel(np.array([[0.5, 0.4], [0.5, 0.5]]), np.array([1.0, -1.0]))


def test_markov_stationary_and_mean():
    model = FiniteMarkovModel(np.array([[0.9, 0.1], [0.3, 0.7]]), np.array([1.0, -1.0]))
    pi = model.stationary()
    assert pi @ model.transition == pytest.approx(pi)
    assert model.mean() == pytest.approx(pi[0] - pi[1])


def test_markov_profile_alpha_one():
    # symmetric two-state chain, flip prob q: alpha(1) = |rho|/4, rho = 1-2q
    q = 0.3
    rho = 1.0 - 2.0 * q
    model = FiniteMarkovModel(
        np.array([[1 - q, q], [q, 1 - q]]), np.array([1.0, -1.0])
    )
    prof = markov_mixing_profile(model, K=16)
    assert prof.alpha_seq[0] == pytest.approx(abs(rho) / 4.0, abs=1e-12)
    # geometric decay of the profile
    ratios = prof.alpha_seq[1:8] / prof.alpha_seq[:7]
    assert np.allclose(ratios, abs(rho), atol=1e-10)


def test_markov_iid_chain_zero_profile():
    model = FiniteMarkovModel(
        np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([1.0, -1.0])
    )
    prof = markov_mixing_profile(model, K=4)
    assert np.allclose(prof.alpha_seq, 0.0, atol=1e-14)
    assert np.allclose(prof.beta_seq, 0.0, atol=1e-14)


def test_twelve_state_profile_matches_the_enumeration():
    rng = np.random.default_rng(12)
    transition = 0.7 * np.eye(12) + 0.3 * rng.dirichlet(np.ones(12), size=12)
    model = FiniteMarkovModel(transition, rng.uniform(-1.0, 1.0, size=12))
    prof = markov_mixing_profile(model, K=2)
    pi = model.stationary()
    pk = np.eye(12)
    for k in (1, 2):
        pk = pk @ transition
        alpha, beta = brute_force_mixing(*flattened_space(pi[:, None] * pk))
        assert prof.alpha_seq[k - 1] == pytest.approx(alpha, abs=1e-15)
        assert prof.beta_seq[k - 1] == pytest.approx(beta, abs=1e-15)


def test_markov_sigma_matches_geometric_series():
    q = 0.3
    rho = 1.0 - 2.0 * q
    model = FiniteMarkovModel(
        np.array([[1 - q, q], [q, 1 - q]]), np.array([1.0, -1.0])
    )
    for est in sigma_n_estimate(model, [500], replications=2000, seed=11):
        n = est.n
        ks = np.arange(1, n)
        exact = 1.0 + 2.0 * np.sum((1.0 - ks / n) * rho**ks)
        assert abs(est.sigma_n - exact) <= 3.0 * est.se


def test_user_samples_model():
    rng = np.random.default_rng(0)
    model = UserSamplesModel(rng.standard_normal((1000, 50)))
    (est,) = sigma_n_estimate(model, [50])
    assert abs(est.sigma_n - 1.0) <= 3.0 * est.se
