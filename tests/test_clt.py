import hashlib
import itertools
import math

import numpy as np
import pytest

import glscov._optimize
from glscov import (
    CltProfile,
    DomainError,
    FiniteMarkovModel,
    MDependentModel,
    UserSamplesModel,
    extremal,
    gls_strong_bound,
    markov_mixing_profile,
    finite_support,
    fundamental,
    power,
    product_zeta,
    sigma_n_estimate,
    summability_report,
    y_sequence,
    z_sequence,
)
from glscov._optimize import psi_table
from glscov.clt import _paths_markov
from glscov.finite import _mixing_pair
from mixing_reference import brute_force_mixing, flattened_space
from sequence_reference import per_lag_y, per_lag_z, per_step_markov_paths


def geometric_profile(K=32, rho=math.e**-1, psi=None):
    ks = np.arange(1, K + 1)
    seq = rho**ks
    return CltProfile(seq, seq, psi or power(1.0), K)


def test_profile_validation():
    with pytest.raises(DomainError):
        CltProfile(np.array([0.5]), np.array([0.5]), power(1.0), 1)
    with pytest.raises(DomainError):
        CltProfile(np.array([0.5, 1.5]), np.array([0.5, 0.5]), power(1.0), 2)
    for bad in (math.nan, -math.inf, math.inf):
        seq = np.array([0.1, bad, 0.1])
        with pytest.raises(DomainError, match=r"mixing coefficients must lie in \[0, 1\]"):
            CltProfile(seq, np.full(3, 0.1), power(1.0), 3)
        with pytest.raises(DomainError, match=r"mixing coefficients must lie in \[0, 1\]"):
            CltProfile(np.full(3, 0.1), seq, power(1.0), 3)


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
    z = z_sequence(prof)
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
        assert fundamental(product_zeta(psi, psi), 1.0 / beta).argmax_p == 16.0 / 15.0
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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="transition matrix entries must be finite"):
            FiniteMarkovModel(np.array([[bad, bad], [0.5, 0.5]]), np.array([1.0, -1.0]))
        with pytest.raises(DomainError, match="values must be finite"):
            FiniteMarkovModel(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([1.0, bad]))


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


def test_markov_profile_equals_the_past_future_coefficients():
    # for a Markov chain the single-coordinate coefficients are the
    # past/future ones (Bradley, Probab. Surveys 2, 2005, section 7): the
    # windows (X_-1, X_0) and (X_k, X_k+1) give the same alpha and beta
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        transition = rng.dirichlet(np.ones(n), size=n)
        model = FiniteMarkovModel(transition, rng.uniform(-1.0, 1.0, size=n))
        prof = markov_mixing_profile(model, K=3)
        pi = model.stationary()
        first = pi[:, None] * transition  # P(X_-1 = a, X_0 = b)
        pk = np.eye(n)
        for k in (1, 2, 3):
            pk = pk @ transition
            # P(X_-1 = a, X_0 = b, X_k = c, X_k+1 = d), rows (a, b), columns (c, d)
            joint = np.einsum("ab,bc,cd->abcd", first, pk, transition).reshape(n * n, n * n)
            alpha, beta = _mixing_pair(joint)
            assert prof.alpha_seq[k - 1] == pytest.approx(alpha, abs=1e-14)
            assert prof.beta_seq[k - 1] == pytest.approx(beta, abs=1e-14)


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


def lazy_chain(n, seed):
    rng = np.random.default_rng(seed)
    lazy = rng.uniform(0.05, 0.5)
    transition = (1.0 - lazy) * np.eye(n) + lazy * rng.dirichlet(np.ones(n), size=n)
    return FiniteMarkovModel(transition, rng.uniform(-1.0, 1.0, size=n))


def test_markov_profile_numbers_pinned():
    # recorded before the lags were stacked and the sups batched; entries 0,
    # 1, 15 and 62 of alpha, beta, y and z, and a hash of all their reprs
    pinned = {
        2: ("184ffa60fa1f4921e662390c2b963486c662720e10d6e32abd615e8a7787a80d", [
            "0.18528192597070717", "0.15204302752142554", "0.009546294791849291",
            "8.79239317796987e-07", "0.5379911674701845", "0.4414775237973576",
            "0.027718959921074537", "2.552990447379777e-06", "0.08463449143045489",
            "0.07118920772750358", "0.0063175538231822065", "1.8590333356077288e-06",
            "0.14948751252715523", "0.1256120303843114", "0.009376328130289093",
            "1.5436116242671004e-06"]),
        5: ("39cf8d83ec3ea8de1da51ad17cdab443a98b93233dab24f0213c4e4a54a0cb5f", [
            "0.1603350093329787", "0.10524570081312444", "0.0007989730471493067",
            "4.69609767739243e-12", "0.6465976169799661", "0.5083264740892448",
            "0.0047334160710253426", "2.0350054974471732e-11", "0.10398926014582761",
            "0.07318445817897364", "0.0010595601087375827", "6.057582169943002e-11",
            "0.22980379636778941", "0.17888027429790399", "0.0020392257292701672",
            "2.8059396568215186e-11"]),
        8: ("2c836fa3f70a011352e0d61f621157fcde4ecc62dd8f76a718b2d74719a30e2e", [
            "0.21398590796168404", "0.18419528551421427", "0.02733800144674159",
            "7.407848185810723e-05", "0.7590622951343229", "0.6464580307332433",
            "0.120450304912728", "0.0003573257483873715", "0.13637117742657487",
            "0.12196009091673418", "0.023746230040481403", "0.00013554976852696133",
            "0.18986773165225024", "0.17428240783791815", "0.04194874307087935",
            "0.00017827605518587678"]),
    }
    for n, (digest, entries) in pinned.items():
        prof = markov_mixing_profile(lazy_chain(n, n), 64)
        seqs = tuple(s.tolist() for s in (prof.alpha_seq, prof.beta_seq, y_sequence(prof), z_sequence(prof)))
        assert [repr(s[i]) for s in seqs for i in (0, 1, 15, 62)] == entries
        assert hashlib.sha256(repr(seqs).encode()).hexdigest() == digest


@pytest.mark.parametrize("psi", [None, power(1.0), finite_support(4.0, 1.0)],
                         ids=["natural", "power1", "finite_support41"])
def test_sequences_equal_the_per_lag_fundamentals(psi):
    # the natural psi is tabulated (grid maxima); power(1) refines every row
    # by Newton, finite_support(4, 1) too, next to a finite support end
    for n in (2, 3, 5, 8):
        prof = markov_mixing_profile(lazy_chain(n, 10 + n), 48)
        if psi is not None:
            prof = CltProfile(prof.alpha_seq, prof.beta_seq, psi, prof.K)
        assert np.array_equal(y_sequence(prof), per_lag_y(prof))
        assert np.array_equal(z_sequence(prof), per_lag_z(prof))


def test_sequences_repeat_a_coefficient_without_a_second_sup():
    seq = np.array([0.3, 0.2, 0.0, 0.2, 0.1, 0.3, 0.0, 0.1])
    prof = CltProfile(seq, seq[::-1], power(2.0), 8)
    assert np.array_equal(y_sequence(prof), per_lag_y(prof))
    assert np.array_equal(z_sequence(prof), per_lag_z(prof))


def test_z_reads_minus_ln_beta_where_a_beta_has_no_finite_inverse():
    # 1/5e-324 overflows: phi[zeta] is read at -ln beta = 744.4, as the
    # strong bound reads it, and reaches about 1e320, so z is subnormal
    prof = CltProfile(np.full(4, 0.1), np.array([0.1, 5e-324, 0.1, 0.1]), power(1.0), 4)
    z = z_sequence(prof)
    assert np.array_equal(z, per_lag_z(prof))
    assert 0.0 < z[0] < 1e-300 and np.isfinite(z).all()
    assert z[0] == gls_strong_bound(power(1.0), power(1.0), 5e-324, 0.5, 1.0).value
    ordinary = CltProfile(np.full(4, 0.1), np.array([0.1, 1e-300, 0.1, 0.1]), power(1.0), 4)
    assert z_sequence(ordinary)[0] == 1.0 / fundamental(
        product_zeta(power(1.0), power(1.0)), 1e300).value


def test_sequences_divide_in_logs_where_phi_leaves_the_float_range():
    # values +-1e-160 scale psi by 1e-160: phi^2 and phi[zeta] reach 1e320,
    # past the float range, while y and z shrink by 1e-320 to subnormals;
    # five lags stay above 5e-322, where a subnormal resolves 1%
    transition = [[0.9, 0.1], [0.2, 0.8]]
    unit = markov_mixing_profile(FiniteMarkovModel(transition, [1.0, -1.0]), 6)
    tiny = markov_mixing_profile(FiniteMarkovModel(transition, [1e-160, -1e-160]), 6)
    for seq in (y_sequence, z_sequence):
        got, want = seq(tiny), seq(unit) * 1e-320
        assert np.all(want > 5e-322)
        assert np.allclose(got, want, rtol=1e-2, atol=0.0)


def test_y_divides_in_logs_where_phi_squared_underflows_or_y_overflows():
    # on L_r, phi(alpha) = alpha^(1/r): at alpha = 1e-300, r = 1.5, phi^2 =
    # 1e-400 underflows to 0 while y = alpha^(1 - 2/r) = 1e100; at alpha =
    # 5e-324, r near 1, y is about 2e323, past the float range
    low = CltProfile(np.full(3, 1e-300), np.full(3, 0.1), extremal(1.5), 3)
    assert np.allclose(y_sequence(low), 1e100, rtol=1e-12, atol=0.0)
    past = CltProfile(np.full(3, 5e-324), np.full(3, 0.1), extremal(1.0000001), 3)
    with pytest.raises(DomainError, match="float range"):
        y_sequence(past)


def test_chunked_passes_equal_one_pass(monkeypatch):
    model = lazy_chain(5, 3)
    whole = markov_mixing_profile(model, 200)
    y, z = y_sequence(whole), z_sequence(whole)
    # 80 lags of joint laws and 25 union products a chunk
    monkeypatch.setattr(glscov._optimize, "CHUNK_ELEMENTS", 2000)
    chunked = markov_mixing_profile(model, 200)
    assert np.array_equal(chunked.alpha_seq, whole.alpha_seq)
    assert np.array_equal(chunked.beta_seq, whole.beta_seq)
    # the 199 distinct alphas and betas read tables of 9 (psi) and 16
    # (zeta) points: 4 and 2 sup rows a chunk
    zeta = product_zeta(whole.psi_gamma, whole.psi_gamma)
    assert [psi_table(f, 1.0, 512)[0].size for f in (whole.psi_gamma, zeta)] == [9, 16]
    monkeypatch.setattr(glscov._optimize, "CHUNK_ELEMENTS", 40)
    assert np.array_equal(y_sequence(chunked), y)
    assert np.array_equal(z_sequence(chunked), z)
    for psi in (power(1.0), finite_support(4.0, 1.0)):
        prof = CltProfile(whole.alpha_seq, whole.beta_seq, psi, 200)
        assert np.array_equal(y_sequence(prof), per_lag_y(prof))


def test_markov_stationary_law_is_computed_once(monkeypatch):
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(1) or eig(a))
    model = lazy_chain(4, 1)
    markov_mixing_profile(model, 16)
    sigma_n_estimate(model, [8, 16], replications=50)
    model.mean()
    assert len(calls) == 1
    pi = model.stationary()
    assert pi is model.stationary() and not pi.flags.writeable
    assert not model.transition.flags.writeable and not model.values.flags.writeable


def test_markov_model_copies_its_arrays():
    transition = np.array([[0.9, 0.1], [0.3, 0.7]])
    model = FiniteMarkovModel(transition, np.array([1.0, -1.0]))
    pi = model.stationary().copy()
    transition[:] = 0.5
    assert np.array_equal(model.stationary(), pi)


def test_markov_exact_sigma_symmetric_two_state():
    # flip probability q: gamma_k = (1 - 2q)^k for values +-1
    for q in (0.1, 0.3, 0.45, 0.8):
        rho = 1.0 - 2.0 * q
        model = FiniteMarkovModel(np.array([[1 - q, q], [q, 1 - q]]), np.array([1.0, -1.0]))
        for n in (1, 2, 7, 100):
            want = 1.0 + 2.0 * sum((1.0 - k / n) * rho**k for k in range(1, n))
            assert model.exact_sigma_n(n) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_markov_exact_sigma_matches_path_enumeration():
    transition = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
    model = FiniteMarkovModel(transition, np.array([2.0, -1.0, 0.5]))
    pi = model.stationary()
    c = model.values - model.mean()
    for n in range(1, 7):
        var = 0.0
        for path in itertools.product(range(3), repeat=n):
            prob = pi[path[0]] * math.prod(transition[a, b] for a, b in zip(path, path[1:]))
            var += prob * sum(c[i] for i in path) ** 2 / n
        assert model.exact_sigma_n(n) == pytest.approx(var, rel=1e-12)
    with pytest.raises(DomainError):
        model.exact_sigma_n(0)


def test_markov_sigma_estimate_within_three_se_of_the_exact_value():
    model = lazy_chain(4, 2)
    for est in sigma_n_estimate(model, [32, 128], replications=2000, seed=4):
        assert abs(est.sigma_n - model.exact_sigma_n(est.n)) <= 3.0 * est.se


def test_sigma_n_estimate_numbers_pinned():
    # recorded before the Markov sampler read a guide table
    pinned = {
        2: "[(16, 1.7263042812558274, 0.06250130045336905), (64, 2.2895478505187636, 0.09225544461805438)]",
        5: "[(16, 1.2283032076394893, 0.055997758842341476), (64, 1.3879964986718591, 0.06323416864590674)]",
        8: "[(16, 2.0439610988222268, 0.07477636731862145), (64, 2.867061880376382, 0.12243461256153343)]",
    }
    for n, want in pinned.items():
        est = sigma_n_estimate(lazy_chain(n, n), [16, 64], replications=1000, seed=n)
        assert repr([(e.n, e.sigma_n, e.se) for e in est]) == want


def sampler_chains():
    """Chains of 2-12, 40 and 300 states, some rows with zero transitions,
    plus a period-4 chain and one whose cuts are all dyadic."""
    rng = np.random.default_rng(20)
    for k in [*range(2, 13), 40, 300]:
        transition = rng.dirichlet(np.full(k, 0.5), size=k)
        transition[rng.random((k, k)) < 0.3] = 0.0
        transition[transition.sum(axis=1) == 0.0, -1] = 1.0
        transition /= transition.sum(axis=1, keepdims=True)
        yield FiniteMarkovModel(transition, rng.uniform(-1.0, 1.0, size=k))
    yield FiniteMarkovModel(np.roll(np.eye(4), 1, axis=1), np.array([1.0, -2.0, 0.5, 3.0]))
    dyadic = np.array([[0.25, 0.25, 0.25, 0.25], [0.5, 0.0, 0.5, 0.0],
                       [0.0, 0.75, 0.0, 0.25], [0.125, 0.375, 0.0, 0.5]])
    yield FiniteMarkovModel(dyadic, np.array([2.0, -1.0, 0.0, 1.0]))


def test_markov_paths_equal_the_per_step_reference():
    for i, model in enumerate(sampler_chains()):
        for n in (1, 2, 16, 64):
            got = _paths_markov(model, n, 200, np.random.default_rng((i, n)))
            want = per_step_markov_paths(model, n, 200, np.random.default_rng((i, n)))
            assert got.flags.c_contiguous and got.shape == (200, n)
            assert np.array_equal(got, want)


class StubGenerator:
    """Start states and uniforms fixed in advance, read in stream order."""

    def __init__(self, states, draws):
        self.states, self.draws, self.used = states, np.ravel(draws), 0

    def choice(self, k, size, p):
        return self.states

    def random(self, shape):
        m = int(np.prod(shape))
        out = self.draws[self.used : self.used + m].reshape(shape)
        self.used += m
        return out.copy()


def test_markov_paths_at_the_cuts():
    # every draw sits on a cut, one ulp either side, or at 0, from every state
    rows = [[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.0, 0.7], [0.0, 0.0, 1.0, 0.0],
            [0.3, 0.0, 0.0, 0.7]]
    model = FiniteMarkovModel(np.array(rows), np.array([1.0, 2.0, 4.0, 8.0]))
    cum = np.cumsum(model.transition, axis=1)
    us = {0.0}
    for c in cum[cum < 1.0]:
        us |= {c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)}
    us = np.array(sorted(us))
    states = np.repeat(np.arange(4), us.size)
    draws = np.tile(us, 4)
    got = _paths_markov(model, 2, states.size, StubGenerator(states, draws))
    want = per_step_markov_paths(model, 2, states.size, StubGenerator(states, draws))
    assert np.array_equal(got, want)
    nxt = (draws[:, None] > cum[states]).sum(axis=1)
    assert np.array_equal(got[:, 1], model.values[nxt] - model.mean())
    # a long path on the same draws, cycled through every step
    steps = np.tile(draws, 31)
    got = _paths_markov(model, 32, states.size, StubGenerator(states, steps))
    want = per_step_markov_paths(model, 32, states.size, StubGenerator(states, steps))
    assert np.array_equal(got, want)


def test_markov_row_rounding_slack_goes_to_the_last_state():
    # the first row sums to 1 - 1e-11, inside the stochastic tolerance; a draw
    # above its last cumulative sum moves to the last state
    model = FiniteMarkovModel(np.array([[0.5, 0.5 - 1e-11], [0.5, 0.5]]), np.array([1.0, -1.0]))
    states, draws = np.array([0, 1]), np.full(6, 1.0 - 1e-12)
    got = _paths_markov(model, 4, 2, StubGenerator(states, draws))
    c = model.values - model.mean()
    assert np.array_equal(got, np.array([[c[0], c[1], c[1], c[1]], [c[1]] * 4]))
    with pytest.raises(IndexError):
        per_step_markov_paths(model, 4, 2, StubGenerator(states, draws))


@pytest.mark.parametrize("cap", [2000, 1])
def test_markov_paths_chunked_equal_one_block(monkeypatch, cap):
    # a cap of 2000 elements shrinks the guide tables to 4-512 buckets and
    # draws 33 steps a block; a cap of 1 leaves one bucket and one step a block
    models = list(sampler_chains())[::3]
    whole = [_paths_markov(m, 64, 60, np.random.default_rng(9)) for m in models]
    monkeypatch.setattr(glscov._optimize, "CHUNK_ELEMENTS", cap)
    for model, want in zip(models, whole):
        assert np.array_equal(_paths_markov(model, 64, 60, np.random.default_rng(9)), want)


@pytest.mark.parametrize("model", [
    MDependentModel((1.0, 0.5)),
    FiniteMarkovModel(np.array([[0.9, 0.1], [0.3, 0.7]]), np.array([1.0, -1.0])),
    UserSamplesModel(np.arange(40.0).reshape(4, 10)),
], ids=["m_dependent", "finite_markov", "user_samples"])
def test_sigma_n_estimate_validates_n_and_replications(model):
    with pytest.raises(DomainError, match="n must be at least 1"):
        sigma_n_estimate(model, [4, 0])
    with pytest.raises(DomainError, match="n must be at least 1"):
        sigma_n_estimate(model, [-3])
    for reps in (1, 0):
        with pytest.raises(DomainError, match="replications must be at least 2"):
            sigma_n_estimate(model, [4], replications=reps)


def test_user_samples_need_two_rows():
    with pytest.raises(DomainError, match="at least 2 replications"):
        UserSamplesModel(np.ones((1, 10)))


def test_non_finite_model_input_is_refused():
    for coeffs in ((math.nan, 1.0), (1.0, math.inf), (-math.inf,)):
        with pytest.raises(DomainError, match="coefficients must be finite"):
            MDependentModel(coeffs)
    for bad in (math.inf, -math.inf, math.nan):
        paths = np.arange(20.0).reshape(2, 10)
        paths[1, 3] = bad
        with pytest.raises(DomainError, match="user samples must be finite"):
            UserSamplesModel(paths)


@pytest.mark.parametrize("model", [
    MDependentModel((1.0, 0.5)),
    FiniteMarkovModel(np.array([[0.9, 0.1], [0.3, 0.7]]), np.array([1.0, -1.0])),
    UserSamplesModel(np.arange(40.0).reshape(4, 10)),
], ids=["m_dependent", "finite_markov", "user_samples"])
def test_sigma_n_estimate_needs_integer_n(model):
    for bad in ([2.5], [4.0], [np.float64(4.0)], [4, math.nan]):
        with pytest.raises(DomainError, match="n must be an integer"):
            sigma_n_estimate(model, bad)
    python_int = sigma_n_estimate(model, [4, 8], replications=10)
    numpy_int = sigma_n_estimate(model, np.array([4, 8]), replications=10)
    assert python_int == numpy_int
    assert [est.n for est in numpy_int] == [4, 8]
