import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glscov import (
    DomainError,
    conjugate_exponent,
    davydov_bound,
    dual_psi,
    example_combined,
    example_finite_pair,
    example_mixed_pair,
    example_power_pair,
    extremal,
    factorization_check,
    finite_support,
    fundamental,
    generic_bound,
    gls_dual_pair_bound,
    gls_identical_bound,
    gls_strong_bound,
    gls_uniform_bound,
    holder_bound,
    ibragimov_bound,
    phi_uniform,
    phi_uniform_theta,
    power,
    tabulated,
)


def test_davydov_value_and_feasibility():
    rep = davydov_bound(0.01, 4.0, 4.0, 2.0, 3.0)
    assert rep.feasible
    assert rep.value == pytest.approx(12.0 * 0.01**0.5 * 6.0)
    assert not davydov_bound(0.01, 2.0, 2.0, 1.0, 1.0).feasible


def test_davydov_zero_alpha():
    rep = davydov_bound(0.0, 4.0, 4.0, 1.0, 1.0)
    assert rep.feasible and rep.value == 0.0


def test_ibragimov_conjugate_line():
    rep = ibragimov_bound(0.09, 2.0, 1.5, 2.0)
    assert rep.value == pytest.approx(2.0 * 0.3 * 1.5 * 2.0)
    # p = +inf: the factor beta^(1/p) collapses to 1
    rep = ibragimov_bound(0.09, math.inf, 1.5, 2.0)
    assert rep.value == pytest.approx(2.0 * 1.5 * 2.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0, math.inf])
def test_ibragimov_conjugate_exponent_is_the_vectorized_one_bit_for_bit(p):
    rep = ibragimov_bound(0.09, p, 1.5, 2.0)
    assert rep.q == float(conjugate_exponent(np.array([p]))[0])
    assert rep.q == (1.0 if p == math.inf else p / (p - 1.0))
    factor = 1.0 if p == math.inf else 0.09 ** (1.0 / p)
    assert rep.value == 2.0 * factor * 1.5 * 2.0


def test_holder():
    assert holder_bound(1.5, 2.0).value == pytest.approx(6.0)


def test_gls_strong_zero_beta():
    rep = gls_strong_bound(power(1.0), power(1.0), 0.0, 1.0, 1.0)
    assert rep.value == 0.0


def test_gls_strong_extremal_conjugate_pair_is_ibragimov():
    # psi = L_r indicator, nu = L_{r'}: the product is finite only at p = r,
    # so the strong bound collapses to the classical conjugate-pair estimate
    for r in (2.0, 3.0, 4.0):
        rp = r / (r - 1.0)
        beta = 0.04
        got = gls_strong_bound(extremal(r), extremal(rp), beta, 1.0, 1.0).value
        want = ibragimov_bound(beta, r, 1.0, 1.0).value
        assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "r1, r2, beta",
    [
        (6.282397375677437, 3.093892051878416, 0.003145331212460275),
        (4.0485849323659995, 5.862024348008664, 0.0010676423700780211),
        (5.950322602701101, 5.2696340188602155, 0.00017947927773594524),
        (6.128622704213797, 6.358730559790118, 0.008608610328017146),
        (6.545428644346871, 5.347148237677143, 0.0004945666383584367),
    ],
)
def test_gls_strong_extremal_pair_sup_on_the_support_edge(r1, r2, beta):
    # zeta is finite only for p in [r2', r1] and the sup sits at p = r2', so
    # the golden-section search must close in on that edge from the feasible
    # side: the bound is Ibragimov's 2 beta^(1 - 1/r2)
    got = gls_strong_bound(extremal(r1), extremal(r2), beta, 1.0, 1.0).value
    assert got == pytest.approx(2.0 * beta ** (1.0 - 1.0 / r2), rel=1e-9)


def test_theta_route_reaches_a_closed_support_end():
    # 1/(1/1.825) rounds past 1.825, where extremal(1.825) is +inf: the outer
    # axis must evaluate psi at the exact end exponent, where the sup sits
    assert 1.0 / (1.0 / 1.825) > 1.825
    alpha = 0.01
    got = phi_uniform_theta(extremal(1.825), extremal(4.0), alpha)
    assert got == pytest.approx(alpha ** (1.0 / 1.825 + 1.0 / 4.0), rel=1e-14, abs=0.0)


def test_generic_bound_reaches_a_closed_support_end():
    # the Davydov kernel on an extremal pair: the inf sits at (p, q) = (1.825, 4)
    alpha = 0.01
    rep = generic_bound(
        lambda p, q: 12.0 * alpha ** (1.0 - 1.0 / p - 1.0 / q),
        extremal(1.825), extremal(4.0), "T", 1.0, 1.0,
    )
    want = 12.0 * alpha ** (1.0 - 1.0 / 1.825 - 1.0 / 4.0)
    assert rep.value == pytest.approx(want, rel=1e-14, abs=0.0)
    assert (rep.p, rep.q) == (1.825, 4.0)


def test_dual_pair_identity():
    # nu = dual(psi) makes the product zeta = psi^2, so the strong bound equals
    # the specialized dual-pair formula
    for m in (1.0, 2.0):
        psi = power(m)
        for k in (1, 4, 10):
            beta = math.exp(-float(k))
            a = gls_strong_bound(psi, dual_psi(psi), beta, 1.0, 1.0).value
            b = gls_dual_pair_bound(psi, beta, 1.0, 1.0).value
            assert a == pytest.approx(b, rel=1e-9)


def test_phi_uniform_routes_agree():
    pairs = [
        (power(1.0), power(2.0)),
        (power(2.0), finite_support(3.0, 0.5)),
        (finite_support(2.0, 1.0), finite_support(4.0, 0.5)),
    ]
    for psi, nu in pairs:
        alpha = math.exp(-4.0)
        r2d = phi_uniform(psi, nu, alpha, alpha)
        rth = phi_uniform_theta(psi, nu, alpha)
        assert r2d.value == pytest.approx(rth, rel=1e-6)


def test_gls_uniform_extremal_pair_is_davydov():
    alpha = 0.02
    got = gls_uniform_bound(extremal(3.0), extremal(4.0), alpha, 1.0, 1.0).value
    want = davydov_bound(alpha, 3.0, 4.0, 1.0, 1.0).value
    assert got == pytest.approx(want, rel=1e-9)


def test_gls_identical_power_example_value():
    # identical power(1) pair at alpha = e^-2: 12 e^2 alpha |ln alpha|^2 = 48
    got = gls_identical_bound(power(1.0), math.exp(-2.0), 1.0, 1.0).value
    assert got == pytest.approx(48.0, rel=1e-6)


def test_squared_fundamentals_divide_without_overflow():
    # phi^2 overflows in both: phi = 1e160 at p = 1 for power(1) at beta =
    # 1e-320, and phi = 0.5 / 1e-200 at p = 1 for the tabulated psi
    got = gls_dual_pair_bound(power(1.0), 1e-320, 1.0, 1.0).value
    phi = 1e-320 ** -0.5
    assert got == pytest.approx(2.0 / phi / phi, rel=1e-3) and got > 0.0  # subnormal
    rep = gls_identical_bound(tabulated([(1.0, 1e-200), (4.0, 1e-199)]), 0.5, 1.0, 1.0)
    assert rep.feasible and rep.value == 0.0  # 6 / (5e199)^2 underflows to 0


def test_example_power_pair_closed_form():
    rep = example_power_pair(1.0, 1.0, math.exp(-2.0))
    assert rep.value == pytest.approx(48.0, rel=1e-12)


def test_example_finite_pair_feasibility():
    assert not example_finite_pair(2.0, 1.0, 2.0, 1.0, 0.01).feasible
    rep = example_finite_pair(3.0, 1.0, 4.0, 0.5, 0.01)
    assert rep.feasible
    expo = 1.0 - 1.0 / 3.0 - 1.0 / 4.0
    assert rep.value > 0
    # scaling in alpha follows alpha^expo |ln alpha|^(beta1+beta2)
    rep2 = example_finite_pair(3.0, 1.0, 4.0, 0.5, 0.0001)
    ratio = rep2.value / rep.value
    want = (0.0001 / 0.01) ** expo * (math.log(1e4) / math.log(1e2)) ** 1.5
    assert ratio == pytest.approx(want, rel=1e-12)


def test_example_mixed_pair_positive():
    rep = example_mixed_pair(2.0, 3.0, 0.5, 0.01)
    assert rep.feasible and rep.value > 0


def test_example_combined_requires_room():
    # q0' must stay below the support bound of psi
    assert not example_combined(finite_support(2.0, 1.0), 1.5, 0.01, 1.0, 1.0).feasible
    rep = example_combined(finite_support(4.0, 1.0), 2.0, 0.01, 1.0, 1.0)
    assert rep.feasible and rep.value > 0


def test_alpha_guard_on_closed_form_examples():
    # the |ln alpha| powers are only monotone for alpha < 1/e
    with pytest.raises(DomainError):
        example_power_pair(1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        example_power_pair(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        gls_identical_bound(power(1.0), 1.5, 1.0, 1.0)  # alpha beyond [0, 1]


def test_factorization_small_alpha_holds():
    r = factorization_check(power(1.0), power(1.0), math.exp(-4.0), math.exp(-4.0))
    assert r.holds
    assert r.lhs == pytest.approx(r.rhs, rel=1e-6)


def test_factorization_large_alpha_fails():
    r = factorization_check(power(1.0), power(1.0), math.exp(-1.0), math.exp(-1.0))
    assert not r.holds
    assert r.lhs < r.rhs * (1.0 - 1e-3)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(0.01, 0.35),
)
def test_factorization_one_sided(m1, m2, alpha):
    # the triangle sup never exceeds the product of one-dimensional sups
    r = factorization_check(power(m1), power(m2), alpha, alpha)
    assert r.lhs <= r.rhs * (1.0 + 1e-9)


def test_generic_bound_constant_kernel_rectangle():
    # constant kernel over a degenerate rectangle: inf = c psi(p) nu(q)
    psi, nu = power(1.0), power(1.0)
    rep = generic_bound(
        lambda p, q: np.full(np.broadcast(p, q).shape, 3.0),
        psi, nu, ((2.0, 2.0), (2.0, 2.0)), 1.0, 1.0,
    )
    assert rep.value == pytest.approx(3.0 * 2.0 * 2.0, rel=1e-9)


@pytest.mark.parametrize(
    "domain, message",
    [
        ("X", "unknown domain 'X'"),
        ("TR", "unknown domain"),
        ((1.0, 2.0), "unknown domain"),
        (((1.5, "a"), (1.5, 4.0)), "unknown domain"),
        (((3.0, 2.0), (1.5, 4.0)), "p_lo <= p_hi"),
        (((1.5, 4.0), (3.0, 2.0)), "q_lo <= q_hi"),
    ],
)
def test_generic_bound_refuses_a_malformed_domain(domain, message):
    with pytest.raises(DomainError, match=message):
        generic_bound(lambda p, q: np.ones_like(p), power(1.0), power(1.0), domain, 1.0, 1.0)


@pytest.mark.parametrize(
    "psi, domain",
    [
        (extremal(3.0), ((5.0, 6.0), (1.5, 4.0))),  # wholly past the closed end p = 3
        (finite_support(3.0, 0.5), ((3.0, 6.0), (1.5, 4.0))),  # only p = b, where psi = inf
    ],
)
def test_generic_bound_on_a_rectangle_outside_the_support_is_infeasible(psi, domain):
    rep = generic_bound(lambda p, q: np.ones_like(p), psi, power(1.0), domain, 1.0, 1.0)
    assert not rep.feasible
    assert rep.notes == ("empty domain",)


def test_gls_strong_bound_with_a_subnormal_beta_names_the_overflow():
    # 1/beta overflows to +inf before the sup: psi and nu are finite everywhere
    rep = gls_strong_bound(power(1.0), power(2.0), 1e-320, 1.0, 1.0)
    assert not rep.feasible
    assert rep.notes == ("1/beta overflows to +inf",)


def test_generic_bound_vanishing_kernel_gives_zero():
    psi, nu = power(1.0), power(1.0)
    rep = generic_bound(
        lambda p, q: np.zeros(np.broadcast(p, q).shape),
        psi, nu, "R", 1.0, 1.0,
    )
    assert rep.value == 0.0


def _ibragimov(beta):
    def h(p, q):
        return 2.0 * beta ** (1.0 / p) * np.ones_like(q)

    return h


@pytest.mark.parametrize(
    "psi,nu,want",
    [
        (power(1.0), power(2.0), (0.11086450547408064, 1.0961298104355204, 11.402600353308257)),
        # p <= 3 and p/(p-1) <= 1.5 leave the single point p = 3
        (extremal(3.0), extremal(1.5), (0.4308869380063768, 3.0, 1.5)),
        (finite_support(4.0, 0.5), power(1.0),
         (0.15143606277876048, 1.256864149601187, 4.8931084838138075)),
        # the inf sits at p = 1, q = infinity, where 1 - u = 0
        (power(2.0), dual_psi(power(1.0)), (0.02, 1.0, math.inf)),
    ],
    ids=["power_power", "extremal_extremal", "finite_power", "power_dual"],
)
def test_generic_bound_on_the_conjugate_line(psi, nu, want):
    rep = generic_bound(_ibragimov(0.01), psi, nu, "conjugate", 1.0, 1.0)
    value, p, q = want
    assert rep.value == pytest.approx(value, rel=1e-14, abs=0.0)
    # the maximum is flat in p, which the value pins far tighter than p
    assert rep.p == pytest.approx(p, rel=1e-7)
    assert rep.q == pytest.approx(q, rel=1e-7)
