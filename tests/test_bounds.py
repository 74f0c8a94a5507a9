import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import piecewise_reference as ref
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
    orlicz_N,
    phi_uniform,
    phi_uniform_theta,
    power,
    product_zeta,
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


@pytest.mark.parametrize("psi", [power(1.0), finite_support(3.0, 0.5), dual_psi(power(2.0)),
                                 extremal(3.0)], ids=["power", "finite", "dual", "extremal"])
def test_dual_pair_bound_in_logs_keeps_the_plain_quotient(psi):
    # the sup is read in logs, and an ordinary phi still divides as c/phi/phi
    for beta in (1e-320, 1e-8, 0.3, 1.0):
        phi = fundamental(psi, beta**-0.5).value
        assert gls_dual_pair_bound(psi, beta, 1.3, 0.7).value == 2.0 * 1.3 * 0.7 / phi / phi


def test_dual_pair_bound_on_an_empty_support_raises():
    # zeta is finite where p < 1.5 and p' < 1.5: nowhere
    zeta = product_zeta(finite_support(1.5, 0.5), finite_support(1.5, 0.5))
    with pytest.raises(DomainError, match=r"empty effective support: psi is \+inf on \[1, b\)"):
        gls_dual_pair_bound(zeta, 0.01, 1.0, 1.0)


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


def test_gls_strong_bound_with_a_subnormal_beta_reads_minus_ln_beta():
    # 1/beta overflows to +inf: the sup reads ln(1/beta) as -ln beta, and a
    # smaller beta gives a smaller bound
    rep = gls_strong_bound(power(1.0), power(2.0), 1e-320, 1.0, 1.0)
    assert rep.feasible and rep.notes == ()
    assert 0.0 < rep.value <= gls_strong_bound(power(1.0), power(2.0), 1e-300, 1.0, 1.0).value


def test_gls_strong_bound_reports_a_subnormal_beta_exponent_as_a_float():
    # the subnormal beta's sup sits in a cell next to an infeasible grid
    # point, once refined by golden section, whose probes were numpy scalars
    # (p printed as np.float64(1.00067812453563)); Newton refines it now
    rep = gls_strong_bound(power(1.0), power(2.0), 1e-320, 1.0, 1.0)
    assert type(rep.p) is float
    assert rep.p == 1.0006781243276246
    assert rep.value == 1.266676e-318


@pytest.mark.parametrize("call", [
    lambda psi: factorization_check(psi, power(2.0), 0.5, 0.5),
    lambda psi: gls_uniform_bound(psi, power(2.0), 0.5, 1.0, 1.0),
    lambda psi: phi_uniform_theta(psi, power(2.0), 0.5),
], ids=["factorization_check", "gls_uniform_bound", "phi_uniform_theta"])
def test_two_exponent_sups_past_the_float_range_raise_domain_error(call):
    # psi(p) = (1e200 - p)^-2 is about 1e-400, so Phi is about 1e400
    with pytest.raises(DomainError, match=r"the sup exceeds the float range \(above 1.8e308\)"):
        call(finite_support(1e200, 2.0))


def test_gls_bounds_divide_in_logs_where_phi_leaves_the_float_range():
    # psi(p) = (1e200 - p)^-2 is about 1e-400, so phi is about 1e400
    psi = finite_support(1e200, 2.0)
    for rep in (gls_strong_bound(psi, power(2.0), 0.5, 1.0, 1.0),
                gls_identical_bound(psi, 0.5, 1.0, 1.0),
                gls_dual_pair_bound(psi, 0.5, 1.0, 1.0)):
        assert rep.feasible and rep.notes == ()
        assert 0.0 <= rep.value < math.inf
    # 1e300 / phi keeps a normal value: 2e300 exp(-ln phi), not 0
    rep = gls_strong_bound(psi, power(2.0), 0.5, 1e150, 1e150)
    assert rep.feasible and 0.0 < rep.value < 1e-90


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


def test_a_strong_bound_past_the_float_range_raises_domain_error():
    # phi underflows to 0 (psi(p) = p^485 on p <= 1.0000257): 2 / phi is
    # past the float range, a DomainError and no ZeroDivisionError
    with pytest.raises(DomainError, match=r"the sup exceeds the float range \(above 1.8e308\)"):
        gls_strong_bound(power(0.0020617452223528816), extremal(1.0000257165104318),
                         8.175026903217094e-170, 1, 1)


def test_a_product_with_a_factor_finite_nowhere_is_finite_nowhere():
    # zeta(L_2, L_1.5) is +inf everywhere (p <= 2 and p/(p - 1) <= 1.5); a
    # product with it as a factor is too, with no IndexError from its table
    nowhere = product_zeta(extremal(2.0), extremal(1.5))
    assert nowhere.breakpoints.size == 0
    for psi in (product_zeta(extremal(2.0), nowhere), product_zeta(nowhere, extremal(2.0))):
        assert psi.breakpoints.size == 0
    report = gls_strong_bound(extremal(2.0), nowhere, 1.0, 1.0, 1.0)
    assert not report.feasible and report.value == math.inf


@pytest.mark.parametrize("domain", ["T", "conjugate"])
def test_a_generic_bound_past_the_float_range_raises_domain_error(domain):
    # nu(q) = q^116 on q >= 4,000 or so: the inf of h psi nu is past the
    # float range, a DomainError and no OverflowError from exp
    alpha = 5.688636236103129e-122
    with pytest.raises(DomainError, match=r"the sup exceeds the float range \(above 1.8e308\)"):
        generic_bound(lambda p, q: 12.0 * alpha ** (1.0 - 1.0 / p - 1.0 / q),
                      extremal(1.0002442148869808), power(0.008647835382986406), domain,
                      1, 1, n_grid=32)


def _builtin_psi():
    """Every built-in kind with b up to 1e300, a dual, and products of them."""
    base = st.one_of(
        st.floats(0.05, 20.0).map(power),
        st.builds(finite_support, st.floats(1.0, 1e300, exclude_min=True), st.floats(0.0, 5.0)),
        st.floats(1.0, 1e300, exclude_min=True).map(extremal),
        ref.knot_sets().map(tabulated),
    )
    return st.one_of(base, st.floats(0.05, 20.0).map(lambda m: dual_psi(power(m))),
                     st.builds(product_zeta, base, base))


def _unit(**kwargs):
    return st.floats(1e-320, 1.0, allow_subnormal=True, **kwargs)


@settings(max_examples=40, deadline=None)
@given(_builtin_psi(), _builtin_psi(), _unit(), _unit(), _unit(exclude_max=True),
       _unit(exclude_max=True), st.floats(-1e300, 1e300))
def test_two_exponent_bounds_give_a_value_an_infeasible_report_or_a_domain_error(
        psi, nu, alpha, beta, alpha_open, beta_open, u):
    def outcome(call):
        try:
            return call()
        except DomainError:
            return None

    def reported(call):  # a value, an infeasible report or a domain error
        rep = outcome(call)
        assert rep is None or (0.0 <= rep.value < math.inf if rep.feasible
                               else rep.value == math.inf)

    phi = outcome(lambda: phi_uniform(psi, nu, alpha, beta))
    assert phi is None or 0.0 <= phi.value < math.inf
    reported(lambda: gls_uniform_bound(psi, nu, alpha, 1.0, 1.0))
    fact = outcome(lambda: factorization_check(psi, nu, alpha_open, beta_open))
    assert fact is None or (0.0 <= fact.lhs < math.inf and 0.0 <= fact.rhs < math.inf)
    reported(lambda: gls_strong_bound(psi, nu, beta, 1.0, 1.0))
    for domain in ("T", "conjugate"):
        reported(lambda: generic_bound(lambda p, q: 12.0 * alpha ** (1.0 - 1.0 / p - 1.0 / q),
                                       psi, nu, domain, 1.0, 1.0, n_grid=32))
    orlicz = outcome(lambda: orlicz_N(psi, u))
    assert orlicz is None or 0.0 <= orlicz < math.inf
