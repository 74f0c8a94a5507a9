import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import piecewise_reference as ref
from glscov import (
    DomainError,
    conjugate,
    conjugate_info,
    dual_psi,
    empirical_tail,
    extremal,
    fundamental,
    fundamental_truncated,
    orlicz_N,
    power,
    product_zeta,
    tabulated,
    tail_bound,
    v_of,
)


def test_v_of_power():
    psi = power(1.0)
    assert v_of(psi, 3.0) == pytest.approx(3.0 * math.log(3.0))


def test_v_of_at_infinity_is_the_limit():
    # v(p) = p ln psi(p) -> lim g(u)/u as u = 1/p -> 0, with g(u) = ln psi(1/u)
    assert v_of(dual_psi(power(2.0)), math.inf) == 0.5  # g(u) = -ln(1 - u)/2
    assert v_of(dual_psi(power(2.0)), 1e6) == pytest.approx(0.5, rel=1e-6)
    for m in (0.5, 1.0, 4.0):
        assert v_of(power(m), math.inf) == math.inf
    assert v_of(product_zeta(power(1.0), dual_psi(power(1.0))), math.inf) == math.inf


def test_conjugate_of_a_product_with_its_dual_at_large_p():
    # zeta(p) = psi(p) psi(p'') = p^(2/m): v*(x) = 2 e^(x m/2 - 1)/m at
    # p = e^(x m/2 - 1) ~ 8900, where reading the dual factor at
    # 1 - (1 - u) would cost ln zeta ~1e-12 of its relative precision
    m, x = 3.6473163764213354, 5.534127135240082
    zeta = product_zeta(power(m), dual_psi(power(m)))
    info = conjugate_info(zeta, x)
    p = math.exp(x * m / 2.0 - 1.0)
    assert info.value == pytest.approx(2.0 * p / m, rel=1e-14)
    assert info.argmax_p == pytest.approx(p, rel=1e-9)


def test_conjugate_power_one_closed_form():
    # v(p) = p ln p  =>  v*(x) = e^(x-1) for x >= 1 (maximizer p = e^(x-1))
    psi = power(1.0)
    for x in (1.0, 1.5, 2.0, 3.0):
        assert conjugate(psi, x) == pytest.approx(math.exp(x - 1.0), rel=1e-8)


def test_conjugate_boundary_below_one():
    # for x < 1 the maximizer sits at p = 1 and v*(x) = x
    psi = power(1.0)
    for x in (-1.0, 0.0, 0.5):
        info = conjugate_info(psi, x)
        assert info.value == pytest.approx(x, abs=1e-10)
        assert info.argmax_p == pytest.approx(1.0)


def test_conjugate_unbounded_flag_for_extremal():
    # v identically 0 on [1, r]: v*(x) = r x for x > 0, attained at p = r
    psi = extremal(4.0)
    info = conjugate_info(psi, 2.0)
    assert info.value == pytest.approx(8.0, rel=1e-12)
    assert not info.unbounded_at_cap


@pytest.mark.parametrize("r", [1.825, 3.0, 7.5])
def test_conjugate_of_extremal_is_linear(r):
    # the sup of p x over p in [1, r] sits on the support end p = r, which the
    # scan in u = 1/p reaches at its first grid point
    for x in (0.5, 1.0, 4.0):
        info = conjugate_info(extremal(r), x)
        assert info.value == pytest.approx(r * x, rel=1e-14, abs=0.0)
        assert info.argmax_p == r


XS = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 6.0)


@pytest.mark.parametrize("name", ["tabulated", "empirical", "product"])
def test_piecewise_conjugate_is_the_brute_force_max_over_breakpoints(name):
    # (x - ln psi(1/u))/u is monotone on each cell between breakpoints
    psi, verts = ref.piecewise_case(name)
    for x in XS:
        assert conjugate(psi, x) == pytest.approx(ref.conjugate(verts, x), rel=1e-13, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(ref.knot_sets(), ref.knot_sets(), st.floats(-1.0, 4.0))
def test_piecewise_conjugate_matches_the_brute_force_on_random_knots(knots, knots_2, x):
    verts = ref.vertices(knots)
    prod = ref.product_vertices(verts, ref.vertices(knots_2))
    cases = [(tabulated(knots), verts), (product_zeta(tabulated(knots), tabulated(knots_2)), prod)]
    for psi, vs in cases:
        want = ref.conjugate(vs, x)
        assert want >= ref.dense_max(vs, lambda u, a: (x - a) / u, vs[0][0], 1.0) - 1e-12
        assert conjugate(psi, x) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_fenchel_young_inequality():
    psi = power(2.0)
    ps = np.linspace(1.0, 40.0, 25)
    xs = np.linspace(-1.0, 3.0, 25)
    for p in ps:
        vp = v_of(psi, float(p))
        for x in xs:
            vs = conjugate(psi, float(x))
            slack = 1e-8 * max(1.0, abs(p * x))
            assert vp + vs >= p * x - slack


def test_tail_bound_monotone_and_capped():
    psi = power(2.0)
    norm = 1.0
    ys = np.linspace(math.e, 8.0, 30)
    vals = [tail_bound(psi, norm, float(y)) for y in ys]
    assert all(v <= 1.0 for v in vals)
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_tail_bound_rejects_small_y():
    with pytest.raises(DomainError):
        tail_bound(power(1.0), 1.0, 2.0)  # 2.0 < e * 1.0


def test_tail_bound_scales_with_norm():
    psi = power(2.0)
    a = tail_bound(psi, 1.0, 4.0)
    b = tail_bound(psi, 2.0, 8.0)
    assert a == pytest.approx(b, rel=1e-9)


def test_orlicz_continuity_at_e():
    psi = power(1.0)
    left = orlicz_N(psi, math.e * (1 - 1e-9))
    right = orlicz_N(psi, math.e * (1 + 1e-9))
    assert left == pytest.approx(right, rel=1e-6)


def test_orlicz_quadratic_below_e():
    psi = power(1.0)
    c = orlicz_N(psi, 1.0)
    assert orlicz_N(psi, 2.0) == pytest.approx(4.0 * c, rel=1e-12)


def test_empirical_tail_counts():
    x = np.array([-3.0, -1.0, 0.5, 2.0, 2.5, 4.0])
    # one-sided: P(x > 2.2) = 2/6, P(x < -2.2) = 1/6 -> max = 1/3
    assert empirical_tail(x, 2.2) == pytest.approx(2.0 / 6.0)
    assert empirical_tail(x, 5.0) == 0.0


def _truncated(psi, delta):
    return fundamental_truncated(psi, 2.0, delta)


@pytest.mark.parametrize("call, args", [
    (fundamental, (math.nan,)),
    (fundamental, (math.inf,)),
    (_truncated, (math.nan,)),
    (_truncated, (math.inf,)),
    (conjugate_info, (math.nan,)),
    (conjugate_info, (math.inf,)),
    (conjugate_info, (-math.inf,)),
    (tail_bound, (math.nan, 5.0)),
    (tail_bound, (math.inf, 5.0)),
    (tail_bound, (1.0, math.nan)),
    (tail_bound, (1.0, math.inf)),
])
def test_non_finite_arguments_raise_domain_error(call, args):
    with pytest.raises(DomainError):
        call(power(1.0), *args)
