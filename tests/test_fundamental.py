import math

import pytest
from hypothesis import given, settings, strategies as st

import piecewise_reference as ref
from glscov import (
    DomainError,
    PsiFunction,
    closed_form_finite,
    closed_form_power,
    conjugate,
    extremal,
    finite_support,
    finite_support_constant,
    fundamental,
    fundamental_truncated,
    g_prime,
    g_transform,
    power,
    product_zeta,
    solve_argmax,
    tabulated,
)


def test_power_closed_form_example():
    # psi(p) = p, delta = e^-2: value 1/(2e), maximizer p = 2
    res = fundamental(power(1.0), math.exp(-2.0))
    assert res.value == pytest.approx(1.0 / (2.0 * math.e), rel=1e-9)
    assert res.argmax_p == pytest.approx(2.0, rel=1e-6)


def test_power_closed_form_grid():
    for m in (0.5, 1.0, 2.0, 5.0):
        for delta in (1e-2, 1e-6, 1e-10):
            got = fundamental(power(m), delta).value
            assert got == pytest.approx(closed_form_power(m, delta), rel=1e-8)


def test_delta_one_gives_one_at_p_one():
    res = fundamental(power(2.0), 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-12)
    assert res.argmax_p == pytest.approx(1.0)


def test_delta_above_one_allowed():
    # used with delta = 1/beta >= 1; for psi = p the sup is at the scan cap
    res = fundamental(power(1.0), 4.0)
    assert res.value >= 1.0


def test_extremal_degeneration():
    for r in (2.0, 4.0, 8.0):
        for delta in (0.5, 1e-3):
            res = fundamental(extremal(r), delta)
            assert res.value == pytest.approx(delta ** (1.0 / r), abs=1e-12)


@pytest.mark.parametrize("delta", [1e-12, 1e-6, 1e-2])
def test_extremal_sup_sits_on_the_exact_support_end(delta):
    # 1/(1/1.825) rounds above 1.825, where psi is +inf: the grid end must be
    # read at u = 1/b itself, or the sup falls back to the next grid point
    r = 1.825
    assert 1.0 / (1.0 / r) > r
    res = fundamental(extremal(r), delta)
    assert res.value == pytest.approx(delta ** (1.0 / r), rel=1e-14, abs=0.0)
    assert (res.argmax_p, res.boundary) == (r, "at_b")


def test_sup_at_the_lower_scan_end_is_flagged():
    # at delta = 0.9 the objective of power(1) rises on all of [1/b, 1/s]
    for s, flag in ((1.0, "at_one"), (1.46, "at_s"), (2.0, "at_s")):
        res = fundamental_truncated(power(1.0), s, 0.9)
        assert (res.argmax_p, res.boundary) == (s, flag)
    assert fundamental(power(1.0), 0.9).boundary == "at_one"


def test_empty_support_rejected():
    zeta = product_zeta(extremal(2.0), extremal(1.5))  # needs p<=2 and p'<=1.5
    with pytest.raises(DomainError):
        fundamental(zeta, 0.5)
    # the same for piecewise factors: no breakpoint is left
    zeta = product_zeta(tabulated([(1.0, 1.0), (2.0, 2.0)]), tabulated([(1.5, 1.0)]))
    assert zeta.breakpoints.size == 0
    with pytest.raises(DomainError):
        fundamental(zeta, 0.5)


def test_truncated_matches_full_at_s_one():
    psi = power(1.5)
    full = fundamental(psi, 1e-4)
    trunc = fundamental_truncated(psi, 1.0, 1e-4)
    assert trunc.value == pytest.approx(full.value, rel=1e-12)


def test_truncated_nonincreasing_in_s():
    psi = power(1.0)
    vals = [fundamental_truncated(psi, s, 1e-4).value for s in (1.0, 2.0, 4.0, 8.0)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_truncated_requires_s_below_b():
    with pytest.raises(DomainError):
        fundamental_truncated(finite_support(2.0, 1.0), 2.0, 0.5)


def test_finite_support_shape_and_constant_report():
    b, beta = 2.0, 1.0
    delta = 1e-10
    cf = closed_form_finite(b, beta, delta)
    assert cf.reference_constant == finite_support_constant(b, beta) == pytest.approx(2.0)
    shape = delta ** (1.0 / b) * abs(math.log(delta)) ** -beta
    numeric = fundamental(finite_support(b, beta), delta).value
    assert cf.observed_constant == pytest.approx(numeric / shape, rel=1e-9)
    assert cf.constant_mismatch  # the tabulated constant does not match numerics


def test_g_transform_and_prime_power():
    psi = power(2.0)
    x = 0.25
    assert g_transform(psi, x) == pytest.approx(-math.log(eval_at(psi, 1 / x)))
    assert g_prime(psi, x) == pytest.approx(1.0 / (2.0 * x), rel=1e-9)


def eval_at(psi, p):
    from glscov import eval_psi

    return eval_psi(psi, p)


def test_g_prime_finite_support_closed_form():
    b, beta = 3.0, 0.5
    psi = finite_support(b, beta)
    x = 0.5  # p = 2 inside the support
    expected = beta / (x * x * (b - 1.0 / x))
    assert g_prime(psi, x) == pytest.approx(expected, rel=1e-9)


def test_g_prime_numeric_matches_closed_form():
    # tabulated copy of the power family: numeric differentiation path
    psi_t = tabulated([(p, p) for p in [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]])
    # the tabulated function is piecewise linear between knots, so the
    # derivative matches only to the knot-spacing resolution
    x = 1.0 / 2.5
    assert g_prime(psi_t, x) == pytest.approx(1.0 / x, rel=5e-2)


def test_solve_argmax_power():
    # maximizer p0 = m ln(1/delta) for the power family
    for m, delta in [(1.0, math.exp(-2.0)), (2.0, 1e-3)]:
        p0 = solve_argmax(power(m), delta)
        assert p0 == pytest.approx(m * math.log(1.0 / delta), rel=1e-6)


# ---------------------------------------------------------------------------
# piecewise log-linear psi: the sup sits on a breakpoint or a scan end

DELTAS = (1e-12, 1e-6, 1e-2, 0.5, 4.0, 1e6)


@pytest.mark.parametrize("name", ["tabulated", "empirical", "product"])
def test_piecewise_sups_are_the_brute_force_max_over_breakpoints(name):
    psi, verts = ref.piecewise_case(name)
    for delta in DELTAS:
        got = math.log(fundamental(psi, delta).value)
        assert got == pytest.approx(ref.log_fundamental(verts, delta), rel=1e-13, abs=1e-13)
        for s in (1.7, 2.5, 6.0):
            got = math.log(fundamental_truncated(psi, s, delta).value)
            want = ref.log_fundamental(verts, delta, s)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(ref.knot_sets(), ref.knot_sets(), st.floats(-30.0, 15.0), st.floats(1.0, 12.0))
def test_piecewise_sups_match_the_brute_force_on_random_knots(knots, knots_2, log_delta, s):
    # ln psi(1/u) is neither convex nor concave; the breakpoints still carry
    # every sup, which the dense scan confirms for the reference itself
    delta = math.exp(log_delta)
    verts = ref.vertices(knots)
    prod = ref.product_vertices(verts, ref.vertices(knots_2))
    cases = [(tabulated(knots), verts), (product_zeta(tabulated(knots), tabulated(knots_2)), prod)]
    for psi, vs in cases:
        want = ref.log_fundamental(vs, delta)
        assert want >= ref.dense_max(vs, lambda u, a: u * log_delta - a, vs[0][0], 1.0) - 1e-12
        got = math.log(fundamental(psi, delta).value)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)
    if s < knots[-1][0]:
        got = math.log(fundamental_truncated(tabulated(knots), s, delta).value)
        assert got == pytest.approx(ref.log_fundamental(verts, delta, s), rel=1e-13, abs=1e-13)


def test_piecewise_sups_make_no_scalar_probe(monkeypatch):
    # the grid maximum is the sup on a piecewise psi, so neither fundamental
    # nor the conjugate refines; a power psi still does
    calls = []
    jet = PsiFunction.log_u_jet

    def counted(self, u):
        calls.append(u)
        return jet(self, u)

    monkeypatch.setattr(PsiFunction, "log_u_jet", counted)
    for name in ("tabulated", "empirical", "product"):
        psi, _ = ref.piecewise_case(name)
        fundamental(psi, 1e-3)
        fundamental_truncated(psi, 1.5, 1e-3)
        conjugate(psi, 1.0)
    assert calls == []
    fundamental(power(2.0), 1e-3)
    assert calls
    calls.clear()
    conjugate(power(2.0), 1.0)
    assert calls
