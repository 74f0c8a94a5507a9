import math

import pytest

from glscov import (
    DomainError,
    closed_form_finite,
    closed_form_power,
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
    # evaluated at p = b itself, or the sup falls back to the next grid point
    r = 1.825
    assert 1.0 / (1.0 / r) > r
    res = fundamental(extremal(r), delta)
    assert res.value == pytest.approx(delta ** (1.0 / r), rel=1e-14, abs=0.0)
    assert (res.argmax_p, res.boundary) == (r, "at_b")


def test_empty_support_rejected():
    zeta = product_zeta(extremal(2.0), extremal(1.5))  # needs p<=2 and p'<=1.5
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
