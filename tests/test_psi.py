import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from glscov import (
    DomainError,
    MomentTable,
    conjugate_exponent,
    dual_psi,
    eval_psi,
    extremal,
    finite_support,
    gls_norm,
    lp_norm_of_samples,
    moment_table_from_csv,
    moment_table_to_csv,
    moments_from_samples,
    natural_from_moments,
    power,
    product_zeta,
    psi_from_json,
    psi_to_json,
    tabulated,
)
from glscov.psi import log_eval_piecewise, logsumexp


def test_conjugate_exponent_values():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0)
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0


def test_power_family_values():
    psi = power(2.0)
    assert eval_psi(psi, 1.0) == 1.0
    assert eval_psi(psi, 4.0) == pytest.approx(2.0)
    assert eval_psi(psi, 1e12) == pytest.approx(1e6)


def test_power_rejects_bad_m():
    with pytest.raises(DomainError):
        power(0.0)


def test_finite_support_values_and_support():
    psi = finite_support(3.0, 1.5)
    assert eval_psi(psi, 2.0) == pytest.approx(1.0)
    assert eval_psi(psi, 2.5) == pytest.approx(0.5**-1.5)
    assert eval_psi(psi, 3.0) == math.inf
    assert eval_psi(psi, 10.0) == math.inf


def test_extremal_is_constant_one_then_infinite():
    psi = extremal(4.0)
    assert eval_psi(psi, 1.0) == 1.0
    assert eval_psi(psi, 4.0) == 1.0
    assert eval_psi(psi, 4.0 + 1e-12) == math.inf


def test_eval_rejects_p_below_one():
    with pytest.raises(DomainError):
        eval_psi(power(1.0), 0.5)


def test_tabulated_interpolates_and_extends_flat():
    psi = tabulated([(2.0, 1.0), (8.0, 2.0)])
    assert eval_psi(psi, 2.0) == pytest.approx(1.0)
    assert eval_psi(psi, 8.0) == pytest.approx(2.0)
    # flat extension left of the first knot
    assert eval_psi(psi, 1.0) == pytest.approx(1.0)
    # beyond the last knot the support ends
    assert eval_psi(psi, 9.0) == math.inf
    # interpolation happens in (1/p, log psi): at u midway between 1/2 and 1/8
    mid_u = 0.5 * (1 / 2 + 1 / 8)
    assert eval_psi(psi, 1 / mid_u) == pytest.approx(math.sqrt(2.0))


_SCALAR_CASES = [
    (power(2.0), [1.0, 1.5, 4.0, 1e12, math.inf]),
    # b = 3 itself lies outside the open support
    (finite_support(3.0, 1.5), [1.0, 2.0, 2.999, 3.0, 10.0]),
    # closed at r = 4: finite there, +inf just beyond
    (extremal(4.0), [1.0, 4.0, 4.0 + 1e-12, 7.0]),
    # flat left of the first knot, closed at b = 8
    (tabulated([(2.0, 1.0), (3.0, 1.3), (8.0, 2.0)]), [1.0, 2.0, 2.5, 5.0, 8.0, 8.5]),
    (product_zeta(power(1.0), finite_support(3.0, 1.0)), [1.0, 1.4, 1.6, 2.0, 5.0]),
    (dual_psi(power(2.0)), [1.0, 1.5, 2.0, 10.0, math.inf]),
]


@pytest.mark.parametrize(
    "psi,ps", _SCALAR_CASES, ids=[psi.kind for psi, _ in _SCALAR_CASES]
)
def test_log_eval_scalar_matches_log_eval(psi, ps):
    for p in ps:
        want = float(psi.log_eval(np.array([p]))[0])
        got = psi.log_eval_scalar(p)
        assert isinstance(got, float)
        if math.isinf(want):
            assert got == want, p
        else:
            assert math.isclose(got, want, rel_tol=1e-15, abs_tol=1e-300), p
    assert any(math.isinf(psi.log_eval_scalar(p)) for p in ps)
    with pytest.raises(DomainError):
        psi.log_eval_scalar(0.5)


def test_log_eval_scalar_support_edge():
    assert extremal(4.0).log_eval_scalar(4.0) == 0.0
    assert tabulated([(2.0, 1.0), (8.0, 2.0)]).log_eval_scalar(8.0) == pytest.approx(
        math.log(2.0)
    )
    assert finite_support(3.0, 1.5).log_eval_scalar(3.0) == math.inf


def test_logsumexp_matches_direct_summation():
    rows = np.array([[0.0, -1.0, 2.5, -30.0], [700.0, 705.0, 706.0, 709.0]])
    direct = [math.log(sum(math.exp(x) for x in row)) for row in rows]
    batch = logsumexp(rows, axis=1)
    assert batch.shape == (2,)
    for row, want, got in zip(rows, direct, batch):
        assert logsumexp(row) == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(want, rel=1e-14)
    assert logsumexp(rows) == pytest.approx(
        math.log(sum(math.exp(x) for x in rows.ravel())), rel=1e-14
    )


def test_logsumexp_extremes():
    # beyond exp's overflow threshold the shift still gives the exact answer
    assert logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(1000.0 + math.log(2.0))
    assert logsumexp(np.full(3, -np.inf)) == -math.inf
    batch = logsumexp(np.array([[-np.inf, -np.inf], [0.0, -np.inf]]), axis=1)
    assert batch[0] == -math.inf
    assert batch[1] == 0.0


def test_dual_of_finite_support_is_rejected():
    with pytest.raises(DomainError):
        dual_psi(finite_support(2.0, 1.0))


def test_dual_evaluates_at_conjugate():
    psi = power(1.0)
    hat = dual_psi(psi)
    for p in (1.5, 2.0, 3.0, 10.0):
        assert eval_psi(hat, p) == pytest.approx(eval_psi(psi, p / (p - 1.0)))


def test_product_zeta_multiplies():
    psi, nu = power(1.0), power(2.0)
    zeta = product_zeta(psi, nu)
    for p in (1.5, 2.0, 5.0):
        expected = eval_psi(psi, p) * eval_psi(nu, p / (p - 1.0))
        assert eval_psi(zeta, p) == pytest.approx(expected)


def test_breakpoints_of_piecewise_kinds():
    tab = tabulated([(1.5, 2.0), (4.0, 3.0), (2.0, 1.0)])
    # the knots in u = 1/p, and u = 1 where the flat extension below p = 1.5 ends
    assert tab.breakpoints.tolist() == [0.25, 0.5, 1.0 / 1.5, 1.0]
    nu = tabulated([(1.0, 1.0), (8.0, 2.0)])
    zeta = product_zeta(tab, nu)
    # psi's knots and one minus nu's, where both are finite: u in [1/4, 7/8]
    assert zeta.breakpoints.tolist() == [0.25, 0.5, 1.0 / 1.5, 0.875]
    for psi in (power(1.0), finite_support(3.0, 1.0), extremal(4.0), dual_psi(power(2.0)),
                product_zeta(tab, power(1.0)), product_zeta(power(1.0), nu)):
        assert psi.breakpoints is None


def test_product_breakpoint_on_the_right_support_end_is_finite():
    # at u = 1 - 1/16 the conjugate exponent of 1/u rounds past 16, where the
    # right factor ends; interpolated in u the closed end stays finite
    psi = tabulated([(1.0, 1.0), (2.0, 1.5), (16.0, 4.0)])
    zeta = product_zeta(psi, psi)
    u = 1.0 - 1.0 / 16.0
    assert float(conjugate_exponent(1.0 / u)) > 16.0
    assert math.isinf(zeta.log_eval(np.array([1.0 / u]))[0])
    got = log_eval_piecewise(zeta, np.array([u, np.nextafter(u, 1.0)]))
    lerp = math.log(1.5) * (1.0 - (u - 0.5) / 0.5)  # ln psi(1/u) on the cell u in [1/2, 1]
    assert got[0] == pytest.approx(lerp + math.log(4.0), rel=1e-15)
    assert math.isinf(got[1])


def test_json_round_trip_pointwise():
    cases = [
        power(2.5),
        finite_support(3.0, 0.5),
        extremal(4.0),
        tabulated([(1.0, 1.0), (4.0, 1.5)]),
        product_zeta(power(1.0), power(2.0)),
        dual_psi(power(3.0)),
    ]
    grid = [1.0, 1.5, 2.0, 2.5, 3.5, 5.0, 50.0]
    for psi in cases:
        back = psi_from_json(psi_to_json(psi))
        for p in grid:
            a, b = eval_psi(psi, p), eval_psi(back, p)
            if math.isinf(a):
                assert math.isinf(b)
            else:
                assert b == pytest.approx(a, rel=1e-12)


def test_moment_table_validation():
    with pytest.raises(DomainError):
        MomentTable(((2.0, 1.0), (1.5, 2.0)))  # p not increasing
    with pytest.raises(DomainError):
        MomentTable(((1.0, 2.0), (2.0, 1.0)))  # moments decreasing
    with pytest.raises(DomainError):
        MomentTable(())


def test_moment_table_csv_round_trip():
    table = MomentTable(((1.0, 0.5), (2.0, 0.75), (4.0, 1.25)))
    back = moment_table_from_csv(moment_table_to_csv(table))
    assert back.entries == table.entries


def test_lp_norm_log_space_survives_huge_p():
    x = np.array([3.0, 5.0])
    got = lp_norm_of_samples(x, 800.0)
    expected = math.exp((math.log(0.5) + 800 * math.log(5.0)) / 800)
    assert got == pytest.approx(expected, rel=1e-12)


def test_lp_norm_monotone_in_p():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(400)
    ps = [1.0, 2.0, 4.0, 8.0, 32.0]
    vals = [lp_norm_of_samples(x, p) for p in ps]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=50), st.floats(1.0, 20.0))
def test_lp_norm_dominated_by_sup(xs, p):
    x = np.array(xs)
    assert lp_norm_of_samples(x, p) <= np.abs(x).max() + 1e-9


def test_natural_from_moments_and_norm_one():
    rng = np.random.default_rng(1)
    table = moments_from_samples(rng.standard_normal(5000), [1, 2, 4, 8], seed=1)
    psi = natural_from_moments(table)
    assert psi.kind == "empirical"
    norm = gls_norm(table, psi)
    assert norm.value == pytest.approx(1.0, rel=1e-12)


def test_natural_trivial_rejected():
    with pytest.raises(DomainError):
        natural_from_moments(MomentTable(((1.0, 1.0),)))


def test_gls_norm_picks_argmax():
    table = MomentTable(((1.0, 1.0), (2.0, 3.0), (4.0, 3.5)))
    res = gls_norm(table, power(1.0))  # psi(p) = p
    # candidates: 1/1, 3/2, 3.5/4 -> max at p = 2
    assert res.argmax_p == 2.0
    assert res.value == pytest.approx(1.5)
