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
from glscov.fundamental import g_prime
from glscov.psi import logsumexp

import piecewise_reference as ref


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


#: (psi, u = 1/p to check, support ends in u); u = 0 stands for p = infinity
_U_CASES = [
    (power(2.0), [1.0, 1 / 1.5, 0.25, 1e-12, 0.0], []),
    # b = 3 itself lies outside the open support
    (finite_support(3.0, 1.5), [1.0, 0.5, 1 / 2.999, 1 / 3.0, 0.1], [1 / 3.0]),
    # 1/(1/3.946312461594403) rounds below b: u = 1/b must still read +inf
    (finite_support(3.946312461594403, 1.0), [1.0, 0.5], [1 / 3.946312461594403]),
    # beta = 0: psi = 1 on [1, b), so only the support test decides
    (finite_support(2.5, 0.0), [1.0, 0.5, 0.45], [1 / 2.5]),
    # closed at r = 4: finite there, +inf just beyond
    (extremal(4.0), [1.0, 0.25, 1 / (4.0 + 1e-12), 1 / 7.0], [1 / 4.0]),
    # flat left of the first knot, closed at b = 8
    (tabulated([(2.0, 1.0), (3.0, 1.3), (8.0, 2.0)]), [1.0, 0.5, 0.4, 0.2, 0.125, 1 / 8.5],
     [1 / 8.0]),
    # the right factor's support ends at 1/q = 1/3, i.e. u = 2/3
    (product_zeta(power(1.0), finite_support(3.0, 1.0)), [1.0, 1 / 1.4, 1 / 1.6, 0.5, 0.2],
     [1.0 - 1.0 / 3.0]),
    (dual_psi(power(2.0)), [1.0, 1 / 1.5, 0.5, 0.1, 0.0], []),
]


def _assert_scalar_matches_array(psi, u):
    want = float(psi.log_u(np.array([u]))[0])
    got = psi.log_u_jet(u)[0]
    assert isinstance(got, float)
    assert not math.isnan(got) and not math.isnan(want), u
    if math.isinf(want):
        assert got == want, u
    else:
        assert math.isclose(got, want, rel_tol=1e-15, abs_tol=1e-300), u


def _end_neighbours(u):
    """u and its two float neighbours inside [0, 1]."""
    near = (np.nextafter(u, -1.0), u, np.nextafter(u, 2.0))
    return [float(v) for v in near if 0.0 <= v <= 1.0]


@pytest.mark.parametrize(
    "psi,us,ends", _U_CASES,
    ids=["power", "finite_support", "finite_support_rounding", "finite_support_beta0",
         "extremal", "tabulated", "product", "dual"],
)
def test_log_u_jet_value_matches_log_u(psi, us, ends):
    checked = list(us) + [0.0, 1.0]
    for end in [1.0 / psi.b] + ends:
        checked += _end_neighbours(end)
    for u in checked:
        _assert_scalar_matches_array(psi, u)
    assert any(math.isinf(psi.log_u_jet(u)[0]) for u in checked)


@given(st.floats(0.0, 1.0))
def test_log_u_jet_value_matches_log_u_on_random_u(u):
    for psi, _, _ in _U_CASES:
        _assert_scalar_matches_array(psi, u)


def test_log_u_at_the_support_ends():
    assert extremal(4.0).log_u_jet(1 / 4.0)[0] == 0.0
    assert tabulated([(2.0, 1.0), (8.0, 2.0)]).log_u_jet(1 / 8.0)[0] == pytest.approx(
        math.log(2.0)
    )
    assert finite_support(3.0, 1.5).log_u_jet(1 / 3.0)[0] == math.inf
    # the open end stays +inf where 1/(1/b) rounds below b, in p and in u
    b = 3.946312461594403
    assert 1.0 / (1.0 / b) < b
    for beta in (0.0, 1.0):
        assert eval_psi(finite_support(b, beta), b) == math.inf
        assert finite_support(b, beta).log_u_jet(1.0 / b)[0] == math.inf
    with pytest.raises(DomainError):
        extremal(4.0).log_eval(0.5)


#: (psi, lo, hi, poles): g(u) = ln psi(1/u) is smooth on the open interval
#: (lo, hi), and its derivatives blow up at the poles
_SMOOTH = [
    (power(0.7), 0.0, 1.0, [0.0]),
    (power(3.0), 0.0, 1.0, [0.0]),
    (finite_support(3.0, 1.5), 1.0 / 3.0, 1.0, [1.0 / 3.0]),
    (finite_support(1.6, 0.25), 1.0 / 1.6, 1.0, [1.0 / 1.6]),
    (finite_support(2.5, 0.0), 1.0 / 2.5, 1.0, [1.0 / 2.5]),
    (dual_psi(power(2.0)), 0.0, 1.0, [1.0]),
    (product_zeta(power(1.5), dual_psi(power(1.5))), 0.0, 1.0, [0.0]),
]


@given(st.floats(0.01, 0.99))
def test_log_u_jet_matches_central_differences(t):
    for psi, lo, hi, poles in _SMOOTH:
        assert psi.smooth
        u = lo + t * (hi - lo)
        h = 5e-4 * min(abs(u - pole) for pole in poles)

        def g(v):
            return psi.log_u_jet(v)[0]

        d1 = (g(u + h) - g(u - h)) / (2.0 * h)
        d2 = (g(u + h) - 2.0 * g(u) + g(u - h)) / (h * h)
        _, got1, got2 = psi.log_u_jet(u)
        assert got1 == pytest.approx(d1, rel=1e-6, abs=1e-12), (psi.kind, u)
        assert got2 == pytest.approx(d2, rel=1e-6, abs=1e-12), (psi.kind, u)


def test_log_u_jet_chain_rule_is_exact():
    inner, right = power(2.0), finite_support(3.0, 0.5)
    dual = dual_psi(inner)
    mixed = product_zeta(power(1.5), right)
    with_dual = product_zeta(power(1.5), dual)
    for u in (0.05, 0.3, 0.5, 0.6):
        i0, i1, i2 = inner.log_u_jet(1.0 - u)
        assert dual.log_u_jet(u) == (i0, -i1, i2)
        (l0, l1, l2), (r0, r1, r2) = power(1.5).log_u_jet(u), right.log_u_jet(1.0 - u)
        assert mixed.log_u_jet(u) == (l0 + r0, l1 - r1, l2 + r2)
        # a dual factor at 1 - u is its inner psi at u, read there directly
        i0, i1, i2 = inner.log_u_jet(u)
        assert with_dual.log_u_jet(u) == (l0 + i0, l1 + i1, l2 + i2)


@pytest.mark.parametrize("x", [1e-170, 1e-310])
def test_g_prime_at_tiny_x_overflows_instead_of_dividing_by_zero(x):
    # m u u underflows to 0 below u of about 1e-162; g'' is then +inf
    for m in (1.0, 2.0):
        g, d1, d2 = power(m).log_u_jet(x)
        assert (g, d1, d2) == (-math.log(x) / m, -1.0 / (m * x), math.inf)
        assert g_prime(power(m), x) == 1.0 / (m * x)
    zeta = product_zeta(power(1.0), dual_psi(power(2.0)))
    assert zeta.log_u_jet(x)[2] == math.inf
    assert g_prime(zeta, x) == 1.0 / x + 1.0 / (2.0 * x)


def test_log_u_jet_is_infinite_outside_the_support_and_g_prime_refuses():
    b = 3.946312461594403  # 1/(1/b) rounds below b
    cases = [
        (power(2.0), [0.0]),
        (finite_support(3.0, 1.5), [1.0 / 3.0, 0.2, 0.0]),
        (finite_support(b, 1.0), [1.0 / b]),
        (finite_support(2.5, 0.0), [1.0 / 2.5]),
        (extremal(4.0), [0.2, 0.0]),
        (tabulated([(2.0, 1.0), (8.0, 2.0)]), [0.1, 0.0]),
        (dual_psi(power(2.0)), [1.0]),
        (product_zeta(power(1.0), finite_support(3.0, 1.0)), [1.0 - 1.0 / 3.0, 0.9, 1.0]),
        (product_zeta(power(1.0), dual_psi(power(2.0))), [0.0]),
    ]
    for psi, us in cases:
        for u in us:
            assert psi.log_u_jet(u)[0] == math.inf, (psi.kind, u)
            with pytest.raises(DomainError):
                g_prime(psi, u)


def test_log_u_jet_of_piecewise_kinds_is_the_cell_slope():
    psi = tabulated([(2.0, 1.0), (4.0, 2.0), (8.0, 2.0)])
    assert not psi.smooth and not extremal(4.0).smooth
    assert not product_zeta(power(1.0), psi).smooth
    slope = -math.log(2.0) / 0.25  # ln psi from ln 2 at u = 1/4 down to 0 at u = 1/2
    assert psi.log_u_jet(0.3)[1:] == (pytest.approx(slope, rel=1e-15), 0.0)
    assert psi.log_u_jet(0.25)[1:] == (pytest.approx(slope, rel=1e-15), 0.0)  # the right cell
    assert psi.log_u_jet(0.125)[1:] == (0.0, 0.0)
    assert psi.log_u_jet(0.75)[1:] == (0.0, 0.0)  # flat below the first knot
    assert extremal(4.0).log_u_jet(0.5) == (0.0, 0.0, 0.0)


def _assert_jet_is_interp(psi, rng):
    """The jet's g of a piecewise psi is np.interp on its table, bit for bit,
    at every breakpoint, its float neighbours, the cell midpoints and random
    points; +inf outside the table."""
    us, logs = psi._table
    points = [us, np.nextafter(us, -1.0), np.nextafter(us, 2.0), 0.5 * (us[1:] + us[:-1]),
              rng.uniform(0.0, 1.0, 16)]
    if us.size:  # else psi is nowhere finite
        points.append(rng.uniform(us[0], us[-1], 64))
    for u in np.concatenate(points).tolist():
        g = psi.log_u_jet(u)[0]
        if us.size and us[0] <= u <= us[-1]:
            assert g == float(np.interp(u, us, logs)), u
        else:
            assert g == math.inf, u


#: the knots of every fixed table the tests build
_TABLES = [
    ref.KNOTS, ref.KNOTS_2, ref.NON_CONVEX,
    [(1.0, 1.0)], [(1.5, 1.0)], [(1.0, 1.0), (2.0, 2.0)], [(2.0, 1.0), (8.0, 2.0)],
    [(1.0, 1.0), (8.0, 2.0)], [(1.0, 1.0), (4.0, 1.5)], [(1.0, 1.0), (2.0, 1.5), (16.0, 4.0)],
    [(1.5, 2.0), (4.0, 3.0), (2.0, 1.0)], [(2.0, 1.0), (3.0, 1.3), (8.0, 2.0)],
    [(2.0, 1.0), (4.0, 2.0), (8.0, 2.0)], [(p, p) for p in [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]],
]


#: the factors of every fixed product of two tables the tests build
_PRODUCTS = [
    (ref.KNOTS, ref.KNOTS_2),
    ([(1.0, 1.0), (2.0, 2.0)], [(1.5, 1.0)]),
    ([(1.0, 1.0), (2.0, 1.5), (16.0, 4.0)], [(1.0, 1.0), (2.0, 1.5), (16.0, 4.0)]),
    ([(1.5, 2.0), (4.0, 3.0), (2.0, 1.0)], [(1.0, 1.0), (8.0, 2.0)]),
]


def _piecewise_psis():
    tables = [tabulated(knots) for knots in _TABLES]
    products = [product_zeta(tabulated(a), tabulated(b)) for a, b in _PRODUCTS]
    return tables + products + [ref.piecewise_case("empirical")[0]]


@pytest.mark.parametrize("psi", _piecewise_psis())
def test_piecewise_jet_value_is_np_interp_on_every_table(psi):
    _assert_jet_is_interp(psi, np.random.default_rng(0))


@given(ref.knot_sets(), ref.knot_sets(), st.integers(0, 2**32 - 1))
def test_piecewise_jet_value_is_np_interp_on_random_tables(knots, knots_2, seed):
    a, b = tabulated(knots), tabulated(knots_2)
    for psi in (a, product_zeta(a, b)):
        _assert_jet_is_interp(psi, np.random.default_rng(seed))


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
    got = zeta.log_u(np.array([u, np.nextafter(u, 1.0)]))
    assert zeta.log_eval(np.array([1.0 / u]))[0] == got[0]
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
