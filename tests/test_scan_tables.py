"""Scan tables: a piecewise psi's sups scan its breakpoints and scan ends,
a smooth psi's the shared u grid of its support, a truncated sup the table
of the support cut at the truncation point, both axes of the two-exponent
sup read the same tables, and every sup equals the one read off the dense
table (`table_reference`)."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import piecewise_reference as ref
from glscov import (
    ConjugateInfo,
    conjugate_info,
    dual_psi,
    extremal,
    finite_support,
    fundamental,
    fundamental_truncated,
    phi_uniform,
    phi_uniform_theta,
    power,
    product_zeta,
    tabulated,
    tail_bound,
)
from glscov import _optimize
from glscov._optimize import _unit_grid, exponent, psi_table
from glscov.bounds import _T_MARGIN
from glscov.fundamental import _sups
from glscov.psi import PsiFunction, scan_bound
from table_reference import dense_table, dense_tables

#: exponents of the fundamentals, from tiny delta to 1/beta > 1
_LOG_DELTAS = (-700.0, -40.0, -9.0, -2.5, -0.3, 0.0, 0.8, 6.0, 300.0)
#: arguments of the conjugate
_XS = (-3.0, -0.2, 0.0, 0.7, 1.9, 5.0, 40.0)
#: (log alpha, log beta) of the two-exponent sups
_PAIRS = ((-0.05, -0.05), (-1.0, -4.0), (-3.0, -0.7), (-9.0, -9.0), (-40.0, -2.0))

#: tabulated knots with a last knot past P_MAX: the scan's lower end sits
#: between two breakpoints
_PAST_P_MAX = [(1.0, 1.0), (3.0, 5.0), (40.0, 2.0), (2e6, 80.0)]


def _one_exponent_sups(psi):
    """(s, record) of every 1-D sup of psi on [1, b) and on [s, b) for a few s."""
    out = [(1.0, fundamental(psi, math.exp(ld))) for ld in _LOG_DELTAS]
    out += [(1.0, conjugate_info(psi, x)) for x in _XS]
    lows = [1.0] + [s for s in (1.2, 2.0, 0.5 * (1.0 + min(psi.b, 1e3))) if s < psi.b]
    for s in lows:
        out += [(s, fundamental_truncated(psi, s, math.exp(ld))) for ld in _LOG_DELTAS]
        out.append((s, _sups(psi, list(_LOG_DELTAS), s)))
    return out


def _rows(psi, s, record):
    """The record's rows (argmax, objective, the rest), and the points of
    psi's table in the same coordinate, ascending: u for `_sups`' rows,
    the exponent for a result record."""
    us = psi_table(psi, s)[0]
    if isinstance(record, tuple):  # _sups' (u, ln value) lists
        return [(u, f, ()) for u, f in zip(*record)], us.tolist()
    ps = sorted(exponent(u, scan_bound(psi), s) for u in us.tolist())
    if isinstance(record, ConjugateInfo):
        return [(record.argmax_p, record.value, record.unbounded_at_cap)], ps
    rest = (record.delta, record.boundary, record.trunc_low)
    return [(record.argmax_p, math.log(record.value), rest)], ps


def _assert_same_sup(points, got, want):
    """A row of the table equals the dense table's where the dense argmax
    is a point of the table.  Anywhere else it lies inside a cell, where the
    objective, linear or monotone on the cell, can only tie the cell's ends
    in exact arithmetic: the table's argmax is an end of that cell, with the
    same objective up to rounding."""
    (x, f, rest), (x_dense, f_dense, rest_dense) = got, want
    assert rest == rest_dense
    if x_dense in points:
        assert (x, f) == (x_dense, f_dense)
        return
    k = bisect.bisect(points, x_dense)
    assert 0 < k < len(points)
    assert x in points[k - 1 : k + 1]
    assert abs(f - f_dense) <= 1e-12 * max(1.0, abs(f_dense))


def _assert_one_exponent_as_dense(psi):
    got = _one_exponent_sups(psi)
    with dense_tables():
        want = _one_exponent_sups(psi)
    for (s, record), (_, dense) in zip(got, want, strict=True):
        if record == dense:
            continue
        rows, points = _rows(psi, s, record)
        dense_rows, _ = _rows(psi, s, dense)
        for row, dense_row in zip(rows, dense_rows, strict=True):
            _assert_same_sup(points, row, dense_row)


def _two_exponent_sups(psi, nu):
    out = []
    for la, lb in _PAIRS:
        alpha, beta = math.exp(la), math.exp(lb)
        out += [phi_uniform(psi, nu, alpha, beta), phi_uniform_theta(psi, nu, alpha)]
    return out


def _assert_two_exponent_as_dense(psi, nu):
    got = _two_exponent_sups(psi, nu)
    with dense_tables():
        want = _two_exponent_sups(psi, nu)
    assert got == want


def _piecewise_cases():
    tab, tab2 = tabulated(ref.KNOTS), tabulated(ref.KNOTS_2)
    non_convex = tabulated(ref.NON_CONVEX)
    return [
        extremal(3.0),
        extremal(1.5),
        tab,
        non_convex,
        tabulated(_PAST_P_MAX),
        ref.piecewise_case("empirical")[0],
        product_zeta(tab, tab2),
        product_zeta(non_convex, extremal(4.0)),
        product_zeta(extremal(3.0), extremal(2.5)),
    ]


def test_piecewise_sups_equal_the_dense_table():
    for psi in _piecewise_cases():
        assert psi.breakpoints is not None
        _assert_one_exponent_as_dense(psi)


def test_two_exponent_sups_equal_the_dense_table():
    piecewise = _piecewise_cases()
    smooth = [power(1.5), finite_support(4.0, 0.7),
              product_zeta(tabulated(ref.KNOTS), power(2.0))]
    pairs = [(a, b) for a in piecewise[:4] for b in piecewise[2:6]]
    pairs += [(a, b) for a in piecewise[:4] for b in smooth]
    pairs += [(b, a) for a in piecewise[:4] for b in smooth]
    for psi, nu in pairs:
        _assert_two_exponent_as_dense(psi, nu)


@settings(max_examples=40, deadline=None)
@given(ref.knot_sets(), ref.knot_sets(), st.integers(0, 4))
def test_random_tables_equal_the_dense_table(knots, knots_2, pick):
    # random knot values give knot slopes of both signs, so ln psi(1/u) is
    # not convex; pick chooses the pair's second function, the last one a
    # smooth product with a piecewise factor
    psi = tabulated(knots)
    nu = [tabulated(knots_2), extremal(2.5), power(1.0), finite_support(3.0, 0.5),
          product_zeta(tabulated(knots_2), power(2.0))][pick]
    _assert_one_exponent_as_dense(psi)
    _assert_one_exponent_as_dense(product_zeta(psi, nu))
    _assert_two_exponent_as_dense(psi, nu)
    _assert_two_exponent_as_dense(nu, psi)


def test_a_piecewise_table_is_its_breakpoints_and_scan_ends():
    tab = tabulated(ref.KNOTS)  # knots from p = 1 to 8
    us, logs, _ = psi_table(tab, 1.0)
    assert np.array_equal(us, tab.breakpoints)
    assert np.array_equal(logs, tab.log_u(us))
    us, _, _ = psi_table(tab, 2.5)  # 1/2.5 cuts the cell between p = 2 and 3
    assert np.array_equal(us, [*tab.breakpoints[tab.breakpoints < 0.4], 0.4])
    us, _, _ = psi_table(extremal(3.0), 1.0)
    assert np.array_equal(us, [1.0 / 3.0, 1.0])
    past = tabulated(_PAST_P_MAX)  # the scan stops at P_MAX = 1e6
    us, _, _ = psi_table(past, 1.0)
    assert np.array_equal(us, [1e-6, *past.breakpoints[1:]])
    zeta = product_zeta(tab, tabulated(ref.KNOTS_2))
    us, _, _ = psi_table(zeta, 1.0)
    assert np.array_equal(us, np.union1d(zeta.breakpoints, [1.0 / 8.0, 1.0]))
    for psi in (tab, extremal(3.0), past, zeta):
        for arr in psi_table(psi, 1.0):
            assert not arr.flags.writeable


def test_smooth_tables_share_the_u_grid_of_their_support():
    a, b = psi_table(power(1.0), 1.0), psi_table(power(2.0), 1.0)
    assert a[0] is b[0]
    assert psi_table(dual_psi(power(2.0)), 1.0)[0] is a[0]
    c = psi_table(finite_support(3.0, 0.5), 1.0)
    assert psi_table(finite_support(3.0, 1.2), 1.0)[0] is c[0]
    assert psi_table(finite_support(4.0, 0.5), 1.0)[0] is not c[0]
    for psi, s in ((power(1.0), 1.0), (finite_support(3.0, 0.5), 2.0), (power(1.0), 1.7)):
        us, logs, _ = psi_table(psi, s)
        want_us, want_logs, _ = dense_table(psi, s)
        assert np.array_equal(us, want_us)
        assert np.array_equal(logs, want_logs)


def test_finite_supports_share_one_unit_grid():
    _unit_grid.cache_clear()
    psi_table.cache_clear()
    for b in (3.0, 4.0, 1.01, 1e6):
        us = psi_table(finite_support(b, 0.5), 1.0)[0]
        lo = 1.0 / b
        assert (us[0], us[-1]) == (lo, 1.0) and np.all(np.diff(us) > 0.0)
        assert np.array_equal(us[:-1], lo + (1.0 - lo) * _unit_grid()[:-1])
    b = 1.0 + 1e-13  # the unit grid's smallest steps round to nothing on [1/b, 1]
    us = psi_table(finite_support(b, 0.5), 1.0)[0]
    assert (us[0], us[-1]) == (1.0 / b, 1.0) and np.all(np.diff(us) > 0.0)
    assert _unit_grid.cache_info().misses == 1


@pytest.mark.parametrize("psi", [power(1.3), finite_support(3.0, 0.5), extremal(3.0),
                                 tabulated(ref.KNOTS), product_zeta(power(2.0), dual_psi(power(2.0)))])
def test_a_truncated_table_cuts_the_table_of_the_support(psi):
    full_us, full_logs, _ = psi_table(psi, 1.0)
    for s in (1.2, 1.7, 2.5):
        us, logs, _ = psi_table(psi, s)
        k = us.size - 1
        assert us[k] == 1.0 / s and full_us[k] >= 1.0 / s
        assert np.array_equal(us[:k], full_us[:k])
        assert np.array_equal(logs[:k], full_logs[:k])
        assert np.array_equal(logs[k:], psi.log_u(us[k:]))
        assert not us.flags.writeable and not logs.flags.writeable
    past = 2.0 * scan_bound(psi)  # 1/s below the scan range: empty
    assert [arr.size for arr in psi_table(psi, past)] == [0, 0, 0]


def test_the_dense_table_ties_one_rounding_inside_the_scan_end():
    # on [1/3, 1/1.2] the dense table holds 1/3 + (1/1.2 - 1/3), one
    # rounding below 1/1.2, where u ln delta ties the end's value: the dense
    # argmax is that point, the table's the end itself
    psi, delta = extremal(3.0), math.exp(6.0)
    inner = dense_table(psi, 1.2)[0][-2]
    assert inner == np.nextafter(1.0 / 1.2, 0.0)
    got = fundamental_truncated(psi, 1.2, delta)
    with dense_tables():
        want = fundamental_truncated(psi, 1.2, delta)
    assert (got.value, got.argmax_p) == (want.value, 1.2)
    assert want.argmax_p == 1.0 / inner == 1.2000000000000002


def test_a_cell_where_the_conjugate_is_flat_ties_inside_the_dense_table():
    # (x - ln zeta(1/u)) / u is constant on [1/2, 1/1.615]: ln zeta(1/u) is
    # linear there through the origin and x = 0.  A dense point inside
    # the cell rounds one ulp above its ends.
    zeta = product_zeta(tabulated([(2.0, 1.0)]), tabulated([(1.0, 1.0), (2.625, 2.0)]))
    got = conjugate_info(zeta, 0.0)
    with dense_tables():
        want = conjugate_info(zeta, 0.0)
    assert got.argmax_p == 2.0 and 1.0 / 0.61904762 < want.argmax_p < 2.0
    assert want.value == got.value + math.ulp(got.value)


def test_a_piecewise_axis_on_its_knots_reaches_the_edge_sup():
    # the sup of this pair sits on the edge u + w = 1 at nu's closed end
    # w = 1/9.75: the edge reads nu there at its own coordinate, which
    # e - u can round past
    left = [(1.09375, 6.734048393513417), (1.484375, 31.245924376072658),
            (3.890625, 14.84534953961514)]
    right = [(1.0, 12.871526644280772), (1.375, 48.75209931740156),
             (3.796875, 7.0376099222289445), (6.59375, 35.23046506112376),
             (6.859375, 35.778054472066536), (7.84375, 24.865022640880813),
             (9.75, 0.05000000000000001)]
    psi, nu = tabulated(left), tabulated(right)
    for f in (psi, nu):  # each axis is the knots and the scan ends
        us, _, _ = psi_table(f, 1.0)
        assert np.array_equal(us, np.union1d(f.breakpoints, [1.0 / scan_bound(f), 1.0]))
    edge = 1.0 - _T_MARGIN
    for la, lb in ((-0.05, -0.05), (-1.0, -4.0)):
        got = phi_uniform(psi, nu, math.exp(la), math.exp(lb))
        want = ref.two_exponent_sup(ref.vertices(left), ref.vertices(right), la, lb, edge)
        assert got.q == 9.75
        assert got.value == pytest.approx(math.exp(want), rel=1e-13)
    got = phi_uniform(psi, nu, math.exp(-0.05), math.exp(-0.05)).value
    assert got == pytest.approx(2.5372395525938707, rel=1e-13)


@pytest.mark.parametrize("psi", [power(2.71), finite_support(4.37, 0.83), extremal(5.29),
                                 tabulated(ref.KNOTS_2),
                                 product_zeta(power(1.37), dual_psi(power(1.37)))])
def test_a_sup_sweep_op_builds_one_table_and_no_grid_for_s(psi, monkeypatch):
    # one op of `sup_sweep` on a new psi of each family it draws: 8
    # fundamentals, 8 truncated sups at one s and 6 tail bounds
    dense, grids = [], []
    log_u, u_grid = PsiFunction.log_u, _optimize._u_grid

    def counted_log_u(self, u):
        if self is psi and np.size(u) > 1:
            dense.append(np.size(u))
        return log_u(self, u)

    def counted_u_grid(*args):
        grids.append(args)
        return u_grid(*args)

    monkeypatch.setattr(PsiFunction, "log_u", counted_log_u)
    monkeypatch.setattr(_optimize, "_u_grid", counted_u_grid)
    psi_table.cache_clear()
    s = 1.0 + 0.4 * (min(psi.b, 8.0) - 1.0)
    for delta in np.exp(np.linspace(-28.0, -4.7, 8)).tolist():
        fundamental(psi, delta)
        fundamental_truncated(psi, s, delta)
    for y in (math.e * 1.3 * np.exp(np.linspace(0.0, 2.0, 6))).tolist():
        tail_bound(psi, 1.3, y)
    assert len(dense) <= 1
    assert grids == ([] if psi.breakpoints is not None
                     else [(1.0 / scan_bound(psi), math.isfinite(psi.b))])
