"""The two-exponent sup: its grid-best scan, its table-cache use, Newton
against golden-section refinement, the generic engine against a reference
search, and pinned values that no later change may loosen."""

import math
from functools import partial

import numpy as np
import pytest

from glscov import (
    bounds,
    dual_psi,
    extremal,
    factorization_check,
    finite_support,
    generic_bound,
    gls_strong_bound,
    gls_uniform_bound,
    phi_uniform,
    phi_uniform_theta,
    power,
    product_zeta,
    tabulated,
)
from glscov._optimize import TABLE_CACHE_SIZE, log_ratio, psi_table
from glscov.bounds import _T_MARGIN, _edge_max, _neg_log_kernel, _triangle_grid_best
from glscov.psi import P_MAX

from generic_reference import generic_search, neg_log_kernel
from piecewise_reference import NON_CONVEX, NON_CONVEX_2


def _masked_scan(us, a, ws, c):
    """Reference grid-best: argmax of the n x n sum a[i] + c[j] with every
    pair outside u + w <= 1 - margin masked to -inf."""
    f = a[:, None] + c[None, :]
    f[us[:, None] + ws[None, :] > 1.0 - _T_MARGIN] = -np.inf
    i, j = np.unravel_index(np.argmax(f), f.shape)
    return int(i), int(j), float(f[i, j])


def _assert_same_grid_best(got, want):
    assert got[2] == want[2]
    if math.isfinite(want[2]):
        assert got == want


def _random_psi(rng):
    kind = int(rng.integers(4))
    if kind == 0:
        return power(rng.uniform(0.5, 4.0))
    if kind == 1:
        return finite_support(rng.uniform(1.2, 6.0), rng.uniform(0.0, 2.0))
    if kind == 2:
        return extremal(rng.uniform(1.2, 8.0))
    ps = np.sort(rng.uniform(1.0, 12.0, size=int(rng.integers(2, 8))))
    return tabulated(zip(ps, rng.lognormal(0.0, 1.5, size=ps.size)))


@pytest.mark.parametrize("seed", range(40))
def test_grid_best_is_the_masked_scan_on_random_pairs(seed):
    rng = np.random.default_rng(seed)
    psi, nu = _random_psi(rng), _random_psi(rng)
    n = int(rng.choice([16, 64, 512]))
    la, lb = rng.uniform(-12.0, -0.1, size=2)
    us, a, _, _ = log_ratio(psi, la, 1.0, n)
    ws, c, _, _ = log_ratio(nu, lb, 1.0, n)
    _assert_same_grid_best(_triangle_grid_best(us, a, ws, c), _masked_scan(us, a, ws, c))


@pytest.mark.parametrize("seed", range(5))
def test_grid_best_is_the_masked_scan_at_the_rounding_cut(seed):
    # every w sits within one rounding of the cut 1 - margin - u, where
    # searchsorted on the difference and the sum disagree for about a quarter
    # of the rows; c increases, so each row's best is its last admissible w
    rng = np.random.default_rng(seed)
    us = np.sort(rng.uniform(0.0, 1.0, size=200))
    cut = 1.0 - _T_MARGIN - us
    ws = np.sort(np.concatenate([cut, np.nextafter(cut, 2.0), np.nextafter(cut, -1.0)]))
    c = np.sort(rng.standard_normal(ws.size))
    c[:20] = -np.inf
    a = rng.standard_normal(us.size)
    _assert_same_grid_best(_triangle_grid_best(us, a, ws, c), _masked_scan(us, a, ws, c))
    for i in range(us.size):
        row = slice(i, i + 1)
        _assert_same_grid_best(
            _triangle_grid_best(us[row], a[row], ws, c), _masked_scan(us[row], a[row], ws, c)
        )


def test_grid_best_non_convex_tabulated():
    psi, nu = tabulated(NON_CONVEX), power(1.0)
    for la in (-1.0, -2.5, -4.0, -7.0):
        for first, second in ((psi, nu), (nu, psi)):
            us, a, _, _ = log_ratio(first, la, 1.0, 512)
            ws, c, _, _ = log_ratio(second, 0.6 * la, 1.0, 512)
            _assert_same_grid_best(_triangle_grid_best(us, a, ws, c), _masked_scan(us, a, ws, c))


def test_theta_route_adds_at_most_one_table_miss():
    psi, nu = power(2.0), finite_support(3.0, 0.5)
    psi_table.cache_clear()
    phi_uniform_theta(psi, nu, 0.01)
    assert psi_table.cache_info().misses <= 1
    phi_uniform_theta(psi, nu, 0.02)
    assert psi_table.cache_info().misses <= 1


def test_uniform_bound_builds_one_table_per_function():
    # the nested route reads nu's axis table of the 2-D route
    psi, nu = power(2.0), finite_support(3.0, 0.5)
    psi_table.cache_clear()
    gls_uniform_bound(psi, nu, 0.01, 1.0, 1.0)
    assert psi_table.cache_info().misses == 2


@pytest.mark.parametrize(
    "psi, nu",
    [
        (power(1.5), finite_support(4.0, 0.7)),
        (finite_support(3.0, 0.5), finite_support(5.0, 1.2)),
        (extremal(3.0), extremal(4.0)),
    ],
)
def test_one_pair_op_fits_the_table_cache(psi, nu):
    # the two axis tables (the nested route reads nu's), the two 2048-point
    # fundamental tables and the product's table: nothing may be evicted
    psi_table.cache_clear()
    gls_strong_bound(psi, nu, 0.05, 1.0, 1.0)
    gls_uniform_bound(psi, nu, 0.01, 1.0, 1.0)
    factorization_check(psi, nu, 0.01, 0.05)
    info = psi_table.cache_info()
    assert info.misses == info.currsize <= TABLE_CACHE_SIZE
    gls_uniform_bound(psi, nu, 0.02, 1.0, 1.0)
    factorization_check(psi, nu, 0.02, 0.03)
    gls_strong_bound(psi, nu, 0.03, 1.0, 1.0)  # reuses the product's table
    assert psi_table.cache_info().misses == info.misses


# ---------------------------------------------------------------------------
# Newton refinement against golden section


def _smooth_psi(rng):
    """A smooth psi of every shape: finite_support also with its sup near
    p -> b, and zeta(power, finite_support), whose scan has an infeasible
    stretch toward p = 1."""
    kind = int(rng.integers(6))
    m = rng.uniform(0.5, 4.0)
    if kind == 0:
        return power(m)
    if kind == 1:
        return finite_support(rng.uniform(1.5, 6.0), rng.uniform(0.25, 2.0))
    if kind == 2:
        return finite_support(rng.uniform(1.5, 6.0), 10.0 ** rng.uniform(-4.0, -1.0))
    if kind == 3:
        return dual_psi(power(m))
    if kind == 4:
        return product_zeta(power(m), finite_support(rng.uniform(1.5, 6.0), rng.uniform(0.25, 2.0)))
    return product_zeta(power(m), dual_psi(power(m)))


def _smooth_pairs(seed=14, n=48):
    rng = np.random.default_rng(seed)
    return [
        (_smooth_psi(rng), _smooth_psi(rng), *np.exp(rng.uniform(-12.0, -0.2, size=2)),
         (64, 512)[i % 2])
        for i in range(n)
    ]


def _two_exponent_values(pairs):
    return [
        (phi_uniform(psi, nu, alpha, beta, n_grid=n).value,
         phi_uniform_theta(psi, nu, alpha, n_grid=n))
        for psi, nu, alpha, beta, n in pairs
    ]


def test_newton_two_exponent_sups_never_below_golden_section(monkeypatch):
    pairs = _smooth_pairs()
    assert all(psi.smooth and nu.smooth for psi, nu, _, _, _ in pairs)
    newton = _two_exponent_values(pairs)

    def without_probe(*args):
        us, fs, probe, _ = log_ratio(*args)
        return us, fs, probe, None

    monkeypatch.setattr(bounds, "log_ratio", without_probe)
    golden = _two_exponent_values(pairs)
    assert any(g != n for g, n in zip(golden, newton))  # the routes differ
    for got, want in zip(newton, golden):
        for g, w in zip(got, want):
            # never below golden by more than 1e-12, nor above by more (every
            # value is an evaluated admissible point of the same objective)
            assert g == pytest.approx(w, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# the generic engine: early stop of its coordinate rounds, in-place kernel


def _ibragimov_kernel(p, q):
    return 2.0 * 0.01 ** (1.0 / p) * np.ones_like(q)


#: (psi, nu, alpha).  The last two need all three coordinate rounds at
#: n_grid 128, on "T" and on "R" respectively: their second round moves.
GENERIC_PAIRS = [
    (power(1.0), power(2.0), 0.01),
    (finite_support(3.0, 0.5), finite_support(4.0, 1.2), 0.01),
    (finite_support(4.498, 0.012), extremal(3.722), 0.01),
    (tabulated(NON_CONVEX), power(1.0), 0.01),
    (power(1.4320443952655073), finite_support(4.14846103943267, 0.9262151965364459),
     6.862151631101592e-05),
    (power(2.099823602220795), finite_support(5.191381768547159, 1.0766664591216837),
     0.0005987153785199065),
]


@pytest.mark.parametrize("domain", ["T", "R", ((1.2, 5.0), (1.5, 9.0)), "conjugate"])
@pytest.mark.parametrize("k", range(len(GENERIC_PAIRS)))
def test_generic_bound_equals_the_three_round_search(domain, k):
    psi, nu, alpha = GENERIC_PAIRS[k]
    h = _ibragimov_kernel if domain == "conjugate" else partial(_davydov, alpha)
    rep = generic_bound(h, psi, nu, domain, 1.5, 0.5, n_grid=128)
    best, p, q = generic_search(h, psi, nu, domain, n_grid=128)
    assert (rep.value, rep.p, rep.q) == (math.exp(-best) * 1.5 * 0.5, p, q)


def test_edge_search_falls_back_when_its_middle_is_infeasible():
    # zeta(power, finite_support(1.5)) is finite only for u < 1/3, so the
    # middle of the edge is infeasible and Newton could pick no side there
    psi, nu = product_zeta(power(2.0), finite_support(1.5, 0.5)), power(1.0)
    us, _, a_at, da = log_ratio(psi, -3.0, 1.0, 128)
    ws, _, c_at, dc = log_ratio(nu, -0.5, 1.0, 128)
    assert da is not None and dc is not None

    def f(s, t):
        return a_at(s) + c_at(t)

    got = _edge_max(f, float(us[0]), float(ws[0]), da, dc)
    assert math.isfinite(got[2])
    assert got == _edge_max(f, float(us[0]), float(ws[0]))


def test_neg_log_kernel_equals_the_out_of_place_expression():
    rng = np.random.default_rng(3)
    hv = rng.lognormal(size=(6, 7))
    hv[0, :3] = 0.0  # a zero kernel: the bound is 0
    hv[2, 4] = np.nan
    hv[3, 3] = np.inf
    lp = rng.normal(size=(6, 1))
    lp[1, 0] = np.inf  # psi infinite: the pair is infeasible
    lq = rng.normal(size=(1, 7))
    lq[0, 5] = np.inf
    lq[0, 6] = np.nan
    for args in ((hv, lp, lq), (hv[:, 0], lp[:, 0], lq[0, :6])):
        got, want = _neg_log_kernel(*args), neg_log_kernel(*args)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert not np.isnan(got).any()


# ---------------------------------------------------------------------------
# pinned values


def _davydov(alpha, p, q):
    return 12.0 * alpha ** (1.0 - 1.0 / p - 1.0 / q)


#: name -> (psi, nu, alpha, beta, norm_xi, norm_eta).  The two finite-support
#: pairs have their sup on the edge u + w = 1, which the generic engine's
#: coordinate search alone misses by 1.6e-4 and 1.3e-3.
PAIRS = {
    "power": (power(1.0), power(2.0), math.exp(-4.0), math.exp(-4.0), 1.0, 1.0),
    "finite_edge_a": (
        finite_support(2.644102475100302, 1.0587424702166857),
        finite_support(3.2976797747419426, 1.6169356035854985),
        0.009910333805819939, 0.1683173429690215, 1.8039730766585076, 1.212236723262408,
    ),
    "finite_edge_b": (
        finite_support(3.38964712104971, 1.5034768287562785),
        finite_support(3.172819363864173, 1.643653051914246),
        0.024016607278830555, 0.08096453673853056, 0.8023733510201485, 0.9438273198440572,
    ),
    "tabulated_power": (
        tabulated(NON_CONVEX), power(1.0), math.exp(-2.5), math.exp(-1.5), 1.0, 1.0,
    ),
    "power_tabulated": (
        power(2.0), tabulated(NON_CONVEX_2), math.exp(-1.0), math.exp(-0.6), 1.0, 1.0,
    ),
    "finite_tabulated": (
        finite_support(3.0, 0.5), tabulated(NON_CONVEX), math.exp(-1.0), math.exp(-0.6),
        1.0, 1.0,
    ),
}

#: name -> (phi_uniform(alpha, beta), phi_uniform_theta(alpha), generic_bound
#: "T" with the Davydov kernel), as computed before the table-based routes
PINNED = {
    "power": (0.019722106166024378, 0.019722106166024378, 11.144228958844268),
    "finite_edge_a": (0.0393540072686084, 0.00960180849513679, 27.089694328281663),
    "finite_edge_b": (0.09820975164750134, 0.051782023233958425, 4.220409456303696),
    "tabulated_power": (0.0991689600659671, 0.05950137603955273, 16.610547869073503),
    "power_tabulated": (0.4614276360468494, 0.41751699081105326, 10.573350046142073),
    "finite_tabulated": (0.3744408030565771, 0.34594796240907655, 12.760743735316478),
}


def _dense_axis(psi, n=40001):
    """u = 1/p on [1/min(b, P_MAX), 1], with every knot of a tabulated psi."""
    lo = 1.0 / min(psi.b, P_MAX)
    parts = [np.linspace(lo, 1.0, n), np.geomspace(lo, 1.0, n // 4)]
    if psi.kind == "tabulated":
        parts.append([1.0 / p for p, _ in psi.params["points"]])
    xs = np.unique(np.concatenate(parts))
    return xs[(xs >= lo) & (xs <= 1.0)]


def _dense_log_sup(psi, nu, la, lb):
    """ln sup over u + w <= 1 of u la - ln psi(1/u) + w lb - ln nu(1/w).

    Dense axes and a running maximum over w give the interior; a dense scan
    of the edge u + w = 1, through every kink of either function, gives the
    boundary.
    """
    us, ws = _dense_axis(psi), _dense_axis(nu)
    a = us * la - psi.log_eval(1.0 / us)
    c = ws * lb - nu.log_eval(1.0 / ws)
    run = np.maximum.accumulate(c)
    k = np.searchsorted(ws, 1.0 - us, side="right") - 1
    best = float(np.max(np.where(k >= 0, a + run[np.maximum(k, 0)], -np.inf)))
    ts = np.unique(np.concatenate([np.linspace(us[0], 1.0 - ws[0], us.size), us, 1.0 - ws]))
    ts = ts[(ts >= us[0]) & (ts <= 1.0 - ws[0])]
    if ts.size:
        edge = ts * la - psi.log_eval(1.0 / ts) + (1.0 - ts) * lb - nu.log_eval(1.0 / (1.0 - ts))
        best = max(best, float(np.max(edge)))
    return best


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_two_exponent_sups_never_looser_than_pinned(name):
    psi, nu, alpha, beta, nx, ne = PAIRS[name]
    pin_2d, pin_theta, pin_generic = PINNED[name]
    two_d = phi_uniform(psi, nu, alpha, beta).value
    theta = phi_uniform_theta(psi, nu, alpha)
    gen = generic_bound(partial(_davydov, alpha), psi, nu, "T", nx, ne).value
    assert two_d >= pin_2d * (1.0 - 1e-12)
    assert theta >= pin_theta * (1.0 - 1e-12)
    assert gen <= pin_generic * (1.0 + 1e-12)  # an inf: smaller is tighter
    dense = math.exp(_dense_log_sup(psi, nu, math.log(alpha), math.log(alpha)))
    assert theta == pytest.approx(dense, rel=1e-6)
    assert 12.0 * alpha * nx * ne / gen == pytest.approx(dense, rel=1e-6)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_two_dimensional_route_matches_the_dense_sup(name):
    psi, nu, alpha, beta, _, _ = PAIRS[name]
    dense = math.exp(_dense_log_sup(psi, nu, math.log(alpha), math.log(beta)))
    assert phi_uniform(psi, nu, alpha, beta).value == pytest.approx(dense, rel=1e-6)
