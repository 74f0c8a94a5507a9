"""The two-exponent sup: its grid-best scan, its table-cache use, Newton
against golden-section refinement, the generic engine against reference
searches and by its kernel calls, pinned values that no later change may
loosen, piecewise pairs against their vertices, a piecewise psi next to a
smooth one against a dense reference, and weak duality."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glscov import (
    bounds,
    dual_psi,
    extremal,
    factorization_check,
    finite_support,
    fundamental,
    generic_bound,
    gls_strong_bound,
    gls_uniform_bound,
    phi_uniform,
    phi_uniform_theta,
    power,
    product_zeta,
    tabulated,
)
from glscov import _optimize
from glscov._optimize import (
    TABLE_CACHE_SIZE,
    golden_max,
    log_ratio,
    psi_table,
    u_axis,
)
from glscov.bounds import (
    _T_MARGIN,
    _kernel_grid_best,
    _neg_log_kernel,
    _triangle_counts,
    _triangle_grid_best,
)
from glscov.psi import P_MAX, PsiFunction, scan_bound

from generic_reference import generic_search, golden_search, masked_grid_best, neg_log_kernel
import piecewise_reference as ref
from piecewise_reference import NON_CONVEX, NON_CONVEX_2
from table_reference import dense_table


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
    us, a, _, _ = log_ratio(psi, la, dense_table(psi, 1.0, n))
    ws, c, _, _ = log_ratio(nu, lb, dense_table(nu, 1.0, n))
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
            us, a, _, _ = log_ratio(first, la, dense_table(first, 1.0, 512))
            ws, c, _, _ = log_ratio(second, 0.6 * la, dense_table(second, 1.0, 512))
            _assert_same_grid_best(_triangle_grid_best(us, a, ws, c), _masked_scan(us, a, ws, c))


def test_theta_route_adds_at_most_one_table_miss():
    psi, nu = power(2.0), finite_support(3.0, 0.5)
    psi_table.cache_clear()
    phi_uniform_theta(psi, nu, 0.01)
    assert psi_table.cache_info().misses <= 1
    phi_uniform_theta(psi, nu, 0.02)
    assert psi_table.cache_info().misses <= 1


def test_uniform_bound_builds_one_table_per_function():
    # the nested route reads nu's table of the 2-D route
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
    # one table per function, which the fundamental sups, both axes and the
    # nested route share, and the product's table: nothing may be evicted
    psi_table.cache_clear()
    gls_strong_bound(psi, nu, 0.05, 1.0, 1.0)
    gls_uniform_bound(psi, nu, 0.01, 1.0, 1.0)
    factorization_check(psi, nu, 0.01, 0.05)
    info = psi_table.cache_info()
    assert info.misses == info.currsize == 3 <= TABLE_CACHE_SIZE
    gls_uniform_bound(psi, nu, 0.02, 1.0, 1.0)
    factorization_check(psi, nu, 0.02, 0.03)
    gls_strong_bound(psi, nu, 0.03, 1.0, 1.0)  # reuses the product's table
    assert psi_table.cache_info().misses == info.misses


#: smooth, piecewise and mixed pairs, none a product with a piecewise factor:
#: each axis reads the table `fundamental` reads, and no grid size enters
_TABLE_PAIRS = [
    (power(1.5), finite_support(4.0, 0.7)),
    (finite_support(3.0, 0.5), finite_support(5.0, 1.2)),
    (dual_psi(power(2.0)), power(1.0)),
    (extremal(3.0), extremal(4.0)),
    (tabulated(NON_CONVEX), tabulated(NON_CONVEX_2)),
    (tabulated(NON_CONVEX), power(1.0)),
    (finite_support(4.0, 0.7), extremal(3.0)),
]


@pytest.mark.parametrize("psi, nu", _TABLE_PAIRS)
def test_phi_uniform_is_the_same_at_every_n_grid(psi, nu):
    # phi_uniform takes no grid size; factorization_check keeps its n_grid
    # keyword, which sizes nothing
    with pytest.raises(TypeError):
        phi_uniform(psi, nu, 0.01, 0.05, n_grid=64)
    for alpha, beta in ((0.01, 0.05), (0.3, 0.6), (1e-6, 0.9), (0.95, 0.95)):
        want = phi_uniform(psi, nu, alpha, beta).value
        for n in (48, 64, 512, 2048):
            assert factorization_check(psi, nu, alpha, beta, n_grid=n).lhs == want, (alpha, n)


@pytest.mark.parametrize("psi, nu", _TABLE_PAIRS)
def test_two_exponent_sups_read_the_fundamental_tables(psi, nu):
    psi_table.cache_clear()
    fundamental(psi, 0.01)
    fundamental(nu, 0.05)
    misses = psi_table.cache_info().misses
    phi_uniform(psi, nu, 0.01, 0.05)
    phi_uniform_theta(psi, nu, 0.01)
    assert psi_table.cache_info().misses == misses


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
        (phi_uniform(psi, nu, alpha, beta).value,
         phi_uniform_theta(psi, nu, alpha, n_grid=n))
        for psi, nu, alpha, beta, n in pairs
    ]


def _golden_edge_max(psi, nu, la, lb):
    """The max along the edge u + w = 1 - margin by golden section on the
    values of the objective."""
    edge = 1.0 - _T_MARGIN
    lo, hi = 1.0 / scan_bound(psi), edge - 1.0 / scan_bound(nu)

    def f(t):
        return (t * la - psi.log_u_jet(t)[0]) + ((edge - t) * lb - nu.log_u_jet(edge - t)[0])

    t, ft = golden_max(f, lo, hi, tol=1e-13)
    return t, edge - t, ft


def _golden_refinement(monkeypatch):
    """Refine every 1-D sup, piece and edge segment of the two-exponent
    routes, and theta's outer scan and inner cells, by golden section on the
    values of their probes, ignoring the derivatives."""

    def cell(df, xs, i, cap=math.inf, tol=1e-13, floor=-math.inf):
        lo = max(float(xs[max(i - 1, 0)]), floor)
        hi = min(float(xs[min(i + 1, xs.size - 1)]), cap)
        return golden_max(lambda t: df(t)[0], lo, hi, tol=tol) if hi > lo else None

    # every grid_golden_max and piece_maxima, the pieces and edge of Phi too
    monkeypatch.setattr(_optimize, "cell_max", cell)
    monkeypatch.setattr(bounds, "cell_max", cell)


def test_newton_two_exponent_sups_never_below_golden_section(monkeypatch):
    pairs = _smooth_pairs()
    assert all(psi.breakpoints is None and nu.breakpoints is None for psi, nu, _, _, _ in pairs)
    newton = _two_exponent_values(pairs)
    _golden_refinement(monkeypatch)
    golden = _two_exponent_values(pairs)
    assert any(g != n for g, n in zip(golden, newton))  # the routes differ
    for got, want in zip(newton, golden):
        for g, w in zip(got, want):
            # never below golden by more than 1e-12, nor above by more (every
            # value is an evaluated admissible point of the same objective)
            assert g == pytest.approx(w, rel=1e-12, abs=0.0)


def test_theta_refines_its_outer_scan_in_few_jet_probes(monkeypatch):
    # Newton on the envelope slope, with each inner peak refined once: golden
    # section on the outer scan took a median of 400 probes a call here, and
    # up to 1,155
    probes = [0]
    jet = PsiFunction.log_u_jet

    def counted(self, u):
        probes[0] += 1
        return jet(self, u)

    monkeypatch.setattr(PsiFunction, "log_u_jet", counted)
    counts = []
    for psi, nu, alpha, _, n in _smooth_pairs():
        probes[0] = 0
        phi_uniform_theta(psi, nu, alpha, n_grid=n)
        counts.append(probes[0])
    assert max(counts) <= 40


# ---------------------------------------------------------------------------
# the generic engine: early stop of its coordinate rounds, in-place kernel


def _ibragimov_kernel(p, q):
    return 2.0 * 0.01 ** (1.0 / p) * np.ones_like(q)


#: (psi, nu, alpha).  At n_grid 128 the fourth takes a second coordinate
#: round on "R", and the last two take two rounds on "T" and all three on
#: "R": a round that raises the value by more than 4 ulp starts another.
GENERIC_PAIRS = [
    (power(1.0), power(2.0), 0.01),
    (finite_support(3.0, 0.5), finite_support(4.0, 1.2), 0.01),
    (finite_support(4.498, 0.012), extremal(3.722), 0.01),
    (tabulated(NON_CONVEX), power(1.0), 0.01),
    (power(1.4320443952655073), finite_support(4.14846103943267, 0.9262151965364459),
     6.862151631101592e-05),
    (power(2.099823602220795), finite_support(5.191381768547159, 1.0766664591216837),
     0.0005987153785199065),
    (power(0.9868896006242982), finite_support(5.859733227194619, 1.6540312676942015),
     0.00452087279205439),
    (power(3.202155434877577), finite_support(4.926995173817664, 1.1920735076488223),
     0.012308440480501056),
]


@pytest.mark.parametrize("domain", ["T", "R", ((1.2, 5.0), (1.5, 9.0)), "conjugate"])
@pytest.mark.parametrize("k", range(len(GENERIC_PAIRS)))
def test_generic_bound_equals_the_three_round_search(domain, k):
    psi, nu, alpha = GENERIC_PAIRS[k]
    h = _ibragimov_kernel if domain == "conjugate" else partial(_davydov, alpha)
    rep = generic_bound(h, psi, nu, domain, 1.5, 0.5, n_grid=128)
    best, p, q = generic_search(h, psi, nu, domain, n_grid=128)
    assert (rep.value, rep.p, rep.q) == (math.exp(-best) * 1.5 * 0.5, p, q)


def _draw_psi(rng, kind):
    if kind == "power":
        return power(rng.uniform(0.5, 4.0))
    if kind == "finite":
        return finite_support(rng.uniform(2.5, 6.0), rng.uniform(0.25, 2.0))
    if kind == "extremal":
        return extremal(rng.uniform(2.5, 8.0))
    if kind == "tabulated":
        ps = np.concatenate([[1.0], np.sort(rng.uniform(1.5, 12.0, size=3))])
        vals = np.cumsum(rng.uniform(0.05, 1.0, size=4))
        return tabulated(list(zip(ps.tolist(), vals.tolist())))
    return product_zeta(power(rng.uniform(0.5, 4.0)), finite_support(rng.uniform(2.5, 6.0), 0.5))


_KINDS = ("power", "finite", "extremal", "tabulated", "product")


@pytest.mark.parametrize("seed", range(40))
def test_kernel_grid_on_the_staircase_equals_the_masked_full_grid(seed):
    rng = np.random.default_rng(seed)
    psi, nu = _draw_psi(rng, _KINDS[seed % 5]), _draw_psi(rng, _KINDS[seed // 5 % 5])
    alpha = math.exp(rng.uniform(-10.0, -1.0))
    edge = 1.0 - _T_MARGIN
    us, ps = u_axis(scan_bound(psi), 1.0, 96)
    ws, _ = u_axis(scan_bound(nu), 1.0, 80)
    if seed % 2:  # grid points at the cut and one rounding either side of it
        cut = edge - us[rng.integers(0, us.size, size=8)]
        ws = np.unique(np.concatenate([ws, cut, np.nextafter(cut, 0.0), np.nextafter(cut, 1.0)]))
        ws = ws[ws > 0.0]
    qs = 1.0 / ws
    sums = us[:, None] + ws[None, :]
    if seed % 2:
        assert (np.abs(sums - edge) <= np.spacing(edge)).any()
    if seed % 3 == 0:  # a kernel vanishing on a band: ties at +inf across blocks
        def h(p, q):
            return np.where(p > 2.5, 0.0, _davydov(alpha, p, q))
    else:
        h = partial(_davydov, alpha)
    counts = _triangle_counts(us, ws)
    assert np.array_equal(counts, (sums <= edge).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _kernel_grid_best(h, ps, psi.log_u(us), qs, nu.log_u(ws), counts)
    want = masked_grid_best(h, psi, nu, us, ps, ws, qs, True)
    assert got == want


def _golden_cases():
    """GENERIC_PAIRS and seeded pairs of every shape, finite_support pairs
    near alpha = 0.087 among them."""
    rng = np.random.default_rng(29)
    cases = list(GENERIC_PAIRS)
    for left, right in (("power", "power"), ("finite", "finite"), ("extremal", "extremal"),
                        ("tabulated", "tabulated"), ("power", "finite"),
                        ("tabulated", "extremal"), ("finite", "extremal"),
                        ("product", "power")):
        for _ in range(4):
            cases.append((_draw_psi(rng, left), _draw_psi(rng, right),
                          math.exp(rng.uniform(-10.0, -1.5))))
    for _ in range(4):
        cases.append((_draw_psi(rng, "finite"), _draw_psi(rng, "finite"),
                      rng.uniform(0.08, 0.095)))
    return cases


GOLDEN_CASES = _golden_cases()


@pytest.mark.parametrize("k", range(len(GOLDEN_CASES)))
def test_generic_bound_never_looser_than_the_golden_section_search(k):
    psi, nu, alpha = GOLDEN_CASES[k]
    h = partial(_davydov, alpha)
    rep = generic_bound(h, psi, nu, "T", 1.0, 1.0)
    best, _, _ = golden_search(h, psi, nu, "T")
    assert rep.feasible == (best > -math.inf)
    if rep.feasible:  # an inf: smaller is tighter
        assert rep.value <= math.exp(-best) * (1.0 + 1e-12)


@pytest.mark.parametrize("domain", ["T", "R", ((1.2, 5.0), (1.5, 9.0)), "conjugate"])
def test_a_kernel_of_p_alone_works_on_every_domain(domain):
    rep = generic_bound(lambda p, q: np.ones_like(p), power(1.0), finite_support(4.0, 0.5),
                        domain, 1.0, 1.0)
    assert rep.feasible
    assert 0.0 < rep.value < math.inf


def test_edge_search_falls_back_when_its_middle_is_infeasible():
    # zeta(power, finite_support(1.5)) is finite only for u < 1/3, so the
    # middle of the edge is infeasible and Newton could pick no side there:
    # the segment's search starts from the point just inside its finite end
    psi, nu = product_zeta(power(2.0), finite_support(1.5, 0.5)), power(1.0)
    edge = 1.0 - _T_MARGIN
    lo, hi = 1.0 / scan_bound(psi), edge - 1.0 / scan_bound(nu)
    assert psi.log_u_jet(0.5 * (lo + hi))[0] == math.inf
    none = np.empty(0)
    got = bounds._on_edge(psi, nu, -3.0, -0.5, none, none, none)
    assert math.isfinite(got[2])
    assert got[2] >= _golden_edge_max(psi, nu, -3.0, -0.5)[2]
    # zeta(finite_support(1.5), finite_support(4)) is finite only for u in
    # (2/3, 3/4): both ends of the edge and its middle are infeasible, and
    # the search starts from psi's 1-D sup, where both sides are finite
    psi = product_zeta(finite_support(1.5, 0.5), finite_support(4.0, 0.5))
    ts = np.linspace(2.0 / 3.0, 0.75, 200001)[1:-1]
    dense = np.max(ts * math.log(0.3) - psi.log_u(ts) - 0.5 * (edge - ts) + np.log(edge - ts))
    got = phi_uniform(psi, nu, 0.3, math.exp(-0.5)).value
    assert got > 0.0 and math.log(got) >= dense - 1e-12


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
        with np.errstate(divide="ignore", invalid="ignore"):  # as generic_bound calls it
            got = _neg_log_kernel(*args)
        want = neg_log_kernel(*args)
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


@pytest.mark.parametrize("name", ["power", "finite_edge_a", "finite_edge_b"])
def test_generic_bound_calls_the_kernel_a_few_times_on_same_shape_arrays(name):
    # the scalar golden-section probes made about 340 calls on these pairs
    psi, nu, alpha, _, nx, ne = PAIRS[name]
    calls = []

    def h(p, q):
        assert isinstance(p, np.ndarray) and isinstance(q, np.ndarray)
        assert p.shape == q.shape
        calls.append(p.size)
        return _davydov(alpha, p, q)

    generic_bound(h, psi, nu, "T", nx, ne)
    assert len(calls) <= 45


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_two_dimensional_route_matches_the_dense_sup(name):
    psi, nu, alpha, beta, _, _ = PAIRS[name]
    dense = math.exp(_dense_log_sup(psi, nu, math.log(alpha), math.log(beta)))
    assert phi_uniform(psi, nu, alpha, beta).value == pytest.approx(dense, rel=1e-6)


# ---------------------------------------------------------------------------
# piecewise pairs: the 2-D sup is a vertex


@pytest.mark.parametrize("log_alpha, log_beta", [(-0.3, -0.8), (-2.5, -1.5), (-9.0, -4.0)])
@pytest.mark.parametrize(
    "left, right",
    [([(3.0, 1.0)], [(4.0, 1.0)]), (ref.KNOTS, ref.KNOTS_2), (NON_CONVEX, ref.KNOTS),
     ([(2.5, 1.0)], NON_CONVEX_2)],
    ids=["extremal", "tabulated", "non_convex", "extremal_tabulated"],
)
def test_piecewise_pair_sup_is_the_best_corner_or_edge_vertex(left, right, log_alpha, log_beta):
    # the one knot (r, 1) stands for extremal(r): ln psi(1/u) = 0 on [1/r, 1]
    psi, nu = (extremal(k[0][0]) if len(k) == 1 else tabulated(k) for k in (left, right))
    got = phi_uniform(psi, nu, math.exp(log_alpha), math.exp(log_beta)).value
    want = ref.two_exponent_sup(ref.vertices(left), ref.vertices(right), log_alpha, log_beta,
                                1.0 - _T_MARGIN)
    assert got == pytest.approx(math.exp(want), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(ref.knot_sets(), ref.knot_sets(), st.floats(-12.0, -0.1), st.floats(-12.0, -0.1))
def test_random_piecewise_pair_sup_is_the_best_vertex(left, right, log_alpha, log_beta):
    got = phi_uniform(tabulated(left), tabulated(right), math.exp(log_alpha),
                      math.exp(log_beta)).value
    want = ref.two_exponent_sup(ref.vertices(left), ref.vertices(right), log_alpha, log_beta,
                                1.0 - _T_MARGIN)
    assert got == pytest.approx(math.exp(want), rel=1e-12)


# ---------------------------------------------------------------------------
# a piecewise psi next to a smooth one, and the Lagrange dual


def test_a_sup_next_to_a_non_concave_table_on_the_edge_at_a_knot():
    # a(u) is linear on each cell of this table and c(w) concave: the sup
    # sits on the edge u + w = 1 at the knot p = 1.890625, where a grid-best
    # moved inside its own cells stopped at 0.4476585
    psi, nu = tabulated([(1, 1), (1.890625, 1), (4.03125, 3), (4.40625, 2)]), power(1.0)
    alpha = math.exp(-0.05)
    got = phi_uniform(psi, nu, alpha, alpha)
    assert got.value == pytest.approx(0.4480998106128342, rel=1e-13)
    assert got.p == 1.890625
    assert "route_mismatch" not in gls_uniform_bound(psi, nu, alpha, 1.0, 1.0).notes


_SMOOTH = st.one_of(
    st.floats(0.5, 4.0).map(lambda m: (power(m), ref.log_power(m), 1.0 / P_MAX)),
    st.tuples(st.floats(1.5, 6.0), st.floats(0.25, 2.0)).map(
        lambda t: (finite_support(*t), ref.log_finite_support(*t), 1.0 / t[0])),
)


@settings(max_examples=40, deadline=None)
@given(ref.knot_sets(), _SMOOTH, st.floats(-12.0, -0.1), st.floats(-12.0, -0.1))
def test_a_table_next_to_a_smooth_psi_is_never_below_the_dense_reference(knots, smooth, la, lb):
    nu, log_nu, w_lo = smooth
    verts = ref.vertices(knots)
    kinks = [u for u, _ in verts]
    want = ref.dense_two_exponent_sup(ref.log_table(verts), kinks[0], kinks, log_nu, w_lo,
                                      la, lb, 1.0 - _T_MARGIN)
    psi = tabulated(knots)
    # both orders: Phi(psi, nu, alpha, beta) = Phi(nu, psi, beta, alpha)
    for got in (phi_uniform(psi, nu, math.exp(la), math.exp(lb)).value,
                phi_uniform(nu, psi, math.exp(lb), math.exp(la)).value):
        assert (math.log(got) if got > 0.0 else -math.inf) >= want - 1e-12


@settings(max_examples=40, deadline=None)
@given(ref.knot_sets(), st.floats(0.5, 4.0), st.booleans(), _SMOOTH, st.floats(-12.0, -0.1),
       st.floats(-12.0, -0.1))
def test_a_product_with_a_table_factor_is_never_below_the_dense_reference(
        knots, m, table_left, smooth, la, lb):
    # ln zeta(1/u) is concave on each cell between the table's kinks, at its
    # knots u when it is the left factor and at 1 - u when the right one
    nu, log_nu, w_lo = smooth
    verts = ref.vertices(knots)
    table, factor = ref.log_table(verts), ref.log_power(m)
    if table_left:
        psi = product_zeta(tabulated(knots), power(m))
        kinks, u_lo = [u for u, _ in verts], verts[0][0]

        def log_psi(u):
            return table(u) + factor(1.0 - u)
    else:
        psi = product_zeta(power(m), tabulated(knots))
        kinks, u_lo = [1.0 - u for u, _ in verts], 1.0 / P_MAX

        def log_psi(u):
            return factor(u) + table(1.0 - u)
    want = ref.dense_two_exponent_sup(log_psi, u_lo, kinks, log_nu, w_lo, la, lb,
                                      1.0 - _T_MARGIN)
    got = phi_uniform(psi, nu, math.exp(la), math.exp(lb)).value
    assert (math.log(got) if got > 0.0 else -math.inf) >= want - 1e-12


def _log_dual(psi, nu, la, lb, lam):
    """D(lam) = ln phi_psi(alpha e^-lam) + ln phi_nu(beta e^-lam) + lam e, from
    the fundamental functions: ln Phi <= D(lam) for every lam >= 0."""
    return (math.log(fundamental(psi, math.exp(la - lam)).value)
            + math.log(fundamental(nu, math.exp(lb - lam)).value) + lam * (1.0 - _T_MARGIN))


def test_phi_is_the_minimum_of_its_lagrange_dual_on_smooth_pairs():
    # a and c are concave for every smooth built-in psi, so strong duality
    # holds and D, convex in lam, has ln Phi as its minimum
    checked = 0
    for psi, nu, alpha, beta, _ in _smooth_pairs():
        phi = phi_uniform(psi, nu, alpha, beta).value
        if phi == 0.0:  # the supports leave no admissible point
            continue
        la, lb, log_phi = math.log(alpha), math.log(beta), math.log(phi)
        for lam in (0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
            dual = _log_dual(psi, nu, la, lb, lam)
            assert log_phi <= dual + 1e-12 * max(1.0, abs(dual))
        lam, neg = golden_max(lambda t: -_log_dual(psi, nu, la, lb, t), 0.0, 60.0, tol=1e-10)
        assert lam < 59.0
        assert -neg == pytest.approx(log_phi, rel=0.0, abs=1e-9)
        checked += 1
    assert checked >= 30
