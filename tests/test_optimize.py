import math

import numpy as np
import pytest

from glscov import (
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
from glscov import _optimize, bounds
from glscov.psi import P_MAX, PsiFunction
from glscov._optimize import (
    TABLE_CACHE_SIZE,
    exponent,
    golden_max,
    grid_golden_max,
    newton_max,
    psi_table,
    u_axis,
    zoom_max,
)

import piecewise_reference as ref


def _step(edge, feasible_left):
    """-inf on one side of `edge`; on the other the value rises toward it."""
    if feasible_left:
        return lambda x: x if x <= edge else -math.inf
    return lambda x: -x if x >= edge else -math.inf


@pytest.mark.parametrize("feasible_left", [True, False])
def test_golden_max_two_infeasible_probes_shrink_toward_the_finite_end(feasible_left):
    # the edge lies left of both first probes (0.382, 0.618) or right of them,
    # so the first step sees two -inf probes and must keep the edge bracketed
    edge = 0.3 if feasible_left else 0.7
    x, fx = golden_max(_step(edge, feasible_left), 0.0, 1.0, tol=1e-12)
    assert x == pytest.approx(edge, abs=1e-11)
    assert fx == pytest.approx(edge if feasible_left else -edge, abs=1e-11)


def test_golden_max_returns_python_floats():
    # the golden ratios are Python floats, so no probe becomes a numpy scalar
    assert type(_optimize._INV_PHI) is float and type(_optimize._INV_PHI2) is float
    assert _optimize._INV_PHI == (np.sqrt(5.0) - 1.0) / 2.0
    assert _optimize._INV_PHI2 == (3.0 - np.sqrt(5.0)) / 2.0
    x, fx = golden_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)
    assert type(x) is float and type(fx) is float


# ---------------------------------------------------------------------------
# zoom_max: nested grids on an array objective


def _counted(F):
    sizes = []

    def G(xs):
        sizes.append(xs.size)
        return F(xs)

    return G, sizes


def test_zoom_max_narrows_a_smooth_max_16_fold_a_pass():
    G, sizes = _counted(lambda xs: -((xs - 0.3137) ** 2))
    x, fx = zoom_max(G, 0.0, 1.0, 1e-13)
    assert abs(x - 0.3137) <= 1e-13
    assert fx == -((x - 0.3137) ** 2)
    assert sizes == [33] * 11  # 16**-11 < 1e-13 < 16**-10


@pytest.mark.parametrize("rising", [True, False])
def test_zoom_max_evaluates_both_ends_exactly(rising):
    x, fx = zoom_max(lambda xs: xs if rising else -xs, 0.2, 0.7, 1e-13)
    assert (x, fx) == ((0.7, 0.7) if rising else (0.2, -0.2))


@pytest.mark.parametrize("feasible_left", [True, False])
def test_zoom_max_keeps_a_sup_on_an_infeasibility_edge_bracketed(feasible_left):
    edge = 0.3 if feasible_left else 0.7
    f = _step(edge, feasible_left)
    x, fx = zoom_max(lambda xs: np.array([f(t) for t in xs]), 0.0, 1.0, 1e-12)
    assert x == pytest.approx(edge, abs=1e-12)
    assert fx == f(x)


def test_zoom_max_stops_at_once_when_nothing_is_feasible():
    G, sizes = _counted(lambda xs: np.full(xs.shape, -np.inf))
    assert zoom_max(G, 0.1, 0.9, 1e-13) == (0.1, -math.inf)
    assert sizes == [33]


def _zoom_to_tol(F, lo, hi, tol):
    """zoom_max without its flat-bracket stop, down to the x-tolerance:
    (x_best, f_best, passes)."""
    best_x, best_f = lo, -math.inf
    for passes in range(1, 65):
        xs = lo + (hi - lo) * np.linspace(0.0, 1.0, 33)
        xs[-1] = hi
        fs = F(xs)
        k = int(np.argmax(fs))
        if fs[k] > best_f:
            best_x, best_f = float(xs[k]), float(fs[k])
        lo, hi = float(xs[max(k - 1, 0)]), float(xs[min(k + 1, 32)])
        if hi - lo <= tol or fs[k] == -math.inf:
            break
    return best_x, best_f, passes


#: (objective, lo, hi, whether the flat bracket stops it early)
FLAT_CASES = {
    "concave": (lambda xs: 2.5 - (xs - 0.3137) ** 2, 0.0, 1.0, True),
    "rising_to_the_end": (lambda xs: 1.0 + np.sqrt(xs), 0.2, 0.7, True),
    "kink": (lambda xs: 3.0 - 1e-4 * np.abs(xs - 0.4321), 0.0, 1.0, True),
    "non_concave": (lambda xs: np.sin(13.0 * xs) + 0.3 * np.cos(41.0 * xs), 0.0, 1.0, False),
    "infeasible_neighbour": (lambda xs: np.where(xs <= 0.7, 1.0 + xs, -np.inf), 0.0, 1.0, False),
}


@pytest.mark.parametrize("name", sorted(FLAT_CASES))
def test_zoom_max_stops_on_a_flat_bracket_within_4_ulp(name):
    F, lo, hi, early = FLAT_CASES[name]
    G, sizes = _counted(F)
    _, fx = zoom_max(G, lo, hi, 1e-13)
    _, want, passes = _zoom_to_tol(F, lo, hi, 1e-13)
    assert abs(fx - want) <= 4.0 * math.ulp(want)
    assert len(sizes) < passes if early else len(sizes) <= passes


# ---------------------------------------------------------------------------
# Newton refinement of smooth sups against golden section


def _smooth_cases(seed=13, n=84):
    """Seeded smooth sups: (psi, ln delta, s, x) over every smooth shape."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        m, b, beta = rng.uniform(0.5, 4.0), rng.uniform(1.5, 6.0), rng.uniform(0.0, 2.0)
        psi = (
            power(m),
            finite_support(b, beta),
            finite_support(b, 10.0 ** rng.uniform(-4.0, -1.0)),  # sup near p -> b
            product_zeta(power(m), dual_psi(power(m))),
            product_zeta(power(m), finite_support(b, beta)),
            product_zeta(finite_support(b, beta), power(m)),
        )[i % 6]
        log_delta = -(10.0 ** rng.uniform(-1.0, math.log10(300.0)))
        s = 1.0 + rng.uniform(0.1, 0.6) * (min(psi.b, 8.0) - 1.0)
        out.append((psi, log_delta, s, rng.uniform(-1.0, 6.0)))
    return out


def _run(cases):
    rows = []
    for psi, log_delta, s, x in cases:
        for r in (fundamental(psi, math.exp(log_delta)),
                  fundamental_truncated(psi, s, math.exp(log_delta))):
            rows.append((math.log(r.value), r.boundary))
        r = conjugate_info(psi, x)
        rows.append((r.value, r.unbounded_at_cap))
    return rows


def _golden_only(monkeypatch):
    """Refine every 1-D sup by golden section on the values of its probe, on
    the same cells, ignoring the derivatives."""

    def golden(df, xs, i, cap=math.inf, tol=1e-13, floor=-math.inf):
        cell = _optimize._cell(xs, i, cap, floor)
        return cell and golden_max(lambda t: df(t)[0], *cell, tol=tol)

    monkeypatch.setattr(_optimize, "cell_max", golden)


def test_newton_sups_match_golden_section(monkeypatch):
    cases = _smooth_cases()
    assert all(psi.breakpoints is None for psi, _, _, _ in cases)
    newton = _run(cases)
    _golden_only(monkeypatch)
    golden = _run(cases)
    for (got, flag), (want, want_flag) in zip(newton, golden):
        assert flag == want_flag
        assert got >= want - 1e-14 * max(1.0, abs(want))


def _run_pairs(cases):
    """The two-exponent sups on consecutive cases taken as (psi, nu) pairs."""
    for (psi, log_alpha, _, _), (nu, log_beta, _, _) in zip(cases[::2], cases[1::2]):
        phi_uniform(psi, nu, math.exp(log_alpha), math.exp(log_beta))
        phi_uniform_theta(psi, nu, math.exp(log_alpha))


def _golden_evals_by_loop(width, tol):
    """golden_max's evaluation count, step by step as golden_max shrinks."""
    if width <= tol:
        return 2
    evals = 4
    while width > tol and evals < _optimize._MAX_ITER + 4:
        width *= _optimize._INV_PHI
        evals += 1
    return evals


def test_golden_evals_closed_form_never_exceeds_the_loop():
    rng = np.random.default_rng(22)
    tols = 10.0 ** rng.uniform(-14, -6, 20_000)
    widths = tols * 10.0 ** rng.uniform(-1, 45, 20_000)
    for w, t in zip(widths.tolist(), tols.tolist()):
        assert _optimize._golden_evals(w, t) == _golden_evals_by_loop(w, t)
    # widths within 40 ulps of each step boundary, where the loop's rounded
    # products may take one step more than the exact count: never more here
    for tol in (1e-12, 1e-13, 3.7e-9):
        for k in range(1, 120):
            edge = tol / _optimize._INV_PHI**k
            for w in (edge + j * math.ulp(edge) for j in range(-40, 41)):
                loop = _golden_evals_by_loop(w, tol)
                assert loop - 1 <= _optimize._golden_evals(w, tol) <= loop
    for w in (0.0, 1e-12, 1e300, math.inf):
        assert _optimize._golden_evals(w, 1e-12) == _golden_evals_by_loop(w, 1e-12)


def test_newton_refinement_costs_less_than_golden_section(monkeypatch):
    counts = []

    def counted(df, lo, x, hi, tol):
        n = [0]

        def probe(u):
            n[0] += 1
            return df(u)

        out = newton_max(probe, lo, x, hi, tol)
        counts.append((n[0], _optimize._golden_evals(hi - lo, tol)))
        return out

    monkeypatch.setattr(_optimize, "newton_max", counted)  # the pieces and the edge of Phi too
    _run(_smooth_cases())
    assert len(counts) > 200
    assert all(n <= min(48, golden) for n, golden in counts)
    assert sum(n for n, _ in counts) / len(counts) <= 8.0
    # the 1-D sups and edge segments of Phi, theta's outer scan and its
    # inner cells
    del counts[:]
    _run_pairs(_smooth_cases())
    assert len(counts) > 150
    assert all(n <= golden for n, golden in counts)
    assert sum(n for n, _ in counts) / len(counts) <= 8.0


# ---------------------------------------------------------------------------
# golden section only where nothing is known about the objective


def _golden_calls(monkeypatch):
    """The list of golden_max calls; only `_optimize` makes them."""
    calls = []
    plain = _optimize.golden_max

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return plain(*args, **kwargs)

    monkeypatch.setattr(_optimize, "golden_max", counted)
    return calls


NATURAL, NATURAL_VERTICES = ref.piecewise_case("empirical")

#: extremal, a piecewise product with an extremal factor, and both orders of
#: a product with one piecewise factor, which refines by Newton
ONE_D = {
    "extremal": extremal(3.0),
    "extremal_tabulated": product_zeta(extremal(3.0), tabulated(ref.KNOTS_2)),
    "natural_power": product_zeta(NATURAL, power(2.0)),
    "power_natural": product_zeta(power(2.0), NATURAL),
}


@pytest.mark.parametrize("name", sorted(ONE_D))
def test_one_dimensional_sups_over_psi_make_no_golden_section_call(monkeypatch, name):
    psi = ONE_D[name]
    calls = _golden_calls(monkeypatch)
    for delta in (1e-12, 1e-3, 0.1):
        fundamental(psi, delta)
        fundamental_truncated(psi, 1.3, delta)
    for x in (0.0, 1.0, 6.0):
        conjugate_info(psi, x)
    assert calls == []


@pytest.mark.parametrize(
    "psi, nu",
    [(extremal(3.0), extremal(4.0)), (tabulated(ref.KNOTS), tabulated(ref.KNOTS_2)),
     (NATURAL, power(1.5)), (power(1.5), NATURAL)],
    ids=["extremal", "tabulated", "natural_power", "power_natural"],
)
def test_uniform_sup_makes_no_golden_section_call(monkeypatch, psi, nu):
    calls = _golden_calls(monkeypatch)
    for alpha, beta in ((1e-8, 1e-4), (1e-3, 1e-2), (0.1, 0.2)):
        phi_uniform(psi, nu, alpha, beta)
    assert calls == []


def test_piecewise_coordinates_take_no_cell_refinement(monkeypatch):
    # linear between breakpoints: a piecewise pair's Phi is the best of its
    # knot pairs and edge vertices, each read as one array, with no jet
    # probe; theta's inner sup over a piecewise nu is its running maximum
    # and c(1 - u), and its outer scan over a piecewise psi holds every
    # kink, so only a smooth psi's outer scan refines
    cells, probes = [], [0]
    plain, jet = _optimize.cell_max, PsiFunction.log_u_jet

    def counted_cell(*args, **kwargs):
        cells.append(args[1])
        return plain(*args, **kwargs)

    def counted_jet(self, u):
        probes[0] += 1
        return jet(self, u)

    monkeypatch.setattr(_optimize, "cell_max", counted_cell)
    monkeypatch.setattr(bounds, "cell_max", counted_cell)
    monkeypatch.setattr(PsiFunction, "log_u_jet", counted_jet)
    for psi, nu in ((extremal(3.0), extremal(4.0)), (tabulated(ref.KNOTS), tabulated(ref.KNOTS_2))):
        probes[0] = 0
        phi_uniform(psi, nu, 1e-3, 1e-2)
        assert probes[0] == 0
        phi_uniform_theta(psi, nu, 1e-3)
        assert cells == []
        phi_uniform_theta(power(1.5), nu, 1e-3)
        assert len(cells) == 1  # the outer scan
        del cells[:]
    phi_uniform(power(1.5), NATURAL, 1e-3, 1e-2)
    # the 1-D sup along power's coordinate, on power's table, at most one
    # cell per concave piece of the edge, split at the natural function's
    # kinks, and none on the natural function's table
    table, natural = (psi_table(f, 1.0)[0] for f in (power(1.5), NATURAL))
    assert sum(xs is table for xs in cells) == 1
    assert not any(xs is natural for xs in cells)
    assert len(cells) - 1 <= NATURAL.kinks.size + 1


def _mixed_log_zeta(m, natural_left):
    """g(u) = ln zeta(1/u) of zeta(NATURAL, power(m)) or zeta(power(m), NATURAL),
    from the natural function's vertices and the closed form of power."""
    us, logs = (np.array(a) for a in zip(*NATURAL_VERTICES))

    def g(u):
        w = 1.0 - u  # the right factor is read at 1 - u
        with np.errstate(divide="ignore"):
            if natural_left:
                return np.where((u >= us[0]) & (w > 0.0), np.interp(u, us, logs) - np.log(w) / m,
                                np.inf)
            return np.where((w >= us[0]) & (u > 0.0), np.interp(w, us, logs) - np.log(u) / m,
                            np.inf)

    return g


def _zoomed_max(f, lo, hi, n=2001, rounds=6):
    """max of the vectorized f on [lo, hi]: a grid, then a grid on the two
    cells around its best point, `rounds` times."""
    best = -math.inf
    for _ in range(rounds):
        xs = np.linspace(lo, hi, n)
        fs = f(xs)
        i = int(np.argmax(fs))
        best = max(best, float(fs[i]))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, n - 1)]
    return best


@pytest.mark.parametrize("natural_left", [True, False], ids=["natural_power", "power_natural"])
def test_mixed_product_sups_match_a_dense_reference_in_fewer_probes(monkeypatch, natural_left):
    m = 2.0
    psi = product_zeta(NATURAL, power(m)) if natural_left else product_zeta(power(m), NATURAL)
    g = _mixed_log_zeta(m, natural_left)
    lo = 1.0 / min(psi.b, P_MAX)
    wants = [_zoomed_max(lambda u, ld=math.log(d): u * ld - g(u), lo, 1.0)
             for d in (1e-12, 1e-3, 0.1)]
    wants += [_zoomed_max(lambda u, x=x: (x - g(u)) / u, lo, 1.0) for x in (0.0, 1.0, 3.0)]
    probes = [0]
    jet = PsiFunction.log_u_jet

    def counted(self, u):
        probes[0] += 1
        return jet(self, u)

    def sups():
        probes[0] = 0
        got = [math.log(fundamental(psi, d).value) for d in (1e-12, 1e-3, 0.1)]
        got += [conjugate_info(psi, x).value for x in (0.0, 1.0, 3.0)]
        return got, probes[0]

    monkeypatch.setattr(PsiFunction, "log_u_jet", counted)
    got, newton = sups()
    for v, want in zip(got, wants):
        assert v == pytest.approx(want, rel=1e-12, abs=1e-12)
    _golden_only(monkeypatch)
    assert newton < sups()[1]


@pytest.mark.parametrize("edge", ["left", "right"])
def test_an_infeasible_neighbour_cell_takes_the_newton_path(monkeypatch, edge):
    # the grid max sits next to a -inf grid value, so its cells reach past
    # psi's support: Newton closes its bracket at a -inf point and bisects,
    # to a max inside the cells or to the support's end for a peak past it
    calls = _golden_calls(monkeypatch)
    xs = np.linspace(0.0, 1.0, 11)
    end = 0.05 if edge == "left" else 0.95
    for top in ((0.12, 0.02) if edge == "left" else (0.88, 0.98)):
        def df(x, top=top):  # f' and f'' past the support are never to be used
            feasible = x > end if edge == "left" else x < end
            return (-((x - top) ** 2) if feasible else -math.inf), -2.0 * (x - top), -2.0

        fs = np.array([df(x)[0] for x in xs])
        x, fx = grid_golden_max(xs, fs, df)
        want = min(max(top, 0.05), 0.95)
        assert x == pytest.approx(want, abs=1e-12)
        assert fx == pytest.approx(-((want - top) ** 2), abs=1e-12)
    assert calls == []


def test_newton_max_closes_its_bracket_past_the_support():
    # f = -(x - 2)^2 is finite only for x <= 0.7: the steps toward 2 and the
    # end hi land past the support, so the search bisects onto its edge
    n = [0]

    def df(x):
        n[0] += 1
        return (-((x - 2.0) ** 2) if x <= 0.7 else -math.inf), -2.0 * (x - 2.0), -2.0

    x, fx = newton_max(df, 0.0, 0.5, 1.0, 1e-12)
    assert 0.7 - 1e-12 <= x <= 0.7
    assert fx == -((x - 2.0) ** 2)
    assert n[0] <= _optimize._golden_evals(1.0, 1e-12)


def test_newton_max_bisects_where_f_is_not_concave():
    # f = -(x^2 - 1)^2 has f'' > 0 for x < 1/sqrt(3): the start at 0.4 bisects
    def df(x):
        return -((x * x - 1.0) ** 2), -4.0 * x * (x * x - 1.0), 4.0 - 12.0 * x * x

    x, fx = newton_max(df, 0.0, 0.4, 1.5, 1e-12)
    assert x == pytest.approx(1.0, abs=1e-12)
    assert fx == pytest.approx(0.0, abs=1e-20)

    # f = -|x - 0.7| has f'' = 0 on both sides of its kink: bisection alone
    def kink(x):
        return -abs(x - 0.7), -math.copysign(1.0, x - 0.7), 0.0

    x, fx = newton_max(kink, 0.0, 0.3, 1.0, 1e-12)
    assert x == pytest.approx(0.7, abs=1e-12)


def test_newton_max_tries_the_end_a_step_overshoots():
    # f = -(x - 2)^2 rises across [0, 1]: the first step lands at 2, so the
    # search tries hi, where f' > 0 ends it
    n = [0]

    def df(x):
        n[0] += 1
        return -((x - 2.0) ** 2), -2.0 * (x - 2.0), -2.0

    assert newton_max(df, 0.0, 0.5, 1.0, 1e-13) == (1.0, -1.0)
    assert n[0] == 2


def test_newton_max_bisects_after_an_end_with_inward_slope():
    # f = ln(1 - x) + 10 x peaks at 0.9; its curvature near the end 1 - 1e-15
    # makes a Newton step from there tiny, which must not pass for convergence.
    # The end is tried once: the next step past it bisects
    n = [0]

    def df(x):
        n[0] += 1
        return math.log1p(-x) + 10.0 * x, 10.0 - 1.0 / (1.0 - x), -1.0 / (1.0 - x) ** 2

    x, fx = newton_max(df, 0.0, 0.5, 1.0 - 1e-15, 1e-13)
    assert x == pytest.approx(0.9, abs=1e-12)
    assert n[0] <= 12


def test_newton_max_never_costs_more_than_golden_section():
    # a probe whose Newton steps crawl and never shrink the bracket: the
    # kernel switches to bisection in time to stay within golden's count
    n = [0]

    def crawl(x):
        n[0] += 1
        return x, 1.0, -1e9

    lo, hi, tol = 0.0, 1e-3, 1e-12
    x, _ = newton_max(crawl, lo, 5e-4, hi, tol)
    assert x == pytest.approx(hi, abs=2 * tol)
    assert n[0] <= _optimize._golden_evals(hi - lo, tol)


def test_newton_max_tries_no_end_once_its_budget_is_spent():
    # the steps crawl until the budget forces bisection; the first bisection
    # lands where a step overshoots hi, but no evaluation is left to try hi,
    # whose slope would send the search back (the peak sits 1e-9 inside it)
    n = [0]
    lo, hi, tol = 0.0, 1e-3, 1e-12
    top = hi - 1e-9

    def leap(x):
        n[0] += 1
        return -abs(x - top), 1.0 if x < top else -1.0, -1e9 if x < 7.5e-4 else -1e-9

    x, _ = newton_max(leap, lo, 5e-4, hi, tol)
    assert x == pytest.approx(top, abs=2 * tol)
    assert n[0] <= _optimize._golden_evals(hi - lo, tol)


def _sups(psi):
    return (
        fundamental(psi, 1e-6),
        fundamental_truncated(psi, 1.5, 1e-6),
        tail_bound(psi, 1.0, 5.0),
    )


@pytest.mark.parametrize(
    "make",
    [lambda: finite_support(3.0, 0.5), lambda: product_zeta(power(2.0), dual_psi(power(2.0)))],
)
def test_sups_identical_on_cache_miss_hit_and_after_eviction(make):
    psi = make()
    psi_table.cache_clear()
    miss = _sups(psi)
    assert psi_table.cache_info().misses == 2
    hit = _sups(psi)
    # the truncated table's miss read the [1, b) table: one hit more
    assert psi_table.cache_info().hits == 5
    for k in range(TABLE_CACHE_SIZE + 1):
        _sups(power(1.0 + k))
    before = psi_table.cache_info().misses
    evicted = _sups(psi)
    assert psi_table.cache_info().misses == before + 2
    assert miss == hit == evicted


def test_cached_tables_are_read_only_and_bounded():
    psi_table.cache_clear()
    us, logs, _ = psi_table(power(1.0), 1.0)
    for arr in (us, logs):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for k in range(3 * TABLE_CACHE_SIZE):
        fundamental(power(1.0 + k), 1e-3)
    info = psi_table.cache_info()
    assert info.maxsize == TABLE_CACHE_SIZE
    assert info.currsize == TABLE_CACHE_SIZE


def test_u_axis_and_exponent_are_exact_at_both_ends():
    for p_hi, p_lo in ((1.825, 1.0), (6.0, 1.51), (1e6, 1.46)):
        us, ps = u_axis(p_hi, p_lo, 17)
        assert (ps[0], ps[-1]) == (p_hi, p_lo)
        assert np.array_equal(ps[1:-1], 1.0 / us[1:-1])
        assert exponent(float(us[0]), p_hi, p_lo) == p_hi
        assert exponent(float(us[-1]), p_hi, p_lo) == p_lo
        assert exponent(float(us[5]), p_hi, p_lo) == 1.0 / us[5]
