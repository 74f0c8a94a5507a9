import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import piecewise_reference as ref
from glscov import (
    DomainError,
    PsiFunction,
    closed_form_finite,
    closed_form_power,
    conjugate,
    conjugate_info,
    dual_psi,
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
from glscov.fundamental import _sup, _sups, truncated_sup_value
from glscov.psi import scan_bound


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


#: smooth psi (every row refined by Newton) and piecewise psi (grid maxima)
_KERNEL_PSIS = {
    "power": power(1.5),
    "finite_support": finite_support(4.0, 1.0),
    "smooth_product": product_zeta(power(2.0), dual_psi(power(2.0))),
    "tabulated": tabulated(ref.KNOTS),
    "piecewise_product": ref.piecewise_case("product")[0],
}


def _lows(psi):
    """Truncation points: none, inside, at the scan bound, and beyond it (empty)."""
    return [1.0, 1.7, scan_bound(psi), 2.0 * scan_bound(psi)]


@pytest.mark.parametrize("name", sorted(_KERNEL_PSIS))
def test_batched_sups_are_the_row_kernel_bit_for_bit(name):
    psi = _KERNEL_PSIS[name]
    log_xs = [-700.0, -30.0, -2.5, -0.1, 0.0, 1.5, 40.0]
    for s in _lows(psi):
        us, lns = _sups(psi, log_xs, s)
        assert isinstance(us, list) and isinstance(lns, list)
        assert list(zip(us, lns)) == [_sup(psi, x, s) for x in log_xs], s
    assert _sups(psi, [], 1.0) == ([], [])
    assert set(_sups(psi, log_xs, 2.0 * scan_bound(psi))[1]) == {-math.inf}


@pytest.mark.parametrize("name", sorted(_KERNEL_PSIS))
def test_truncated_sup_value_is_the_truncated_fundamental(name):
    psi = _KERNEL_PSIS[name]
    for delta in (1e-300, 1e-6, 0.3, 5.0):
        for s in (1.0, 1.7):
            assert truncated_sup_value(psi, s, delta) == fundamental_truncated(psi, s, delta).value
        assert truncated_sup_value(psi, 2.0 * scan_bound(psi), delta) == 0.0


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["power", "finite_support"]),
    st.floats(0.2, 8.0),
    st.floats(1.05, 50.0),
    st.floats(0.0, 1.0),
    st.floats(-200.0, 3.0),
)
def test_truncated_sup_value_matches_on_random_smooth_psi(kind, a, b, t, log_delta):
    # finite_support(b, a), or power(a) truncated below b
    psi = power(a) if kind == "power" else finite_support(b, a)
    s = 1.0 + 0.99 * t * (b - 1.0)
    delta = math.exp(log_delta)
    assert truncated_sup_value(psi, s, delta) == fundamental_truncated(psi, s, delta).value


@pytest.mark.parametrize("psi, delta", [
    (finite_support(3.0, 1.0), 1e308),  # 1e308 / psi(1) = 2e308 at p = 1
    (finite_support(1e200, 2.0), 0.5),  # psi is about 1e-400 everywhere
])
def test_a_sup_beyond_the_float_range_raises_domain_error(psi, delta):
    with pytest.raises(DomainError, match="float range"):
        fundamental(psi, delta)


def test_truncated_sup_value_past_the_float_range_raises_domain_error():
    # 1e300 / 1e-300 = 1e600 at p = 1: a DomainError, as fundamental_truncated
    # raises, and no OverflowError
    psi = tabulated([(1.0, 1e-300), (2.0, 1e-300)])
    for sup in (fundamental_truncated, truncated_sup_value):
        with pytest.raises(DomainError, match="float range"):
            sup(psi, 1.0, 1e300)


def _value_or_domain_error(sup, *args):
    """The sup's value, checked finite and non-negative, or None on DomainError."""
    try:
        value = sup(*args).value
    except DomainError:
        return None
    assert math.isfinite(value) and value >= 0.0
    return value


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.builds(finite_support, st.floats(1.01, 1e6), st.floats(0.0, 3.0)),
        st.builds(power, st.floats(0.2, 8.0)),
    ),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(-690.0, 690.0),
)
def test_a_truncated_sup_never_exceeds_the_full_one(psi, t, log_delta):
    # s in [1, b): for power, up to 1e8, past the scan bound P_MAX
    s = 1.0 + t * (psi.b - 1.0) if math.isfinite(psi.b) else 10.0 ** (8.0 * t)
    delta = math.exp(log_delta)  # 1e-300 to 1e300
    full = _value_or_domain_error(fundamental, psi, delta)
    truncated = _value_or_domain_error(fundamental_truncated, psi, s, delta)
    if full is not None and truncated is not None:
        assert truncated <= full * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# products with one table factor: a sup per concave piece between the kinks

#: a table factor whose last knot, mirrored to u = 1 - 1/8.525..., is where
#: the fundamental function of its product with power peaks
_KINKED_TABLE = [(1, 4.93767264833864), (3.5729770142950987, 1.477532936280692),
                 (7.931144231009498, 5.004260625927372), (8.525104804270562, 1.528147695763513)]


def test_a_sup_at_a_kink_of_a_product_with_a_table_factor():
    # a scan that ignored the kinks read 0.58057 at p = 1.3887, 3% below the
    # sup, and the conjugate at 0.5 as -0.01075
    psi = product_zeta(power(2.7974435860010116), tabulated(_KINKED_TABLE))
    delta = math.exp(-0.05)
    got = fundamental(psi, delta)
    assert math.log(got.value) >= -0.512796
    assert got.argmax_p == pytest.approx(1.0 / (1.0 - 1.0 / 8.525104804270562), abs=1e-9)
    assert fundamental_truncated(psi, 1.05, delta).value == got.value
    assert conjugate(psi, 0.5) >= 0.0355


#: a smooth factor: (kind, parameters)
_SMOOTH_SPECS = st.one_of(
    st.tuples(st.just("power"), st.floats(0.3, 5.0)),
    st.tuples(st.just("finite_support"), st.floats(1.2, 12.0), st.floats(0.05, 2.0)),
    st.tuples(st.just("dual"), st.floats(0.3, 5.0)),
)


def _smooth_factor(spec):
    """(psi, ln psi(1/u), ln psi(1/(1 - u))) of a smooth factor, the last two
    on arrays of u, in closed form: a right factor is read at w = 1 - u, and
    a dual of power(m) there is power(m) at u."""
    kind, *args = spec
    if kind == "power":
        g = ref.log_power(*args)
        return power(*args), g, lambda u: g(1.0 - u)
    if kind == "finite_support":
        g = ref.log_finite_support(*args)
        return finite_support(*args), g, lambda u: g(1.0 - u)
    return dual_psi(power(*args)), ref.log_dual_power(*args), ref.log_power(*args)


@settings(max_examples=80, deadline=None)
@given(ref.knot_sets(max_knots=5).filter(lambda knots: len(knots) >= 2), _SMOOTH_SPECS,
       st.booleans(), st.floats(-30.0, 2.0), st.floats(0.0, 0.9), st.floats(-1.0, 6.0))
def test_sups_of_a_product_with_a_table_factor_reach_a_kink_aware_grid(knots, spec, table_left,
                                                                          log_delta, t, x):
    verts = ref.vertices(knots)
    log_t = ref.log_table(verts)
    smooth, log_s, log_s_mirrored = _smooth_factor(spec)
    if table_left:
        psi = product_zeta(tabulated(knots), smooth)
        kinks = [u for u, _ in verts]

        def log_psi(u):
            return log_t(u) + log_s_mirrored(u)
    else:
        psi = product_zeta(smooth, tabulated(knots))
        kinks = [1.0 - u for u, _ in verts]

        def log_psi(u):
            return log_s(u) + log_t(1.0 - u)
    lo = 1.0 / scan_bound(psi)
    s = 1.0 + t * (min(psi.b, 20.0) - 1.0)

    def power_ratio(u, a):
        return u * log_delta - a

    def young(u, a):
        return (x - a) / u

    for sup, objective, hi, log_value in (
        (lambda: fundamental(psi, math.exp(log_delta)), power_ratio, 1.0, math.log),
        (lambda: fundamental_truncated(psi, s, math.exp(log_delta)), power_ratio, 1.0 / s, math.log),
        (lambda: conjugate_info(psi, x), young, 1.0, float),
    ):
        want = ref.kink_aware_max(objective, log_psi, lo, hi, kinks)
        try:
            got = sup()
        except DomainError:
            assert want == -math.inf
            continue
        value = log_value(got.value)
        assert value >= want - 1e-12 * max(1.0, abs(want))
        # the value is the objective at the reported exponent, whose u = 1/p
        # is read within one rounding
        u = 1.0 / got.argmax_p
        at = np.array([np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)])
        with np.errstate(divide="ignore", invalid="ignore"):
            reread = float(np.nanmax(objective(at, log_psi(at))))
        assert value == pytest.approx(reread, rel=1e-12, abs=1e-12)
