"""A scan in u = 1/p meets its ends at the exact end exponents.

1/(1/p) need not round back to p, so every sup that reads or reports an
exponent at a scan end must take the exact one: a closed support end is then
feasible, and a sup attained there reports p = b (or p = s) itself.
"""

import math

import numpy as np
import pytest

from glscov import (
    FiniteProbSpace,
    RandomVar,
    example_combined,
    exact_lp,
    extremal,
    finite_support,
    fundamental_truncated,
    generic_bound,
    gls_norm_exact,
    gls_uniform_bound,
    phi_uniform,
    power,
    product_zeta,
    tabulated,
)

#: 1/(1/1.825) rounds to 1.8250000000000002, past the closed end of extremal(1.825)
R = 1.825


@pytest.mark.parametrize("refine", [False, True])
def test_gls_norm_reaches_the_closed_support_end(refine):
    # |xi|_p increases in p, so the sup over [1, 1.825] is |xi|_1.825 itself
    space = FiniteProbSpace(np.array([0.1, 0.2, 0.7]))
    xi = RandomVar(np.array([5.0, -1.0, 0.3]))
    want = exact_lp(space, xi, R)
    assert want == pytest.approx(1.5265656033777624, rel=1e-15)
    got = gls_norm_exact(space, xi, extremal(R), n_grid=256, refine=refine)
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_uniform_sup_on_an_extremal_pair_reports_the_support_ends():
    assert 1.0 / (1.0 / R) > R
    psi, nu = extremal(R), extremal(4.0)
    two_d = phi_uniform(psi, nu, 0.01, 0.01)
    assert (two_d.p, two_d.q) == (R, 4.0)
    rep = gls_uniform_bound(psi, nu, 0.01, 1.0, 1.0)
    assert (rep.p, rep.q) == (R, 4.0)


@pytest.mark.parametrize("s", [1.46, 1.51])
def test_truncated_sup_at_its_truncation_point_reports_it(s):
    # for power(1) at delta = 0.9 the objective rises on all of [1/b, 1/s]
    assert 1.0 / (1.0 / s) != s
    assert fundamental_truncated(power(1.0), s, 0.9).argmax_p == s
    q0 = s / (s - 1.0)
    assert q0 / (q0 - 1.0) == s
    # alpha = 0.3 puts the untruncated maximizer |ln alpha| = 1.2 below s
    assert example_combined(power(1.0), q0, 0.3, 1.0, 1.0).p == s


def test_generic_bound_on_a_rectangle_reports_its_lower_corner():
    # a constant kernel leaves psi(p) nu(q), least at the smallest p and q
    def const(p, q):
        return np.ones(np.broadcast(p, q).shape)

    rep = generic_bound(const, power(1.0), power(2.0), ((1.51, 6.0), (1.46, 10.0)), 1.0, 1.0)
    assert (rep.p, rep.q) == (1.51, 1.46)
    assert rep.value == pytest.approx(1.51 * math.sqrt(1.46), rel=1e-12)


def test_piecewise_product_is_finite_at_the_right_factors_closed_end():
    # at p = 16/15 the conjugate exponent rounds to 16.000000000000004, past
    # the last knot of the right factor
    t = tabulated([(1.0, 1.0), (2.0, 1.5), (16.0, 4.0)])
    zeta = product_zeta(t, t)
    want = float(zeta.log_u(np.array([1.0 - 1.0 / 16.0]))[0])
    assert math.isfinite(want)
    assert zeta.log_eval(np.array([16.0 / 15.0]))[0] == want
    assert zeta.log_u_jet(1.0 - 1.0 / 16.0)[0] == want


def _davydov(alpha):
    def h(p, q):
        return 12.0 * alpha ** (1.0 - 1.0 / p - 1.0 / q)

    return h


def test_probes_read_psi_at_the_closed_support_end():
    # 1/(1/3.722) rounds past 3.722: a probe that rebuilt p from u read +inf
    r = 3.722
    assert 1.0 / (1.0 / r) > r
    assert extremal(r).log_u_jet(1.0 / r)[0] == 0.0


def test_generic_bound_with_the_sup_on_a_closed_support_end_matches_the_uniform_bound():
    # the sup sits at q = r, p inside the support: probes must reach w = 1/r
    alpha = math.exp(-11.997)
    psi, nu = finite_support(4.498, 0.012), extremal(3.722)
    gen = generic_bound(_davydov(alpha), psi, nu, "T", 1.0, 1.0)
    uni = gls_uniform_bound(psi, nu, alpha, 1.0, 1.0)
    assert gen.q == 3.722
    assert gen.value == pytest.approx(uni.value, rel=1e-12, abs=0.0)
