"""Acceptance gate: ten numbered end-to-end checks with pinned tolerances.

Each test records a single pass/fail line (printed in the terminal summary)
and asserts the criterion.
"""

import math
import time

import numpy as np

from glscov import (
    CampaignConfig,
    FiniteMarkovModel,
    MDependentModel,
    closed_form_power,
    conjugate,
    davydov_bound,
    dual_psi,
    empirical_tail,
    example_power_pair,
    extremal,
    factorization_check,
    finite_support,
    finite_support_constant,
    fundamental,
    gls_identical_bound,
    gls_norm,
    gls_strong_bound,
    gls_uniform_bound,
    ibragimov_bound,
    markov_mixing_profile,
    moments_from_samples,
    natural_from_moments,
    phi_uniform,
    phi_uniform_theta,
    power,
    product_zeta,
    sharpness_probe,
    sigma_n_estimate,
    summability_report,
    tail_bound,
    v_of,
    verify_campaign,
    y_sequence,
)


def test_criterion_1_power_closed_form(criterion):
    ms = (0.5, 1.0, 2.0, 5.0)
    deltas = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
    t0 = time.perf_counter()
    worst = 0.0
    for m in ms:
        psi = power(m)
        for delta in deltas:
            got = fundamental(psi, delta).value
            want = closed_form_power(m, delta)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    criterion(
        1, ok,
        f"power family closed form: max rel err {worst:.2e} (tol 1e-6), "
        f"runtime {elapsed:.3f}s (limit 1s)",
    )


def test_criterion_2_finite_support_shape(criterion):
    details = []
    ok = True
    for b, beta in ((2.0, 1.0), (4.0, 0.5)):
        psi = finite_support(b, beta)
        ratios = {}
        for delta in (1e-8, 1e-12):
            shape = delta ** (1.0 / b) * abs(math.log(delta)) ** (-beta)
            ratios[delta] = fundamental(psi, delta).value / shape
        change = abs(ratios[1e-12] - ratios[1e-8]) / ratios[1e-8]
        tabulated_k = finite_support_constant(b, beta)
        mismatch = abs(ratios[1e-12] - tabulated_k) > 1e-3 * tabulated_k
        ok = ok and change < 0.05 and mismatch
        details.append(
            f"(b={b:g},beta={beta:g}): drift {change:.2%}, observed constant "
            f"{ratios[1e-12]:.4f} vs tabulated {tabulated_k:.4f} (flagged)"
        )
    criterion(2, ok, "finite-support shape stable <5%; " + "; ".join(details))


def test_criterion_3_extremal_degenerations(criterion):
    worst_fund = 0.0
    for r in (2.0, 4.0, 8.0):
        for delta in (0.5, 1e-3):
            got = fundamental(extremal(r), delta).value
            worst_fund = max(worst_fund, abs(got - delta ** (1.0 / r)))
    alpha = 0.02
    uni = gls_uniform_bound(extremal(3.0), extremal(4.0), alpha, 1.0, 1.0).value
    dav = davydov_bound(alpha, 3.0, 4.0, 1.0, 1.0).value
    err_uni = abs(uni - dav) / dav
    beta = 0.04
    worst_str = 0.0
    for r in (2.0, 3.0, 4.0):
        st = gls_strong_bound(extremal(r), extremal(r / (r - 1.0)), beta, 1.0, 1.0).value
        ib = ibragimov_bound(beta, r, 1.0, 1.0).value
        worst_str = max(worst_str, abs(st - ib) / ib)
    ok = worst_fund < 1e-12 and err_uni < 1e-9 and worst_str < 1e-9
    criterion(
        3, ok,
        f"extremal degenerations: fundamental err {worst_fund:.1e} (tol 1e-12), "
        f"uniform-vs-davydov {err_uni:.1e}, strong-vs-ibragimov {worst_str:.1e} "
        f"(tol 1e-9)",
    )


def test_criterion_4_oracle_campaign(criterion):
    t0 = time.perf_counter()
    report = verify_campaign(
        CampaignConfig(instances=10_000, seed=42, max_atoms=10, max_blocks=4,
                       slack=1e-12)
    )
    elapsed = time.perf_counter() - t0
    ok = report.violations == 0 and elapsed < 60.0
    criterion(
        4, ok,
        f"oracle campaign: {report.violations} violations in "
        f"{report.instances} instances / {report.checks} checks, "
        f"min bound/|cov| ratio {report.min_slack_ratio:.3f}, "
        f"runtime {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_5_sharpness_probe(criterion):
    res = sharpness_probe(4.0, 4.0, search_budget=500, seed=0)
    ok = res.ratio >= 2.0 - 1e-12
    criterion(
        5, ok,
        f"sharpness probe at (4,4): best ratio {res.ratio:.6f} "
        f"(witness {res.witness['source']}, needs >= 2 via the two-point witness)",
    )


def test_criterion_6_dual_pair_identity(criterion):
    worst = 0.0
    for m in (1.0, 2.0):
        psi = power(m)
        zeta = product_zeta(psi, dual_psi(psi))
        for k in range(1, 11):
            beta = math.exp(-float(k))
            lhs = fundamental(zeta, 1.0 / beta).value
            rhs = fundamental(psi, beta**-0.5).value ** 2
            worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst < 1e-9
    criterion(
        6, ok,
        f"dual-pair identity phi[G zeta](1/beta) = phi[G psi](beta^-1/2)^2: "
        f"max rel err {worst:.1e} (tol 1e-9)",
    )


def test_criterion_7_uniform_routes_and_factorization(criterion):
    pairs = [
        (power(1.0), power(2.0)),
        (power(2.0), finite_support(3.0, 0.5)),
        (finite_support(2.0, 1.0), finite_support(4.0, 0.5)),
    ]
    alpha = math.exp(-4.0)
    worst_route = 0.0
    one_sided = True
    for psi, nu in pairs:
        r2d = phi_uniform(psi, nu, alpha, alpha).value
        rth = phi_uniform_theta(psi, nu, alpha)
        worst_route = max(worst_route, abs(r2d - rth) / max(r2d, rth))
        for a in (math.exp(-1.0), math.exp(-4.0), math.exp(-8.0)):
            fc = factorization_check(psi, nu, a, a)
            one_sided = one_sided and fc.lhs <= fc.rhs * (1.0 + 1e-9)
    holds_small = factorization_check(
        power(1.0), power(1.0), math.exp(-4.0), math.exp(-4.0)
    ).holds
    fails_large = not factorization_check(
        power(1.0), power(1.0), math.exp(-1.0), math.exp(-1.0)
    ).holds
    ok = worst_route < 1e-6 and holds_small and fails_large and one_sided
    criterion(
        7, ok,
        f"uniform sup routes agree to {worst_route:.1e} (tol 1e-6); "
        f"factorization holds at e^-4 ({holds_small}), fails at e^-1 "
        f"({fails_large}), one-sided inequality everywhere ({one_sided})",
    )


def test_criterion_8_identical_power_constant(criterion):
    closed = example_power_pair(1.0, 1.0, math.exp(-2.0)).value
    numeric = gls_identical_bound(power(1.0), math.exp(-2.0), 1.0, 1.0).value
    err = abs(closed - numeric) / closed
    ok = abs(closed - 48.0) < 1e-9 and err < 1e-6
    criterion(
        8, ok,
        f"identical power pair at alpha=e^-2: closed form {closed:.9f} (=48), "
        f"numeric rel err {err:.1e} (tol 1e-6)",
    )


def test_criterion_9_gaussian_tail_and_fenchel_young(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    samples = rng.standard_normal(1_000_000)
    p_grid = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 24.0]
    table = moments_from_samples(samples, p_grid, seed=2026)
    psi = natural_from_moments(table)
    norm = gls_norm(table, psi).value  # = 1 by construction of the natural psi
    ys = np.linspace(math.e * norm, 6.0, 50)
    dominated = True
    for y in ys:
        if empirical_tail(samples, float(y)) > tail_bound(psi, norm, float(y)):
            dominated = False
            break
    fy_ok = True
    for p in np.linspace(1.0, 24.0, 100):
        vp = v_of(psi, float(p))
        for x in np.linspace(-1.0, 3.0, 100):
            vs = conjugate(psi, float(x))
            if vp + vs < p * x - 1e-8 * max(1.0, abs(p * x)):
                fy_ok = False
                break
        if not fy_ok:
            break
    elapsed = time.perf_counter() - t0
    ok = dominated and fy_ok
    criterion(
        9, ok,
        f"gaussian tails: empirical never exceeds the bound on 50 levels "
        f"({dominated}); Fenchel-Young holds on the 100x100 grid ({fy_ok}), "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_10_clt_diagnostics(criterion):
    c = 1.0 / math.sqrt(2.0)
    ma1 = MDependentModel((c, c))
    ma_ok = True
    worst_z = 0.0
    for est in sigma_n_estimate(ma1, [100, 1000, 10_000], replications=2000, seed=10):
        z = abs(est.sigma_n - ma1.exact_sigma_n(est.n)) / est.se
        worst_z = max(worst_z, z)
        ma_ok = ma_ok and z <= 3.0
    q = 0.25
    chain = FiniteMarkovModel(
        np.array([[1 - q, q], [q, 1 - q]]), np.array([1.0, -1.0])
    )
    profile = markov_mixing_profile(chain, K=10_000)
    rep = summability_report(y_sequence(profile), K=10_000)
    markov_ok = rep.tail_ratio < 1e-3 and rep.verdict == "summable_evidence"
    ok = ma_ok and markov_ok
    criterion(
        10, ok,
        f"clt diagnostics: MA(1) variance within 3 SE (worst {worst_z:.2f} SE); "
        f"markov y-partial sums stabilized (tail ratio {rep.tail_ratio:.1e} "
        f"< 1e-3, verdict {rep.verdict})",
    )
