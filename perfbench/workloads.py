"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every workload builds its whole input pool from the seed before timing.  Ops
call glscov only through attributes of the `glscov` package or its modules,
looked up at call time, so the tracer's wrappers see every call.  Checks
compare outputs against `refs`, which never calls glscov, and run outside the
timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import glscov
import refs

#: relative accuracy asked of every sup (the library's own stated tolerance
#: for the power closed form and for the agreement of the two uniform routes)
SUP_TOL = 1e-6
#: relative accuracy of the extremal degenerations (Davydov, Ibragimov)
EXACT_TOL = 1e-9
#: standard errors allowed between a Monte Carlo variance and its exact value
SIGMA_SE = 7.0

P_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)


@dataclass
class Verdict:
    """Outcome of checking one op: failed checks, sup accuracy, counters."""

    failures: list = field(default_factory=list)
    deficit: float = 0.0
    counters: dict = field(default_factory=dict)

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)

    def sup(self, log_got, log_ref, what, tol=SUP_TOL, loose_ok=False):
        """Compare a sup in log space and record its deficit 1 - got/ref.

        A sup above the reference makes its bound invalid and always fails;
        one below it fails too unless `loose_ok`, where a loose bound only
        shows in the deficit.
        """
        diff = log_got - log_ref
        if math.isinf(log_ref) or math.isnan(diff):
            self.expect(log_got == log_ref, f"{what}: got ln {log_got!r}, ref ln {log_ref!r}")
            return
        self.deficit = max(self.deficit, -math.expm1(diff))
        self.expect(diff <= tol and (loose_ok or diff >= -tol),
                    f"{what}: ln got - ln ref = {diff:.3e}")


def _close(got, ref, rel, absolute=0.0):
    return abs(got - ref) <= rel * abs(ref) + absolute


def _psi_of(spec):
    """The glscov generating function for a reference spec."""
    kind = spec[0]
    if kind == "power":
        return glscov.power(spec[1])
    if kind == "finite_support":
        return glscov.finite_support(spec[1], spec[2])
    if kind == "extremal":
        return glscov.extremal(spec[1])
    if kind == "dual":
        return glscov.dual_psi(_psi_of(spec[1]))
    if kind == "product":
        return glscov.product_zeta(_psi_of(spec[1]), _psi_of(spec[2]))
    raise ValueError(f"no direct constructor for spec {kind!r}")


# ---------------------------------------------------------------------------
# oracle_campaign


class OracleCampaign:
    """One op is one verify_campaign chunk; the campaign checks its own bounds."""

    name = "oracle_campaign"
    tag = 1

    def __init__(self, tiny=False):
        self.instances = 2 if tiny else 20
        self.pool_size = 1024
        self.trace_ops = 4 if tiny else 20

    def build(self, rng):
        seeds = rng.integers(0, 2**62, size=self.pool_size)
        return [
            glscov.CampaignConfig(
                instances=self.instances, seed=int(s), max_atoms=10, max_blocks=4
            )
            for s in seeds
        ]

    def op(self, config):
        return glscov.verify_campaign(config)

    def check(self, config, report):
        v = Verdict(counters={"finite.checks": report.checks,
                              "finite.violations": report.violations})
        v.expect(report.violations == 0, f"{report.violations} violations")
        v.expect(report.checks == 11 * config.instances,
                 f"{report.checks} checks for {config.instances} instances")
        return v

    def digest(self, config, report):
        return (report.instances, report.violations, report.checks,
                report.min_slack_ratio, report.tightest)


# ---------------------------------------------------------------------------
# sup_sweep


class SupSweep:
    """One op sweeps the 1-D sups of one generating function."""

    name = "sup_sweep"
    tag = 2
    families = ("power", "finite_support", "extremal", "tabulated", "product")

    def __init__(self, tiny=False):
        self.n_delta = 2 if tiny else 8
        self.n_y = 2 if tiny else 6
        self.pool_size = 1536
        self.trace_ops = 5 if tiny else 120

    def _draw(self, family, rng):
        """A spec of the family, with the samples behind a tabulated one."""
        if family == "power":
            return ("power", rng.uniform(0.5, 4.0)), None
        if family == "finite_support":
            return ("finite_support", rng.uniform(1.5, 6.0), rng.uniform(0.25, 2.0)), None
        if family == "extremal":
            return ("extremal", rng.uniform(1.5, 8.0)), None
        if family == "product":
            m = rng.uniform(0.5, 4.0)
            return ("product", ("power", m), ("dual", ("power", m))), None
        law = rng.integers(3)
        if law == 0:
            x = rng.standard_normal(1000)
        elif law == 1:
            x = rng.laplace(size=1000)
        else:
            x = rng.uniform(-1.0, 1.0, size=1000)
        knots = tuple((p, float(np.mean(np.abs(x) ** p) ** (1.0 / p))) for p in P_GRID)
        return ("tabulated", knots), x

    def build(self, rng):
        pool = []
        for i in range(self.pool_size):
            spec, x = self._draw(self.families[i % len(self.families)], rng)
            if x is None:
                psi = _psi_of(spec)
            else:
                psi = glscov.natural_from_moments(glscov.moments_from_samples(x, P_GRID, seed=i))
            lo, hi, frac, norm = rng.uniform((-28.0, -6.0, 0.1, 0.5), (-20.0, -4.7, 0.6, 2.0))
            deltas = np.exp(np.linspace(lo, hi, self.n_delta)).tolist()
            s = 1.0 + frac * (min(refs.support(spec), 8.0) - 1.0)
            ys = (math.e * norm * np.exp(np.linspace(0.0, 2.0, self.n_y))).tolist()
            pool.append((spec, psi, deltas, float(s), float(norm), ys))
        return pool

    def op(self, item):
        _, psi, deltas, s, norm, ys = item
        fund = [glscov.fundamental(psi, d) for d in deltas]
        trunc = [glscov.fundamental_truncated(psi, s, d) for d in deltas]
        tails = [glscov.tail_bound(psi, norm, y) for y in ys]
        return fund, trunc, tails

    def check(self, item, out):
        spec, _, deltas, s, norm, ys = item
        fund, trunc, tails = out
        v = Verdict()
        cap = glscov.P_MAX
        if spec[0] == "power":
            ref = refs.log_fundamental_power(spec[1], deltas)
        elif spec[0] == "extremal":
            ref = np.log(deltas) / spec[1]
        else:
            ref = refs.log_fundamental(spec, deltas, cap)
        for d, got, r in zip(deltas, fund, ref):
            v.sup(math.log(got.value), float(r), f"fundamental({spec[0]}, {d:.3g})")
        ref = refs.log_fundamental(spec, deltas, cap, s=s)
        for d, got, r in zip(deltas, trunc, ref):
            v.sup(math.log(got.value), float(r), f"fundamental_truncated({spec[0]}, s={s:.3g}, {d:.3g})")
        vstar = refs.conjugate(spec, np.log(np.asarray(ys) / norm), cap)
        for y, got, vs in zip(ys, tails, vstar):
            want = min(1.0, 2.0 * math.exp(-vs)) if vs < 745.0 else 0.0
            what = f"tail_bound({spec[0]}, y/norm={y / norm:.3g})"
            if want < 1e-300 or got < 1e-300:
                v.expect(want < 1e-300 and got < 1e-300, f"{what}: got {got!r}, ref {want!r}")
            elif want < 1.0:
                # the tail is 2 exp(-v*): compare the conjugate v* itself
                v.sup(math.log(2.0) - math.log(got), float(vs), what,
                      tol=SUP_TOL * max(1.0, abs(vs)))
            else:
                v.expect(got == 1.0, f"{what}: got {got!r}, ref 1")
        return v

    def digest(self, item, out):
        fund, trunc, tails = out
        return ([(r.value, r.argmax_p, r.boundary) for r in fund + trunc], tails)


# ---------------------------------------------------------------------------
# pair_bounds


def _davydov_kernel(alpha, p, q):
    return 12.0 * alpha ** (1.0 - 1.0 / p - 1.0 / q)


def _note(report, key):
    for note in report.notes:
        if note.startswith(key + "="):
            return float(note.split("=", 1)[1])
    return math.nan


class PairBounds:
    """One op evaluates every two-exponent bound on one (psi, nu, alpha, beta)."""

    name = "pair_bounds"
    tag = 3
    classes = ("power/power", "power/finite", "finite/finite", "extremal/extremal")

    def __init__(self, tiny=False):
        self.n_grid = 48 if tiny else 512
        self.pool_size = 256
        self.trace_ops = 4 if tiny else 12

    def _draw(self, cls, rng):
        def fs():
            return ("finite_support", rng.uniform(2.5, 6.0), rng.uniform(0.25, 2.0))

        if cls == "power/power":
            return ("power", rng.uniform(0.5, 4.0)), ("power", rng.uniform(0.5, 4.0))
        if cls == "power/finite":
            return ("power", rng.uniform(0.5, 4.0)), fs()
        if cls == "finite/finite":
            return fs(), fs()
        return ("extremal", rng.uniform(2.5, 8.0)), ("extremal", rng.uniform(2.5, 8.0))

    def build(self, rng):
        pool = []
        for i in range(self.pool_size):
            spec_a, spec_b = self._draw(self.classes[i % len(self.classes)], rng)
            alpha = math.exp(rng.uniform(-10.0, -1.5))
            beta = math.exp(rng.uniform(-10.0, -1.5))
            nx, ne = rng.uniform(0.5, 2.0, size=2)
            pool.append((spec_a, spec_b, _psi_of(spec_a), _psi_of(spec_b),
                         alpha, beta, float(nx), float(ne)))
        return pool

    def op(self, item):
        _, _, psi, nu, alpha, beta, nx, ne = item
        n = self.n_grid
        uni = glscov.gls_uniform_bound(psi, nu, alpha, nx, ne, n_grid=n)
        strong = glscov.gls_strong_bound(psi, nu, beta, nx, ne)
        fact = glscov.factorization_check(psi, nu, alpha, beta, n_grid=n)
        gen = glscov.generic_bound(partial(_davydov_kernel, alpha), psi, nu, "T",
                                   nx, ne, n_grid=n)
        return uni, strong, fact, gen

    def check(self, item, out):
        spec_a, spec_b, _, _, alpha, beta, nx, ne = item
        uni, strong, fact, gen = out
        v = Verdict()
        cap = glscov.P_MAX
        if spec_a[0] == "extremal":
            ra, rb = spec_a[1], spec_b[1]
            phi_aa = (1.0 / ra + 1.0 / rb) * math.log(alpha)
            phi_ab = math.log(alpha) / ra + math.log(beta) / rb
            phi_a, phi_b = math.log(alpha) / ra, math.log(beta) / rb
            phi_zeta = -(1.0 - 1.0 / rb) * math.log(beta)
            v.expect(_close(uni.value, 12.0 * alpha ** (1.0 - 1.0 / ra - 1.0 / rb) * nx * ne,
                            EXACT_TOL), f"uniform {uni.value!r} is not the Davydov bound")
            v.expect(_close(strong.value, 2.0 * beta ** (1.0 - 1.0 / rb) * nx * ne, EXACT_TOL),
                     f"strong {strong.value!r} is not the Ibragimov bound")
        else:
            phi_aa = refs.log_two_exponent_sup(spec_a, spec_b, alpha, alpha, cap)
            phi_ab = refs.log_two_exponent_sup(spec_a, spec_b, alpha, beta, cap)
            phi_a = float(refs.log_fundamental(spec_a, [alpha], cap)[0])
            phi_b = float(refs.log_fundamental(spec_b, [beta], cap)[0])
            phi_zeta = float(refs.log_fundamental(("product", spec_a, spec_b),
                                                  [1.0 / beta], cap)[0])
        v.expect(uni.feasible, "uniform bound infeasible")
        v.expect("route_mismatch" not in uni.notes, "uniform routes disagree")
        v.expect(fact.lhs <= fact.rhs * (1.0 + 1e-9),
                 f"factorization lhs {fact.lhs!r} > rhs {fact.rhs!r}")
        # the checks named for this workload are the two above plus the
        # extremal degenerations; every sup must also stay a valid lower
        # estimate, and how loose it is shows in the deficit
        for log_got, log_ref, what in (
            (math.log(12.0 * alpha * nx * ne / uni.value), phi_aa, "gls_uniform Phi"),
            (math.log(_note(uni, "phi_2d")), phi_aa, "phi_uniform (2-D route)"),
            (math.log(_note(uni, "phi_theta")), phi_aa, "phi_uniform_theta"),
            (math.log(2.0 * nx * ne / strong.value), phi_zeta, "gls_strong phi"),
            (math.log(fact.lhs), phi_ab, "factorization lhs"),
            (math.log(fact.rhs), phi_a + phi_b, "factorization rhs"),
            (math.log(12.0 * alpha * nx * ne / gen.value), phi_aa, "generic_bound T"),
        ):
            v.sup(log_got, log_ref, what, loose_ok=True)
        return v

    def digest(self, item, out):
        uni, strong, fact, gen = out
        return (uni.value, uni.notes, strong.value, strong.p, fact.lhs, fact.rhs,
                fact.holds, fact.case, gen.value, gen.p, gen.q)


# ---------------------------------------------------------------------------
# markov_profile


class MarkovProfile:
    """One op profiles one lazy finite chain and its summability sequences."""

    name = "markov_profile"
    tag = 4
    sigma_n = (16, 64)
    replications = 1000

    def __init__(self, tiny=False):
        self.lags = 16 if tiny else 64
        self.pool_size = 512
        self.trace_ops = 7 if tiny else 28

    def build(self, rng):
        pool = []
        for i in range(self.pool_size):
            n = 2 + i % 7
            if n == 2:
                q = rng.uniform(0.02, 0.45)
                transition = np.array([[1.0 - q, q], [q, 1.0 - q]])
            else:
                q = None
                lazy = rng.uniform(0.05, 0.5)
                transition = (1.0 - lazy) * np.eye(n) + lazy * rng.dirichlet(np.ones(n), size=n)
            values = rng.uniform(-1.0, 1.0, size=n)
            model = glscov.FiniteMarkovModel(transition, values)
            pool.append((model, q, int(rng.integers(0, 2**62))))
        return pool

    def op(self, item):
        model, _, seed = item
        K = self.lags
        prof = glscov.markov_mixing_profile(model, K, p_grid=P_GRID)
        y = glscov.y_sequence(prof)
        z = glscov.z_sequence(prof)
        sy = glscov.summability_report(y, K=K)
        sz = glscov.summability_report(z, K=K)
        sig = glscov.sigma_n_estimate(model, self.sigma_n,
                                      replications=self.replications, seed=seed)
        return prof, y, z, sy, sz, sig

    def check(self, item, out):
        model, q, _ = item
        prof, y, z, sy, sz, sig = out
        v = Verdict()
        a, b = prof.alpha_seq, prof.beta_seq
        v.expect(bool(np.all(a <= b * (1.0 + 1e-12) + 1e-15)), "alpha(k) > beta(k) at some lag")
        if q is not None:
            ra, rb = refs.symmetric_two_state(q, self.lags)
            for k in range(self.lags):
                v.expect(_close(a[k], ra[k], 1e-9, 1e-11), f"alpha({k + 1}) {float(a[k])!r} vs {float(ra[k])!r}")
                v.expect(_close(b[k], rb[k], 1e-9, 1e-11), f"beta({k + 1}) {float(b[k])!r} vs {float(rb[k])!r}")
        knots = refs.natural_knots(model.transition, model.values, P_GRID)
        got_knots = prof.psi_gamma.params["points"]
        v.expect(len(got_knots) == len(knots) and all(
            gp == rp and _close(gv, rv, 1e-9) for (gp, gv), (rp, rv) in zip(got_knots, knots)),
            "natural function knots differ from the stationary moments")
        spec = ("tabulated", knots)
        cap = glscov.P_MAX
        pos = a[1:] > 0
        v.expect(bool(np.all(y[~pos] == 0.0)), "y(k) nonzero where alpha(k) = 0")
        if np.any(pos):
            ref = refs.log_fundamental(spec, a[1:][pos], cap)
            got = 0.5 * (np.log(a[1:][pos]) - np.log(y[pos]))
            for k, g, r in zip(np.flatnonzero(pos) + 2, got, ref):
                v.sup(float(g), float(r), f"y({k}) phi")
        pos = b[1:] > 0
        v.expect(bool(np.all(z[~pos] == 0.0)), "z(k) nonzero where beta(k) = 0")
        if np.any(pos):
            ref = refs.log_fundamental(("product", spec, spec), 1.0 / b[1:][pos], cap)
            for k, g, r in zip(np.flatnonzero(pos) + 2, z[pos], ref):
                v.sup(float(-np.log(g)), float(r), f"z({k}) phi")
        for name, seq, rep in (("y", y, sy), ("z", z, sz)):
            v.expect(_close(rep.partial_sum, float(np.sum(seq)), 1e-12, 1e-300),
                     f"summability partial sum of {name}")
            v.expect(rep.verdict in ("summable_evidence", "divergent_evidence", "inconclusive"),
                     f"summability verdict {rep.verdict!r}")
        for est in sig:
            exact = refs.sigma_n(model.transition, model.values, est.n)
            v.expect(abs(est.sigma_n - exact) <= SIGMA_SE * est.se,
                     f"sigma_{est.n} {est.sigma_n:.4g} vs exact {exact:.4g} (se {est.se:.2g})")
        return v

    def digest(self, item, out):
        prof, y, z, sy, sz, sig = out
        return (prof.alpha_seq.tolist(), prof.beta_seq.tolist(), y.tolist(), z.tolist(),
                sy.verdict, sz.verdict, [(e.n, e.sigma_n, e.se) for e in sig])


WORKLOADS = {w.name: w for w in (OracleCampaign, SupSweep, PairBounds, MarkovProfile)}
