"""Command-line interface: every module as a subcommand with JSON/CSV output.

Reports go to stdout (or ``--out``).  Domain errors become a one-line JSON
object on stdout and exit code 2; bad flags print usage and exit 64.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, is_dataclass

import numpy as np

from . import bounds, clt, finite, tails
from .fundamental import fundamental as _fundamental
from .fundamental import fundamental_truncated as _fundamental_truncated
from .errors import DomainError
from .psi import eval_psi, psi_from_obj, psi_to_obj

EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path):
    _emit(json.dumps(_jsonable(obj)) + "\n", out_path)


@contextmanager
def _parsing(flag):
    """Raise any error in parsing the value of `flag` as a DomainError naming it."""
    try:
        yield
    except KeyError as exc:
        raise DomainError(f"{flag}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # DomainError is a ValueError
        raise DomainError(f"{flag}: {exc}") from None


def _load_json(spec):
    """The JSON object given inline or in the file at path `spec`."""
    if spec.lstrip().startswith("{"):
        return json.loads(spec)
    with open(spec) as fh:
        return json.load(fh)


def _load_psi(spec, flag="--psi"):
    with _parsing(flag):
        return psi_from_obj(_load_json(spec))


def _parse_grid(text, flag, log=False):
    """'start,stop,count' -> array; geometric spacing when log=True."""
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(f"{flag} must be 'start,stop,count'")
    with _parsing(flag):
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1:
            raise DomainError("grid count must be >= 1")
        if n == 1:
            return np.array([lo])
        return np.geomspace(lo, hi, n) if log else np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_psi(args):
    psi = _load_psi(args.psi)
    report = {"psi": psi_to_obj(psi), "b": _jsonable(psi.b), "closed_at_b": psi.closed_at_b}
    if args.p_grid:
        ps = _parse_grid(args.p_grid, "--p-grid")
        report["values"] = [[float(p), _jsonable(eval_psi(psi, float(p)))] for p in ps]
    _emit_json(report, args.out)


def _cmd_fundamental(args):
    psi = _load_psi(args.psi)
    s = args.trunc_low

    def one(delta):
        if s is not None:
            return _fundamental_truncated(psi, s, delta)
        return _fundamental(psi, delta)

    if args.delta_grid:
        deltas = _parse_grid(args.delta_grid, "--delta-grid", log=True)
        lines = ["delta,value,argmax_p"]
        for d in deltas:
            r = one(float(d))
            lines.append(f"{float(d)!r},{r.value!r},{float(r.argmax_p)!r}")
        _emit("\n".join(lines) + "\n", args.out)
        return
    if args.delta is None:
        raise DomainError("need --delta or --delta-grid")
    r = one(args.delta)
    _emit_json(
        {"value": r.value, "argmax_p": _jsonable(r.argmax_p), "delta": r.delta,
         "boundary": r.boundary, "trunc_low": r.trunc_low},
        args.out,
    )


def _cmd_tail(args):
    psi = _load_psi(args.psi)
    lo, _, rest = args.y_grid.partition(",")
    y_grid = f"{math.e * args.norm!r},{rest}" if lo.strip() == "e" else args.y_grid
    ys = _parse_grid(y_grid, "--y-grid")
    samples = np.loadtxt(args.samples, ndmin=1) if args.samples else None
    lines = ["y,bound" if samples is None else "y,bound,empirical"]
    for y in map(float, ys):
        row = f"{y!r},{float(tails.tail_bound(psi, args.norm, y))!r}"
        if samples is not None:
            row += f",{float(tails.empirical_tail(samples, y))!r}"
        lines.append(row)
    _emit("\n".join(lines) + "\n", args.out)


def _parse_domain(domain):
    """'T', 'R', 'conjugate', or a 'p_lo:p_hi,q_lo:q_hi' rectangle."""
    if ":" not in domain:
        return domain
    try:
        p_part, q_part = domain.split(",")
        return (
            tuple(float(x) for x in p_part.split(":")),
            tuple(float(x) for x in q_part.split(":")),
        )
    except ValueError:
        raise DomainError("rectangle domain must be 'p_lo:p_hi,q_lo:q_hi'")


def _generic_bound(c, domain, psi, nu, nx, ne):
    """generic_bound with the constant kernel c."""
    return bounds.generic_bound(
        lambda p, q: np.full(np.broadcast(p, q).shape, c), psi, nu, domain, nx, ne
    )


#: --theorem -> (bound function, the flags it reads, in argument order).  It
#: is called with the flag values, then the two norms; none may be missing,
#: and _FLAG_LOADERS parses the ones that are not plain numbers.
_THEOREMS = {
    "davydov": (bounds.davydov_bound, ("alpha", "p", "q")),
    "ibragimov": (bounds.ibragimov_bound, ("beta", "p")),
    "holder": (bounds.holder_bound, ()),
    "gls-strong": (bounds.gls_strong_bound, ("psi", "nu", "beta")),
    "gls-uniform": (bounds.gls_uniform_bound, ("psi", "nu", "alpha")),
    "gls-identical": (bounds.gls_identical_bound, ("psi", "alpha")),
    "example-5.1": (bounds.example_power_pair, ("m", "n", "alpha")),
    "example-5.2": (bounds.example_finite_pair, ("b1", "beta1", "b2", "beta2", "alpha")),
    "example-5.3": (bounds.example_mixed_pair, ("m", "b", "beta-param", "alpha")),
    "example-5.4": (bounds.example_combined, ("psi", "q0", "alpha")),
    "generic": (_generic_bound, ("kernel-const", "domain", "psi", "nu")),
}

_FLAG_LOADERS = {"psi": _load_psi, "nu": lambda s: _load_psi(s, "--nu"), "domain": _parse_domain}


def _cmd_bound(args):
    func, flags = _THEOREMS[args.theorem]
    values = [getattr(args, f.replace("-", "_")) for f in flags]
    missing = [f for f, v in zip(flags, values) if v is None]
    if missing:
        raise DomainError(f"--theorem {args.theorem} needs --" + ", --".join(missing))
    values = [_FLAG_LOADERS.get(f, lambda v: v)(v) for f, v in zip(flags, values)]
    _emit_json(func(*values, args.norm_xi, args.norm_eta), args.out)


def _cmd_factorization(args):
    psi, nu = _load_psi(args.psi), _load_psi(args.nu, "--nu")
    alphas = _parse_grid(args.alpha_grid, "--alpha-grid", log=True)
    betas = _parse_grid(args.beta_grid, "--beta-grid", log=True)
    lines = ["alpha,beta,lhs,rhs,holds"]
    for a in alphas:
        for b in betas:
            r = bounds.factorization_check(psi, nu, float(a), float(b))
            lines.append(
                f"{float(a)!r},{float(b)!r},{r.lhs!r},{r.rhs!r},{str(r.holds).lower()}"
            )
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_verify(args):
    config = finite.CampaignConfig(
        instances=args.instances,
        seed=args.seed,
        max_atoms=args.max_atoms,
        max_blocks=args.max_blocks,
    )
    report = finite.verify_campaign(config, collect_rows=bool(args.rows_out))
    if args.rows_out:
        lines = ["instance,alpha,beta,cov,tightest_bound,slack"]
        for r in report.rows:
            lines.append(
                f"{r['instance']},{r['alpha']!r},{r['beta']!r},{r['cov']!r},"
                f"{r['tightest_bound']},{r['slack']!r}"
            )
        with open(args.rows_out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    summary = {
        "instances": report.instances,
        "violations": report.violations,
        "violation_details": report.violation_details,
        "checks": report.checks,
        "min_slack_ratio": _jsonable(report.min_slack_ratio),
        "tightest": _jsonable(report.tightest),
    }
    _emit_json(summary, args.out)


def _load_model(spec):
    with _parsing("--model"):
        obj = _load_json(spec)
        kind = obj["kind"]
        if kind == "m_dependent":
            return clt.MDependentModel(tuple(obj["coeffs"]))
        if kind == "finite_markov":
            return clt.FiniteMarkovModel(np.array(obj["transition"]), np.array(obj["values"]))
        if kind == "user_samples":
            if "paths" in obj:
                return clt.UserSamplesModel(np.array(obj["paths"]))
            return clt.UserSamplesModel(np.loadtxt(obj["path"], delimiter=",", ndmin=2))
        raise DomainError(f"unknown sequence model kind {kind!r}")


def _cmd_clt(args):
    model = _load_model(args.model)
    report = {}
    if isinstance(model, clt.FiniteMarkovModel):
        profile = clt.markov_mixing_profile(model, args.K)
        if args.psi:
            profile = clt.CltProfile(
                profile.alpha_seq, profile.beta_seq, _load_psi(args.psi), args.K
            )
        y = clt.y_sequence(profile)
        z = clt.z_sequence(profile)
        ry = clt.summability_report(y, K=args.K)
        rz = clt.summability_report(z, K=args.K)
        report["y_partial_sum"] = ry.partial_sum
        report["z_partial_sum"] = rz.partial_sum
        report["verdicts"] = {"y": ry.verdict, "z": rz.verdict}
        report["tail_ratios"] = {"y": ry.tail_ratio, "z": rz.tail_ratio}
        report["profile_note"] = (
            "single-coordinate fields: for a Markov chain these coefficients "
            "equal the full past/future profile"
        )
    with _parsing("--n-grid"):
        ns = [int(float(x)) for x in args.n_grid.split(",")]
    est = clt.sigma_n_estimate(model, ns, replications=args.reps, seed=args.seed)
    report["sigma_table"] = [
        {"n": e.n, "mean": e.mean, "sigma_n": e.sigma_n, "se": e.se} for e in est
    ]
    _emit_json(report, args.out)


def _cmd_sharpness(args):
    res = finite.sharpness_probe(args.p, args.q, search_budget=args.budget, seed=args.seed)
    _emit_json({"ratio": res.ratio, "witness": res.witness}, args.out)


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser():
    parser = _Parser(prog="glscov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write the report to this path instead of stdout")
        return p

    p = add("psi", _cmd_psi)
    p.add_argument("--psi", required=True, help="inline JSON or a path to a JSON file")
    p.add_argument("--p-grid", help="'start,stop,count' evaluation grid")

    p = add("fundamental", _cmd_fundamental)
    p.add_argument("--psi", required=True)
    p.add_argument("--delta", type=float)
    p.add_argument("--delta-grid", help="'start,stop,count', geometrically spaced")
    p.add_argument("--trunc-low", type=float, help="restrict the sup to p >= s")

    p = add("tail", _cmd_tail)
    p.add_argument("--psi", required=True)
    p.add_argument("--norm", type=float, required=True)
    p.add_argument("--y-grid", required=True, help="'lo,hi,count'; lo='e' means e*norm")
    p.add_argument("--samples", help="file with one float per line")

    p = add("bound", _cmd_bound)
    p.add_argument("--theorem", required=True, choices=list(_THEOREMS))
    p.add_argument("--psi")
    p.add_argument("--nu")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--n", type=float)
    p.add_argument("--b1", type=float)
    p.add_argument("--beta1", type=float)
    p.add_argument("--b2", type=float)
    p.add_argument("--beta2", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--beta-param", type=float, help="beta exponent of the finite family")
    p.add_argument("--q0", type=float)
    p.add_argument("--kernel-const", type=float, default=1.0)
    p.add_argument("--domain", default="T", help="T, R, conjugate, or p_lo:p_hi,q_lo:q_hi")
    p.add_argument("--norm-xi", type=float, default=1.0)
    p.add_argument("--norm-eta", type=float, default=1.0)

    p = add("factorization", _cmd_factorization)
    p.add_argument("--psi", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--alpha-grid", required=True)
    p.add_argument("--beta-grid", required=True)

    p = add("verify", _cmd_verify)
    p.add_argument("--instances", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--max-atoms", type=int, default=10)
    p.add_argument("--max-blocks", type=int, default=4)
    p.add_argument("--rows-out", help="also write a per-instance CSV here")

    p = add("clt", _cmd_clt)
    p.add_argument("--model", required=True, help="inline JSON or a path")
    p.add_argument("--psi", help="override the natural generating function")
    p.add_argument("--K", type=int, default=10000)
    p.add_argument("--n-grid", default="100,1000,10000", help="comma-separated n values")
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=7)

    p = add("sharpness", _cmd_sharpness)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DomainError as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    except OSError as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
