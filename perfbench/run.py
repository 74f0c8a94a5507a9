"""glscov benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; glscov is imported from the checkout's src/ directory.
Every workload run is a fresh worker process (closed loop, one client, one
thread) with BLAS and OpenMP pinned to one thread.  `--trace 0` prints the
end-to-end metrics of BENCHMARK.json; `--trace 1` prints the per-layer ones.
The last stdout line is the JSON result; lines before it are a readable
summary.  Results and spans also go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("oracle_campaign", "sup_sweep", "pair_bounds", "markov_profile")
#: set-up samples per untraced run; the measured run is one of them
SETUP_RUNS = 7
IMPORT_RUNS = 3
#: every run ends within this many seconds, killing a worker that overruns
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
              "op_ms_tail": "ms", "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({k: "1" for k in THREAD_VARS}, PYTHONHASHSEED="0", **extra)
    return env


def _spawn(cmd, deadline, env=None):
    """Run a child to completion; (spawn time, completed process)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env or _env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-15:])
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{tail}")
    return t0, proc


def _worker(args, deadline):
    t0, proc = _spawn([sys.executable, str(HERE / "worker.py"), *args], deadline)
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def _import_tree(stderr):
    """Parse `python -X importtime` output into (name, cumulative_s, children)."""
    pending = []  # (indent, node)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        indent = len(name) - len(name.lstrip())
        children = []
        while pending and pending[-1][0] > indent:
            children.insert(0, pending.pop()[1])
        pending.append((indent, (name.strip(), int(cum) * 1e-6, children)))
    return [node for _, node in pending]


def _family_time(nodes, family):
    """Cumulative import time of a package family, counting nested entries once."""
    total = 0.0
    for name, cum, children in nodes:
        if name == family or name.startswith(family + "."):
            total += cum
        else:
            total += _family_time(children, family)
    return total


def _import_metrics(deadline):
    """cli.import_*_s: medians over fresh `import glscov` runs."""
    code = "import glscov, sys; sys.stdout.write(glscov.__file__)"
    samples = {"numpy": [], "scipy": [], "glscov": []}
    for _ in range(IMPORT_RUNS):
        _, proc = _spawn([sys.executable, "-X", "importtime", "-c", code], deadline,
                         env=_env(PYTHONPATH=str(ROOT / "src")))
        if Path(proc.stdout).resolve().parent != ROOT / "src" / "glscov":
            raise BenchError(f"glscov imported from {proc.stdout}")
        tree = _import_tree(proc.stderr)
        for family in samples:
            samples[family].append(_family_time(tree, family))
    return {f"cli.import_{f}_s": statistics.median(v) for f, v in samples.items()}


def _common(args):
    out = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    return out + (["--tiny"] if args.tiny else [])


def run_untraced(args, deadline):
    raw, setups = [], []
    for k in range(SETUP_RUNS):
        extra = ["--setup-only"] if k < SETUP_RUNS - 1 else []
        t0, res = _worker([*_common(args), *extra], deadline)
        raw.append(res["ready"] - t0)
        setups.append(raw[-1] * res["setup_scale"])
    res["setup_s"] = statistics.median(setups)
    res["raw"]["setup_s"] = statistics.median(raw)
    metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    summary = {
        "ops_failed_frac": res["failed"] / res["attempted"],
        "sup_rel_deficit_max": res["deficit"],
        "op_ms_tail_percentile": res["tail_percentile"],
        "ops": res["attempted"],
        "kernel_ms_mean": res["kernel_ms_mean"],
        "raw": res["raw"],
    }
    return res, metrics, summary


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "sup_rel_deficit_max":
        return "frac"
    return "count"


def run_traced(args, deadline):
    layers = _import_metrics(deadline)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz"
    _, res = _worker([*_common(args), "--traced", "--spans", str(spans)], deadline)
    layers.update(res["layers"])
    layers["ops_failed_frac"] = res["failed"] / res["attempted"]
    layers["sup_rel_deficit_max"] = res["deficit"]
    metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    summary = {"trace_ops": res["trace_ops"], "unhooked": res["unhooked"],
               "spans": str(spans.relative_to(ROOT))}
    return res, metrics, summary


def run_one(args):
    """One workload run; prints the summary, returns (result object, summary)."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    res, metrics, summary = (run_traced if args.trace else run_untraced)(args, deadline)
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, **summary, "digest": res["digest"],
              "env": res["env"], "failures": res["failures"], "result": result,
              **({"sites": res["sites"]} if "sites" in res else {})}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} digest={res['digest']}")
    print(f"# env {json.dumps(res['env'])}")
    print(f"# {json.dumps(summary)}")
    for line in res["failures"][:20]:
        print(f"# FAILED {line}")
    if args.trace and summary["unhooked"]:
        print(f"# UNHOOKED {', '.join(summary['unhooked'])}")
    return result, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    target = ap.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="every workload, one table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8.0,
                    help="op time to measure, in reference seconds (see speed.py)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny ops, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        if not args.all:
            print(json.dumps(run_one(args)[0]))
            return 0
        rows = {}
        for name in WORKLOADS:
            args.workload = name
            rows[name] = run_one(args)
        _print_table(rows, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _print_table(rows, trace):
    names = list(next(iter(rows.values()))[0]["metrics"])
    if not trace:
        names += ["ops_failed_frac", "sup_rel_deficit_max"]
    print(f"{'metric':40s}" + "".join(f"{w:>18s}" for w in rows))
    for name in names:
        cells = []
        for res in rows.values():
            result, summary = res
            if name in result["metrics"]:
                value, unit = result["metrics"][name]["value"], result["metrics"][name]["unit"]
            else:
                value, unit = summary[name], "frac"
            cells.append("unhooked" if value is None else f"{value:.6g} {unit}")
        print(f"{name:40s}" + "".join(f"{c:>18s}" for c in cells))


if __name__ == "__main__":
    sys.exit(main())
