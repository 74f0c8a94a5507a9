"""One benchmark process: import glscov from the checkout, build inputs, run ops.

Started by run.py in a fresh interpreter per run.  Prints one JSON object as
its last stdout line.  Modes:

  --setup-only   import and build the inputs, report when the first op could start
  (default)      closed loop with one client until --seconds of op time,
                 counted in reference seconds (see speed.py)
  --traced       the first `trace_ops` ops, each untraced and then traced
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: ops whose outputs make up the run's digest
DIGEST_OPS = 3
#: a run also stops after this many times --seconds of measured op time
RAW_CAP = 3.0


def _import_glscov():
    """glscov from the checkout's src/ (never an installed copy); puts the
    benchmark's own modules on the path too."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import glscov

    if Path(glscov.__file__).resolve().parent != src / "glscov":
        raise SystemExit(f"glscov imported from {glscov.__file__}, not from {src}")
    return glscov


class Phase:
    """Timed ops and their checked outcomes."""

    def __init__(self):
        self.latencies, self.failures, self.digest_items, self.counters = [], [], [], {}
        self.busy, self.deficit, self.failed = 0.0, 0.0, 0

    def run(self, wl, i, item, tracer=None):
        """Time one op (outside any check), then check its output."""
        t0 = time.perf_counter()
        try:
            out = tracer.run_op(i, wl.op, item) if tracer else wl.op(item)
        except Exception as exc:  # an op that raises counts as failed
            dt = time.perf_counter() - t0
            bad = [f"raised {type(exc).__name__}: {exc}"]
        else:
            dt = time.perf_counter() - t0
            verdict = wl.check(item, out)
            bad = verdict.failures
            self.deficit = max(self.deficit, verdict.deficit)
            for key, val in verdict.counters.items():
                self.counters[key] = self.counters.get(key, 0) + val
            if i < DIGEST_OPS:
                self.digest_items.append(wl.digest(item, out))
        self.failed += bool(bad)
        self.failures += [f"op {i}: {b}" for b in bad]
        self.busy += dt
        self.latencies.append(dt)

    def digest(self):
        h = hashlib.sha256()
        for item in self.digest_items:
            h.update(repr(item).encode())
        return h.hexdigest()[:16]


def _latency_metrics(latencies):
    """Throughput, median and tail latency of one run's ops."""
    lat = sorted(latencies)
    n = len(lat)
    # ten samples beyond the tail value; a run too short for that reports its maximum
    tail_i = n - 11 if n > 10 else n - 1
    return {"ops_per_s": n / sum(lat), "op_ms_p50": 1e3 * statistics.median(lat),
            "op_ms_tail": 1e3 * lat[tail_i], "tail_percentile": 100.0 * (tail_i + 1) / n}


def _environment(glscov):
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "glscov": glscov.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans to this file")
    args = ap.parse_args(argv)

    glscov = _import_glscov()
    import numpy as np
    import speed
    import workloads

    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    seed_seq = (args.seed, wl.tag)
    pool = wl.build(np.random.default_rng(seed_seq))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": speed.settled_scale()}))
        return 0

    if not args.traced:
        setup_scale = speed.settled_scale()
        # the budget is in reference seconds, so the op count (and with it the
        # percentile op_ms_tail stands at) does not follow the machine's speed
        run, kernel = Phase(), [speed.kernel_time()]
        for i, item in enumerate(pool):
            if i >= DIGEST_OPS and (run.busy * speed.scale(kernel) >= args.seconds
                                    or run.busy >= RAW_CAP * args.seconds):
                break
            run.run(wl, i, item)
            kernel.append(speed.kernel_time())
        result = {
            "ready": ready, "setup_scale": setup_scale, "attempted": len(run.latencies),
            "failed": run.failed, "failures": run.failures, "deficit": run.deficit,
            "digest": run.digest(),
            **_latency_metrics([dt * speed.scale(kernel) for dt in run.latencies]),
            "raw": _latency_metrics(run.latencies),
            "kernel_ms_mean": 1e3 * statistics.fmean(kernel),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        from tracer import Tracer

        # op i runs untraced, then its twin (same inputs, fresh objects) runs
        # traced, so a drift in machine speed hits both sides alike
        twins = wl.build(np.random.default_rng(seed_seq))
        plain, traced, tracer = Phase(), Phase(), Tracer()
        kernel = [speed.kernel_time()]
        for i in range(min(wl.trace_ops, len(pool))):
            if plain.busy >= RAW_CAP * args.seconds and i >= DIGEST_OPS:
                break
            plain.run(wl, i, pool[i])
            tracer.install()
            try:
                traced.run(wl, i, twins[i], tracer)
            finally:
                tracer.uninstall()
            kernel.append(speed.kernel_time())
        n = len(plain.latencies)
        layers = tracer.metrics()
        for key in layers:
            if key.endswith(".self_s") and layers[key] is not None:
                layers[key] *= speed.scale(kernel)
        layers["bench.trace_overhead_frac"] = traced.busy / plain.busy - 1.0
        for key in ("finite.checks", "finite.violations"):
            layers[key] = traced.counters.get(key, 0)
        if args.spans:
            tracer.write_spans(args.spans)
        result = {
            "ready": ready, "attempted": 2 * n, "failed": plain.failed + traced.failed,
            "failures": plain.failures + traced.failures,
            "deficit": max(plain.deficit, traced.deficit),
            "digest": plain.digest(), "traced_digest": traced.digest(),
            "trace_ops": n, "layers": layers, "sites": tracer.sites,
            "unhooked": tracer.unhooked,
        }
    result["env"] = _environment(glscov)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
