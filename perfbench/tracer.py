"""Spans around glscov's public functions, recorded from outside the program.

`Tracer.install` wraps each hooked function at every lookup site: the module
that defines it, the `glscov` re-export, and every `from ... import` copy in
another glscov module.  Spans live in memory as parallel arrays (name, start,
end, parent, op, size) until the run ends.  `Tracer.uninstall` puts every
original back.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

import numpy as np

#: metric prefix -> (defining module, attribute path); the layers are glscov's
#: modules (`optimize` is `_optimize`: metric names may not start with "_")
HOOKS = {
    "psi.log_eval": ("glscov.psi", "PsiFunction.log_eval"),
    "optimize.grid_golden_max": ("glscov._optimize", "grid_golden_max"),
    "optimize.golden_max": ("glscov._optimize", "golden_max"),
    "fundamental.fundamental": ("glscov.fundamental", "fundamental"),
    "fundamental.fundamental_truncated": ("glscov.fundamental", "fundamental_truncated"),
    "fundamental.truncated_sup_value": ("glscov.fundamental", "truncated_sup_value"),
    "tails.conjugate_info": ("glscov.tails", "conjugate_info"),
    "tails.tail_bound": ("glscov.tails", "tail_bound"),
    "bounds.phi_uniform": ("glscov.bounds", "phi_uniform"),
    "bounds.phi_uniform_theta": ("glscov.bounds", "phi_uniform_theta"),
    "bounds.gls_uniform_bound": ("glscov.bounds", "gls_uniform_bound"),
    "bounds.gls_strong_bound": ("glscov.bounds", "gls_strong_bound"),
    "bounds.gls_identical_bound": ("glscov.bounds", "gls_identical_bound"),
    "bounds.factorization_check": ("glscov.bounds", "factorization_check"),
    "bounds.generic_bound": ("glscov.bounds", "generic_bound"),
    "finite.verify_campaign": ("glscov.finite", "verify_campaign"),
    "finite._mixing_pair": ("glscov.finite", "_mixing_pair"),
    "finite.exact_lp": ("glscov.finite", "exact_lp"),
    "finite.gls_norm_exact": ("glscov.finite", "gls_norm_exact"),
    "clt.markov_mixing_profile": ("glscov.clt", "markov_mixing_profile"),
    "clt.y_sequence": ("glscov.clt", "y_sequence"),
    "clt.z_sequence": ("glscov.clt", "z_sequence"),
    "clt.summability_report": ("glscov.clt", "summability_report"),
    "clt.sigma_n_estimate": ("glscov.clt", "sigma_n_estimate"),
}

#: hooks whose spans record the size of one argument (positional index)
SIZED = {"psi.log_eval": 1}

#: the benchmark's own span around each op
OP = "bench.op"


def _resolve(module_name, path):
    """(owner, attribute, function) for a hook, or None when it no longer resolves."""
    owner = sys.modules.get(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    fn = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
    return (owner, attr, fn) if callable(fn) else None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [OP, *HOOKS]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.size = array("q")
        self.sites = {}  # hook -> list of "module.attribute" sites wrapped
        self.unhooked = []
        self._stack = []
        self._op_id = -1
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name_id, size=0):
        idx = len(self.name)
        self.name.append(name_id)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.size.append(size)
        self._stack.append(idx)
        return idx

    def finish(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) inside a root span for op `op_id`."""
        self._op_id = op_id
        idx = self.begin(0)
        try:
            return fn(*args)
        finally:
            self.finish(idx)

    # -- hooks ---------------------------------------------------------------

    def _wrap(self, fn, name_id, size_arg):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = int(np.size(args[size_arg])) if size_arg is not None else 0
            idx = tracer.begin(name_id, size)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(idx)

        return traced

    def install(self):
        """Wrap every hook at every glscov lookup site; record unresolved hooks."""
        self.unhooked = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "glscov" or n.startswith("glscov."))]
        for name_id, (hook, (module_name, path)) in enumerate(HOOKS.items(), start=1):
            found = _resolve(module_name, path)
            if found is None:
                self.unhooked.append(hook)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(fn, name_id, SIZED.get(hook))
            sites = [(owner, attr)]
            for mod in modules:
                sites += [(mod, a) for a, val in vars(mod).items()
                          if val is fn and (mod, a) != (owner, attr)]
            for site, a in sites:
                self._restore.append((site, a, fn))
                setattr(site, a, wrapper)
            self.sites[hook] = [f"{getattr(s, '__name__', s)}.{a}" for s, a in sites]

    def uninstall(self):
        """Put every original back, and check that none was left wrapped."""
        for site, attr, fn in reversed(self._restore):
            setattr(site, attr, fn)
        left = [f"{site}.{attr}" for site, attr, fn in self._restore
                if getattr(site, attr) is not fn]
        self._restore = []
        if left:
            raise RuntimeError(f"wrappers not restored: {left}")

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Per-span duration minus the time its child spans cover."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def _inside(self, name_id):
        """Mask of spans that have an ancestor span named `name_id`."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        inside = np.zeros(name.size, dtype=bool)
        inside[has_parent] = name[parent[has_parent]] == name_id
        while True:  # spans are nested, so this converges within the nesting depth
            grown = inside.copy()
            grown[has_parent] |= inside[parent[has_parent]]
            if np.array_equal(grown, inside):
                return inside
            inside = grown

    def metrics(self):
        """Per-layer metrics by name; None marks a hook that did not resolve."""
        name = np.frombuffer(self.name, dtype=np.int32)
        size = np.frombuffer(self.size, dtype=np.int64)
        own = self.self_times()
        out = {}
        for name_id, hook in enumerate(self.names[1:], start=1):
            mask = name == name_id
            hooked = hook not in self.unhooked
            out[f"{hook}.calls"] = int(mask.sum()) if hooked else None
            out[f"{hook}.self_s"] = float(own[mask].sum()) if hooked else None
        le = name == self.names.index("psi.log_eval")
        calls = int(le.sum())
        hooked = "psi.log_eval" not in self.unhooked
        out["psi.log_eval.points"] = int(size[le].sum()) if hooked else None
        out["psi.log_eval.scalar_frac"] = (
            float((size[le] == 1).sum() / calls) if calls else 0.0) if hooked else None
        gm = self.names.index("optimize.golden_max")
        out["optimize.golden_max.log_eval_calls"] = (
            int((le & self._inside(gm)).sum())
            if hooked and "optimize.golden_max" not in self.unhooked else None)
        return out

    def write_spans(self, path):
        """Write every span as CSV (gzip): name,start,end,parent,op,size."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op,size\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.op, self.size):
                fh.write(f"{self.names[row[0]]},{row[1]!r},{row[2]!r},{row[3]},{row[4]},{row[5]}\n")
