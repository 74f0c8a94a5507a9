"""The benchmark's own output checks, run on a few ops of every workload.

Each workload builds its `tiny` pool from seeds 101 and 102 and runs `op`
and then `check` on the first 8 items; any failed check fails the test.
During the ops every golden-section call must come from the nested route's
outer scan (`phi_uniform_theta`): every other sup refines by Newton or by
zoom.  The workloads module is loaded from its file, read-only.
"""

import collections
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from glscov import _optimize

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_NAMES = ("oracle_campaign", "sup_sweep", "pair_bounds", "markov_profile")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))  # for its `import refs`
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    sys.modules.pop("refs", None)  # the module keeps its own reference
    return module


def _golden_callers(monkeypatch):
    """Counts of golden_max calls by the first caller outside `_optimize`."""
    callers = collections.Counter()
    plain = _optimize.golden_max

    def counted(*args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__") == _optimize.__name__:
            frame = frame.f_back
        callers[frame.f_code.co_name] += 1
        return plain(*args, **kwargs)

    monkeypatch.setattr(_optimize, "golden_max", counted)
    return callers


@pytest.mark.parametrize("name", _NAMES)
def test_workload_ops_pass_their_checks(workloads, monkeypatch, name):
    callers = _golden_callers(monkeypatch)
    for seed in (101, 102):
        wl = workloads.WORKLOADS[name](tiny=True)
        for item in wl.build(np.random.default_rng((seed, wl.tag)))[:8]:
            verdict = wl.check(item, wl.op(item))
            assert verdict.failures == [], f"seed {seed}: {verdict.failures}"
    assert set(callers) <= {"phi_uniform_theta"}, dict(callers)
    if name == "pair_bounds":  # the only workload that runs the nested route
        assert callers["phi_uniform_theta"] > 0
