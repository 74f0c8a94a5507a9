"""The benchmark's own output checks, run on a few ops of every workload.

Each workload builds its `tiny` pool from seeds 101 and 102 and runs `op`
and then `check` on the first 8 items; any failed check fails the test.
During the ops no sup may call golden section: every sup refines by Newton
or by zoom.  The workloads module is loaded from its file, read-only.
"""

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


def _golden_calls(monkeypatch):
    """The list of golden_max calls, by their arguments."""
    calls = []
    plain = _optimize.golden_max

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return plain(*args, **kwargs)

    monkeypatch.setattr(_optimize, "golden_max", counted)
    return calls


@pytest.mark.parametrize("name", _NAMES)
def test_workload_ops_pass_their_checks(workloads, monkeypatch, name):
    calls = _golden_calls(monkeypatch)
    for seed in (101, 102):
        wl = workloads.WORKLOADS[name](tiny=True)
        for item in wl.build(np.random.default_rng((seed, wl.tag)))[:8]:
            verdict = wl.check(item, wl.op(item))
            assert verdict.failures == [], f"seed {seed}: {verdict.failures}"
    assert calls == []
