"""The benchmark's own tests: tracer arithmetic, hook sites, tiny smoke runs.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracer_mod  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_children():
    # op [0, 10] > A [1, 8] > (B [2, 4] > D [2.5, 3]) and C [5, 7]
    clock = FakeClock([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 8.0, 10.0])
    tr = Tracer(clock=clock)
    op = tr.begin(0)
    a = tr.begin(1)
    b = tr.begin(2)
    d = tr.begin(3)
    tr.finish(d)
    tr.finish(b)
    c = tr.begin(2)
    tr.finish(c)
    tr.finish(a)
    tr.finish(op)
    own = tr.self_times()
    assert own.tolist() == pytest.approx([10 - 7, 7 - 2 - 2, 2 - 0.5, 0.5, 2])
    assert list(tr.parent) == [-1, 0, 1, 2, 1]
    m = tr.metrics()
    assert m[f"{tr.names[2]}.calls"] == 2
    assert m[f"{tr.names[2]}.self_s"] == pytest.approx(1.5 + 2.0)


def test_hooks_cover_every_lookup_site_and_restore():
    import glscov
    import glscov.bounds
    import glscov.clt
    import glscov.fundamental

    original = glscov.fundamental
    tr = Tracer()
    tr.install()
    try:
        assert tr.unhooked == []
        sites = set(tr.sites["fundamental.fundamental"])
        assert {"glscov.fundamental", "glscov.fundamental.fundamental",
                "glscov.bounds.fundamental", "glscov.clt.fundamental"} <= sites
        assert "glscov.tails.grid_golden_max" in tr.sites["optimize.grid_golden_max"]
        assert "glscov.bounds.golden_max" in tr.sites["optimize.golden_max"]
        tr.run_op(0, glscov.fundamental, glscov.power(1.0), 1e-4)
    finally:
        tr.uninstall()
    assert glscov.fundamental is original
    assert glscov.bounds.fundamental is original
    m = tr.metrics()
    assert m["fundamental.fundamental.calls"] == 1
    assert m["optimize.grid_golden_max.calls"] == 1
    assert m["psi.log_eval.calls"] == m["optimize.golden_max.log_eval_calls"] + 1
    assert 0 < m["psi.log_eval.scalar_frac"] < 1


def test_unresolved_hook_is_reported_not_zero(monkeypatch):
    import glscov  # noqa: F401

    hooks = dict(tracer_mod.HOOKS, **{"fundamental.gone": ("glscov.fundamental", "gone")})
    monkeypatch.setattr(tracer_mod, "HOOKS", hooks)
    tr = Tracer()
    tr.install()
    tr.uninstall()
    m = tr.metrics()
    assert tr.unhooked == ["fundamental.gone"]
    assert m["fundamental.gone.calls"] is None and m["fundamental.gone.self_s"] is None


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.2",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(v["value"] is not None for v in res["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sup_sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
