import json
import math

import pytest

from glscov.cli import main

POWER1 = '{"kind":"power","m":1}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fundamental_example(capsys):
    code, out = run(capsys, "fundamental", "--psi", POWER1, "--delta", "0.1353352832")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == pytest.approx(1.0 / (2.0 * math.e), rel=1e-5)
    assert rep["argmax_p"] == pytest.approx(2.0, rel=1e-4)


def test_fundamental_delta_grid_csv(capsys):
    code, out = run(
        capsys, "fundamental", "--psi", POWER1, "--delta-grid", "1e-6,1e-2,3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,value,argmax_p"
    assert len(lines) == 4


def test_bound_davydov_trivial(capsys):
    code, out = run(
        capsys, "bound", "--theorem", "davydov", "--alpha", "0", "--p", "4",
        "--q", "4", "--norm-xi", "1", "--norm-eta", "1",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == 0.0 and rep["feasible"]


def test_bound_missing_flag_is_domain_error(capsys):
    code, out = run(capsys, "bound", "--theorem", "davydov", "--alpha", "0.1")
    assert code == 2
    assert "error" in json.loads(out)


def test_domain_error_exit_2(capsys):
    code, out = run(capsys, "fundamental", "--psi", POWER1)  # no delta at all
    assert code == 2
    assert "error" in json.loads(out)


def test_unknown_flag_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fundamental", "--psi", POWER1, "--bogus", "1"])
    assert exc.value.code == 64
    assert "usage" in capsys.readouterr().err


def test_psi_round_trip(capsys):
    code, out = run(capsys, "psi", "--psi", POWER1, "--p-grid", "1,8,4")
    assert code == 0
    rep = json.loads(out)
    assert rep["psi"] == {"kind": "power", "m": 1.0}
    ps = [row[0] for row in rep["values"]]
    vals = [row[1] for row in rep["values"]]
    assert vals == pytest.approx(ps)  # psi(p) = p


def test_determinism_byte_identical(capsys):
    argv = ["verify", "--instances", "25", "--seed", "9"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_verify_reports_clean(capsys):
    code, out = run(capsys, "verify", "--instances", "50", "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["violations"] == 0
    assert rep["instances"] == 50


def test_tail_csv(capsys):
    code, out = run(
        capsys, "tail", "--psi", '{"kind":"power","m":2}', "--norm", "1.0",
        "--y-grid", "e,6,5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y,bound"
    assert len(lines) == 6
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == pytest.approx(math.e)


def test_factorization_csv(capsys):
    code, out = run(
        capsys, "factorization", "--psi", POWER1, "--nu", POWER1,
        "--alpha-grid", "0.018,0.018,1", "--beta-grid", "0.018,0.018,1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,beta,lhs,rhs,holds"
    assert lines[1].endswith(",true")


def test_sharpness(capsys):
    code, out = run(capsys, "sharpness", "--p", "4", "--q", "4", "--budget", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["ratio"] >= 2.0 - 1e-12
    assert rep["witness"]["source"] == "rademacher"


def test_clt_markov_report(capsys):
    model = '{"kind":"finite_markov","transition":[[0.7,0.3],[0.3,0.7]],"values":[1,-1]}'
    code, out = run(
        capsys, "clt", "--model", model, "--K", "32", "--n-grid", "50",
        "--reps", "100", "--seed", "7",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"]["y"] == "summable_evidence"
    assert len(rep["sigma_table"]) == 1


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run(
        capsys, "fundamental", "--psi", POWER1, "--delta", "0.01",
        "--out", str(target),
    )
    assert code == 0
    rep = json.loads(target.read_text())
    assert rep["value"] > 0


POWER2 = '{"kind":"power","m":2}'
FINITE4 = '{"kind":"finite_support","b":4,"beta":1}'

#: theorem -> the flags it requires, with working values
THEOREM_FLAGS = {
    "davydov": {"alpha": "0.1", "p": "4", "q": "4"},
    "ibragimov": {"beta": "0.1", "p": "2"},
    "holder": {},
    "gls-strong": {"psi": POWER1, "nu": POWER2, "beta": "0.1"},
    "gls-uniform": {"psi": POWER1, "nu": POWER2, "alpha": "0.01"},
    "gls-identical": {"psi": POWER2, "alpha": "0.01"},
    "example-5.1": {"m": "1", "n": "2", "alpha": "0.01"},
    "example-5.2": {"b1": "4", "beta1": "0.5", "b2": "4", "beta2": "0.5", "alpha": "0.01"},
    "example-5.3": {"m": "1", "b": "4", "beta-param": "0.5", "alpha": "0.01"},
    "example-5.4": {"psi": FINITE4, "q0": "2", "alpha": "0.01"},
    "generic": {"psi": POWER1, "nu": POWER2},
}


def _bound_argv(theorem, flags):
    argv = ["bound", "--theorem", theorem, "--norm-xi", "1.5", "--norm-eta", "0.5"]
    for name, value in flags.items():
        argv += [f"--{name}", value]
    return argv


@pytest.mark.parametrize(
    "theorem, dropped",
    [(t, None) for t in THEOREM_FLAGS]
    + [(t, f) for t, flags in THEOREM_FLAGS.items() for f in flags],
)
def test_bound_every_theorem_runs_and_names_a_missing_flag(capsys, theorem, dropped):
    flags = {k: v for k, v in THEOREM_FLAGS[theorem].items() if k != dropped}
    code, out = run(capsys, *_bound_argv(theorem, flags))
    rep = json.loads(out)
    if dropped is None:
        assert code == 0
        assert rep["value"] >= 0.0
    else:
        assert code == 2
        assert rep == {"error": f"--theorem {theorem} needs --{dropped}"}


#: malformed values the parse layer refuses, and a word its message must hold
_MALFORMED = [
    (("tail", "--psi", POWER1, "--norm", "1", "--y-grid", "3,6,-1"), "--y-grid"),
    (("tail", "--psi", POWER1, "--norm", "1", "--y-grid", "x,6,3"), "--y-grid"),
    (("tail", "--psi", POWER1, "--norm", "1", "--y-grid", "e,6,0"), "--y-grid"),
    (("fundamental", "--psi", POWER1, "--delta-grid", "x,1e-2,3"), "--delta-grid"),
    (("fundamental", "--psi", POWER1, "--delta-grid", "1e-6,1e-2,0"), "--delta-grid"),
    (("clt", "--model", '{"kind":"m_dependent","coeffs":[1]}', "--n-grid", "a"), "--n-grid"),
    (("psi", "--psi", "{bad"), "--psi"),
    (("psi", "--psi", '{"kind":"power"}'), "'m'"),
    (("psi", "--psi", '{"kind":"tabulated","points":[[1]]}'), "--psi"),
    (("clt", "--model", '{"kind":"m_dependent"}'), "'coeffs'"),
    (("factorization", "--psi", POWER1, "--nu", "{bad", "--alpha-grid", "1e-3,1e-2,2",
      "--beta-grid", "1e-3,1e-2,2"), "--nu"),
]


@pytest.mark.parametrize(
    "argv, named", _MALFORMED, ids=[" ".join(argv[:1] + argv[-2:]) for argv, _ in _MALFORMED]
)
def test_malformed_values_exit_2_and_name_the_flag_or_field(capsys, argv, named):
    code, out = run(capsys, *argv)
    assert code == 2
    assert named in json.loads(out)["error"]
