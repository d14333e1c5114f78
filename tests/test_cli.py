"""Unit tests for the command line interface and the problem file format."""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import sqreparam as sq
from sqreparam import cli
from sqreparam.checks import CheckResult
from sqreparam.cli import (
    emit_csv,
    main,
    parse_problem_dict,
    parse_problem_file,
    serialize_problem,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
FIXTURES = sorted(PROBLEMS.glob("*.json"))
ORTHANT2 = str(PROBLEMS / "orthant2.json")
QUARTIC1 = str(PROBLEMS / "quartic1.json")


def test_fixture_corpus_present():
    names = {p.stem for p in FIXTURES}
    assert {"nnls1", "quartic1", "orthant2", "simplex2", "pieces2"} <= names


def test_fixtures_parse():
    for path in FIXTURES:
        pf = parse_problem_file(path)
        assert pf.problem.n >= 1
        if "known_minimizer" in pf.meta:
            x = np.asarray(pf.meta["known_minimizer"], dtype=float)
            assert sq.phi_residual(pf.problem, x) <= 1e-8


def test_serialize_parse_round_trip():
    for path in FIXTURES:
        pf = parse_problem_file(path)
        data = serialize_problem(pf)
        pf2 = parse_problem_dict(json.loads(json.dumps(data)))
        assert np.array_equal(pf2.problem.f.Q, pf.problem.f.Q)
        assert np.array_equal(pf2.problem.f.q, pf.problem.f.q)
        assert pf2.problem.f.r == pf.problem.f.r
        assert pf2.problem.g.n_pieces == pf.problem.g.n_pieces
        assert np.array_equal(pf2.problem.g.domain.A_ineq,
                              pf.problem.g.domain.A_ineq)
        assert pf2.meta == pf.meta


def test_parse_rejects_unknown_keys():
    good = {"n": 1, "f": {"Q": [[1.0]], "q": [0.0], "r": 0.0}, "g": {}}
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(sq.ParseError):
        parse_problem_dict(bad)
    bad = {"n": 1, "f": {"Q": [[1.0]], "q": [0.0], "r": 0.0, "s": 1}, "g": {}}
    with pytest.raises(sq.ParseError):
        parse_problem_dict(bad)


def test_parse_rejects_bool_and_string_numbers():
    with pytest.raises(sq.ParseError):
        parse_problem_dict({"n": 1, "f": {"Q": [[True]], "q": [0.0], "r": 0.0},
                            "g": {}})
    with pytest.raises(sq.ParseError):
        parse_problem_dict({"n": 1, "f": {"Q": [["1"]], "q": [0.0], "r": 0.0},
                            "g": {}})


def test_parse_rejects_bad_shapes():
    with pytest.raises(sq.ValidationError):
        parse_problem_dict({"n": 2, "f": {"Q": [[1.0]], "q": [0.0, 0.0],
                                          "r": 0.0}, "g": {}})


def test_parse_rejects_empty_domain():
    data = {"n": 1, "f": {"Q": [[1.0]], "q": [0.0], "r": 0.0},
            "g": {"domain": {"A_ineq": [[1.0]], "b_ineq": [-1.0]}}}
    with pytest.raises(sq.ValidationError):
        parse_problem_dict(data)


def test_main_missing_file_is_parse_error(capsys):
    assert main(["certify", "no_such_file.json", "--y", "1"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_main_malformed_json_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["certify", str(bad), "--y", "1"]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err


def test_main_wrong_vector_length_is_validation_error(capsys):
    rc = main(["certify", str(PROBLEMS / "orthant2.json"), "--y", "1"])
    assert rc == 3
    assert "validation error" in capsys.readouterr().err


def test_main_bad_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--bogus"])
    assert exc.value.code == 2


def test_certify_stationary_fixture(capsys):
    rc = main(["certify", str(PROBLEMS / "nnls1.json"), "--y", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stationary_for_Phi = True" in out
    assert "stationary_for_phi = True" in out
    assert "consistent = True" in out
    assert "lifted_residual = 0" in out


def test_certify_spurious_origin(capsys):
    rc = main(["certify", str(PROBLEMS / "orthant2.json"), "--y", "0,0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stationary_for_Phi = True" in out
    assert "stationary_for_phi = False" in out
    assert "consistent = True" in out


def test_certify_accepts_negative_vector_form(capsys):
    rc = main(["certify", str(PROBLEMS / "orthant2.json"), "--y=-1,0"])
    assert rc == 0
    assert "stationary_for_phi = True" in capsys.readouterr().out


# The shipped problems at their documented points, with every verdict
# line of the certificate: in_domain, support, stationary_for_Phi,
# stationary_for_phi, degenerate_activity, second_order_nonneg_on_SI,
# consistent, and whether a negative direction is printed.
SHIPPED_CERTIFICATES = [
    ("nnls1.json", "1", "True", "[0]", "True", "True", "False", "True",
     "True", False),
    ("orthant2.json", "0,0", "True", "[]", "True", "False", "False", "False",
     "True", True),
    ("orthant2.json", "1,0", "True", "[0]", "True", "True", "False", "True",
     "True", False),
    ("quartic1.json", "0", "True", "[]", "True", "True", "False", "True",
     "True", False),
    ("simplex2.json", "1,0", "True", "[0]", "True", "True", "False", "True",
     "True", False),
    ("pieces2.json", "0.7071067811865476,0.7071067811865476", "True",
     "[0, 1]", "True", "True", "False", "True", "True", False),
]


@pytest.mark.parametrize("name, y, in_domain, support, Phi, phi, degenerate, "
                         "second_order, consistent, negative",
                         SHIPPED_CERTIFICATES)
def test_certify_shipped_points(capsys, name, y, in_domain, support, Phi, phi,
                                degenerate, second_order, consistent,
                                negative):
    assert main(["certify", str(PROBLEMS / name), f"--y={y}"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(" = ", 1) for line in out.splitlines())
    assert lines["in_domain"] == in_domain
    assert lines["support"] == support
    assert lines["stationary_for_Phi"] == Phi
    assert lines["stationary_for_phi"] == phi
    assert lines["degenerate_activity"] == degenerate
    assert lines["second_order_nonneg_on_SI"] == second_order
    assert lines["consistent"] == consistent
    assert ("negative_direction" in lines) is negative


def _count_calls(monkeypatch, func):
    """Count the calls of func made through any sqreparam module."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "sqreparam" or name.startswith("sqreparam."):
            for attr, value in list(vars(mod).items()):
                if value is func:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _count_grads(monkeypatch):
    """Count the calls of SmoothQuadratic.grad."""
    calls = []
    grad = sq.SmoothQuadratic.grad

    def counted(self, x):
        calls.append(x)
        return grad(self, x)

    monkeypatch.setattr(sq.SmoothQuadratic, "grad", counted)
    return calls


def test_certify_builds_one_local_model(monkeypatch, capsys):
    # one point, one model: one activity pass builds subdiff g(y*y) inside
    # the model (not through the g_subdiff wrapper), grad f is evaluated
    # once, and the weighted min-norm QP runs for the lifted residual, the
    # phi residual and the membership check of the multiplier, once each
    subdiffs = _count_calls(monkeypatch, sq.g_subdiff)
    patterns = _count_calls(monkeypatch, sq.activity_pattern)
    qps = _count_calls(monkeypatch, sq.min_norm_weighted)
    lps = _count_calls(monkeypatch, sq.lp_solve)
    grads = _count_grads(monkeypatch)
    assert main(["certify", str(PROBLEMS / "orthant2.json"), "--y", "0,0"]) == 0
    assert "consistent = True" in capsys.readouterr().out
    assert (len(subdiffs), len(patterns), len(qps)) == (0, 1, 3)
    assert (len(grads), len(lps)) == (1, 11)


def test_strict_comp_builds_one_local_model(monkeypatch, capsys):
    # the stationarity test and the relative-interior test read one model
    patterns = _count_calls(monkeypatch, sq.activity_pattern)
    qps = _count_calls(monkeypatch, sq.min_norm_weighted)
    grads = _count_grads(monkeypatch)
    assert main(["strict-comp", str(PROBLEMS / "nnls1.json"), "--x", "1"]) == 0
    assert "strict_complementarity = True" in capsys.readouterr().out
    assert (len(patterns), len(grads), len(qps)) == (1, 1, 1)


def test_strict_comp_subcommand(capsys):
    rc = main(["strict-comp", str(PROBLEMS / "nnls1.json"), "--x", "1"])
    assert rc == 0
    assert "strict_complementarity = True" in capsys.readouterr().out
    rc = main(["strict-comp", str(PROBLEMS / "quartic1.json"), "--x", "0"])
    assert rc == 0
    assert "strict_complementarity = False" in capsys.readouterr().out


def test_strict_comp_tol_reaches_the_subdifferential(capsys):
    # --tol decides the domain test, the stationarity test and the
    # subdifferential alike: a point 1e-8 outside the half-line is inside
    # at 1e-6, so the run prints a verdict instead of failing in subdiff g
    quartic = str(PROBLEMS / "quartic1.json")
    rc = main(["strict-comp", quartic, "--x=-1e-8", "--tol", "1e-6"])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert "strict_complementarity = False" in out
    rc = main(["strict-comp", quartic, "--x=-1e-8"])
    assert rc == 3
    assert capsys.readouterr().err == \
        "validation error: xbar is outside the domain of g\n"


def test_kl_fit_quartic_with_csv(tmp_path, capsys):
    out_csv = tmp_path / "scatter.csv"
    rc = main(["kl-fit", str(PROBLEMS / "quartic1.json"), "--y", "0",
               "--alpha", "0.5", "--gamma", "1", "--seed", "3",
               "--out", str(out_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha_hat = 0.7" in out
    assert "verdict = True" in out
    assert "seed = 3" in out
    with out_csv.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", "gap", "residual"]
    assert len(rows) > 100
    for row in rows[1:5]:
        assert int(row[0]) == 3
        assert float(row[1]) > 0
        assert float(row[2]) >= 0


def test_kl_fit_nonstationary_center_is_validation_error(capsys):
    rc = main(["kl-fit", str(PROBLEMS / "nnls1.json"), "--y", "0.5"])
    assert rc == 3
    assert "validation error" in capsys.readouterr().err


def test_kl_fit_flat_objective_is_numerical_failure(tmp_path, capsys):
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(
        {"n": 1, "f": {"Q": [[0.0]], "q": [0.0], "r": 0.0}, "g": {}}))
    rc = main(["kl-fit", str(flat), "--y", "1"])
    assert rc == 4
    assert "numerical failure" in capsys.readouterr().err


def test_solve_trace_csv(tmp_path, capsys):
    out_csv = tmp_path / "trace.csv"
    rc = main(["solve", str(PROBLEMS / "quartic1.json"), "--variant", "lifted",
               "--y0", "0.5", "--steps", "2000", "--out", str(out_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rate_kind = sublinear" in out
    assert "f_star = 0" in out
    with out_csv.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "gap", "residual", "step"]
    assert int(rows[1][0]) == 0
    ks = [int(r[0]) for r in rows[1:]]
    assert ks == sorted(ks)
    assert all(float(r[1]) >= 0 for r in rows[1:])


def test_solve_short_run_reports_undetermined(capsys):
    rc = main(["solve", str(PROBLEMS / "quartic1.json"), "--variant", "lifted",
               "--y0", "0.5", "--steps", "10"])
    assert rc == 0
    assert "rate_kind = undetermined" in capsys.readouterr().out


def test_solve_original_variant(capsys):
    rc = main(["solve", str(PROBLEMS / "nnls1.json"), "--variant", "original",
               "--x0", "3", "--steps", "60"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "variant = original" in out
    assert "final_gap" in out


@pytest.mark.parametrize("value, code", [
    ("abc", 2), ([[1], [2, 3]], 2), ({"a": 1}, 2), ([1, "x"], 2),
    ([0.0, 1.0], 3),
])
def test_solve_malformed_known_minimizer(tmp_path, capsys, value, code):
    data = json.loads((PROBLEMS / "quartic1.json").read_text())
    data["meta"]["known_minimizer"] = value
    path = tmp_path / "bad_meta.json"
    path.write_text(json.dumps(data))
    rc = main(["solve", str(path), "--variant", "lifted", "--y0", "0.5",
               "--steps", "10"])
    assert rc == code
    err = capsys.readouterr().err
    assert ("parse error" if code == 2 else "validation error") in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["selftest", "--seed", "-5"],
    ["kl-fit", QUARTIC1, "--y", "0", "--seed", "-1"],
    ["kl-fit", QUARTIC1, "--y", "0", "--dmax", "inf"],
    ["certify", ORTHANT2, "--y", "1,0", "--tol", "-1"],
    ["certify", ORTHANT2, "--y", "1,0", "--tol", "nan"],
    ["certify", ORTHANT2, "--y", "1,0", "--tol-support", "inf"],
    ["strict-comp", str(PROBLEMS / "nnls1.json"), "--x", "1", "--tol", "nan"],
])
def test_invalid_seed_radius_or_tolerance_is_validation_error(capsys, argv):
    # rejected before any report line, with no numpy warning on the way
    rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (3, "")
    assert err.startswith("validation error: ")


def test_zero_tolerances_are_allowed(capsys):
    rc = main(["certify", ORTHANT2, "--y", "1,0", "--tol", "0",
               "--tol-support", "0"])
    assert rc == 0
    assert "in_domain = True" in capsys.readouterr().out


def test_selftest_passes_at_another_seed(capsys):
    assert main(["selftest", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 6
    assert out.endswith("selftest: 6/6 groups passed\n")


def test_selftest_reports_a_failing_battery(monkeypatch, capsys):
    broken = CheckResult(1, ("instance 0: broken on purpose",), 0.0, "")
    checks = list(cli.CHECKS)
    name, _, count = checks[1]
    checks[1] = (name, lambda seed, count: broken, count)
    monkeypatch.setattr(cli, "CHECKS", tuple(checks))
    assert main(["selftest"]) == 5
    out = capsys.readouterr().out
    assert f"[FAIL] {name}: instance 0: broken on purpose\n" in out
    assert out.count("[PASS]") == 5
    assert out.endswith("selftest: 5/6 groups passed\n")


def test_emit_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(1, 0.1, 3.0e-17), (2, 2.0 / 3.0, 1e308)]
    emit_csv(rows, path, header=("k", "a", "b"))
    raw = path.read_bytes()
    assert b"\r" not in raw
    with path.open(newline="") as fh:
        back = list(csv.reader(fh))
    assert back[0] == ["k", "a", "b"]
    for (k, a, b), row in zip(rows, back[1:]):
        assert int(row[0]) == k
        assert float(row[1]) == a
        assert float(row[2]) == b
