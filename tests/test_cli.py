"""Unit tests for the command line interface and the problem file format."""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import sqreparam as sq
from sqreparam import checks, cli
from sqreparam.checks import CheckResult
from sqreparam.cli import (
    emit_csv,
    main,
    parse_problem_dict,
    parse_problem_file,
)
from sqreparam.oracles import (
    make_stationary_orthant_instance,
    make_stationary_pieces_instance,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
FIXTURES = sorted(PROBLEMS.glob("*.json"))
ORTHANT2 = str(PROBLEMS / "orthant2.json")
QUARTIC1 = str(PROBLEMS / "quartic1.json")


def test_parser_defaults_come_from_the_library():
    parse = cli._build_parser().parse_args
    args = parse(["certify", ORTHANT2, "--y", "0,0"])
    assert (args.tol, args.tol_support) == (sq.DEFAULT_TOL,
                                            sq.DEFAULT_TOL_SUPPORT)
    assert parse(["strict-comp", ORTHANT2, "--x", "0,0"]).tol == sq.DEFAULT_TOL
    args = parse(["kl-fit", QUARTIC1, "--y", "0"])
    config = sq.ScatterConfig()
    assert (args.dmin, args.dmax) == (config.delta_min, config.delta_max)


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


# Each malformed file or vector exits before any report line: 2 when it
# does not parse, 3 when it parses but is not a valid problem.
MALFORMED = [
    ("f-not-object", '{"n": 1, "f": [1]}', "0", 2),
    ("g-not-object", '{"n": 1, "g": 1}', "0", 2),
    ("domain-not-object", '{"n": 1, "g": {"domain": []}}', "0", 2),
    ("top-not-object", '[1]', "0", 2),
    ("n-missing", '{"f": {}}', "0", 2),
    ("n-boolean", '{"n": true}', "0", 2),
    ("n-zero", '{"n": 0}', "0", 3),
    ("q-length", '{"n": 2, "f": {"q": [1]}}', "0,0", 3),
    ("pieces-not-list", '{"n": 1, "g": {"pieces": {}}}', "0", 2),
    ("piece-not-object", '{"n": 1, "g": {"pieces": [1]}}', "0", 2),
    ("piece-without-a", '{"n": 1, "g": {"pieces": [{"b": 0}]}}', "0", 2),
    ("a-length", '{"n": 1, "g": {"pieces": [{"a": [1, 2]}]}}', "0", 3),
    ("meta-not-object", '{"n": 1, "meta": []}', "0", 2),
    ("ragged-rows", '{"n": 2, "f": {"Q": [[1, 0], [0]]}}', "0,0", 3),
    ("nan-in-Q", '{"n": 1, "f": {"Q": [[NaN]]}}', "0", 3),
    ("y-not-numeric", '{"n": 2}', "a,b", 2),
    ("y-square-overflows", '{"n": 2}', "1e200,0", 3),
    ("A_ineq-not-rows", '{"n": 1, "g": {"domain": {"A_ineq": 5}}}', "0", 2),
]


@pytest.mark.parametrize("text, y, code", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_exits_before_any_report(tmp_path, capsys, text, y,
                                                 code):
    path = tmp_path / "problem.json"
    path.write_text(text)
    rc = main(["certify", str(path), f"--y={y}"])
    out, err = capsys.readouterr()
    assert (rc, out) == (code, "")
    assert err.startswith("parse error: " if code == 2
                          else "validation error: ")


# The exit code and stderr prefix of every package error, as the README
# lists them.
EXIT_CODES = {
    "ParseError": (2, "parse error"),
    "ValidationError": (3, "validation error"),
    "DimensionMismatch": (3, "validation error"),
    "InfeasiblePolyhedron": (3, "validation error"),
    "InvalidRange": (3, "validation error"),
    "TooLarge": (3, "validation error"),
    "UnsupportedProblemClass": (3, "validation error"),
    "SqreparamError": (4, "numerical failure"),
    "NumericalFailure": (4, "numerical failure"),
    "InsufficientSamples": (4, "numerical failure"),
    "InsufficientTrace": (4, "numerical failure"),
    "InconsistencyDetected": (5, "inconsistency detected"),
}


def test_every_public_error_has_a_documented_exit_code():
    errors = {name for name in sq.__all__
              if isinstance(getattr(sq, name), type)
              and issubclass(getattr(sq, name), sq.SqreparamError)}
    assert errors == set(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_a_raised_error_sets_the_exit_code_and_label(monkeypatch, capsys,
                                                     name):
    def failing(args):
        print("command = selftest")
        raise getattr(sq, name)("went wrong")

    monkeypatch.setattr(cli, "_cmd_selftest", failing)
    rc = main(["selftest"])
    out, err = capsys.readouterr()
    code, label = EXIT_CODES[name]
    assert (rc, out, err) == (code, "command = selftest\n",
                              f"{label}: went wrong\n")


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


def test_the_documented_problem_file_parses_and_certifies(tmp_path, capsys):
    # the example in cli's docstring, whose empty equality block takes the
    # parser's empty-matrix branch
    doc = cli.__doc__
    text = doc[doc.index("    {\n"):doc.index("\n    }\n") + 6]
    data = json.loads(text)
    assert data["g"]["domain"]["A_eq"] == []
    pf = parse_problem_dict(data)
    assert pf.meta == {"name": "demo"}
    domain = pf.problem.g.domain
    assert (domain.m_eq, domain.A_eq.shape) == (0, (0, 2))
    path = tmp_path / "demo.json"
    path.write_text(text)
    # phi = |x|^2 / 2 + x_2 + 1 on the orthant cut by x_1 + x_2 <= 2: the
    # origin is its minimizer
    assert main(["certify", str(path), "--y", "0,0"]) == 0
    out = capsys.readouterr().out
    assert "stationary_for_Phi = True" in out
    assert "stationary_for_phi = True" in out
    assert "consistent = True" in out


def test_certify_spurious_origin(capsys):
    rc = main(["certify", str(PROBLEMS / "orthant2.json"), "--y", "0,0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stationary_for_Phi = True" in out
    assert "stationary_for_phi = False" in out
    assert "consistent = True" in out


def test_certify_on_a_badly_scaled_instance(tmp_path, capsys):
    # f + g of a random instance multiplied by 1e6.  At y the lifted
    # residual is 0: a least-squares KKT solve whose default cutoff drops
    # the small singular values put it at 4.011e+05 and exited 5 with
    # "multiplier found but lifted residual is 4.011e+05".
    problem = tmp_path / "scaled.json"
    problem.write_text(json.dumps({
        "n": 1, "f": {"Q": [[645357.8216034115]], "q": [47594.84136956377],
                      "r": 0.0},
        "g": {"pieces": [{"a": [-1060316.5361666358], "b": -282034.2076585272},
                         {"a": [743304.3335042904], "b": 305673.76693952206},
                         {"a": [1950466.4451499195], "b": -155740.8776548123},
                         {"a": [1133550.9432008378], "b": -112468.0001938912}],
              "domain": {"A_ineq": [[-0.9920123944695095]],
                         "b_ineq": [-0.4077305302574764]}}}))
    rc = main(["certify", str(problem), "--y=-0.64110338036635772"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stationary_for_Phi = True" in out
    assert "consistent = True" in out


RESCALED_SPURIOUS = [
    # record certify-042 of perfbench's gen.certify_pool(101), an
    # orthant instance with f multiplied by 1e6: -grad f on the support
    # carries 2e-10 of rounding off the range of the support rows, so a
    # steepest-direction LP anchored there instead of at the multiplier
    # is unbounded
    ({"n": 5,
      "f": {"Q": [[791166.1243654465, -147945.59781780146,
                   -165024.60244186645, 422970.8172243735,
                   -125214.74701030871],
                  [-147945.59781780146, 840241.5095897557, 250378.18326380622,
                   -604786.5248945191, -312381.5802507603],
                  [-165024.60244186645, 250378.18326380622, 597646.4363560993,
                   -91453.9844575454, 17757.9361612653],
                  [422970.8172243735, -604786.5248945191, -91453.9844575454,
                   1922588.1513742486, 455812.47902587516],
                  [-125214.74701030871, -312381.5802507603, 17757.9361612653,
                   455812.47902587516, 669902.3276320444]],
            "q": [648758.442915092, -1151973.1153756715, -1066379.0074395363,
                  79991.22494086386, -465333.475140831],
            "r": 0.0},
      "g": {}},
     "--y=0,0,-1.3285511218757518,-0,0.80488540026962385"),
    # record certify-113 of gen.certify_pool(104), a pieces instance
    # with f + g multiplied by 1e6: point generators of 1e6
    # beside unit rays; without its rows scaled to unit peak the
    # steepest-direction LP stops with "phase-1 simplex reported
    # unbounded"
    ({"n": 3,
      "f": {"Q": [[-21060.72067100325, 524428.114363788, -333717.18929408025],
                  [524428.114363788, 196851.57906520294, -723075.8091212191],
                  [-333717.18929408025, -723075.8091212191,
                   -400654.6209837285]],
            "q": [124949.53501555715, -920684.0593653731, 1005641.9092041897],
            "r": 0.0},
      "g": {"pieces": [{"a": [781689.8386953939, 653149.8230414611,
                              -448348.85260052106],
                        "b": -1217466.1695646022},
                       {"a": [-1837477.2127948562, -86609.22214427203,
                              389239.4529004511],
                        "b": -61214.42594073324}],
            "domain": {"A_ineq": [[-0.7670392647443158, 0.699868347212923,
                                   0.8460251619250608],
                                  [1.334345421018729, -0.42603640280881855,
                                   -1.2836935552485402],
                                  [-2.1224404347408483, 0.1745228717182827,
                                   -0.31574670190166143],
                                  [-1.378694078403554, -0.20309189838712266,
                                   -1.2770489110236456],
                                  [-1.0637413706620054, 0.09698536807044396,
                                   -1.3325808579902994]],
                       "b_ineq": [0.5782977467456666, 1.1558805375235899,
                                  -0.8053254098326743, -0.8541112084658491,
                                  -0.3936657463797069]}}},
     "--y=-0.6822290846535134,1.0226992952136984,0"),
]


@pytest.mark.parametrize("problem, y", RESCALED_SPURIOUS,
                         ids=["orthant-1e6", "pieces-1e6"])
def test_certify_rescaled_spurious_points(tmp_path, capsys, problem, y):
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(problem))
    assert main(["certify", str(path), y]) == 0
    out = capsys.readouterr().out
    assert "negative_direction = " in out
    assert "consistent = True" in out


UNBLOCKED_DRIFT = [
    # records certify-288 of perfbench's gen.certify_pool(108) and
    # certify-088 of gen.certify_pool(140): pieces instances with f + g
    # multiplied by 1e-6.  Phase 1 of a slice LP entered a column that
    # no row and no bound blocks, on a carried reduced cost that had
    # drifted to -2.3e-10 (-1.2e-10) with no costed basic row left.
    # Priced afresh it is 0; both used to exit 4 with "phase-1 simplex
    # reported unbounded"
    ({"n": 2,
      "f": {"Q": [[-2.788636187379837e-06, 8.062743220772329e-07],
                  [8.062743220772329e-07, -6.303884453029323e-07]],
            "q": [1.7855473875489768e-06, -7.923404409143626e-07],
            "r": 0.0},
      "g": {"pieces": [{"a": [-1.7619553751508845e-09, 9.802652779137238e-07],
                        "b": 5.575031571826297e-07},
                       {"a": [2.013901280449971e-06, -1.4070686062408977e-06],
                        "b": 3.190050106684419e-07},
                       {"a": [-2.0760949493346484e-06,
                              -1.3187765251360708e-07],
                        "b": 8.889435104650457e-07}],
            "domain": {"A_ineq": [[0.11414414352363297, 1.5120650695099211],
                                  [0.37618110963626017, -1.0492527423075353],
                                  [2.120077559638027, -1.3313527280226591],
                                  [-0.031277032078603335, -1.4097282472875667]],
                       "b_ineq": [0.35063527493124524, 0.39971426411520344,
                                  2.2527054652937486, -0.0332336620334151]}}},
     "--y=1.0308045615862442,0",
     ["stationary_for_Phi = True", "stationary_for_phi = False",
      "second_order_nonneg_on_SI = False", "negative_direction = [0, 1]",
      "consistent = True"]),
    ({"n": 2,
      "f": {"Q": [[7.98598368494515e-07, -5.747565646877238e-07],
                  [-5.747565646877238e-07, -6.629822937221718e-07]],
            "q": [-4.953925760470817e-07, 7.438464311735668e-07], "r": 0.0},
      "g": {"pieces": [{"a": [2.0879144347322685e-06, 1.0149596096352181e-06],
                        "b": -7.421632830036679e-07}],
            "domain": {"A_ineq": [[-1.5123818464131251, 1.321964516054184],
                                  [-0.16256947669602284, -0.9081587265720312],
                                  [-0.5741098193629792, -0.16270583049175277],
                                  [-0.3452475276696551, 1.3719281417749392],
                                  [-0.7444420349135007, -0.3683020952382742],
                                  [1.0074221160597057, 0.5006565531011745]],
                       "b_ineq": [1.117985283789272, -0.9164737250220345,
                                  -0.48523921312907387, 1.0364345138710467,
                                  -0.7713779446837493, 1.0459056053630638]}}},
     "--y=0.76752094585327679,-0.95063304320946851",
     ["stationary_for_Phi = True", "stationary_for_phi = True",
      "second_order_nonneg_on_SI = True", "consistent = True"]),
]


@pytest.mark.parametrize("problem, y, verdicts", UNBLOCKED_DRIFT,
                         ids=["certify-288-seed108", "certify-088-seed140"])
def test_certify_reprices_an_unblocked_column(tmp_path, capsys, problem, y,
                                              verdicts):
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(problem))
    assert main(["certify", str(path), y]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line in lines for line in verdicts)


def test_certify_with_a_zero_weight_on_a_ray(tmp_path, capsys):
    # f + g of a random instance multiplied by 1e6.  y_3 = 0 gives the
    # ray -e_3 of the subdifferential a zero weight, so its column of the
    # weighted min-norm QP is zero and every KKT system with it singular;
    # least squares then returned a point outside the subdifferential,
    # lifted_residual 0.000632528947356, and certify exited 5 with "no
    # multiplier".  A 50-digit face enumeration gives 1.18e6.
    problem = tmp_path / "scaled.json"
    problem.write_text(json.dumps({
        "n": 3,
        "f": {"Q": [[1250630.1844132424, -1035310.4332857998,
                     -286707.22436148295],
                    [-1035310.4332857998, -1413951.4483976471,
                     -133375.96390757457],
                    [-286707.22436148295, -133375.96390757457,
                     1053863.628318462]],
              "q": [1055646.568071877, -1768354.201796976,
                    1010663.2829383393], "r": 0.0},
        "g": {"pieces": [{"a": [-2161674.671816112, -827634.6780704152,
                                -106100.1386374273],
                          "b": -776247.877952414},
                         {"a": [-137893.5299102923, -2532739.78391953,
                                1530551.4106148167],
                          "b": 247368.22978240895}],
              "domain": {"A_ineq": [[-0.21647807616112907, 3.321649136882631,
                                     -0.557556176768568],
                                    [-0.48568377799524337, 0.4109045677345317,
                                     0.3471875494331304],
                                    [1.6091507472853268, 0.0344401037030533,
                                     -0.6260187678219568],
                                    [0.5111842857507563, -0.9098593144380083,
                                     2.3591877917380746],
                                    [-1.9622212247511122, 0.4640611464777574,
                                     -1.0909318362958633]],
                         "b_ineq": [1.639585691006171, 0.5976628001558348,
                                    1.5863471510971374, 0.6955726464682311,
                                    -0.6869983126730663]}}}))
    rc = main(["certify", str(problem),
               "--y=-0.781951414055575,-0.73038012883101577,0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lifted_residual = 1184797.77838" in out
    assert "stationary_for_Phi = False" in out
    assert "consistent = True" in out


def test_certify_on_a_domain_pinned_by_rounded_rows(tmp_path, capsys):
    # Three domain rows pin x to one value; the lower bound they give
    # exceeds the upper one by 1.1e-16.  That is a fixed coordinate, not
    # an empty domain.
    problem = tmp_path / "pinned.json"
    problem.write_text(json.dumps({
        "n": 1, "f": {"Q": [[0.6702559541510538]], "q": [-0.21800953048856495],
                      "r": 0.0},
        "g": {"pieces": [{"a": [1.0148596830304395], "b": 0.3349530539498767},
                         {"a": [1.1644583318624149], "b": -0.2981933136433235},
                         {"a": [-1.6763719100883776],
                          "b": -0.19149572866010955}],
              "domain": {"A_ineq": [[1.486135670502081], [0.5988863835971743],
                                    [-0.1938330739189284],
                                    [-0.8982845452172993],
                                    [0.5646955578162424]],
                         "b_ineq": [1.722718195668962, 0.5873581841565544,
                                    -0.19010190487664003, -0.8809931128599776,
                                    1.2579322303553755]}}}))
    parsed = parse_problem_file(problem)
    shape = parsed.problem.g.domain.shape
    assert shape.kind == "box" and shape.lower[0] == shape.upper[0]
    rc = main(["certify", str(problem), "--y=0.99032853481344041"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stationary_for_phi = True" in out
    assert "consistent = True" in out


def test_certify_accepts_negative_vector_form(capsys):
    rc = main(["certify", str(PROBLEMS / "orthant2.json"), "--y=-1,0"])
    assert rc == 0
    assert "stationary_for_phi = True" in capsys.readouterr().out


def test_certify_outside_the_domain_skips_second_order(capsys):
    # (1, 1) squares to a point off the simplex: the first-order lines
    # are printed, the second-order check is not run
    rc = main(["certify", str(PROBLEMS / "simplex2.json"), "--y", "1,1"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[4:] == [
        "in_domain = False", "support = [0, 1]", "lifted_residual = None",
        "phi_residual = None", "min_support_abs = None",
        "degenerate_activity = False", "stationary_for_Phi = False",
        "stationary_for_phi = False",
        "second_order = skipped (y*y lies outside the domain of g)"]


def test_inconsistency_exits_five_with_its_report(monkeypatch, capsys):
    report = sq.CorrespondenceReport(True, False, True, False)

    def inconsistent(p, pt):
        raise sq.InconsistencyDetected("routes disagree", report)

    monkeypatch.setattr(cli, "correspondence_check", inconsistent)
    rc = main(["certify", ORTHANT2, "--y", "1,0"])
    out, err = capsys.readouterr()
    assert rc == 5
    assert out.endswith("stationary_for_phi = True\n")
    assert err == f"inconsistency detected: routes disagree\nreport: {report}\n"


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
    ("cone2.json", "0,0", "True", "[]", "True", "False", "False", "False",
     "True", True),
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


def _rescaled(d, factor):
    """The problem dict d with f + g multiplied by factor; the domain
    is unchanged."""
    f = d["f"]
    f["Q"] = (factor * np.asarray(f.get("Q", np.zeros((d["n"], d["n"]))))).tolist()
    f["q"] = (factor * np.asarray(f.get("q", np.zeros(d["n"])))).tolist()
    f["r"] = factor * f.get("r", 0.0)
    for piece in d["g"].get("pieces", []):
        piece["a"] = [factor * a for a in piece["a"]]
        piece["b"] = factor * piece.get("b", 0.0)
    return d


def _seeded_problem(p):
    """The file form of a seeded orthant or pieces instance: no domain
    block, since every domain is intersected with the orthant."""
    g = {"pieces": [{"a": a.tolist(), "b": float(b)}
                    for a, b in zip(p.g.pieces_A, p.g.pieces_b)]}
    return {"n": p.n, "f": {"Q": p.f.Q.tolist(), "q": p.f.q.tolist(),
                            "r": p.f.r}, "g": g if g["pieces"] else {}}


def _correspondence_runs():
    """(problem dict, --y) for the shipped problems at their documented
    points and for seeded orthant (stationary and spurious) and pieces
    instances."""
    for name, y, *_ in SHIPPED_CERTIFICATES:
        yield json.loads((PROBLEMS / name).read_text()), y
    for seed in range(0, 130, 5):
        for p, y, _ in (make_stationary_orthant_instance(seed),
                        make_stationary_orthant_instance(seed, spurious=True),
                        make_stationary_pieces_instance(seed)):
            yield _seeded_problem(p), ",".join(format(c, ".17g") for c in y)


@pytest.mark.parametrize("factor", [1.0, 1e6, 1e-6])
def test_certify_reports_obey_the_correspondence(tmp_path, capsys, factor):
    # a report that certifies (exit 0) prints lines with
    # (stationary_for_Phi and second_order_nonneg_on_SI) == stationary_for_phi;
    # the routes may still disagree beyond tolerance (exit 5)
    path = tmp_path / "problem.json"
    certified = 0
    for d, y in _correspondence_runs():
        path.write_text(json.dumps(_rescaled(d, factor)))
        rc = main(["certify", str(path), f"--y={y}"])
        out = capsys.readouterr().out
        assert rc in (0, 5), (d, y)
        if rc:
            continue
        certified += 1
        lines = dict(line.split(" = ", 1) for line in out.splitlines())
        route_one = lines["stationary_for_Phi"] == "True" and \
            lines["second_order_nonneg_on_SI"] == "True"
        assert route_one == (lines["stationary_for_phi"] == "True"), (d, y)
        assert lines["consistent"] == "True"
    assert certified >= 80


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
    # the model (not through the g_subdiff wrapper) and grad f is evaluated
    # once; on the orthant the lifted and the phi residual are closed
    # forms, so the weighted min-norm QP never runs, and the multiplier is
    # the lifted minimizer; the one LP is the steepest direction (parsing
    # reads the orthant's feasible point off its shape)
    subdiffs = _count_calls(monkeypatch, sq.g_subdiff)
    patterns = _count_calls(monkeypatch, sq.activity_pattern)
    qps = _count_calls(monkeypatch, sq.min_norm_weighted)
    lps = _count_calls(monkeypatch, sq.lp_solve)
    grads = _count_grads(monkeypatch)
    assert main(["certify", str(PROBLEMS / "orthant2.json"), "--y", "0,0"]) == 0
    assert "consistent = True" in capsys.readouterr().out
    assert (len(subdiffs), len(patterns), len(qps)) == (0, 1, 0)
    assert (len(grads), len(lps)) == (1, 1)


def test_kl_fit_projects_onto_the_orthant_in_closed_form(monkeypatch,
                                                         capsys):
    # the 2,048 perturbed points are projected by max(x, 0), not by the
    # dual projection or the active-set QP
    duals = _count_calls(monkeypatch, sq.polyhedra._dual_projection)
    qps = _count_calls(monkeypatch, sq.oracles._qp_active_set)
    assert main(["kl-fit", QUARTIC1, "--y", "0"]) == 0
    assert "alpha_hat = 0.75" in capsys.readouterr().out
    assert len(duals) == len(qps) == 0


def test_kl_fit_on_box_and_simplex_runs_no_min_norm_qp(monkeypatch, capsys,
                                                       tmp_path):
    # every residual of the scatter is a closed form on these domains
    box = tmp_path / "box2.json"
    box.write_text(json.dumps({
        "n": 2, "f": {"Q": [[1.0, 0.0], [0.0, 1.0]], "q": [-2.0, -0.5]},
        "g": {"domain": {"A_ineq": [[1.0, 0.0], [0.0, 1.0]],
                         "b_ineq": [1.0, 1.0]}}}))
    qps = _count_calls(monkeypatch, sq.min_norm_weighted)
    assert main(["kl-fit", str(box), "--y=1,0.70710678118654757"]) == 0
    assert main(["kl-fit", str(PROBLEMS / "simplex2.json"), "--y=1,0"]) == 0
    assert capsys.readouterr().out.count("alpha_hat = ") == 2
    assert len(qps) == 0


def test_strict_comp_builds_one_local_model(monkeypatch, capsys):
    # the stationarity test and the relative-interior test read one model;
    # the phi residual on the half-line is a closed form, not a QP
    patterns = _count_calls(monkeypatch, sq.activity_pattern)
    qps = _count_calls(monkeypatch, sq.min_norm_weighted)
    grads = _count_grads(monkeypatch)
    assert main(["strict-comp", str(PROBLEMS / "nnls1.json"), "--x", "1"]) == 0
    assert "strict_complementarity = True" in capsys.readouterr().out
    assert (len(patterns), len(grads), len(qps)) == (1, 1, 0)


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


@pytest.mark.parametrize("variant, flag", [("original", "--x0"),
                                           ("lifted", "--y0")])
def test_solve_without_a_start_point_is_validation_error(capsys, variant,
                                                         flag):
    rc = main(["solve", str(PROBLEMS / "nnls1.json"), "--variant", variant])
    out, err = capsys.readouterr()
    assert (rc, out) == (3, "")
    assert err == f"validation error: --variant {variant} needs {flag}\n"


def test_solve_original_stops_on_the_simplex_vertex(capsys):
    # the exact simplex projection reaches the vertex e1 and then maps it
    # to itself, so the run stops there instead of spending every step
    rc = main(["solve", str(PROBLEMS / "simplex2.json"), "--variant",
               "original", "--x0", "0.2,0.8"])
    assert rc == 0
    lines = dict(line.split(" = ", 1)
                 for line in capsys.readouterr().out.splitlines())
    assert (lines["iterates"], lines["final_gap"],
            lines["final_residual"]) == ("3", "0", "0")


@pytest.mark.parametrize("value, code", [
    ("abc", 2), ([[1], [2, 3]], 2), ({"a": 1}, 2), ([1, "x"], 2),
    ([0.0, 1.0], 3), ([-1.0], 3),
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
    ["kl-fit", QUARTIC1, "--y", "0", "--gamma", "1"],
    ["kl-fit", QUARTIC1, "--y", "0", "--strict"],
    ["kl-fit", QUARTIC1, "--y", "0", "--alpha", "2", "--strict"],
    ["kl-fit", QUARTIC1, "--y", "0", "--alpha", "0.5"],
    ["kl-fit", QUARTIC1, "--y", "0", "--alpha", "0.5", "--gamma", "0"],
    ["certify", ORTHANT2, "--y", "nan,0"],
    ["certify", ORTHANT2, "--y=-inf,0"],
    ["strict-comp", str(PROBLEMS / "nnls1.json"), "--x", "inf"],
    ["kl-fit", QUARTIC1, "--y", "nan"],
    ["solve", QUARTIC1, "--variant", "lifted", "--y0", "nan"],
    ["solve", str(PROBLEMS / "nnls1.json"), "--variant", "original",
     "--x0", "inf"],
    ["solve", QUARTIC1, "--variant", "lifted", "--y0", "0.5", "--steps", "0"],
    ["solve", str(PROBLEMS / "nnls1.json"), "--variant", "original",
     "--x0", "3", "--steps", "-3"],
])
def test_invalid_seed_radius_or_tolerance_is_validation_error(capsys, argv):
    # rejected before any report line, with no numpy warning on the way
    rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (3, "")
    assert err.startswith("validation error: ")


@pytest.mark.parametrize("argv", [
    ["kl-fit", QUARTIC1, "--y", "0"],
    ["solve", QUARTIC1, "--variant", "lifted", "--y0", "0.5", "--steps", "10"],
], ids=["kl-fit", "solve"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_exits_before_any_report(tmp_path, capsys, argv,
                                                target):
    path = tmp_path / "missing" / "x.csv" if target == "missing-directory" \
        else tmp_path
    rc = main(argv + ["--out", str(path)])
    out, err = capsys.readouterr()
    assert (rc, out) == (3, "")
    assert err == f"validation error: --out: cannot write {path}\n"
    assert not (tmp_path / "missing").exists()


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
    registry = list(checks.CHECKS)
    name, _, count = registry[1]
    registry[1] = (name, lambda seed, count: broken, count)
    monkeypatch.setattr(checks, "CHECKS", tuple(registry))
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
