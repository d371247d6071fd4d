"""End-to-end CLI runs through main(argv): outputs, exit codes, CSV identity."""

import hashlib
import json

import numpy as np
import pytest

from ncball.cli import _write_csv, main
from ncball.freealg import Word, parse
from ncball.mattuple import MatrixTuple, to_point_dict
from ncball.ncdiff import delta_first
from ncball.opball import OperatorBall, Pencil, row_ball
from ncball.realize import Realization, bidisk_witness, realization_to_dict
from ncball.varieties import AlgebraicVariety, parabola_cubic_pair, variety_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# eval


def test_eval_commutator_at_commuting_point(capsys, tmp_path):
    x = MatrixTuple([[[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
    point = write_json(tmp_path / "point.json", to_point_dict(x))
    code, out, err = run(capsys, "eval", "--poly", "z1*z2 - z2*z1", "--point", point)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["value"] == [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


def test_eval_realization_inline_point(capsys):
    code, out, _ = run(capsys, "eval", "--realization", "ex52", "--point", "0.5,0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1
    assert abs(payload["value"][0][0][0] - 0.5) < 1e-12
    assert abs(payload["value"][0][0][1]) < 1e-15


def test_eval_writes_a_file(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "value.json"
    code, out, _ = run(capsys, "eval", "--realization", "ex52", "--point", "0,0", "--out", str(out_path))
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["value"] == [[[0.0, 0.0]]]
    # '-' is stdout, as for the CSVs of probe and blowup, and the bytes are the file's
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "eval", "--realization", "ex52", "--point", "0,0", "--out", "-")
    assert code == 0 and out == out_path.read_text()
    assert not (tmp_path / "-").exists()


def test_eval_accepts_realization_files(capsys, tmp_path):
    spec = write_json(tmp_path / "witness.json", realization_to_dict(bidisk_witness()))
    code, out, _ = run(capsys, "eval", "--realization", spec, "--point", "0.3,0.1")
    assert code == 0
    want = (2 * 0.3 * 0.1 - 0.4) / (0.3 + 0.1 - 2)
    assert abs(json.loads(out)["value"][0][0][0] - want) < 1e-12


# ---------------------------------------------------------------------------
# coeff, delta, tt-check


def test_coeff_frozen_value(capsys):
    code, out, _ = run(capsys, "coeff", "--realization", "ex52", "--word", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == "12"
    assert abs(payload["re"] + 0.25) < 1e-12
    assert abs(payload["im"]) < 1e-15


def test_coeff_empty_word_is_the_constant_term(capsys):
    code, out, _ = run(capsys, "coeff", "--realization", "ex52", "--word", "")
    assert code == 0
    assert json.loads(out)["re"] == 0.0


def test_coeff_reads_a_dash_free_word_as_one_letter_beyond_nine_variables(capsys, tmp_path):
    rng = np.random.default_rng(3)
    pencil = row_ball(12).pencil
    b, c = rng.normal(size=pencil.p), rng.normal(size=pencil.q)
    d = rng.normal(size=(pencil.q, pencil.p))
    f = Realization(pencil, 1, 0.0, b, c, 0.5 * d / np.linalg.norm(d, 2))
    spec = write_json(tmp_path / "wide.json", realization_to_dict(f))
    for text, letters in (("12", (12,)), ("1-2", (1, 2))):
        code, out, _ = run(capsys, "coeff", "--realization", spec, "--word", text)
        payload = json.loads(out)
        assert code == 0 and payload["word"] == text
        assert complex(payload["re"], payload["im"]) == f.power_series_coefficient(Word(letters, 12))


def test_coeff_rejects_a_word_that_is_not_digits(capsys):
    code, out, err = run(capsys, "coeff", "--realization", "ex52", "--word", "1x")
    assert code == 2 and out == ""
    assert "'1x'" in err and "invalid literal" not in err


def test_delta_along_the_corner_path(capsys):
    code, out, _ = run(capsys, "delta", "--realization", "ex52",
                       "--point", "0.99+0.1i,0.99-0.1i", "--direction", "e1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["re"] - 0.5) < 1e-10
    assert abs(payload["im"] - 5.0) < 1e-9
    assert abs(payload["modulus"] - abs(0.5 + 5.0j)) < 1e-9


def test_delta_takes_an_inline_complex_direction(capsys):
    base = ("delta", "--realization", "ex52", "--point", "0.3+0.1i,0.2")
    assert run(capsys, *base, "--direction", "1,0") == run(capsys, *base, "--direction", "e1")
    assert run(capsys, *base, "--direction", "0,1") == run(capsys, *base, "--direction", "e2")
    code, out, _ = run(capsys, *base, "--direction", "0.5-2i,1+i")
    assert code == 0
    payload = json.loads(out)
    want = delta_first(bidisk_witness(), (0.3 + 0.1j, 0.2), (0.5 - 2j, 1 + 1j))
    assert (payload["re"], payload["im"]) == (want.real, want.imag)
    code, out, err = run(capsys, *base, "--direction", "1,0,0")
    assert code == 2 and out == "" and "direction needs 2 components, got 3" in err


def test_delta_rejects_a_matrix_base_point(capsys, tmp_path):
    point = write_json(tmp_path / "point.json", to_point_dict(MatrixTuple.zeros(2, 2)))
    code, out, err = run(capsys, "delta", "--realization", "ex52", "--point", point, "--direction", "e1")
    assert code == 2 and out == ""
    assert "delta takes a scalar (level-1) base point" in err


def test_tt_check_passes_for_the_witness(capsys):
    code, out, _ = run(capsys, "tt-check", "--realization", "ex52",
                       "--point", "0.5,0.5", "-N", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["order"] == 2
    assert payload["defect"] <= 1e-12
    assert payload["tol"] == 1e-9


def test_tt_check_polynomial_with_tolerance_flag(capsys):
    code, out, _ = run(capsys, "tt-check", "--poly", "z1*z2 - z2*z1",
                       "--point", "0.25,0.5", "-N", "1", "--tol", "1e-12")
    assert code == 0
    assert json.loads(out)["passed"] is True


# ---------------------------------------------------------------------------
# probe


def test_probe_json_report(capsys):
    code, out, _ = run(capsys, "probe", "--realization", "ex52", "--budget", "300")
    assert code == 0
    payload = json.loads(out)
    assert payload["ball"] == "polydisk:2"
    assert payload["level"] == 1
    assert payload["seed"] == 0
    assert 0.9 <= payload["best_value"] <= 1.0 + 1e-6
    assert payload["settled"] is True
    assert payload["argmax"]["d"] == 2
    assert payload["failures"] == 0


def test_probe_csv_reruns_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "probe", "--poly", "z1", "--budget", "120",
                         "--seed", "9", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("# ncball ") and lines[0].endswith("seed=9")
    assert lines[1] == "iteration,epsilon_or_sample_id,value,boundary_distance,seed"
    assert len(lines) == 2 + 120


def test_probe_margin_override(capsys):
    code, out, _ = run(capsys, "probe", "--poly", "z1", "--budget", "60",
                       "--margin", "0.5", "--level", "2")
    assert code == 0
    assert json.loads(out)["best_value"] >= 0.5 - 1e-9


# ---------------------------------------------------------------------------
# blowup


def test_blowup_csv_frozen_moduli(capsys, tmp_path):
    path = tmp_path / "blowup.csv"
    code, _, _ = run(capsys, "blowup", "--target", "delta1:ex52",
                     "--eps", "0.1,0.01,0.001", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[1] == "eps,re,im,modulus"
    moduli = [float(line.split(",")[3]) for line in lines[2:]]
    for got, want in zip(moduli, (5.0249378105604396, 50.002499937547235, 500.00024995206007)):
        assert abs(got - want) <= 0.01 * want
    assert moduli[0] < moduli[1] < moduli[2]


def test_blowup_resolvent_target_stdout(capsys):
    code, out, _ = run(capsys, "blowup", "--target", "resolvent:ex52", "--eps", "0.1")
    assert code == 0
    lines = out.splitlines()
    # a 2x1 column has no scalar value, only a norm
    eps, re, im, modulus = lines[2].split(",")
    assert eps == "0.1" and re == "" and im == ""
    assert abs(float(modulus) - 10.049875621120878) < 1e-6


def test_blowup_of_the_bounded_witness_itself(capsys):
    code, out, _ = run(capsys, "blowup", "--realization", "ex52", "--eps", "0.1,0.01")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert float(rows[0][3]) < 1.0 and float(rows[1][3]) < float(rows[0][3])


def test_blowup_target_names_the_realization_itself(capsys):
    by_target = run(capsys, "blowup", "--target", "ex52", "--eps", "0.1,0.01")
    assert by_target[0] == 0
    assert by_target == run(capsys, "blowup", "--realization", "ex52", "--eps", "0.1,0.01")


def test_blowup_needs_an_eps_value(capsys):
    code, out, err = run(capsys, "blowup", "--target", "ex52", "--eps", ",")
    assert code == 2 and out == ""
    assert "--eps needs at least one value" in err


def test_blowup_csv_reruns_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "blowup", "--target", "delta1:ex52",
                         "--eps", "0.1,0.05", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# dichotomy, variety, reproduce


def test_dichotomy_builtin_cases(capsys):
    expected = {"half": "AllInterior", "identity": "AllInterior", "boundary": "AllBoundary"}
    for case, kind in expected.items():
        code, out, _ = run(capsys, "dichotomy", "--case", case)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == kind
        assert payload["samples"] == 60


def test_dichotomy_custom_map(capsys):
    code, out, _ = run(capsys, "dichotomy", "--map", "1.2*z1;z2",
                       "--ball", "polydisk:2", "--samples", "60")
    assert code == 0
    assert json.loads(out)["kind"] == "Mixed"


# sha256 of stdout, recorded from the sampler that built one default_rng(seed + i) per draw
DICHOTOMY_PINS = {
    "half": (["--case", "half"], "b6c247c71aeee95b0f033a1b068afd60dac564eb8ca2a128aa18e30ea0f3a393"),
    "identity": (["--case", "identity"], "b7a7afbe25e76b552a7f16ce579d4dd8fcb2259ca4e8118ee48745434faafa19"),
    "boundary": (["--case", "boundary"], "9d87ed3da0abe3391a9b1f03ded79a1984c52eb4c75164121822f0d34e5569c8"),
    "map": (
        ["--map", "1.2*z1;z2", "--ball", "polydisk:2", "--samples", "60"],
        "d3529c052ea69161e61f678abf240872650c4d56fdbc98ba31164a41ca5b16b0",
    ),
    # the norms of z1 z2 depend on every bit of the samples, whose seeds cross 2^32
    "map-across-2^32": (
        ["--map", "0.9*z1*z2;z2", "--ball", "row:2", "--samples", "200", "--seed", "4294967200"],
        "7c89bf4824faeefbd8a85a4dd69f83d65509f6941649a04af07387034b07e5ce",
    ),
}


@pytest.mark.parametrize("name", sorted(DICHOTOMY_PINS))
def test_dichotomy_stdout_keeps_its_bytes(capsys, name):
    argv, digest = DICHOTOMY_PINS[name]
    code, out, _ = run(capsys, "dichotomy", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_variety_membership_verdicts(capsys, tmp_path):
    v1 = parabola_cubic_pair()[0]
    spec = write_json(tmp_path / "parabola.json", variety_to_dict(v1))
    code, out, _ = run(capsys, "variety", "--variety", spec, "--point", "0.5,0.25")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["ambient_kind"] == "inside"
    assert payload["generator_defect"] <= 1e-15

    code, out, _ = run(capsys, "variety", "--variety", spec, "--point", "0.5,0.35")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is False
    assert abs(payload["generator_defect"] - 0.1) < 1e-12


def test_a_variety_with_no_generators(capsys, tmp_path):
    spec = write_json(tmp_path / "ball.json", {"ball": "polydisk:2", "generators": []})
    code, out, err = run(capsys, "variety", "--variety", spec, "--point", "0.1,0.2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["member"] is True and payload["generator_defect"] == 0.0


def test_csv_fields_are_the_shortest_round_trip_digits(capsys):
    row = (-0.0, 5e-324, 1e16, float("inf"), 7, "eps=1e-3", np.float64(0.5), np.float64(-1e-300))
    _write_csv(None, [f"c{i}" for i in range(len(row))], [row], seed=3)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(" seed=3")
    assert lines[2] == "-0.0,5e-324,1e+16,inf,7,eps=1e-3,0.5,-1e-300"
    assert [float(v) for v in lines[2].split(",")[:4]] == list(row[:4])


def test_variety_file_with_a_pencil_ball(capsys, tmp_path):
    # a ball with no shorthand is written as {"pencil": ...}; here
    # ||Q(x)|| = ||[x1, x1/2 + x2]||, so (0.9, 0.81) lies outside
    ball = OperatorBall(Pencil(np.array([[[1.0, 0.5]], [[0.0, 1.0]]])))
    obj = variety_to_dict(AlgebraicVariety(ball, (parse("z2 - z1*z1", 2),)))
    assert set(obj["ball"]) == {"pencil"}
    spec = write_json(tmp_path / "parabola.json", obj)
    verdicts = {"0.5,0.25": (True, "inside"), "0.5,0.35": (False, "inside"), "0.9,0.81": (False, "outside")}
    for point, (member, kind) in verdicts.items():
        code, out, _ = run(capsys, "variety", "--variety", spec, "--point", point)
        assert code == 0
        payload = json.loads(out)
        assert (payload["member"], payload["ambient_kind"]) == (member, kind)


def test_reproduce_prints_the_agreement_table(capsys):
    code, out, _ = run(capsys, "reproduce", "ex52", "--samples", "5", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# ncball 0.1.0 seed=3"
    assert len(lines) == 2 + 5 + 1
    assert lines[-1].startswith("max |difference| = ")
    assert float(lines[-1].split("=")[1]) < 1e-12


def test_reproduce_runs_are_identical(capsys):
    _, first, _ = run(capsys, "reproduce", "ex52")
    _, second, _ = run(capsys, "reproduce", "ex52")
    assert first == second


def test_reproduce_rejects_fewer_than_one_sample(capsys):
    for samples in ("0", "-2"):
        code, out, err = run(capsys, "reproduce", "ex52", "--samples", samples)
        assert code == 2 and out == ""
        assert err == f"error: --samples must be >= 1, got {samples}\n"


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("subcommand", ["tt-check", "variety"])
def test_bad_tolerances_exit_2_naming_the_flag(capsys, tmp_path, subcommand, tol):
    if subcommand == "tt-check":
        argv = ["tt-check", "--realization", "ex52", "--point", "0.5,0.5", "-N", "2"]
    else:
        spec = write_json(tmp_path / "parabola.json", variety_to_dict(parabola_cubic_pair()[0]))
        argv = ["variety", "--variety", spec, "--point", "0.5,0.25"]
    code, out, err = run(capsys, *argv, f"--tol={tol}")
    assert code == 2 and out == ""
    assert "argument --tol: must be a finite number >= 0" in err
    code, out, _ = run(capsys, *argv, "--tol=0")
    assert code == 0 and json.loads(out)["tol"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [["probe", "--realization", "ex52", "--budget", "10"], ["dichotomy", "--case", "half"], ["reproduce", "ex52"]],
    ids=["probe", "dichotomy", "reproduce"],
)
def test_negative_seeds_exit_2_naming_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2 and out == ""
    assert "argument --seed: must be an integer >= 0, got '-1'" in err
    code, out, _ = run(capsys, *argv, "--seed", "0")
    assert code == 0 and out != ""


def test_usage_errors_exit_2(capsys):
    bad = [
        ["eval", "--poly", "z1 z2", "--point", "0.1,0.2"],  # juxtaposition
        ["eval", "--poly", "z3", "--point", "0.1,0.2"],  # index out of range
        ["eval", "--realization", "nope", "--point", "0.1,0.2"],
        ["eval", "--realization", "ex52", "--point", "missing.json,"],
        ["eval", "--poly", "z1", "--realization", "ex52", "--point", "0.1,0.2"],
        ["eval", "--point", "0.1,0.2"],  # no function at all
        ["delta", "--realization", "ex52", "--point", "0.1,0.2", "--direction", "e3"],
        ["blowup", "--target", "delta1:ex52", "--eps", "0"],  # path point on the boundary
        ["blowup", "--target", "delta3:ex52", "--eps", "0.1"],
        ["blowup", "--target", "delta1:ex52", "--eps", "0.1", "--path", "other"],
        ["dichotomy", "--map", "z1;z2"],  # no ball
        ["variety", "--variety", "missing.json", "--point", "0,0"],
        ["reproduce", "ex51"],
    ]
    for argv in bad:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, f"{argv} gave {code}"
        assert captured.err != ""
    named = [
        (["eval", "--realization", "ex52", "--point", "z1,0.5"], "'z1' is not a constant"),
        (["probe", "--realization", "ex52", "--ball", "row:-1"], "ball shorthand 'row:-1' needs an integer d >= 1 after 'row:'"),
        (["probe", "--realization", "ex52", "--ball", "polydisk:x"], "ball shorthand 'polydisk:x' needs an integer d >= 1"),
        # the JSON report goes to stdout, so the trajectory CSV needs a file
        (["probe", "--realization", "ex52", "--out", "-"], "probe --out needs a file: the JSON report goes to stdout"),
    ]
    for argv, message in named:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(f"error: {message}"), argv


def test_non_finite_inputs_exit_2_naming_the_field(capsys, tmp_path):
    nan_point = to_point_dict(MatrixTuple.scalars((0.1, 0.2)))
    nan_point["entries"][1][0][0] = [float("nan"), 0.0]
    point_file = write_json(tmp_path / "nan_point.json", nan_point)
    realization = realization_to_dict(bidisk_witness())
    realization["B"][0] = [float("nan"), 0.0]
    realization_file = write_json(tmp_path / "nan_b.json", realization)
    pencil = realization_to_dict(bidisk_witness())["pencil"]
    pencil["coefficients"][0][0][0] = [float("inf"), 0.0]
    pencil_file = write_json(tmp_path / "inf_pencil.json", pencil)
    variety_file = write_json(tmp_path / "inf_variety.json", {"ball": "polydisk:2", "generators": ["1e999*z1 - z2"]})
    cases = [
        (["eval", "--realization", "ex52", "--point", point_file], "point entries"),
        (["tt-check", "--realization", "ex52", "--point", point_file, "-N", "2"], "point entries"),
        (["eval", "--realization", realization_file, "--point", "0.1,0.2"], "realization B"),
        (["probe", "--realization", "ex52", "--ball", f"pencil:{pencil_file}", "--budget", "4"], "pencil coefficients"),
        # a parsed coefficient that overflows, written or computed, is caught where the polynomial enters
        (["eval", "--poly", "1e999*z1 + z2", "--point", "0.5,0.25"], "--poly coefficient of z1"),
        (["eval", "--poly", "1e300*1e300 + z2", "--point", "0.5,0.25"], "--poly coefficient of 1"),
        (["tt-check", "--poly", "1e999*z1*z2", "--point", "0.5,0.5", "-N", "1"], "--poly coefficient of z1*z2"),
        (["probe", "--poly", "1e999*z1", "--budget", "4"], "--poly coefficient of z1"),
        (["delta", "--poly", "1e999*z1*z2", "--point", "0.5,0.5", "--direction", "e1"], "--poly coefficient of z1*z2"),
        (["dichotomy", "--map", "z2;1e999*z1", "--ball", "polydisk:2"], "--map coefficient of z1"),
        (["variety", "--variety", variety_file, "--point", "0.1,0.1"], "variety generator coefficient of z1"),
        # a direction or a path parameter is named where it enters, not as a point
        (["delta", "--realization", "ex52", "--point", "0.5,0.5", "--direction", "1e999,0"], "--direction entries"),
        (["blowup", "--target", "delta1:ex52", "--eps", "nan"], "--eps values"),
        (["blowup", "--target", "delta1:ex52", "--eps", "0.1,1e999"], "--eps values"),
    ]
    for argv, field in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, f"{argv} gave {code}"
        assert captured.err.startswith("error:") and field in captured.err
        assert "must be finite" in captured.err


def test_malformed_realization_exits_2_naming_the_field(capsys, tmp_path):
    realization = realization_to_dict(bidisk_witness())
    realization["A"] = [0.0, 0.0, 99.0]
    path = write_json(tmp_path / "bad_a.json", realization)
    code, out, err = run(capsys, "eval", "--realization", path, "--point", "0.1,0.2")
    assert code == 2 and out == ""
    assert err.startswith("error: A must be an [re, im] pair")


def test_json_header_sizes_must_be_integers(capsys, tmp_path):
    # a string used to fail inside int() without naming the field, and a float
    # or a bool used to be truncated to a size silently
    point = to_point_dict(MatrixTuple.zeros(2, 2))
    realization = realization_to_dict(bidisk_witness())
    cases = [
        ("point", "n", "two"),
        ("point", "n", 2.9),
        ("point", "d", True),
        ("realization", "m", 1.7),
        ("pencil", "q", 2.0),
    ]
    for kind, key, value in cases:
        if kind == "point":
            spec = write_json(tmp_path / "point.json", {**point, key: value})
            argv = ["eval", "--realization", "ex52", "--point", spec]
        elif kind == "realization":
            spec = write_json(tmp_path / "realization.json", {**realization, key: value})
            argv = ["eval", "--realization", spec, "--point", "0.1,0.2"]
        else:
            spec = write_json(tmp_path / "pencil.json", {**realization["pencil"], key: value})
            argv = ["probe", "--realization", "ex52", "--ball", f"pencil:{spec}", "--budget", "4"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", f"{key}={value!r} gave {code}"
        assert err.startswith(f"error: {key} must be an integer, got {value!r}"), err


def test_argparse_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["dichotomy", "--case", "third"]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_probe_at_level_zero_is_bad_input(capsys):
    code, out, err = run(capsys, "probe", "--realization", "ex52", "--level", "0", "--budget", "10")
    assert code == 2 and out == ""
    assert err == "error: level must be >= 1, got 0\n"


def test_numerical_failures_exit_1(capsys):
    code = main(["eval", "--realization", "ex52", "--point", "1,1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("numerical failure:")

    code = main(["tt-check", "--realization", "ex52", "--point", "0.1,0.1", "-N", "40"])
    captured = capsys.readouterr()
    assert code == 1
    assert "exceed the budget" in captured.err

    # a polynomial expansion is budgeted before it starts
    code = main(["eval", "--poly", "(z1+z2)^10*(z1+z2)^10", "--point", "0.1,0.1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "numerical failure: 1024 x 1024 term products exceed the budget 1000000\n"

    # finite coefficients whose modulus overflows: OverflowError is a numerical failure, not a traceback
    code = main(["delta", "--poly", "(1.7e308+1.7e308i)*z1*z2", "--point", "0.99,0.99", "--direction", "e1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("numerical failure:")


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "eval" in out and "probe" in out
