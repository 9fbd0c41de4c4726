"""Command-line interface: verdicts, exit codes, output formats."""

import json
import subprocess
import sys

import pytest

from latwist.cli import main, parse_model_spec
from latwist.decompose import IsometryMatrix, matrix_to_json
from latwist.lattice import LatticeModel, form_pairing
from latwist.reduction import ReflectionWord
from latwist.classexpr import parse_class, parse_form


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


def run_json(capsys, argv):
    code, captured = run(capsys, argv + ["--output", "json"])
    return code, json.loads(captured.out)


def test_model_spec_parsing():
    assert parse_model_spec("rational:6") == LatticeModel.rational(6)
    assert parse_model_spec("ruled:h=2,n=3") == LatticeModel.ruled(2, 3)
    import argparse

    for bad in ("rational", "rational:x", "ruled:h=2", "ruled:n=1,h=2,x=3", "weird:1"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_model_spec(bad)


def test_classify_ternary_reduction(capsys):
    code, data = run_json(
        capsys, ["classify", "--model", "rational:6", "2H-E1-E2-E3-E4-E5-E6"]
    )
    assert code == 0
    assert data["knull"] is True
    assert data["normal_form"] == "H - E4 - E5 - E6"
    assert data["kind"] == "Ternary"
    assert data["word"]["length"] == 1


@pytest.mark.parametrize("text", ["2H-E1-E2-E3-E4-E5", "2H-E1-E2-E3-E4-E5-E6", "5H-2E1-2E2-E3"])
def test_classify_reduces_the_class_once(capsys, monkeypatch, text):
    import latwist.reduction as reduction

    calls = []
    inner = reduction._cremona_reduce

    def counted(xi):
        calls.append(xi)
        return inner(xi)

    monkeypatch.setattr(reduction, "_cremona_reduce", counted)
    code, data = run_json(capsys, ["classify", "--model", "rational:6", text])
    assert code == 0 and data["class"] == text.replace("-", " - ")
    assert len(calls) == 1


def test_classify_characteristic(capsys):
    code, data = run_json(capsys, ["classify", "--model", "rational:3", "H-E1-E2-E3"])
    assert code == 0
    assert data["knull"] is True and data["characteristic"] is True


def test_classify_square_one(capsys):
    code, data = run_json(capsys, ["classify", "--model", "rational:2", "H"])
    assert code == 0
    assert data["knull"] is False and data["square"] == 1


def test_classify_ruled(capsys):
    code, data = run_json(capsys, ["classify", "--model", "ruled:h=1,n=2", "E1-E2"])
    assert code == 0
    assert data["knull"] is True
    assert "normal_form" not in data


def test_lagrangian_verdicts(capsys):
    code, captured = run(
        capsys,
        ["lagrangian", "--model", "rational:2", "E1-E2", "--form", "3H-E1-E2"],
    )
    assert code == 0 and captured.out.startswith("Yes")
    code, captured = run(
        capsys,
        ["lagrangian", "--model", "rational:2", "E1-E2", "--form", "3H-E1-2E2"],
    )
    assert code == 1 and "nonzero area" in captured.out
    code, data = run_json(
        capsys,
        ["lagrangian", "--model", "ruled:h=1,n=2", "E1-E2", "--form", "2T+3F-E1-E2"],
    )
    assert code == 0 and data["yes"] is True


def test_lagrangian_bad_form_is_input_error(capsys):
    code, captured = run(
        capsys,
        ["lagrangian", "--model", "rational:2", "E1-E2", "--form", "H-3E1"],
    )
    assert code == 2
    assert "error" in captured.err


def test_reduce(capsys):
    code, data = run_json(capsys, ["reduce", "--model", "rational:5", "2H-E1-E2-E3-E4-E5"])
    assert code == 0
    assert data["kind"] == "ExceptionalEi"
    assert data["word"]["length"] >= 1


def test_decompose_identity(tmp_path, capsys):
    m = LatticeModel.rational(4)
    path = tmp_path / "id.json"
    path.write_text(json.dumps(matrix_to_json(IsometryMatrix.identity(m))))
    code, data = run_json(capsys, ["decompose", "--model", "rational:4", "--matrix", str(path)])
    assert code == 0
    assert data["word"]["length"] == 0


def test_decompose_model_mismatch(tmp_path, capsys):
    m = LatticeModel.rational(4)
    path = tmp_path / "id.json"
    path.write_text(json.dumps(matrix_to_json(IsometryMatrix.identity(m))))
    code, captured = run(capsys, ["decompose", "--model", "rational:3", "--matrix", str(path)])
    assert code == 2


def test_decompose_invalid_matrix(tmp_path, capsys):
    m = LatticeModel.rational(2)
    path = tmp_path / "flip.json"
    bad = {"model": {"type": "rational", "n": 2}, "entries": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}
    path.write_text(json.dumps(bad))
    code, data = run_json(capsys, ["decompose", "--model", "rational:2", "--matrix", str(path)])
    assert code == 1
    assert data["valid"] is False
    assert "K not preserved" in data["failures"]


def test_decompose_rejects_non_integer_model_size(tmp_path, capsys):
    identity = {1: [[1, 0], [0, 1]], 3: [[int(i == j) for j in range(4)] for i in range(4)]}
    for spec_n, bad in ((3, 3.9), (3, "3"), (1, True)):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"model": {"type": "rational", "n": bad}, "entries": identity[spec_n]}))
        code, data = run_json(capsys, ["decompose", "--model", f"rational:{spec_n}", "--matrix", str(path)])
        assert code == 2
        assert data["error"]["type"] == "input"
        assert "'n' must be an integer" in data["error"]["message"]
    path.write_text(json.dumps([{"type": "rational", "n": 3}]))
    code, data = run_json(capsys, ["decompose", "--model", "rational:3", "--matrix", str(path)])
    assert code == 2 and data["error"]["type"] == "input"


def test_decompose_reports_malformed_matrix_files(tmp_path, capsys):
    path = tmp_path / "m.json"
    cases = (
        ([[1, 0], [0, 1]], "matrix must be a JSON object"),
        ({"model": {"type": "rational", "n": 1}, "entries": "[[1, 0], [0, 1]]"}, "entries must be a list of rows"),
        ({"model": {"type": "rational", "n": 1}, "entries": [[1, 0], 3]}, "entries must be a list of rows"),
        ({"model": {"type": "rational", "n": 1}}, "entries must be a list of rows"),
        ({"entries": [[1, 0], [0, 1]]}, "model object must have a 'type' field"),
    )
    for bad, message in cases:
        path.write_text(json.dumps(bad))
        code, data = run_json(capsys, ["decompose", "--model", "rational:1", "--matrix", str(path)])
        assert code == 2
        assert data["error"] == {"type": "input", "message": message}


def test_decompose_words(tmp_path, capsys):
    m = LatticeModel.rational(4)
    gens = (parse_class("H-E1-E2-E3", m), parse_class("E1-E4", m))
    M = IsometryMatrix(m, ReflectionWord(m, gens).matrix)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(matrix_to_json(M)))
    code, data = run_json(capsys, ["decompose", "--model", "rational:4", "--matrix", str(path)])
    assert code == 0 and data["word"]["length"] >= 1

    # constrained variant along an equal-area form
    code, data = run_json(
        capsys,
        ["decompose", "--model", "rational:4", "--matrix", str(path), "--alpha", "3H-E1-E2-E3-E4"],
    )
    assert code == 0 and data["valid"] is True


def test_decompose_alpha_at_n10(tmp_path, capsys):
    # 6H-2E1-2E2-2E3-E4-...-E10 moved by the twist along H-E4-E5-E6, and
    # the images of roots of area zero; n = 10 has no complete
    # exceptional listing, and the frame comes from alpha's cone walk
    m = LatticeModel.rational(10)
    alpha = "9H-2E1-2E2-2E3-4E4-4E5-4E6-E7-E8-E9-E10"
    texts = ["2H-E1-E2-E3-E4-E5-E6", "E4-E5", "E7-E10", "E2-E3"]
    gens = tuple(parse_class(t, m) for t in texts)
    M = IsometryMatrix(m, ReflectionWord(m, gens).matrix)
    path = tmp_path / "w10.json"
    path.write_text(json.dumps(matrix_to_json(M)))
    argv = ["decompose", "--model", "rational:10", "--matrix", str(path), "--alpha", alpha]
    code, data = run_json(capsys, argv)
    assert code == 0 and data["valid"] is True
    assert data["word"]["length"] >= 1
    tau = parse_form(alpha, m)
    assert all(form_pairing(tau, parse_class(g, m)) == 0 for g in data["word"]["generators"])


def test_decompose_ruled_requires_alpha(tmp_path, capsys):
    m = LatticeModel.ruled(1, 2)
    path = tmp_path / "rid.json"
    path.write_text(json.dumps(matrix_to_json(IsometryMatrix.identity(m))))
    code, captured = run(capsys, ["decompose", "--model", "ruled:h=1,n=2", "--matrix", str(path)])
    assert code == 2
    code, data = run_json(
        capsys,
        ["decompose", "--model", "ruled:h=1,n=2", "--matrix", str(path), "--alpha", "2T+3F-E1-E2"],
    )
    assert code == 0 and data["word"]["length"] == 0


def test_enumerate_complete(capsys):
    code, data = run_json(capsys, ["enumerate", "--kind", "exceptional", "--model", "rational:3"])
    assert code == 0
    assert data["count"] == 6 and data["complete"] is True
    code, data = run_json(
        capsys,
        ["enumerate", "--kind", "exceptional", "--model", "rational:9", "--degree-bound", "1"],
    )
    assert code == 0
    assert data["count"] == 45 and data["complete"] is False and data["degree_bound"] == 1


def test_enumerate_bounded(capsys):
    code, data = run_json(
        capsys,
        ["enumerate", "--model", "rational:3", "--kind", "knull", "--bound", "1"],
    )
    assert code == 0 and data["count"] == 8 and data["complete"] is False


def test_enumerate_needs_bound(capsys):
    code, captured = run(capsys, ["enumerate", "--model", "rational:3", "--kind", "knull"])
    assert code == 2
    code, captured = run(
        capsys, ["enumerate", "--model", "rational:3", "--kind", "knull", "--bound", "9"]
    )
    assert code == 2 and "safety limit" in captured.err


def test_cone_verdicts(capsys):
    code, captured = run(capsys, ["cone", "--model", "rational:1", "--form", "3H-E1"])
    assert code == 0 and captured.out.startswith("Yes")
    code, data = run_json(capsys, ["cone", "--model", "rational:1", "--form", "H"])
    assert code == 1 and data["witness"] == "E1"
    code, data = run_json(
        capsys,
        ["cone", "--model", "rational:9", "--form", "4H-E1-E2-E3-E4-E5-E6-E7-E8-E9"],
    )
    assert code == 0 and data == {"verdict": "yes"}
    code, data = run_json(capsys, ["cone", "--model", "rational:1", "--form=-2H-E1"])
    assert code == 1 and data["witness"] is None and data["note"] == "outside the forward cone"
    # the cone decision takes no degree bound
    with pytest.raises(SystemExit) as exc:
        main(["cone", "--model", "rational:9", "--form", "4H-E1", "--degree-bound", "1"])
    assert exc.value.code == 2


def test_crosscheck_clean(capsys):
    code, data = run_json(
        capsys,
        ["crosscheck", "--model", "rational:3", "--kind", "exceptional", "--bound", "2"],
    )
    assert code == 0
    assert data["summary"]["checked"] == 6
    assert data["summary"]["disagreements"] == []


def test_crosscheck_sampled_seed_echo(capsys):
    code, data = run_json(
        capsys,
        ["crosscheck", "--model", "rational:6", "--kind", "knull", "--bound", "3",
         "--sample", "5", "--seed", "11"],
    )
    assert code == 0
    assert data["summary"]["checked"] == 5
    assert data["seed"] == 11 and data["sample"] == 5


def test_parse_error_exit_code(capsys):
    code, captured = run(capsys, ["classify", "--model", "rational:2", "E7"])
    assert code == 2 and "error" in captured.err
    code, data = run_json(capsys, ["classify", "--model", "rational:2", "E7"])
    assert code == 2 and data["error"]["type"] == "parse"


def test_bad_model_spec_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--model", "bogus:3", "E1"])
    assert exc.value.code == 2


def test_usage_errors_are_json_under_json_output(capsys):
    # a bad model spec, before and after "--"
    code, data = run_json(capsys, ["classify", "--model", "rational:x"])
    assert code == 2
    assert data["error"]["type"] == "usage" and "rational:x" in data["error"]["message"]
    code, captured = run(capsys, ["classify", "--model", "rational:x", "--output", "json",
                                  "--", "E1"])
    assert code == 2 and json.loads(captured.out)["error"]["type"] == "usage"
    assert captured.err == ""


def test_missing_argument_is_json_under_json_output(capsys):
    code, captured = run(capsys, ["classify", "--model=rational:2", "--output=json"])
    assert code == 2 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "usage" and "CLASS" in error["message"]
    code, data = run_json(capsys, ["cone", "--model", "rational:2"])
    assert code == 2 and "--form" in data["error"]["message"]


def test_usage_errors_follow_argparse_reading_of_output(capsys):
    # an abbreviated option, as argparse accepts it
    code, captured = run(capsys, ["classify", "--model", "rational:x", "--out", "json"])
    assert code == 2 and captured.err == ""
    assert json.loads(captured.out)["error"]["type"] == "usage"
    # the last of repeated --output options wins
    code, captured = run(capsys, ["classify", "--model", "rational:x",
                                  "--output", "text", "--output=json"])
    assert code == 2 and json.loads(captured.out)["error"]["type"] == "usage"
    for argv in (
        ["classify", "--model", "rational:x", "--output", "json", "--output", "text"],
        # after "--", "--output json" is a positional, not an option
        ["classify", "--model", "rational:x", "--", "--output", "json"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: latwist classify")
    # a valid command reads the same option the same way
    code, captured = run(capsys, ["classify", "--model", "rational:2", "--out=json", "H"])
    assert code == 0 and "error" not in json.loads(captured.out)


def test_usage_errors_stay_text_without_json_output(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--model", "rational:2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: latwist classify")
    assert "required: CLASS" in captured.err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "latwist.cli", "classify", "--model", "rational:2", "H"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "square: 1" in proc.stdout


def test_repeated_calls_match_fresh_processes(capsys, monkeypatch):
    # the parser is built once per process; later calls must not see
    # anything an earlier call left behind
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["classify", "--model", "rational:6", "2H-E1-E2-E3-E4-E5-E6", "--output", "json"],
        ["classify", "--model", "rational:x", "H", "--output", "json"],
        ["classify", "--model", "rational:2"],
        ["reduce", "--model", "rational:8", "5H-2E1-2E2-2E3-2E4-2E5-2E6-E7-E8"],
        ["classify", "--model", "rational:6", "2H-E1-E2-E3-E4-E5-E6", "--output", "json"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "latwist.cli", *argv], capture_output=True, text=True,
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
