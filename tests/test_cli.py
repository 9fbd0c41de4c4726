"""Command-line interface: verdicts, exit codes, output formats."""

import json
import pathlib
import subprocess
import sys

import pytest

from latwist.cli import main, parse_model_spec
from latwist.decompose import IsometryMatrix, matrix_to_json
from latwist.lattice import LatticeModel, form_pairing, mat_identity, reflection_matrix
from latwist.oracle import EnumQuery
from latwist.reduction import ReflectionWord
from latwist.classexpr import parse_class, parse_form, print_class


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

    for bad in ("rational", "rational:x", "ruled:h=2", "ruled:n=1,h=2,x=3", "weird:1",
                # a repeated key, which dict() would keep the last of
                "ruled:h=1,n=2,h=3", "ruled:h=1,h=1,n=2",
                # sizes are ASCII digits, though int() reads all of these
                "rational:\u0663", "rational:1_0", "rational: 3", "ruled:h=\u0661,n=2"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_model_spec(bad)
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--model", "ruled:h=1,n=2,h=3", "T-E1"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("spec, text", [("rational:6", "2H-E1-E2-E3-E4-E5"), ("ruled:h=1,n=2", "T-E1")])
def test_classify_squares_the_class_once(capsys, monkeypatch, spec, text):
    # the payload and both predicates read the square the class keeps
    import latwist.lattice as lattice

    coeffs = parse_class(text, parse_model_spec(spec)).coeffs
    squares = []
    inner = lattice._gram_product

    def counted(model, u, v):
        if u is v and u == coeffs:
            squares.append(u)
        return inner(model, u, v)

    monkeypatch.setattr(lattice, "_gram_product", counted)
    code, data = run_json(capsys, ["classify", "--model", spec, text])
    assert code == 0 and data["square"] == inner(parse_model_spec(spec), coeffs, coeffs)
    assert len(squares) == 1


GOLDEN = pathlib.Path(__file__).parent / "golden"
# exceptional at n = 10 with a word of 40 generators; the golden files
# hold the CLI's output bytes for it
GOLDEN_CLASS = "12H - 4E1 - 5E2 - 2E3 - 3E4 - 6E5 - 2E6 - 3E7 - 4E8 - 5E9 - E10"


@pytest.mark.parametrize("output, name", [("json", "classify_rational10.json"), ("text", "classify_rational10.txt")])
def test_classify_output_bytes_match_the_golden_files(capsys, output, name):
    expected = (GOLDEN / name).read_bytes()
    argv = ["classify", "--model", "rational:10", "--output", output, "--", GOLDEN_CLASS]
    code, captured = run(capsys, argv)
    assert code == 0 and captured.out.encode() == expected
    fresh = subprocess.run([sys.executable, "-m", "latwist.cli", *argv], capture_output=True)
    assert fresh.returncode == 0 and fresh.stdout == expected
    if output == "json":
        assert json.loads(expected)["word"]["length"] >= 30


def test_classify_prints_each_generator_of_a_word_once(capsys, monkeypatch):
    # the golden word repeats H - E1 - E2 - E3 and some transpositions
    import latwist.cli as cli

    printed = []

    def counted(x):
        printed.append(x)
        return print_class(x)

    monkeypatch.setattr(cli, "print_class", counted)
    code, data = run_json(capsys, ["classify", "--model", "rational:10", GOLDEN_CLASS])
    generators = data["word"]["generators"]
    assert code == 0 and len(set(generators)) < len(generators)
    # the class and its normal form, then each distinct generator once
    assert [print_class(x) for x in printed[2:]] == list(dict.fromkeys(generators))


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


def test_a_form_or_alpha_outside_the_cone_is_an_input_error(tmp_path, capsys):
    # a precondition that well-formed input violates exits 2 with type
    # input, as malformed input does; a form that starts with "-" is
    # written with "="
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"model": {"type": "rational", "n": 3},
                                "entries": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]}))
    cases = (
        (["lagrangian", "--model", "rational:2", "--form", "0", "E1-E2"], "form fails the cone conditions"),
        (["lagrangian", "--model", "rational:2", "--form=-2H-E1", "E1-E2"], "form fails the cone conditions"),
        (["decompose", "--model", "rational:3", "--matrix", str(path), "--alpha=-H"],
         "alpha must lie in the symplectic cone"),
    )
    for argv, message in cases:
        code, data = run_json(capsys, argv)
        assert code == 2 and data == {"error": {"type": "input", "message": message}}
        code, captured = run(capsys, argv)
        assert code == 2 and captured.out == ""
        assert captured.err == f"error (input): {message}\n"


def test_reduce(capsys):
    code, data = run_json(capsys, ["reduce", "--model", "rational:5", "2H-E1-E2-E3-E4-E5"])
    assert code == 0
    assert data["kind"] == "ExceptionalEi"
    assert data["word"]["length"] >= 1


def test_decompose_identity(tmp_path, capsys):
    m = LatticeModel.rational(4)
    path = tmp_path / "id.json"
    path.write_text(json.dumps(matrix_to_json(IsometryMatrix(m, mat_identity(m.rank)))))
    code, data = run_json(capsys, ["decompose", "--model", "rational:4", "--matrix", str(path)])
    assert code == 0
    assert data["word"]["length"] == 0


def test_decompose_model_mismatch(tmp_path, capsys):
    m = LatticeModel.rational(4)
    path = tmp_path / "id.json"
    path.write_text(json.dumps(matrix_to_json(IsometryMatrix(m, mat_identity(m.rank)))))
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


def test_decompose_reports_an_unfactorable_isometry(tmp_path, capsys):
    # R(v) for criterion 4's class v: it validates, but v is K-null and
    # not spherical, so the reflection is no product of twists
    m = LatticeModel.rational(11)
    v = parse_class("3H+E1-E2-E3-E4-E5-E6-E7-E8-E9-E10-E11", m)
    path = tmp_path / "rv.json"
    path.write_text(json.dumps(matrix_to_json(IsometryMatrix(m, reflection_matrix(v)))))
    code, data = run_json(capsys, ["decompose", "--model", "rational:11", "--matrix", str(path)])
    assert code == 1
    assert data == {"error": {"type": "decomposition", "message": "residual not resolvable"}}


def test_error_paths_in_a_fresh_process(tmp_path):
    # a new interpreter has not loaded decompose when main starts, so
    # the unfactorable isometry above must still reach its own error type
    m = LatticeModel.rational(11)
    v = parse_class("3H+E1-E2-E3-E4-E5-E6-E7-E8-E9-E10-E11", m)
    path = tmp_path / "rv.json"
    path.write_text(json.dumps(matrix_to_json(IsometryMatrix(m, reflection_matrix(v)))))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "latwist.cli", *argv], capture_output=True, text=True)

    argv = ["decompose", "--model", "rational:11", "--matrix", str(path)]
    proc = cli(*argv, "--output", "json")
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout) == {"error": {"type": "decomposition", "message": "residual not resolvable"}}
    proc = cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error (decomposition): residual not resolvable\n")
    for argv in (
        ["classify", "--model", "rational:2", "E7"],
        ["decompose", "--model", "rational:11", "--matrix", str(path), "--alpha", "3H-Q1"],
    ):
        proc = cli(*argv, "--output", "json")
        assert proc.returncode == 2 and json.loads(proc.stdout)["error"]["type"] == "parse"
        proc = cli(*argv)
        assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.startswith("error (parse): ")


def test_decompose_ruled_requires_alpha(tmp_path, capsys):
    m = LatticeModel.ruled(1, 2)
    path = tmp_path / "rid.json"
    path.write_text(json.dumps(matrix_to_json(IsometryMatrix(m, mat_identity(m.rank)))))
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


def test_enumerate_degree_bound_caps_small_n_and_refuses_ruled(capsys):
    argv = ["enumerate", "--kind", "exceptional", "--model", "rational:5", "--degree-bound", "1"]
    code, data = run_json(capsys, argv)
    assert code == 0
    assert data["count"] == 15 and data["complete"] is False and data["degree_bound"] == 1
    assert "2H - E1 - E2 - E3 - E4 - E5" not in data["classes"]
    argv = ["enumerate", "--kind", "exceptional", "--model", "ruled:h=1,n=2", "--degree-bound", "1"]
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data == {"error": {"type": "input", "message": "degree_bound applies to rational models only"}}


def test_enumerate_exceptional_refuses_a_listing_past_the_limit(capsys, monkeypatch):
    import latwist.cone as cone

    argv = ["enumerate", "--kind", "exceptional", "--model", "rational:12", "--degree-bound", "8"]
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data == {"error": {"type": "input", "message": "bound exceeds safety limit"}}
    # --allow-large lifts the limit, here lowered below a small listing
    monkeypatch.setattr(cone, "_LISTING_LIMIT", 44)
    argv = ["enumerate", "--kind", "exceptional", "--model", "rational:9", "--degree-bound", "1"]
    assert run_json(capsys, argv)[0] == 2
    code, data = run_json(capsys, argv + ["--allow-large"])
    assert code == 0 and data["count"] == 45


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


def test_enumerate_rejects_degree_bound_with_bound(capsys):
    # a --bound scan has no degree cap; it would list classes with |c| <= 2
    argv = ["enumerate", "--model", "rational:10", "--kind", "exceptional", "--bound", "2", "--degree-bound", "1"]
    message = "--degree-bound cannot be combined with --bound"
    code, data = run_json(capsys, argv)
    assert code == 2 and data == {"error": {"type": "input", "message": message}}
    code, captured = run(capsys, argv)
    assert code == 2 and captured.out == "" and captured.err == f"error (input): {message}\n"


@pytest.mark.parametrize("constraint", [["--square", "5"], ["--k-pairing", "0"], ["--square", "-1", "--k-pairing", "-2"]])
def test_exceptional_listing_rejects_conflicting_constraints(capsys, constraint):
    # without --bound the listing holds only classes of square -1 and K-pairing -1
    argv = ["enumerate", "--model", "rational:3", "--kind", "exceptional", *constraint]
    message = "predicate conflicts with explicit constraints"
    code, data = run_json(capsys, argv)
    assert code == 2 and data == {"error": {"type": "input", "message": message}}
    code, captured = run(capsys, argv)
    assert code == 2 and captured.out == "" and captured.err == f"error (input): {message}\n"
    # the same conflict through the --bound scan gives the same error
    code, data = run_json(capsys, argv + ["--bound", "2"])
    assert code == 2 and data == {"error": {"type": "input", "message": message}}


def test_exceptional_listing_and_query_share_the_predicate_rule(capsys):
    # the listing resolves --kind against --square/--k-pairing by the
    # rule EnumQuery applies, so both refuse a conflict with one message
    with pytest.raises(ValueError) as refused:
        EnumQuery(LatticeModel.rational(3), 2, k_pairing=0, predicate="exceptional")
    argv = ["enumerate", "--model", "rational:3", "--kind", "exceptional", "--k-pairing", "0"]
    code, data = run_json(capsys, argv)
    assert code == 2 and data == {"error": {"type": "input", "message": str(refused.value)}}


def test_exceptional_listing_accepts_matching_constraints(capsys):
    base = ["enumerate", "--model", "rational:3", "--kind", "exceptional"]
    _, expected = run_json(capsys, base)
    code, data = run_json(capsys, base + ["--square", "-1", "--k-pairing", "-1"])
    assert code == 0 and data == expected and data["count"] == 6


@pytest.mark.parametrize("command", ["enumerate", "crosscheck"])
@pytest.mark.parametrize("constraint", ["--k-pairing=0", "--square=-1"])
def test_scans_over_the_candidate_cap_are_refused(capsys, command, constraint):
    argv = [command, "--model", "rational:12", "--bound", "8", constraint]
    if command == "crosscheck":
        # required at rational n >= 9; the scan is refused before any search
        argv += ["--depth", "8"]
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data == {"error": {"type": "input", "message": "bound exceeds safety limit"}}
    code, captured = run(capsys, argv)
    assert code == 2 and captured.out == ""
    assert captured.err == "error (input): bound exceeds safety limit\n"


def test_allow_large_help_names_both_limits(capsys):
    for command in ("enumerate", "crosscheck"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--bound above 8, and more than 2,000,000 candidates" in out


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
    for h in (1, 2):
        code, captured = run(capsys, ["cone", "--model", f"ruled:h={h},n=0", "--form=-T-F"])
        assert code == 1 and captured.out.startswith("No")
        code, data = run_json(capsys, ["cone", "--model", f"ruled:h={h},n=0", "--form=-2T-3F"])
        assert code == 1 and data["note"] == "outside the forward cone"
        code, data = run_json(capsys, ["cone", "--model", f"ruled:h={h},n=0", "--form", "T+F"])
        assert code == 0 and data["verdict"] == "yes"
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


def test_crosscheck_requires_depth_at_rational_n9_and_up(capsys):
    argv = ["crosscheck", "--model", "rational:10", "--kind", "exceptional", "--bound", "3"]
    message = "depth required for rational models with n >= 9"
    code, data = run_json(capsys, argv)
    assert code == 2 and data == {"error": {"type": "input", "message": message}}
    code, captured = run(capsys, argv)
    assert code == 2 and captured.out == "" and captured.err == f"error (input): {message}\n"
    # with a depth the scan runs; the class that passes the gate but has
    # no seed in its orbit is in it, and both sides say No
    code, data = run_json(capsys, argv + ["--depth", "8"])
    assert code == 0 and data["summary"] == {"checked": 1158, "disagreements": []}
    assert "3H - E1 - E2 - E3 - E4 - E5 - E6 - E7 - E8 - E9 + E10" in [c["text"] for c in data["classes"]]


def test_crosscheck_names_each_class(capsys):
    argv = ["crosscheck", "--model", "rational:3", "--kind", "exceptional", "--bound", "2"]
    code, data = run_json(capsys, argv)
    assert code == 0
    texts = [c["text"] for c in data["classes"]]
    assert texts == ["E3", "E2", "E1", "H - E1 - E2", "H - E1 - E3", "H - E2 - E3"]
    m = LatticeModel.rational(3)
    assert [list(parse_class(t, m).coeffs) for t in texts] == [c["coeffs"] for c in data["classes"]]
    code, captured = run(capsys, argv)
    assert code == 0
    lines = captured.out.splitlines()
    assert [line for line in lines if "text=" in line] == [f"  text={t}" for t in texts]


def test_crosscheck_sampled_seed_echo(capsys):
    code, data = run_json(
        capsys,
        ["crosscheck", "--model", "rational:6", "--kind", "knull", "--bound", "3",
         "--sample", "5", "--seed", "11"],
    )
    assert code == 0
    assert data["summary"]["checked"] == 5
    assert data["seed"] == 11 and data["sample"] == 5


def test_crosscheck_seed_is_echoed_only_with_sample(capsys):
    # without --sample no subset is drawn, so there is no seeded run to report
    argv = ["crosscheck", "--model", "rational:3", "--bound", "2", "--kind", "exceptional", "--seed", "5"]
    code, data = run_json(capsys, argv)
    assert code == 0 and "seed" not in data and "sample" not in data
    code, captured = run(capsys, argv)
    assert code == 0 and not any(line.startswith("seed") for line in captured.out.splitlines())


def test_seed_belongs_to_crosscheck_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--seed", "3", "--model", "rational:2", "H"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    code, data = run_json(capsys, ["classify", "--seed", "3", "--model", "rational:2", "H"])
    assert code == 2 and data["error"]["type"] == "usage"
    code, captured = run(
        capsys,
        ["crosscheck", "--model", "rational:6", "--kind", "knull", "--bound", "3",
         "--sample", "5", "--seed", "11"],
    )
    assert code == 0 and "seed: 11" in captured.out.splitlines()


def _expected_text(payload):
    """The lines the text output must hold for a JSON payload: each
    scalar as "key: value" (a verdict as Yes/No), each list as its
    length and scalar items, each word as its R(...) lines."""
    for key, value in payload.items():
        if value is None:
            continue
        if key in ("yes", "verdict"):
            yield "Yes" if value in (True, "yes") else "No"
        elif isinstance(value, dict) and set(value) == {"length", "generators"}:
            yield f"word length: {value['length']}"
            yield from (f"  R({g})" for g in value["generators"])
        elif isinstance(value, dict):
            yield from _expected_text(value)
        elif isinstance(value, list):
            yield f"{key}: {len(value)}"
            yield from (f"  {item}" for item in value if not isinstance(item, dict))
        else:
            yield f"{key}: {value}"


def test_text_is_derived_from_the_payload(tmp_path, capsys):
    swap = tmp_path / "swap.json"
    swap.write_text(json.dumps({"model": {"type": "rational", "n": 3},
                                "entries": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]}))
    flip = tmp_path / "flip.json"
    flip.write_text(json.dumps({"model": {"type": "rational", "n": 2},
                                "entries": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}))
    commands = [
        ["classify", "--model", "rational:6", "2H-E1-E2-E3-E4-E5-E6"],
        ["classify", "--model", "ruled:h=1,n=2", "E1-E2"],
        ["lagrangian", "--model", "rational:4", "--form", "3H-E1-E2-E3-E4", "E1-E2"],
        ["lagrangian", "--model", "rational:2", "E1-E2", "--form", "3H-E1-2E2"],
        ["reduce", "--model", "rational:5", "2H-E1-E2-E3-E4-E5"],
        ["decompose", "--model", "rational:3", "--matrix", str(swap)],
        ["decompose", "--model", "rational:2", "--matrix", str(flip)],
        ["enumerate", "--model", "rational:9", "--kind", "exceptional", "--degree-bound", "1"],
        ["enumerate", "--model", "rational:3", "--kind", "knull", "--bound", "1"],
        ["cone", "--model", "rational:2", "--form", "2H-E1-E2"],
        ["cone", "--model", "rational:1", "--form=-2H-E1"],
        ["cone", "--model", "ruled:h=1,n=2", "--form", "2T+3F-E1-E2"],
        ["crosscheck", "--model", "ruled:h=1,n=2", "--bound", "2", "--kind", "exceptional"],
        ["crosscheck", "--model", "rational:6", "--kind", "knull", "--bound", "3",
         "--sample", "5", "--seed", "11"],
    ]
    for argv in commands:
        code, data = run_json(capsys, argv)
        text_code, captured = run(capsys, argv)
        lines = captured.out.splitlines()
        assert text_code == code
        missing = [line for line in _expected_text(data) if line not in lines]
        assert missing == [], argv


def test_crosscheck_disagreement_is_reported(capsys, monkeypatch):
    import latwist.oracle as oracle
    from latwist.oracle import CrosscheckReport, Disagreement

    def fake(q, **kwargs):
        x = parse_class("E1-E2", q.model)
        return CrosscheckReport(q, (x,), (Disagreement(x, "knull", True, False),))

    # the crosscheck handler reads the function from oracle on each call
    monkeypatch.setattr(oracle, "crosscheck", fake)
    argv = ["crosscheck", "--model", "rational:3", "--bound", "1", "--kind", "knull"]
    code, captured = run(capsys, argv)
    assert code == 1
    assert "disagreements: 1" in captured.out.splitlines()
    assert any("E1 - E2" in line and "operation=knull" in line
               for line in captured.out.splitlines())
    code, data = run_json(capsys, argv)
    assert code == 1
    assert data["summary"]["disagreements"][0]["text"] == "E1 - E2"


@pytest.mark.parametrize("operation, library", [
    ("exceptional", "is_exceptional"),
    ("characteristic", "is_characteristic"),
])
def test_crosscheck_reports_a_library_that_disagrees(capsys, monkeypatch, operation, library):
    # the real crosscheck, with one library predicate turned around: every
    # scanned class disagrees, the report names each, and the CLI exits 1
    import latwist.oracle as oracle

    real = getattr(oracle, library)
    monkeypatch.setattr(oracle, library, lambda *args: not real(*args))
    argv = ["crosscheck", "--model", "rational:3", "--bound", "1", "--kind", operation]
    code, data = run_json(capsys, argv)
    assert code == 1
    texts = [c["text"] for c in data["classes"]]
    found = [d for d in data["summary"]["disagreements"] if d["operation"] == operation]
    assert texts and [d["text"] for d in found] == texts
    assert all(d["library"] is not d["oracle"] for d in found)
    code, captured = run(capsys, argv)
    assert code == 1 and f"disagreements: {len(texts)}" in captured.out.splitlines()


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
    # every integer the command line reads is in ASCII digits; int() would
    # read each of these
    for argv in (
        ["classify", "--model", "rational:\u0663", "E1"],
        ["classify", "--model", "rational:1_0", "E1"],
        ["crosscheck", "--model", "rational:3", "--bound", "\u0662"],
        ["crosscheck", "--model", "rational:3", "--bound", "2", "--depth", "1_0"],
        ["crosscheck", "--model", "rational:3", "--bound", "2", "--sample", "3", "--seed", " 4"],
        ["enumerate", "--model", "rational:3", "--bound", "2", "--square", "-\u0661"],
        ["enumerate", "--model", "rational:3", "--bound", "2", "--k-pairing", "+1_0"],
    ):
        code, data = run_json(capsys, argv)
        assert code == 2 and data["error"]["type"] == "usage", argv
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: latwist")
    # a sign stays allowed
    argv = ["enumerate", "--model", "rational:3", "--bound", "1", "--square", "-1", "--k-pairing"]
    assert run_json(capsys, argv + ["+1"]) == run_json(capsys, argv + ["1"])


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


def test_nonpositive_bound_and_depth_are_json_usage_errors(capsys):
    for argv in (
        ["crosscheck", "--model", "rational:3", "--kind", "exceptional", "--bound", "0"],
        ["crosscheck", "--model", "rational:3", "--kind", "exceptional", "--bound", "2",
         "--depth", "0"],
        ["enumerate", "--model", "rational:3", "--kind", "knull", "--bound", "0"],
    ):
        code, captured = run(capsys, argv + ["--output", "json"])
        assert code == 2 and captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["type"] == "usage" and "must be positive" in error["message"]


def test_bare_trailing_output_is_a_text_usage_error(capsys):
    # --output without its value cannot ask for JSON, so argparse reports it
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--model", "rational:2", "H", "--output"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: latwist classify")
    assert "--output: expected one argument" in captured.err


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


# -- one argparse pass per call -----------------------------------------------

# every subcommand, the abbreviations and "=" forms of options, a repeated
# --output, "--", -h at both levels, and the usage errors of each level
_PARSE_CORPUS = [
    ["classify", "--model", "rational:3", "H-E1"],
    ["classify", "--mod", "rational:3", "--out", "json", "H"],
    ["classify", "--model=rational:3", "--output=json", "H"],
    ["classify", "--model", "rational:3", "--output", "text", "--output", "json", "H"],
    ["classify", "--model", "rational:3", "--", "-E1"],
    ["classify", "--model", "rational:3", "--", "--output", "json"],
    ["classify", "-h"],
    ["-h"],
    ["--help"],
    ["classify", "--model", "rational:3", "--bogus", "H"],
    ["classify", "--model", "rational:3", "H", "E1"],
    ["classify", "--model", "rational:3", "H", "E1", "--output", "json"],
    ["--output", "json", "classify", "--model", "rational:3", "H"],
    ["bogus", "--model", "rational:3", "H"],
    [],
    ["classify"],
    ["classify", "--model", "rational:x", "H"],
    ["classify", "--model", "rational:3", "H", "--output"],
    ["lagrangian", "--model", "rational:3", "H-E1-E2", "--form", "3H-E1-E2-E3"],
    ["lagrangian", "--model", "rational:3", "H-E1-E2"],
    ["reduce", "--model", "rational:4", "2H-E1-E2-E3-E4", "--output", "json"],
    ["decompose", "--model", "ruled:h=1,n=2", "--matrix", "m.json", "--alpha", "T+F"],
    ["enumerate", "--model", "rational:3", "--kind", "knull", "--bound", "1"],
    ["enumerate", "--model", "rational:3", "--kind=exceptional", "--k-pair", "-1", "--degree-b", "2"],
    ["cone", "--model", "rational:2", "--form=3H-E1-E2"],
    ["crosscheck", "--model", "rational:3", "--bound", "1", "--sample", "2", "--seed", "5"],
    ["crosscheck", "--model", "rational:3", "--kind", "knull"],
    ["crosscheck", "-h"],
]


@pytest.mark.parametrize("argv", _PARSE_CORPUS, ids=" ".join)
def test_one_pass_parse_matches_the_two_level_parse(capsys, monkeypatch, argv):
    import latwist.cli as cli

    # the namespaces the handlers get, and every usage error a parser raises
    handled, raised = [], []
    error = cli._Parser.error

    def recording_error(self, message):
        raised.append((self, message))
        error(self, message)

    def handler(args):
        handled.append(args)
        return 0, {}

    monkeypatch.setattr(cli._Parser, "error", recording_error)
    parser = cli.build_parser()
    handlers = {name: p.get_default("handler") for name, p in parser.commands.items()}
    try:
        for p in parser.commands.values():
            p.set_defaults(handler=handler)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        # the first error is the one main reports (_wants_json may raise
        # more), and a -h prints help and exits 0 without a handler
        got = (handled[:], raised[:1], out if code == 0 and not handled else None)
        handled.clear()
        raised.clear()
        try:
            expected = ([parser.parse_args(argv)], [], None)
        except cli._UsageError:
            expected = ([], raised[:1], None)
        except SystemExit as exc:
            assert exc.code == 0
            expected = ([], [], capsys.readouterr().out)
    finally:
        for name, p in parser.commands.items():
            p.set_defaults(handler=handlers[name])
    assert got == expected
    assert got[0] or got[1] or got[2]


@pytest.mark.parametrize("argv", [
    ["classify", "--model", "rational:6", "2H-E1-E2-E3-E4-E5-E6"],
    ["classify", "--mod=rational:10", "--out", "json", "--", GOLDEN_CLASS],
    ["classify", "--model", "ruled:h=2,n=3", "T-E1", "--output", "text", "--output", "json"],
])
def test_a_classify_call_runs_one_argparse_pass(capsys, monkeypatch, argv):
    import argparse

    import latwist.cli as cli

    passes = []
    inner = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        passes.append(self)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert main(argv) == 0
    assert passes == [cli.build_parser().commands["classify"]]
    assert capsys.readouterr().err == ""
