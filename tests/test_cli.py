import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slnpoly
from slnpoly import evaluator, identities
from slnpoly.cli import _build_parser, run_cli
from slnpoly.diagram import close_braid, parse_braid_word, to_json
from slnpoly.identities import SUITES, CheckResult
from slnpoly.laurent import parse_poly


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_braid_closure(capsys):
    code, out, _ = run(capsys, "eval", "--n", "2", "--braid", "s1 s1 s1",
                       "--strands", "2", "--closure")
    assert code == 0
    assert out.strip() == "-q^-3 + q + q^3 + q^5"


def test_eval_deterministic(capsys):
    args = ("eval", "--n", "3", "--braid", "t1 s2", "--strands", "3", "--closure")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_eval_normalize_prints_writhe(capsys):
    code, out, _ = run(capsys, "eval", "--n", "2", "--braid", "s1 s1 s1",
                       "--strands", "2", "--closure", "--normalize")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "writhe: 3"
    assert lines[1] == "-q^-6 + q^-2 + 1 + q^2"


def test_eval_diagram_file(tmp_path, capsys):
    d = close_braid(parse_braid_word("t1", 2))
    path = tmp_path / "diagram.json"
    path.write_text(to_json(d))
    code, out, _ = run(capsys, "eval", "--n", "2", "--diagram", str(path))
    assert code == 0
    # weighted trace of Q2: [2] * [3]
    want = parse_poly("q + q^-1") * parse_poly("q^-2 + 1 + q^2")
    assert parse_poly(out.strip()) == want


def test_eval_open_braid_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "--n", "2", "--braid", "s1", "--strands", "2")
    assert code == 2
    assert "closure" in err


def test_eval_braid_without_strands_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--n", "2", "--braid", "s1", "--closure")
    assert code == 2
    assert out == ""
    assert err == "eval: --braid requires --strands\n"


def test_eval_bad_word_is_computational_error(capsys):
    code, _, err = run(capsys, "eval", "--n", "2", "--braid", "s9",
                       "--strands", "2", "--closure")
    assert code == 1
    assert "error" in err


def test_eval_gamma_roundtrip(tmp_path, capsys):
    obj = {"top": [], "slices": [["cup_right"], ["vert_alt"], ["cap_left"]]}
    path = tmp_path / "alt.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "eval", "--n", "2", "--diagram", str(path),
                       "--gamma", "q + q^-1")
    assert code == 0
    # gamma * ([2] + [2]^2) with gamma = [2]
    want = parse_poly("q + q^-1") * (parse_poly("q + q^-1") + parse_poly("q^-2 + 2 + q^2"))
    assert parse_poly(out.strip()) == want


def test_eval_over_frontier_budget_is_an_error_not_a_traceback(monkeypatch, capsys):
    monkeypatch.setattr(evaluator, "MAX_FRONTIER", 3)
    code, out, err = run(capsys, "eval", "--n", "2", "--braid", "s1 s1 s1",
                         "--strands", "2", "--closure")
    assert code == 1
    assert out == ""
    assert err.startswith("error: slice 1, tile cup_right")
    assert "over the limit of 3" in err
    assert "Traceback" not in err


# The first two rows of each crossing matrix at n = 2.
MATRIX_HEADS = {
    "R": ["[q, 0, 0, 0]", "[0, -q^-1 + q, 1, 0]"],
    "Rbar": ["[q^-1, 0, 0, 0]", "[0, 0, 1, 0]"],
    "Q": ["[q^-1 + q, 0, 0, 0]", "[0, q, 1, 0]"],
}


@pytest.mark.parametrize("which", MATRIX_HEADS)
def test_matrices_output(capsys, which):
    code, out, _ = run(capsys, "matrices", "--n", "2", "--which", which)
    assert code == 0
    assert out.splitlines()[:2] == MATRIX_HEADS[which]


def test_public_names_resolve():
    # `from slnpoly import *` needs every name in __all__ on the package
    assert [name for name in slnpoly.__all__ if not hasattr(slnpoly, name)] == []


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--suite", "all", "--strands", "3")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 40
    assert "PASS monoid-R2: s1 S1 = 1" in out.splitlines()


def test_verify_suite_choices_follow_registry():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert suite.choices == [*SUITES, "all"]


def test_verify_all_runs_suites_in_registry_order(capsys):
    base = ("verify", "--n", "2", "--strands", "3")
    want = []
    for name in SUITES:
        code, out, _ = run(capsys, *base, "--suite", name)
        assert code == 0
        want += out.splitlines()[:-1]
    code, out, _ = run(capsys, *base, "--suite", "all")
    assert code == 0
    assert all(line.startswith("PASS ") for line in want)
    assert out.splitlines() == want + [f"{len(want)}/{len(want)} checks passed"]


def test_verify_prints_finished_suites_before_a_later_one_raises(monkeypatch, capsys):
    def ok(n):
        return [CheckResult(f"ok-n{n}", True)]

    def over_budget(n):
        raise ValueError("over budget")

    monkeypatch.setattr(identities, "SUITES", {"ok": ok, "over": over_budget})
    code, out, err = run(capsys, "verify", "--n", "2", "--suite", "all")
    assert code == 1
    assert out.splitlines() == ["PASS ok-n2"]
    assert err == "error: over budget\n"


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "ybe")
    assert code == 0
    assert "PASS ybe-R-n3" in out


def test_rep_output(capsys):
    code, out, _ = run(capsys, "rep", "--n", "2", "--braid", "s1 S1", "--strands", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dimensions: 4x4"
    assert lines[1] == "(0,0): 1"


def test_usage_error_exit_code(capsys):
    assert run_cli(["eval", "--n", "2"]) == 2
    assert run_cli(["nonsense"]) == 2
    assert run_cli([]) == 2


def test_mistyped_diagram_file_is_an_error_not_a_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(slnpoly.__file__).parents[1]))
    for text in ('{"slices": 5}', '{"slices": [null]}', '{"slices": [], "top": 3}'):
        path = tmp_path / "bad.json"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "slnpoly", "eval", "--n", "2", "--diagram", str(path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1, text
        assert proc.stderr.startswith("error:"), text
        assert "Traceback" not in proc.stderr, text


def test_rep_over_budget_is_an_error_not_a_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(slnpoly.__file__).parents[1]))
    for argv in (["rep", "--n", "10", "--braid", "s1", "--strands", "9"],
                 ["verify", "--n", "10", "--suite", "monoid", "--strands", "9"]):
        proc = subprocess.run([sys.executable, "-m", "slnpoly", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1, argv
        assert proc.stderr.startswith("error:"), argv
        assert "n^k <= 4096" in proc.stderr, argv
        assert "Traceback" not in proc.stderr, argv
