"""End-to-end tests for the command-line interface.

Each test drives ``main(argv)`` in process and inspects the JSON payload,
the warnings on stderr, and the exit code.  One test runs the console
module in a subprocess to cover the packaging path.
"""

import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from freediv import cli
from freediv.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_VERIFICATION,
    main,
)


def run_cli(capsys, *argv):
    """Invoke main() and return (exit_code, parsed_stdout_json_or_None, stderr)."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    payload = json.loads(out) if out.strip().startswith("{") else out
    return code, payload, err


DIAG2 = '[["x", "0"], ["0", "y"]]'


class TestParse:
    def test_round_trip_is_canonical(self, capsys):
        code, payload, _ = run_cli(capsys, "parse", "--f", "y + x + y", "--vars", "x,y")
        assert code == EXIT_OK
        first = payload["f"]
        code, payload, _ = run_cli(capsys, "parse", "--f", first, "--vars", "x,y")
        assert code == EXIT_OK
        assert payload["f"] == first

    def test_reports_terms_and_degrees(self, capsys):
        code, payload, _ = run_cli(
            capsys, "parse", "--f", "x^2*y - y^2*z + x", "--vars", "x,y,z"
        )
        assert code == EXIT_OK
        assert payload["num_terms"] == 3
        assert payload["degrees"] == [1, 3]
        assert payload["homogeneous"] is False

    def test_zero_polynomial(self, capsys):
        code, payload, _ = run_cli(capsys, "parse", "--f", "x - x", "--vars", "x")
        assert code == EXIT_OK
        assert payload["f"] == "0"
        assert payload["num_terms"] == 0
        assert payload["degrees"] == []

    def test_double_star_is_a_syntax_error(self, capsys):
        code, _, err = run_cli(capsys, "parse", "--f", "x**2", "--vars", "x")
        assert code == EXIT_PARSE
        assert "error (parse)" in err

    def test_inferred_variables_warn_on_stderr(self, capsys):
        code, payload, err = run_cli(capsys, "parse", "--f", "z*y + x*y")
        assert code == EXIT_OK
        assert payload["vars"] == ["z", "y", "x"]
        assert "inferred" in err and "z,y,x" in err

    def test_explicit_variables_do_not_warn(self, capsys):
        code, _, err = run_cli(capsys, "parse", "--f", "x*y", "--vars", "x,y")
        assert code == EXIT_OK
        assert "inferred" not in err

    def test_output_is_byte_stable(self, capsys):
        main(["parse", "--f", "x^2*y - y^2*z", "--vars", "x,y,z"])
        first = capsys.readouterr().out
        main(["parse", "--f", "x^2*y - y^2*z", "--vars", "x,y,z"])
        second = capsys.readouterr().out
        assert first == second


class TestVerify:
    def test_normal_crossing(self, capsys):
        code, payload, _ = run_cli(
            capsys, "verify", "--f", "x*y", "--vars", "x,y", "--matrix", DIAG2
        )
        assert code == EXIT_OK
        assert payload["status"] == "verified"
        assert payload["det_scalar"] == "1"
        assert payload["matrix"]["entries"] == [["x", "0"], ["0", "y"]]

    def test_matrix_from_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": [["x", "0"], ["0", "y"]]}))
        code, payload, _ = run_cli(
            capsys, "verify", "--f", "x*y", "--vars", "x,y", "--matrix", f"@{path}"
        )
        assert code == EXIT_OK
        assert payload["status"] == "verified"

    def test_det_mismatch_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify",
            "--f",
            "x*y",
            "--vars",
            "x,y",
            "--matrix",
            '[["x", "0"], ["0", "x"]]',
        )
        assert code == EXIT_VERIFICATION
        assert "det_mismatch" in err

    def test_non_square_matrix_exits_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--f", "x*y", "--vars", "x,y",
            "--matrix", '[["x", "0"]]',
        )
        assert code == EXIT_PRECONDITION

    def test_unreadable_matrix_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(
            capsys, "verify", "--f", "x*y", "--vars", "x,y", "--matrix", f"@{missing}"
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error (parse): cannot read {missing}: No such file or directory\n"

    def test_undecodable_matrix_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff")
        code, _, err = run_cli(
            capsys, "verify", "--f", "x*y", "--vars", "x,y", "--matrix", f"@{path}"
        )
        assert code == EXIT_PARSE
        assert err.startswith(f"error (parse): cannot read {path}: 'utf-8' codec")
        assert err.count("\n") == 1

    def test_matrix_file_is_read_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        path.write_text(DIAG2)
        reads = []
        read_text = cli._read_text
        monkeypatch.setattr(cli, "_read_text", lambda p: reads.append(p) or read_text(p))
        code, _, err = run_cli(capsys, "verify", "--f", "x*y", "--matrix", f"@{path}")
        assert code == EXIT_OK
        assert "inferred" in err
        assert reads == [str(path)]

    def test_malformed_matrix_json_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--f", "x*y", "--vars", "x,y", "--matrix", "[[x"
        )
        assert code == EXIT_PARSE
        assert "not valid JSON" in err


class TestAnalyze:
    def test_worked_example_annihilator(self, capsys):
        code, payload, _ = run_cli(
            capsys, "analyze", "--f", "x^2*y - y^2*z", "--vars", "x,y,z"
        )
        assert code == EXIT_OK
        assert payload["annihilator_basis"] == [["1", "-2", "4"]]
        assert payload["homogeneous"] is True
        assert payload["binomial"]["status"] == "free"

    def test_three_terms_skip_binomial_classification(self, capsys):
        code, payload, _ = run_cli(
            capsys, "analyze", "--f", "x^3 + y^3 + z^3", "--vars", "x,y,z"
        )
        assert code == EXIT_OK
        assert payload["binomial"] is None
        assert payload["annihilator_basis"] == []

    def test_zero_polynomial_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--f", "x - x", "--vars", "x,y")
        assert code == EXIT_PRECONDITION


class TestObstruct:
    def test_fermat_cubic_refuted(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "obstruct",
            "--f",
            "x^3 + y^3 + z^3",
            "--vars",
            "x,y,z",
            "--assert-smooth",
        )
        assert code == EXIT_OK
        assert payload["conclusion"] == "NotFree"
        names = {c["name"]: c["verdict"] for c in payload["checks"]}
        assert names["coordinate_monomial_membership"] == "violated"
        assert names["exponent_independence"] == "satisfied"

    def test_without_smoothness_assertion_inconclusive(self, capsys):
        code, payload, _ = run_cli(
            capsys, "obstruct", "--f", "x^3 + y^3 + z^3", "--vars", "x,y,z"
        )
        assert code == EXIT_OK
        assert payload["conclusion"] == "Inconclusive"

    def test_explicit_skewed_forms(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "obstruct",
            "--f",
            "x^3 + y^3 + z^3",
            "--vars",
            "x,y,z",
            "--linear-forms",
            "x + y; y - z; z",
            "--assert-smooth",
        )
        assert code == EXIT_OK
        assert payload["conclusion"] == "NotFree"

    def test_dependent_forms_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "obstruct",
            "--f",
            "x^3 + y^3 + z^3",
            "--vars",
            "x,y,z",
            "--linear-forms",
            "x; y; x + y",
            "--assert-smooth",
        )
        assert code == EXIT_PRECONDITION
        assert "dependent" in err


class TestConstruct:
    def test_binomial_det_scalar(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "construct", "binomial",
            "--n", "1", "--a", "0", "--b", "1",
            "--alpha", "3", "--beta", "2", "--u", "0", "--t", "1",
        )
        assert code == EXIT_OK
        assert payload["status"] == "verified"
        # beta*alpha + u*beta + t*alpha = 2*3 + 0 + 3
        assert payload["det_scalar"] == "9"

    def test_brieskorn_chain(self, capsys):
        code, payload, _ = run_cli(
            capsys, "construct", "brieskorn", "--t", "2,2,2", "--names", "x,y,z"
        )
        assert code == EXIT_OK
        assert payload["f"] == (
            "x^4 + 2*x^2*y^2 + y^4 + x^2*z^2 + y^2*z^2"
        )
        assert payload["column_roles"][0] == "mixed"

    def test_triangular_cusp_quintic(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "construct", "triangular",
            "--t", "2,3", "--names", "x,y", "--step", "5,1,-1,1,z",
        )
        assert code == EXIT_OK
        assert payload["factors"] == ["y^3 + x^2", "-z^5 + y^3 + x^2"]

    def test_triangular_malformed_step_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "construct", "triangular", "--t", "2,3", "--step", "5,1,-1"
        )
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("options, message", [
        (["--t", "2,3,4"], "--t wants the two exponents 't1,t2', got '2,3,4'"),
        (["--t", "2"], "--t wants the two exponents 't1,t2', got '2'"),
        (["--t", "2,3", "--step", "5,1,1/0,1,z"],
         "cannot parse --step '5,1,1/0,1,z': Fraction(1, 0)"),
    ])
    def test_triangular_malformed_option_is_one_line_exit_2(self, capsys, options, message):
        code, out, err = run_cli(capsys, "construct", "triangular", *options)
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error (parse): {message}\n"

    def test_compose_two_lines_into_sum_frame(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "construct", "compose",
            "--vars", "x,y",
            "--factors", "x;y",
            "--matrix", DIAG2,
            "--outer-vars", "y1,y2",
            "--outer-factors", "y1;y2;y1+y2",
            "--outer-matrix", '[["y1", "y1^2"], ["y2", "-y2^2"]]',
        )
        assert code == EXIT_OK
        assert payload["f"] == "x^2*y + x*y^2"
        assert payload["factors"] == ["x", "y", "x + y"]

    def test_compose_shared_factor_exits_4_with_witness(self, capsys):
        # substituting x and x*(x+y) repeats the factor x
        code, _, err = run_cli(
            capsys,
            "construct", "compose",
            "--vars", "x,y",
            "--factors", "x;x*(x+y)",
            "--outer-vars", "y1,y2",
            "--outer-factors", "y1;y2;y1+y2",
            "--outer-matrix", '[["y1", "y1^2"], ["y2", "-y2^2"]]',
        )
        assert code == EXIT_VERIFICATION
        assert "witness" in err

    def test_sum_compose_crossings(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "construct", "sum-compose",
            "--f", "x1*x2", "--vars", "x1,x2", "--weights", "1,1",
            "--g", "y1*y2", "--g-vars", "y1,y2", "--g-weights", "1,1",
        )
        assert code == EXIT_OK
        assert payload["f"] == "x1^2*x2^2*y1*y2 + x1*x2*y1^2*y2^2"

    def test_tangent_triple_crossing_without_matrix(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "construct", "tangent",
            "--f", "x1*x2*x3", "--vars", "x1,x2,x3", "--weights", "1,1,1",
        )
        assert code == EXIT_OK
        assert payload["f"] == (
            "x1*x2^2*x3^2*y1 + x1^2*x2*x3^2*y2 + x1^2*x2^2*x3*y3"
        )
        assert payload["matrix"]["rows"] == 6
        assert payload["vars"] == ["x1", "x2", "x3", "y1", "y2", "y3"]

    def test_tangent_non_monomial_without_matrix_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "construct", "tangent",
            "--f", "x + y", "--vars", "x,y", "--weights", "1,1",
        )
        assert code == EXIT_PRECONDITION
        assert "--matrix" in err

    def test_inhomogeneous_weights_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "construct", "tangent",
            "--f", "x^2+y^2", "--vars", "x,y", "--weights", "1,2",
            "--matrix", '[["x","-y"],["y","x"]]',
        )
        assert code == EXIT_PRECONDITION
        assert err == (
            "error (precondition): not homogeneous for weights ('1', '2'): "
            "degrees ['2', '4']\n"
        )

    def test_jets_line(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "construct", "jets",
            "--f", "x0", "--vars", "x0", "--weights", "1", "--m", "4",
        )
        assert code == EXIT_OK
        assert payload["f"] == "x0*x1*x2*x3*x4"
        assert payload["levels"] == 4

    def test_iterate_two_steps(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "construct", "iterate",
            "--f", "x", "--vars", "x", "--weights", "1", "--steps", "2",
        )
        assert code == EXIT_OK
        assert payload["f"] == "x*y^2*z1 + x^2*y*z2"
        assert len(payload["steps"]) == 3

    def test_cone_figure_instance(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "construct", "cone",
            "--k", "3", "--gammas", "0,1,1",
            "--a", "2", "--b", "1", "--c", "1", "--alphas", "5,1/2,-1",
        )
        assert code == EXIT_OK
        assert payload["status"] == "free"
        assert payload["certificate"]["f"] == (
            "x^6*y*z - 9/2*x^4*y^2*z^2 - 3*x^2*y^3*z^3 + 5/2*y^4*z^4"
        )

    def test_cone_without_axes_reported_not_free(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "construct", "cone",
            "--k", "2", "--gammas", "0,0,0",
            "--a", "2", "--b", "1", "--c", "1", "--alphas", "1,2",
        )
        assert code == EXIT_OK
        assert payload["status"] == "not_free"
        assert payload["certificate"] is None


class TestCorpus:
    def test_bundled_corpus_passes(self, capsys):
        code = main(["corpus", "run"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if ": PASS" in l or ": FAIL" in l]
        assert lines and all(": PASS" in l for l in lines)
        assert "cross-consistency: ok" in out

    def test_report_order_is_deterministic(self, capsys):
        main(["corpus", "run", "--jobs", "1"])
        first, _ = capsys.readouterr()
        main(["corpus", "run", "--jobs", "4"])
        second, _ = capsys.readouterr()
        assert first == second

    def test_failed_expectation_exits_4(self, capsys, tmp_path):
        entries = [
            {
                "id": "bad-01",
                "vars": ["x", "y"],
                "f": "x*y",
                "matrix": {"entries": [["x", "0"], ["0", "y"]]},
                "expect": "not_free",
                "check": "verify",
                "source": "deliberately wrong expectation",
            }
        ]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(entries))
        code = main(["corpus", "run", "--path", str(path)])
        out, _ = capsys.readouterr()
        assert code == EXIT_VERIFICATION
        assert "bad-01: FAIL" in out

    def test_broken_entry_reports_error_text(self, capsys, tmp_path):
        entries = [
            {
                "id": "broken-01",
                "vars": ["x"],
                "f": "x**2",
                "expect": "free",
                "check": "binomial",
                "source": "unparseable on purpose",
            }
        ]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(entries))
        code = main(["corpus", "run", "--path", str(path)])
        out, _ = capsys.readouterr()
        assert code == EXIT_VERIFICATION
        assert "broken-01: FAIL" in out and "error" in out

    def test_duplicate_ids_rejected(self, capsys, tmp_path):
        entry = {
            "id": "dup",
            "vars": ["x"],
            "f": "x",
            "matrix": {"entries": [["x"]]},
            "expect": "free",
            "source": "duplicate id",
        }
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([entry, entry]))
        code = main(["corpus", "run", "--path", str(path)])
        assert code == EXIT_PRECONDITION

    def test_certify_refute_conflict_exits_5(self, capsys, tmp_path, monkeypatch):
        # the detection plumbing is driven with fabricated results, since the
        # honest pipelines cannot certify and refute the same polynomial
        rows = [
            {"id": "a", "ok": True, "expect": "free", "actual": "free",
             "certified": ["x*y"], "refuted": []},
            {"id": "b", "ok": True, "expect": "not_free", "actual": "not_free",
             "certified": [], "refuted": ["x*y"]},
        ]
        monkeypatch.setattr(cli, "_run_entry", lambda entry: rows[entry["n"]])
        path = tmp_path / "corpus.json"
        fields = {"vars": ["x", "y"], "f": "x*y", "expect": "free"}
        path.write_text(json.dumps([{"id": "a", "n": 0, **fields},
                                    {"id": "b", "n": 1, **fields}]))
        code = main(["corpus", "run", "--path", str(path)])
        out, _ = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert "CONFLICT" in out and "cross-consistency: CONFLICT" in out


    def run_corpus(self, capsys, tmp_path, entries):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(entries))
        code = main(["corpus", "run", "--path", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    def test_non_string_matrix_cell_is_an_error_row(self, capsys, tmp_path):
        entry = {"id": "a", "vars": ["x", "y"], "f": "x*y",
                 "matrix": [[1, 0], [0, "y"]], "expect": "free"}
        code, out, _ = self.run_corpus(capsys, tmp_path, [entry])
        assert code == EXIT_VERIFICATION
        assert out.splitlines()[0] == (
            "a: FAIL expect=free actual=error: matrix entries must be strings, got 1"
        )

    @pytest.mark.parametrize("check, field", [
        ("cone", "params"), ("euler3", "field"), ("substitution_reduced", "witness"),
    ])
    def test_missing_check_field_is_an_error_row(self, capsys, tmp_path, check, field):
        entry = {"id": "a", "vars": ["x", "y"], "f": "x^2*y", "expect": "not_free",
                 "check": check}
        if field == "witness":
            entry["params"] = {"factors": ["x", "x"], "outer": {
                "vars": ["y1", "y2"], "f": "y1^2*y2 + y1*y2^2",
                "factors": ["y1", "y2", "y1 + y2"]}}
        code, out, _ = self.run_corpus(capsys, tmp_path, [entry])
        assert code == EXIT_VERIFICATION
        assert out.splitlines()[0] == (
            f"a: FAIL expect=not_free actual=error: missing field {field!r}"
        )

    @pytest.mark.parametrize("entry, message", [
        ({"check": "brieskorn", "params": {"t": 5}},
         "field 't' must be a list of integers, got 5"),
        ({"check": "cone", "params": {"k": 1, "gammas": [0, 1, "q"], "a": 2, "b": 1,
                                      "c": 1, "alphas": ["1"]}},
         "field 'gammas' must be a list of integers, got [0, 1, 'q']"),
        ({"check": "obstruct", "params": None}, "field 'params' must be an object, got None"),
        ({"check": "obstruct", "vars": ["x", "y", "z"], "f": "x^3+y^3+z^3",
          "params": {"assert_smooth": "no"}},
         "field 'assert_smooth' must be a boolean, got 'no'"),
        ({"check": "cone", "params": {"k": 1, "gammas": [0, 1, 1], "a": True, "b": 1,
                                      "c": 1, "alphas": ["1"]}},
         "field 'a' must be an integer, got True"),
        ({"check": "jets", "params": {"vars": ["x0"], "f": "x0", "weights": ["1"], "m": True}},
         "field 'm' must be an integer, got True"),
        ({"check": "iterate", "params": {"vars": ["x"], "f": "x", "weights": ["1"],
                                         "steps": False}},
         "field 'steps' must be an integer, got False"),
        ({"check": "brieskorn", "params": {"t": [2, True]}},
         "field 't' must be a list of integers, got [2, True]"),
        ({"check": "euler3", "field": [0.1, 1, 1]},
         "field 'field' must be a list of rationals, got [0.1, 1, 1]"),
    ])
    def test_check_field_of_wrong_type_is_an_error_row(
        self, capsys, tmp_path, entry, message
    ):
        entry = {"id": "a", "vars": ["x", "y"], "f": "x*y", "expect": "free", **entry}
        code, out, _ = self.run_corpus(capsys, tmp_path, [entry])
        assert code == EXIT_VERIFICATION
        assert out.splitlines()[0] == f"a: FAIL expect=free actual=error: {message}"

    def test_iterate_entry_takes_a_matrix(self, capsys, tmp_path):
        entry = {"id": "a", "vars": ["x", "y", "z1", "z2"],
                 "f": "2*x^3*z1 + 2*x*y^2*z1 + 2*x^2*y*z2 + 2*y^3*z2", "expect": "free",
                 "check": "iterate",
                 "params": {"vars": ["x", "y"], "f": "x^2+y^2", "weights": ["1", "1"],
                            "steps": 1, "matrix": [["x", "-y"], ["y", "x"]]}}
        code, out, _ = self.run_corpus(capsys, tmp_path, [entry])
        assert code == EXIT_OK
        assert out.splitlines()[0] == "a: PASS expect=free actual=free"

    def test_sum_compose_entry_names_a_variable_mismatch(self, capsys, tmp_path):
        entry = {"id": "a", "vars": ["x", "y"], "f": "x*y", "expect": "free",
                 "check": "sum_compose",
                 "params": {"f": {"vars": ["x1", "x2"], "f": "x1*x2", "weights": ["1", "1"]},
                            "g": {"vars": ["y1", "y2"], "f": "y1*y2", "weights": ["1", "1"]}}}
        code, out, _ = self.run_corpus(capsys, tmp_path, [entry])
        assert code == EXIT_VERIFICATION
        assert out.splitlines()[0] == (
            "a: FAIL expect=free actual=error: sum composition variables "
            "('x1', 'x2', 'y1', 'y2') differ from the entry's")

    @pytest.mark.parametrize("entries, message", [
        ([5], "corpus entry 0 is not an object"),
        ([{"id": "a", "vars": ["x"], "f": "x", "expect": "free"},
          {"id": "b", "f": "x", "expect": "free"}],
         "corpus entry 1 has no 'vars' field"),
        ([{"id": "a", "vars": ["x"], "f": "x"}], "corpus entry 0 has no 'expect' field"),
        ([{"id": "a", "vars": "x", "f": "x", "expect": "free"}],
         "corpus entry 0: 'id' and 'f' must be strings, 'vars' a list of strings"),
        ([{"id": "a", "vars": ["x"], "f": "x", "expect": "fre"}],
         "corpus entry 0: 'expect' must be one of free, not_free, inconclusive, got 'fre'"),
    ])
    def test_malformed_entry_rejected_before_any_runs(
        self, capsys, tmp_path, entries, message
    ):
        code, out, err = self.run_corpus(capsys, tmp_path, entries)
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == f"error (precondition): {message}\n"

    def test_unreadable_corpus_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code = main(["corpus", "run", "--path", str(missing)])
        out, err = capsys.readouterr()
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error (parse): cannot read {missing}: No such file or directory\n"


def _golden(name):
    return json.loads((pathlib.Path(__file__).parent / "golden" / name).read_text())


def _assert_golden(capsys, case):
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


GOLDEN = _golden("cli_examples.json")
GOLDEN_PATHS = _golden("cli_paths.json")


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"][:2]) for c in GOLDEN])
def test_golden_output_is_byte_identical(capsys, case):
    # every README example, corpus run, and the classic failure paths
    _assert_golden(capsys, case)


@pytest.mark.parametrize(
    "case", GOLDEN_PATHS, ids=[" ".join(c["argv"][:2]) for c in GOLDEN_PATHS]
)
def test_golden_paths_are_byte_identical(capsys, case):
    # the Euler-frame syzygy fallback, given and missing matrices, matrix
    # decoding failures and precondition failures of the constructions
    _assert_golden(capsys, case)


_JUNK = st.sampled_from(["", ",", "x", "1/0", "-1", "1,,2", "@/nonexistent.json", "[[", "[]"])


def _joined(elements, sep=","):
    return st.lists(elements, min_size=1, max_size=3).map(sep.join)


# small well-formed option text for each parameter kind of the family table
_OPTION_TEXT = {
    cli._INT: st.integers(-1, 2).map(str),
    cli._INTS: _joined(st.integers(-1, 3).map(str)),
    cli._RATIONALS: _joined(st.sampled_from(["1", "2", "1/2", "-1", "0"])),
    cli._NAMES: _joined(st.sampled_from(["x", "y", "z", "x1", "y1", "w"])),
    cli._NAME_GROUPS: _joined(_joined(st.sampled_from(["a", "b", "w"])), ";"),
    cli._STRING: st.sampled_from(
        ["x", "y", "x*y", "x+y", "x^2+y^3", "x*y*z", "x^2*y - y^2*z", "x;y", "x;x*(x+y)",
         "y1;y2;y1+y2"]
    ),
    cli._MATRIX: st.sampled_from([
        DIAG2, '[["x","-y"],["y","x"]]', '[["y1","y1^2"],["y2","-y2^2"]]', '[[1]]',
        '{"entries": [["x"]]}',
    ]),
    cli._STEPS: st.tuples(
        st.integers(0, 3), st.integers(1, 2), st.sampled_from(["1", "-1", "1/2", "0", "1/0"]),
        st.sampled_from(["1", "2"]), st.sampled_from(["z", "w", "x"]),
    ).map(lambda step: ",".join(map(str, step))),
}


@pytest.mark.parametrize("family", list(cli._FAMILIES))
@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_construct_fuzz_ends_in_a_documented_exit(family, data):
    # every option of every row, small values and malformed tokens: each run
    # ends in a documented exit code and, on failure, one error line on
    # stderr (a non-reduced substitution adds its witness and term count)
    argv = ["construct", family]
    for param in cli._FAMILIES[family].params:
        for flag, kind, required, _ in param.options():
            if required or data.draw(st.booleans()):
                argv += [flag, data.draw(st.one_of(_OPTION_TEXT[kind], _JUNK))]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage error
            assert exc.code == 2
            return
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_VERIFICATION, EXIT_INTERNAL)
    if code != EXIT_OK:
        assert "Traceback" not in err.getvalue()
        lines = [l for l in err.getvalue().splitlines()
                 if not l.startswith(("warning: ", "gcd witness: ", "substituted polynomial has "))]
        assert len(lines) == 1, (argv, err.getvalue())


class TestArgparseBehavior:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["parse", "--f", "x", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point_subprocess(self):
        # the child imports the package this process imported, installed or
        # found through pytest's pythonpath setting
        package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "freediv.cli", "parse", "--f", "x*y",
             "--vars", "x,y"],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["f"] == "x*y"
