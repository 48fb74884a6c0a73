import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mpcc_cert.cli
import mpcc_cert.model
from mpcc_cert import NumericalFailure, ParseError
from mpcc_cert.cli import build_parser, main
from mpcc_cert.problemfile import load_multipliers, load_problem

PROBLEMS = "problems"


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestProblemFile:
    def test_affine_round_trip(self):
        problem = load_problem(f"{PROBLEMS}/bilinear_min.json")
        assert problem.mode == "affine"
        assert problem.data.p == 1
        assert np.array_equal(problem.data.grad_f, [1.0, 1.0])

    def test_point_data_round_trip(self):
        problem = load_problem(f"{PROBLEMS}/kkt_only.json")
        assert problem.mode == "point-data"
        assert problem.data.l == 1 and problem.data.p == 0

    def test_unknown_field_named_in_error(self, tmp_path):
        path = write_json(tmp_path, "bad.json", {
            "mode": "point-data", "n": 1, "l": 0, "m": 0, "p": 0,
            "grad_f": [1.0], "grad_ff": [1.0]})
        with pytest.raises(ParseError, match="grad_ff"):
            load_problem(path)

    def test_missing_field_named_in_error(self, tmp_path):
        path = write_json(tmp_path, "bad.json", {"mode": "affine", "c": [1.0]})
        with pytest.raises(ParseError, match="x_bar"):
            load_problem(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_problem(str(path))

    def test_quadratic_objective_at_nonzero_point(self, tmp_path, capsys):
        path = write_json(tmp_path, "quad.json", {
            "mode": "affine",
            "Q": [[2.0, 0.0], [0.0, 2.0]],
            "c": [-2.0, 1.0],
            "A_G": [[1.0, 0.0]], "b_G": [-1.0],
            "A_H": [[0.0, 1.0]], "b_H": [0.0],
            "x_bar": [1.0, 0.0]})
        assert main(["certify", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "S"
        assert doc["witness"]["nu"] == pytest.approx([1.0], abs=1e-9)

    def test_tolerances_block(self, tmp_path):
        path = write_json(tmp_path, "tol.json", {
            "mode": "point-data", "n": 1, "l": 0, "m": 0, "p": 0,
            "grad_f": [0.0], "tolerances": {"cert_tol": 1e-5}})
        problem = load_problem(path)
        assert problem.tolerances.cert_tol == 1e-5

    # one well-formed file of each kind, every numeric field present
    WELL_FORMED = {
        "point-data": {
            "mode": "point-data", "n": 1, "l": 1, "m": 1, "p": 1,
            "grad_f": [0.0], "g_vals": [-1.0], "grad_g": [[1.0]], "h_vals": [0.0],
            "grad_h": [[0.0]], "G_vals": [0.0], "grad_G": [[0.0]], "H_vals": [1.0],
            "grad_H": [[0.0]], "tolerances": {"active_tol": 1e-8, "feas_tol": 1e-8,
                                              "solver_tol": 1e-9, "cert_tol": 1e-7}},
        "affine": {
            "mode": "affine", "Q": [[0.0]], "c": [0.0], "A_g": [[1.0]], "b_g": [-1.0],
            "A_h": [[0.0]], "b_h": [0.0], "A_G": [[0.0]], "b_G": [0.0], "A_H": [[0.0]],
            "b_H": [1.0], "x_bar": [0.0]},
        "multipliers": {"lambda": [0.0], "eta": [0.0], "mu": [0.0], "nu": [0.0]},
    }
    NUMERIC_FIELDS = [
        (kind, key) for kind, doc in WELL_FORMED.items() for key, value in doc.items()
        if isinstance(value, list)] + [
        ("point-data", f"tolerances.{key}") for key in WELL_FORMED["point-data"]["tolerances"]]

    @pytest.mark.parametrize("bad", ["0.0", True], ids=["string", "true"])
    @pytest.mark.parametrize("kind, key", NUMERIC_FIELDS,
                             ids=[f"{kind}-{key}" for kind, key in NUMERIC_FIELDS])
    def test_numeric_fields_take_numbers_only(self, tmp_path, capsys, kind, key, bad):
        # numpy and float() would turn "0.0" and true into numbers; every
        # numeric field must reject them, naming the field
        docs = json.loads(json.dumps(self.WELL_FORMED))
        target = docs[kind]
        if key.startswith("tolerances."):
            target, key = target["tolerances"], key[len("tolerances."):]
        field = target[key]
        if not isinstance(field, list):
            target[key] = bad
        elif isinstance(field[0], list):
            field[0][0] = bad
        else:
            field[0] = bad
        if kind == "multipliers":
            argv = ["check", write_json(tmp_path, "problem.json", docs["point-data"]),
                    write_json(tmp_path, "mult.json", docs[kind])]
        else:
            argv = ["certify", write_json(tmp_path, "problem.json", docs[kind])]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}'" in err

    @pytest.mark.parametrize("field", ["grad_f", "tolerances"])
    def test_integer_too_large_for_a_float_exit_one(self, tmp_path, capsys, field):
        doc = json.loads(json.dumps(self.WELL_FORMED["point-data"]))
        if field == "grad_f":
            doc["grad_f"] = [10 ** 400]
        else:
            doc["tolerances"]["cert_tol"] = 10 ** 400
        assert main(["certify", write_json(tmp_path, "problem.json", doc)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_multiplier_length_check(self, tmp_path):
        problem = load_problem(f"{PROBLEMS}/bilinear_min.json")
        path = write_json(tmp_path, "mult.json", {"mu": [1.0, 2.0], "nu": [1.0]})
        with pytest.raises(ParseError):
            load_multipliers(path, problem.data)


class TestClassifyCommand:
    def test_feasible_exit_zero(self, capsys):
        assert main(["classify", f"{PROBLEMS}/bilinear_min.json"]) == 0
        out = capsys.readouterr().out
        assert "I^00 = {1}" in out
        assert "feasible: yes" in out

    def test_infeasible_exit_two(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad_point.json", {
            "mode": "point-data", "n": 1, "l": 0, "m": 0, "p": 1,
            "grad_f": [0.0], "G_vals": [1.0], "grad_G": [[0.0]],
            "H_vals": [1.0], "grad_H": [[0.0]]})
        assert main(["classify", path]) == 2
        out = capsys.readouterr().out
        assert "complementarity" in out
        assert "feas_tol 1e-08" in out.splitlines()[0]
        assert "I^00" not in out
        assert main(["classify", path, "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 3
        assert doc["feasibility"]["feasible"] is False
        assert doc["index_sets"] is None
        assert doc["tolerances"]["feas_tol"] == 1e-8
        assert list(doc) == ["schema_version", "feasibility", "index_sets", "tolerances"]

    @pytest.mark.parametrize("name", ["bilinear_min", "bilinear_descent", "kkt_only", "m_not_s"])
    def test_one_feasibility_check(self, monkeypatch, capsys, name):
        calls = [0]
        real = mpcc_cert.model.check_feasibility

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        # both bindings: the command's own and the one classify_indices uses
        monkeypatch.setattr(mpcc_cert.cli, "check_feasibility", counting)
        monkeypatch.setattr(mpcc_cert.model, "check_feasibility", counting)
        assert main(["classify", f"{PROBLEMS}/{name}.json", "--json"]) == 0
        assert calls[0] == 1
        assert json.loads(capsys.readouterr().out)["feasibility"]["feasible"] is True

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = write_json(tmp_path, "typo.json", {
            "mode": "point-data", "n": 1, "l": 0, "m": 0, "p": 0,
            "grad_f": [0.0], "grad_ff": [0.0]})
        assert main(["classify", path]) == 1
        assert "grad_ff" in capsys.readouterr().err


class TestCertifyCommand:
    def test_s_certificate_exit_zero(self, capsys):
        assert main(["certify", f"{PROBLEMS}/bilinear_min.json", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 3
        assert doc["verdict"] == "S"
        assert doc["combiner"] is None
        assert doc["witness"]["mu"] == pytest.approx([1.0], abs=1e-9)
        assert doc["witness"]["nu"] == pytest.approx([1.0], abs=1e-9)

    def test_branch_infeasible_exit_two(self, capsys):
        assert main(["certify", f"{PROBLEMS}/bilinear_descent.json", "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "branch-infeasible"
        assert doc["failed_branch"] == [1]
        assert doc["witness"] is None

    def test_kkt_exit_zero(self, capsys):
        # no biactive index: the S sign conditions are vacuous
        assert main(["certify", f"{PROBLEMS}/kkt_only.json", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "S"
        assert doc["combiner"] is None
        assert doc["witness"]["lambda"] == pytest.approx([1.0], abs=1e-9)

    def test_infeasible_point_exit_three(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad_point.json", {
            "mode": "point-data", "n": 1, "l": 0, "m": 0, "p": 1,
            "grad_f": [0.0], "G_vals": [1.0], "grad_G": [[0.0]],
            "H_vals": [1.0], "grad_H": [[0.0]]})
        assert main(["certify", path]) == 3

    def test_branch_cap_exit_five(self, tmp_path):
        doc = {
            "mode": "point-data", "n": 3, "l": 0, "m": 0, "p": 3,
            "grad_f": [0.0, 0.0, 0.0],
            "G_vals": [0.0] * 3, "grad_G": np.eye(3).tolist(),
            "H_vals": [0.0] * 3, "grad_H": np.eye(3)[::-1].tolist()}
        path = write_json(tmp_path, "cap.json", doc)
        assert main(["certify", path, "--branch-cap", "2"]) == 5
        assert main(["certify", path]) == 0

    def test_oracle_budget_degrades_gracefully(self, tmp_path, capsys, monkeypatch):
        import mpcc_cert.cli as cli
        from mpcc_cert import PatternBudgetExceeded

        def exploding(*args, **kwargs):
            raise PatternBudgetExceeded("too many biactive indices")

        monkeypatch.setattr(cli, "oracle_m_exists", exploding)
        assert main(["certify", f"{PROBLEMS}/bilinear_min.json",
                     "--oracle", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "S"
        assert doc["oracle"] == {
            "m_exists": None, "witness": None, "eps": 1e-6,
            "consistent_with_verdict": None, "skipped": "too many biactive indices"}
        assert list(doc["oracle"]) == [
            "m_exists", "witness", "eps", "consistent_with_verdict", "skipped"]

    def test_numerical_failure_exit_four(self, capsys, monkeypatch):
        def breaking(*args, **kwargs):
            raise NumericalFailure("pivot lost")

        monkeypatch.setattr(mpcc_cert.cli, "certify_m_stationarity", breaking)
        assert main(["certify", f"{PROBLEMS}/bilinear_min.json", "--json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: numerical failure: pivot lost\n"

    def test_oracle_failure_exit_four(self, capsys, monkeypatch):
        def breaking(*args, **kwargs):
            raise NumericalFailure("pivot lost")

        monkeypatch.setattr(mpcc_cert.cli, "oracle_m_exists", breaking)
        assert main(["certify", f"{PROBLEMS}/bilinear_min.json", "--oracle", "--json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: oracle failed: pivot lost\n"

    def test_oracle_section_agrees(self, capsys):
        assert main(["certify", f"{PROBLEMS}/m_not_s.json", "--oracle", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "M"
        assert doc["oracle"]["m_exists"] is True
        assert doc["oracle"]["consistent_with_verdict"] is True

    def test_branch_table_sorted(self, capsys):
        main(["certify", f"{PROBLEMS}/bilinear_min.json", "--json"])
        doc = json.loads(capsys.readouterr().out)
        alphas = [tuple(rec["alpha"]) for rec in doc["branches"]]
        assert alphas == sorted(alphas)

    def test_report_schema_keys(self, capsys):
        main(["certify", f"{PROBLEMS}/bilinear_min.json", "--json", "--oracle"])
        doc = json.loads(capsys.readouterr().out)
        assert list(doc.keys()) == [
            "schema_version", "verdict", "witness", "failed_branch",
            "index_sets", "branches", "combiner", "residuals", "tolerances",
            "oracle", "timing"]
        assert list(doc["oracle"].keys()) == [
            "m_exists", "witness", "eps", "consistent_with_verdict"]

    @pytest.mark.parametrize("grad_f, code, verdict", [
        ([0.0], 0, "S"), ([1.0], 2, "branch-infeasible")])
    def test_no_constraint_rows(self, tmp_path, capsys, grad_f, code, verdict):
        # no active g, no h and p = 0: every polar LP has zero columns
        path = write_json(tmp_path, "free.json", {
            "mode": "point-data", "n": 1, "l": 1, "m": 0, "p": 0,
            "grad_f": grad_f, "g_vals": [-1.0], "grad_g": [[1.0]]})
        assert main(["certify", path, "--json", "--oracle"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == verdict
        assert doc["combiner"] is None
        assert doc["oracle"]["consistent_with_verdict"] is True
        assert main(["certify", path]) == code
        assert ("failed branch: alpha=()" in capsys.readouterr().out) == (code == 2)

    def test_integral_float_dimensions_accepted(self, tmp_path, capsys):
        doc = {"mode": "point-data", "n": 1, "l": 1, "m": 0, "p": 0,
               "grad_f": [0.0], "g_vals": [-1.0], "grad_g": [[1.0]]}
        reports = []
        for name in ("int.json", "float.json"):
            assert main(["certify", write_json(tmp_path, name, doc), "--json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
            reports[-1].pop("timing")
            doc.update(n=1.0, l=1.0, m=0.0, p=0.0)
        assert reports[0] == reports[1]
        assert main(["classify", write_json(tmp_path, "float.json", doc)]) == 0

    @pytest.mark.parametrize("command", ["certify", "classify"])
    @pytest.mark.parametrize("bad", [1.5, True])
    def test_non_integral_dimension_exit_one(self, tmp_path, capsys, command, bad):
        path = write_json(tmp_path, "dims.json", {
            "mode": "point-data", "n": 1, "l": bad, "m": 0, "p": 0,
            "grad_f": [0.0], "g_vals": [-1.0], "grad_g": [[1.0]]})
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "l must be a nonnegative integer" in err

    def test_tolerance_flags_override_file(self, tmp_path, capsys):
        path = write_json(tmp_path, "tol.json", {
            "mode": "point-data", "n": 1, "l": 0, "m": 0, "p": 0,
            "grad_f": [0.0], "tolerances": {"cert_tol": 1e-5, "feas_tol": 1e-6}})
        main(["certify", path, "--json"])
        assert json.loads(capsys.readouterr().out)["tolerances"] == {
            "active_tol": 1e-8, "feas_tol": 1e-6, "solver_tol": 1e-9, "cert_tol": 1e-5}
        main(["certify", path, "--json", "--tol", "1e-4", "--solver-tol", "1e-10"])
        tol = json.loads(capsys.readouterr().out)["tolerances"]
        assert (tol["cert_tol"], tol["solver_tol"], tol["feas_tol"]) == (1e-4, 1e-10, 1e-6)

    def test_tol_and_cert_tol_exclusive(self, capsys):
        # --tol is shorthand for --cert-tol; given both, one was silently dropped
        path = f"{PROBLEMS}/bilinear_min.json"
        assert main(["certify", path, "--json", "--tol", "1e-4", "--cert-tol", "1e-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --tol and --cert-tol are mutually exclusive")

    def test_determinism_modulo_timing(self, capsys):
        main(["certify", f"{PROBLEMS}/m_not_s.json", "--json", "--oracle"])
        first = json.loads(capsys.readouterr().out)
        main(["certify", f"{PROBLEMS}/m_not_s.json", "--json", "--oracle"])
        second = json.loads(capsys.readouterr().out)
        first.pop("timing")
        second.pop("timing")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestCheckCommand:
    def run_check(self, tmp_path, capsys, mult, require=None):
        path = write_json(tmp_path, "mult.json", mult)
        argv = ["check", f"{PROBLEMS}/bilinear_min.json", path, "--json"]
        if require:
            argv += ["--require", require]
        code = main(argv)
        return code, json.loads(capsys.readouterr().out)

    def test_s_witness_meets_s(self, tmp_path, capsys):
        code, doc = self.run_check(tmp_path, capsys, {"mu": [1.0], "nu": [1.0]}, "s")
        assert code == 0 and doc["class"] == "S"

    def test_m_witness_fails_s_requirement(self, tmp_path, capsys):
        # gradient requires mu = nu = 1 here, so craft data-free check via zero grads
        path_problem = write_json(tmp_path, "free.json", {
            "mode": "point-data", "n": 1, "l": 0, "m": 0, "p": 1,
            "grad_f": [0.0], "G_vals": [0.0], "grad_G": [[0.0]],
            "H_vals": [0.0], "grad_H": [[0.0]]})
        path_mult = write_json(tmp_path, "mult.json", {"mu": [0.0], "nu": [-5.0]})
        assert main(["check", path_problem, path_mult, "--require", "s"]) == 2
        capsys.readouterr()
        assert main(["check", path_problem, path_mult, "--require", "m", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"] == "M"

    def test_a_witness_fails_m_requirement(self, tmp_path, capsys):
        path_problem = write_json(tmp_path, "free.json", {
            "mode": "point-data", "n": 1, "l": 0, "m": 0, "p": 1,
            "grad_f": [0.0], "G_vals": [0.0], "grad_G": [[0.0]],
            "H_vals": [0.0], "grad_H": [[0.0]]})
        path_mult = write_json(tmp_path, "mult.json", {"mu": [0.5], "nu": [-0.5]})
        assert main(["check", path_problem, path_mult, "--require", "m"]) == 2
        capsys.readouterr()
        assert main(["check", path_problem, path_mult, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"] == "A"

    @pytest.mark.parametrize("mult, field", [
        ({"lambda": [1.0], "mu": [1.0], "nu": [1.0]}, "'lambda' must have length 0, got 1"),
        ({"eta": [1.0, 2.0], "mu": [1.0], "nu": [1.0]}, "'eta' must have length 0, got 2"),
        ({"mu": [1.0, 2.0], "nu": [1.0, 2.0]}, "'mu' must have length 1, got 2"),
        ({"mu": [], "nu": []}, "'mu' must have length 1, got 0"),
    ])
    def test_wrong_multiplier_length_exit_one(self, tmp_path, capsys, mult, field):
        path = write_json(tmp_path, "mult.json", mult)
        assert main(["check", f"{PROBLEMS}/bilinear_min.json", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    def test_system_violation_exit_six(self, tmp_path, capsys):
        code, _ = 0, None
        path = write_json(tmp_path, "mult.json", {"mu": [5.0], "nu": [5.0]})
        code = main(["check", f"{PROBLEMS}/bilinear_min.json", path])
        assert code == 6

    def test_round_trip_certify_then_check(self, tmp_path, capsys):
        assert main(["certify", f"{PROBLEMS}/m_not_s.json", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        mult_path = write_json(tmp_path, "witness.json", doc["witness"])
        assert main(["check", f"{PROBLEMS}/m_not_s.json", mult_path,
                     "--require", "m", "--json"]) == 0
        check_doc = json.loads(capsys.readouterr().out)
        assert check_doc["class"] in ("M", "S")


class TestFrontDoor:
    @pytest.mark.parametrize("argv, flag", [
        (["classify", "{p}", "--feas-tol", "-1"], "--feas-tol: feas_tol"),
        (["certify", "{p}", "--cert-tol", "-1"], "--cert-tol: cert_tol"),
        (["certify", "{p}", "--solver-tol", "nan"], "--solver-tol: solver_tol"),
        (["certify", "{p}", "--tol", "inf"], "--tol: cert_tol"),
        (["check", "{p}", "{m}", "--active-tol", "-1"], "--active-tol: active_tol"),
    ])
    def test_invalid_tolerance_flag_exit_one(self, tmp_path, capsys, argv, flag):
        mult = write_json(tmp_path, "mult.json", {"mu": [1.0], "nu": [1.0]})
        argv = [a.format(p=f"{PROBLEMS}/bilinear_min.json", m=mult) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must be a nonnegative finite number")

    @pytest.mark.parametrize("argv, message", [
        (["certify", "{p}", "--tol", "abc"],
         "mpcc-cert certify: error: argument --tol: invalid float value: 'abc'"),
        (["certify"], "mpcc-cert certify: error: the following arguments are required: problem"),
        (["check", "{p}"], "mpcc-cert check: error: the following arguments are required"),
        ([], "mpcc-cert: error: the following arguments are required: command"),
        (["verify", "{p}"], "mpcc-cert: error: argument command: invalid choice: 'verify'"),
        (["classify", "{p}", "--oracle"], "mpcc-cert: error: unrecognized arguments: --oracle"),
        (["certify", "{p}", "--branch-cap", "-1"], "mpcc-cert certify: error: argument "
         "--branch-cap: expected a nonnegative integer, got '-1'"),
        (["certify", "{p}", "--branch-cap", "two"], "mpcc-cert certify: error: argument "
         "--branch-cap: expected a nonnegative integer, got 'two'"),
    ])
    def test_usage_error_exit_one(self, capsys, argv, message):
        # exit 2 would read as certify's "branch infeasible"
        with pytest.raises(SystemExit) as exc:
            main([a.format(p=f"{PROBLEMS}/bilinear_min.json") for a in argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: mpcc-cert")
        assert captured.err.splitlines()[-1].startswith(message)

    @pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"]])
    def test_help_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mpcc-cert")

    def test_one_parser_per_process(self, monkeypatch, capsys):
        assert build_parser() is build_parser()
        parsers = []
        real = argparse.ArgumentParser.parse_known_args

        def recording(self, *args, **kwargs):
            if self.prog == "mpcc-cert":
                parsers.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
        main(["classify", f"{PROBLEMS}/bilinear_min.json"])
        main(["certify", f"{PROBLEMS}/bilinear_min.json"])
        capsys.readouterr()
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_module_entry_point(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "mpcc_cert.cli", *argv], cwd=root,
                                  env=env, capture_output=True, text=True, timeout=120)

        done = run("certify", "problems/bilinear_min.json", "--json")
        assert done.returncode == 0
        assert json.loads(done.stdout)["verdict"] == "S"
        done = run("certify", str(tmp_path / "missing.json"))
        assert done.returncode == 1
        assert done.stdout == "" and done.stderr.startswith("error: cannot read")
        done = run("certify", "problems/bilinear_min.json", "--tol", "abc")
        assert done.returncode == 1
        assert done.stdout == "" and "error: argument --tol" in done.stderr
        done = run("certify")
        assert done.returncode == 1
        assert done.stdout == "" and "error: the following arguments are required" in done.stderr
        assert run("--help").returncode == 0
