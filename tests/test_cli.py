import json

import numpy as np
import pytest

from mpcc_cert import ParseError
from mpcc_cert.cli import main
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
        assert doc["schema_version"] == 2
        assert doc["feasibility"]["feasible"] is False
        assert doc["index_sets"] is None
        assert doc["tolerances"]["feas_tol"] == 1e-8
        assert list(doc) == ["schema_version", "feasibility", "index_sets", "tolerances"]

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
        assert doc["schema_version"] == 2
        assert doc["verdict"] == "S"
        assert doc["witness"]["mu"] == pytest.approx([1.0], abs=1e-9)
        assert doc["witness"]["nu"] == pytest.approx([1.0], abs=1e-9)

    def test_branch_infeasible_exit_two(self, capsys):
        assert main(["certify", f"{PROBLEMS}/bilinear_descent.json", "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "branch-infeasible"
        assert doc["failed_branch"] == [1]
        assert doc["witness"] is None

    def test_kkt_exit_zero(self, capsys):
        assert main(["certify", f"{PROBLEMS}/kkt_only.json", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "M"
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
        assert doc["oracle"]["m_exists"] is None
        assert "skipped" in doc["oracle"]

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
        ([0.0], 0, "M"), ([1.0], 2, "branch-infeasible")])
    def test_no_constraint_rows(self, tmp_path, capsys, grad_f, code, verdict):
        # no active g, no h and p = 0: every polar LP has zero columns
        path = write_json(tmp_path, "free.json", {
            "mode": "point-data", "n": 1, "l": 1, "m": 0, "p": 0,
            "grad_f": grad_f, "g_vals": [-1.0], "grad_g": [[1.0]]})
        assert main(["certify", path, "--json", "--oracle"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == verdict
        assert doc["oracle"]["consistent_with_verdict"] is True
        assert main(["certify", path]) == code
        assert ("failed branch: alpha=()" in capsys.readouterr().out) == (code == 2)

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
        main(["certify", path, "--json", "--tol", "1e-4", "--cert-tol", "1e-3"])
        assert json.loads(capsys.readouterr().out)["tolerances"]["cert_tol"] == 1e-3

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
