import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from kappa_rup.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_OK, _f17, _gibbs_distribution, main
from kappa_rup.coherent_states import normalization_constant, psi
from kappa_rup.params import KappaParameter, StateSpec

from oracles import gibbs_reference

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(tmp_path, *args, name="out.txt"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return meta, header, rows


class TestVerify:
    def test_default_passes(self, tmp_path):
        code, text = run(tmp_path, "--command", "verify")
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["all_passed"] is True
        names = {c["check_name"] for c in doc["checks"]}
        assert {
            "normalization",
            "moment_agreement",
            "saturation_identity",
            "saturation_quadrature",
            "ode_residual",
            "annihilation_convergence",
            "commutator_convergence",
            "kinematics",
            "maxent_gibbs",
            "maxent_kkt",
        } <= names
        assert all(c["status"] == "pass" for c in doc["checks"])

    @pytest.mark.parametrize("tol", [None, 1e-3])
    def test_check_table_order(self, tmp_path, tol):
        # the document lists the checks in one fixed order; --tol replaces each
        # "<=" tolerance and leaves both ">=" floors at 12
        args = ["--command", "verify"] + ([] if tol is None else ["--tol", repr(tol)])
        code, text = run(tmp_path, *args)
        assert code == EXIT_OK
        table = [
            ("normalization", "<=", 1e-8),
            ("moment_agreement", "<=", 1e-6),
            ("saturation_identity", "<=", 1e-9),
            ("saturation_quadrature", "<=", 1e-6),
            ("ode_residual", "<=", 1e-9),
            ("annihilation_convergence", ">=", 12.0),
            ("commutator_convergence", ">=", 12.0),
            ("kinematics", "<=", 1e-12),
            ("maxent_gibbs", "<=", 1e-10),
            ("maxent_kkt", "<=", 1e-10),
        ]
        expected = [(name, cmp, tol if tol is not None and cmp == "<=" else t) for name, cmp, t in table]
        checks = json.loads(text)["checks"]
        assert [(c["check_name"], c["comparator"], c["tolerance"]) for c in checks] == expected

    def test_ode_residual_is_evaluated_at_kappa_zero(self, tmp_path):
        # the Gaussian state solves the minimum-uncertainty ODE to rounding, not by fiat
        code, text = run(tmp_path, "--command", "verify", "--kappa", "0")
        assert code == EXIT_OK
        checks = {c["check_name"]: c for c in json.loads(text)["checks"]}
        assert 0.0 < checks["ode_residual"]["measured"] <= 1e-9

    def test_ode_residual_fails_at_kappa_zero(self, tmp_path, monkeypatch):
        from kappa_rup import deformed_algebra

        monkeypatch.setattr(deformed_algebra, "ode_residual", lambda p, *args: np.ones_like(p))
        code, text = run(tmp_path, "--command", "verify", "--kappa", "0")
        assert code == EXIT_FAIL
        failing = {c["check_name"] for c in json.loads(text)["checks"] if c["status"] == "fail"}
        assert failing == {"ode_residual"}

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_measurement_not_finite_is_null_and_fails(self, tmp_path, monkeypatch, bad):
        from kappa_rup import deformed_algebra

        monkeypatch.setattr(deformed_algebra, "ode_residual", lambda p, *args: np.full_like(p, bad))
        code, text = run(tmp_path, "--command", "verify", "--kappa", "0")
        assert code == EXIT_FAIL
        assert "NaN" not in text and "Infinity" not in text
        checks = {c["check_name"]: c for c in json.loads(text, parse_constant=_reject_constant)["checks"]}
        assert checks["ode_residual"]["measured"] is None
        assert [name for name, c in checks.items() if c["status"] == "fail"] == ["ode_residual"]

    def test_unattainable_tolerance_fails(self, tmp_path):
        code, text = run(tmp_path, "--command", "verify", "--tol", "1e-20")
        assert code == EXIT_FAIL
        doc = json.loads(text)
        failing = [c["check_name"] for c in doc["checks"] if c["status"] == "fail"]
        assert failing  # named failing checks present
        # normalization can read exactly 0; the <p^2> agreement stays at rounding level
        assert "moment_agreement" in failing

    def test_shifted_normalization_fails(self, tmp_path, monkeypatch):
        # an N^2 off by a factor e^(1e-9) shows in the quadrature's total probability,
        # at a tolerance that the unshifted N^2 meets
        from kappa_rup import coherent_states

        assert run(tmp_path, "--command", "verify", "--tol", "1e-13")[0] == EXIT_OK
        ln_n2 = coherent_states._LN_N2
        monkeypatch.setattr(coherent_states, "_LN_N2", lambda k: ln_n2(k) + 1e-9)
        code, text = run(tmp_path, "--command", "verify", "--tol", "1e-13")
        assert code == EXIT_FAIL
        checks = {c["check_name"]: c for c in json.loads(text)["checks"]}
        assert checks["normalization"]["status"] == "fail"
        assert checks["normalization"]["measured"] == pytest.approx(1e-9, rel=1e-6)

    def test_saturation_identity_catches_a_wrong_f_weight(self, tmp_path, monkeypatch):
        # f without its k^2 q^2 term: <f> no longer equals 2 zeta (1 - k^2) <p^2>
        from kappa_rup import coherent_states

        def log_f_without_linear_term(x, two_w, k, out, s):  # x = k q^2, capped
            if k == 0.0:
                out[...] = 0.0
            else:
                out[...] = np.maximum(np.log(np.hypot(1.0, x)), two_w + math.log(k))

        monkeypatch.setattr(coherent_states, "_log_f_at_logq", log_f_without_linear_term)
        code, text = run(tmp_path, "--command", "verify")
        assert code == EXIT_FAIL
        checks = {c["check_name"]: c for c in json.loads(text)["checks"]}
        assert checks["saturation_identity"]["status"] == "fail"
        assert checks["saturation_identity"]["measured"] > 1e-3

    @pytest.mark.parametrize("zeta", ["1e300", "1e-300"])
    def test_extreme_zeta_meets_a_tight_tolerance(self, tmp_path, zeta):
        # the quadrature integrates at zeta = 1 and scales once, so no check loses digits
        code, text = run(tmp_path, "--command", "verify", "--zeta", zeta, "--tol", "1e-13")
        assert code == EXIT_OK
        assert json.loads(text)["all_passed"] is True

    @pytest.mark.parametrize("tol", [1e-3, 20.0])
    def test_tol_leaves_the_stencil_order_floors(self, tmp_path, tol):
        # --tol replaces each "<=" tolerance; the ">=" convergence ratios keep 12
        code, text = run(tmp_path, "--command", "verify", "--tol", repr(tol))
        assert code == EXIT_OK
        checks = json.loads(text)["checks"]
        floors = {c["check_name"]: c["tolerance"] for c in checks if c["comparator"] == ">="}
        assert floors == {"annihilation_convergence": 12.0, "commutator_convergence": 12.0}
        assert all(c["tolerance"] == tol for c in checks if c["comparator"] == "<=")
        assert all(c["status"] == "pass" for c in checks)

    def test_loose_tol_still_fails_a_broken_stencil(self, tmp_path, monkeypatch):
        # residuals that do not shrink with the grid: ratio 1, far below 12
        # verify imports the verifiers when it runs, so patch them where they live
        from kappa_rup import deformed_algebra

        monkeypatch.setattr(deformed_algebra, "annihilation_residual", lambda *args: 0.5)
        monkeypatch.setattr(deformed_algebra, "commutator_residual", lambda *args: 0.5)
        code, text = run(tmp_path, "--command", "verify", "--tol", "1e-3")
        assert code == EXIT_FAIL
        failing = {c["check_name"] for c in json.loads(text)["checks"] if c["status"] == "fail"}
        assert failing == {"annihilation_convergence", "commutator_convergence"}

    @pytest.mark.parametrize("hbar", ["1e-300", "1e-160", "1e160", "1e300"])
    def test_extreme_hbar_runs_every_check(self, tmp_path, capsys, hbar):
        # every residual is free of hbar: none overflows or divides by zero
        code, text = run(tmp_path, "--command", "verify", "--hbar", hbar)
        assert (code, json.loads(text)["all_passed"]) == (EXIT_OK, True)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("scale", ["1e-200", "1e200"])
    def test_hbar_zeta_past_the_float_range_runs_every_check(self, tmp_path, capsys, scale):
        # hbar zeta is 1e-400 or 1e400, but dx = hbar (zeta (1 - k^2) dp) is in range
        code, text = run(tmp_path, "--command", "verify", "--hbar", scale, "--zeta", scale)
        assert (code, json.loads(text)["all_passed"]) == (EXIT_OK, True)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("zeta", ["2.3e-306", "2.2250738585072017e-306"])
    def test_smallest_zeta_in_a_fresh_process_passes(self, zeta):
        # the grids reach |p| ~ 2.7e155, where p^2 would overflow: any RuntimeWarning is
        # an error, and the process exits 0 with an empty stderr
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "kappa_rup.cli",
                               "--command", "verify", "--zeta", zeta],
                              env=env, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        assert json.loads(proc.stdout)["all_passed"] is True

    def test_convergence_is_the_same_bits_for_every_zeta_and_hbar(self, tmp_path):
        # both convergence checks run on the unit state, so neither zeta nor hbar moves a bit
        names = ("annihilation_convergence", "commutator_convergence")
        measured = set()
        for zeta in ("1", "2.3e-306", "1e-300", "7.3", "1e300"):
            for hbar in ("1", "1e-150"):
                _, text = run(tmp_path, "--command", "verify", "--zeta", zeta, "--hbar", hbar)
                checks = json.loads(text)["checks"]
                measured.add(tuple(c["measured"] for c in checks if c["check_name"] in names))
        assert len(measured) == 1 and None not in next(iter(measured))

    @pytest.mark.parametrize("command", ["verify", "table"])
    @pytest.mark.parametrize("hbar, zeta", [("1e-310", "1"), ("1e300", "1e300")])
    def test_dx_past_the_float_range_exits_2(self, tmp_path, capsys, command, hbar, zeta):
        # dx = hbar zeta (1 - k^2) dp is subnormal or infinite: one error line, no document
        code, text = run(tmp_path, "--command", command, "--hbar", hbar, "--zeta", zeta)
        assert (code, text) == (EXIT_FAIL, "")
        err = capsys.readouterr().err
        assert err.startswith("error: dx = ") and err.count("\n") == 1

    def test_unsafe_kappa_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "--command", "verify", "--kappa", "0.9")
        assert code == EXIT_CONFIG

    def test_invalid_kappa_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "--command", "verify", "--kappa", "1.5")
        assert code == EXIT_CONFIG


class TestTable:
    def test_gaussian_row(self, tmp_path):
        code, text = run(tmp_path, "--command", "table", "--kappa", "0")
        assert code == EXIT_OK
        meta, header, rows = parse_csv(text)
        assert header[0] == "kappa" and header[-1] == "status"
        row = dict(zip(header, rows[0]))
        assert float(row["p2_closed"]) == 0.5
        assert abs(float(row["p2_quad"]) - 0.5) < 1e-9
        assert float(row["delta_p"]) == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert float(row["delta_x"]) == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert float(row["F_closed"]) == 1.0
        assert abs(float(row["F_quad"]) - 1.0) < 1e-9
        assert row["status"] == "ok"

    def test_ratio_column_equals_f(self, tmp_path):
        code, text = run(tmp_path, "--command", "table")
        assert code == EXIT_OK
        _, header, rows = parse_csv(text)
        for cells in rows:
            row = dict(zip(header, cells))
            if row["status"] != "ok":
                continue
            assert float(row["dxdp_over_halfhbar"]) == pytest.approx(
                float(row["F_closed"]), rel=1e-12
            )

    def test_ratio_column_at_a_subnormal_hbar(self, tmp_path):
        # 0.5 hbar rounds to 0 here; dx / hbar does not
        code, text = run(tmp_path, "--command", "table", "--hbar", "5e-324", "--zeta", "1e300")
        assert code == EXIT_OK
        _, header, rows = parse_csv(text)
        for row in (dict(zip(header, cells)) for cells in rows):
            assert row["status"] == "ok"
            assert float(row["dxdp_over_halfhbar"]) == pytest.approx(
                float(row["F_closed"]), rel=1e-14
            )

    @pytest.mark.parametrize("scale", ["1e-200", "1e200"])
    def test_dx_in_range_where_hbar_zeta_is_not(self, tmp_path, capsys, scale):
        # hbar zeta is 1e-400 or 1e400, but dx = hbar (zeta (1 - k^2) dp) ~ 7e-301 or 7e299
        code, text = run(tmp_path, "--command", "table", "--hbar", scale, "--zeta", scale)
        assert code == EXIT_OK and capsys.readouterr().err == ""
        _, header, rows = parse_csv(text)
        assert [dict(zip(header, cells))["status"] for cells in rows] == ["ok"] * 7

    def test_domain_edge_rows(self, tmp_path):
        code, text = run(tmp_path, "--command", "table", "--kappa", "0.2,0.65,0.7")
        assert code == EXIT_OK
        _, header, rows = parse_csv(text)
        by_kappa = {float(cells[0]): dict(zip(header, cells)) for cells in rows}
        ok_row = by_kappa[0.65]
        assert ok_row["status"] == "ok"
        assert math.isfinite(float(ok_row["p2_closed"]))
        assert abs(float(ok_row["p2_quad"]) / float(ok_row["p2_closed"]) - 1.0) < 1e-6
        err_row = by_kappa[0.7]
        assert err_row["status"].startswith("error")
        assert err_row["p2_closed"] == ""

    def test_self_consistency_closed_vs_quad(self, tmp_path):
        code, text = run(tmp_path, "--command", "table", "--kappa", "0.2")
        _, header, rows = parse_csv(text)
        row = dict(zip(header, rows[0]))
        assert abs(float(row["p2_quad"]) / float(row["p2_closed"]) - 1.0) < 1e-6
        assert abs(float(row["F_quad"]) / float(row["F_closed"]) - 1.0) < 1e-6


class TestPlotPsi:
    def test_curves(self, tmp_path):
        code, text = run(
            tmp_path, "--command", "plot-psi", "--kappa", "0,0.2,0.4",
            "--grid-min", "-8", "--grid-max", "8", "--grid-n", "321",
        )
        assert code == EXIT_OK
        meta, header, rows = parse_csv(text)
        assert header == ["p", "psi_k0", "psi_k1", "psi_k2"]
        data = np.array([[float(v) for v in row] for row in rows])
        p = data[:, 0]
        mid = np.argmin(np.abs(p))
        # psi(0) = N(kappa)
        for j, k in enumerate((0.0, 0.2, 0.4)):
            n_ref = normalization_constant(StateSpec(KappaParameter(k), 1.0))
            assert data[mid, 1 + j] == pytest.approx(n_ref, rel=1e-13)
        # kappa = 0 column is the plain Gaussian
        gauss = (1.0 / math.pi) ** 0.25 * np.exp(-0.5 * p**2)
        assert np.max(np.abs(data[:, 1] - gauss)) < 1e-12
        # beyond the crossover the power tails win, monotonically in kappa
        tail = np.argmin(np.abs(p - 5.0))
        assert data[tail, 1] < data[tail, 2] < data[tail, 3]

    def test_rows_are_per_element_f17(self, tmp_path):
        code, text = run(
            tmp_path, "--command", "plot-psi", "--kappa", "0,0.3,0.6",
            "--grid-min", "-3.3", "--grid-max", "7.1", "--grid-n", "37",
        )
        assert code == EXIT_OK
        p = np.linspace(-3.3, 7.1, 37)
        curves = [psi(p, StateSpec(KappaParameter(k), 1.0)) for k in (0.0, 0.3, 0.6)]
        expected = [[_f17(p[j])] + [_f17(curve[j]) for curve in curves] for j in range(p.size)]
        assert parse_csv(text)[2] == expected

    def test_bad_grid_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "--command", "plot-psi", "--grid-min", "5", "--grid-max", "-5")
        assert code == EXIT_CONFIG


class TestBoundAlpha:
    def test_paper_defaults(self, tmp_path):
        code, text = run(tmp_path, "--command", "bound-alpha")
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["alpha_inverse"] == 137.035999206
        assert 1e-6 < doc["bound_kappa"] < 1e-4
        assert 1e-4 < doc["bound_kappa_sqrt_zeta"] < 1e-2

    def test_sqrt_law(self, tmp_path):
        _, base_text = run(tmp_path, "--command", "bound-alpha", name="a.json")
        _, doubled_text = run(
            tmp_path, "--command", "bound-alpha",
            "--alpha-inverse-uncertainty", "2.2e-8", name="b.json",
        )
        base = json.loads(base_text)
        doubled = json.loads(doubled_text)
        assert doubled["bound_kappa"] / base["bound_kappa"] == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )

    def test_meta_echoes_config(self, tmp_path):
        _, text = run(tmp_path, "--command", "bound-alpha", "--characteristic-momentum", "5e-3")
        doc = json.loads(text)
        assert doc["meta"]["config"]["pheno"]["characteristic_momentum"] == 5e-3
        assert doc["characteristic_momentum"] == 5e-3

    def test_resolution_past_half_of_alpha_is_config_error(self, tmp_path, capsys):
        # 100 / 137.036: a resolution past the largest shift alpha / 2 bounds nothing
        code, text = run(tmp_path, "--command", "bound-alpha", "--alpha-inverse-uncertainty", "100")
        assert code == EXIT_CONFIG
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    def test_hbar_c_is_no_pheno_key(self, tmp_path, capsys):
        # nothing reads hbar c, so a config file cannot set it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pheno": {"hbar_c_mev_fm": 197.3}}))
        code, text = run(tmp_path, "--command", "bound-alpha", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert text == ""
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith("config error:") and "hbar_c_mev_fm" in first


class TestMaxentDemo:
    def test_classical_demo(self, tmp_path):
        code, text = run(tmp_path, "--command", "maxent-demo", "--kappa", "0")
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["problem"]["kappa"] == 0.0
        assert doc["fit"]["max_residual"] < 1e-10
        assert abs(sum(doc["solution"]["distribution"]) - 1.0) < 1e-12

    def test_symmetric_demo_uniform(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"maxent": {"energies": [0.0, 1.0, 2.0], "mean_energy": 1.0, "kappa": 0.3}}
            )
        )
        code, text = run(tmp_path, "--command", "maxent-demo", "--config", str(cfg))
        assert code == EXIT_OK
        doc = json.loads(text)
        assert np.allclose(doc["solution"]["distribution"], 1.0 / 3.0, atol=1e-12)

    def test_default_deformed_demo(self, tmp_path):
        code, text = run(tmp_path, "--command", "maxent-demo")
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["problem"]["kappa"] == 0.2
        assert doc["solution"]["kkt_residual"] < 1e-10

    def test_infeasible_mean_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"maxent": {"energies": [0.0, 1.0], "mean_energy": 5.0, "kappa": 0.2}})
        )
        code = main(["--command", "maxent-demo", "--config", str(cfg)])
        assert code == EXIT_CONFIG

    def test_bad_tolerance_is_config_error(self, tmp_path):
        assert main(["--command", "table", "--tol", "1e-20"]) == EXIT_CONFIG

    def test_tol_changes_only_the_echo(self, tmp_path):
        # the solver has one fixed target: a tol is echoed and read by nothing
        _, plain = run(tmp_path, "--command", "maxent-demo", name="a.json")
        code, loose = run(tmp_path, "--command", "maxent-demo", "--tol", "1e-2", name="b.json")
        assert code == EXIT_OK
        plain, loose = json.loads(plain), json.loads(loose)
        assert loose.pop("meta")["config"]["tol"] == 1e-2
        assert plain.pop("meta")["config"]["tol"] is None
        assert loose == plain

    def test_solver_failure_exits_2_without_a_document(self, tmp_path, monkeypatch, capsys):
        from kappa_rup import maxent

        monkeypatch.setattr(maxent, "_SOLVE_MAX_ITER", 0)
        code, text = run(tmp_path, "--command", "maxent-demo")
        assert (code, text) == (EXIT_FAIL, "")
        assert not (tmp_path / "out.txt").exists()
        assert capsys.readouterr().err.startswith("maxent solver failed: ")


class TestConfigHandling:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kappas": [0.15], "zeta": 2.0}))
        _, text = run(tmp_path, "--command", "table", "--config", str(cfg))
        meta, _, rows = parse_csv(text)
        assert meta["config"]["kappa"] == [0.15]
        assert meta["config"]["zeta"] == 2.0
        assert len(rows) == 1

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kappas": [0.15], "zeta": 2.0}))
        _, text = run(
            tmp_path, "--command", "table", "--config", str(cfg), "--zeta", "0.5"
        )
        meta, _, _ = parse_csv(text)
        assert meta["config"]["zeta"] == 0.5
        assert meta["config"]["kappa"] == [0.15]

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        cfg = tmp_path / "env-cfg.json"
        cfg.write_text(json.dumps({"kappas": [0.25]}))
        monkeypatch.setenv("KAPPA_RUP_CONFIG", str(cfg))
        _, text = run(tmp_path, "--command", "table")
        meta, _, _ = parse_csv(text)
        assert meta["config"]["kappa"] == [0.25]

    def test_missing_config_file(self, tmp_path):
        code = main(["--command", "table", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG

    def test_unknown_command_usage_error(self):
        assert main(["--command", "bogus"]) == EXIT_CONFIG

    def test_missing_command_usage_error(self):
        assert main([]) == EXIT_CONFIG

    def test_json_only_command_rejects_csv(self, tmp_path):
        code = main(["--command", "verify", "--format", "csv"])
        assert code == EXIT_CONFIG

    def test_csv_only_command_rejects_json(self, tmp_path, capsys):
        code, text = run(tmp_path, "--command", "table", "--format", "json")
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err.startswith("kappa-rup: error: unrecognized arguments: ")

    @pytest.mark.parametrize("command, fmt", [("verify", "json"), ("table", "csv"),
                                              ("plot-psi", "csv"), ("bound-alpha", "json"),
                                              ("maxent-demo", "json")])
    def test_format_is_no_setting(self, tmp_path, capsys, command, fmt):
        # each command emits one format, so neither a flag nor the file names it,
        # not even the command's own
        code, text = run(tmp_path, "--command", command, "--format", fmt)
        assert (code, text) == (EXIT_CONFIG, "")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": fmt}))
        code, text = run(tmp_path, "--command", command, "--config", str(cfg))
        assert (code, text) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err.endswith("config error: unknown config keys in the file: "
                                                "['format']\n")

    @pytest.mark.parametrize("command, fmt", [("plot-psi", "csv"), ("bound-alpha", "json")])
    def test_echo_records_the_format(self, tmp_path, command, fmt):
        _, text = run(tmp_path, "--command", command)
        meta = json.loads(text.splitlines()[0][2:]) if fmt == "csv" else json.loads(text)["meta"]
        assert meta["config"]["format"] == fmt

    def test_bad_kappa_list(self):
        assert main(["--command", "table", "--kappa", "a,b"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, file_cfg",
        [
            ("table", {"zeta": "abc"}),
            ("plot-psi", {"grid": {"n": "x"}}),
            ("plot-psi", {"grid": 5}),
            ("table", {"kappas": 0.2}),
            ("table", {"kappas": []}),
            ("bound-alpha", {"pheno": [1]}),
            ("verify", {"tol": "x"}),
            ("bound-alpha", {"out": ["x"]}),
            ("maxent-demo", {"maxent": 5}),
            ("maxent-demo", {"maxent": {"energies": ["a", 1]}}),
            ("maxent-demo", {"maxent": {"mean_energy": "x"}}),
            ("plot-psi", {"grid": {"n": 1e30}}),
            ("plot-psi", {"grid": {"n": 2.5}}),
            ("plot-psi", {"format": "json"}),
            # numbers are JSON numbers: no strings, no true/false
            ("table", {"zeta": "2"}),
            ("table", {"hbar": True}),
            ("maxent-demo", {"maxent": {"kappa": "0.3", "mean_energy": True}}),
            ("bound-alpha", {"pheno": {"hbar": True}}),
            # and finite: json.dumps writes Infinity and NaN
            ("table", {"zeta": math.inf}),
            ("plot-psi", {"grid": {"max": math.nan}}),
            ("table", {"kappas": [math.nan]}),
            ("verify", {"tol": math.inf}),
            ("maxent-demo", {"maxent": {"energies": [0.0, math.inf]}}),
            ("plot-psi", {"grid": {"n": 10**400}}),
            ("bound-alpha", {"pheno": {"alpha_inverse": 10**400}}),
            # a finite grid whose span overflows
            ("plot-psi", {"grid": {"min": -1e308, "max": 1e308}}),
            # unknown keys, at the top level and in every section; a document's
            # own metadata says "kappa" where the file says "kappas"
            ("table", {"kappa": [0.15]}),
            ("plot-psi", {"grid": {"nn": 5}}),
            ("maxent-demo", {"maxent": {"levels": 3}}),
            ("bound-alpha", {"pheno": {"bogus": 1.0}}),
        ],
    )
    def test_malformed_config_value_is_config_error(self, tmp_path, capsys, command, file_cfg):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        assert main(["--command", command, "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ("--command", "plot-psi", "--grid-max", "inf"),
            ("--command", "bound-alpha", "--tol", "inf"),
            ("--command", "table", "--zeta", "nan"),
        ],
    )
    def test_non_finite_flag_is_config_error(self, tmp_path, capsys, args):
        code, text = run(tmp_path, *args)
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "command, file_cfg",
        [
            # 400/zeta, the <p^2> of a state at kappa ~ 0.6663, overflows
            ("table", {"zeta": 1e-320}),
            ("verify", {"zeta": 1e-307}),
            # bohr_radius = hbar / characteristic_momentum overflows
            ("bound-alpha", {"pheno": {"characteristic_momentum": 1e-320}}),
            # the conversion momentum m c, and with it the bound, overflows
            ("bound-alpha", {"pheno": {"zeta_fixing": "landau", "electron_mass": 1e308, "c": 10.0}}),
        ],
    )
    def test_overflowing_config_is_config_error(self, tmp_path, capsys, command, file_cfg):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        code, text = run(tmp_path, "--command", command, "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"zeta": "\xff"}')
        code, text = run(tmp_path, "--command", "table", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err.startswith("config error: ")

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.json"
        assert main(["--command", "bound-alpha", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert captured.out == ""
        assert not out.parent.exists()

    def test_integers_where_floats_go(self, tmp_path):
        # JSON integers are numbers too; the echo holds them as floats
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kappas": [0], "zeta": 2, "grid": {"min": -4, "n": 41}}))
        code, text = run(tmp_path, "--command", "plot-psi", "--config", str(cfg))
        assert code == EXIT_OK
        meta, _, _ = parse_csv(text)
        assert meta["config"]["kappa"] == [0.0]
        assert meta["config"]["zeta"] == 2.0 and isinstance(meta["config"]["zeta"], float)
        assert meta["config"]["grid"] == {"min": -4.0, "max": 8.0, "n": 41}
        assert isinstance(meta["config"]["grid"]["min"], float)


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("--command", "table"),
            ("--command", "plot-psi"),
            ("--command", "bound-alpha"),
            ("--command", "maxent-demo"),
            ("--command", "verify"),
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, args):
        _, first = run(tmp_path, *args, name="first.txt")
        _, second = run(tmp_path, *args, name="second.txt")
        assert first == second
        assert first.endswith("\n")
        assert "\r" not in first


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("command", ["verify", "table", "plot-psi", "bound-alpha", "maxent-demo"])
def test_documents_are_strict_json(tmp_path, command):
    # Infinity and NaN are not JSON: every metadata line and JSON document
    # parses with them refused, and every number in a CSV body is finite
    code, text = run(tmp_path, "--command", command)
    assert code == EXIT_OK
    if text.startswith("# "):
        json.loads(text.splitlines()[0][2:], parse_constant=_reject_constant)
        _, header, rows = parse_csv(text)
        for row in rows:
            for name, cell in zip(header, row):
                if name != "status" and cell:
                    json.loads(cell, parse_constant=_reject_constant)
                    assert math.isfinite(float(cell)), (name, cell)
    else:
        json.loads(text, parse_constant=_reject_constant)


def test_a_number_not_finite_is_an_error_not_a_token(tmp_path, monkeypatch, capsys):
    import dataclasses

    from kappa_rup import cli

    bound = cli.kappa_bound
    monkeypatch.setattr(cli, "kappa_bound",
                        lambda pheno: dataclasses.replace(bound(pheno), bound_kappa=math.nan))
    code, text = run(tmp_path, "--command", "bound-alpha")
    assert (code, text) == (EXIT_FAIL, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "strict JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["table", "verify"])
def test_default_documents_repeat_across_processes(command):
    # two fresh interpreters print the same bytes: no value rests on memory that a
    # run leaves unwritten, such as a row of the quadrature's stacked integrand array
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    outputs = [subprocess.run([sys.executable, "-m", "kappa_rup.cli", "--command", command],
                              env=env, capture_output=True, timeout=120, check=True).stdout
               for _ in range(2)]
    assert outputs[0] and outputs[0] == outputs[1]


class TestTableStatus:
    def test_default_rows_are_ok(self, tmp_path):
        code, text = run(tmp_path, "--command", "table")
        assert code == EXIT_OK
        _, header, rows = parse_csv(text)
        assert [dict(zip(header, cells))["status"] for cells in rows] == ["ok"] * len(rows)

    def test_closed_form_below_one_is_not_ok(self, tmp_path, monkeypatch):
        # the closed form keeps F >= 1, so a broken one is injected
        from kappa_rup import coherent_states

        monkeypatch.setattr(coherent_states, "f_expectation", lambda kappa: 1.0 - 1e-12)
        code, text = run(tmp_path, "--command", "table", "--kappa", "1e-5")
        assert code == EXIT_OK
        _, header, rows = parse_csv(text)
        row = dict(zip(header, rows[0]))
        assert float(row["F_closed"]) < 1.0
        assert row["status"] != "ok"

    def test_closed_vs_quadrature_gap_is_not_ok(self, tmp_path, monkeypatch):
        # a closed <p^2> 1% high: the gap is reported in the row, not as an exit code
        from kappa_rup import coherent_states

        second_moment = coherent_states.second_moment
        monkeypatch.setattr(coherent_states, "second_moment",
                            lambda spec: 1.01 * second_moment(spec))
        code, text = run(tmp_path, "--command", "table", "--kappa", "0.2")
        assert code == EXIT_OK
        _, header, rows = parse_csv(text)
        assert dict(zip(header, rows[0]))["status"] == "fail: closed-vs-quadrature gap 0.0099"

    @pytest.mark.parametrize("kappa", ["1e-6", "1e-5", "1.8e-5"])
    def test_paper_regime_reads_ok(self, tmp_path, kappa):
        code, text = run(tmp_path, "--command", "table", "--kappa", kappa)
        assert code == EXIT_OK
        _, header, rows = parse_csv(text)
        row = dict(zip(header, rows[0]))
        assert float(row["F_closed"]) > 1.0
        assert row["status"] == "ok"


def test_quadrature_nonconvergence_exits_2(monkeypatch, capsys):
    from kappa_rup import coherent_states

    # capped at its first level that may stop, the rule cannot meet 1e-10
    monkeypatch.setattr(coherent_states, "_MAX_LEVEL", coherent_states._MIN_LEVEL)
    assert main(["--command", "table", "--kappa", "0.2"]) == EXIT_FAIL
    assert "did not converge" in capsys.readouterr().err


def test_overflowing_integral_exits_2_at_once(tmp_path, capsys):
    # <p^2> ~ 9e308: the closed form raises before any quadrature, with an
    # error, not a numpy warning or an inf in the table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, "--command", "table", "--kappa", "0.6666", "--zeta", "2.3e-306")
    assert (code, text) == (EXIT_FAIL, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflowed" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "energies, mean",
    [(np.arange(5.0), 1.2), (np.arange(5.0), 2.0), (np.arange(5.0), 3.9),
     (np.random.default_rng(3).uniform(-4.0, 6.0, 40), 0.1)],
)
def test_gibbs_bisection_matches_oracle(energies, mean):
    gap = np.max(np.abs(_gibbs_distribution(energies, mean) - gibbs_reference(energies, mean)))
    assert gap <= 1e-14
