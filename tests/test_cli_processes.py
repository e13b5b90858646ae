"""Edge cases of the command line, each in a fresh ``python -m kappa_rup.cli`` process:
the exit code, what reaches stderr, and no traceback or numpy warning."""

import os
import subprocess
import sys

import pytest

from kappa_rup.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_OK

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli(cwd, *args, warnings_are_errors=False):
    """(exit code, stderr) of one fresh process run in cwd."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    flags = ["-W", "error::RuntimeWarning"] if warnings_are_errors else []
    proc = subprocess.run([sys.executable, *flags, "-m", "kappa_rup.cli", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("args", [
    ["--out", "no-such-dir/x.json"],                 # an unwritable --out
    ["--config", "not-utf8.json"],                   # a config file that is not UTF-8
    ["--alpha-inverse-uncertainty", "100"],          # a resolution past alpha / 2
])
def test_bound_alpha_config_errors(tmp_path, args):
    (tmp_path / "not-utf8.json").write_bytes(b'{"zeta": "\xff"}')
    code, err = cli(tmp_path, "--command", "bound-alpha", *args)
    assert code == EXIT_CONFIG
    assert err.splitlines()[0].startswith("config error: ")
    assert "Traceback" not in err


def test_table_integral_past_the_float_range(tmp_path):
    # <p^2> ~ 3e309: an error line, and neither a traceback nor a numpy warning
    code, err = cli(tmp_path, "--command", "table", "--kappa", "0.6666", "--zeta", "2.3e-306")
    assert code == EXIT_FAIL
    assert err.splitlines()[0].startswith("error: ")
    assert "Traceback" not in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("hbar", ["1e160", "1e-160"])
def test_verify_far_from_unit_hbar(tmp_path, hbar):
    # the residuals are free of hbar: every check runs, nothing on stderr
    assert cli(tmp_path, "--command", "verify", "--hbar", hbar, "--out", "v.json") == (EXIT_OK, "")


@pytest.mark.parametrize("scale", ["1e-200", "1e200"])
def test_verify_hbar_zeta_past_the_float_range(tmp_path, scale):
    # hbar zeta is 1e-400 or 1e400 while dx is in range; any RuntimeWarning is an error
    assert cli(tmp_path, "--command", "verify", "--hbar", scale, "--zeta", scale,
               "--out", "v.json", warnings_are_errors=True) == (EXIT_OK, "")


@pytest.mark.parametrize("scale", ["1e-200", "1e200"])
def test_table_hbar_zeta_past_the_float_range(tmp_path, scale):
    # dx = hbar (zeta (1 - k^2) dp) is in range: all seven default kappas are ok
    assert cli(tmp_path, "--command", "table", "--hbar", scale, "--zeta", scale,
               "--out", "t.csv") == (EXIT_OK, "")
    rows = (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()
    assert sum(row.endswith(",ok") for row in rows) == 7
