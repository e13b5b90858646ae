"""Import footprint: no command loads scipy, and each runs without it.

Every test runs in a fresh interpreter, because sys.modules is shared by
the whole test process.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# each command at its defaults, and verify and table at kappas of their own
COMMANDS = [
    ["--command", "verify"],
    ["--command", "verify", "--kappa", "0,0.01,0.2,0.65"],
    ["--command", "table"],
    ["--command", "table", "--kappa", "1e-5,0.45,0.66,0.7"],
    ["--command", "plot-psi"],
    ["--command", "bound-alpha"],
    ["--command", "maxent-demo"],
]


def run_fresh(code: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def scipy_modules_after(statements: str) -> list:
    return run_fresh(
        "import json, sys\n" + statements + "\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    )


def test_package_import_loads_no_scipy():
    assert scipy_modules_after("import kappa_rup, kappa_rup.cli") == []


@pytest.mark.parametrize(
    "command, forbidden",
    [
        ("bound-alpha", ("scipy",)),
        ("plot-psi", ("scipy",)),
    ],
)
def test_command_loads_only_the_scipy_it_calls(tmp_path, command, forbidden):
    out = tmp_path / "out.txt"
    loaded = scipy_modules_after(
        "from kappa_rup.cli import main\n"
        f"assert main(['--command', {command!r}, '--out', {str(out)!r}]) == 0"
    )
    assert [m for m in loaded if any(m == f or m.startswith(f + ".") for f in forbidden)] == []


# the commands that called scipy before the numpy-only quadrature and solvers
@pytest.mark.parametrize(
    "argv", [a for a in COMMANDS if a[1] not in ("bound-alpha", "plot-psi")], ids=" ".join
)
def test_command_loads_no_scipy(tmp_path, argv):
    out = tmp_path / "out.txt"
    loaded = scipy_modules_after(
        "from kappa_rup.cli import main\n"
        f"assert main({argv + ['--out', str(out)]!r}) == 0"
    )
    assert loaded == []


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_runs_with_scipy_blocked(tmp_path, argv):
    # a None entry in sys.modules makes every scipy import raise ImportError
    out = tmp_path / "out.txt"
    code = run_fresh(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from kappa_rup.cli import main\n"
        f"print(json.dumps(main({argv + ['--out', str(out)]!r})))"
    )
    assert code == 0
    assert out.stat().st_size > 0
