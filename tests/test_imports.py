"""Import footprint: each command loads only the scipy subpackages it calls.

Every test runs in a fresh interpreter, because sys.modules is shared by
the whole test process.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def test_first_use_binds_the_scipy_function_as_a_module_global():
    # a tracer wraps module globals; a name imported inside a function would
    # never be replaced, and its calls would go uncounted
    same = run_fresh(
        "import json\n"
        "import numpy as np\n"
        "import scipy.integrate, scipy.optimize, scipy.special\n"
        "from kappa_rup import cli, coherent_states, kappa_math, maxent\n"
        "spec = coherent_states.StateSpec(0.2, 1.0)\n"
        "coherent_states.moment_report(spec)\n"
        "kappa_math.log_gamma(2.5)\n"
        "e = np.arange(5.0)\n"
        "sol = maxent.maxent_solve(maxent.MaxEntProblem(e, 1.2, 0.2))\n"
        "maxent.fit_kappa_exponential(sol, e)\n"
        "cli._gibbs_distribution(e, 1.2)\n"
        "print(json.dumps([\n"
        "    coherent_states.quad is scipy.integrate.quad,\n"
        "    kappa_math.gammaln is scipy.special.gammaln,\n"
        "    maxent.minimize_scalar is scipy.optimize.minimize_scalar,\n"
        "    cli.brentq is scipy.optimize.brentq,\n"
        "]))"
    )
    assert same == [True] * 4
