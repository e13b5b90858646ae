"""Import footprint: no command loads scipy, and each runs without it;
bound-alpha, --help and config errors load no numpy, and the package's
names resolve lazily.

Every test of what is loaded runs in a fresh interpreter, because
sys.modules is shared by the whole test process.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import kappa_rup
from kappa_rup.cli import main

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


def modules_after(statements: str, *packages: str) -> list:
    """The loaded modules of these packages after statements, in a fresh interpreter."""
    return run_fresh(
        "import json, sys\n" + statements + "\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))"
    )


def scipy_modules_after(statements: str) -> list:
    return modules_after(statements, "scipy")


def test_package_import_loads_no_scipy():
    assert scipy_modules_after("import kappa_rup, kappa_rup.cli") == []


def test_package_import_loads_no_submodule_and_no_numpy():
    assert modules_after("import kappa_rup", "kappa_rup", "numpy") == ["kappa_rup"]


# the scalar command, the help text and config errors compute nothing with numpy
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--command", "bound-alpha"], 0),
        (["--help"], 0),
        (["--command", "table", "--zeta", "-1"], 1),
        (["--command", "bound-alpha", "--alpha-inverse-uncertainty", "100"], 1),
    ],
    ids=lambda a: " ".join(a) if isinstance(a, list) else str(a),
)
def test_loads_no_numpy(tmp_path, argv, expected):
    out = tmp_path / "out.txt"
    loaded = modules_after(
        "import contextlib, io\n"
        "from kappa_rup.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv + ['--out', str(out)]!r}) == {expected}",
        "numpy",
    )
    assert loaded == []


def test_bound_alpha_runs_with_numpy_blocked(tmp_path):
    blocked, normal = tmp_path / "blocked.json", tmp_path / "normal.json"
    code = run_fresh(
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from kappa_rup.cli import main\n"
        f"print(json.dumps(main(['--command', 'bound-alpha', '--out', {str(blocked)!r}])))"
    )
    assert code == 0
    assert main(["--command", "bound-alpha", "--out", str(normal)]) == 0
    assert blocked.read_bytes() == normal.read_bytes()


def test_public_names_resolve_lazily_to_their_definitions():
    # in a fresh interpreter, so that no name is resolved before dir() is asked
    bad = run_fresh(
        "import json, sys\n"
        "import kappa_rup\n"
        "listed = set(dir(kappa_rup))\n"
        "bad = [n for n in kappa_rup.__all__ if n not in listed]\n"
        "for n in kappa_rup.__all__:\n"
        "    obj = getattr(kappa_rup, n)\n"
        "    if getattr(sys.modules[obj.__module__], n) is not obj or n not in vars(kappa_rup):\n"
        "        bad.append(n)\n"
        "print(json.dumps(bad))"
    )
    assert bad == []


def test_star_import():
    missing = run_fresh(
        "import json\n"
        "from kappa_rup import *\n"
        "import kappa_rup\n"
        "print(json.dumps([n for n in kappa_rup.__all__ if n not in globals()]))"
    )
    assert missing == []


def test_minimal_length_resolves_to_phenomenology_without_numpy():
    assert run_fresh(
        "import json, sys\n"
        "import kappa_rup\n"
        "from kappa_rup import phenomenology\n"
        "print(json.dumps([kappa_rup.minimal_length is phenomenology.minimal_length,\n"
        "                  'numpy' in sys.modules]))"
    ) == [True, False]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        kappa_rup.no_such_name


def public_lists():
    # the __all__ of each kappa_rup module that has one
    modules = (importlib.import_module(f"kappa_rup.{info.name}")
               for info in pkgutil.iter_modules(kappa_rup.__path__))
    return {m.__name__.rpartition(".")[2]: m.__all__ for m in modules if hasattr(m, "__all__")}


@pytest.mark.parametrize("module_name", sorted(set(kappa_rup._ORIGIN.values())))
def test_public_names_have_one_home(module_name):
    # a name in this module's __all__ is in no other module's, and a listed class or
    # function is defined here rather than imported
    lists = public_lists()
    module = importlib.import_module(f"kappa_rup.{module_name}")
    shared = {n: other for other, names in lists.items() if other != module_name
              for n in names if n in lists[module_name]}
    assert shared == {}
    defs = {n: getattr(module, n) for n in lists[module_name]}
    imported = [n for n, obj in defs.items() if (inspect.isclass(obj) or inspect.isfunction(obj))
                and obj.__module__ != module.__name__]
    assert imported == []


def test_package_names_resolve_to_the_module_that_lists_them():
    lists = public_lists()
    assert {n: m for n, m in kappa_rup._ORIGIN.items() if n not in lists.get(m, ())} == {}


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
