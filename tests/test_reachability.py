"""Every public name reaches a command, or says why it does not yet.

The five commands run at their defaults, in process, under sys.setprofile. Each
function and class in kappa_rup.__all__ must be entered on that run (a class when
one of its own methods runs, its dataclass __init__ included), or sit on ALLOWED
with its reason. A name on ALLOWED that the run enters is a stale entry, and so is
one that is not public. The benchmark worker's names must stay public, so that no
retirement breaks it unseen.
"""

import inspect
import os
import re
import sys

import pytest

import kappa_rup
from kappa_rup.cli import EXIT_OK, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("verify", "table", "plot-psi", "bound-alpha", "maxent-demo")

# public names that no default command enters, each with its reason; items are ROADMAP's
ALLOWED = {
    "robertson_bound": "the benchmark worker calls it (perfbench/worker.py)",
    "f_excess": "items 5 and 11: the excess oracle and the state-based bound",
    "second_moment_excess": "items 5 and 11: the excess oracle and the state-based bound",
    **dict.fromkeys(
        ("effective_alpha", "effective_hbar", "gac_match_zeta", "landau_zeta", "minimal_length",
         "putra_bound"),
        "item 4: the construction against the other extensions"),
    **dict.fromkeys(
        ("deformation_f", "ordering_weight", "convert_ordering", "apply_position_operator"),
        "acceptance criterion 13: the ordering algebra"),
    "tail_exponent_estimate": "acceptance criterion 08: the power-law tail",
}


def code_objects(obj) -> set:
    """The code objects whose running enters obj: a function's own (under any decorator
    that keeps __wrapped__), or those of every method a class defines."""
    if inspect.isfunction(obj):
        return {inspect.unwrap(obj).__code__}
    assert inspect.isclass(obj), f"{obj!r} is neither a function nor a class"
    codes = set()
    for member in vars(obj).values():
        for fn in (member, getattr(member, "__func__", None), getattr(member, "fget", None)):
            if inspect.isfunction(fn):
                codes.add(fn.__code__)
    return codes


@pytest.fixture(scope="module")
def entered(tmp_path_factory) -> set:
    """The public names that the five default commands enter."""
    out, calls = tmp_path_factory.mktemp("documents"), set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(["--command", command, "--out", str(out / command)])
                 for command in COMMANDS]
    finally:
        sys.setprofile(previous)
    assert codes == [EXIT_OK] * len(COMMANDS)
    return {name for name in kappa_rup.__all__
            if code_objects(getattr(kappa_rup, name)) & calls}


def test_every_public_name_is_entered_or_allowed(entered):
    unreached = sorted(set(kappa_rup.__all__) - entered - set(ALLOWED))
    assert unreached == [], f"public names that no command enters: {unreached}"


def test_no_allowed_name_is_stale(entered):
    assert sorted(set(ALLOWED) & entered) == [], "entered by a command: drop from ALLOWED"
    assert sorted(set(ALLOWED) - set(kappa_rup.__all__)) == [], "not public: drop from ALLOWED"


def test_benchmark_worker_names_are_public():
    with open(os.path.join(ROOT, "perfbench", "worker.py"), encoding="utf-8") as fh:
        used = set(re.findall(r"\bK\.(\w+)", fh.read()))
    assert used, "perfbench/worker.py names nothing as K.<name>"
    assert sorted(used - set(kappa_rup.__all__)) == []
