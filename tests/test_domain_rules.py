"""The two kappa rules, each written once on KappaParameter, and the ordering
label's one check: every entry point that needs kappa > 0 or kappa < 2/3, or takes
an ordering A, raises a DomainError that names it. Every plain-float zeta or hbar (and
ode_residual's dx and dp) goes through params.positive_float, whose DomainError names
the parameter."""

import math

import numpy as np
import pytest

from kappa_rup.cli import EXIT_CONFIG, main
from kappa_rup.coherent_states import (delta_p, delta_x, f_excess, f_expectation, moment_report,
                                       second_moment, second_moment_excess,
                                       tail_exponent_estimate)
from kappa_rup.deformed_algebra import (ORDER_X1, ORDER_X2, ORDER_X3, GridFunction,
                                        annihilation_residual, apply_position_operator,
                                        commutator_residual, convert_ordering, deformation_f,
                                        ode_residual, ordering_weight, robertson_bound)
from kappa_rup.errors import DomainError
from kappa_rup.kinematics import ParticleFrame, aux_energy
from kappa_rup.params import KappaParameter, StateSpec, as_kappa
from kappa_rup.phenomenology import gac_match_zeta, landau_zeta

# each entry point that needs kappa > 0 (the auxiliary kinematics, the Compton
# fixing, the power-law tail), by the name its error gives
NEEDS_POSITIVE = {
    "ParticleFrame": lambda k: ParticleFrame(1.0, 1.0, k),
    "aux_energy": lambda k: aux_energy(1.0, k),
    "landau_zeta": lambda k: landau_zeta(k, 1.0),
    "gac_match_zeta": lambda k: gac_match_zeta(k, 1.0),
    "tail_exponent_estimate": lambda k: tail_exponent_estimate(StateSpec(k, 1.0)),
}

# each entry point that needs kappa < 2/3 (<p^2> and F(kappa) exist)
NEEDS_MOMENT_SAFE = {
    "second_moment": lambda k: second_moment(StateSpec(k, 1.0)),
    "second_moment_excess": lambda k: second_moment_excess(StateSpec(k, 1.0)),
    "moment_report": lambda k: moment_report(StateSpec(k, 1.0)),
    "delta_p": lambda k: delta_p(StateSpec(k, 1.0)),
    "delta_x": lambda k: delta_x(StateSpec(k, 1.0)),
    "annihilation_residual": lambda k: annihilation_residual(StateSpec(k, 1.0), -8.0, 8.0, 64),
    "f_expectation": f_expectation,
    "f_excess": f_excess,
}

_GRID = GridFunction(-4.0, 4.0, np.exp(-np.square(np.linspace(-4.0, 4.0, 33))))

# each entry point that takes an ordering A
TAKES_ORDERING = {
    "ordering_weight": lambda a: ordering_weight(0.5, a, 0.3, 1.0),
    "convert_ordering from": lambda a: convert_ordering(_GRID, a, ORDER_X3, 0.3, 1.0),
    "convert_ordering to": lambda a: convert_ordering(_GRID, ORDER_X3, a, 0.3, 1.0),
    "apply_position_operator": lambda a: apply_position_operator(_GRID, a, 0.3, 1.0),
}

_TRIAL_F = (np.ones(33), np.zeros(33), np.zeros(33))  # f = 1, ode_residual's rejected trial

# each entry point that takes zeta or hbar (or ode_residual's dx and dp) as a plain float,
# by (entry, parameter)
TAKES_ZETA_OR_HBAR = {
    ("deformation_f", "zeta"): lambda v: deformation_f(1.0, 0.2, v),
    ("ordering_weight", "zeta"): lambda v: ordering_weight(1.0, 0.3, 0.2, v),
    ("convert_ordering", "zeta"): lambda v: convert_ordering(_GRID, ORDER_X1, ORDER_X2, 0.2, v),
    ("apply_position_operator", "zeta"): lambda v: apply_position_operator(_GRID, 0.5, 0.2, v),
    ("apply_position_operator", "hbar"):
        lambda v: apply_position_operator(_GRID, 0.5, 0.2, 1.0, v),
    ("commutator_residual", "zeta"): lambda v: commutator_residual(_GRID, 0.2, v),
    ("commutator_residual", "hbar"): lambda v: commutator_residual(_GRID, 0.2, 1.0, v),
    ("ode_residual", "zeta"):
        lambda v: ode_residual(_GRID.p_values(), 0.2, v, 1.0, 1.0, f_parts=_TRIAL_F),
    ("ode_residual", "hbar"):
        lambda v: ode_residual(_GRID.p_values(), 0.2, 1.0, 1.0, 1.0, v, f_parts=_TRIAL_F),
    ("ode_residual", "dx"):
        lambda v: ode_residual(_GRID.p_values(), 0.2, 1.0, v, 1.0, f_parts=_TRIAL_F),
    ("ode_residual", "dp"):
        lambda v: ode_residual(_GRID.p_values(), 0.2, 1.0, 1.0, v, f_parts=_TRIAL_F),
    # without f_parts, dp is held to the dx it gives (StateSpec.delta_x_for)
    ("ode_residual without f_parts", "dx"):
        lambda v: ode_residual(_GRID.p_values(), 0.2, 1.0, v, 1.0),
    ("robertson_bound", "hbar"): lambda v: robertson_bound(1.2, v),
}


@pytest.mark.parametrize("kappa", [0.0, 5e-324])  # a subnormal kappa is stored as 0
@pytest.mark.parametrize("name", sorted(NEEDS_POSITIVE))
def test_kappa_positive_rule(name, kappa):
    with pytest.raises(DomainError, match=rf"^{name} requires kappa > 0, got kappa=0\.0$"):
        NEEDS_POSITIVE[name](kappa)


@pytest.mark.parametrize("kappa", [2.0 / 3.0, 0.9])
@pytest.mark.parametrize("name", sorted(NEEDS_MOMENT_SAFE))
def test_kappa_moment_safe_rule(name, kappa):
    with pytest.raises(DomainError, match=rf"^{name} requires kappa < 2/3, got kappa={kappa!r}$"):
        NEEDS_MOMENT_SAFE[name](kappa)


@pytest.mark.parametrize("kappa", [0.7, 2.0 / 3.0])
def test_verify_turns_the_moment_rule_into_a_config_error(capsys, kappa):
    assert main(["--command", "verify", "--kappa", repr(kappa)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: verify requires kappa < 2/3, got kappa={kappa!r}\n"


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, True])
@pytest.mark.parametrize("entry,name", sorted(TAKES_ZETA_OR_HBAR), ids="{}".format)
def test_zeta_and_hbar_must_be_positive_floats(entry, name, value):
    # not a bare math domain error, ZeroDivisionError or RuntimeWarning, nor a value
    with pytest.raises(DomainError, match=rf"^{name} must be > 0, got "):
        TAKES_ZETA_OR_HBAR[entry, name](value)


@pytest.mark.parametrize("kappa", [5e-324, 0.3, math.nextafter(2.0 / 3.0, 0.0)])
def test_the_rules_return_the_value(kappa):
    value = KappaParameter(kappa).value
    assert KappaParameter(kappa).require_moment_safe("x") == value
    if value > 0.0:
        assert KappaParameter(kappa).require_positive("x") == value


def test_orderings_are_plain_floats():
    assert [(type(a), a) for a in (ORDER_X1, ORDER_X2, ORDER_X3)] == [
        (float, 0.0), (float, 1.0), (float, 0.5)]


@pytest.mark.parametrize("a", [1.2, -0.1, math.nan])
@pytest.mark.parametrize("name", sorted(TAKES_ORDERING))
def test_ordering_outside_zero_one_is_rejected(name, a):
    with pytest.raises(DomainError, match=rf"^ordering parameter must lie in \[0, 1\], got "):
        TAKES_ORDERING[name](a)


@pytest.mark.parametrize("value", ["x", None, "0.3", False, [0.3], np.array(0.3)])
@pytest.mark.parametrize("entry", [KappaParameter, as_kappa])
def test_kappa_that_is_not_a_real_number_is_rejected(entry, value):
    # as positive_float does: a real number, not a bool, else the range check's DomainError
    with pytest.raises(DomainError, match=r"^kappa must satisfy 0 <= kappa < 1, got "):
        entry(value)


@pytest.mark.parametrize("a", ["x", None, True])
def test_ordering_that_is_not_a_real_number_is_rejected(a):
    with pytest.raises(DomainError, match=r"^ordering parameter must lie in \[0, 1\], got "):
        ordering_weight(0.0, a, 0.3, 1.0)
