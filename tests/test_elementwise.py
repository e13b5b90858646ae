"""Scalar/array contract of the public elementwise functions.

A scalar argument (Python float, numpy scalar or 0-d array) gives a
Python float; a 1-d array gives an ndarray of the same shape.
"""

import numpy as np
import pytest

from kappa_rup.coherent_states import psi
from kappa_rup.deformed_algebra import deformation_f, ode_residual, ordering_weight
from kappa_rup.kappa_math import kappa_exp, kappa_log
from kappa_rup.kinematics import aux_energy
from kappa_rup.params import StateSpec

SPEC = StateSpec(0.2, 1.3)

FUNCTIONS = {
    "kappa_exp": lambda x: kappa_exp(x, 0.3),
    "kappa_log": lambda x: kappa_log(x, 0.3),
    "psi": lambda x: psi(x, SPEC),
    "deformation_f": lambda x: deformation_f(x, 0.3, 1.2),
    "ordering_weight": lambda x: ordering_weight(x, 0.25, 0.3, 1.2),
    "ode_residual": lambda x: ode_residual(x, 0.3, 1.2, 0.8, 0.9),
    "aux_energy": lambda x: aux_energy(x, 0.3),
}

SCALARS = {"float": 1.5, "float64": np.float64(1.5), "0-d array": np.array(1.5)}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_scalar_and_array_shapes(name):
    fn = FUNCTIONS[name]
    for kind, x in SCALARS.items():
        assert type(fn(x)) is float, kind
    out = fn(np.array([0.5, 1.5, 2.5]))
    assert isinstance(out, np.ndarray)
    assert out.shape == (3,)
    assert out[1] == fn(1.5)
