"""Span tracer that measures kappa_rup's layers from outside the program.

``Tracer.install`` replaces every module-level binding of each layer's
public functions, and of the scipy entry points the layers call, with a
wrapper that records one span per call: name, start, end, parent span
and operation id. Spans stay in memory until ``write``; ``layer_metrics``
derives calls, inclusive time and self time (a span's duration minus
that of its direct children) from the span tree.

Nothing is wrapped unless ``install`` is called, so untraced runs pay
nothing.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from collections import defaultdict

LAYERS = ("kappa_math", "coherent_states", "deformed_algebra", "kinematics",
          "maxent", "phenomenology", "cli")
SCIPY_ENTRY_POINTS = (("scipy.integrate", "quad"), ("scipy.special", "gammaln"),
                      ("scipy.optimize", "minimize_scalar"), ("scipy.optimize", "brentq"))
CLOSED_FORMS = tuple(f"coherent_states.{name}" for name in (
    "normalization_constant", "second_moment", "delta_p", "delta_x", "f_expectation"))


def _quad_probe(args, result):
    # the library calls quad(fn, a, b, ..., full_output=1); the tail runs to +inf
    value, abserr, info = result[0], result[1], result[2]
    rel = abserr / abs(value) if value else 0.0
    return {"neval": int(info["neval"]), "rel_abserr": rel, "tail": math.isinf(args[2])}


# spans of these names also record a value taken from their arguments or result
PROBES = {
    "scipy.quad": _quad_probe,
    "scipy.minimize_scalar": lambda args, res: {"nfev": int(res.nfev)},
    "maxent.maxent_solve": lambda args, res: {"kkt": float(res.kkt_residual)},
    # computed, not measured: input plus output samples of the stencil
    "deformed_algebra.apply_position_operator":
        lambda args, res: {"bytes": int(args[0].samples.nbytes + res.samples.nbytes)},
}


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, op id, probe dict or None)
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, None)
            if probe is not None:
                spans[idx] = spans[idx][:5] + (probe(args, result),)
            return result

        return traced

    def install(self):
        """Wrap every binding, in the package and in each layer module."""
        package = importlib.import_module("kappa_rup")
        modules = [importlib.import_module(f"kappa_rup.{layer}") for layer in LAYERS]
        targets = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        for module_name, attr in SCIPY_ENTRY_POINTS:
            obj = getattr(importlib.import_module(module_name), attr)
            targets[id(obj)] = (obj, f"scipy.{attr}")
        wrappers = {key: self._wrap(obj, name) for key, (obj, name) in targets.items()}
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, probe) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op,
                                     "probe": probe}) + "\n")


def layer_metrics(spans: list, cli_commands=()) -> dict:
    """Per-layer metrics of one traced pass (see NOTES.md for each name)."""
    n = len(spans)
    child_ns = [0] * n
    in_quad = [False] * n          # some ancestor is a quad call
    in_integral = [False] * n      # some ancestor is expectation_quadrature
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            pname = spans[parent][0]
            in_quad[i] = in_quad[parent] or pname == "scipy.quad"
            in_integral[i] = (in_integral[parent]
                              or pname == "coherent_states.expectation_quadrature")

    calls = defaultdict(int)
    self_s = defaultdict(float)
    cli_self_s = defaultdict(float)
    closed_self = 0.0
    norm_in_integral = 0
    quad = {"core": [0, 0.0], "tail": [0, 0.0]}
    max_rel_abserr = 0.0
    nfev = 0
    kkt_max = 0.0
    computed_bytes = 0
    for i, (name, start, end, parent, op, probe) in enumerate(spans):
        own = (end - start - child_ns[i]) * 1e-9
        calls[name] += 1
        self_s[name] += own
        if name in CLOSED_FORMS and not in_quad[i]:
            closed_self += own
        if name == "coherent_states.normalization_constant" and in_integral[i]:
            norm_in_integral += 1
        if name.startswith("cli.") and 0 <= op < len(cli_commands):
            cli_self_s[cli_commands[op]] += own
        if probe is None:
            continue
        if name == "scipy.quad":
            part = quad["tail" if probe["tail"] else "core"]
            part[0] += probe["neval"]
            part[1] += (end - start) * 1e-9
            max_rel_abserr = max(max_rel_abserr, probe["rel_abserr"])
        elif name == "scipy.minimize_scalar":
            nfev += probe["nfev"]
        elif name == "maxent.maxent_solve":
            kkt_max = max(kkt_max, probe["kkt"])
        elif name == "deformed_algebra.apply_position_operator":
            computed_bytes += probe["bytes"]

    integrals = calls["coherent_states.expectation_quadrature"]
    out = {
        "kappa_math.log_gamma.calls": calls["kappa_math.log_gamma"],
        "kappa_math.log_gamma.self_s": self_s["kappa_math.log_gamma"],
        "kappa_math.kappa_exp.self_s": self_s["kappa_math.kappa_exp"],
        "kappa_math.kappa_log.self_s": self_s["kappa_math.kappa_log"],
        "coherent_states.closed.self_s": closed_self,
        "coherent_states.normalization_constant.calls":
            calls["coherent_states.normalization_constant"],
        "coherent_states.normalization_constant.calls_per_integral":
            norm_in_integral / integrals if integrals else 0.0,
        "coherent_states.quad.core.evals": quad["core"][0],
        "coherent_states.quad.core.busy_s": quad["core"][1],
        "coherent_states.quad.tail.evals": quad["tail"][0],
        "coherent_states.quad.tail.busy_s": quad["tail"][1],
        "coherent_states.pdf.calls": calls["coherent_states.pdf"],
        "coherent_states.quad.max_rel_abserr": max_rel_abserr,
        "coherent_states.psi.self_s": self_s["coherent_states.psi"],
        "deformed_algebra.apply_position_operator.calls":
            calls["deformed_algebra.apply_position_operator"],
        "deformed_algebra.bytes_computed": computed_bytes,
        "maxent.maxent_solve.self_s": self_s["maxent.maxent_solve"],
        "maxent.fit_kappa_exponential.self_s": self_s["maxent.fit_kappa_exponential"],
        "maxent.minimize_scalar.nfev": nfev,
        "maxent.kkt_residual_max": kkt_max,
        "kinematics.physical_map.self_s": self_s["kinematics.physical_map"],
        "phenomenology.kappa_bound.self_s": self_s["phenomenology.kappa_bound"],
    }
    for name in ("annihilation_residual", "commutator_residual", "ode_residual",
                 "deformation_f_derivatives"):
        out[f"deformed_algebra.{name}.self_s"] = self_s[f"deformed_algebra.{name}"]
    for command in cli_commands:
        out[f"cli.{command}.self_s"] = cli_self_s[command]
    return out
