"""Runs one workload's operations against kappa_rup in a fresh interpreter.

    python3 perfbench/worker.py setup moment-sweep|array-kernels
    python3 perfbench/worker.py run   moment-sweep|array-kernels SEED SECONDS [--perturb-reference]
    python3 perfbench/worker.py trace moment-sweep|array-kernels|cli-mix SEED SPANS_PATH [--perturb-reference]

``setup`` imports only the library and runs one warm-up operation of
each class, bare, then exits: nothing of the benchmark's own is loaded
or run in it. ``run`` generates the seeded cycles and runs them in a
closed loop, one caller, until SECONDS have passed at a cycle boundary;
a host reference (hostref.py) of the op's kind is timed just before and
just after each operation. ``trace`` runs a fixed prefix of the cycles
twice, untraced and then traced, so that its counts repeat exactly for a
seed; for cli-mix it reads the command lines as JSON on stdin and calls
``kappa_rup.cli.main`` in process. ``run`` and ``trace`` print one JSON
document on stdout.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import sys
import time

import kappa_rup as K
from kappa_rup.errors import DomainError

import numpy as np  # already loaded by kappa_rup

TRACE_CYCLES = {"moment-sweep": 10, "array-kernels": 1}
WARMUP = {
    "moment-sweep": [{"cls": "paper", "kappa": 1e-5, "zeta": 1.0},
                     {"cls": "heavy_tail", "kappa": 0.3, "zeta": 1.0}],
    "array-kernels": [{"cls": "grid_2048", "kappa": 0.2, "n": 2048, "extent": 400.0},
                      {"cls": "maxent", "levels": 5, "kappa": 0.2, "energy_seed": 0,
                       "mean_frac": 0.3}],
}


def moment_op(op: dict) -> dict:
    """Closed forms, then moment_report, then robertson_bound(F)."""
    out = {"closed": None, "quad": None, "error": None}
    start = time.perf_counter()
    try:
        spec = K.StateSpec(K.KappaParameter(op["kappa"]), op["zeta"])
        closed = [K.normalization_constant(spec), K.second_moment(spec),
                  K.delta_p(spec), K.delta_x(spec), K.f_expectation(spec.kappa)]
        out["closed"] = closed
        report = K.moment_report(spec)
        out["quad"] = [report.norm_constant_quad, report.second_moment_quad,
                       report.delta_p_quad, report.delta_x_quad, report.f_expect_quad]
        try:
            K.robertson_bound(closed[4])
        except DomainError:
            out["error"] = "robertson_rejection"
    except Exception as exc:  # every failure is counted by the caller, none dropped
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["t"] = time.perf_counter() - start
    return out


def grid_op(op: dict) -> dict:
    """The three residual verifiers on one state and one grid size."""
    extent, n = op["extent"], op["n"]
    out = {"error": None}
    start = time.perf_counter()
    try:
        spec = K.StateSpec(K.KappaParameter(op["kappa"]), 1.0)
        ann = K.annihilation_residual(spec, -extent, extent, n)
        p = np.linspace(-extent, extent, n)
        grid = K.GridFunction(-extent, extent, K.psi(p, spec).astype(complex))
        comm = K.commutator_residual(grid, spec.kappa, spec.zeta, spec.hbar)
        ode = K.ode_residual(p, spec.kappa, spec.zeta, K.delta_x(spec), K.delta_p(spec))
    except Exception as exc:  # counted by the caller
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["t"] = time.perf_counter() - start
    if out["error"] is None:
        out.update(ann=ann, comm=comm, ode_max=float(np.max(np.abs(ode))))
    return out


def maxent_op(op: dict, check=None) -> dict:
    """maxent_solve then fit_kappa_exponential on a seeded level set; then,
    untimed, ``check`` (checks.maxent_failures) on the returned numbers."""
    e = np.random.default_rng(op["energy_seed"]).uniform(0.0, 10.0, op["levels"])
    lo, hi = float(e.min()), float(e.max())
    mean = lo + op["mean_frac"] * (hi - lo)
    out = {"error": None}
    start = time.perf_counter()
    try:
        problem = K.MaxEntProblem(e, mean, K.KappaParameter(op["kappa"]))
        sol = K.maxent_solve(problem)
        fit = K.fit_kappa_exponential(sol, e)
    except Exception as exc:  # counted by the caller
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["t"] = time.perf_counter() - start
    if out["error"] is None and check is not None:
        solution = {"distribution": sol.distribution, "lam0": sol.multiplier_normalization,
                    "lam1": sol.multiplier_energy, "entropy": sol.entropy}
        fitted = {"amplitude": fit.amplitude, "beta_fit": fit.beta_fit,
                  "max_residual": fit.max_residual}
        failures = check(e, mean, op["kappa"], solution, fitted)
        if failures:
            out["error"] = "reference_mismatch: " + ", ".join(failures)
    return out


def run_op(op: dict, check=None) -> dict:
    if op["cls"] == "maxent":
        result = maxent_op(op, check)
    elif op["cls"].startswith("grid_"):
        result = grid_op(op)
    else:
        result = moment_op(op)
    return {**op, **result}


def run_cycles(cycles, check) -> list:
    """Run and check every op; its "ref" is the mean of the host reference
    of its kind, timed just before and just after it."""
    import hostref

    out = []
    for cycle in cycles:
        for op in cycle:
            kind = "array" if op["cls"].startswith("grid_") else "python"
            reference = hostref.array_seconds if kind == "array" else hostref.python_seconds
            before = reference()
            result = run_op(op, check)
            result["ref"] = 0.5 * (before + reference())
            result["ref_kind"] = kind
            out.append(result)
    return out


def cli_call(argv: list) -> tuple:
    """kappa_rup.cli.main(argv) with its output captured; looked up at call
    time, so that a traced pass goes through the wrapped binding."""
    from kappa_rup import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue()


def trace(workload: str, cycles, spans_path: str, check, f_probe=()) -> dict:
    """``f_probe``: kappas whose closed-form F is counted below 1, untraced,
    after the traced pass (the small-kappa defect, ROADMAP item 1)."""
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    if workload == "cli-mix":
        argvs = json.load(sys.stdin)
        commands = [cmd for cmd, _ in argvs]
        for _, argv in argvs:          # warm: first calls pay lazy set-up
            cli_call(argv)
        untraced = [cli_call(argv) for _, argv in argvs]
        tracer.install()
        traced = []
        for i, (_, argv) in enumerate(argvs):
            tracer.op = i
            traced.append(cli_call(argv))
        tracer.uninstall()
        tracer.write(spans_path)
        metrics = layer_metrics(tracer.spans, commands)
        for cmd, (code, elapsed, _) in zip(commands, untraced):
            metrics[f"cli.{cmd}.main_s"] = elapsed
        return {
            "metrics": metrics,
            "untraced_s": sum(t for _, t, _ in untraced),
            "traced_s": sum(t for _, t, _ in traced),
            "codes": [code for code, _, _ in traced],
            "same_output": [a[2] == b[2] for a, b in zip(untraced, traced)],
        }

    run_cycles([WARMUP[workload]], check)
    cycles = list(itertools.islice(cycles, TRACE_CYCLES[workload]))
    untraced = run_cycles(cycles, check)
    tracer.install()
    ops = []
    for i, op in enumerate(op for cycle in cycles for op in cycle):
        tracer.op = i
        ops.append(run_op(op, check))
    tracer.uninstall()
    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans)
    if f_probe:
        below = sum(K.f_expectation(kappa) < 1.0 for kappa in f_probe)
        metrics["coherent_states.f_expectation.below_one_frac"] = below / len(f_probe)
    return {"metrics": metrics, "ops": ops,
            "untraced_s": sum(op["t"] for op in untraced),
            "traced_s": sum(op["t"] for op in ops)}


def main(argv: list) -> int:
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        for op in WARMUP[workload]:
            run_op(op)
        return 0
    import checks
    import inputs

    scale = checks.PERTURBATION if "--perturb-reference" in argv else 1.0
    check = functools.partial(checks.maxent_failures, scale=scale)
    cycles = inputs.GENERATORS[workload](int(argv[2]))
    if mode == "trace":
        f_probe = inputs.f_probe(int(argv[2])) if workload == "moment-sweep" else ()
        doc = trace(workload, cycles, argv[3], check, f_probe)
    else:
        seconds = float(argv[3])
        run_cycles([WARMUP[workload]], check)
        ops = []
        start = time.perf_counter()
        for cycle in cycles:
            ops.extend(run_cycles([cycle], check))
            if time.perf_counter() - start >= seconds:
                break
        doc = {"ops": ops}
    json.dump(doc, sys.stdout, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
