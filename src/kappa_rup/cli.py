"""Batch command-line interface.

One executable, five commands selected by --command:

  verify       run the numerical cross-check suites, emit a JSON report
  table        CSV of closed-form vs quadrature state moments per kappa
  plot-psi     CSV of psi(p) curves for several kappa (figure data)
  bound-alpha  JSON fine-structure-constant bound pipeline
  maxent-demo  JSON MaxEnt solve + deformed-exponential fit

Exit codes: 0 success, 1 usage/config error, 2 verification or solver
failure. Output is deterministic: identical configuration produces
byte-identical files (floats printed with 17 significant digits in
CSV, shortest round-trip representation in JSON; no timestamps).
Every emitted document starts with a metadata record (a '#'-prefixed
JSON line for CSV) carrying the tool version, the command, and the
fully resolved configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .coherent_states import StateSpec, moment_report, normalization_constant, psi
from .deformed_algebra import GridFunction, annihilation_residual, commutator_residual, ode_residual
from .errors import KappaRupError, NonConvergenceError
from .kappa_math import as_kappa
from .kinematics import ParticleFrame, physical_map
from .maxent import MaxEntProblem, fit_kappa_exponential, maxent_solve
from .phenomenology import PhenoConfig, kappa_bound

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAIL = 2

ENV_CONFIG = "KAPPA_RUP_CONFIG"

# plot-psi grid points, at most: 8 bytes per point and curve
_MAX_GRID_N = 10**7

# scipy.optimize.brentq, imported by the first call that needs it so that a
# command pays only for the scipy it uses; a module global, so it can be wrapped
brentq = None


class ConfigError(KappaRupError):
    """Bad flags or config file; maps to exit code 1."""


@dataclass
class RunConfig:
    command: str
    kappas: Tuple[float, ...]
    zeta: float = 1.0
    hbar: float = 1.0
    grid_min: float = -8.0
    grid_max: float = 8.0
    grid_n: int = 321
    tol: Optional[float] = None
    out: Optional[str] = None
    fmt: str = "json"
    pheno: PhenoConfig = field(default_factory=PhenoConfig)
    maxent: Optional[dict] = None

    def resolved_dict(self) -> dict:
        d = {
            "command": self.command,
            "kappa": list(self.kappas),
            "zeta": self.zeta,
            "hbar": self.hbar,
            "grid": {"min": self.grid_min, "max": self.grid_max, "n": self.grid_n},
            "tol": self.tol,
            "format": self.fmt,
        }
        if self.command == "bound-alpha":
            d["pheno"] = self.pheno.to_json_dict()
        if self.command == "maxent-demo":
            d["maxent"] = self.maxent
        return d


def _f17(x) -> str:
    return format(float(x), ".17g")


def _meta(cfg: RunConfig) -> dict:
    return {
        "tool": "kappa-rup",
        "version": __version__,
        "command": cfg.command,
        "config": cfg.resolved_dict(),
    }


def _emit(cfg: RunConfig, text: str):
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_document(meta: dict, header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["# " + json.dumps(meta)]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def _gibbs_distribution(energies: np.ndarray, mean: float) -> np.ndarray:
    """Analytic kappa = 0 reference: n ~ exp(-beta E) solving the mean."""
    global brentq
    e = energies - mean

    def gap(beta):
        wgt = np.exp(-beta * (e - e.min()))
        return float((wgt @ e) / wgt.sum())

    lo, hi = -1.0, 1.0
    while gap(lo) <= 0.0:
        lo *= 2.0
    while gap(hi) >= 0.0:
        hi *= 2.0
    if brentq is None:
        from scipy.optimize import brentq
    beta = brentq(gap, lo, hi, xtol=1e-15, rtol=8.9e-16)
    wgt = np.exp(-beta * (e - e.min()))
    return wgt / wgt.sum()


def _convergence_ratios(residuals: Sequence[float]) -> float:
    return min(residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1))


def _run_checks(cfg: RunConfig) -> list:
    checks = []

    def add(name, measured, tolerance, comparator="<="):
        tol = cfg.tol if cfg.tol is not None else tolerance
        ok = measured <= tol if comparator == "<=" else measured >= tol
        checks.append(
            {
                "check_name": name,
                "status": "pass" if ok else "fail",
                "measured": float(measured),
                "tolerance": float(tol),
                "comparator": comparator,
            }
        )

    z, hb = cfg.zeta, cfg.hbar
    specs = [StateSpec(as_kappa(k), z, hb) for k in cfg.kappas]
    reports = [moment_report(s) for s in specs]

    add("normalization", max(abs(r.probability_quad - 1.0) for r in reports), 1e-8)
    add(
        "moment_agreement",
        max(abs(r.second_moment - r.second_moment_quad) / r.second_moment for r in reports),
        1e-6,
    )
    add(
        "saturation_closed",
        max(
            abs(r.delta_x * r.delta_p - 0.5 * hb * r.f_expect) / (0.5 * hb * r.f_expect)
            for r in reports
        ),
        1e-12,
    )
    add(
        "saturation_quadrature",
        max(abs(r.f_expect - r.f_expect_quad) / r.f_expect for r in reports),
        1e-6,
    )

    p_grid = np.linspace(-5.0 / math.sqrt(z), 5.0 / math.sqrt(z), 200)
    ode_worst = 0.0
    for s, r in zip(specs, reports):
        if s.kappa.value == 0.0:
            continue
        res = ode_residual(p_grid, s.kappa, z, r.delta_x, r.delta_p, hb)
        ode_worst = max(ode_worst, float(np.max(np.abs(res))))
    add("ode_residual", ode_worst, 1e-9)

    conv_spec = StateSpec(as_kappa(0.2), z, hb)
    extent = 400.0 / math.sqrt(z)
    sizes = (2048, 4096, 8192, 16384)
    ann = [annihilation_residual(conv_spec, -extent, extent, n) for n in sizes]
    add("annihilation_convergence", _convergence_ratios(ann), 12.0, ">=")
    comm = []
    for n in sizes:
        p = np.linspace(-extent, extent, n)
        grid = GridFunction(-extent, extent, psi(p, conv_spec).astype(complex))
        comm.append(commutator_residual(grid, conv_spec.kappa, z, hb))
    add("commutator_convergence", _convergence_ratios(comm), 12.0, ">=")

    kin_worst = 0.0
    kin_kappas = (0.1, 0.3, 0.7)
    for beta in (0.1, 0.5, 0.9):
        states = [
            physical_map(ParticleFrame(1.0, 1.0, as_kappa(k)), beta) for k in kin_kappas
        ]
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        for st in states:
            kin_worst = max(
                kin_worst,
                abs(st.p - gamma * beta) / (gamma * beta),
                abs(st.E - gamma) / gamma,
            )
        ref = states[0]
        for st in states[1:]:
            kin_worst = max(
                kin_worst, abs(st.p - ref.p) / ref.p, abs(st.E - ref.E) / ref.E
            )
    add("kinematics", kin_worst, 1e-12)

    energies = np.arange(5.0)
    mean = 1.2
    gibbs = _gibbs_distribution(energies, mean)
    sol0 = maxent_solve(MaxEntProblem(energies, mean, as_kappa(0.0)), tol=1e-12)
    add("maxent_gibbs", float(np.max(np.abs(sol0.distribution - gibbs))), 1e-10)
    sol_k = maxent_solve(MaxEntProblem(energies, mean, as_kappa(0.2)), tol=1e-12)
    add("maxent_kkt", sol_k.kkt_residual, 1e-10)

    return checks


def cmd_verify(cfg: RunConfig) -> int:
    for k in cfg.kappas:
        if not as_kappa(k).moment_safe:
            raise ConfigError(
                f"verify runs moment checks and needs kappa < 2/3, got {k}"
            )
    checks = _run_checks(cfg)
    all_passed = all(c["status"] == "pass" for c in checks)
    doc = {"meta": _meta(cfg), "checks": checks, "all_passed": all_passed}
    _emit(cfg, _json_document(doc))
    return EXIT_OK if all_passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# table / plot commands
# ---------------------------------------------------------------------------

_TABLE_HEADER = (
    "kappa",
    "N",
    "p2_closed",
    "p2_quad",
    "delta_p",
    "delta_x",
    "F_closed",
    "F_quad",
    "dxdp_over_halfhbar",
    "status",
)


def _table_status(report, rel_tol: float) -> str:
    # "ok" needs F >= 1 and every closed form within 10 rel_tol of its
    # quadrature, the slack the quadrature's own convergence check allows
    if report.f_expect < 1.0:
        return "fail: F_closed < 1"
    if report.max_rel_discrepancy > 10.0 * rel_tol:
        return f"fail: closed-vs-quadrature gap {report.max_rel_discrepancy:.3g}"
    return "ok"


def cmd_table(cfg: RunConfig) -> int:
    rel_tol = cfg.tol if cfg.tol is not None else 1e-10
    if not 1e-12 <= rel_tol <= 1e-3:
        raise ConfigError(f"table needs a quadrature rel_tol in [1e-12, 1e-3], got {rel_tol}")
    rows = []
    for k in cfg.kappas:
        spec = StateSpec(as_kappa(k), cfg.zeta, cfg.hbar)
        if not spec.kappa.moment_safe:
            rows.append(
                (_f17(k), _f17(normalization_constant(spec))) + ("",) * 7
                + ("error: moments diverge for kappa >= 2/3",)
            )
            continue
        r = moment_report(spec, rel_tol)
        rows.append(
            (
                _f17(k), _f17(r.norm_constant), _f17(r.second_moment),
                _f17(r.second_moment_quad), _f17(r.delta_p), _f17(r.delta_x),
                _f17(r.f_expect), _f17(r.f_expect_quad),
                _f17(r.delta_x * r.delta_p / (0.5 * cfg.hbar)), _table_status(r, rel_tol),
            )
        )
    _emit(cfg, _csv_document(_meta(cfg), _TABLE_HEADER, rows))
    return EXIT_OK


def cmd_plot_psi(cfg: RunConfig) -> int:
    if not cfg.grid_max > cfg.grid_min or not 2 <= cfg.grid_n <= _MAX_GRID_N:
        raise ConfigError(f"plot-psi needs grid_max > grid_min and 2 <= grid_n <= {_MAX_GRID_N}")
    p = np.linspace(cfg.grid_min, cfg.grid_max, cfg.grid_n)
    curves = [
        psi(p, StateSpec(as_kappa(k), cfg.zeta, cfg.hbar)) for k in cfg.kappas
    ]
    header = ["p"] + [f"psi_k{i}" for i in range(len(cfg.kappas))]
    rows = [
        [_f17(p[j])] + [_f17(curve[j]) for curve in curves]
        for j in range(p.size)
    ]
    _emit(cfg, _csv_document(_meta(cfg), header, rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# phenomenology / maxent commands
# ---------------------------------------------------------------------------

def cmd_bound_alpha(cfg: RunConfig) -> int:
    bound = kappa_bound(cfg.pheno)
    doc = {
        "meta": _meta(cfg),
        "alpha_inverse": cfg.pheno.alpha_inverse,
        "alpha_inverse_uncertainty": cfg.pheno.alpha_inverse_uncertainty,
        "delta_alpha_exp": cfg.pheno.delta_alpha_exp,
        "characteristic_momentum": cfg.pheno.characteristic_momentum,
        "zeta_fixing": cfg.pheno.zeta_fixing,
        "bound_kappa_sqrt_zeta": bound.bound_kappa_sqrt_zeta,
        "bound_kappa": bound.bound_kappa,
    }
    _emit(cfg, _json_document(doc))
    return EXIT_OK


def cmd_maxent_demo(cfg: RunConfig) -> int:
    section = dict(cfg.maxent or {})
    energies = section.get("energies", [0.0, 1.0, 2.0, 3.0, 4.0])
    mean = section.get("mean_energy", 1.2)
    kap = section.get("kappa", cfg.kappas[0])
    tol = cfg.tol if cfg.tol is not None else 1e-10
    if not 1e-12 <= tol <= 1e-4:
        raise ConfigError(f"maxent-demo needs tol in [1e-12, 1e-4], got {tol}")
    try:
        problem = MaxEntProblem(np.asarray(energies, dtype=float), float(mean), as_kappa(kap))
    except (KappaRupError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid maxent problem: {exc}") from exc
    try:
        solution = maxent_solve(problem, tol=tol)
    except NonConvergenceError as exc:
        sys.stderr.write(f"maxent solver failed: {exc}\n")
        return EXIT_FAIL
    fit = fit_kappa_exponential(solution, problem.energies)
    doc = {
        "meta": _meta(cfg),
        "problem": problem.to_json_dict(),
        "solution": solution.to_json_dict(),
        "fit": {
            "amplitude": fit.amplitude,
            "beta_fit": fit.beta_fit,
            "max_residual": fit.max_residual,
        },
    }
    _emit(cfg, _json_document(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kappa-rup",
        description="kappa-deformed uncertainty toolkit, batch interface",
    )
    parser.add_argument("--command", required=True, choices=_COMMANDS)
    parser.add_argument("--kappa", help="comma-separated kappa list, e.g. 0,0.2,0.4")
    parser.add_argument("--zeta", type=float)
    parser.add_argument("--hbar", type=float)
    parser.add_argument("--grid-min", type=float, dest="grid_min")
    parser.add_argument("--grid-max", type=float, dest="grid_max")
    parser.add_argument("--grid-n", type=int, dest="grid_n")
    parser.add_argument("--tol", type=float)
    parser.add_argument("--config", help=f"JSON config path (fallback: ${ENV_CONFIG})")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt")
    pheno = parser.add_argument_group("phenomenology overrides")
    pheno.add_argument("--alpha-inverse", type=float, dest="alpha_inverse")
    pheno.add_argument(
        "--alpha-inverse-uncertainty", type=float, dest="alpha_inverse_uncertainty"
    )
    pheno.add_argument(
        "--characteristic-momentum", type=float, dest="characteristic_momentum"
    )
    pheno.add_argument("--electron-mass", type=float, dest="electron_mass")
    pheno.add_argument("--zeta-fixing", dest="zeta_fixing")
    return parser


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _parse_kappa_list(text: str) -> Tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"bad --kappa list {text!r}") from exc
    if not values:
        raise ConfigError("empty --kappa list")
    return values


def _config_number(value, name: str, integral: bool = False):
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    if integral and not number.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(number) if integral else number


def _config_object(file_cfg: dict, key: str) -> Optional[dict]:
    value = file_cfg.get(key)
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f"config key {key!r} must hold a JSON object, got {value!r}")
    return value


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(args.config)
    command = args.command
    _, command_fmt, default_kappas = _COMMANDS[command]

    kappas: Tuple[float, ...]
    if args.kappa is not None:
        kappas = _parse_kappa_list(args.kappa)
    elif "kappas" in file_cfg:
        values = file_cfg["kappas"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"config key 'kappas' must be a non-empty list, got {values!r}")
        kappas = tuple(_config_number(v, "kappa") for v in values)
    else:
        kappas = default_kappas

    grid_file = _config_object(file_cfg, "grid") or {}

    def pick(flag_value, file_value, default):
        if flag_value is not None:
            return flag_value
        if file_value is not None:
            return file_value
        return default

    fmt = pick(args.fmt, file_cfg.get("format"), command_fmt)
    if fmt != command_fmt:
        raise ConfigError(f"command {command} emits {command_fmt} only, got {fmt!r}")

    pheno_dict = dict(_config_object(file_cfg, "pheno") or {})
    for name in (
        "alpha_inverse",
        "alpha_inverse_uncertainty",
        "characteristic_momentum",
        "electron_mass",
        "zeta_fixing",
    ):
        value = getattr(args, name)
        if value is not None:
            pheno_dict[name] = value

    tol = args.tol if args.tol is not None else file_cfg.get("tol")
    out = pick(args.out, file_cfg.get("out"), None)
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    try:
        cfg = RunConfig(
            command=command,
            kappas=kappas,
            zeta=_config_number(pick(args.zeta, file_cfg.get("zeta"), 1.0), "zeta"),
            hbar=_config_number(pick(args.hbar, file_cfg.get("hbar"), 1.0), "hbar"),
            grid_min=_config_number(pick(args.grid_min, grid_file.get("min"), -8.0), "grid min"),
            grid_max=_config_number(pick(args.grid_max, grid_file.get("max"), 8.0), "grid max"),
            grid_n=_config_number(pick(args.grid_n, grid_file.get("n"), 321), "grid n", True),
            tol=None if tol is None else _config_number(tol, "tol"),
            out=out,
            fmt=fmt,
            pheno=PhenoConfig.from_json_dict(pheno_dict),
            maxent=_config_object(file_cfg, "maxent"),
        )
    except KappaRupError as exc:
        raise ConfigError(str(exc)) from exc

    # kappa validity (0 <= k < 1) is a config-level concern for every command
    try:
        for k in cfg.kappas:
            as_kappa(k)
        StateSpec(as_kappa(cfg.kappas[0]), cfg.zeta, cfg.hbar)
    except KappaRupError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.tol is not None and not cfg.tol > 0.0:
        raise ConfigError(f"tol must be positive, got {cfg.tol}")
    return cfg


# per command: its function, the one document format it emits and its default
# kappas; 1e-6 and 1e-5 put the paper's regime (bound kappa ~ 1.8e-5) in every
# verify run
_COMMANDS = {
    "verify": (cmd_verify, "json", (1e-6, 1e-5, 0.05, 0.1, 0.3, 0.6)),
    "table": (cmd_table, "csv", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)),
    "plot-psi": (cmd_plot_psi, "csv", (0.0, 0.2, 0.4, 0.6)),
    "bound-alpha": (cmd_bound_alpha, "json", (0.2,)),
    "maxent-demo": (cmd_maxent_demo, "json", (0.2,)),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    try:
        return _COMMANDS[cfg.command][0](cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except KappaRupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
