"""Batch command-line interface.

One executable, five commands selected by --command:

  verify       run the numerical cross-check suites, emit a JSON report
  table        CSV of closed-form vs quadrature state moments per kappa
  plot-psi     CSV of psi(p) curves for several kappa (figure data)
  bound-alpha  JSON fine-structure-constant bound pipeline
  maxent-demo  JSON MaxEnt solve + deformed-exponential fit

Exit codes: 0 success, 1 usage/config error or an output that cannot be
written (--out, or stdout: a closed pipe or a full device ends with one
"config error" line and no traceback), 2 verification or solver
failure. Output is deterministic: identical configuration produces
byte-identical files (floats printed with 17 significant digits in
CSV, shortest round-trip representation in JSON; no timestamps). JSON
is strict: a verify measurement that is not finite is null and fails,
and any other number that is not finite is an error (exit 2).
Every emitted document starts with a metadata record (a '#'-prefixed
JSON line for CSV) carrying the tool version, the command, and the
resolved configuration: the command, each setting the command reads
(from its flag, else the config file, else its default) and its format.

Each command reads only some settings (_COMMANDS names them; every one
reads --out, which is never echoed). A flag that the command does not read
is a config error naming the flag and the command. A config-file key that
it does not read is ignored, neither checked nor echoed, so that one file
(also through $KAPPA_RUP_CONFIG) can serve every command; a top-level key
that no command reads, or an unknown key in a section the command reads,
is a config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Optional, Sequence, Tuple

# numpy and the numeric modules are imported inside the commands that run
# them, so that bound-alpha, --help and every config error load neither
from . import __version__
from .errors import KappaRupError, NonConvergenceError
from .params import StateSpec, as_kappa
from .phenomenology import PhenoConfig, kappa_bound

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAIL = 2

ENV_CONFIG = "KAPPA_RUP_CONFIG"

# plot-psi grid points, at most: 8 bytes per point and curve
_MAX_GRID_N = 10**7

class ConfigError(KappaRupError):
    """Bad flags or config file; maps to exit code 1."""


# The number settings, in echo order. Each gives its key path in the config
# file, which is also its path in the echoed configuration and, joined by "-",
# its flag; its default (tol's None leaves each command its own); and whether
# it must be an integer. A command reads a path's first key: grid's three at once.
_SETTINGS = (
    (("zeta",), 1.0, False),
    (("hbar",), 1.0, False),
    (("grid", "min"), -8.0, False),
    (("grid", "max"), 8.0, False),
    (("grid", "n"), 321, True),
    (("tol",), None, False),
)

# bound-alpha's overrides: PhenoConfig fields, which hold their defaults
_PHENO_FLAGS = (
    "alpha_inverse", "alpha_inverse_uncertainty", "characteristic_momentum",
    "electron_mass", "zeta_fixing",
)

# maxent-demo's problem where its file's maxent section gives none; --kappa sets its kappa
_MAXENT_DEFAULTS = {"energies": [0.0, 1.0, 2.0, 3.0, 4.0], "mean_energy": 1.2, "kappa": 0.2}

# each flag, by dest, with the settings it sets: --kappa the kappa list, or
# maxent-demo's one maxent.kappa
_FLAGS = {"kappa": ("kappa", "maxent"), **{"_".join(path): (path[0],) for path, *_ in _SETTINGS},
          **{name: ("pheno",) for name in _PHENO_FLAGS}, "out": ("out",)}

# the config file's keys besides the number settings' own
_FILE_KEYS = ("kappas", "out", "pheno", "maxent")


# every float a document writes: 17 significant digits, enough to round-trip a float
_F17 = "%.17g"


def _f17(x) -> str:
    return _F17 % float(x)


def _meta(config: dict) -> dict:
    return {
        "tool": "kappa-rup",
        "version": __version__,
        "command": config["command"],
        "config": config,
    }


def _emit(out: Optional[str], text: str):
    try:
        if not out:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:  # BrokenPipeError too
        if not out:
            # what stays in stdout's buffer would fail again at the exit-time flush
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ConfigError(f"cannot write stdout: {exc}") from exc
        raise ConfigError(f"cannot write output file {out}: {exc}") from exc


def _csv_document(config: dict, header: Sequence[str], lines: Sequence[str]) -> str:
    """The metadata comment line, the header line and the data lines, as one document."""
    return "\n".join(["# " + json.dumps(_meta(config)), ",".join(header), *lines]) + "\n"


def _json_document(config: dict, body: dict) -> str:
    try:
        return json.dumps({"meta": _meta(config), **body}, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # a nan or an infinity, which strict JSON cannot hold
        raise KappaRupError(f"the {config['command']} document would not be strict JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def _gibbs_distribution(energies, mean: float):
    """Analytic kappa = 0 reference: n ~ exp(-beta E) solving the mean."""
    import numpy as np

    e = energies - mean

    def gap(beta):
        wgt = np.exp(-beta * (e - e.min()))
        return float((wgt @ e) / wgt.sum())

    lo, hi = -1.0, 1.0
    while gap(lo) <= 0.0:
        lo *= 2.0
    while gap(hi) >= 0.0:
        hi *= 2.0
    # gap falls with beta; bisect until the bracket is within rounding of beta
    while hi - lo > 1e-15 + 8.9e-16 * min(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) > 0.0 else (lo, mid)
    beta = 0.5 * (lo + hi)
    wgt = np.exp(-beta * (e - e.min()))
    return wgt / wgt.sum()


def _run_checks(c: dict) -> list:
    import numpy as np
    from .coherent_states import moment_report, psi
    from .deformed_algebra import (GridFunction, annihilation_residual, commutator_residual,
                                   ode_residual)
    from .kinematics import ParticleFrame, physical_map
    from .maxent import MaxEntProblem, maxent_solve

    z, hb = c["zeta"], c["hbar"]
    states = [(s, moment_report(s)) for s in (StateSpec(as_kappa(k), z, hb) for k in c["kappa"])]

    def worst(fn):
        return max(fn(s, r) for s, r in states)

    p_grid = np.linspace(-5.0 / math.sqrt(z), 5.0 / math.sqrt(z), 200)
    # the grid residuals are free of zeta and hbar: both convergence checks run on the unit state
    unit = StateSpec(as_kappa(0.2), 1.0)

    def convergence(residual):
        # the stencil's order: the smallest ratio of successive residuals as the grid doubles
        res = [residual(n) for n in (2048, 4096, 8192, 16384)]
        return min(a / b for a, b in zip(res, res[1:]))

    def commutator(n):
        grid = psi(np.linspace(-400.0, 400.0, n), unit)
        return commutator_residual(GridFunction(-400.0, 400.0, grid), unit.kappa, 1.0)

    def kinematics():
        # each kappa's (p, E) at m = c = 1 against the boost's and against the first kappa's
        errors = []
        for beta in (0.1, 0.5, 0.9):
            gamma = 1.0 / math.sqrt(1.0 - beta * beta)
            maps = [physical_map(ParticleFrame(1.0, 1.0, as_kappa(k)), beta) for k in (0.1, 0.3, 0.7)]
            for p_ref, e_ref in ((gamma * beta, gamma), (maps[0].p, maps[0].E)):
                errors += [max(abs(st.p - p_ref) / p_ref, abs(st.E - e_ref) / e_ref) for st in maps]
        return max(errors)

    energies, mean = np.arange(5.0), 1.2

    def maxent(k):
        return maxent_solve(MaxEntProblem(energies, mean, as_kappa(k)))

    # (check_name, comparator, tolerance, measure), in document order
    table = (
        ("normalization", "<=", 1e-8, lambda: worst(lambda s, r: abs(r.probability_quad - 1.0))),
        ("moment_agreement", "<=", 1e-6, lambda: worst(
            lambda s, r: abs(r.second_moment - r.second_moment_quad) / r.second_moment)),
        # Robertson saturation with dx = hbar zeta (1 - k^2) dp gives <f> = 2 zeta (1 - k^2) <p^2>;
        # each side is its own quadrature, and neither touches the closed forms
        ("saturation_identity", "<=", 1e-9, lambda: worst(
            lambda s, r: abs(r.f_expect_quad - 2.0 * z * (1.0 - s.kappa.value**2)
                             * r.second_moment_quad) / r.f_expect_quad)),
        ("saturation_quadrature", "<=", 1e-6, lambda: worst(
            lambda s, r: abs(r.f_expect - r.f_expect_quad) / r.f_expect)),
        ("ode_residual", "<=", 1e-9, lambda: worst(lambda s, r: np.max(np.abs(
            ode_residual(p_grid, s.kappa, z, r.delta_x, r.delta_p, hb))))),
        ("annihilation_convergence", ">=", 12.0, lambda: convergence(
            lambda n: annihilation_residual(unit, -400.0, 400.0, n))),
        ("commutator_convergence", ">=", 12.0, lambda: convergence(commutator)),
        ("kinematics", "<=", 1e-12, kinematics),
        ("maxent_gibbs", "<=", 1e-10, lambda: np.max(np.abs(
            maxent(0.0).distribution - _gibbs_distribution(energies, mean)))),
        ("maxent_kkt", "<=", 1e-10, lambda: maxent(0.2).kkt_residual),
    )
    checks = []
    for name, comparator, tolerance, measure in table:
        measured = float(measure())
        # --tol replaces the "<=" tolerances only: a ">=" one is a stencil order's floor
        tol = c["tol"] if c["tol"] is not None and comparator == "<=" else tolerance
        ok = measured <= tol if comparator == "<=" else measured >= tol
        # a measurement that is not finite fails, and strict JSON records it as null
        finite = math.isfinite(measured)
        checks.append({
            "check_name": name,
            "status": "pass" if ok and finite else "fail",
            "measured": measured if finite else None,
            "tolerance": float(tol),
            "comparator": comparator,
        })
    return checks


# Each command maps the resolved configuration to its exit code and the
# document to write (None for none); main writes it.

def cmd_verify(c: dict) -> Tuple[int, Optional[str]]:
    try:
        for k in c["kappa"]:
            as_kappa(k).require_moment_safe("verify")
    except KappaRupError as exc:
        raise ConfigError(str(exc)) from exc
    checks = _run_checks(c)
    all_passed = all(check["status"] == "pass" for check in checks)
    doc = _json_document(c, {"checks": checks, "all_passed": all_passed})
    return (EXIT_OK if all_passed else EXIT_FAIL), doc


# ---------------------------------------------------------------------------
# table / plot commands
# ---------------------------------------------------------------------------

_TABLE_HEADER = ("kappa", "N", "p2_closed", "p2_quad", "delta_p", "delta_x", "F_closed", "F_quad",
                 "dxdp_over_halfhbar", "status")


def _table_status(report, rel_tol: float) -> str:
    # "ok" needs F >= 1 and every closed form within 10 rel_tol of its
    # quadrature, 20 times the last change the quadrature accepts per piece
    if report.f_expect < 1.0:
        return "fail: F_closed < 1"
    if report.max_rel_discrepancy > 10.0 * rel_tol:
        return f"fail: closed-vs-quadrature gap {report.max_rel_discrepancy:.3g}"
    return "ok"


def cmd_table(c: dict) -> Tuple[int, Optional[str]]:
    rel_tol = c["tol"] if c["tol"] is not None else 1e-10
    if not 1e-12 <= rel_tol <= 1e-3:
        raise ConfigError(f"table needs a tol in [1e-12, 1e-3], got {rel_tol}")
    from .coherent_states import moment_report, normalization_constant

    rows = []
    for k in c["kappa"]:
        spec = StateSpec(as_kappa(k), c["zeta"], c["hbar"])
        if not spec.kappa.moment_safe:
            rows.append((_f17(k), _f17(normalization_constant(spec))) + ("",) * 7
                        + ("error: moments diverge for kappa >= 2/3",))
            continue
        r = moment_report(spec, rel_tol)
        values = (k, r.norm_constant, r.second_moment, r.second_moment_quad, r.delta_p, r.delta_x,
                  r.f_expect, r.f_expect_quad, r.delta_x / c["hbar"] * r.delta_p * 2.0)
        rows.append(tuple(map(_f17, values)) + (_table_status(r, rel_tol),))
    return EXIT_OK, _csv_document(c, _TABLE_HEADER, [",".join(row) for row in rows])


def cmd_plot_psi(c: dict) -> Tuple[int, Optional[str]]:
    import numpy as np
    from .coherent_states import psi

    lo, hi, n = c["grid"]["min"], c["grid"]["max"], c["grid"]["n"]
    # a span that overflows to inf would put nan and inf in the grid
    if not 0.0 < hi - lo < math.inf or not 2 <= n <= _MAX_GRID_N:
        raise ConfigError(f"plot-psi needs 0 < grid max - min < inf and 2 <= n <= {_MAX_GRID_N}")
    p = np.linspace(lo, hi, n)
    curves = [psi(p, StateSpec(as_kappa(k), c["zeta"])) for k in c["kappa"]]
    header = ["p"] + [f"psi_k{i}" for i in range(len(curves))]
    # Python floats from whole columns, not numpy scalars indexed one at a time, each row
    # formatted by one % with _f17's format per cell
    columns = [p.tolist()] + [curve.tolist() for curve in curves]
    row_format = ",".join([_F17] * len(columns))
    return EXIT_OK, _csv_document(c, header, [row_format % row for row in zip(*columns)])


# ---------------------------------------------------------------------------
# phenomenology / maxent commands
# ---------------------------------------------------------------------------

def cmd_bound_alpha(c: dict) -> Tuple[int, Optional[str]]:
    pheno = PhenoConfig(**c["pheno"])
    inputs = ("alpha_inverse", "alpha_inverse_uncertainty", "delta_alpha_exp",
              "characteristic_momentum", "zeta_fixing")
    return EXIT_OK, _json_document(c, {**{name: getattr(pheno, name) for name in inputs},
                                       **dataclasses.asdict(kappa_bound(pheno))})


def cmd_maxent_demo(c: dict) -> Tuple[int, Optional[str]]:
    import numpy as np
    from .maxent import MaxEntProblem, fit_kappa_exponential, maxent_solve

    m = c["maxent"]
    try:
        problem = MaxEntProblem(np.asarray(m["energies"]), m["mean_energy"], as_kappa(m["kappa"]))
    except KappaRupError as exc:
        raise ConfigError(f"invalid maxent problem: {exc}") from exc
    try:
        solution = maxent_solve(problem)
    except NonConvergenceError as exc:
        sys.stderr.write(f"maxent solver failed: {exc}\n")
        return EXIT_FAIL, None
    fit = fit_kappa_exponential(solution, problem.energies)
    return EXIT_OK, _json_document(c, {
        "problem": problem.to_json_dict(),
        "solution": solution.to_json_dict(),
        "fit": dataclasses.asdict(fit),
    })


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _help(dest: str, what: str) -> str:
    """A flag's help: what it sets, and the commands that read it."""
    readers = [name for name, (_, _, reads) in _COMMANDS.items() if set(_FLAGS[dest]) & set(reads)]
    return f"{what}; read by {', '.join(readers)}"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kappa-rup",
        description="kappa-deformed uncertainty toolkit, batch interface",
    )
    parser.add_argument("--command", required=True, choices=_COMMANDS)
    parser.add_argument("--kappa", help=_help("kappa", "comma-separated list, e.g. 0,0.2,0.4, config "
                                              "key kappas; maxent-demo takes one, over maxent.kappa"))
    for path, _, integral in _SETTINGS:
        dest = "_".join(path)
        parser.add_argument("--" + "-".join(path), type=int if integral else float, dest=dest,
                            help=_help(dest, "config key " + ".".join(path)))
    parser.add_argument("--config", help=f"JSON config path (fallback: ${ENV_CONFIG})")
    parser.add_argument("--out", help=_help("out", "output path (default: stdout), config key out"))
    pheno = parser.add_argument_group("phenomenology overrides")
    for name in _PHENO_FLAGS:
        # typed like the field's default: float, or str for zeta_fixing
        pheno.add_argument("--" + name.replace("_", "-"), type=type(getattr(PhenoConfig, name)),
                           dest=name, help=_help(name, "config key pheno." + name))
    return parser


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError covers both malformed JSON and bytes that are not UTF-8
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _config_number(value, name: str, integral: bool = False):
    # a JSON number (true and false are not) within the float range
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if integral and value != int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value) if integral else float(value)


def _reject_unknown(data: dict, known, where: str):
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {unknown}")


def _config_object(data: dict, key: str, known) -> dict:
    """data[key], a JSON object ({} if absent or null) of known keys only."""
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config key {key!r} must hold a JSON object, got {value!r}")
    _reject_unknown(value, known, repr(key))
    return value


def _given(flag, file_cfg: dict, key: str):
    """The flag's value if given, else the config file's (None if absent)."""
    return flag if flag is not None else file_cfg.get(key)


def _number_list(flag: Optional[str], file_value, default, name: str) -> list:
    """A non-empty list of numbers: the comma-separated flag if given, else the file's
    list, else the default."""
    values = default if file_value is None else file_value
    if flag is not None:
        try:
            values = [float(part) for part in flag.split(",") if part.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"bad --kappa list {flag!r}") from exc
    if not isinstance(values, list) or not values:
        raise ConfigError(f"the {name} list must be a non-empty list, got {values!r}")
    return [_config_number(v, name) for v in values]


def resolve_config(args: argparse.Namespace) -> Tuple[dict, Optional[str]]:
    """The settings that the command reads, each from its flag, else the config
    file, else its default, as the configuration to echo; and the output path."""
    command = args.command
    _, command_fmt, reads = _COMMANDS[command]
    for dest, settings in _FLAGS.items():
        if getattr(args, dest) is not None and not set(settings) & set(reads):
            raise ConfigError(f"{command} does not read --{dest.replace('_', '-')}")
    file_cfg = _load_config_file(args.config)
    _reject_unknown(file_cfg, {path[0] for path, *_ in _SETTINGS}.union(_FILE_KEYS), "the file")

    config = {"command": command}
    if "kappa" in reads:
        config["kappa"] = _number_list(args.kappa, file_cfg.get("kappas"),
                                       list(_DEFAULT_KAPPAS[command]), "kappa")
    for path, default, integral in _SETTINGS:
        if path[0] not in reads:
            continue
        *sections, key = path
        file_node, node = file_cfg, config
        for name in sections:
            siblings = {p[-1] for p, *_ in _SETTINGS if p[:-1] == path[:-1]}
            file_node = _config_object(file_node, name, siblings)
            node = node.setdefault(name, {})
        value = _given(getattr(args, "_".join(path)), file_node, key)
        node[key] = default if value is None else _config_number(value, ".".join(path), integral)
    if config.get("tol") is not None and not config["tol"] > 0.0:
        raise ConfigError(f"{command} needs a positive tol, got {config['tol']}")
    if "maxent" in reads:
        m = {**_MAXENT_DEFAULTS, **_config_object(file_cfg, "maxent", _MAXENT_DEFAULTS)}
        kappa = _number_list(args.kappa, [m["kappa"]], None, "maxent.kappa")
        if len(kappa) != 1:
            raise ConfigError(f"maxent-demo reads one kappa, got {kappa}")
        config["maxent"] = {"energies": _number_list(None, m["energies"], None, "maxent.energies"),
                            "mean_energy": _config_number(m["mean_energy"], "maxent.mean_energy"),
                            "kappa": kappa[0]}
    try:
        if "pheno" in reads:
            pheno_keys = [f.name for f in dataclasses.fields(PhenoConfig)]
            pheno = dict(_config_object(file_cfg, "pheno", pheno_keys))
            pheno.update((name, getattr(args, name)) for name in _PHENO_FLAGS
                         if getattr(args, name) is not None)
            config["pheno"] = dataclasses.asdict(PhenoConfig(**pheno))
        # kappa (0 <= k < 1), zeta and hbar (> 0) are config-level concerns
        for k in config.get("kappa", ()):
            StateSpec(as_kappa(k), config["zeta"], config.get("hbar", 1.0))
    except KappaRupError as exc:
        raise ConfigError(str(exc)) from exc
    config["format"] = command_fmt

    out = _given(args.out, file_cfg, "out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    return config, out


# per command: its function, the one document format it emits and the settings
# it reads, in echo order ("out", read by all, shapes no document and is not echoed)
_COMMANDS = {
    "verify": (cmd_verify, "json", ("kappa", "zeta", "hbar", "tol", "out")),
    "table": (cmd_table, "csv", ("kappa", "zeta", "hbar", "tol", "out")),
    "plot-psi": (cmd_plot_psi, "csv", ("kappa", "zeta", "grid", "out")),
    "bound-alpha": (cmd_bound_alpha, "json", ("pheno", "out")),
    "maxent-demo": (cmd_maxent_demo, "json", ("maxent", "out")),
}

# the default kappas of the commands that read a kappa list; 1e-6 and 1e-5 put the
# paper's regime (bound kappa ~ 1.8e-5) in every verify run
_DEFAULT_KAPPAS = {"verify": (1e-6, 1e-5, 0.05, 0.1, 0.3, 0.6),
                   "table": (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6), "plot-psi": (0.0, 0.2, 0.4, 0.6)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config, out = resolve_config(args)
        code, text = _COMMANDS[args.command][0](config)
        if text is not None:
            _emit(out, text)
        return code
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except KappaRupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
