"""kappa-rup benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload moment-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a kappa-rup checkout; the library is imported
from ./src, nothing is installed or built. Workloads: moment-sweep,
array-kernels, cli-mix (see perfbench/NOTES.md). With --trace 0 it
measures the end-to-end metrics with nothing wrapped; with --trace 1 it
runs a fixed, seed-determined prefix of the workload untraced and then
traced, and reports the per-layer metrics and the tracing overhead.

Report lines go to stdout first; the last line is one JSON object with
the keys correct, attempted, failed and metrics, holding exactly the
metrics BENCHMARK.json names for the chosen mode. A result file with the
environment record goes to .perfbench_out/. --perturb-reference scales
every reference value by 1 + 1e-3 (used by selftest.py).
"""

from __future__ import annotations

import argparse
import functools
import glob
import importlib.metadata
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import checks
import hostref
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = (4, 3)           # fresh set-up processes before and after the loop
SETUP_REF_WINDOW_S = 0.1        # python_window before and after each probe
CLI_REF_WINDOW_S = 0.1          # python_window between two CLI processes
IMPORTTIME_REPEATS = 3
PROCESS_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# the code path of the installed kappa-rup console script
CLI_ENTRY = "import sys; from kappa_rup.cli import main; sys.exit(main())"
IMPORT_MODULES = {"numpy": "numpy", "scipy_special": "scipy.special",
                  "scipy_integrate": "scipy.integrate", "scipy_optimize": "scipy.optimize"}
# Below this kappa maxent_solve can stop just short of its fixed 1e-13
# target: the same small-kappa cancellation as ROADMAP item 1. Such a
# NonConvergenceError is counted as a known defect, not as a failure.
MAXENT_DEFECT_KAPPA = 1e-3


class Run:
    """Counts and numbers gathered by one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()     # kind -> count
        self.defects = Counter()      # known library defect -> count, not failures
        self.mismatch = False         # some returned value disagreed with its reference
        self.report = []              # (name, value, unit, samples)
        self.metrics = {}             # name -> value, for the result line
        self.setup_probes = []        # {"t", "ref"} per set-up process, for the result file
        self.op_times = []            # [class, t, ref] per operation, for the result file

    def op(self, error, defect=None):
        """Count one operation; ``error`` is None or a failure string,
        ``defect`` None or the known defect an otherwise correct op hit."""
        self.attempted += 1
        if defect and not error:
            self.defects[defect] += 1
        if error:
            kind = error.split(":")[0]
            self.failures[kind] += 1
            if kind in ("reference_mismatch", "non_finite", "output_differs",
                        "unparsable_output"):
                self.mismatch = True

    def add(self, name, value, unit, samples, gated=False):
        self.report.append((name, value, unit, samples))
        if gated:
            self.metrics[name] = value


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def environment(root: str, env: dict, args) -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    versions = {"python": sys.version.split()[0]}
    for package in ("numpy", "scipy", "mpmath"):
        versions[package] = importlib.metadata.version(package)
    return {
        "versions": versions,
        "nproc": nproc(),
        "caches": caches,
        "threads": {var: env[var] for var in THREAD_VARS},
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_digest": inputs.digest(args.workload, args.seed),
        # informational only, never gated
        "src_lines": src_lines,
    }


def timed_process(argv, env, stdin=None):
    """Run a child to completion; return (wall seconds, CompletedProcess)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, input=stdin, capture_output=True,
                          timeout=PROCESS_TIMEOUT_S)
    return time.perf_counter() - start, proc


def worker(argv, env, stdin=None) -> dict:
    _, proc = timed_process([sys.executable, WORKER, *argv], env, stdin)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[:2]} failed:\n{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout)


def setup_probes(argv, env, count: int) -> list:
    """Time ``count`` fresh set-up processes, each with its "ref": the mean
    interpreter reference over a window just before and just after it."""
    probes = []
    for _ in range(count):
        before = hostref.python_window(SETUP_REF_WINDOW_S)
        elapsed, proc = timed_process(argv, env)
        after = hostref.python_window(SETUP_REF_WINDOW_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.decode()[-2000:]}")
        probes.append({"t": elapsed, "ref": 0.5 * (before + after)})
    return probes


def children_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def common_metrics(run: Run, setups: list, ops: list, classes: tuple):
    """The gated metrics, error_rate and the per-class median op times.

    Throughput is operations at the workload's mix (one op of each class
    per cycle), taken from per-class medians so that one stalled op does
    not move it; the geometric mean weighs every class equally. The gated
    forms measure each op in host reference times (hostref.py); the same
    two figures in seconds are reported next to them. Set-up time is
    gated in reference units too, converted to seconds at the reference
    machine's fast state (hostref.PYTHON_NOMINAL_S).
    """
    seconds, in_ref = defaultdict(list), defaultdict(list)
    for op in ops:
        seconds[op["cls"]].append(op["t"])
        in_ref[op["cls"]].append(op["t"] / op["ref"])
    med_s = [statistics.median(seconds[cls]) for cls in classes]
    med_ref = [statistics.median(in_ref[cls]) for cls in classes]
    for cls, value in zip(classes, med_s):
        run.add(f"{cls}.median_ms", value * 1e3, "ms", len(seconds[cls]))
    run.setup_probes = setups
    run.op_times = [[op["cls"], op["t"], op["ref"]] for op in ops]
    run.add("setup_s", hostref.PYTHON_NOMINAL_S * statistics.median(
        p["t"] / p["ref"] for p in setups), "s", len(setups), gated=True)
    run.add("setup_raw_s", statistics.median(p["t"] for p in setups), "s", len(setups))
    run.add("peak_rss_mb", children_peak_rss_mib(), "MiB", 1, gated=True)
    run.add("error_rate", sum(run.failures.values()) / run.attempted, "ratio", run.attempted)
    run.add("known_defect_rate", sum(run.defects.values()) / run.attempted, "ratio",
            run.attempted)
    run.add("ops_per_kref", 1e3 * len(classes) / sum(med_ref), "1/kref", len(ops), gated=True)
    run.add("op_geomean_ref", geomean(med_ref), "ref", len(ops), gated=True)
    run.add("ops_per_s", len(classes) / sum(med_s), "1/s", len(ops))
    run.add("op_geomean_ms", geomean(med_s) * 1e3, "ms", len(ops))
    for kind in sorted({op["ref_kind"] for op in ops}):
        refs = [op["ref"] for op in ops if op["ref_kind"] == kind]
        run.add(f"host_ref_{kind}_us", statistics.median(refs) * 1e6, "us", len(refs))


def traced_metrics(run: Run, doc: dict):
    """Per-layer metrics of a traced worker, plus the tracing overhead."""
    run.metrics.update(doc["metrics"])
    run.metrics["trace_overhead_frac"] = doc["traced_s"] / doc["untraced_s"] - 1.0


def library_workload(args, env, scale, check, classes):
    """Set-up probes, the worker's closed loop (or its traced prefix), more
    set-up probes, then ``check(run, ops)`` on every operation. Returns the
    run and the untraced ops."""
    run = Run()
    perturb = ["--perturb-reference"] if scale != 1.0 else []
    if args.trace:
        doc = worker(["trace", args.workload, str(args.seed), args.spans, *perturb], env)
        check(run, doc["ops"])
        traced_metrics(run, doc)
        return run, []
    probe = [sys.executable, WORKER, "setup", args.workload]
    setups = setup_probes(probe, env, SETUP_PROBES[0])
    doc = worker(["run", args.workload, str(args.seed), str(args.seconds), *perturb], env)
    setups += setup_probes(probe, env, SETUP_PROBES[1])
    check(run, doc["ops"])
    common_metrics(run, setups, doc["ops"], classes)
    return run, doc["ops"]


# ---------------------------------------------------------------------------
# moment-sweep
# ---------------------------------------------------------------------------

def check_moment_ops(run: Run, ops: list, scale: float):
    closed_err = quad_err = 0.0
    f_below_one = 0
    for op in ops:
        error, defect = op["error"], None
        if op["closed"] is not None:
            if op["closed"][4] < 1.0:
                # the known defect (ROADMAP item 1): F < 1 from cancellation;
                # robertson_bound is right to reject it
                f_below_one += 1
                defect = "f_below_one"
                if error == "robertson_rejection":
                    error = None
            ref = checks.moment_reference(op["kappa"], op["zeta"], scale=scale)
            refs = [ref[key] for key in checks.MOMENT_FIELDS]
            values = op["closed"] + (op["quad"] or [])
            if not all(math.isfinite(v) for v in values):
                error = error or "non_finite"
            else:
                c = max(checks.rel_err(v, r) for v, r in zip(op["closed"], refs))
                q = max((checks.rel_err(v, r) for v, r in zip(op["quad"] or [], refs)),
                        default=0.0)
                closed_err, quad_err = max(closed_err, c), max(quad_err, q)
                if max(c, q) > checks.REL_TOL:
                    error = "reference_mismatch"
        run.op(error, defect)
    n = len(ops)
    run.add("closed_max_rel_err", closed_err, "ratio", n)
    run.add("quad_max_rel_err", quad_err, "ratio", n)
    run.add("f_below_one", f_below_one, "count", n)


def moment_sweep(args, env, scale) -> Run:
    check = functools.partial(check_moment_ops, scale=scale)
    run, ops = library_workload(args, env, scale, check, inputs.MOMENT_CLASSES)
    if ops:
        times = [op["t"] for op in ops]
        run.add("states_per_s", len(ops) / sum(times), "1/s", len(ops))
        run.add("state_p90_ms", statistics.quantiles(times, n=10)[-1] * 1e3, "ms", len(ops))
    return run


# ---------------------------------------------------------------------------
# array-kernels
# ---------------------------------------------------------------------------

def check_array_ops(run: Run, ops: list):
    """Residual checks per op and the stencil order per kappa (MaxEnt ops
    were checked in the worker)."""
    errors, defects = [], []
    by_kappa = defaultdict(dict)        # kappa -> {n: op index}
    for i, op in enumerate(ops):
        error, defect = op["error"], None
        if (op["cls"] == "maxent" and (error or "").startswith("NonConvergenceError")
                and op["kappa"] < MAXENT_DEFECT_KAPPA):
            error, defect = None, "maxent_small_kappa_nonconvergence"
        if op["cls"] != "maxent" and error is None:
            values = (op["ann"], op["comm"], op["ode_max"])
            if not all(math.isfinite(v) for v in values):
                error = "non_finite"
            elif op["ode_max"] > checks.ODE_TOL:
                error = "reference_mismatch: ode residual"
            elif op["n"] == inputs.GRID_SIZES[-1] and max(values[:2]) > checks.RESIDUAL_FLOOR:
                error = "reference_mismatch: residual floor"
            else:
                by_kappa[op["kappa"]][op["n"]] = i
        errors.append(error)
        defects.append(defect)
    orders = []
    ratio = inputs.ORDER_SIZES[1] / inputs.ORDER_SIZES[0]
    for grids in by_kappa.values():
        if not all(n in grids for n in inputs.ORDER_SIZES):
            continue
        for key in ("ann", "comm"):
            r = [ops[grids[n]][key] for n in inputs.ORDER_SIZES]
            order = min(math.log(r[i] / r[i + 1]) / math.log(ratio) for i in range(len(r) - 1))
            orders.append(order)
            if not order >= checks.MIN_STENCIL_ORDER:
                for n in inputs.ORDER_SIZES:
                    errors[grids[n]] = "reference_mismatch: stencil order"
    for error, defect in zip(errors, defects):
        run.op(error, defect)
    run.add("stencil_order_min", min(orders) if orders else float("nan"), "order", len(orders))


def array_kernels(args, env, scale) -> Run:
    run, ops = library_workload(args, env, scale, check_array_ops, inputs.ARRAY_CLASSES)
    if ops:
        grid = [op for op in ops if op["cls"] != "maxent"]
        maxent = [op for op in ops if op["cls"] == "maxent"]
        run.add("grid_mpts_per_s",
                sum(op["n"] for op in grid) / sum(op["t"] for op in grid) / 1e6,
                "Mpoint/s", len(grid))
        run.add("maxent_solves_per_s", len(maxent) / sum(op["t"] for op in maxent), "1/s",
                len(maxent))
    return run


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

def cli_argv(op: dict, out_dir: str, index: int) -> list:
    argv = ["--command", op["cls"], *op["args"]]
    if op["config"] is not None:
        path = os.path.join(out_dir, f"config-{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op["config"], fh)
        argv += ["--config", path]
    return argv


def cli_failures(op: dict, code: int, stdout: bytes, stderr: bytes, scale: float) -> list:
    """Check one command's exit code and emitted values."""
    if code != 0:
        return [f"exit_code: {code} {stderr.decode(errors='replace')[-200:]}"]
    text = stdout.decode()
    cmd = op["cls"]
    out = []
    if cmd == "verify":
        if json.loads(text)["all_passed"] is not True:
            out.append("verify_failed: all_passed is not true")
    elif cmd == "table":
        for row in text.splitlines()[2:]:
            cells = row.split(",")
            kappa = float(cells[0])
            ref = checks.moment_reference(kappa, 1.0, scale=scale)
            pairs = [(cells[1], ref["N"]), (cells[2], ref["p2"]), (cells[3], ref["p2"]),
                     (cells[4], ref["dp"]), (cells[5], ref["dx"]), (cells[6], ref["F"]),
                     (cells[7], ref["F"]), (cells[8], ref["F"])]
            if any(not checks.rel_err(float(v), r) <= checks.REL_TOL for v, r in pairs):
                out.append(f"reference_mismatch: table row kappa={kappa!r}")
    elif cmd == "plot-psi":
        lines = text.splitlines()
        kappas = json.loads(lines[0][2:])["config"]["kappa"]
        rows = lines[2:]
        for row in (rows[0], rows[len(rows) // 2], rows[-1]):
            cells = [float(c) for c in row.split(",")]
            p = cells[0]
            for k, value in zip(kappas, cells[1:]):
                n = checks.moment_reference(k, 1.0, scale=scale)["N"]
                expo = p * p / 2.0 if k == 0.0 else math.asinh(k * p * p) / (2.0 * k)
                if not checks.rel_err(value, n * math.exp(-expo)) <= checks.REL_TOL:
                    out.append(f"reference_mismatch: psi kappa={k} p={p}")
    elif cmd == "bound-alpha":
        value = json.loads(text)["bound_kappa"]
        if not checks.rel_err(value, checks.bound_alpha_reference() * scale) <= 1e-12:
            out.append("reference_mismatch: bound_kappa")
    elif cmd == "maxent-demo":
        doc = json.loads(text)
        problem, sol = doc["problem"], doc["solution"]
        solution = {"distribution": sol["distribution"],
                    "lam0": sol["multipliers"]["normalization"],
                    "lam1": sol["multipliers"]["energy"], "entropy": sol["entropy"]}
        out += [f"reference_mismatch: {f}" for f in checks.maxent_failures(
            problem["energies"], problem["mean_energy"], problem["kappa"], solution,
            doc["fit"], scale)]
    return out


def checked_cli_op(op: dict, proc, scale: float) -> tuple:
    """(the first failure of one finished command or None, the known
    defect it hit or None)."""
    if (op["cls"] == "maxent-demo" and proc.returncode == 2
            and b"maxent solver failed" in proc.stderr
            and op["config"]["maxent"]["kappa"] < MAXENT_DEFECT_KAPPA):
        return None, "maxent_small_kappa_nonconvergence"
    try:
        failures = cli_failures(op, proc.returncode, proc.stdout, proc.stderr, scale)
    except (ValueError, KeyError, IndexError) as exc:
        failures = [f"unparsable_output: {type(exc).__name__}: {exc}"]
    return (failures[0] if failures else None), None


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds per module from -X importtime, plus under
    "<kappa_rup>" the total of the top-level kappa_rup imports (the
    interpreter's own start-up imports are left out)."""
    cumulative, total = {}, 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, raw = line[len("import time:"):].split("|", 2)
        name = raw.strip()
        seconds = int(cum) * 1e-6
        cumulative.setdefault(name, seconds)
        # nesting adds two spaces per level
        if len(raw) - len(raw.lstrip()) == 1 and name.split(".")[0] == "kappa_rup":
            total += seconds
    cumulative["<kappa_rup>"] = total
    return cumulative


def cli_trace(run: Run, args, env, out_dir: str, scale: float):
    """Per-layer figures of one cli-mix cycle: each command runs
    IMPORTTIME_REPEATS times as a real process under -X importtime, then
    once more in process, warm, untraced and traced, in the worker.
    interp_s is, per process, wall time minus that process's kappa_rup
    import time, minus the warm main_s, reported as computed (not clamped
    at 0); import_s and interp_s are medians over the processes."""
    cycle = next(inputs.cli_mix(args.seed))
    argvs = [(op["cls"], cli_argv(op, out_dir, 0)) for op in cycle]
    samples = defaultdict(list)         # command -> [(wall, imports)]
    for op, (cmd, argv) in zip(cycle, argvs):
        for _ in range(IMPORTTIME_REPEATS):
            wall, proc = timed_process(
                [sys.executable, "-X", "importtime", "-c", CLI_ENTRY, *argv], env)
            run.op(*checked_cli_op(op, proc, scale))
            samples[cmd].append((wall, parse_importtime(proc.stderr.decode())))
    doc = worker(["trace", "cli-mix", str(args.seed), args.spans],
                 env, stdin=json.dumps(argvs).encode())
    for op, code, same in zip(cycle, doc["codes"], doc["same_output"]):
        if code == 0:
            run.op(None)
        elif (op["cls"] == "maxent-demo" and code == 2
              and op["config"]["maxent"]["kappa"] < MAXENT_DEFECT_KAPPA):
            run.op(None, "maxent_small_kappa_nonconvergence")
        else:
            run.op(f"exit_code: {code}")
        if not same:
            run.failures["traced_output_differs"] += 1
            run.mismatch = True
    metrics = doc["metrics"]
    for cmd, _ in argvs:
        main_s = metrics[f"cli.{cmd}.main_s"]
        metrics[f"cli.{cmd}.import_s"] = statistics.median(
            imp["<kappa_rup>"] for _, imp in samples[cmd])
        metrics[f"cli.{cmd}.interp_s"] = statistics.median(
            wall - imp["<kappa_rup>"] - main_s for wall, imp in samples[cmd])
    every = [imp for runs in samples.values() for _, imp in runs]
    for key, module in IMPORT_MODULES.items():
        metrics[f"cli.import.{key}_s"] = statistics.median(imp.get(module, 0.0) for imp in every)
    traced_metrics(run, doc)


def cli_mix(args, env, scale, out_dir) -> Run:
    run = Run()
    if args.trace:
        cli_trace(run, args, env, out_dir, scale)
        return run
    probe = [sys.executable, "-c", "import kappa_rup.cli"]
    setups = setup_probes(probe, env, SETUP_PROBES[0])
    ops = []
    first_outputs = {}     # the first two cycles share their arguments
    start = time.perf_counter()
    before = hostref.python_window(CLI_REF_WINDOW_S)
    for index, cycle in enumerate(inputs.cli_mix(args.seed)):
        for op in cycle:
            argv = cli_argv(op, out_dir, index)
            wall, proc = timed_process([sys.executable, "-c", CLI_ENTRY, *argv], env)
            after = hostref.python_window(CLI_REF_WINDOW_S)
            error, defect = checked_cli_op(op, proc, scale)
            if index == 0:
                first_outputs[op["cls"]] = proc.stdout
            elif index == 1 and first_outputs[op["cls"]] != proc.stdout:
                error = error or "output_differs: two runs of one config"
            run.op(error, defect)
            ops.append({"cls": op["cls"], "t": wall, "ref": 0.5 * (before + after),
                        "ref_kind": "python"})
            before = after
        if index >= 1 and time.perf_counter() - start >= args.seconds:
            break
    setups += setup_probes(probe, env, SETUP_PROBES[1])
    common_metrics(run, setups, ops, inputs.CLI_COMMANDS)
    for cmd in inputs.CLI_COMMANDS:
        times = [op["t"] for op in ops if op["cls"] == cmd]
        run.add(f"cli_{cmd.replace('-', '_')}_s", statistics.median(times), "s", len(times))
    return run


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-reference", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kappa_rup", "__init__.py")):
        sys.stderr.write("perfbench: src/kappa_rup not found; run from the root of a "
                         "kappa-rup checkout\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    args.spans = os.path.join(out_dir, f"spans-{tag}.jsonl")
    env = child_env(root)
    scale = checks.PERTURBATION if args.perturb_reference else 1.0

    start = time.perf_counter()
    if args.workload == "moment-sweep":
        run = moment_sweep(args, env, scale)
    elif args.workload == "array-kernels":
        run = array_kernels(args, env, scale)
    else:
        run = cli_mix(args, env, scale, out_dir)

    if args.trace:
        for command in inputs.CLI_COMMANDS:       # zero where cli is not exercised
            for part in ("main_s", "self_s", "interp_s", "import_s"):
                run.metrics.setdefault(f"cli.{command}.{part}", 0.0)
        for key in IMPORT_MODULES:
            run.metrics.setdefault(f"cli.import.{key}_s", 0.0)
        run.metrics.setdefault("coherent_states.f_expectation.below_one_frac", 0.0)
        run.report += [(m["name"], run.metrics[m["name"]], m["unit"], 1)
                       for m in spec["per_layer"]]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]} for m in listed}
    failed = sum(run.failures.values())
    result = {"correct": not run.mismatch, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}

    env_record = environment(root, env, args)
    print(f"perfbench kappa-rup {tag} inputs={env_record['inputs_digest']} "
          f"wall={time.perf_counter() - start:.1f}s")
    print("env " + json.dumps(env_record, sort_keys=True))
    for name, value, unit, samples in run.report:
        print(f"  {name:58s} {value!r:>24} {unit:9s} n={samples}")
    for kind, count in sorted(run.failures.items()):
        print(f"  failures {kind}: {count} of {run.attempted}")
    for kind, count in sorted(run.defects.items()):
        print(f"  known defect {kind}: {count} of {run.attempted}")
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env_record, "result": result,
                   "report": [{"name": n, "value": v, "unit": u, "samples": s}
                              for n, v, u, s in run.report],
                   "failures": dict(run.failures), "known_defects": dict(run.defects),
                   "setup_probes": run.setup_probes,
                   "op_times": run.op_times},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
