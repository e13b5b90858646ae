"""Seeded inputs of the three workloads.

Nothing here imports kappa_rup: the library only ever receives the
values generated below. The same seed gives the same inputs.

Every workload is an endless stream of *cycles* of fixed composition,
so a run that stops at a cycle boundary always measures the same mix of
operation classes whatever its length.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random

# moment-sweep: one cycle is one paper-regime state and one heavy-tail state
PAPER_KAPPA = (1e-8, 1e-2)        # log-uniform; the paper's bound is kappa ~ 1e-5
HEAVY_TAIL_KAPPA = (1e-2, 0.66)   # uniform; power-law tails, hardest quadrature
ZETA = (1e-2, 1e2)                # log-uniform
MOMENT_CLASSES = ("paper", "heavy_tail")
F_PROBE_STATES = 1000             # paper-regime kappas of the traced F < 1 probe

# array-kernels: one cycle is one kappa through every grid size, plus
# MAXENT_PER_CYCLE solve+fit problems
GRID_KAPPA = (0.05, 0.6)
GRID_EXTENT = 400.0
# 2^11 points (one complex array: 32 KiB, inside a 4 MiB L2) up to 2^20
# points (one complex array: 16 MiB, past L2 but inside a 105 MiB L3)
GRID_SIZES = (2**11, 2**14, 2**17, 2**20)
ORDER_SIZES = (2**11, 2**14, 2**17)   # before the round-off floor at extent 400
MAXENT_LEVELS = (5, 10**5)            # log-uniform, stratified
MAXENT_KAPPA = (0.0, 0.9)
MAXENT_PER_CYCLE = 12
ARRAY_CLASSES = tuple(f"grid_{n}" for n in GRID_SIZES) + ("maxent",)

# cli-mix: one cycle runs each command once; the first two cycles share
# one set of arguments so that byte-identical output can be checked, every
# later cycle draws new arguments
CLI_COMMANDS = ("verify", "table", "plot-psi", "bound-alpha", "maxent-demo")
TABLE_KAPPAS = (3, 7, 0.0, 0.66)      # count range, value range
PLOT_GRID_N = (101, 20001)
MAXENT_DEMO_LEVELS = (4, 40)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def moment_sweep(seed: int):
    rng = random.Random(seed)
    while True:
        yield [
            {"cls": "paper", "kappa": _log_uniform(rng, *PAPER_KAPPA),
             "zeta": _log_uniform(rng, *ZETA)},
            {"cls": "heavy_tail", "kappa": rng.uniform(*HEAVY_TAIL_KAPPA),
             "zeta": _log_uniform(rng, *ZETA)},
        ]


def f_probe(seed: int) -> list:
    """Paper-regime kappas whose closed-form F the traced run counts below 1."""
    rng = random.Random(f"f-probe-{seed}")
    return [_log_uniform(rng, *PAPER_KAPPA) for _ in range(F_PROBE_STATES)]


def array_kernels(seed: int):
    """Grid problems carry their kappa; MaxEnt problems carry the seed of
    their energy levels, which the worker expands with numpy."""
    rng = random.Random(seed)
    while True:
        kappa = rng.uniform(*GRID_KAPPA)
        ops = [{"cls": f"grid_{n}", "kappa": kappa, "n": n, "extent": GRID_EXTENT}
               for n in GRID_SIZES]
        # one problem per log-spaced stratum of the level range, so that
        # every cycle holds the same spread of problem sizes
        lo, hi = (math.log10(v) for v in MAXENT_LEVELS)
        width = (hi - lo) / MAXENT_PER_CYCLE
        for i in range(MAXENT_PER_CYCLE):
            ops.append({
                "cls": "maxent",
                "levels": int(round(10.0 ** rng.uniform(lo + i * width, lo + (i + 1) * width))),
                "kappa": rng.uniform(*MAXENT_KAPPA),
                "energy_seed": rng.getrandbits(32),
                # mean energy as a fraction of the level span; below the
                # uniform average, so beta > 0
                "mean_frac": rng.uniform(0.05, 0.45),
            })
        # interleave the MaxEnt problems between the grid sizes
        grid, maxent = ops[:len(GRID_SIZES)], ops[len(GRID_SIZES):]
        step = MAXENT_PER_CYCLE // len(GRID_SIZES)
        mixed = []
        for i, g in enumerate(grid):
            mixed.append(g)
            mixed.extend(maxent[i * step:(i + 1) * step])
        yield mixed


def cli_mix(seed: int):
    """Each op is {"cls": command, "args": [...], "config": dict or None}."""
    rng = random.Random(seed)
    first = True
    while True:
        lo_n, hi_n, lo_k, hi_k = TABLE_KAPPAS
        kappas = [rng.uniform(lo_k, hi_k) for _ in range(rng.randint(lo_n, hi_n))]
        levels = rng.randint(*MAXENT_DEMO_LEVELS)
        energies = sorted(round(rng.uniform(0.0, 10.0), 6) for _ in range(levels))
        lo_e, hi_e = energies[0], energies[-1]
        config = {"maxent": {
            "energies": energies,
            "mean_energy": round(lo_e + rng.uniform(0.1, 0.5) * (hi_e - lo_e), 6),
            "kappa": round(rng.uniform(*MAXENT_KAPPA), 6),
        }}
        cycle = [
            {"cls": "verify", "args": [], "config": None},
            {"cls": "table", "args": ["--kappa", ",".join(repr(k) for k in kappas)],
             "config": None},
            {"cls": "plot-psi", "args": ["--grid-n", str(rng.randint(*PLOT_GRID_N))],
             "config": None},
            {"cls": "bound-alpha", "args": [], "config": None},
            {"cls": "maxent-demo", "args": [], "config": config},
        ]
        yield cycle
        if first:
            yield cycle
            first = False


GENERATORS = {
    "moment-sweep": moment_sweep,
    "array-kernels": array_kernels,
    "cli-mix": cli_mix,
}


def digest(workload: str, seed: int) -> str:
    """Short hash of a workload's first cycles, so two seeds can be told apart."""
    text = json.dumps(list(itertools.islice(GENERATORS[workload](seed), 4)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
