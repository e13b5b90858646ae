"""Self-test of the benchmark itself (not of kappa_rup).

    python3 perfbench/selftest.py

Run from the root of a kappa-rup checkout. For each workload, short runs
check that:
  * every metric BENCHMARK.json names is printed, with its unit, in the
    untraced and in the traced mode;
  * scaling every reference by 1 + 1e-3 raises the failed share;
  * another seed changes the inputs but not the metric names;
  * the traced counts (unit "count") repeat exactly for a seed;
and, once, that the benchmark exits non-zero without printing a result
in a directory that holds only BENCHMARK.json and perfbench/.
Exits 1 and names the failed checks if any fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("moment-sweep", "array-kernels", "cli-mix")


def run(workload, seed, trace=0, perturb=False, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    if perturb:
        argv.append("--perturb-reference")
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    digest = lines[0].split("inputs=")[1].split()[0]
    return digest, json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        runs = {}
        for key, seed, trace, perturb in (("a", 1, 0, False), ("b", 2, 0, False),
                                          ("perturbed", 1, 0, True), ("trace", 1, 1, False),
                                          ("trace again", 1, 1, False)):
            proc = run(workload, seed, trace, perturb)
            expect(proc.returncode == 0, f"{workload} {key}: exit code 0")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
                return 1
            runs[key] = parse(proc)
        for key in ("a", "trace"):
            metrics = runs[key][1]["metrics"]
            units = {name: m["unit"] for name, m in metrics.items()}
            expect(units == wanted[key == "trace"],
                   f"{workload} {key}: every BENCHMARK.json metric printed with its unit")
        counts = [{name: m["value"] for name, m in runs[key][1]["metrics"].items()
                   if m["unit"] == "count"} for key in ("trace", "trace again")]
        expect(counts[0] == counts[1], f"{workload}: traced counts repeat exactly for a seed")
        (digest_a, a), (digest_b, b) = runs["a"], runs["b"]
        expect(digest_a != digest_b, f"{workload}: another seed changes the inputs")
        expect(set(a["metrics"]) == set(b["metrics"]),
               f"{workload}: another seed keeps the metric names")
        p = runs["perturbed"][1]
        expect(p["failed"] / p["attempted"] > a["failed"] / a["attempted"] and not p["correct"],
               f"{workload}: a perturbed reference raises the failed share")

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("moment-sweep", 1, cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without src/, exits non-zero and prints no result")
    shutil.rmtree(bare)

    print(f"{len(problems)} failed" if problems else "all passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
