"""Steadiness and determinism self-checks for the benchmark.

    python3 perfbench/selfcheck.py --workload compile
    python3 perfbench/selfcheck.py --workload compile --determinism

Steadiness: runs run.py for run_seconds (from BENCHMARK.json) once per seed,
seeds 1..10, two sets over, one run at a time. For every end-to-end metric it
prints the quartiles of each set, the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json, and how far the second set's median moved
from the first's. A metric fails when its spread exceeds its bound or when
the second median is worse by more than the bound.

Determinism: runs seed 1 twice for 5 s with --trace 1 and requires every
count metric (and the seed-determined outputs: makespan sum, fidelity) to
repeat exactly; a count that differs is a benchmark failure, not noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2
DETERMINISM_SEED = 1
DETERMINISM_SECONDS = 5
# Counts, plus outputs that are fixed for a given seed; all must repeat exactly.
EXACT = (
    "placement.embeddings",
    "model.gates",
    "model.constraints",
    "model.smt_bytes",
    "solver.cnots",
    "circuit.gates",
    "sim.frame_work",
    "circuit.makespan_ns",
    "sim.fidelity",
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        fails = [line for line in proc.stdout.splitlines() if line.startswith("# FAIL")]
        raise SystemExit(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed\n"
                         + "\n".join(fails))
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def steadiness(workload: str, bench: dict) -> bool:
    sets = []
    for s in range(SETS):
        runs = {}
        for seed in SEEDS:
            runs[seed] = run_once(workload, seed, bench["run_seconds"], 0)
            print(f"set {s + 1} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[seed].items()),
                  flush=True)
        sets.append(runs)
    ok = True
    print(f"\n{'metric':<14} {'set':>3} {'Q1':>11} {'median':>11} {'Q3':>11} {'spread':>7} {'bound':>6}  verdict")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for s, runs in enumerate(sets):
            q1, med, q3, sp = spread([r[name] for r in runs.values()])
            medians.append(med)
            verdict = "ok" if sp <= bound else "TOO NOISY"
            if sp > bound / 3 and verdict == "ok":
                verdict = "ok (above a third of the bound)"
            ok &= verdict.startswith("ok")
            print(f"{name:<14} {s + 1:>3} {q1:>11.6g} {med:>11.6g} {q3:>11.6g} {sp:>7.3f} {bound:>6}  {verdict}")
        if len(medians) > 1:
            sign = 1 if metric["better"] == "lower" else -1
            drift = sign * (medians[1] - medians[0]) / medians[0]
            verdict = "ok" if drift <= bound else "MEDIAN MOVED"
            ok &= verdict == "ok"
            print(f"{name:<14} second median worse by {drift:+.3f} (bound {bound})  {verdict}")
    return ok


def determinism(workload: str) -> bool:
    a = run_once(workload, DETERMINISM_SEED, DETERMINISM_SECONDS, 1)
    b = run_once(workload, DETERMINISM_SEED, DETERMINISM_SECONDS, 1)
    ok = True
    for name in EXACT:
        same = a[name] == b[name]
        ok &= same
        print(f"{name:<24} {a[name]:>12} {b[name]:>12}  {'same' if same else 'DIFFERS'}")
    return ok


def main() -> int:
    p = argparse.ArgumentParser(description="Benchmark steadiness and determinism self-checks.")
    p.add_argument("--workload", required=True)
    p.add_argument("--determinism", action="store_true")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = determinism(args.workload) if args.determinism else steadiness(args.workload, bench)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
