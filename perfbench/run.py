"""Benchmark entry point.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 30 --trace 0

Runs one workload in this process, on one thread, as a closed loop with one
client: it cycles round-robin through the seeded instance list until the
measuring time is up, checks every operation, and prints a table of metrics
followed by one JSON line. With --trace 0 that line holds the end-to-end
metrics of BENCHMARK.json; with --trace 1 it holds the per-layer metrics,
from a run that alternates untraced and traced passes. Set-up is measured
five times over the run; each time, the imports are timed in a fresh child
interpreter, which the run waits for.

Times are taken from outside, around calls into gscompile's public
functions, and rescaled by a reference kernel in refspeed.py so that the
machine's speed phases cancel (see README.md): operations by the workload's
kernel, set-ups and imports by the pure-Python one.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refspeed  # noqa: E402

SETUPS = 5  # set-up is measured this many times per run; setup_s is the median
# Run in a fresh interpreter, this prints the rescaled seconds it takes to
# import run.py and, through import_program(), gscompile and the workloads:
# the import part of one set-up.
IMPORT_TIMER = f"""
import sys, time
sys.path.insert(0, {str(HERE)!r})
import refspeed
refspeed.probe()  # the first kernel runs in a process are slower; keep them out
before = refspeed.probe()
t0 = time.perf_counter()
import run
run.import_program()
wall = time.perf_counter() - t0
print(refspeed.scale(wall, before, refspeed.probe()))
"""
SLOTS = 12  # per-instance rows op_s.00 .. op_s.11


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("compile", "fidelity", "large-device"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import gscompile from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "gscompile" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gscompile sources under {src}")
    sys.path.insert(0, str(src))
    import gscompile

    if Path(gscompile.__file__).resolve().parent != (src / "gscompile").resolve():
        raise SystemExit(f"perfbench: imported gscompile from {gscompile.__file__}, not {src}")
    import workloads

    return workloads


def time_import() -> float:
    """Rescaled seconds a fresh interpreter takes to import everything a run
    needs; timed in a child process so that it can be repeated."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: timing the imports failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Run:
    def __init__(self, args, workloads_module):
        self.args = args
        self.workload_module = workloads_module
        self.workload = workloads_module.WORKLOADS[args.workload](args.seed)
        self.import_s = []  # rescaled seconds per set-up spent importing
        self.setup_s = []  # rescaled seconds per set-up, imports excluded
        self.load_s = []
        self.prep = None
        self.problems = defaultdict(list)  # slot, or "setup" -> problems found
        self.failed = defaultdict(int)  # slot -> operations that failed a check
        self.first = {}  # slot -> first Outcome
        self.times = defaultdict(lambda: {False: [], True: []})  # slot -> traced? -> rescaled seconds
        self.layers = defaultdict(lambda: defaultdict(list))  # slot -> metric -> per traced op
        self.embeddings = {}  # slot -> embeddings enumerated per traced operation
        self.ops = defaultdict(int)
        self.check_s = 0.0  # rescaled seconds spent in the oracle cross-checks
        self.tracer = None

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        self.import_s.append(time_import())
        before = refspeed.probe()
        t0 = time.perf_counter()
        prep = self.workload.setup()
        wall = time.perf_counter() - t0
        after = refspeed.probe()
        self.setup_s.append(refspeed.scale(wall, before, after))
        self.load_s.append(refspeed.scale(prep.load_s, before, after))
        if self.prep is None:
            self.prep = prep
        elif prep != self.prep:
            self.problems["setup"].append("set-up produced different inputs for the same seed")

    # -- measuring loop -------------------------------------------------------

    def measure(self) -> None:
        from spans import Tracer

        n = len(self.prep.instances)
        order = list(range(n))
        random.Random(f"order/{self.args.seed}").shuffle(order)
        trace = bool(self.args.trace)
        self.tracer = Tracer() if trace else None
        kind = self.workload.reference
        refspeed.probe(kind)  # the first kernel runs in a process are slower; keep them out
        min_cycles = 2 if trace else 1
        start = time.perf_counter()
        deadline = start + self.args.seconds
        resetups = [start + self.args.seconds * i / SETUPS for i in range(1, SETUPS)]
        ref = refspeed.probe(kind)
        cycle, op_id = 0, 0
        while True:
            traced = trace and cycle % 2 == 1
            for k in order:
                if cycle >= min_cycles and time.perf_counter() >= deadline:
                    return
                outcome, wall = self._one(k, op_id, traced)
                after = refspeed.probe(kind)
                scaled = refspeed.scale(wall, ref, after)
                self.times[k][traced].append(scaled)
                if traced:
                    for metric, sec in self.tracer.op_breakdown(op_id).items():
                        self.layers[k][metric].append(sec * scaled / wall)
                    self._check_embeddings(k, self.tracer.items(op_id, "enumerate_embeddings"))
                self._record(k, outcome)
                op_id += 1
                ref = after
                if resetups and time.perf_counter() >= resetups[0]:
                    resetups.pop(0)
                    self.setup()
                    ref = refspeed.probe(kind)
            cycle += 1

    def _one(self, k: int, op_id: int, traced: bool):
        """Run one operation; returns (Outcome or the exception raised, wall seconds)."""
        if not traced:
            t0 = time.perf_counter()
            try:
                outcome = self.workload.op(self.prep, k)
            except Exception as exc:  # an operation that raises counts as failed
                outcome = exc
            return outcome, time.perf_counter() - t0
        with self.tracer.active():
            t0 = time.perf_counter()
            self.tracer.begin("op", "bench", op=op_id)
            try:
                outcome = self.workload.op(self.prep, k)
            except Exception as exc:
                outcome = exc
            finally:
                self.tracer.end()
            return outcome, time.perf_counter() - t0

    def _record(self, k: int, outcome) -> None:
        self.ops[k] += 1
        if isinstance(outcome, Exception):
            found = [f"raised {type(outcome).__name__}: {outcome}"]
        else:
            found = list(outcome.problems)
            first = self.first.setdefault(k, outcome)
            if outcome.signature != first.signature:
                found.append("output differs from the first call with the same input")
            if outcome.counts != first.counts:
                found.append(f"counts differ between calls: {outcome.counts} vs {first.counts}")
        if found:
            self.failed[k] += 1
            self.problems[k].extend(found)

    def _check_embeddings(self, k: int, value: int) -> None:
        seen = self.embeddings.setdefault(k, value)
        if seen != value:
            self.failed[k] += 1
            self.problems[k].append(f"embeddings differ between calls: {value} vs {seen}")

    # -- oracle cross-checks (outside the timed calls) -------------------------

    def cross_check(self) -> None:
        cache = {}
        kind = self.workload.reference
        for k in sorted(self.first):
            before = refspeed.probe(kind)
            t0 = time.perf_counter()
            found = self.workload.cross_check(self.prep, k, self.first[k], cache)
            wall = time.perf_counter() - t0
            self.check_s += refspeed.scale(wall, before, refspeed.probe(kind))
            if found:  # every call returned this same output, so every call failed
                self.failed[k] = self.ops[k]
                self.problems[k].extend(found)

    # -- results -------------------------------------------------------------

    def failed_ops(self) -> int:
        if self.problems.get("setup"):
            return sum(self.ops.values())
        return sum(min(self.failed[k], self.ops[k]) for k in self.ops)

    def fidelity_summary(self):
        return self.workload_module.fidelity_summary(self.first.values())

    def op_median(self, k: int, traced: bool = False) -> float:
        return statistics.median(self.times[k][traced])

    def end_to_end(self) -> dict:
        return {
            "setup_s": (statistics.median(i + s for i, s in zip(self.import_s, self.setup_s)), "s"),
            "op_s": (geomean([self.op_median(k) for k in self.times]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        slots = sorted(self.times)
        layer_sum = defaultdict(float)
        for k in slots:
            for metric, values in self.layers[k].items():
                layer_sum[metric] += statistics.median(values)
        counts = defaultdict(int)
        for k in slots:
            for name, value in self.first[k].counts.items() if k in self.first else ():
                counts[name] += value
        fidelity, stderr, _ = self.fidelity_summary() or (0.0, 0.0, 0)
        solve_s_by_objective = defaultdict(float)
        for k in slots:
            solves = self.layers[k].get("fn.solve_exact")
            if solves:
                solve_s_by_objective[self.prep.instances[k].objective] += statistics.median(solves)
        simulating = self.workload.name == "fidelity"
        out = {
            "placement.embeddings": (sum(self.embeddings.get(k, 0) for k in slots), "count"),
            "placement.enumerate_s": (layer_sum["fn.enumerate_embeddings"], "s"),
            "placement.score_s": (layer_sum["fn.score_embedding"], "s"),
            "placement.best_s": (layer_sum["fn.best_placement"], "s"),
            "device.load_s": (statistics.median(self.load_s), "s"),
            "model.build_s": (layer_sum["fn.build_model"], "s"),
            "model.gates": (counts["model.gates"], "count"),
            "model.constraints": (counts["model.constraints"], "count"),
            "model.emit_s": (layer_sum["fn.emit_smtlib"], "s"),
            "model.check_s": (layer_sum["fn.check_solution"], "s"),
            "model.smt_bytes": (counts["model.smt_bytes"], "B"),
            "solver.solve_s": (layer_sum["fn.solve_exact"], "s"),
            "solver.smt-runtime_s": (solve_s_by_objective["smt-runtime"], "s"),
            "solver.runtime_s": (solve_s_by_objective["runtime"], "s"),
            "solver.cancellation_s": (solve_s_by_objective["cancellation"], "s"),
            "solver.decoherence_s": (solve_s_by_objective["decoherence"], "s"),
            "solver.cnots": (counts["solver.cnots"], "count"),
            "circuit.derive_s": (layer_sum["fn.derive_circuit"], "s"),
            "circuit.gates": (counts["circuit.gates"], "count"),
            "circuit.makespan_ns": (float(sum(o.makespan_ns for o in self.first.values())), "ns"),
            "graphs.stabilizer_group_s": (layer_sum["fn.stabilizer_group"], "s"),
            "sim.verify_s": (layer_sum["top.simulate_ideal"] + layer_sum["top.expectation"], "s"),
            "sim.estimate_s": (layer_sum["fn.estimate_fidelity"], "s"),
            "sim.frame_work": (counts["sim.frame_work"], "count"),
            "sim.fidelity": (fidelity, "1"),
            "sim.fidelity_stderr": (stderr, "1"),
            "oracle.sweep_s": (0.0 if simulating else self.check_s, "s"),
            "sim.density_oracle_s": (self.check_s if simulating else 0.0, "s"),
        }
        for layer in ("placement", "model", "solver", "circuit", "graphs", "sim", "bench"):
            if layer != "bench":
                out[f"{layer}.busy_s"] = (layer_sum[f"{layer}.busy_s"], "s")
            out[f"{layer}.self_s"] = (layer_sum[f"{layer}.self_s"], "s")
        out["trace.op_pass_s"] = (sum(self.op_median(k, True) for k in slots), "s")
        out["trace.overhead"] = (
            geomean([self.op_median(k, True) / self.op_median(k) for k in slots]), "ratio")
        for k in range(SLOTS):
            out[f"op_s.{k:02d}"] = (self.op_median(k) if k in self.times else 0.0, "s")
        return out


def report(run: Run, metrics: dict, attempted: int, failed: int) -> None:
    """Human-readable table on stdout, ahead of the JSON line."""
    print(f"# workload {run.args.workload}  seed {run.args.seed}  trace {run.args.trace}")
    print(f"{'slot':>4}  {'instance':<28} {'calls':>5} {'op_s':>9}  why")
    for k in sorted(run.times):
        inst = run.prep.instances[k]
        print(f"{k:>4}  {inst.name:<28} {len(run.times[k][False]):>5} {run.op_median(k):>9.4f}  {inst.why}")
    for k, found in sorted(run.problems.items(), key=str):
        for p in sorted(set(found))[:5]:
            print(f"# FAIL {k}: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    print(f"# setup_s = median of {len(run.setup_s)} set-ups, each imports + the rest: "
          + ", ".join(f"{i:.4f} + {s:.4f}" for i, s in zip(run.import_s, run.setup_s)))
    print(f"{'error_rate':<28} {failed / max(attempted, 1):>14.6g} 1  ({failed} of {attempted} operations failed)")
    if run.args.trace:
        total = metrics["trace.op_pass_s"][0]
        split = ", ".join(
            f"{layer} {metrics[f'{layer}.busy_s'][0] / total:.0%}"
            for layer in ("placement", "model", "solver", "circuit", "graphs", "sim")
        )
        print(f"# busy share of traced op time: {split}")
        print(f"# tracing overhead: traced op time / untraced op time = {metrics['trace.overhead'][0]:.3f}")
    summary = run.fidelity_summary()
    if summary:
        mean, err, circuits = summary
        print(f"# fidelity (mean readout-mitigated over {circuits} circuits): {mean:.5f} +- {err:.5f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    run = Run(args, import_program())
    refspeed.probe()  # the first kernel runs in a process are slower; keep them out
    run.setup()
    run.measure()
    run.cross_check()
    metrics = run.per_layer() if args.trace else run.end_to_end()
    attempted = sum(run.ops.values())
    failed = run.failed_ops()
    report(run, metrics, attempted, failed)
    if run.tracer is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(run.tracer.dump()), encoding="utf-8")
        print(f"# spans written to {path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
