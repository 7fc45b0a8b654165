"""The three workloads: how each sets up, what one operation is, how it is checked.

Every call into gscompile goes through its module attribute (for example
``placement.best_placement``) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Optional

from gscompile import circuit, device, graphs, model, oracle, placement, sim, solver

import inputs

ORACLE_MAX_CNOTS = 6  # oracle_sweep refuses more; linear:7 takes about 2 s
# On the large device only up to 5 CNOTs, so the cross-checks stay well under
# a second per run.
LARGE_ORACLE_MAX_CNOTS = 5
DENSITY_MAX_N = 5  # density_oracle refuses more
# The Monte Carlo estimate must lie within this many standard errors of the
# density oracle. The acceptance test uses 3 on one fixed seed; over the
# hundreds of seeds a benchmark sees, 3 would flag an honest estimate about
# once in 370 checks, while 5 does so about once in 1.7 million.
SIGMA_BOUND = 5.0


@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks compare."""

    signature: object  # must repeat exactly on every call for the instance
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)  # must repeat exactly too
    makespan_ns: Fraction = Fraction(0)
    fidelity: Optional[float] = None
    stderr: Optional[float] = None


@dataclass
class Prepared:
    """Everything set-up produced; compared field by field across set-ups."""

    instances: List[inputs.Instance]
    items: List[dict]
    cal: device.DeviceCalibration
    load_s: float = field(compare=False)  # wall seconds spent loading the calibration
    noise: Optional[sim.NoiseModel] = field(default=None, compare=False)


def _objective(inst: inputs.Instance, crosstalk_free: bool = False) -> model.Objective:
    return model.Objective(model.ObjectiveKind(inst.objective), crosstalk_free=crosstalk_free)


def _bundled_calibration():
    path = device.sample_calibration_path()
    adj = inputs.adjacency_of(json.loads(path.read_text(encoding="utf-8")))
    t0 = perf_counter()
    cal = device.load_calibration(path)
    return cal, adj, perf_counter() - t0


def _events(c) -> int:
    """Noisy events the Monte Carlo estimator replays per shot and element:
    one per gate plus one per idle gap on a wire, trailing gaps included."""
    last = {q: Fraction(0) for q in c.placement}
    events = 0
    for g in c.gates:
        for q in g.wires:
            events += g.start > last[q]
            last[q] = g.end
        events += 1
    return events + sum(1 for q in c.placement if c.makespan > last[q])


class Compile:
    """place -> build_model -> solve_exact -> check -> derive -> tableau verification."""

    name = "compile"
    reference = "python"  # refspeed kernel that rescales the operations

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> Prepared:
        cal, adj, load_s = _bundled_calibration()
        instances = inputs.compile_instances(self.seed, adj)
        items = [
            {"graph": graphs.graph_from_edges(i.n, i.edges), "objective": _objective(i)}
            for i in instances
        ]
        prep = Prepared(instances, items, cal, load_s)
        warm = {"graph": graphs.linear_graph(3), "objective": model.Objective(model.ObjectiveKind.SMT_RUNTIME)}
        self._run(prep.cal, warm)
        return prep

    def op(self, prep: Prepared, k: int) -> Outcome:
        return self._run(prep.cal, prep.items[k])

    @staticmethod
    def _run(cal, item) -> Outcome:
        g = item["graph"]
        e = placement.best_placement(g, cal)
        m = model.build_model(g, e, cal, item["objective"])
        s = solver.solve_exact(m)
        violated = model.check_solution(m, s)
        c = circuit.derive_circuit(m, s)
        tab = sim.simulate_ideal(c)
        wrong = sum(1 for p in graphs.stabilizer_group(g) if sim.expectation(tab, p) != 1)

        problems = []
        if not s.proven_optimal:
            problems.append("solution not proven optimal")
        if violated:
            problems.append(f"check_solution: {violated[:3]}")
        if wrong:
            problems.append(f"{wrong} stabilizer elements without expectation +1")
        kind = item["objective"].kind
        timed = kind in (model.ObjectiveKind.SMT_RUNTIME, model.ObjectiveKind.MIN_MAKESPAN)
        return Outcome(
            signature=(e.mapping, s.objective_value, c.gates),
            problems=problems,
            counts={
                "model.gates": len(m.gates),
                "model.constraints": len(m.constraints),
                "solver.cnots": m.num_cnots,
                "circuit.gates": len(c.gates),
            },
            makespan_ns=c.makespan if timed else Fraction(0),
        )

    def cross_check(self, prep: Prepared, k: int, first: Outcome, cache: dict) -> List[str]:
        """Objective value against the brute-force oracle (<= 6 CNOTs)."""
        inst, item = prep.instances[k], prep.items[k]
        if len(inst.edges) > ORACLE_MAX_CNOTS:
            return []
        g = item["graph"]
        e = placement.best_placement(g, prep.cal)
        m = model.build_model(g, e, prep.cal, item["objective"])
        key = (inst.n, inst.edges)
        if key not in cache:
            cache[key] = oracle.oracle_sweep(m)
        want = cache[key][m.objective.kind][0]
        got = first.signature[1]
        return [] if got == want else [f"objective {got} differs from oracle {want}"]


class Fidelity:
    """One estimate_fidelity(..., mitigate=True) call on a circuit built in set-up."""

    name = "fidelity"
    reference = "array"  # the estimator's time goes to numpy array work

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> Prepared:
        cal, adj, load_s = _bundled_calibration()
        instances = inputs.fidelity_instances(self.seed, adj)
        items = [{"circuit": self._circuit(cal, i)} for i in instances]
        prep = Prepared(instances, items, cal, load_s, sim.NoiseModel.from_calibration(cal))
        warm = inputs.Instance("warm-up", 3, ((0, 1), (1, 2)), "smt-runtime", "", circuit="compiled")
        sim.estimate_fidelity(self._circuit(cal, warm), prep.noise, shots=256, seed=0, mitigate=True)
        return prep

    @staticmethod
    def _circuit(cal, inst: inputs.Instance):
        g = graphs.graph_from_edges(inst.n, inst.edges)
        e = placement.best_placement(g, cal)
        if inst.circuit == "naive":
            return circuit.naive_circuit(g, e, cal)
        m = model.build_model(g, e, cal, _objective(inst))
        return circuit.derive_circuit(m, solver.solve_exact(m))

    def op(self, prep: Prepared, k: int) -> Outcome:
        inst, c = prep.instances[k], prep.items[k]["circuit"]
        est = sim.estimate_fidelity(c, prep.noise, shots=inst.shots, seed=inst.mc_seed, mitigate=True)
        problems = []
        f, err = est.fidelity_mitigated, est.stderr_mitigated
        if f is None or err is None or not (0.0 < err < 1.0) or not (-5 * err < f < 1.0 + 5 * err):
            problems.append(f"implausible estimate {f} +- {err}")
        return Outcome(
            signature=(est.fidelity_raw, f, est.stderr_raw, err),
            problems=problems,
            counts={"sim.frame_work": inst.shots * ((1 << c.n) - 1) * _events(c)},
            makespan_ns=c.makespan,
            fidelity=f,
            stderr=err,
        )

    def cross_check(self, prep: Prepared, k: int, first: Outcome, cache: dict) -> List[str]:
        """Mitigated estimate against the exact density-matrix oracle (n <= 5)."""
        c = prep.items[k]["circuit"]
        if c.n > DENSITY_MAX_N:
            return []
        exact = sim.density_oracle(c, prep.noise)
        dev = abs(first.fidelity - exact)
        if dev > SIGMA_BOUND * first.stderr:
            return [f"estimate {first.fidelity} is {dev / first.stderr:.1f} sigma from oracle {exact}"]
        return []


class LargeDevice:
    """Placement on a 129-qubit device, then an exact decoherence solve
    (within the cap) or SMT-LIB emission (above it), crosstalk-free."""

    name = "large-device"
    reference = "python"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> Prepared:
        cal_json = inputs.heavy_hex_129()
        t0 = perf_counter()
        cal = device.calibration_from_json(cal_json)
        load_s = perf_counter() - t0
        instances = inputs.large_device_instances(self.seed, inputs.adjacency_of(cal_json))
        items = [
            {"graph": graphs.graph_from_edges(i.n, i.edges), "objective": _objective(i, crosstalk_free=True)}
            for i in instances
        ]
        prep = Prepared(instances, items, cal, load_s)
        warm = {
            "graph": graphs.linear_graph(3),
            "objective": model.Objective(model.ObjectiveKind.MAX_REMAINING_COHERENCE, crosstalk_free=True),
        }
        self._run(cal, warm)
        return prep

    def op(self, prep: Prepared, k: int) -> Outcome:
        return self._run(prep.cal, prep.items[k])

    @staticmethod
    def _run(cal, item) -> Outcome:
        g, obj = item["graph"], item["objective"]
        e = placement.best_placement(g, cal)
        m = model.build_model(g, e, cal, obj)
        counts = {"model.gates": len(m.gates), "model.constraints": len(m.constraints)}
        if obj.kind is not model.ObjectiveKind.MAX_REMAINING_COHERENCE:
            text = model.emit_smtlib(m).encode("utf-8")
            counts["model.smt_bytes"] = len(text)
            return Outcome(signature=(e.mapping, hashlib.sha256(text).hexdigest()), counts=counts)
        s = solver.solve_exact(m)
        violated = model.check_solution(m, s)
        problems = []
        if not s.proven_optimal:
            problems.append("solution not proven optimal")
        if violated:
            problems.append(f"check_solution: {violated[:3]}")
        counts["solver.cnots"] = m.num_cnots
        return Outcome(
            signature=(e.mapping, s.objective_value),
            problems=problems,
            counts=counts,
            makespan_ns=model.makespan_of(m, s.vars),
        )

    def cross_check(self, prep: Prepared, k: int, first: Outcome, cache: dict) -> List[str]:
        """Decoherence optimum against the brute-force oracle (small instances)."""
        inst, item = prep.instances[k], prep.items[k]
        decoherence = item["objective"].kind is model.ObjectiveKind.MAX_REMAINING_COHERENCE
        if not decoherence or len(inst.edges) > LARGE_ORACLE_MAX_CNOTS:
            return []
        g = item["graph"]
        m = model.build_model(g, placement.best_placement(g, prep.cal), prep.cal, item["objective"])
        want = oracle.oracle_sweep(m)[model.ObjectiveKind.MAX_REMAINING_COHERENCE][0]
        got = first.signature[1]
        return [] if got == want else [f"decoherence optimum {got} differs from oracle {want}"]


WORKLOADS = {w.name: w for w in (Compile, Fidelity, LargeDevice)}


def fidelity_summary(outcomes) -> Optional[tuple]:
    """(mean mitigated fidelity, its standard error, circuits), or None."""
    fid = [o for o in outcomes if o.fidelity is not None]
    if not fid:
        return None
    return (sum(o.fidelity for o in fid) / len(fid),
            sum(o.stderr**2 for o in fid) ** 0.5 / len(fid), len(fid))
