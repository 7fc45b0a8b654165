"""Decode solved models into executable timed circuits and export them.

A timed circuit is the final pipeline artifact: Hadamards and CNOTs with
exact start/end times on physical qubits, canceled gates removed, direction
booleans resolved into control/target order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .device import DeviceCalibration
from .errors import SolutionError, ValidationError
from .graphs import GraphSpec, _is_int, _read_json, _require_keys, graph_from_edges
from .model import SchedModel, Solution, resolved_wires
from .placement import Embedding


@dataclass(frozen=True)
class TimedGate:
    kind: str  # "h" | "cx"
    wires: Tuple[int, ...]  # (qubit,) or (control, target)
    start: Fraction
    end: Fraction


@dataclass(frozen=True)
class TimedCircuit:
    n: int
    placement: Tuple[int, ...]  # vertex -> physical qubit
    gates: Tuple[TimedGate, ...]  # sorted by (start, insertion order)
    makespan: Fraction
    graph: GraphSpec

    def vertex_of(self) -> Dict[int, int]:
        return {q: v for v, q in enumerate(self.placement)}


def _validate_wires(gates: Sequence[TimedGate]) -> None:
    """Every window is positive and, on each wire, every gate starts no
    earlier than the previous gate listed on that wire ends, so each wire's
    gates are listed in time order. Faults name the gate's index and field."""
    free: Dict[int, Fraction] = {}  # wire -> end of its last listed gate
    for k, g in enumerate(gates):
        if g.end <= g.start:
            raise SolutionError(f"gates[{k}].end_ns {g.end} gives a non-positive window from {g.start}")
        for q in g.wires:
            if q in free and g.start < free[q]:
                raise SolutionError(
                    f"gates[{k}].start_ns {g.start} on qubit {q} is before {free[q]}, where the "
                    f"previous gate on that qubit ends: overlapping gates"
                )
            free[q] = g.end


def _timed_circuit(gates: List[TimedGate], placement: Sequence[int], graph: GraphSpec) -> TimedCircuit:
    """Sort the gates by (start, wires), check their wires and close the
    circuit at the last gate's end."""
    gates.sort(key=lambda g: (g.start, g.wires))
    _validate_wires(gates)
    return TimedCircuit(
        n=graph.n,
        placement=tuple(placement),
        gates=tuple(gates),
        makespan=max(g.end for g in gates),
        graph=graph,
    )


def derive_circuit(m: SchedModel, s: Solution) -> TimedCircuit:
    """Linear-time decode: drop canceled pairs, resolve directions, sort.

    Assumes check_solution(m, s) is empty; additionally verifies that the
    canceled Hadamards form adjacent same-wire pairs (prep+pre, or post+pre
    of consecutive same-target CNOTs), which the model variables alone do not
    guarantee.
    """
    v = s.vars
    wires = [resolved_wires(m, gate, v.C) for gate in m.gates]  # a CNOT's are (control, target)

    # Logical per-wire sequences for pair-parity validation.
    cnots_by_wire: Dict[int, List[int]] = {q: [] for q in m.mapped_qubits}
    for i in sorted(range(m.num_cnots), key=lambda i: (v.S[i], i)):
        for q in wires[i]:
            cnots_by_wire[q].append(i)
    for vertex in range(m.graph.n):
        q = m.prep_wire(vertex)
        seq = [m.prep_id(vertex)]  # the wire's gate ids in order, canceled Hadamards included
        for i in cnots_by_wire[q]:
            seq += (m.pre_id(i), i, m.post_id(i)) if wires[i][1] == q else (i,)
        k = 0
        while k < len(seq):
            gid, role = seq[k], m.gates[seq[k]].role
            if role != "edge" and v.B[gid]:
                partner = seq[k + 1] if k + 1 < len(seq) else None
                if role == "pre" or partner is None or m.gates[partner].role != "pre" or not v.B[partner]:
                    raise SolutionError(
                        f"canceled Hadamard {gid} on qubit {q} has no adjacent canceled partner"
                    )
                k += 2
            else:
                k += 1

    timed: List[TimedGate] = []
    for gate in m.gates:
        if gate.kind == "h" and v.B[gate.id]:
            continue
        kind = "cx" if gate.kind == "cnot" else "h"
        timed.append(TimedGate(kind, wires[gate.id], Fraction(v.S[gate.id]), Fraction(v.T[gate.id])))
    return _timed_circuit(timed, m.embedding.mapping, m.graph)


def naive_circuit(g: GraphSpec, e: Embedding, cal: DeviceCalibration) -> TimedCircuit:
    """Baseline: parallel prep layer, then fully serialized CZ blocks.

    No cancellation, edges in sorted order, control fixed to the edge's first
    vertex. Serves as the uncompiled comparison point.
    """
    gates: List[TimedGate] = []
    prep_end = Fraction(0)
    for v in range(g.n):
        q = e.mapping[v]
        d = Fraction(cal.qubit(q).sq_duration_ns)
        gates.append(TimedGate("h", (q,), Fraction(0), d))
        prep_end = max(prep_end, d)
    cur = prep_end
    for u, v in g.sorted_edges():
        ctrl, tgt = e.mapping[u], e.mapping[v]
        coupler = cal.coupler(ctrl, tgt)
        d2 = Fraction(coupler.duration_ab_ns if coupler.a == ctrl else coupler.duration_ba_ns)
        dh = Fraction(cal.qubit(tgt).sq_duration_ns)
        gates.append(TimedGate("h", (tgt,), cur, cur + dh))
        gates.append(TimedGate("cx", (ctrl, tgt), cur + dh, cur + dh + d2))
        gates.append(TimedGate("h", (tgt,), cur + dh + d2, cur + 2 * dh + d2))
        cur = cur + 2 * dh + d2
    return _timed_circuit(gates, e.mapping, g)


def _as_int_ns(x: Fraction, what: str) -> int:
    if Fraction(x).denominator != 1:
        raise ValidationError(f"{what} is not an integer nanosecond value: {x}")
    return int(x)


def circuit_to_json(c: TimedCircuit) -> dict:
    return {
        "n": c.n,
        "placement": list(c.placement),
        "makespan_ns": _as_int_ns(c.makespan, "makespan"),
        "gates": [
            {
                "kind": g.kind,
                "wires": list(g.wires),
                "start_ns": _as_int_ns(g.start, "gate start"),
                "end_ns": _as_int_ns(g.end, "gate end"),
            }
            for g in c.gates
        ],
    }


def _int_field(value, name: str) -> int:
    if not _is_int(value):
        raise ValidationError(f"circuit file: {name} must be an integer, got {value!r}")
    return value


def _time_field(value, name: str) -> int:
    """An integer nanosecond time that converts to a float: the noise model
    turns idle gaps into floats."""
    value = _int_field(value, name)
    try:
        float(value)
    except OverflowError:
        raise ValidationError(f"circuit file: {name} is beyond float range") from None
    return value


def circuit_from_json(data: dict) -> TimedCircuit:
    """Rebuild a circuit from its JSON form; a malformed field is a
    ValidationError that names it."""
    _require_keys(data, ("n", "placement", "makespan_ns", "gates"), "circuit file")
    n = _int_field(data["n"], "n")
    if n < 2:
        raise ValidationError(f"circuit file: n must be at least 2, got {n}")
    makespan = _time_field(data["makespan_ns"], "makespan_ns")
    placement = data["placement"]
    if not (isinstance(placement, list) and all(_is_int(q) for q in placement)
            and len(set(placement)) == n == len(placement)):
        raise ValidationError(
            f"circuit file: placement must be a list of {n} distinct integer qubits, got {placement!r}"
        )
    if not isinstance(data["gates"], list):
        raise ValidationError(f"circuit file: gates must be a list, got {data['gates']!r}")
    inverse = {q: v for v, q in enumerate(placement)}
    gates = []
    edges: Dict[Tuple[int, int], int] = {}  # vertex pair -> index of its cx
    for k, g in enumerate(data["gates"]):
        if not isinstance(g, dict):
            raise ValidationError(f"circuit file: gates[{k}] must be an object, got {g!r}")
        _require_keys(g, ("kind", "wires", "start_ns", "end_ns"), f"circuit file: gates[{k}]")
        kind, wires = g["kind"], g["wires"]
        if kind not in ("h", "cx"):
            raise ValidationError(f"circuit file: gates[{k}].kind must be 'h' or 'cx', got {kind!r}")
        arity = 2 if kind == "cx" else 1
        if not (isinstance(wires, list) and len(wires) == arity and all(_is_int(w) for w in wires)
                and len(set(wires)) == arity and set(wires) <= inverse.keys()):
            raise ValidationError(
                f"circuit file: gates[{k}].wires {wires!r} must be {arity} distinct qubits of the placement"
            )
        start = _time_field(g["start_ns"], f"gates[{k}].start_ns")
        end = _time_field(g["end_ns"], f"gates[{k}].end_ns")
        if start < 0:
            raise ValidationError(f"circuit file: gates[{k}].start_ns {start} is before time 0")
        gates.append(TimedGate(kind, tuple(wires), Fraction(start), Fraction(end)))
        if kind == "cx":
            u, v = inverse[wires[0]], inverse[wires[1]]
            pair = (min(u, v), max(u, v))
            if pair in edges:
                raise ValidationError(f"circuit file: gates[{k}] repeats the cx pair of gates[{edges[pair]}]")
            edges[pair] = k
    try:
        _validate_wires(gates)
    except SolutionError as exc:
        raise ValidationError(f"circuit file: {exc}") from None
    last_end = max((g.end for g in gates), default=0)
    if makespan < last_end:
        raise ValidationError(f"circuit file: makespan_ns {makespan} is before the last gate end {last_end}")
    try:  # with n >= 2 and edges between placement qubits, connectivity is all that can fail
        graph = graph_from_edges(n, edges)
    except ValidationError:
        raise ValidationError(f"circuit file: the cx gates' graph on {n} vertices is not connected") from None
    return TimedCircuit(
        n=n,
        placement=tuple(placement),
        gates=tuple(gates),
        makespan=Fraction(makespan),
        graph=graph,
    )


def export_circuit(c: TimedCircuit, format: str = "json") -> str:
    """Render a circuit as canonical JSON or a qasm-like listing with delays."""
    if format == "json":
        return json.dumps(circuit_to_json(c), indent=2) + "\n"
    if format != "qasm-like":
        raise ValidationError(f"unknown circuit format {format!r}")
    lines = [f"// graph-state preparation circuit, makespan {_as_int_ns(c.makespan, 'makespan')} ns"]
    # Each gate's start is encoded as a delay on one wire: its only wire for
    # Hadamards, the control wire for CNOTs (the target wire's clock is not
    # advanced by a CNOT, so its own gates carry the full gap).
    elapsed: Dict[int, Fraction] = {}
    for g in c.gates:
        q = g.wires[0]
        gap = g.start - elapsed.get(q, Fraction(0))
        if gap > 0:
            lines.append(f"delay({_as_int_ns(gap, 'delay')}) q[{q}];")
        elapsed[q] = g.end
        if g.kind == "h":
            lines.append(f"h q[{q}];")
        else:
            lines.append(f"cx q[{g.wires[0]}], q[{g.wires[1]}];")
    return "\n".join(lines) + "\n"


def load_circuit(path) -> TimedCircuit:
    return circuit_from_json(_read_json(path, "circuit"))
