import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from gscompile.circuit import (
    circuit_from_json,
    circuit_to_json,
    derive_circuit,
    export_circuit,
    load_circuit,
    naive_circuit,
)
from gscompile.device import load_calibration, sample_calibration_path
from gscompile.errors import SolutionError, ValidationError
from gscompile.graphs import builtin_graph, linear_graph, star_graph
from gscompile.model import Objective, ObjectiveKind, build_model, check_solution
from gscompile.placement import best_placement
from gscompile.sim import verify_graph_state
from gscompile.solver import solve_exact

from conftest import graph_calibration, identity_embedding, line_calibration, mutated_json


def compiled(g, cal, kind=ObjectiveKind.SMT_RUNTIME):
    m = build_model(g, identity_embedding(g), cal, Objective(kind))
    s = solve_exact(m)
    return m, s, derive_circuit(m, s)


class TestDeriveCircuit:
    def test_single_edge_layout(self):
        _, _, c = compiled(linear_graph(2), line_calibration(2), ObjectiveKind.MIN_MAKESPAN)
        assert [(g.kind, int(g.start), int(g.end)) for g in c.gates] == [
            ("h", 0, 35),
            ("cx", 35, 335),
            ("h", 335, 370),
        ]
        assert c.makespan == 370

    def test_linear3_layout(self, sym3):
        _, _, c = compiled(linear_graph(3), sym3)
        assert c.makespan == 670
        kinds = [g.kind for g in c.gates]
        assert kinds.count("cx") == 2 and kinds.count("h") == 3
        # both outer preps start at 0, middle wire gets the only surviving H last
        h_gates = [g for g in c.gates if g.kind == "h"]
        assert sorted(g.wires[0] for g in h_gates if g.start == 0) == [0, 2]
        assert h_gates[-1].wires == (1,) and h_gates[-1].start == 635

    def test_gate_counts(self):
        for g in (linear_graph(4), star_graph(4)):
            cal = graph_calibration(g)
            m, s, c = compiled(g, cal, ObjectiveKind.MAX_CANCELLATION)
            cx = sum(1 for tg in c.gates if tg.kind == "cx")
            h = sum(1 for tg in c.gates if tg.kind == "h")
            assert cx == len(g.edges)
            assert h == (g.n + 2 * len(g.edges)) - s.objective_value

    def test_pair_parity_fault_detected(self, sym3):
        m, s, _ = compiled(linear_graph(3), sym3)
        # cancel one more Hadamard: odd count on its wire is unrealizable
        victim = next(h for h in m.hadamard_ids() if not s.vars.B[h])
        s.vars.B[victim] = True
        with pytest.raises(SolutionError, match="adjacent canceled partner"):
            derive_circuit(m, s)

    def test_wire_overlap_fault_detected(self, sym3):
        m, s, _ = compiled(linear_graph(3), sym3)
        s.vars.S[1] = s.vars.S[0]
        s.vars.T[1] = s.vars.T[0]
        with pytest.raises(SolutionError, match="overlapping"):
            derive_circuit(m, s)

    def test_pair_rule_agrees_with_derived_pairs(self):
        # The model's pair-* constraints and derive_circuit's own walk over
        # each wire's gate sequence judge the pairing of canceled Hadamards
        # independently. On seeded B flips of solved models, a walk refusal
        # must come with a violated pair-* or constr-f constraint, and an
        # assignment the model accepts must derive into a circuit that
        # prepares the graph state.
        cal = load_calibration(sample_calibration_path())
        rng = random.Random(30)
        refused = clean = 0
        for name in ("linear:3", "linear:5", "star:4", "fig1-seven"):
            g = builtin_graph(name)
            e = best_placement(g, cal)
            for kind in ObjectiveKind:
                m = build_model(g, e, cal, Objective(kind))
                s = solve_exact(m)
                hids = m.hadamard_ids()
                for _ in range(150):
                    B = dict(s.vars.B)
                    for h in rng.choices(hids, k=rng.randint(1, 3)):
                        B[h] = not B[h]
                    flipped = replace(s, vars=replace(s.vars, B=B))
                    labels = check_solution(m, flipped)
                    try:
                        c = derive_circuit(m, flipped)
                    except SolutionError as exc:
                        assert labels, (name, kind, B)
                        if "no adjacent canceled partner" in str(exc):
                            refused += 1
                            assert any(lab.startswith(("pair-", "constr-f")) for lab in labels), (name, kind, B)
                        continue
                    if not labels:
                        clean += 1
                        verify_graph_state(c)
        assert refused > 0 and clean > 0


class TestNaiveCircuit:
    def test_linear3_serial_layout(self, sym3):
        g = linear_graph(3)
        c = naive_circuit(g, identity_embedding(g), sym3)
        assert c.makespan == 35 + 2 * (35 + 300 + 35) == 775
        assert sum(1 for tg in c.gates if tg.kind == "h") == 7
        assert sum(1 for tg in c.gates if tg.kind == "cx") == 2

    def test_single_edge_counts(self):
        g = linear_graph(2)
        c = naive_circuit(g, identity_embedding(g), line_calibration(2))
        assert sum(1 for tg in c.gates if tg.kind == "h") == 4
        assert sum(1 for tg in c.gates if tg.kind == "cx") == 1

    def test_never_beats_optimal_makespan(self, sym3):
        g = linear_graph(3)
        _, s, c = compiled(g, sym3, ObjectiveKind.MIN_MAKESPAN)
        naive = naive_circuit(g, identity_embedding(g), sym3)
        assert naive.makespan >= c.makespan


class TestExport:
    @settings(max_examples=150, deadline=None)
    @given(mutated_json(circuit_to_json(naive_circuit(linear_graph(3), identity_embedding(linear_graph(3)), line_calibration(3)))))
    def test_circuit_from_json_fails_closed(self, data):
        # Any JSON value either loads or is refused with ValidationError.
        try:
            circuit_from_json(data)
        except ValidationError:
            pass

    def test_json_round_trip(self, sym3):
        _, _, c = compiled(linear_graph(3), sym3)
        again = circuit_from_json(json.loads(export_circuit(c, "json")))
        assert again == c

    def test_json_schema(self, sym3):
        _, _, c = compiled(linear_graph(2), line_calibration(2), ObjectiveKind.MIN_MAKESPAN)
        data = circuit_to_json(c)
        assert set(data) == {"n", "placement", "makespan_ns", "gates"}
        assert data["makespan_ns"] == 370
        assert len(data["gates"]) == 3
        assert all(isinstance(g["start_ns"], int) for g in data["gates"])

    def test_qasm_like_delays(self, sym3):
        _, _, c = compiled(linear_graph(3), sym3)
        text = export_circuit(c, "qasm-like")
        # q1 idles from reset until its final H at 635
        delays = [
            int(line.split("(")[1].split(")")[0])
            for line in text.splitlines()
            if line.startswith("delay(") and line.endswith("q[1];")
        ]
        assert sum(delays) == 635
        assert "cx q[0], q[1];" in text

    def test_unknown_format(self, sym3):
        _, _, c = compiled(linear_graph(2), line_calibration(2))
        with pytest.raises(ValidationError):
            export_circuit(c, "qpy")

    def test_load_circuit_rejects_bad_keys(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"n": 2, "gates": []}))
        with pytest.raises(ValidationError):
            load_circuit(p)

    def test_fractional_timestamp_rejected(self, sym3):
        _, _, c = compiled(linear_graph(2), line_calibration(2))
        broken = type(c)(
            n=c.n,
            placement=c.placement,
            gates=c.gates,
            makespan=c.makespan + Fraction(1, 3),
            graph=c.graph,
        )
        with pytest.raises(ValidationError, match="integer"):
            export_circuit(broken, "json")
