import hashlib
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from gscompile.device import load_calibration, sample_calibration_path
from gscompile.errors import ExternalSolverError, ValidationError
from gscompile.graphs import builtin_graph, linear_graph, star_graph
from gscompile.model import (
    FALSE,
    TRUE,
    And,
    GateId,
    Implies,
    Le,
    ModelVars,
    Not,
    Objective,
    ObjectiveKind,
    Or,
    Solution,
    Var,
    _variables,
    conj,
    disj,
    implies,
    build_model,
    canceled_count,
    check_solution,
    emit_smtlib,
    makespan_of,
    objective_value_of,
    parse_external_solution,
    remaining_coherence_of,
    resolved_wires,
)
from gscompile.placement import Embedding, best_placement
from gscompile.solver import solve_exact

from conftest import graph_calibration, identity_embedding, line_calibration


def solved(g, cal, kind=ObjectiveKind.SMT_RUNTIME, crosstalk=False):
    m = build_model(g, identity_embedding(g), cal, Objective(kind, crosstalk))
    return m, solve_exact(m)


class TestBuildModel:
    def test_gate_set_shape(self, sym3):
        g = linear_graph(3)
        m, _ = solved(g, sym3)
        kinds = [gate.kind for gate in m.gates]
        assert kinds.count("cnot") == 2
        assert kinds.count("h") == 3 + 2 * 2  # preps + pre/post per CNOT
        assert [gate.id for gate in m.gates] == list(range(len(m.gates)))

    def test_rejects_non_injective_embedding(self, sym3):
        g = linear_graph(3)
        with pytest.raises(ValidationError, match="injective"):
            build_model(g, Embedding((0, 1, 1), 1.0), sym3, Objective(ObjectiveKind.MIN_MAKESPAN))
        # Too short a mapping is refused before its edges are looked up.
        with pytest.raises(ValidationError, match="injective"):
            build_model(g, Embedding((0, 1), 1.0), sym3, Objective(ObjectiveKind.MIN_MAKESPAN))

    def test_rejects_uncoupled_edge(self, sym3):
        g = linear_graph(3)
        with pytest.raises(ValidationError):
            build_model(g, Embedding((0, 2, 1), 1.0), sym3, Objective(ObjectiveKind.MIN_MAKESPAN))

    def test_crosstalk_pairs_only_adjacent_disjoint(self):
        g = linear_graph(4)
        cal = line_calibration(4)
        m = build_model(g, identity_embedding(g), cal, Objective(ObjectiveKind.MIN_MAKESPAN, crosstalk_free=True))
        # edges (0,1),(1,2),(2,3): only (0,1) vs (2,3) are disjoint AND adjacent
        assert m.crosstalk_pairs == [(0, 2)]

    def test_coherence_ingest_is_exact_decimal(self):
        cal = load_calibration(sample_calibration_path())
        g = linear_graph(5)
        m = build_model(g, best_placement(g, cal), cal, Objective(ObjectiveKind.MAX_REMAINING_COHERENCE))
        assert all(d.denominator == 1 for d in m.coherence_ns.values())
        assert "(/ " not in emit_smtlib(m)


class TestCheckSolution:
    def test_optimal_solutions_clean(self, sym3):
        for kind in ObjectiveKind:
            m, s = solved(linear_graph(3), sym3, kind)
            assert check_solution(m, s) == []

    def test_detects_overlap_violation(self, sym3):
        m, s = solved(linear_graph(3), sym3, ObjectiveKind.MIN_MAKESPAN)
        # drag the second CNOT onto the first: same-role overlap on shared wire
        dur = s.vars.T[1] - s.vars.S[1]
        s.vars.S[1] = s.vars.S[0]
        s.vars.T[1] = s.vars.S[0] + dur
        labels = check_solution(m, s)
        assert labels and any(lab.startswith(("wire-excl", "constr-e")) for lab in labels)

    @pytest.mark.parametrize("name", ["linear:4", "star:4", "fig1-seven"])
    @pytest.mark.parametrize("kind", [ObjectiveKind.SMT_RUNTIME, ObjectiveKind.MAX_CANCELLATION])
    def test_every_wire_pair_exclusive(self, name, kind):
        # For every pair of live gates that share a wire, moving one gate's
        # window to start at the other's start is refused.
        cal = load_calibration(sample_calibration_path())
        g = builtin_graph(name)
        m = build_model(g, best_placement(g, cal), cal, Objective(kind))
        v = solve_exact(m).vars
        live = [gate for gate in m.gates if not v.B.get(gate.id)]
        pairs = 0
        for a in live:
            for b in live:
                if a is b or not set(resolved_wires(m, a, v.C)) & set(resolved_wires(m, b, v.C)):
                    continue
                start = v.S[a.id]
                moved = replace(v, S={**v.S, b.id: start}, T={**v.T, b.id: start + v.T[b.id] - v.S[b.id]})
                assert check_solution(m, Solution(moved, None, False)), (a, b)
                pairs += 1
        assert pairs

    def test_detects_duration_violation(self, sym3):
        m, s = solved(linear_graph(3), sym3, ObjectiveKind.MIN_MAKESPAN)
        s.vars.T[0] += Fraction(1)
        assert any(lab.startswith("constr-a") for lab in check_solution(m, s))

    def test_detects_unpaired_cancellation(self, sym3):
        m, s = solved(linear_graph(3), sym3, ObjectiveKind.MIN_MAKESPAN)
        # cancel a POST whose window is not inside any targeting CNOT
        post = next(h for h in m.hadamard_ids() if not s.vars.B[h])
        s.vars.B[post] = True
        assert check_solution(m, s) != []


class TestObjectiveHelpers:
    def test_values_consistent(self, sym3):
        m, s = solved(linear_graph(3), sym3, ObjectiveKind.SMT_RUNTIME)
        assert objective_value_of(m, s.vars) == (
            canceled_count(m, s.vars),
            makespan_of(m, s.vars),
        )
        assert makespan_of(m, s.vars) == 670
        # 100 us coherence on every wire; busiest wire ends at the makespan
        assert remaining_coherence_of(m, s.vars) == Fraction(100000) - 670


class TestEmitSmtlib:
    def test_deterministic_and_well_formed(self, sym3):
        g = linear_graph(3)
        m = build_model(g, identity_embedding(g), sym3, Objective(ObjectiveKind.SMT_RUNTIME))
        a = emit_smtlib(m)
        b = emit_smtlib(m)
        assert a == b
        assert a.count("(declare-fun S_") == len(m.gates)
        assert a.count("(declare-fun T_") == len(m.gates)
        assert a.count("(declare-fun C_") == m.num_cnots
        assert a.count("(declare-fun B_") == len(m.hadamard_ids())
        assert "(set-logic QF_LRA)" in a
        assert "(set-option :opt.priority lex)" in a
        assert a.index("(maximize") < a.index("(minimize MAKESPAN)")
        assert a.rstrip().endswith("(get-objectives)")

    def test_objective_sections(self, sym3):
        g = linear_graph(3)
        e = identity_embedding(g)
        text = emit_smtlib(build_model(g, e, sym3, Objective(ObjectiveKind.MAX_REMAINING_COHERENCE)))
        assert "M_REM" in text and "TQ_0" in text
        text = emit_smtlib(build_model(g, e, sym3, Objective(ObjectiveKind.MIN_MAKESPAN)))
        assert "(minimize MAKESPAN)" in text and "M_REM" not in text

    def test_fractional_coherence_term(self):
        # 100.0005 us is 200001/2 ns: emitted as an exact quotient.
        g = linear_graph(3)
        cal = line_calibration(3, coherence_us=100.0005)
        m = build_model(g, identity_embedding(g), cal, Objective(ObjectiveKind.MAX_REMAINING_COHERENCE))
        assert "(assert (<= M_REM (- (/ 200001.0 2.0) TQ_0)))" in emit_smtlib(m)

    def test_golden_bytes(self):
        # The emitted model is a public, byte-deterministic output: any change
        # to these digests must be a deliberate one. The models are built back
        # to back, so state leaking from one build into the next would show.
        cal = load_calibration(sample_calibration_path())
        cases = [
            ("linear:8", ObjectiveKind.SMT_RUNTIME, True, 229,
             "e1ab277d702aa0c53e71a334daa86029cf3a98687095a3dbd98bcfe61f966b93"),
            ("fig1-seven", ObjectiveKind.MAX_REMAINING_COHERENCE, False, 213,
             "fe3d413b945cea5203c77531ac459026309bf3b793809c3a877b1ed45a82f7db"),
            ("star:4", ObjectiveKind.MAX_CANCELLATION, False, 103,
             "5c0a3428a9d14a40447327235d465c9111b1f67598e59b5a686f40f5fc5e5148"),
            ("linear:11", ObjectiveKind.MIN_MAKESPAN, True, 331,
             "0ef257a8419f30c293c2ec57ce29704879e91ec25ff728c11bd13fc31520bf32"),
        ]
        for name, kind, crosstalk, constraints, digest in cases:
            g = builtin_graph(name)
            m = build_model(g, best_placement(g, cal), cal, Objective(kind, crosstalk))
            assert len(m.constraints) == constraints, name
            text = emit_smtlib(m)
            assert "(not false)" not in text, name
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, name
            # The folds leave no 0- or 1-argument conjunction or disjunction.
            for node in _subtrees(expr for _, expr in m.constraints):
                if isinstance(node, (And, Or)):
                    assert len(node.args) >= 2, name

    def test_declared_variables_are_the_decoded_ones(self):
        # emit_smtlib declares, before its first assertion, exactly the
        # variables that the checker reads and the decoder fills.
        cal = load_calibration(sample_calibration_path())
        cases = [
            ("linear:8", ObjectiveKind.SMT_RUNTIME, True),
            ("fig1-seven", ObjectiveKind.MAX_REMAINING_COHERENCE, False),
            ("star:4", ObjectiveKind.MAX_CANCELLATION, False),
            ("linear:11", ObjectiveKind.MIN_MAKESPAN, True),
        ]
        for name, kind, crosstalk in cases:
            g = builtin_graph(name)
            m = build_model(g, best_placement(g, cal), cal, Objective(kind, crosstalk))
            text = emit_smtlib(m)
            declared = re.findall(r"\(declare-fun (\S+) \(\) (\S+)\)", text[: text.index("(assert")])
            assert sorted(declared) == sorted((n, sort) for n, sort, _, _ in _variables(m)), name

    def test_every_constraint_asserted_with_label(self, sym3):
        g = linear_graph(3)
        m = build_model(g, identity_embedding(g), sym3, Objective(ObjectiveKind.MIN_MAKESPAN))
        text = emit_smtlib(m)
        assert text.count("(assert ") >= len(m.constraints)
        for label, _ in m.constraints:
            assert f"; {label}" in text


def _subtrees(roots):
    """Every distinct node reachable from the roots."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(getattr(node, "args", ()))
        stack.extend(child for child in (getattr(node, "a", None), getattr(node, "b", None)) if child is not None)


class TestFold:
    x, y = Le(Var("T_0"), Var("S_1")), Not(Var("B_2"))

    def test_conj(self):
        x, y = self.x, self.y
        assert conj() is TRUE
        assert conj(x) is x and conj(TRUE, x, TRUE) is x
        assert conj(x, FALSE) is FALSE
        both = conj(x, TRUE, y)
        assert isinstance(both, And) and both.args[0] is x and both.args[1] is y
        assert both.smt() == "(and (<= T_0 S_1) (not B_2))"

    def test_disj(self):
        x, y = self.x, self.y
        assert disj() is FALSE
        assert disj(x) is x and disj(FALSE, x, FALSE) is x
        assert disj(x, TRUE) is TRUE
        either = disj(x, FALSE, y)
        assert isinstance(either, Or) and either.args[0] is x and either.args[1] is y
        assert either.smt() == "(or (<= T_0 S_1) (not B_2))"

    def test_implies(self):
        x, y = self.x, self.y
        assert implies(FALSE, x) is TRUE and implies(x, TRUE) is TRUE
        assert implies(TRUE, x) is x
        arrow = implies(x, y)
        assert isinstance(arrow, Implies) and arrow.a is x and arrow.b is y
        assert arrow.smt() == "(=> (<= T_0 S_1) (not B_2))"
        env = {"T_0": 5, "S_1": 3, "B_2": True}
        assert arrow.eval(env)  # false antecedent
        env["S_1"] = 5
        assert not arrow.eval(env)

    def test_only_the_singletons_fold(self):
        # Nodes compare by identity, so a structurally equal copy is kept.
        assert Var("C_0") != Var("C_0")
        kept = conj(self.x, Not(FALSE))
        assert isinstance(kept, And) and len(kept.args) == 2


def test_value_types_keep_value_equality():
    # Objectives and gate ids are compared and hashed by value (set-up
    # checks compare Objectives), unlike expression nodes.
    a, b = Objective(ObjectiveKind.MIN_MAKESPAN, True), Objective(ObjectiveKind.MIN_MAKESPAN, True)
    assert a == b and hash(a) == hash(b)
    assert a != Objective(ObjectiveKind.MIN_MAKESPAN)
    g, h = GateId("h", 3, (5,), "prep", 1), GateId("h", 3, (5,), "prep", 1)
    assert g == h and hash(g) == hash(h)
    assert g != GateId("h", 3, (5,), "pre", 1)
    v = ModelVars(C={0: True}, S={0: Fraction(1)}, T={0: Fraction(2)}, B={})
    assert v == ModelVars(C={0: True}, S={0: Fraction(1)}, T={0: Fraction(2)}, B={})


def synthetic_output(m, vars, verdict="sat", style="plain"):
    """Render a model listing the way an SMT solver would print it."""
    lines = [verdict, "("]
    def num(x):
        f = Fraction(x)
        if style == "plain":
            if f.denominator == 1:
                return f"{f.numerator}.0"
            return f"(/ {f.numerator}.0 {f.denominator}.0)"
        # exercise unary minus wrapping
        return f"(- (- {f.numerator}.0))" if f.denominator == 1 else f"(/ {f.numerator} {f.denominator})"
    for i, v in vars.C.items():
        lines.append(f"  (define-fun C_{i} () Bool {'true' if v else 'false'})")
    for gid, v in vars.S.items():
        lines.append(f"  (define-fun S_{gid} () Real {num(v)})")
    for gid, v in vars.T.items():
        lines.append(f"  (define-fun T_{gid} () Real {num(v)})")
    for gid, v in vars.B.items():
        lines.append(f"  (define-fun B_{gid} () Bool {'true' if v else 'false'})")
    lines.append(")")
    return "\n".join(lines)


class TestParseExternalSolution:
    @pytest.mark.parametrize("style", ["plain", "nested"])
    def test_round_trip(self, sym3, style):
        m, s = solved(linear_graph(3), sym3, ObjectiveKind.SMT_RUNTIME)
        out = synthetic_output(m, s.vars, style=style)
        parsed = parse_external_solution(m, out)
        assert parsed.vars.C == s.vars.C
        assert parsed.vars.B == s.vars.B
        assert parsed.vars.S == s.vars.S
        assert parsed.objective_value == s.objective_value
        assert parsed.proven_optimal

    @pytest.mark.parametrize("term, value", [
        ("(/ 200001.0 2.0)", Fraction(200001, 2)),
        ("(- (/ 1.0 3.0))", Fraction(-1, 3)),
    ])
    def test_fractional_value_read_back(self, sym3, term, value):
        m, s = solved(linear_graph(2), sym3)
        marked = ModelVars(C=s.vars.C, S={**s.vars.S, 0: 987654}, T=s.vars.T, B=s.vars.B)
        out = synthetic_output(m, marked).replace("S_0 () Real 987654.0", f"S_0 () Real {term}")
        assert parse_external_solution(m, out).vars.S[0] == value

    def test_unknown_verdict_not_proven(self, sym3):
        m, s = solved(linear_graph(2), sym3)
        parsed = parse_external_solution(m, synthetic_output(m, s.vars, verdict="unknown"))
        assert not parsed.proven_optimal

    def test_unsat_raises(self, sym3):
        m, _ = solved(linear_graph(2), sym3)
        with pytest.raises(ExternalSolverError, match="unsat"):
            parse_external_solution(m, "unsat\n")

    def test_missing_variable_named(self, sym3):
        m, s = solved(linear_graph(2), sym3)
        out = synthetic_output(m, s.vars).replace("(define-fun C_0 () Bool", "(define-fun C_9 () Bool")
        with pytest.raises(ExternalSolverError, match="C_0"):
            parse_external_solution(m, out)

    def test_garbage_rejected(self, sym3):
        m, _ = solved(linear_graph(2), sym3)
        with pytest.raises(ExternalSolverError):
            parse_external_solution(m, "")
        with pytest.raises(ExternalSolverError):
            parse_external_solution(m, "maybe\n(model)")
        with pytest.raises(ExternalSolverError, match="missing variable C_0"):
            parse_external_solution(m, "sat\n((define-fun (C_0) () Bool true))")
        for listing in ("sat\n(()", "sat\n())"):
            with pytest.raises(ExternalSolverError, match="unbalanced"):
                parse_external_solution(m, listing)
        with pytest.raises(ExternalSolverError, match="nests deeper"):
            parse_external_solution(m, "sat\n" + "(" * 5000 + ")" * 5000)


def _options(expr):
    """The And-options of a pair-* constraint's consequent."""
    assert isinstance(expr, Implies)
    body = expr.b
    return [body] if isinstance(body, And) else [o for o in body.args if isinstance(o, And)]


def test_wire_order_subtrees_are_shared():
    # Each candidate pair of canceled Hadamards on a wire is one term, an
    # option of exactly the pair-* constraints of its two Hadamards: the
    # wire's prep with each CNOT's PRE (k_q terms) and POST(i) with PRE(j) for
    # CNOTs i != j (k_q(k_q - 1) terms), k_q being the CNOTs on wire q.
    for g in (star_graph(4), linear_graph(4)):
        cal = graph_calibration(g)
        m = build_model(g, identity_embedding(g), cal, Objective(ObjectiveKind.MAX_CANCELLATION))
        label_of = {m.prep_id(v): f"pair-prep[{m.prep_id(v)}]" for v in range(g.n)}
        for i in range(m.num_cnots):
            label_of[m.pre_id(i)], label_of[m.post_id(i)] = f"pair-pre[{i}]", f"pair-post[{i}]"
        cons = dict(m.constraints)
        holders = {}  # id(term) -> (term, the labels whose options hold it)
        for label in label_of.values():
            for term in _options(cons[label]):
                holders.setdefault(id(term), (term, []))[1].append(label)
        for term, labels in holders.values():
            pair = [int(a.name[2:]) for a in term.args if isinstance(a, Var) and a.name.startswith("B_")]
            assert len(pair) == 2
            assert sorted(labels) == sorted(label_of[h] for h in pair)
        k = Counter(q for pa, pb, _, _ in m.cnot_info for q in (pa, pb))
        assert len(holders) == sum(kq * kq for kq in k.values())


def test_star_targets_resolved_per_direction(sym3):
    # A hub wire shared by several CNOTs exercises the direction-dependent
    # wire logic in wire-excl/constr-e and the pairing constraints.
    g = star_graph(4)
    cal = graph_calibration(g)
    m = build_model(g, identity_embedding(g), cal, Objective(ObjectiveKind.MAX_CANCELLATION))
    s = solve_exact(m)
    assert check_solution(m, s) == []
