"""Formal scheduling model for graph-state preparation circuits.

Variables per gate: CNOT direction booleans C, rational start/end times S/T,
and Hadamard cancellation booleans B. Constraints tie durations to the chosen
direction, order non-commuting gates, keep each wire exclusive, and pin down
when a Hadamard may be marked canceled (window containment in a same-target
CNOT plus pairing with an adjacent canceled partner).

Every constraint is materialized as a small expression tree that is both
evaluated exactly (check_solution) and serialized to SMT-LIB (emit_smtlib),
so the built-in solver and an external optimizing solver see the same model.
The trees have three shapes (a variable, a binary operator, an n-ary and/or)
besides constants and negation, and their nodes compare by identity. The
atoms (variables, per-wire conditions) are built once per model and shared
between constraints. So is each candidate Hadamard pair on a wire (the
wire's prep with a PRE, or a POST with another CNOT's PRE): it is one term,
an option of both its Hadamards' pairing constraints. One gap rule
(``_none_within``) writes each term's wire-order subtree: no live gate on
the wire lies inside the gap from one CNOT's end, or from time 0, to another
CNOT's start. It has one conjunct per gate that may act on the wire, and
none for the gates that never do.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations, permutations
from operator import eq, le, sub
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .device import DeviceCalibration, topology_graph
from .errors import ExternalSolverError, ValidationError
from .graphs import GraphSpec
from .placement import Embedding

Number = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Expression trees

def _smt_num(x: Number) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        v = f.numerator
        return f"{v}.0" if v >= 0 else f"(- {-v}.0)"
    num, den = f.numerator, f.denominator
    core = f"(/ {abs(num)}.0 {den}.0)"
    return core if num >= 0 else f"(- {core})"


class Expr:
    def eval(self, env: Dict[str, object]):
        raise NotImplementedError

    def smt(self) -> str:
        raise NotImplementedError


# Nodes compare by identity (eq=False): the folds test the TRUE/FALSE
# singletons with `is`, and nothing hashes or compares expressions by value.

@dataclass(frozen=True, eq=False)
class Var(Expr):
    name: str

    def eval(self, env):
        return env[self.name]

    def smt(self):
        return self.name


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: Union[bool, Fraction]

    def eval(self, env):
        return self.value

    def smt(self):
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return _smt_num(self.value)


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True, eq=False)
class Not(Expr):
    a: Expr

    def eval(self, env):
        return not self.a.eval(env)

    def smt(self):
        return f"(not {self.a.smt()})"


@dataclass(frozen=True, eq=False)
class Binary(Expr):
    """``(head a b)``, evaluated as ``op(a, b)``."""

    a: Expr
    b: Expr
    head: ClassVar[str]
    op: ClassVar[Callable[[object, object], object]]

    def eval(self, env):
        return self.op(self.a.eval(env), self.b.eval(env))

    def smt(self):
        return f"({self.head} {self.a.smt()} {self.b.smt()})"


class Sub(Binary):
    head, op = "-", sub


class Le(Binary):
    head, op = "<=", le


class EqR(Binary):
    head, op = "=", eq


class Implies(Binary):
    head = "=>"

    def eval(self, env):
        return not self.a.eval(env) or self.b.eval(env)


@dataclass(frozen=True, eq=False)
class Nary(Expr):
    """``(head args...)`` over at least two args, evaluated by ``op``."""

    args: Tuple[Expr, ...]
    head: ClassVar[str]
    op: ClassVar[Callable[[Iterable[object]], bool]]

    def eval(self, env):
        return self.op(a.eval(env) for a in self.args)

    def smt(self):
        return f"({self.head} " + " ".join(a.smt() for a in self.args) + ")"


class And(Nary):
    head, op = "and", all


class Or(Nary):
    head, op = "or", any


def _fold(node: type, unit: Expr, zero: Expr, args: Sequence[Expr]) -> Expr:
    """``node(args)`` without the units; ``zero`` if any arg is ``zero``."""
    kept = []
    for a in args:
        if a is zero:
            return zero
        if a is not unit:
            kept.append(a)
    if len(kept) > 1:
        return node(tuple(kept))
    return kept[0] if kept else unit


def conj(*args: Expr) -> Expr:
    return _fold(And, TRUE, FALSE, args)


def disj(*args: Expr) -> Expr:
    return _fold(Or, FALSE, TRUE, args)


def implies(a: Expr, b: Expr) -> Expr:
    if a is FALSE or b is TRUE:
        return TRUE
    return b if a is TRUE else Implies(a, b)


# ---------------------------------------------------------------------------
# Model types

class ObjectiveKind(Enum):
    MAX_CANCELLATION = "cancellation"
    MIN_MAKESPAN = "runtime"
    MAX_REMAINING_COHERENCE = "decoherence"
    SMT_RUNTIME = "smt-runtime"  # lexicographic: cancellation first, then makespan


@dataclass(frozen=True)
class Objective:
    kind: ObjectiveKind
    crosstalk_free: bool = False


@dataclass(frozen=True)
class GateId:
    """One scheduled gate.

    For CNOTs, ``qubits`` is the placed coupler's (a, b) endpoint pair; the
    direction boolean C picks the control (True: control = a). For sandwich
    Hadamards (role pre/post), ``qubits`` holds the wire under C = True;
    the effective wire tracks the resolved direction.
    """

    kind: str  # "cnot" | "h"
    id: int
    qubits: Tuple[int, ...]
    role: str  # "edge" | "prep" | "pre" | "post"
    of: int  # the CNOT index (edge, pre, post) or the vertex (prep)


@dataclass
class ModelVars:
    C: Dict[int, bool]
    S: Dict[int, Fraction]
    T: Dict[int, Fraction]
    B: Dict[int, bool]


@dataclass
class Solution:
    vars: ModelVars
    objective_value: object  # Fraction/int, or tuple for lexicographic objectives
    proven_optimal: bool


@dataclass
class SchedModel:
    """Materialized model instance for one (graph, embedding, calibration)."""

    graph: GraphSpec
    embedding: Embedding
    objective: Objective
    gates: List[GateId]
    # Per-CNOT: (phys_a, phys_b, dur_control_a, dur_control_b)
    cnot_info: List[Tuple[int, int, int, int]]
    sq_dur: Dict[int, int]  # physical qubit -> Hadamard duration (ns)
    coherence_ns: Dict[int, Fraction]  # mapped physical qubit -> D_q (ns)
    mapped_qubits: List[int]
    crosstalk_pairs: List[Tuple[int, int]]  # CNOT index pairs under Eq.-11-style exclusion
    constraints: List[Tuple[str, Expr]] = field(default_factory=list)

    @property
    def num_cnots(self) -> int:
        return len(self.cnot_info)

    def prep_id(self, v: int) -> int:
        return self.num_cnots + v

    def pre_id(self, i: int) -> int:
        return self.num_cnots + self.graph.n + 2 * i

    def post_id(self, i: int) -> int:
        return self.num_cnots + self.graph.n + 2 * i + 1

    def prep_wire(self, v: int) -> int:
        return self.embedding.mapping[v]

    def hadamard_ids(self) -> List[int]:
        return [g.id for g in self.gates if g.kind == "h"]


def _const(v: Number) -> Const:
    return Const(Fraction(v))


# ---------------------------------------------------------------------------
# Model construction

def build_model(
    g: GraphSpec,
    e: Embedding,
    cal: DeviceCalibration,
    obj: Objective,
) -> SchedModel:
    """Materialize gates, variables, and all constraints for one instance."""
    if len(set(e.mapping)) != g.n or len(e.mapping) != g.n:
        raise ValidationError("embedding is not an injective map of all vertices")
    topo = topology_graph(cal)
    edges = g.sorted_edges()
    for u, v in edges:
        pu, pv = e.mapping[u], e.mapping[v]
        if pv not in topo.get(pu, frozenset()):
            raise ValidationError(f"embedding maps edge ({u},{v}) onto non-coupled qubits ({pu},{pv})")

    cnot_info = []
    for u, v in edges:
        c = cal.coupler(e.mapping[u], e.mapping[v])
        cnot_info.append((c.a, c.b, c.duration_ab_ns, c.duration_ba_ns))

    mapped = list(e.mapping)
    sq_dur = {q: cal.qubit(q).sq_duration_ns for q in mapped}
    # str() gives the calibration's decimal, not the binary float's expansion.
    coherence = {q: Fraction(str(cal.qubit(q).coherence_time_us)) * 1000 for q in mapped}

    m_cnots = len(edges)
    crosstalk_pairs: List[Tuple[int, int]] = []
    if obj.crosstalk_free:
        for i in range(m_cnots):
            for j in range(i + 1, m_cnots):
                qi = set(cnot_info[i][:2])
                qj = set(cnot_info[j][:2])
                if qi & qj:
                    continue
                if any(b in topo[a] for a in qi for b in qj):
                    crosstalk_pairs.append((i, j))

    model = SchedModel(
        graph=g,
        embedding=e,
        objective=obj,
        gates=[GateId("cnot", i, (pa, pb), "edge", i) for i, (pa, pb, _, _) in enumerate(cnot_info)],
        cnot_info=cnot_info,
        sq_dur=sq_dur,
        coherence_ns=coherence,
        mapped_qubits=mapped,
        crosstalk_pairs=crosstalk_pairs,
    )
    for v in range(g.n):
        model.gates.append(GateId("h", model.prep_id(v), (model.prep_wire(v),), "prep", v))
    for i, (_, pb, _, _) in enumerate(cnot_info):
        model.gates.append(GateId("h", model.pre_id(i), (pb,), "pre", i))
        model.gates.append(GateId("h", model.post_id(i), (pb,), "post", i))
    model.constraints = _build_constraints(model)
    return model


class _Terms:
    """The atoms of one model and its per-wire gate indexes.

    One instance serves one _build_constraints (or emit_smtlib) call, so
    nothing is shared between models.
    """

    def __init__(self, m: SchedModel):
        self.S = [Var(f"S_{gate.id}") for gate in m.gates]
        self.T = [Var(f"T_{gate.id}") for gate in m.gates]
        self.C = [Var(f"C_{i}") for i in range(m.num_cnots)]
        self.B = {hid: Var(f"B_{hid}") for hid in m.hadamard_ids()}
        # live[gid]: the gate is not canceled (always, for a CNOT).
        self.live = [Not(self.B[gate.id]) if gate.kind == "h" else TRUE for gate in m.gates]
        # targets[i][q]: CNOT i targets wire q (C = True targets b).
        self.targets = [
            {pb: self.C[i], pa: Not(self.C[i])} for i, (pa, pb, _, _) in enumerate(m.cnot_info)
        ]
        # wires[gid][q]: gate gid acts on wire q; a wire it never touches is absent.
        self.wires: List[Dict[int, Expr]] = [
            self.targets[gate.of] if gate.role in ("pre", "post") else dict.fromkeys(gate.qubits, TRUE)
            for gate in m.gates
        ]
        # on_wire[q]: the gates that may act on wire q, ascending; cnots_on[q]:
        # the CNOTs among them (those whose coupler touches q).
        self.on_wire: Dict[int, List[int]] = {}
        for gid, wires in enumerate(self.wires):
            for q in wires:
                self.on_wire.setdefault(q, []).append(gid)
        self.cnots_on = {q: [gid for gid in gids if gid < m.num_cnots] for q, gids in self.on_wire.items()}


def _nonoverlap(t: _Terms, a: int, b: int) -> Expr:
    return disj(Le(t.T[a], t.S[b]), Le(t.T[b], t.S[a]))


def _none_within(t: _Terms, q: int, j1: Optional[int], j2: int) -> Expr:
    """No non-canceled gate on wire q lies inside the gap from the end of
    CNOT j1 (from time 0 when j1 is None) to the start of CNOT j2.

    One conjunct per gate that may act on q (other than j1, j2), in gate
    order; q's prep is one of them, so the conjunction is never empty. Its
    one user is the pair term of (j1, j2) on q.
    """
    return conj(*(
        # conj drops the TRUE that stands for "after time 0".
        Not(conj(t.wires[gid][q], t.live[gid], TRUE if j1 is None else Le(t.T[j1], t.S[gid]),
                 Le(t.T[gid], t.S[j2])))
        for gid in t.on_wire[q]
        if gid != j1 and gid != j2
    ))


def _build_constraints(m: SchedModel) -> List[Tuple[str, Expr]]:
    cons: List[Tuple[str, Expr]] = []
    g = m.graph
    t = _Terms(m)
    S, T, B, live, targets = t.S, t.T, t.B, t.live, t.targets

    # Domain: non-negative start times.
    zero = _const(0)
    for gate in m.gates:
        cons.append((f"domain[{gate.id}]", Le(zero, S[gate.id])))

    # constr-a: duration linkage, conditional on direction.
    def lasts(gid: int, i: int, if_c: int, if_not_c: int) -> Expr:
        """Gate gid's span is if_c when C_i holds and if_not_c when not."""
        pa, pb, _, _ = m.cnot_info[i]
        span = Sub(T[gid], S[gid])
        return conj(implies(targets[i][pb], EqR(span, _const(if_c))),
                    implies(targets[i][pa], EqR(span, _const(if_not_c))))

    for i, (pa, pb, dab, dba) in enumerate(m.cnot_info):
        cons.append((f"constr-a[cnot {i}]", lasts(i, i, dab, dba)))
        for hid in (m.pre_id(i), m.post_id(i)):
            cons.append((f"constr-a[h {hid}]", lasts(hid, i, m.sq_dur[pb], m.sq_dur[pa])))
    for v in range(g.n):
        pid = m.prep_id(v)
        cons.append((f"constr-a[h {pid}]", EqR(Sub(T[pid], S[pid]), _const(m.sq_dur[m.prep_wire(v)]))))

    # constr-b / constr-c: sandwich ordering, waived for canceled Hadamards.
    for i in range(m.num_cnots):
        pre, post = m.pre_id(i), m.post_id(i)
        cons.append((f"constr-b[{i}]", implies(live[pre], Le(T[pre], S[i]))))
        cons.append((f"constr-c[{i}]", implies(live[post], Le(T[i], S[post]))))

    # prep-first / wire-excl: one walk over the pairs of each wire's gates,
    # each pair's condition being that both gates are live and on the wire.
    # A pair with the wire's prep orders the prep first (prep-first). Any
    # other pair, save a CNOT's own sandwich (i, pre_i, post_i), which b/c
    # order, never overlaps there (wire-excl). The CNOT pairs state constr-d
    # (same-role CNOTs on a shared qubit) and no more: a pair with different
    # roles on q is already kept apart by constr-e, whose branches each give
    # T_i <= S_j or T_j <= S_i through b/c and constr-a's durations.
    for q, gids in t.on_wire.items():
        for a, b in combinations(gids, 2):
            if m.gates[b].role == "prep":
                a, b = b, a
            ga, gb = m.gates[a], m.gates[b]
            if ga.role != "prep" and ga.of == gb.of:
                continue
            cond = conj(t.wires[a][q], t.wires[b][q], live[a], live[b])
            if ga.role == "prep":
                cons.append((f"prep-first[{a},{b}]", implies(cond, Le(T[a], S[b]))))
            else:
                cons.append((f"wire-excl[{a},{b},{q}]", implies(cond, _nonoverlap(t, a, b))))

    # constr-e: a CNOT controlling q must stay clear of the whole Hadamard
    # sandwich of a CNOT targeting q.
    for q, js in t.cnots_on.items():
        for i, j in permutations(js, 2):
            cond = conj(Not(targets[i][q]), targets[j][q])
            pre_j, post_j = m.pre_id(j), m.post_id(j)
            before = disj(
                conj(live[pre_j], Le(T[i], S[pre_j])),
                conj(B[pre_j], Le(T[i], S[j])),
            )
            after = disj(
                conj(live[post_j], Le(T[post_j], S[i])),
                conj(B[post_j], Le(T[j], S[i])),
            )
            cons.append((f"constr-e[{i},{j}]", implies(cond, disj(before, after))))

    # constr-f: a canceled Hadamard's window is contained in the window of a
    # CNOT targeting the same wire.
    for hid in m.hadamard_ids():
        witnesses = [
            conj(on, targets[j][q], Le(S[j], S[hid]), Le(T[hid], T[j]))
            for q, on in t.wires[hid].items()
            for j in t.cnots_on[q]
        ]
        cons.append((f"constr-f[{hid}]", implies(B[hid], disj(*witnesses))))

    # pair-*: canceled Hadamards must pair up adjacently on their wire: the
    # wire's PREP with the PRE of a CNOT j targeting it, or POST(i) with
    # PRE(j) for CNOTs i, j targeting it back to back. Each candidate pair is
    # one term, an option of both its Hadamards' constraints.
    prep_by_wire = {m.prep_wire(v): m.prep_id(v) for v in range(g.n)}
    options: Dict[int, List[Expr]] = {hid: [] for hid in m.hadamard_ids()}
    for q, js in t.cnots_on.items():
        for i, j in [(None, j) for j in js] + list(permutations(js, 2)):
            h1, h2 = prep_by_wire[q] if i is None else m.post_id(i), m.pre_id(j)
            after_i = () if i is None else (targets[i][q], Le(T[i], S[j]))
            term = conj(targets[j][q], *after_i, B[h1], B[h2], _none_within(t, q, i, j))
            options[h1].append(term)
            options[h2].append(term)
    for hid, opts in options.items():
        gate = m.gates[hid]
        label = f"pair-prep[{hid}]" if gate.role == "prep" else f"pair-{gate.role}[{gate.of}]"
        cons.append((label, implies(B[hid], disj(*opts))))

    # Optional crosstalk exclusion between adjacent two-qubit gates.
    for i, j in m.crosstalk_pairs:
        cons.append((f"crosstalk[{i},{j}]", _nonoverlap(t, i, j)))

    return cons


# ---------------------------------------------------------------------------
# Solution checking and objective evaluation

def _variables(m: SchedModel) -> Iterable[Tuple[str, str, str, int]]:
    """(name, sort, ModelVars field, key) of every model variable: C per CNOT,
    then per gate S, T and, for a Hadamard, B."""
    for i in range(m.num_cnots):
        yield f"C_{i}", "Bool", "C", i
    for gate in m.gates:
        for var in ("S", "T", "B") if gate.kind == "h" else ("S", "T"):
            yield f"{var}_{gate.id}", "Bool" if var == "B" else "Real", var, gate.id


def _env_of(m: SchedModel, vars: ModelVars) -> Dict[str, object]:
    env: Dict[str, object] = {}
    for name, sort, var, key in _variables(m):
        value = getattr(vars, var)[key]
        env[name] = value if sort == "Bool" else Fraction(value)
    return env


def check_solution(m: SchedModel, s: Solution) -> List[str]:
    """Labels of all constraints violated by the solution's assignment."""
    env = _env_of(m, s.vars)
    return [label for label, expr in m.constraints if not expr.eval(env)]


def resolved_wires(m: SchedModel, gate: GateId, c_bits: Dict[int, bool]) -> Tuple[int, ...]:
    """Physical wires of a gate once directions are fixed: a CNOT's
    (control, target), where C true makes its coupler's a the control and b
    the target; a sandwich Hadamard's wire, its CNOT's target; a prep's wire."""
    if gate.role == "prep":
        return gate.qubits
    pa, pb, _, _ = m.cnot_info[gate.of]
    control, target = (pa, pb) if c_bits[gate.of] else (pb, pa)
    return (control, target) if gate.kind == "cnot" else (target,)


def canceled_count(m: SchedModel, vars: ModelVars) -> int:
    return sum(1 for h in m.hadamard_ids() if vars.B[h])


def makespan_of(m: SchedModel, vars: ModelVars) -> Fraction:
    return max(Fraction(vars.T[gate.id]) for gate in m.gates)


def remaining_coherence_of(m: SchedModel, vars: ModelVars) -> Fraction:
    """min over mapped qubits of D_q minus the last gate end on that wire."""
    last: Dict[int, Fraction] = {q: Fraction(0) for q in m.mapped_qubits}
    for gate in m.gates:
        for q in resolved_wires(m, gate, vars.C):
            t = Fraction(vars.T[gate.id])
            if t > last[q]:
                last[q] = t
    return min(m.coherence_ns[q] - last[q] for q in m.mapped_qubits)


def objective_value_of(m: SchedModel, vars: ModelVars):
    kind = m.objective.kind
    if kind is ObjectiveKind.MAX_CANCELLATION:
        return canceled_count(m, vars)
    if kind is ObjectiveKind.MIN_MAKESPAN:
        return makespan_of(m, vars)
    if kind is ObjectiveKind.MAX_REMAINING_COHERENCE:
        return remaining_coherence_of(m, vars)
    return (canceled_count(m, vars), makespan_of(m, vars))


# ---------------------------------------------------------------------------
# SMT-LIB emission

def emit_smtlib(m: SchedModel) -> str:
    """Complete SMT-LIB 2 optimization problem; byte-deterministic."""
    lines: List[str] = []
    lines.append("; graph-state preparation scheduling model")
    lines.append(f"; gates={len(m.gates)} cnots={m.num_cnots} objective={m.objective.kind.value}")
    lines.append("(set-option :produce-models true)")
    if m.objective.kind is ObjectiveKind.SMT_RUNTIME:
        lines.append("(set-option :opt.priority lex)")
    lines.append("(set-logic QF_LRA)")
    for name, sort, _, _ in _variables(m):
        lines.append(f"(declare-fun {name} () {sort})")

    for label, expr in m.constraints:
        lines.append(f"; {label}")
        lines.append(f"(assert {expr.smt()})")

    kind = m.objective.kind
    need_makespan = kind in (ObjectiveKind.MIN_MAKESPAN, ObjectiveKind.SMT_RUNTIME)
    if need_makespan:
        lines.append("(declare-fun MAKESPAN () Real)")
        for gate in m.gates:
            lines.append(f"(assert (>= MAKESPAN T_{gate.id}))")
    if kind is ObjectiveKind.MAX_REMAINING_COHERENCE:
        lines.append("(declare-fun M_REM () Real)")
        t = _Terms(m)
        for q in m.mapped_qubits:
            lines.append(f"(declare-fun TQ_{q} () Real)")
            lines.append(f"(assert (>= TQ_{q} 0.0))")
            for gid in t.on_wire[q]:
                cond = t.wires[gid][q]
                body = f"(>= TQ_{q} T_{gid})"
                if cond is TRUE:
                    lines.append(f"(assert {body})")
                else:
                    lines.append(f"(assert (=> {cond.smt()} {body}))")
            dq = _smt_num(m.coherence_ns[q])
            lines.append(f"(assert (<= M_REM (- {dq} TQ_{q})))")

    cancel_sum = "(+ " + " ".join(f"(ite B_{h} 1.0 0.0)" for h in m.hadamard_ids()) + ")"
    if kind is ObjectiveKind.MAX_CANCELLATION:
        lines.append(f"(maximize {cancel_sum})")
    elif kind is ObjectiveKind.MIN_MAKESPAN:
        lines.append("(minimize MAKESPAN)")
    elif kind is ObjectiveKind.MAX_REMAINING_COHERENCE:
        lines.append("(maximize M_REM)")
    else:
        lines.append(f"(maximize {cancel_sum})")
        lines.append("(minimize MAKESPAN)")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    lines.append("(get-objectives)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# External solver output parsing

_MAX_NESTING = 64  # far deeper than any model listing; bounds the recursive readers below


def _parse_sexprs(tokens: List[str]) -> list:
    stack: List[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
            if len(stack) > _MAX_NESTING:
                raise ExternalSolverError(f"solver output nests deeper than {_MAX_NESTING} levels")
        elif tok != ")":
            stack[-1].append(tok)
        elif len(stack) > 1:
            stack[-2].append(stack.pop())
        else:
            raise ExternalSolverError("unbalanced parentheses in solver output")
    if len(stack) > 1:
        raise ExternalSolverError("unbalanced parentheses in solver output")
    return stack[0]


def _number(sexpr) -> Fraction:
    if isinstance(sexpr, str):
        return Fraction(sexpr)
    if len(sexpr) == 2 and sexpr[0] == "-":
        return -_number(sexpr[1])
    if len(sexpr) == 3 and sexpr[0] == "/":
        return _number(sexpr[1]) / _number(sexpr[2])
    raise ValueError(sexpr)


def _value_of(bindings: Dict[str, object], name: str, sort: str):
    """The value the solver bound to ``name``, checked against its sort."""
    if name not in bindings:
        raise ExternalSolverError(f"solver output is missing variable {name}")
    sexpr = bindings[name]
    if sort == "Bool":
        if sexpr in ("true", "false"):
            return sexpr == "true"
    else:
        try:
            return _number(sexpr)
        except (ValueError, ZeroDivisionError):
            pass
    raise ExternalSolverError(f"solver output binds {name} to {_sexpr_text(sexpr)}, not a {sort} value")


def _sexpr_text(sexpr) -> str:
    return sexpr if isinstance(sexpr, str) else "(" + " ".join(map(_sexpr_text, sexpr)) + ")"


def parse_external_solution(m: SchedModel, solver_output: str) -> Solution:
    """Decode an optimizing SMT solver's model listing into a Solution.

    Expects a leading sat/unsat/unknown verdict followed by a model with one
    define-fun per declared variable.
    """
    stripped = [ln.strip() for ln in solver_output.splitlines() if ln.strip()]
    if not stripped:
        raise ExternalSolverError("empty solver output")
    verdict = stripped[0]
    if verdict == "unsat":
        raise ExternalSolverError("solver reported unsat")
    if verdict not in ("sat", "unknown"):
        raise ExternalSolverError(f"unrecognized solver verdict {verdict!r}")

    body = "\n".join(stripped[1:])
    bindings: Dict[str, object] = {}
    for item in _parse_sexprs(re.findall(r"[()]|[^\s()]+", body)):
        stack = [item]
        while stack:
            node = stack.pop()
            if isinstance(node, list):
                if len(node) >= 5 and node[0] == "define-fun" and isinstance(node[1], str):
                    bindings[node[1]] = node[-1]
                else:
                    stack.extend(x for x in node if isinstance(x, list))

    vars = ModelVars(C={}, S={}, T={}, B={})
    for name, sort, var, key in _variables(m):
        getattr(vars, var)[key] = _value_of(bindings, name, sort)

    return Solution(
        vars=vars,
        objective_value=objective_value_of(m, vars),
        proven_optimal=(verdict == "sat"),
    )
