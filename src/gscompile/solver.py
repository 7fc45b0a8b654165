"""Exact branch-and-bound scheduler for the preparation model.

Search space: every CNOT direction assignment times every commutation class
of CZ-block orders (represented by edge sequences; adjacent independent edges
are canonicalized to ascending order so each class is visited once). At a
leaf the schedule is fixed: Hadamard pairs that sit adjacently on a wire are
canceled greedily (always optimal: removing gates never hurts any objective)
and the remaining gates are placed as soon as possible along their wires.

That leaf rule is written once, as _Leaf.place: the search places and
unplaces CNOTs with it while descending, and _vars_from_leaf replays the
winning (mask, order) through it to record every gate window.

Bounds are admissible critical-path relaxations: per-wire ready time plus the
CNOT durations still owed to that wire, assuming every future sandwich
Hadamard cancels.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from .errors import CapExceededError
from .model import (
    ModelVars,
    ObjectiveKind,
    SchedModel,
    Solution,
    resolved_wires,
)

DEFAULT_EXACT_CAP = 10


def _direction_tables(m: SchedModel, mask: int):
    """Per-CNOT (control, target, duration) plus per-wire cancellation data.

    longest[q] is the longest CNOT targeting wire q (lowest index on ties): a
    Hadamard on q can cancel only if it fits inside that window, which is
    also where a canceled Hadamard's containment witness sits.
    """
    control, target, dur = [], [], []
    for i, (pa, pb, dab, dba) in enumerate(m.cnot_info):
        if (mask >> i) & 1:
            control.append(pa)
            target.append(pb)
            dur.append(dab)
        else:
            control.append(pb)
            target.append(pa)
            dur.append(dba)
    longest: Dict[int, int] = {}
    for i in range(m.num_cnots):
        if target[i] not in longest or dur[i] > dur[longest[target[i]]]:
            longest[target[i]] = i
    cancelable = {q: q in longest and m.sq_dur[q] <= dur[longest[q]] for q in m.mapped_qubits}
    return control, target, dur, cancelable, longest


class _Leaf:
    """ASAP schedule of one direction mask, built up one CNOT at a time.

    reset(mask) starts an empty schedule. place(i) is the single leaf step
    shared by the search and the decode: the sandwich PRE on the target
    wire cancels the pending Hadamard there when it fits inside the wire's
    longest targeting CNOT, otherwise the pending Hadamard and then PRE
    run; the control wire's pending Hadamard runs; the CNOT starts when
    both wires are free and every crosstalk partner already placed has
    ended; its POST becomes the target wire's pending Hadamard. With record
    set, gate windows and canceled gate ids are kept for building a full
    variable assignment.
    """

    def __init__(self, m: SchedModel, record: bool = False):
        self.m = m
        self.record = record
        self.sq = m.sq_dur
        self.pre = [m.pre_id(i) for i in range(m.num_cnots)]
        self.post = [m.post_id(i) for i in range(m.num_cnots)]
        self.partners: List[List[int]] = [[] for _ in range(m.num_cnots)]
        for a, b in m.crosstalk_pairs:
            self.partners[a].append(b)
            self.partners[b].append(a)
        self.preps = {m.prep_wire(v): m.prep_id(v) for v in range(m.graph.n)}

    def reset(self, mask: int) -> None:
        self.control, self.target, self.dur, self.cancelable, self.longest = _direction_tables(self.m, mask)
        self.ready: Dict[int, int] = dict.fromkeys(self.m.mapped_qubits, 0)
        # pending[q]: id of the lazily scheduled Hadamard that the next
        # CNOT targeting q may cancel.
        self.pending: Dict[int, Optional[int]] = dict(self.preps)
        self.canceled = 0
        self.cnot_end: Dict[int, int] = {}
        self.windows: Dict[int, Tuple[int, int]] = {}
        self.canceled_ids: Set[int] = set()

    def _run(self, gid: int, q: int) -> None:
        start = self.ready[q]
        self.ready[q] = start + self.sq[q]
        if self.record:
            self.windows[gid] = (start, self.ready[q])

    def place(self, i: int):
        """Schedule CNOT i with its sandwich; returns the record unplace needs."""
        c, t = self.control[i], self.target[i]
        ready, pending = self.ready, self.pending
        undo = (ready[c], ready[t], pending[c], pending[t], self.canceled)
        if pending[t] is not None and self.cancelable[t]:
            self.canceled += 2
            if self.record:
                self.canceled_ids.update((pending[t], self.pre[i]))
        else:
            if pending[t] is not None:
                self._run(pending[t], t)
            self._run(self.pre[i], t)
        if pending[c] is not None:
            self._run(pending[c], c)
            pending[c] = None
        start = max(ready[c], ready[t])
        for j in self.partners[i]:
            end_j = self.cnot_end.get(j)
            if end_j is not None and end_j > start:
                start = end_j
        end = start + self.dur[i]
        ready[c] = ready[t] = end
        self.cnot_end[i] = end
        if self.record:
            self.windows[i] = (start, end)
        pending[t] = self.post[i]
        return undo

    def unplace(self, i: int, undo) -> None:
        c, t = self.control[i], self.target[i]
        self.ready[c], self.ready[t], self.pending[c], self.pending[t], self.canceled = undo
        del self.cnot_end[i]

    def wire_ends(self) -> Dict[int, int]:
        """Per-wire end once every pending Hadamard runs (leaves the state as is)."""
        ends = {}
        for q, ready in self.ready.items():
            gid = self.pending[q]
            ends[q] = ready if gid is None else ready + self.sq[q]
            if self.record and gid is not None:
                self.windows[gid] = (ready, ends[q])
        return ends


class _Search:
    """Branch-and-bound over (direction mask, edge order) for one objective.

    mode: "cancel" (maximize), "makespan" (minimize), "coherence" (maximize).
    require_canceled pins the cancellation count (lexicographic stage two).
    """

    def __init__(self, m: SchedModel, mode: str, require_canceled: Optional[int] = None):
        self.m = m
        self.leaf = _Leaf(m)
        self.mode = mode
        self.require_canceled = require_canceled
        self.best_key = None
        self.best_leaf: Optional[Tuple[int, Tuple[int, ...]]] = None
        # Edge independence for canonical ordering: dependent if wires shared
        # or a crosstalk constraint links them.
        mc = m.num_cnots
        self.dependent = [[False] * mc for _ in range(mc)]
        for i in range(mc):
            for j in range(mc):
                if i != j and set(m.cnot_info[i][:2]) & set(m.cnot_info[j][:2]):
                    self.dependent[i][j] = True
        for i, j in m.crosstalk_pairs:
            self.dependent[i][j] = self.dependent[j][i] = True

    def run(self) -> Tuple[object, int, Tuple[int, ...]]:
        m = self.m
        for mask in range(1 << m.num_cnots):
            self._search_mask(mask)
        assert self.best_leaf is not None, "model is always satisfiable"
        mask, perm = self.best_leaf
        return self._value_from_key(self.best_key), mask, perm

    # Keys are "smaller is better" tuples.
    def _leaf_key(self, canceled: int, wire_end: Dict[int, int]):
        if self.mode == "cancel":
            return -canceled
        if self.mode == "makespan":
            return max(wire_end.values())
        m_rem = min(self.m.coherence_ns[q] - wire_end[q] for q in self.m.mapped_qubits)
        return -m_rem

    def _value_from_key(self, key):
        return -key if self.mode in ("cancel", "coherence") else key

    def _search_mask(self, mask: int) -> None:
        m = self.m
        leaf = self.leaf
        leaf.reset(mask)
        control, target, dur, ready = leaf.control, leaf.target, leaf.dur, leaf.ready
        remaining_load = {q: 0 for q in m.mapped_qubits}
        for i in range(m.num_cnots):
            remaining_load[control[i]] += dur[i]
            remaining_load[target[i]] += dur[i]

        def prune(cur_makespan: int, n_left: int) -> bool:
            canceled = leaf.canceled
            if self.require_canceled is not None and canceled + 2 * n_left < self.require_canceled:
                return True
            if self.best_key is None:
                return False
            if self.mode == "cancel":
                return -(canceled + 2 * n_left) >= self.best_key
            if self.mode == "makespan":
                lb = cur_makespan
                for q in m.mapped_qubits:
                    est = ready[q] + remaining_load[q]
                    if est > lb:
                        lb = est
                return lb >= self.best_key
            ub = min(
                m.coherence_ns[q] - (ready[q] + remaining_load[q])
                for q in m.mapped_qubits
            )
            return -ub >= self.best_key

        def dfs(placed: List[int], cur_makespan: int, left: List[int]) -> None:
            if not left:
                if self.require_canceled is not None and leaf.canceled != self.require_canceled:
                    return
                key = self._leaf_key(leaf.canceled, leaf.wire_ends())
                if self.best_key is None or key < self.best_key:
                    self.best_key = key
                    self.best_leaf = (mask, tuple(placed))
                return
            if prune(cur_makespan, len(left)):
                return
            last = placed[-1] if placed else None
            for i in list(left):
                if last is not None and i < last and not self.dependent[i][last]:
                    continue  # canonical representative has ascending independent runs
                c, t, d = control[i], target[i], dur[i]
                undo = leaf.place(i)
                remaining_load[c] -= d
                remaining_load[t] -= d
                left.remove(i)
                placed.append(i)

                dfs(placed, max(cur_makespan, leaf.cnot_end[i]), left)

                placed.pop()
                left.append(i)
                left.sort()
                remaining_load[c] += d
                remaining_load[t] += d
                leaf.unplace(i, undo)

        dfs([], 0, list(range(m.num_cnots)))


def _vars_from_leaf(m: SchedModel, mask: int, perm: Tuple[int, ...]) -> ModelVars:
    """Replay one (direction mask, edge order) leaf into a full assignment."""
    leaf = _Leaf(m, record=True)
    leaf.reset(mask)
    for i in perm:
        leaf.place(i)
    leaf.wire_ends()
    windows = leaf.windows
    c_bits = {i: bool((mask >> i) & 1) for i in range(m.num_cnots)}
    s_map: Dict[int, Fraction] = {}
    t_map: Dict[int, Fraction] = {}
    b_map: Dict[int, bool] = {}

    for gate in m.gates:
        gid = gate.id
        if gate.kind == "h":
            b_map[gid] = gid in leaf.canceled_ids
        if gid in windows:
            s, t = windows[gid]
            s_map[gid], t_map[gid] = Fraction(s), Fraction(t)
        else:
            # Ghost window of a canceled Hadamard: at the start of its
            # wire's longest targeting CNOT, the containment witness.
            (q,) = resolved_wires(m, gate, c_bits)
            ws = windows[leaf.longest[q]][0]
            s_map[gid] = Fraction(ws)
            t_map[gid] = Fraction(ws + m.sq_dur[q])
    return ModelVars(C=c_bits, S=s_map, T=t_map, B=b_map)


def solve_exact(m: SchedModel) -> Solution:
    """Provably optimal solution by exhaustive branch-and-bound."""
    if m.num_cnots > DEFAULT_EXACT_CAP:
        raise CapExceededError(
            f"{m.num_cnots} CNOTs exceeds the exact-search cap of {DEFAULT_EXACT_CAP}; use emit-smt"
        )
    kind = m.objective.kind
    if kind is ObjectiveKind.SMT_RUNTIME:
        cancel_value, _, _ = _Search(m, "cancel").run()
        makespan_value, mask, perm = _Search(
            m, "makespan", require_canceled=cancel_value
        ).run()
        objective_value = (cancel_value, Fraction(makespan_value))
    else:
        mode = {
            ObjectiveKind.MAX_CANCELLATION: "cancel",
            ObjectiveKind.MIN_MAKESPAN: "makespan",
            ObjectiveKind.MAX_REMAINING_COHERENCE: "coherence",
        }[kind]
        value, mask, perm = _Search(m, mode).run()
        objective_value = int(value) if mode == "cancel" else Fraction(value)
    vars = _vars_from_leaf(m, mask, perm)
    return Solution(vars=vars, objective_value=objective_value, proven_optimal=True)
