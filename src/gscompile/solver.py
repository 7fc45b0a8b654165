"""Exact branch-and-bound scheduler for the preparation model.

A leaf is one (direction mask, canonical edge order: adjacent independent
edges ascending). Hadamard pairs that sit adjacently on a wire are canceled
greedily (removing gates never hurts any objective) and the rest run as soon
as possible. That rule is written once, as _Leaf.place(i, d) for CNOT i in
direction d (its mask bit), and serves both passes and _vars_from_leaf.

Value pass: a depth-first search places one edge at a time and branches on
its direction there, so no prefix is replayed under another completion. A
Hadamard on wire q cancels only if some CNOT targeting q lasts at least as
long, which can hinge on unplaced edges, so each wire carries a state: such
a CNOT witnesses it; the first shorter one to meet a pending Hadamard on an
undecided wire branches on "assumed" (dropped once no unplaced edge can
witness it) and "never" (dropped when a witness is placed). A transposition
set skips expanded states, keyed on the unplaced edges, the edges allowed
next (fixed by those and the last edge), per-wire ready time, pending bit
and cancellation state, the cancel count, and the ends of placed CNOTs with
unplaced crosstalk partners. Bounds are per-wire critical paths: ready time,
the shorter duration of each unplaced edge there, and Hadamards that must
still run.

Witness pass: the result is the first optimal leaf in mask-ascending,
lexicographic order, the brute-force oracle's tie-break. Mask by mask, the
same search runs with directions fixed, a fresh transposition set and the
bound preset to the optimum, prunes only strictly worse subtrees, and stops
at the first leaf that reaches it.

Time is integral: coherences are scaled by the LCM of their denominators (1
when all are integral) and the value divided back once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, sub
from typing import Dict, List, Optional, Tuple

from .errors import CapExceededError
from .model import (
    ModelVars,
    ObjectiveKind,
    SchedModel,
    Solution,
    resolved_wires,
)

DEFAULT_EXACT_CAP = 10

# Per-wire cancellation state (_Leaf.can): a pending Hadamard on the target
# wire cancels when the state is ASSUMED or WITNESSED.
UNDECIDED, NEVER, ASSUMED, WITNESSED = range(4)


class _Leaf:
    """ASAP schedule built up one CNOT at a time, on local wire indices.

    start(can) begins an empty schedule under per-wire cancellation states.
    place(i, d) is the single leaf step: the sandwich PRE on the target wire
    cancels the pending Hadamard there when the wire's state allows it,
    otherwise the pending Hadamard and then PRE run; the control wire's
    pending Hadamard runs; the CNOT starts when both wires are free and every
    crosstalk partner already placed has ended; its POST becomes the target
    wire's pending Hadamard. With record set, gate windows and canceled gate
    ids are kept for building a full variable assignment. Times are ns
    multiplied by scale.
    """

    def __init__(self, m: SchedModel, scale: int = 1, record: bool = False):
        self.m = m
        self.record = record
        self.wires = list(m.mapped_qubits)
        self.index = idx = {q: k for k, q in enumerate(self.wires)}
        self.sq = [m.sq_dur[q] * scale for q in self.wires]
        # dirs[i][d]: (control, target, duration) of CNOT i under mask bit d.
        self.dirs = [
            ((idx[pb], idx[pa], dba * scale), (idx[pa], idx[pb], dab * scale))
            for pa, pb, dab, dba in m.cnot_info
        ]
        self.pre = [m.pre_id(i) for i in range(m.num_cnots)]
        self.post = [m.post_id(i) for i in range(m.num_cnots)]
        self.partners: List[List[int]] = [[] for _ in range(m.num_cnots)]
        for a, b in m.crosstalk_pairs:
            self.partners[a].append(b)
            self.partners[b].append(a)
        # The preps are the first pending Hadamards.
        self.preps: List[Optional[int]] = [None] * len(self.wires)
        for v in range(m.graph.n):
            self.preps[idx[m.prep_wire(v)]] = m.prep_id(v)

    def start(self, can: List[int]) -> None:
        self.can = can
        self.ready = [0] * len(self.wires)
        # pending[q]: id of the lazily scheduled Hadamard that the next
        # CNOT targeting q may cancel.
        self.pending = list(self.preps)
        self.canceled = 0
        self.cnot_end: List[Optional[int]] = [None] * self.m.num_cnots
        self.windows: Dict[int, Tuple[int, int]] = {}
        self.canceled_ids: List[int] = []

    def _run(self, gid: int, q: int) -> None:
        start = self.ready[q]
        self.ready[q] = start + self.sq[q]
        if self.record:
            self.windows[gid] = (start, self.ready[q])

    def place(self, i: int, d: int):
        """Schedule CNOT i in direction d with its sandwich; returns the record unplace needs."""
        c, t, dur = self.dirs[i][d]
        ready, pending = self.ready, self.pending
        undo = (c, t, ready[c], ready[t], pending[c], pending[t], self.canceled)
        if pending[t] is not None and self.can[t] >= ASSUMED:
            self.canceled += 2
            if self.record:
                self.canceled_ids += (pending[t], self.pre[i])
        else:
            if pending[t] is not None:
                self._run(pending[t], t)
            self._run(self.pre[i], t)
        if pending[c] is not None:
            self._run(pending[c], c)
            pending[c] = None
        start = max(ready[c], ready[t])
        for j in self.partners[i]:
            end_j = self.cnot_end[j]
            if end_j is not None and end_j > start:
                start = end_j
        end = start + dur
        ready[c] = ready[t] = end
        self.cnot_end[i] = end
        if self.record:
            self.windows[i] = (start, end)
        pending[t] = self.post[i]
        return undo

    def unplace(self, i: int, undo) -> None:
        c, t = undo[0], undo[1]
        self.ready[c], self.ready[t], self.pending[c], self.pending[t], self.canceled = undo[2:]
        self.cnot_end[i] = None

    def wire_ends(self) -> List[int]:
        """Per-wire end once every pending Hadamard runs (leaves the state as is)."""
        ends = []
        for q, ready in enumerate(self.ready):
            gid = self.pending[q]
            ends.append(ready if gid is None else ready + self.sq[q])
            if self.record and gid is not None:
                self.windows[gid] = (ready, ends[q])
        return ends

    def longest(self, mask: int) -> Dict[int, Tuple[int, int]]:
        """Per wire, (duration, index) of the longest CNOT targeting it under
        mask, lowest index on ties: a Hadamard there cancels only if it fits
        inside that CNOT, which is also where a canceled Hadamard's
        containment witness sits."""
        longest: Dict[int, Tuple[int, int]] = {}
        for i, opts in enumerate(self.dirs):
            _, t, dur = opts[(mask >> i) & 1]
            if t not in longest or dur > longest[t][0]:
                longest[t] = (dur, i)
        return longest

    def mask_can(self, mask: int) -> List[int]:
        """Every wire's cancellation state once all directions are fixed."""
        longest = self.longest(mask)
        return [WITNESSED if q in longest and sq <= longest[q][0] else NEVER for q, sq in enumerate(self.sq)]


class _Search:
    """Branch-and-bound over (directions, edge order) for one objective.

    mode: "cancel" (maximize), "makespan" (minimize), "coherence" (maximize).
    require_canceled pins the cancellation count (lexicographic stage two).
    Keys are "smaller is better" integers on the scaled time axis.
    """

    def __init__(self, m: SchedModel, mode: str, require_canceled: Optional[int] = None):
        self.m = m
        self.mode = mode
        self.require_canceled = require_canceled
        coherence = [Fraction(m.coherence_ns[q]) for q in m.mapped_qubits]
        self.scale = lcm(*(c.denominator for c in coherence)) if mode == "coherence" else 1
        self.leaf = leaf = _Leaf(m, self.scale)
        # A wire's key term is its end less its deadline: 0, or the scaled
        # coherence (so the key is minus the remaining coherence).
        self.deadline = [
            (c * self.scale).numerator if mode == "coherence" else 0 for c in coherence
        ]
        mc = m.num_cnots
        # after[j]: edges that may follow edge j by the commutation rule: a
        # lower index only if it shares a wire or a crosstalk constraint
        # with j. after[mc] is the root's "every edge".
        dependent = [[bool(set(a[:2]) & set(b[:2])) for b in m.cnot_info] for a in m.cnot_info]
        for i, j in m.crosstalk_pairs:
            dependent[i][j] = dependent[j][i] = True
        self.after = [sum(1 << i for i in range(mc) if i > j or dependent[i][j]) for j in range(mc)]
        self.after.append((1 << mc) - 1)
        self.bits = [tuple(i for i in range(mc) if (s >> i) & 1) for s in range(1 << mc)]
        # Key field per wire: ready << 3 | pending bit << 2 | state, in
        # field_bits wide enough for a fully serial schedule.
        horizon = sum(max(d[2] for d in opts) for opts in leaf.dirs)
        horizon += (m.graph.n + 2 * mc) * max(leaf.sq, default=0)
        self.field_bits = horizon.bit_length() + 3
        self.low_bits = (2 * mc + m.graph.n).bit_length() + 2 * mc

    def run(self) -> Tuple[object, int, Tuple[int, ...]]:
        """(optimal value, direction mask, edge order) of the first optimal leaf."""
        best = self.value()
        for mask in range(1 << self.m.num_cnots):
            _, perm = self._explore(mask, best)
            if perm is not None:
                if self.mode == "cancel":
                    return -best, mask, perm
                value = Fraction(best) if self.mode == "makespan" else Fraction(-best, self.scale)
                return value, mask, perm
        raise AssertionError("the proven optimum has a witness leaf")

    def value(self) -> int:
        """Value pass: the optimal key over every direction and order."""
        best, _ = self._explore(None, None)
        assert best is not None, "model is always satisfiable"
        return best

    def _explore(self, mask: Optional[int], target: Optional[int]):
        """One depth-first search from the empty schedule: (best key, edge order).

        With mask None every direction is open and the search returns the
        minimal key. With a mask every direction is fixed to its bit, and the
        search returns the first edge order whose leaf reaches target (None
        if no leaf does).
        """
        m, leaf, mode, require = self.m, self.leaf, self.mode, self.require_canceled
        mc, nq = m.num_cnots, len(leaf.wires)
        dirs, sq, deadline, after, bits = leaf.dirs, leaf.sq, self.deadline, self.after, self.bits
        if mask is None:
            options = [(0, 1) if opts[0][2] <= opts[1][2] else (1, 0) for opts in dirs]
            leaf.start([UNDECIDED] * nq)
        else:
            options = [((mask >> i) & 1,) for i in range(mc)]
            leaf.start(leaf.mask_can(mask))
        ready, pending, can, cnot_end = leaf.ready, leaf.pending, leaf.can, leaf.cnot_end
        # Per edge: its wires, its shorter allowed duration, the wires it may target.
        wires_of = [opts[0][:2] for opts in dirs]
        edge_load = [min(dirs[i][d][2] for d in options[i]) for i in range(mc)]
        may = [[dirs[i][d][1] for d in options[i]] for i in range(mc)]
        # Per wire: CNOT time owed, unplaced edges that may / must target it,
        # and edges with an allowed direction long enough to witness it.
        load, tmax, tmin, witnesses = [0] * nq, [0] * nq, [0] * nq, [0] * nq

        def take(i: int, sign: int) -> None:  # add (1) or remove (-1) edge i
            for q in wires_of[i]:
                load[q] += sign * edge_load[i]
            for q in may[i]:
                tmax[q] += sign
            if len(may[i]) == 1:
                tmin[may[i][0]] += sign

        for i in range(mc):
            take(i, 1)
            for d in options[i]:
                _, t, dur = dirs[i][d]
                if dur >= sq[t]:
                    witnesses[t] |= 1 << i
        xt_edges = [i for i in range(mc) if leaf.partners[i]]
        partner_mask = [sum(1 << j for j in leaf.partners[i]) for i in range(mc)]
        fb, low_bits = self.field_bits, self.low_bits
        shift = [fb * q + low_bits for q in range(nq)]
        top = fb * nq + low_bits
        seen = set()
        placed: List[int] = []
        strict = target is not None
        best = target

        def field(q: int) -> int:
            return ((ready[q] << 3) | ((pending[q] is not None) << 2) | can[q]) << shift[q]

        def owe(q: int) -> int:
            # Wire q's least remaining time less its deadline. A wire that never
            # cancels runs its pending Hadamard and the PRE and POST of each CNOT
            # that must target it; otherwise the last targeting CNOT's POST runs,
            # as does a pending Hadamard that no unplaced edge can cancel.
            pend = pending[q] is not None
            if can[q] == NEVER:
                h = sq[q] * (pend + 2 * tmin[q])
            elif tmin[q] or (pend and not tmax[q]):
                h = sq[q]
            else:
                h = 0
            return load[q] + h - deadline[q]

        owed = [owe(q) for q in range(nq)]

        def dfs(unplaced: int, allowed: int, wires_key: int):
            nonlocal best
            if not unplaced:
                if require is not None and leaf.canceled != require:
                    return None
                key = -leaf.canceled if mode == "cancel" else max(map(sub, leaf.wire_ends(), deadline))
                if strict:
                    return tuple(placed) if key == best else None
                if best is None or key < best:
                    best = key
                return None
            state = wires_key | (((leaf.canceled << mc) | unplaced) << mc) | allowed
            # Ends still owed to crosstalk partners; unplaced fixes which.
            pos = top
            for i in xt_edges:
                if cnot_end[i] is not None and partner_mask[i] & unplaced:
                    state |= cnot_end[i] << pos
                    pos += fb
            if state in seen:
                return None
            seen.add(state)
            n_left = unplaced.bit_count()
            if require is not None and leaf.canceled + 2 * n_left < require:
                return None
            if best is not None:
                if mode == "cancel":
                    lb = -(leaf.canceled + 2 * n_left)
                else:
                    lb = max(map(add, ready, owed))
                if lb > best or (lb == best and not strict):
                    return None
            for i in bits[allowed]:
                rest = unplaced & ~(1 << i)
                take(i, -1)
                placed.append(i)
                for d in options[i]:
                    c, t, dur = dirs[i][d]
                    prev = can[t]
                    if dur >= sq[t]:
                        if prev == NEVER:
                            continue  # contradicts "no CNOT witnesses t"
                        states = (WITNESSED,)
                    elif prev == UNDECIDED and pending[t] is not None:
                        states = (ASSUMED, NEVER)
                    else:
                        states = (prev,)
                    old = field(c) + field(t)
                    for state_t in states:
                        can[t] = state_t
                        if (state_t == ASSUMED and not witnesses[t] & rest) or (
                            can[c] == ASSUMED and not witnesses[c] & rest
                        ):
                            continue  # no unplaced edge can witness the assumption
                        undo = leaf.place(i, d)
                        owed[c], owed[t] = owe(c), owe(t)
                        found = dfs(rest, rest & after[i], wires_key - old + field(c) + field(t))
                        leaf.unplace(i, undo)
                        if found is not None:
                            return found  # the witness ends the search
                    can[t] = prev
                placed.pop()
                take(i, 1)
                a, b = wires_of[i]
                owed[a], owed[b] = owe(a), owe(b)
            return None

        full = (1 << mc) - 1
        perm = dfs(full, after[mc], sum(field(q) for q in range(nq)))
        return best, perm


def _vars_from_leaf(m: SchedModel, mask: int, perm: Tuple[int, ...]) -> ModelVars:
    """Replay one (direction mask, edge order) leaf into a full assignment."""
    leaf = _Leaf(m, record=True)
    leaf.start(leaf.mask_can(mask))
    for i in perm:
        leaf.place(i, (mask >> i) & 1)
    leaf.wire_ends()
    windows = leaf.windows
    longest = leaf.longest(mask)
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
            ws = windows[longest[leaf.index[q]][1]][0]
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
        cancel_value = -_Search(m, "cancel").value()
        makespan_value, mask, perm = _Search(
            m, "makespan", require_canceled=cancel_value
        ).run()
        objective_value = (cancel_value, makespan_value)
    else:
        mode = {
            ObjectiveKind.MAX_CANCELLATION: "cancel",
            ObjectiveKind.MIN_MAKESPAN: "makespan",
            ObjectiveKind.MAX_REMAINING_COHERENCE: "coherence",
        }[kind]
        objective_value, mask, perm = _Search(m, mode).run()
    vars = _vars_from_leaf(m, mask, perm)
    return Solution(vars=vars, objective_value=objective_value, proven_optimal=True)
