"""Exact branch-and-bound scheduler for the preparation model.

A leaf is one (direction mask, canonical edge order: adjacent independent
edges ascending). Hadamard pairs that sit adjacently on a wire are canceled
greedily (removing gates never hurts any objective) and the rest run as soon
as possible. That rule is written once, as _Leaf.place(i, d) for CNOT i in
direction d (its mask bit), and serves both the search and _vars_from_leaf.

Search: one depth-first search places one edge at a time and branches on
its direction there, so no prefix is replayed under another completion. A
Hadamard on wire q cancels only if some CNOT targeting q lasts at least as
long, which can hinge on unplaced edges, so each wire carries a state: such
a CNOT witnesses it; the first shorter one to meet a pending Hadamard on an
undecided wire branches on "assumed" (dropped once no unplaced edge can
witness it) and "never" (dropped when a witness is placed), so each leaf is
reached on exactly one branch. Bounds are per-wire critical paths: ready
time, the shorter duration of each unplaced edge there, and one Hadamard
while one is pending. A pending Hadamard is always followed by one that runs
on its wire: it runs itself at the wire's next control use, at a target use
that cannot cancel, or at the end; a target use that cancels it makes the
CNOT's POST the wire's pending Hadamard, and the argument repeats. Gates on
one wire do not overlap, so that Hadamard adds its duration to the CNOTs
still owed there. Edge-start term: an unplaced CNOT starts no earlier than
the ready times of its two wires and the end of each placed crosstalk
partner, since ready times only grow and placed ends are fixed. So no
unplaced CNOT on wire q starts before first[q], the least such start over
q's unplaced edges, and those CNOTs run one after another on q, each for at
least its shorter duration: q ends no earlier than first[q] plus its owed
CNOT time. The timed bound is the larger of the wire bound and the maximum
of that, less the deadline, over the wires some unplaced edge touches. The
term is taken only at inner nodes the wire bound keeps, and only under
`decoherence` or with crosstalk pairs, where a wire waits for a busier
neighbour or a partner's end; on crosstalk-allowed `runtime` and
`smt-runtime` it cut a quarter of the children but cost as much time as
it saved, or more. It reads only what the state key holds (ready times, the
unplaced edges and the ends owed to crosstalk partners), so the bound stays
a function of the state (First leaf, below), and it is absent at a leaf. A
transposition table, consulted only at inner nodes the bound keeps, skips
expanded states, keyed on the unplaced edges, the edges allowed next (fixed
by those and the last edge), per-wire ready time, pending bit and
cancellation state, the cancel count, and the ends of placed CNOTs with
unplaced crosstalk partners. `cancellation`'s key leaves out the ready times
and the ends: under that objective nothing reads time, and whether a step
cancels depends only on the pending bits and states.

First leaf: the result is the first optimal leaf in mask-ascending,
lexicographic order, the brute-force oracle's tie-break. The search carries
the direction bits of the placed edges (the placed mask), which every leaf
below extends, and its incumbent is one integer: a leaf's folded key
(key << mc) + mask, for mc CNOTs. The fold rests on two facts. The mask is
below 1 << mc, so a smaller folded key is a smaller key, or an equal key
under a smaller mask. Every leaf key is at most horizon (One key, below), so
the incumbent starts at (horizon + 1) << mc, above every folded key. A node
returns unless (bound << mc) + placed mask is below the incumbent, since
every leaf below has a key of at least the bound and a mask of at least the
placed one. The bound is the key at a leaf (One key, below), so a leaf that
passes has the smaller folded key and replaces the incumbent; of two equal
ones the first met stays.
Seed: before the search, _seed builds one leaf by a list schedule, and dfs,
called on that leaf, scores it as it scores every leaf. The incumbent then
starts at its folded key + 1 instead. The seed is a leaf of the search up to
order: every CNOT it places can witness its target, which is the state the
search gives such a wire, and swapping two adjacent edges that share no wire
or crosstalk constraint changes no start time, so the search's canonical
order of the seed's edges gives a leaf with the seed's key and mask. The
first optimal leaf's folded key is therefore at most the seed's, below the
preset, and every node above it has a bound no larger, so the search reaches
it as it would unseeded. The preset is never the folded key itself: the
search would then prune every leaf with that folded key, the seed's own
canonical leaf and any equal-key leaf of the same mask earlier in edge order
among them, and so miss the first optimal leaf whenever the seed has its key
and mask.
Within one mask the search meets leaves in lexicographic edge order: edges
are tried ascending and the mask fixes every direction, so two leaves of one
mask part where their orders first differ, and the smaller edge there comes
first. The table maps each state to the least placed mask that expanded it.
A pruned state needs no entry: the bound is a function of the state and the
incumbent only falls, so met again under a mask no smaller the state is
pruned again, and under a smaller mask the table would re-expand it anyway.
A state that comes back under a mask no smaller is skipped: the same placed
edges under equal bits differ first in an edge index, where the earlier path
had the smaller one, so each leaf below is matched by one covered before
with the same key, a mask no larger and an earlier edge order. A state that
comes back under a smaller mask is expanded again, since each of its leaves
now comes with a smaller mask, and skipping it (a plain set) can lose the
first optimal leaf.

One key: every objective is this one search, over the integer key
-weight * canceled + (max over wires of (end - deadline) when timed, else 0),
smaller is better. `cancellation` has weight 1 and no time term; `runtime`
(deadline 0) and `decoherence` (deadline the wire's coherence) have weight 0;
`smt-runtime` has deadline 0 and weight 1 << field_bits. Every gate starts
at 0 or at the end of an earlier one, so every makespan lies in [0, horizon],
the length of a fully serial schedule; deadlines and weights are not
negative, so every key is at most horizon. Packing: horizon <
1 << field_bits, so two makespans differ by less than the weight. A leaf
with more cancellations therefore has the smaller key whatever the two
makespans, and between equal counts the makespan decides: ordering by key
is ordering by (most cancellations, then shortest makespan). Bound: each
CNOT cancels at most one pair, on its target, so no leaf below a node
cancels more than canceled + 2 * unplaced Hadamards. Tighter: only a CNOT
targeting a wire sets its pending Hadamard, and one controlling it clears
it, so the next CNOT to target a wire with none pending cancels nothing.
An unplaced edge between two such wires targets one of them, and the edges
of a matching share no wire, so each edge of a matching among those edges
has its own such wire, whose next targeting CNOT is a CNOT of its own that
cancels nothing. No leaf below therefore cancels more than canceled +
2 * (unplaced - matching) Hadamards, for matching a greedy maximal matching
in edge order (a function of the state: the pending bits and the unplaced
edges are in its key). No leaf ends before the timed bound; the weight is
not negative, so -weight * (canceled + 2 * (unplaced - matching)), plus the
timed bound when timed, is at most every key below. It is exact at a leaf:
with nothing unplaced every load is 0, every pending Hadamard is owed and
the edge-start term is absent, and the cancellation term is
-weight * canceled, so the bound equals the key. The key is never
reported: solve_exact replays the leaf and reads the value off the
assignment with objective_value_of, as it does for an external solver's
model.

Time is integral: for `decoherence` the search scales coherences by the LCM
of their denominators (1 when all are integral); the replay runs in ns.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Dict, List, Optional, Tuple

from .errors import CapExceededError
from .model import (
    ModelVars,
    ObjectiveKind,
    SchedModel,
    Solution,
    objective_value_of,
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
    wire's pending Hadamard. start_of[gate id] is the start of each Hadamard
    run since start(), and a canceled one never gets one; unplace leaves it
    as is, so only the replay, which never unplaces, reads it. Times are ns
    multiplied by scale.
    """

    def __init__(self, m: SchedModel, scale: int = 1):
        self.m = m
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
        # dependent[i][j]: CNOTs i and j share a wire or a crosstalk
        # constraint, so the order they are placed in can matter.
        self.dependent = [[bool(set(a[:2]) & set(b[:2])) for b in m.cnot_info] for a in m.cnot_info]
        for a, b in m.crosstalk_pairs:
            self.partners[a].append(b)
            self.partners[b].append(a)
            self.dependent[a][b] = self.dependent[b][a] = True
        # The preps are the first pending Hadamards; local wire k is vertex k.
        self.preps: List[Optional[int]] = [m.prep_id(v) for v in range(m.graph.n)]

    def start(self, can: List[int]) -> None:
        self.can = can
        self.ready = [0] * len(self.wires)
        # pending[q]: id of the lazily scheduled Hadamard that the next
        # CNOT targeting q may cancel.
        self.pending = list(self.preps)
        self.canceled = 0
        self.cnot_end: List[Optional[int]] = [None] * self.m.num_cnots
        self.start_of: List[Optional[int]] = [None] * len(self.m.gates)

    def _run(self, gid: int, q: int) -> None:
        self.start_of[gid] = start = self.ready[q]
        self.ready[q] = start + self.sq[q]

    def place(self, i: int, d: int):
        """Schedule CNOT i in direction d with its sandwich; returns the undo tuple unplace takes."""
        c, t, dur = self.dirs[i][d]
        ready, pending = self.ready, self.pending
        undo = (c, t, ready[c], ready[t], pending[c], pending[t], self.canceled)
        if pending[t] is not None and self.can[t] >= ASSUMED:
            self.canceled += 2
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
        pending[t] = self.post[i]
        return undo

    def unplace(self, i: int, undo) -> None:
        c, t = undo[0], undo[1]
        self.ready[c], self.ready[t], self.pending[c], self.pending[t], self.canceled = undo[2:]
        self.cnot_end[i] = None


def _seed(leaf: _Leaf) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """(direction mask, edge order) of one leaf by a list schedule, left
    placed on leaf, or None when some edge has no direction at least as long
    as its target's Hadamard.

    Edges go by greedy colour class: in index order, each edge takes the
    least class that no edge dependent on it has taken, so independent edges
    come together; inside a class they go by index. Each edge takes, of its
    directions at least as long as the target's Hadamard, the one with the
    most cancellations, then a control wire with no edge left (a control
    clears the wire's pending Hadamard, which a later CNOT targeting it could
    have canceled), then the earliest CNOT end, then mask bit 0. Every CNOT
    placed can witness its target, so every wire is WITNESSED.
    """
    mc, dirs, sq, dependent = leaf.m.num_cnots, leaf.dirs, leaf.sq, leaf.dependent
    colour: List[int] = []
    for i in range(mc):
        taken = {colour[j] for j in range(i) if dependent[i][j]}
        colour.append(next(k for k in range(i + 1) if k not in taken))
    order = tuple(sorted(range(mc), key=lambda i: (colour[i], i)))
    left = [0] * len(leaf.wires)  # unplaced edges per wire
    for opts in dirs:
        for q in opts[0][:2]:
            left[q] += 1
    leaf.start([WITNESSED] * len(leaf.wires))
    mask = 0
    for i in order:
        for q in dirs[i][0][:2]:
            left[q] -= 1
        tried = []
        for d in (0, 1):
            c, t, dur = dirs[i][d]
            if dur >= sq[t]:
                undo = leaf.place(i, d)
                tried.append((-leaf.canceled, left[c] > 0, leaf.cnot_end[i], d))
                leaf.unplace(i, undo)
        if not tried:
            return None
        d = min(tried)[3]
        leaf.place(i, d)
        mask |= d << i
    return mask, order


def _search(m: SchedModel) -> Tuple[int, Tuple[int, ...]]:
    """(direction mask, edge order) of the first leaf with the least key, by
    one depth-first search from the empty schedule. Keys are "smaller is
    better" integers on the scaled time axis (module docstring)."""
    kind = m.objective.kind
    timed = kind is not ObjectiveKind.MAX_CANCELLATION
    coherence = [Fraction(m.coherence_ns[q]) for q in m.mapped_qubits]
    decoherence = kind is ObjectiveKind.MAX_REMAINING_COHERENCE
    scale = lcm(*(c.denominator for c in coherence)) if decoherence else 1
    leaf = _Leaf(m, scale)
    mc, nq = m.num_cnots, len(leaf.wires)
    dirs, sq = leaf.dirs, leaf.sq
    # A wire's time term is its end less its deadline: 0, or the scaled
    # coherence (so the term is minus the remaining coherence).
    deadline = [(c * scale).numerator if decoherence else 0 for c in coherence]
    # after[j]: edges that may follow edge j by the commutation rule: a
    # lower index only if it depends on j. after[mc] is the root's "every
    # edge".
    after = [sum(1 << i for i in range(mc) if i > j or leaf.dependent[i][j]) for j in range(mc)]
    after.append((1 << mc) - 1)
    # bits[s]: the edges in set s, ascending; doubled once per edge, since
    # the sets holding edge k are those below it plus k.
    bits = [()]
    for k in range(mc):
        bits += [edges + (k,) for edges in bits]
    horizon = sum(max(d[2] for d in opts) for opts in dirs)
    horizon += (m.graph.n + 2 * mc) * max(sq, default=0)
    fb = horizon.bit_length() + 3
    low_bits = (2 * mc + m.graph.n).bit_length() + 2 * mc
    weight = {ObjectiveKind.MAX_CANCELLATION: 1, ObjectiveKind.SMT_RUNTIME: 1 << fb}.get(kind, 0)
    options = [(0, 1) if opts[0][2] <= opts[1][2] else (1, 0) for opts in dirs]
    # Per edge: its wires and its shorter duration.
    wires_of = [opts[0][:2] for opts in dirs]
    edge_load = [min(opts[0][2], opts[1][2]) for opts in dirs]
    # Per wire: CNOT time owed, and edges with a direction long enough to
    # witness it.
    load, witnesses = [0] * nq, [0] * nq
    for i in range(mc):
        for q in wires_of[i]:
            load[q] += edge_load[i]
        for _, t, dur in dirs[i]:
            if dur >= sq[t]:
                witnesses[t] |= 1 << i
    # Key field per wire: ready << 3 | pending bit << 2 | state, in fb bits
    # wide enough for a fully serial schedule; untimed, the ready time and
    # the crosstalk ends are left out, as nothing reads them.
    fw = fb if timed else 3
    shift = [fw * q + low_bits for q in range(nq)]
    top = fw * nq + low_bits
    # Per edge: the pending bits of its two wires, and the key with both
    # wires' fields cleared.
    pending_bits = [(4 << shift[a]) | (4 << shift[b]) for a, b in wires_of]
    field_mask = (1 << fw) - 1
    clear = [((1 << top) - 1) ^ (field_mask << shift[a]) ^ (field_mask << shift[b]) for a, b in wires_of]
    partners = leaf.partners
    xt_edges = [i for i in range(mc) if partners[i]] if timed else []
    partner_mask = [sum(1 << j for j in partners[i]) for i in range(mc)]
    # The edge-start term (module docstring) prunes enough to pay for itself
    # only under a coherence deadline or with crosstalk ends to wait for.
    edge_start = timed and (decoherence or bool(xt_edges))
    seen: Dict[int, int] = {}  # state -> least placed mask that expanded it
    placed: List[int] = []
    # The incumbent's folded key (module docstring), above every leaf's.
    best = (horizon + 1) << mc
    best_perm: Optional[Tuple[int, ...]] = None

    def owing(loads: List[int]) -> List[int]:
        # Per wire: its least remaining time, loads[q] of unplaced CNOTs and
        # one Hadamard while one is pending (module docstring), less its
        # deadline. dfs keeps it as owed, current for every wire whenever
        # dfs is entered (each step sets its edge's two wires and restores
        # them after), as the bound at a leaf needs.
        return [l - dl + (s if p is not None else 0) for l, dl, s, p in zip(loads, deadline, sq, leaf.pending)]

    def dfs(unplaced: int, allowed: int, wires_key: int, mask: int) -> None:
        nonlocal best, best_perm
        wire = lb = max(map(add, leaf.ready, owed)) if timed else 0
        if weight:
            # A greedy matching among unplaced edges with no pending
            # Hadamard on either wire counts CNOTs that cancel nothing.
            lost, taken = 0, wires_key
            for i in bits[unplaced]:
                if not taken & pending_bits[i]:
                    taken |= pending_bits[i]
                    lost += 1
            lb -= weight * (leaf.canceled + 2 * (unplaced.bit_count() - lost))
        # Every leaf below extends the placed mask; at a leaf lb is its key.
        lb = (lb << mc) + mask
        if lb >= best:
            return
        if not unplaced:
            best, best_perm = lb, tuple(placed)
            return
        if edge_start:
            # first[q]: the earliest any unplaced CNOT on q can start; every
            # start is at most horizon, so horizon + 1 marks a wire with none.
            first = [horizon + 1] * nq
            for i in bits[unplaced]:
                a, b = wires_of[i]
                start = ready[a] if ready[a] > ready[b] else ready[b]
                for j in partners[i]:
                    end_j = cnot_end[j]
                    if end_j is not None and end_j > start:
                        start = end_j
                if start < first[a]:
                    first[a] = start
                if start < first[b]:
                    first[b] = start
            term = max([f + l - dl for f, l, dl in zip(first, load, deadline) if f <= horizon])
            if term > wire and lb + ((term - wire) << mc) >= best:
                return
        state = wires_key | (((leaf.canceled << mc) | unplaced) << mc) | allowed
        # Ends still owed to crosstalk partners; unplaced fixes which.
        pos = top
        for i in xt_edges:
            if cnot_end[i] is not None and partner_mask[i] & unplaced:
                state |= cnot_end[i] << pos
                pos += fb
        if seen.get(state, mask + 1) <= mask:
            return  # expanded before under a mask no larger
        seen[state] = mask
        for i in bits[allowed]:
            rest = unplaced & ~(1 << i)
            a, b = wires_of[i]
            el = edge_load[i]
            load[a] -= el
            load[b] -= el
            owed_a, owed_b = owed[a], owed[b]
            base = wires_key & clear[i]
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
                for state_t in states:
                    can[t] = state_t
                    if (state_t == ASSUMED and not witnesses[t] & rest) or (
                        can[c] == ASSUMED and not witnesses[c] & rest
                    ):
                        continue  # no unplaced edge can witness the assumption
                    undo = leaf.place(i, d)
                    # Both wires now end with the CNOT; c has no pending
                    # Hadamard and t has its POST.
                    end = ready[t] << 3 if timed else 0
                    owed[c] = load[c] - deadline[c]
                    owed[t] = load[t] - deadline[t] + sq[t]
                    key = base | (end | can[c]) << shift[c] | (end | 4 | state_t) << shift[t]
                    dfs(rest, rest & after[i], key, mask | d << i)
                    leaf.unplace(i, undo)
                can[t] = prev
            placed.pop()
            load[a] += el
            load[b] += el
            owed[a], owed[b] = owed_a, owed_b

    # The seed's leaf, still placed, is scored by dfs like any leaf; the
    # incumbent starts one above its folded key (module docstring).
    seed = _seed(leaf)
    if seed is not None:
        owed = owing([0] * nq)
        dfs(0, 0, 0, seed[0])
        best, best_perm = best + 1, None
    # The search's own empty schedule, whose lists dfs's steps read.
    leaf.start([UNDECIDED] * nq)
    ready, pending, can, cnot_end = leaf.ready, leaf.pending, leaf.can, leaf.cnot_end
    owed = owing(load)
    dfs((1 << mc) - 1, after[mc], sum((pending[q] is not None) << 2 << shift[q] for q in range(nq)), 0)
    # dfs holds itself through its closure; unbinding it frees the table on
    # return instead of at the next full garbage collection.
    del dfs
    assert best_perm is not None, "every preset is above some leaf's folded key"
    return best & ((1 << mc) - 1), best_perm


def _vars_from_leaf(m: SchedModel, mask: int, perm: Tuple[int, ...]) -> ModelVars:
    """Replay one (direction mask, edge order) leaf into a full assignment."""
    leaf = _Leaf(m)
    # Per wire, (duration, index) of the longest CNOT targeting it under
    # mask, lowest index on ties: a Hadamard there cancels only if it fits
    # inside that CNOT, which is also where a canceled Hadamard's
    # containment witness sits.
    longest: Dict[int, Tuple[int, int]] = {}
    for i, opts in enumerate(leaf.dirs):
        _, t, dur = opts[(mask >> i) & 1]
        if t not in longest or dur > longest[t][0]:
            longest[t] = (dur, i)
    leaf.start([WITNESSED if q in longest and sq <= longest[q][0] else NEVER for q, sq in enumerate(leaf.sq)])
    for i in perm:
        leaf.place(i, (mask >> i) & 1)
    for q, gid in enumerate(leaf.pending):
        if gid is not None:
            leaf._run(gid, q)
    c_bits = {i: bool((mask >> i) & 1) for i in range(m.num_cnots)}
    s_map: Dict[int, Fraction] = {}
    t_map: Dict[int, Fraction] = {}
    b_map: Dict[int, bool] = {}

    for gate in m.gates:
        gid = gate.id
        if gate.kind == "cnot":
            end = leaf.cnot_end[gid]
            s_map[gid], t_map[gid] = Fraction(end - leaf.dirs[gid][c_bits[gid]][2]), Fraction(end)
            continue
        (q,) = resolved_wires(m, gate, c_bits)
        start = leaf.start_of[gid]
        b_map[gid] = start is None
        if start is None:
            # Ghost window of a canceled Hadamard: at the start of its
            # wire's longest targeting CNOT, the containment witness.
            dur, j = longest[leaf.index[q]]
            start = leaf.cnot_end[j] - dur
        s_map[gid], t_map[gid] = Fraction(start), Fraction(start + m.sq_dur[q])
    return ModelVars(C=c_bits, S=s_map, T=t_map, B=b_map)


def solve_exact(m: SchedModel) -> Solution:
    """Provably optimal solution by exhaustive branch-and-bound."""
    if m.num_cnots > DEFAULT_EXACT_CAP:
        raise CapExceededError(
            f"{m.num_cnots} CNOTs exceeds the exact-search cap of {DEFAULT_EXACT_CAP}; "
            "use 'gscompile emit-smt' with an external solver"
        )
    vars = _vars_from_leaf(m, *_search(m))
    return Solution(vars=vars, objective_value=objective_value_of(m, vars), proven_optimal=True)
