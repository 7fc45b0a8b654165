"""Independent brute-force optimizer used to certify the exact solver.

Enumerates every direction assignment and every edge permutation outright (no
pruning, no symmetry reduction, no bounds) and scores each leaf with a
straightforward as-soon-as-possible schedule after greedy pair cancellation.
Kept deliberately free of the branch-and-bound machinery so the two backends
can only agree by computing the same optima.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from .errors import CapExceededError
from .model import ObjectiveKind, SchedModel, Solution
from .solver import _vars_from_leaf

ORACLE_CAP = 6

_KINDS = (
    ObjectiveKind.MAX_CANCELLATION,
    ObjectiveKind.MIN_MAKESPAN,
    ObjectiveKind.MAX_REMAINING_COHERENCE,
    ObjectiveKind.SMT_RUNTIME,
)


def oracle_sweep(m: SchedModel) -> Dict[ObjectiveKind, Tuple[object, int, Tuple[int, ...]]]:
    """Exhaustively find (optimal value, direction mask, edge order) per objective."""
    if m.num_cnots > ORACLE_CAP:
        raise CapExceededError(
            f"oracle refuses {m.num_cnots} CNOTs (cap {ORACLE_CAP}); use 'gscompile compile' for the exact optimum"
        )
    mc = m.num_cnots
    qubits = m.mapped_qubits
    sq = m.sq_dur
    coh = m.coherence_ns
    prep_wires = [m.prep_wire(v) for v in range(m.graph.n)]
    xtalk = m.crosstalk_pairs

    best: Dict[ObjectiveKind, Optional[Tuple[object, int, Tuple[int, ...]]]] = {
        k: None for k in _KINDS
    }

    def offer(canceled: int, makespan: int, wire_end: Dict[int, int], mask: int, perm: Tuple[int, ...]):
        m_rem = min(coh[q] - wire_end[q] for q in qubits)
        for kind, value, better in (
            (ObjectiveKind.MAX_CANCELLATION, canceled, lambda new, old: new > old),
            (ObjectiveKind.MIN_MAKESPAN, Fraction(makespan), lambda new, old: new < old),
            (ObjectiveKind.MAX_REMAINING_COHERENCE, m_rem, lambda new, old: new > old),
            (
                ObjectiveKind.SMT_RUNTIME,
                (canceled, Fraction(makespan)),
                lambda new, old: (new[0], -new[1]) > (old[0], -old[1]),
            ),
        ):
            cur = best[kind]
            if cur is None or better(value, cur[0]):
                best[kind] = (value, mask, perm)

    for mask in range(1 << mc):
        control, target, dur = [], [], []
        for i, (pa, pb, dab, dba) in enumerate(m.cnot_info):
            if (mask >> i) & 1:
                control.append(pa), target.append(pb), dur.append(dab)
            else:
                control.append(pb), target.append(pa), dur.append(dba)
        max_tdur = {q: 0 for q in qubits}
        for i in range(mc):
            if dur[i] > max_tdur[target[i]]:
                max_tdur[target[i]] = dur[i]
        can = {q: sq[q] <= max_tdur[q] for q in qubits}

        ready = {q: 0 for q in qubits}
        # Last Hadamard on a wire that the next targeting CNOT could absorb:
        # "prep" right after reset, "post" right after a targeting CNOT.
        tail = {q: "prep" for q in prep_wires}
        ends: Dict[int, int] = {}
        used = [False] * mc

        def recurse(depth: int, canceled: int, perm: list) -> None:
            if depth == mc:
                wire_end = {}
                mk = 0
                for q in qubits:
                    e = ready[q] + (sq[q] if tail.get(q) == "post" else 0)
                    wire_end[q] = e
                    if e > mk:
                        mk = e
                offer(canceled, mk, wire_end, mask, tuple(perm))
                return
            for i in range(mc):
                if used[i]:
                    continue
                used[i] = True
                c, t, d = control[i], target[i], dur[i]
                save = (ready[c], ready[t], tail.get(c), tail.get(t))
                extra = 0
                if tail.get(t) is not None and can[t]:
                    tail[t] = None
                    extra = 2
                else:
                    if tail.get(t) is not None:
                        tail[t] = None
                        ready[t] += sq[t]  # flush the pending prep/post Hadamard
                    ready[t] += sq[t]  # the sandwich PRE
                if tail.get(c) is not None:
                    tail[c] = None
                    ready[c] += sq[c]
                start = ready[c] if ready[c] > ready[t] else ready[t]
                for a, b in xtalk:
                    o = b if a == i else (a if b == i else None)
                    if o is not None and o in ends and ends[o] > start:
                        start = ends[o]
                end = start + d
                ready[c] = ready[t] = end
                ends[i] = end
                tail[t] = "post"
                perm.append(i)

                recurse(depth + 1, canceled + extra, perm)

                perm.pop()
                del ends[i]
                ready[c], ready[t] = save[0], save[1]
                tail[c], tail[t] = save[2], save[3]
                used[i] = False

        recurse(0, 0, [])

    return {k: v for k, v in best.items() if v is not None}


def oracle_search(m: SchedModel) -> Solution:
    """True optimum for the model's objective by exhaustive enumeration."""
    value, mask, perm = oracle_sweep(m)[m.objective.kind]
    vars = _vars_from_leaf(m, mask, perm)
    return Solution(vars=vars, objective_value=value, proven_optimal=True)
