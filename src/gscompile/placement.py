"""Placement: embed the target graph into the device and score candidates.

The score is the product of gate fidelities touched by the embedding: one
(1 - error) factor per mapped coupler and one per mapped qubit's single-qubit
gate. Coherence and readout quality deliberately do not enter here; they are
handled by the scheduler's objectives and the noise model.

An embedding maps the pattern's vertices injectively onto qubits, every
edge onto a coupler; extra couplers between mapped qubits are allowed
(non-induced). One `SearchPlan` holds the pattern order (BFS from vertex 0,
VF2-style; Cordella et al., IEEE TPAMI 26(10), 2004) and the candidate rule.
`enumerate_embeddings` tries candidates in ascending order, a stable sequence.

`best_placement` is a branch and bound over the same search tree, with
a bound read off the pattern's BFS tree: a step's tree parent is its
earliest-mapped back neighbour. Before the search, one pass from the last
step to the first fills, for each non-root step c and each host b of c's
parent, the best and second-best value over the hosts x next to b with at
least c's pattern degree. The value at x is coupler_f[b, x] * qubit_f[x]
times each child's entry at x, where a child whose best host is b takes its
second best. An entry is thus the best score of c's subtree over the
non-backtracking homomorphisms of the tree: walks that never put a vertex on
its grandparent's host. Every embedding is one of those (it is injective),
and the non-tree edges it drops only remove factors of at most 1, so a
partial embedding's `partial` (the factors of its mapped qubits and of the
couplers with both ends mapped) times the entries of the unmapped steps
whose parent is mapped bounds every completion. Options run in descending
bound order, and a subtree is dropped when its bound times (1 + 1e-9) is
strictly below the incumbent's score.

The bound is exact for a path of at most g vertices on a device of girth g
(12 for heavy-hex): such a walk cannot close a cycle, so it is a simple
path. It is loose for branching trees, whose siblings may share a host in
the relaxation, and for cycles, whose closing edge it leaves out (`ring:12`
on heavy-hex still meets many dead ends).

Every factor lies in [0, 1], and a bound is a float product of at most one
factor per pattern vertex and tree edge (taking a maximum adds no rounding),
so any ordering of it stays within about k * 2**-53 relative of the exact
product of its k factors, as long as it stays a normal float (above
2**-1022, far below any device's score). The same holds for a leaf's score.
A dropped leaf therefore can neither beat nor tie the incumbent, and since
the comparison is strict, a zero bound never drops leaves that tie a zero
incumbent. Leaves are scored by the unchanged `score_embedding` under the
unchanged tie rule (the higher score, then the smaller mapping tuple), so
the result is the exhaustive maximum, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from .device import DeviceCalibration, topology_graph
from .errors import NotNativeError
from .graphs import GraphSpec, adjacency, bfs_order

_SLACK = 1.0 + 1e-9  # covers float rounding in products of up to ~10**6 factors


@dataclass(frozen=True)
class Embedding:
    """Injective vertex -> physical qubit assignment with its fidelity score."""

    mapping: Tuple[int, ...]
    score: float


class SearchPlan:
    """Step i maps pattern vertex order[i]; back[i] are its earlier-mapped
    neighbours, and `candidates` is the one rule for the hosts it may take."""

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]], host_adj: Dict[int, FrozenSet[int]]):
        pattern_adj = adjacency(range(n), edges)
        self.order = bfs_order(n, pattern_adj)
        step = {v: i for i, v in enumerate(self.order)}
        self.back = [sorted(w for w in pattern_adj[v] if step[w] < step[v]) for v in self.order]
        self.degree = [len(pattern_adj[v]) for v in self.order]
        self.host_adj = host_adj
        self.hosts = sorted(host_adj)
        self.host_nbrs = {h: sorted(nb) for h, nb in host_adj.items()}

    def candidates(self, i: int, mapping: Sequence[int], used: Set[int]) -> List[int]:
        """Host vertices step i may take, ascending; mapping[v] is v's host."""
        back = self.back[i]
        pool = self.host_nbrs[mapping[back[0]]] if back else self.hosts
        for w in back[1:]:
            pool = [h for h in pool if h in self.host_adj[mapping[w]]]
        return [h for h in pool if h not in used and len(self.host_adj[h]) >= self.degree[i]]


def enumerate_embeddings(g: GraphSpec, cal: DeviceCalibration) -> Iterator[Embedding]:
    """Yield every embedding of g exactly once (score left at 0); mapping[v] is v's qubit."""
    n = g.n
    plan = SearchPlan(n, g.edges, topology_graph(cal))
    mapping = [-1] * n
    used: Set[int] = set()

    def extend(i: int) -> Iterator[Embedding]:
        if i == n:
            yield Embedding(tuple(mapping), 0.0)
            return
        v = plan.order[i]
        for h in plan.candidates(i, mapping, used):
            mapping[v] = h
            used.add(h)
            yield from extend(i + 1)
            used.discard(h)

    try:
        yield from extend(0)
    finally:
        # extend holds itself through its closure; unbinding it frees the search
        # on return (or close) instead of at the next full garbage collection.
        del extend


def score_embedding(e: Embedding, g: GraphSpec, cal: DeviceCalibration) -> float:
    """Fidelity product over mapped couplers and mapped qubits' 1q gates."""
    score = 1.0
    for a, b in g.sorted_edges():
        score *= 1.0 - cal.coupler(e.mapping[a], e.mapping[b]).error
    for v in range(g.n):
        score *= 1.0 - cal.qubit(e.mapping[v]).sq_error
    return score


def _not_native(n: int, cal: DeviceCalibration) -> NotNativeError:
    return NotNativeError(f"graph with {n} vertices is not native to device '{cal.snapshot_label}'")


def check_size(n: int, cal: DeviceCalibration) -> None:
    """Refuse a graph with more vertices than the device has qubits, before
    anything is built for it."""
    if n > len(cal.qubits):
        raise _not_native(n, cal)


def _entry(rows: dict, b: int, avoid: int) -> float:
    """A step's bound with its parent on host b, off host ``avoid``."""
    best, host, second = rows[b]
    return second if host == avoid else best


def _subtree_bounds(plan: SearchPlan, parent, kids, qubit_f, coupler_f) -> list:
    """table[c][b] = (best, its host, second best) over the hosts x next to b
    that step c may take, of coupler_f[b, x] * qubit_f[x] times each child's
    entry at x off host b: a bound on c's subtree when c's parent is on b.
    Steps with equal subtree shapes (degrees included) share one table."""
    links = {
        b: [(x, coupler_f[b, x] * qubit_f[x], len(plan.host_adj[x])) for x in nbrs]
        for b, nbrs in plan.host_nbrs.items()
    }
    tables: dict = {}
    shape: list = [None] * len(parent)
    for c in reversed(range(1, len(parent))):
        shape[c] = (plan.degree[c], tuple(sorted(shape[d] for d in kids[c])))
        if shape[c] in tables:
            continue
        need, below = plan.degree[c], [tables[shape[d]] for d in kids[c]]
        rows = tables[shape[c]] = {}
        for b, out in links.items():
            top = second = 0.0
            arg = -1
            for x, f, deg in out:
                if deg < need:
                    continue
                for sub in below:
                    t, a, u = sub[x]
                    f *= u if a == b else t
                if f > top:
                    top, arg, second = f, x, top
                elif f > second:
                    second = f
            rows[b] = (top, arg, second)
    return [tables.get(s) for s in shape]


def best_placement(g: GraphSpec, cal: DeviceCalibration) -> Embedding:
    """Globally best-scoring embedding; ties break on the smaller mapping tuple."""
    check_size(g.n, cal)
    n = g.n
    plan = SearchPlan(n, g.edges, topology_graph(cal))
    qubit_f = {q.index: 1.0 - q.sq_error for q in cal.qubits}
    coupler_f = {p: 1.0 - c.error for c in cal.couplers for p in ((c.a, c.b), (c.b, c.a))}
    step = {v: i for i, v in enumerate(plan.order)}
    parent = [min(step[w] for w in back) if back else -1 for back in plan.back]
    kids = [[d for d in range(n) if parent[d] == c] for c in range(n)]
    # Steps after i whose parent is mapped before step i: their subtrees are
    # bounded by their entries, step i's children by theirs at its option.
    frontier = [[d for d in range(i + 1, n) if parent[d] < i] for i in range(n)]
    table = _subtree_bounds(plan, parent, kids, qubit_f, coupler_f)
    mapping = [-1] * n
    at = [-1] * (n + 1)  # at[s] is step s's host; at[-1] stays -1, the root's parent's
    used = set()
    best: Embedding | None = None

    def extend(i: int, partial: float) -> None:
        nonlocal best
        if i == n:
            leaf = tuple(mapping)
            score = score_embedding(Embedding(leaf, 0.0), g, cal)
            if best is None or score > best.score or (score == best.score and leaf < best.mapping):
                best = Embedding(leaf, score)
            return
        v, back, avoid = plan.order[i], plan.back[i], at[parent[i]]
        rest = partial
        for d in frontier[i]:
            rest *= _entry(table[d], at[parent[d]], at[parent[parent[d]]])
        options = []
        for h in plan.candidates(i, mapping, used):
            f = qubit_f[h]
            for w in back:
                f *= coupler_f[h, mapping[w]]
            bound = rest * f
            for d in kids[i]:
                bound *= _entry(table[d], h, avoid)
            options.append((-bound, h, f))
        for neg_bound, h, f in sorted(options):
            if best is not None and -neg_bound * _SLACK < best.score:
                break  # options run in descending bound order: later bounds are no higher
            mapping[v] = at[i] = h
            used.add(h)
            extend(i + 1, partial * f)
            used.discard(h)

    extend(0, 1.0)
    del extend  # unbinds its self-reference, as in enumerate_embeddings
    if best is None:
        raise _not_native(n, cal)
    return best
