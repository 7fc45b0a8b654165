"""Subgraph-isomorphism search (VF2-style vertex ordering; Cordella et al.,
IEEE TPAMI 26(10), 2004).

Finds injective mappings of a connected pattern graph into a host graph such
that every pattern edge lands on a host edge (non-induced embedding). One
`SearchPlan` holds the pattern order (BFS from vertex 0) and the candidate
rule for every search: `embeddings_iter` tries candidates in ascending index
order, so callers can rely on a stable enumeration sequence, and
`placement.best_placement` tries them best bound first and prunes by that
bound, keeping the exhaustive tie rule.
"""

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple


def bfs_order(n: int, adj: Dict[int, FrozenSet[int]]) -> List[int]:
    """BFS vertex order from vertex 0: all n vertices exactly when the graph
    is connected, which is how `GraphSpec` checks connectivity."""
    order = [0]
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    return order


def adjacency(n: int, edges: Iterable[Tuple[int, int]]) -> Dict[int, FrozenSet[int]]:
    adj: Dict[int, set] = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return {v: frozenset(nb) for v, nb in adj.items()}


class SearchPlan:
    """Step i maps pattern vertex order[i]; back[i] are its earlier-mapped
    neighbours, and `candidates` is the one rule for the hosts it may take."""

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]], host_adj: Dict[int, FrozenSet[int]]):
        pattern_adj = adjacency(n, edges)
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


def embeddings_iter(
    n: int,
    edges: Iterable[Tuple[int, int]],
    host_adj: Dict[int, FrozenSet[int]],
) -> Iterator[Tuple[int, ...]]:
    """Yield every embedding of the pattern into the host exactly once.

    An embedding is a tuple m of length n with m[v] the host vertex assigned
    to pattern vertex v. Pattern edges must map onto host edges; extra host
    edges between mapped vertices are allowed.
    """
    if n == 0:
        return
    plan = SearchPlan(n, edges, host_adj)
    mapping = [-1] * n
    used: Set[int] = set()

    def extend(i: int) -> Iterator[Tuple[int, ...]]:
        if i == n:
            yield tuple(mapping)
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
        # extend holds itself through its closure; unbinding it frees the
        # search on return (or on close) instead of at the next full
        # garbage collection.
        del extend
