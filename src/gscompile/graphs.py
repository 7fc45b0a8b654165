"""Target graph states: graph definition and stabilizers.

A graph state over G=(V,E) is stabilized by one generator per vertex: X on
the vertex, Z on each of its neighbors. The full stabilizer group (all 2^n
subset products) is what the fidelity estimation protocol measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .errors import CapExceededError, ValidationError
from .subiso import adjacency, bfs_order

STABILIZER_GROUP_CAP = 12

_PAULI_CHARS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


@dataclass(frozen=True)
class PauliString:
    """n-qubit Pauli operator as X/Z bit masks plus a +-1 sign.

    Bit i of each mask addresses qubit i; a Y is an overlapping X and Z bit.
    """

    n: int
    x_mask: int
    z_mask: int
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValidationError(f"sign must be +1 or -1, got {self.sign}")
        if self.x_mask >> self.n or self.z_mask >> self.n:
            raise ValidationError("mask has bits beyond qubit count")

    @property
    def label(self) -> str:
        chars = "".join(
            _PAULI_CHARS[((self.x_mask >> i) & 1, (self.z_mask >> i) & 1)]
            for i in range(self.n)
        )
        return ("+" if self.sign > 0 else "-") + chars

    def support(self) -> int:
        return self.x_mask | self.z_mask


def mul_phase(x1: int, z1: int, x2: int, z2: int) -> int:
    """Power of i in the product of the unsigned Paulis with masks (x1, z1)
    and (x2, z2), in that order: the one Pauli product rule of the package.
    The unsigned Pauli with masks (x, z) is i^|x & z| X^x Z^z (Y = iXZ on
    each qubit), and moving Z^z1 past X^x2 gives (-1)^|z1 & x2|, so the
    product is i^(|x1 & z1| + |x2 & z2| + 2 |z1 & x2| - |x & z|) times the
    unsigned Pauli with masks x = x1 ^ x2, z = z1 ^ z2. The result is not
    reduced mod 4."""
    return (
        (x1 & z1).bit_count() + (x2 & z2).bit_count() + 2 * (z1 & x2).bit_count()
        - ((x1 ^ x2) & (z1 ^ z2)).bit_count()
    )


@dataclass(frozen=True)
class GraphSpec:
    """Simple connected undirected graph over vertices 0..n-1."""

    n: int
    edges: FrozenSet[Tuple[int, int]]

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"graph needs at least 2 vertices, got {self.n}")
        for a, b in self.edges:
            if a == b:
                raise ValidationError(f"self-loop at vertex {a}")
            if not (0 <= a < b < self.n):
                raise ValidationError(f"edge ({a},{b}) not canonical within 0..{self.n - 1}")
        # n - 1 edges at least: a huge n fails before an n-entry adjacency is built.
        if self.n > len(self.edges) + 1 or len(bfs_order(self.n, self.adjacency())) < self.n:
            raise ValidationError("graph must be connected")

    def adjacency(self) -> Dict[int, FrozenSet[int]]:
        return adjacency(self.n, self.edges)

    def sorted_edges(self) -> List[Tuple[int, int]]:
        return sorted(self.edges)


def graph_from_edges(n: int, edges: Iterable[Tuple[int, int]]) -> GraphSpec:
    canon = frozenset((min(a, b), max(a, b)) for a, b in edges)
    return GraphSpec(n, canon)


def linear_graph(n: int) -> GraphSpec:
    """Path graph 0-1-...-(n-1); needs n >= 2."""
    if n < 2:
        raise ValidationError(f"linear graph needs n >= 2, got {n}")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def ring_graph(n: int) -> GraphSpec:
    if n < 3:
        raise ValidationError(f"ring graph needs n >= 3, got {n}")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> GraphSpec:
    """Star with center 0 and n-1 leaves."""
    if n < 2:
        raise ValidationError(f"star graph needs n >= 2, got {n}")
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


def fig1_seven() -> GraphSpec:
    """Seven-vertex 'rotated H' tree: hubs 1 and 5 (degree 3), bridge 3.

    Degree sequence (3,3,2,1,1,1,1): vertices 0,2 hang off hub 1; vertices
    4,6 hang off hub 5; vertex 3 bridges the hubs.
    """
    return graph_from_edges(7, [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)])


def _parse_builtin(name: str):
    """(factory, vertex count) of a builtin graph name; nothing is built yet."""
    if name == "fig1-seven":
        return lambda n: fig1_seven(), 7
    if ":" in name:
        kind, _, arg = name.partition(":")
        try:
            n = int(arg)
        except ValueError:
            raise ValidationError(f"bad graph size in {name!r}")
        factory = {"linear": linear_graph, "ring": ring_graph, "star": star_graph}.get(kind)
        if factory is not None:
            return factory, n
    raise ValidationError(f"unknown builtin graph {name!r}")


def builtin_size(name: str) -> int:
    """Vertex count of a builtin graph name, without building its edges."""
    return _parse_builtin(name)[1]


def builtin_graph(name: str) -> GraphSpec:
    """Resolve a builtin graph name: linear:<n>, ring:<n>, star:<n>, fig1-seven."""
    factory, n = _parse_builtin(name)
    return factory(n)


def load_graph(path) -> GraphSpec:
    """Load a graph file: UTF-8 JSON {"n": int, "edges": [[a, b], ...]}."""
    data = _read_json(path, "graph")
    _require_keys(data, ("n", "edges"), "graph file")
    n, edges = data["n"], data["edges"]
    if not _is_int(n):
        raise ValidationError(f"graph file: n must be an integer, got {n!r}")
    if not isinstance(edges, list):
        raise ValidationError("graph file: edges must be a list of vertex pairs")
    seen: Dict[Tuple[int, int], int] = {}  # canonical edge -> position of its first record
    for k, e in enumerate(edges):
        where = f"graph file: edges[{k}]"
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)):
            raise ValidationError(f"{where} must be a pair of integer vertices, got {e!r}")
        for x in e:
            if not 0 <= x < n:
                raise ValidationError(f"{where} has vertex {x} outside 0..{n - 1}")
        if e[0] == e[1]:
            raise ValidationError(f"{where} is a self-loop at vertex {e[0]}")
        j = seen.setdefault((min(e), max(e)), k)
        if j != k:
            raise ValidationError(f"{where} duplicates edges[{j}]")
    return GraphSpec(n, frozenset(seen))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require_keys(obj, keys, where: str) -> None:
    """An input object has exactly the keys `keys`; a fault names the value
    that is not an object, else the unknown keys, else the missing ones."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object, got {type(obj).__name__}")
    extra = set(obj) - set(keys)
    if extra:
        raise ValidationError(f"{where}: unknown keys {sorted(extra)}")
    missing = set(keys) - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing keys {sorted(missing)}")


def _read_json(path, what: str):
    """Parse a UTF-8 JSON input file. Bytes that are not UTF-8, malformed JSON,
    integers longer than Python converts from text and nesting too deep to
    parse raise ValidationError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError covers the decode errors
        raise ValidationError(f"malformed {what} file {path}: {exc}") from exc


def stabilizer_generators(g: GraphSpec) -> List[PauliString]:
    """One generator per vertex: X there, Z on every neighbor, sign +1."""
    adj = g.adjacency()
    gens = []
    for v in range(g.n):
        z = 0
        for w in adj[v]:
            z |= 1 << w
        gens.append(PauliString(g.n, 1 << v, z, 1))
    return gens


def stabilizer_group(g: GraphSpec) -> List[PauliString]:
    """All 2^n subset products of the generators, identity first.

    Element k is the product of generators selected by the bits of k, so the
    ordering is deterministic.
    """
    if g.n > STABILIZER_GROUP_CAP:
        raise CapExceededError(
            f"stabilizer group for n={g.n} exceeds cap {STABILIZER_GROUP_CAP}; "
            f"fidelity estimation needs at most {STABILIZER_GROUP_CAP} qubits"
        )
    group = group_products([(gen.x_mask, gen.z_mask, 0) for gen in stabilizer_generators(g)])
    return [PauliString(g.n, x, z, -1 if s else 1) for x, z, s in group]


def group_products(rows: Sequence[Tuple[int, int, int]]) -> List[Tuple[int, int, int]]:
    """All 2^len(rows) subset products of commuting signed Paulis, each given
    and returned as (x mask, z mask, sign bit); product k takes the rows
    selected by the bits of k, so the identity comes first. The rows
    commute, so each product's power of i is even and only its half flips
    the sign."""
    group = [(0, 0, 0)]
    for gx, gz, gs in rows:
        group += [(x ^ gx, z ^ gz, (s + gs + (mul_phase(x, z, gx, gz) >> 1)) & 1) for x, z, s in group]
    return group
