"""Seeded inputs for the benchmark: calibrations, graphs and instance lists.

Everything here is derived from the workload seed alone, so the same seed
gives the same inputs. Each workload has a fixed skeleton of slots (graph
family, size, objective, shots); the seed only chooses the random native
subgraphs, the synthetic device's numbers and the Monte Carlo seeds. Keeping
sizes and objectives fixed per slot keeps the cost of a workload nearly the
same from seed to seed, which the run-to-run spread depends on.

Random subgraphs are grown vertex by vertex on the coupling map and keep every
induced edge, so they are always native to the device they were grown on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

# Heavy-hex layout of the synthetic large device: ROWS rows of ROW_LEN qubits,
# joined by bridge qubits every 4 columns, alternating the column offset from
# one row gap to the next (7 * 15 + 6 * 4 = 129 qubits).
ROWS = 7
ROW_LEN = 15
BRIDGE_COLUMNS = ((0, 4, 8, 12), (2, 6, 10, 14))
# The large device is one fixed snapshot, as a real device is between
# calibrations: its numbers come from this seed, not the workload seed. With
# per-seed numbers the decoherence solves alone varied by a factor of two from
# seed to seed, more than the run-to-run bound.
DEVICE_SEED = 129
CANDIDATES = 6  # random subgraphs drawn per large-device slot


@dataclass(frozen=True)
class Instance:
    """One benchmark input: a graph plus how the workload runs it."""

    name: str
    n: int
    edges: Tuple[Tuple[int, int], ...]
    objective: str
    why: str
    shots: int = 0
    mc_seed: int = 0
    circuit: str = ""  # fidelity workload: "compiled" or "naive"


def heavy_hex_129(seed: int = DEVICE_SEED) -> dict:
    """Calibration JSON of a 129-qubit heavy-hex device.

    Coherence times are one-decimal microsecond values, as in real snapshots;
    CNOT durations differ by direction.
    """
    rng = random.Random(f"heavy-hex-129/{seed}")
    n_row = ROWS * ROW_LEN
    edges = []
    for r in range(ROWS):
        for c in range(ROW_LEN - 1):
            edges.append((r * ROW_LEN + c, r * ROW_LEN + c + 1))
    bridge = n_row
    for gap in range(ROWS - 1):
        for c in BRIDGE_COLUMNS[gap % 2]:
            edges.append((gap * ROW_LEN + c, bridge))
            edges.append((bridge, (gap + 1) * ROW_LEN + c))
            bridge += 1
    qubits = [
        {
            "index": q,
            "coherence_time_us": round(rng.uniform(60.0, 320.0), 1),
            "readout_p01": round(rng.uniform(0.005, 0.04), 4),
            "readout_p10": round(rng.uniform(0.005, 0.06), 4),
            "sq_duration_ns": rng.choice((32, 35, 36, 40)),
            "sq_error": round(rng.uniform(0.0002, 0.0012), 5),
        }
        for q in range(bridge)
    ]
    couplers = []
    for a, b in edges:
        base = rng.randint(200, 560)
        couplers.append(
            {
                "a": a,
                "b": b,
                "duration_ab_ns": base,
                "duration_ba_ns": base + rng.choice((-1, 1)) * rng.randint(18, 90),
                "error": round(rng.uniform(0.004, 0.025), 4),
            }
        )
    return {"snapshot_label": f"heavyhex-129-synthetic-{seed}", "qubits": qubits, "couplers": couplers}


def adjacency_of(cal_json: dict) -> Dict[int, FrozenSet[int]]:
    adj: Dict[int, set] = {q["index"]: set() for q in cal_json["qubits"]}
    for c in cal_json["couplers"]:
        adj[c["a"]].add(c["b"])
        adj[c["b"]].add(c["a"])
    return {q: frozenset(nb) for q, nb in adj.items()}


def random_subgraph(
    adj: Dict[int, FrozenSet[int]], k: int, rng: random.Random
) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """Connected k-vertex induced subgraph grown from a random qubit.

    Vertices are numbered in the order they were added, so vertex 0 is the
    start and every later vertex touches an earlier one.
    """
    order = [rng.choice(sorted(adj))]
    chosen = set(order)
    while len(order) < k:
        frontier = sorted({w for v in order for w in adj[v]} - chosen)
        w = rng.choice(frontier)
        order.append(w)
        chosen.add(w)
    label = {q: i for i, q in enumerate(order)}
    edges = sorted(
        (label[a], label[b]) for a in order for b in adj[a] if b in chosen and label[a] < label[b]
    )
    return k, tuple(edges)


def count_embeddings(n: int, edges, adj: Dict[int, FrozenSet[int]]) -> int:
    """Number of injective maps of the pattern into the host that keep every
    pattern edge on a host edge (the placement layer's search space)."""
    nbrs: Dict[int, List[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    order, seen = [0], {0}
    for v in order:
        for w in sorted(nbrs[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    mapping: Dict[int, int] = {}

    def extend(i: int) -> int:
        if i == n:
            return 1
        v = order[i]
        placed = [mapping[w] for w in nbrs[v] if w in mapping]
        cands = set(adj[placed[0]]).intersection(*(adj[p] for p in placed[1:])) if placed else adj
        total = 0
        for h in cands:
            if h not in used:
                mapping[v] = h
                used.add(h)
                total += extend(i + 1)
                used.discard(h)
                del mapping[v]
        return total

    used: set = set()
    return extend(0)


def _linear(n: int) -> Tuple[Tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(n - 1))


def _ring(n: int) -> Tuple[Tuple[int, int], ...]:
    return _linear(n) + ((0, n - 1),)


FIG1_SEVEN = ((0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6))  # same edges as builtin fig1-seven


def _drawn_near(adj, k: int, target: int, rng: random.Random):
    """Of CANDIDATES random k-vertex native subgraphs, the one whose embedding
    count is closest to target.

    Placement cost grows with the number of embeddings (128 to 4,744 for
    12-vertex trees on the 129-qubit device), so an unconstrained draw would
    make the workload's cost depend on the seed. A fixed number of candidates,
    rather than drawing until one fits, keeps the set-up work the same from
    seed to seed too.
    """
    candidates = [random_subgraph(adj, k, rng) for _ in range(CANDIDATES)]
    return min(candidates, key=lambda c: abs(count_embeddings(c[0], c[1], adj) - target))


def _instances(spec: List[dict]) -> List[Instance]:
    return [Instance(**s) for s in spec]


def compile_instances(seed: int, adj: Dict[int, FrozenSet[int]]) -> List[Instance]:
    """Compile workload on the bundled 27-qubit device: the solver dominates."""
    rng = random.Random(f"compile/{seed}")
    spec: List[dict] = []

    def fixed(name, edges, objective, why):
        n = max(max(e) for e in edges) + 1
        spec.append(dict(name=f"{name}/{objective}", n=n, edges=edges, objective=objective, why=why))

    def drawn(k, objective, why):
        n, edges = random_subgraph(adj, k, rng)
        spec.append(dict(name=f"sub{k}/{objective}", n=n, edges=edges, objective=objective, why=why))

    fixed("linear:7", _linear(7), "smt-runtime", "6 CNOTs, so the oracle cross-checks it")
    fixed("linear:8", _linear(8), "smt-runtime", "default objective, mid-size solve")
    fixed("linear:9", _linear(9), "smt-runtime", "default objective, 8 CNOTs")
    fixed("linear:9", _linear(9), "runtime", "makespan-only search on the same graph")
    fixed("linear:10", _linear(10), "smt-runtime", "the longest solve kept (about 1 s): solver-dominated")
    fixed("fig1-seven", FIG1_SEVEN, "smt-runtime", "the paper's example graph; oracle cross-check")
    fixed("fig1-seven", FIG1_SEVEN, "runtime", "branching graph, makespan-only search; oracle cross-check")
    fixed("linear:11", _linear(11), "cancellation", "cheap solve; the largest group verified (2^11 elements)")
    drawn(7, "smt-runtime", "seeded random native tree; oracle cross-check")
    drawn(8, "smt-runtime", "seeded random native tree, mid-size solve")
    drawn(9, "smt-runtime", "seeded random native tree, 8 CNOTs")
    drawn(10, "cancellation", "seeded random native tree; cheap solve, so building and verification show")
    return _instances(spec)


def fidelity_instances(seed: int, adj: Dict[int, FrozenSet[int]]) -> List[Instance]:
    """Fidelity workload on the bundled device: the Monte Carlo estimator dominates.

    Shot-heavy circuits (n = 4..6, 20k shots) have few stabilizer elements and
    many shots; element-heavy ones (n = 9..10) have 2^n elements at 1,024 shots.
    """
    rng = random.Random(f"fidelity/{seed}")
    spec: List[dict] = []

    def add(name, n, edges, shots, circuit, why):
        spec.append(
            dict(name=name, n=n, edges=edges, objective="smt-runtime", shots=shots,
                 mc_seed=rng.randrange(2**31), circuit=circuit, why=why)
        )

    add("linear:4/compiled", 4, _linear(4), 20000, "compiled", "shot-heavy; density-oracle cross-check")
    n, edges = random_subgraph(adj, 5, rng)
    add("sub5/compiled", n, edges, 20000, "compiled", "shot-heavy seeded tree; density-oracle cross-check")
    n, edges = random_subgraph(adj, 6, rng)
    add("sub6/compiled", n, edges, 20000, "compiled", "shot-heavy seeded tree, 64 elements")
    add("linear:9/naive", 9, _linear(9), 1024, "naive", "element-heavy: 512 elements, uncompiled baseline circuit")
    n, edges = random_subgraph(adj, 10, rng)
    add("sub10/naive", n, edges, 1024, "naive", "element-heavy seeded tree: 1,024 elements")
    return _instances(spec)


def large_device_instances(seed: int, adj: Dict[int, FrozenSet[int]]) -> List[Instance]:
    """Large-device workload on the 129-qubit device: placement scoring dominates.

    Instances within the exact cap are solved for the decoherence objective;
    larger ones are emitted as SMT-LIB. Crosstalk-free mode is on throughout.
    """
    rng = random.Random(f"large-device/{seed}")
    spec: List[dict] = []

    def add(name, n, edges, objective, why):
        spec.append(dict(name=f"{name}/{objective}", n=n, edges=edges, objective=objective, why=why))

    add("linear:6", 6, _linear(6), "decoherence", "880 embeddings; 5 CNOTs, so the oracle cross-checks it")
    add("linear:7", 7, _linear(7), "decoherence", "1,212 embeddings; Fraction coherence bound")
    n, edges = _drawn_near(adj, 6, 384, rng)
    add("sub6", n, edges, "decoherence", "seeded tree, embeddings nearest 384 of 6 draws; oracle cross-check")
    add("ring:12", 12, _ring(12), "smt-runtime", "one heavy-hex cell: 432 embeddings, 12 CNOTs to emit")
    add("linear:12", 12, _linear(12), "smt-runtime", "4,744 embeddings: the placement-scoring worst case kept")
    n, edges = _drawn_near(adj, 12, 1100, rng)
    add("sub12", n, edges, "smt-runtime", "seeded tree above the cap, embeddings nearest 1,100 of 6 draws")
    n, edges = _drawn_near(adj, 14, 1050, rng)
    add("sub14", n, edges, "smt-runtime", "seeded tree above the cap, embeddings nearest 1,050 of 6 draws")
    return _instances(spec)

