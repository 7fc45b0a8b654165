"""Placement: embed the target graph into the device and score candidates.

The score is the product of gate fidelities touched by the embedding: one
(1 - error) factor per mapped coupler and one per mapped qubit's single-qubit
gate. Coherence and readout quality deliberately do not enter here; they are
handled by the scheduler's objectives and the noise model.

`best_placement` is a branch and bound over the `subiso` search tree. A
partial embedding's `partial` (the factors of its mapped qubits and of the
couplers with both ends mapped), times the best coupler factor per unmapped
edge and the best qubit factor per unmapped vertex, bounds every completion;
the subtree is dropped when that bound times (1 + 1e-9) is strictly below the
incumbent's score. Every factor lies in [0, 1], so any ordering of a float
product of k factors stays within about k * 2**-53 relative of the exact
product, as long as it stays a normal float (above 2**-1022, far below any
device's score). A dropped leaf therefore can neither beat nor tie the
incumbent, and since the comparison is strict, a zero bound never drops
leaves that tie a zero incumbent. Leaves are scored by the unchanged
`score_embedding` under the unchanged tie rule (the higher score, then the
smaller mapping tuple), so the result is the exhaustive maximum, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from .device import DeviceCalibration, topology_graph
from .errors import NotNativeError
from .graphs import GraphSpec
from .subiso import SearchPlan, embeddings_iter

_SLACK = 1.0 + 1e-9  # covers float rounding in products of up to ~10**6 factors


@dataclass(frozen=True)
class Embedding:
    """Injective vertex -> physical qubit assignment with its fidelity score."""

    mapping: Tuple[int, ...]
    score: float


def enumerate_embeddings(g: GraphSpec, cal: DeviceCalibration) -> Iterator[Embedding]:
    """Yield every topology embedding of g exactly once (score left at 0)."""
    topo = topology_graph(cal)
    for mapping in embeddings_iter(g.n, g.edges, topo):
        yield Embedding(mapping, 0.0)


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


def best_placement(g: GraphSpec, cal: DeviceCalibration) -> Embedding:
    """Globally best-scoring embedding; ties break on the smaller mapping tuple."""
    check_size(g.n, cal)
    plan = SearchPlan(g.n, g.edges, topology_graph(cal))
    qubit_f = {q.index: 1.0 - q.sq_error for q in cal.qubits}
    coupler_f = {p: 1.0 - c.error for c in cal.couplers for p in ((c.a, c.b), (c.b, c.a))}
    max_q = max(qubit_f.values(), default=0.0)
    max_c = max(coupler_f.values(), default=0.0)
    mapping = [-1] * g.n
    used = set()
    best: Embedding | None = None

    def extend(i: int, partial: float, edges_left: int) -> None:
        nonlocal best
        if i == g.n:
            leaf = tuple(mapping)
            score = score_embedding(Embedding(leaf, 0.0), g, cal)
            if best is None or score > best.score or (score == best.score and leaf < best.mapping):
                best = Embedding(leaf, score)
            return
        v, back = plan.order[i], plan.back[i]
        edges_left -= len(back)
        rest = max_c**edges_left * max_q ** (g.n - i - 1)
        options = []
        for h in plan.candidates(i, mapping, used):
            f = qubit_f[h]
            for w in back:
                f *= coupler_f[h, mapping[w]]
            options.append((-f, h))
        for neg_f, h in sorted(options):
            if best is not None and partial * -neg_f * rest * _SLACK < best.score:
                break  # options run in descending factor order: later bounds are no higher
            mapping[v] = h
            used.add(h)
            extend(i + 1, partial * -neg_f, edges_left)
            used.discard(h)

    extend(0, 1.0, len(g.edges))
    del extend  # unbinds its self-reference, as for subiso.embeddings_iter
    if best is None:
        raise _not_native(g.n, cal)
    return best
