"""Placement: embed the target graph into the device and score candidates.

The score is the product of gate fidelities touched by the embedding: one
(1 - error) factor per mapped coupler and one per mapped qubit's single-qubit
gate. Coherence and readout quality deliberately do not enter here; they are
handled by the scheduler's objectives and the noise model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from .device import DeviceCalibration, topology_graph
from .errors import NotNativeError
from .graphs import GraphSpec
from .subiso import embeddings_iter


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


def best_placement(g: GraphSpec, cal: DeviceCalibration) -> Embedding:
    """Globally best-scoring embedding; ties break on the smaller mapping tuple."""
    best: Embedding | None = None
    for e in enumerate_embeddings(g, cal):
        scored = Embedding(e.mapping, score_embedding(e, g, cal))
        if (
            best is None
            or scored.score > best.score
            or (scored.score == best.score and scored.mapping < best.mapping)
        ):
            best = scored
    if best is None:
        raise NotNativeError(
            f"graph with {g.n} vertices is not native to device '{cal.snapshot_label}'"
        )
    return best
