import copy
import random

import pytest
from hypothesis import strategies as st

from gscompile.device import DeviceCalibration, calibration_from_json
from gscompile.graphs import GraphSpec
from gscompile.placement import Embedding, enumerate_embeddings, score_embedding


def make_calibration(
    n: int,
    edges,
    sq=35,
    cnot=300,
    coherence_us=100.0,
    p01=0.02,
    p10=0.03,
    sq_error=0.001,
    cx_error=0.01,
    label="test",
) -> DeviceCalibration:
    """Uniform calibration over an arbitrary topology.

    sq/cnot may be ints (uniform) or callables (per qubit / per edge,
    returning (d_ab, d_ba) for edges).
    """
    qubits = [
        {
            "index": i,
            "coherence_time_us": coherence_us(i) if callable(coherence_us) else coherence_us,
            "readout_p01": p01,
            "readout_p10": p10,
            "sq_duration_ns": sq(i) if callable(sq) else sq,
            "sq_error": sq_error,
        }
        for i in range(n)
    ]
    couplers = []
    for a, b in edges:
        dab, dba = cnot(a, b) if callable(cnot) else (cnot, cnot)
        couplers.append(
            {"a": a, "b": b, "duration_ab_ns": dab, "duration_ba_ns": dba, "error": cx_error}
        )
    return calibration_from_json(
        {"snapshot_label": label, "qubits": qubits, "couplers": couplers}
    )


def line_calibration(n: int, **kw) -> DeviceCalibration:
    return make_calibration(n, [(i, i + 1) for i in range(n - 1)], **kw)


def graph_calibration(g: GraphSpec, **kw) -> DeviceCalibration:
    """Calibration whose topology is exactly the graph (identity placement)."""
    return make_calibration(g.n, g.sorted_edges(), **kw)


def identity_embedding(g: GraphSpec) -> Embedding:
    return Embedding(tuple(range(g.n)), 1.0)


def reference_placement(g, cal):
    """Exhaustive reference: the highest score_embedding over every
    embedding, equal scores broken to the smallest mapping."""
    scored = [
        Embedding(e.mapping, score_embedding(e, g, cal))
        for e in enumerate_embeddings(g, cal)
    ]
    return min(scored, key=lambda e: (-e.score, e.mapping))


def random_calibration(g: GraphSpec, rng: random.Random, **kw) -> DeviceCalibration:
    """Matching topology with randomized integer durations and coherences."""
    return make_calibration(
        g.n,
        g.sorted_edges(),
        sq=lambda i: rng.randint(20, 60),
        cnot=lambda a, b: (rng.randint(181, 587), rng.randint(181, 587)),
        coherence_us=lambda i: float(rng.randint(50, 300)),
        **kw,
    )


def straddling_calibration(g: GraphSpec, rng: random.Random) -> DeviceCalibration:
    """Matching topology whose Hadamards (150-400 ns) outlast some CNOTs
    (100-400 ns) but not all, with 1-3 us coherences."""
    return make_calibration(
        g.n,
        g.sorted_edges(),
        sq=lambda i: rng.randint(150, 400),
        cnot=lambda a, b: (rng.randint(100, 400), rng.randint(100, 400)),
        coherence_us=lambda i: rng.randint(1000, 3000) / 1000,
    )


@pytest.fixture
def sym3():
    """Symmetric 3-qubit line: 35 ns Hadamards, 300 ns CNOTs both ways."""
    return line_calibration(3)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(2**63) - 1, 10**40])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_json(draw, doc):
    """An arbitrary JSON value, or ``doc`` (the object of a valid input
    file) after up to three edits at any depth: a value replaced by an
    arbitrary JSON value (wrong types, NaN/inf, huge ints, nesting), a key
    or item dropped, or an unknown key or extra item added."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            deeper = [k for k in keys if isinstance(node[k], (dict, list)) and node[k]]
            if not deeper or draw(st.booleans()):
                break
            node = node[draw(st.sampled_from(deeper))]
        edit = draw(st.sampled_from(["replace", "drop", "add"]))
        if edit == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.text(max_size=4))] = draw(JSON_VALUES)
            else:
                node.append(draw(JSON_VALUES))
        elif edit == "drop":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = draw(JSON_VALUES)
    return doc
