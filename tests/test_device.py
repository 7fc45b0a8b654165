import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gscompile.circuit import circuit_from_json, circuit_to_json, naive_circuit
from gscompile.device import (
    calibration_from_json,
    load_calibration,
    sample_calibration_path,
    save_calibration,
    topology_graph,
)
from gscompile.errors import ValidationError
from gscompile.graphs import linear_graph

from conftest import identity_embedding, line_calibration, mutated_json


def test_round_trip(tmp_path):
    cal = line_calibration(4)
    path = tmp_path / "cal.json"
    save_calibration(cal, path)
    assert load_calibration(path) == cal


def calibration_json(cal):
    return {
        "snapshot_label": cal.snapshot_label,
        "qubits": [dataclasses.asdict(q) for q in cal.qubits],
        "couplers": [dataclasses.asdict(c) for c in cal.couplers],
    }


@settings(max_examples=150, deadline=None)
@given(mutated_json(calibration_json(line_calibration(3))))
def test_calibration_fails_closed(data):
    # Any JSON value either loads or is refused with ValidationError.
    try:
        calibration_from_json(data)
    except ValidationError:
        pass


_NOT_INT = st.sampled_from(["7", 2.5, 7.0, True, None, [1]])
_NOT_REAL = st.sampled_from(["0.5", True, None, [0.5], float("nan"), float("inf"), 10**400])
_NOT_PROBABILITY = st.floats(min_value=1.0, exclude_min=True) | st.floats(max_value=-1e-9)
_NOT_POSITIVE = st.integers(max_value=0)
# Per field: values of a wrong type or out of range that the field's own
# record is refused for. A qubit index or coupler endpoint is corrupted only
# to a value no other record has, so no other record can be the one refused.
_CORRUPT = {
    "index": _NOT_INT | st.integers(max_value=-1),
    "coherence_time_us": _NOT_REAL | st.floats(max_value=0.0),
    "readout_p01": _NOT_REAL | _NOT_PROBABILITY,
    "readout_p10": _NOT_REAL | _NOT_PROBABILITY,
    "sq_duration_ns": _NOT_INT | _NOT_POSITIVE,
    "sq_error": _NOT_REAL | _NOT_PROBABILITY,
    "a": _NOT_INT | st.integers().filter(lambda q: q not in range(5)),
    "b": _NOT_INT | st.integers().filter(lambda q: q not in range(5)),
    "duration_ab_ns": _NOT_INT | _NOT_POSITIVE,
    "duration_ba_ns": _NOT_INT | _NOT_POSITIVE,
    "error": _NOT_REAL | _NOT_PROBABILITY,
    "kind": st.sampled_from(["cz", "H", 1, None]),
    "wires": st.sampled_from(["0", None, [], [99], [0.0], [True], [0, 1, 2]]),
    "start_ns": _NOT_INT | st.integers(max_value=-1) | st.just(10**400),
    "end_ns": _NOT_INT | st.just(10**400),
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corrupt_record_named(data):
    # One field of one record corrupted: the refusal names the record's
    # position in its file's list and the field. Calibration qubit indices
    # are permuted, so a position is not an index.
    cal = calibration_json(line_calibration(5))
    perm = data.draw(st.permutations(range(5)))
    for k, q in enumerate(cal["qubits"]):
        q["index"] = perm[k]
    for c in cal["couplers"]:
        c["a"], c["b"] = perm[c["a"]], perm[c["b"]]
    g = linear_graph(4)
    circ = circuit_to_json(naive_circuit(g, identity_embedding(g), line_calibration(4)))
    key = data.draw(st.sampled_from(["qubits", "couplers", "gates"]))
    doc, load = (circ, circuit_from_json) if key == "gates" else (cal, calibration_from_json)
    k = data.draw(st.integers(0, len(doc[key]) - 1))
    record = doc[key][k]
    name = data.draw(st.sampled_from(sorted(record)))
    if name == "end_ns":  # out of range: a window that does not end after it starts
        bad = data.draw(_CORRUPT[name] | st.integers(max_value=record["start_ns"]))
    else:
        bad = data.draw(_CORRUPT[name])
    record[name] = bad
    with pytest.raises(ValidationError) as exc:
        load(doc)
    where = f"circuit file: {key}[{k}].{name}" if key == "gates" else f"{key}[{k}].{name}"
    assert str(exc.value).startswith(where), (str(exc.value), where)


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError, match="unknown keys"):
        calibration_from_json(
            {"snapshot_label": "x", "qubits": [], "couplers": [], "vendor": "y"}
        )


def test_missing_qubit_keys_named():
    with pytest.raises(ValidationError, match=r"qubits\[0\]"):
        calibration_from_json(
            {"snapshot_label": "x", "qubits": [{"index": 0}], "couplers": []}
        )


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("coherence_time_us", -1.0, "coherence_time_us"),
        ("readout_p01", 1.5, "readout_p01"),
        ("sq_duration_ns", 0, "sq_duration_ns"),
        ("sq_error", -0.1, "sq_error"),
    ],
)
def test_qubit_invariants_name_field(field, value, fragment):
    q = {
        "index": 0,
        "coherence_time_us": 100.0,
        "readout_p01": 0.0,
        "readout_p10": 0.0,
        "sq_duration_ns": 35,
        "sq_error": 0.0,
    }
    q[field] = value
    with pytest.raises(ValidationError, match=fragment):
        calibration_from_json({"snapshot_label": "x", "qubits": [q], "couplers": []})


def test_duplicate_coupler_rejected():
    base = line_calibration(2)
    data = {
        "snapshot_label": "x",
        "qubits": [
            {
                "index": q.index,
                "coherence_time_us": q.coherence_time_us,
                "readout_p01": q.readout_p01,
                "readout_p10": q.readout_p10,
                "sq_duration_ns": q.sq_duration_ns,
                "sq_error": q.sq_error,
            }
            for q in base.qubits
        ],
        "couplers": [
            {"a": 0, "b": 1, "duration_ab_ns": 300, "duration_ba_ns": 300, "error": 0.0},
            {"a": 1, "b": 0, "duration_ab_ns": 200, "duration_ba_ns": 200, "error": 0.0},
        ],
    }
    with pytest.raises(ValidationError, match="duplicate coupler"):
        calibration_from_json(data)


def test_coupler_unknown_endpoint():
    with pytest.raises(ValidationError, match="endpoint 5"):
        calibration_from_json(
            {
                "snapshot_label": "x",
                "qubits": [
                    {
                        "index": 0,
                        "coherence_time_us": 1.0,
                        "readout_p01": 0.0,
                        "readout_p10": 0.0,
                        "sq_duration_ns": 1,
                        "sq_error": 0.0,
                    }
                ],
                "couplers": [
                    {"a": 0, "b": 5, "duration_ab_ns": 1, "duration_ba_ns": 1, "error": 0.0}
                ],
            }
        )


def test_topology_graph():
    cal = line_calibration(3)
    topo = topology_graph(cal)
    assert topo == {0: frozenset({1}), 1: frozenset({0, 2}), 2: frozenset({1})}


class TestBundledSample:
    def test_loads_and_shape(self):
        cal = load_calibration(sample_calibration_path())
        assert len(cal.qubits) == 27
        assert len(cal.couplers) == 28
        topo = topology_graph(cal)
        assert max(len(nb) for nb in topo.values()) == 3  # heavy-hex degree cap

    def test_realistic_ranges(self):
        cal = load_calibration(sample_calibration_path())
        for c in cal.couplers:
            assert 181 <= c.duration_ab_ns <= 587
            assert 181 <= c.duration_ba_ns <= 587
        for q in cal.qubits:
            assert q.coherence_time_us > 0
            assert q.sq_duration_ns in (32, 36, 40)
