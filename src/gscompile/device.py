"""Device model: qubits, couplers, calibration snapshot ingest.

The calibration file is the single source of per-qubit coherence/readout data
and per-direction CNOT timings. Durations are kept as exact integer
nanoseconds so downstream scheduling and optimality checks stay exact.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Tuple

from .errors import ValidationError
from .graphs import _is_int, _read_json, _require_keys, adjacency

# Field name -> type of each calibration record.
_QUBIT_FIELDS = {"index": int, "coherence_time_us": float, "readout_p01": float,
                 "readout_p10": float, "sq_duration_ns": int, "sq_error": float}
_COUPLER_FIELDS = {"a": int, "b": int, "duration_ab_ns": int, "duration_ba_ns": int, "error": float}


@dataclass(frozen=True)
class PhysicalQubit:
    """One device qubit: coherence, readout confusion, single-qubit gate data."""

    index: int
    coherence_time_us: float
    readout_p01: float
    readout_p10: float
    sq_duration_ns: int
    sq_error: float

    def __post_init__(self):
        # Faults name the field only: the loader prefixes the record's file position.
        if self.index < 0:
            raise ValidationError("index must be non-negative")
        if self.coherence_time_us <= 0:
            raise ValidationError("coherence_time_us must be > 0")
        if self.sq_duration_ns <= 0:
            raise ValidationError("sq_duration_ns must be > 0")
        for name in ("readout_p01", "readout_p10", "sq_error"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class Coupler:
    """Directed-timing coupler: duration_ab is the CNOT with control `a`."""

    a: int
    b: int
    duration_ab_ns: int
    duration_ba_ns: int
    error: float

    def __post_init__(self):
        if self.a == self.b:
            raise ValidationError("b must differ from a")
        for name in ("duration_ab_ns", "duration_ba_ns"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        if not 0.0 <= self.error <= 1.0:
            raise ValidationError("error must be in [0, 1]")

    @property
    def pair(self) -> Tuple[int, int]:
        return (min(self.a, self.b), max(self.a, self.b))


@dataclass(frozen=True)
class DeviceCalibration:
    """Immutable calibration snapshot; safe to share across threads."""

    snapshot_label: str
    qubits: Tuple[PhysicalQubit, ...]
    couplers: Tuple[Coupler, ...]
    _by_index: Dict[int, PhysicalQubit] = field(init=False, repr=False, compare=False)
    _by_pair: Dict[Tuple[int, int], Coupler] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Faults name records by their position in the qubits and couplers tuples.
        qubit_at: Dict[int, int] = {}  # qubit index -> position of its first record
        for k, q in enumerate(self.qubits):
            j = qubit_at.setdefault(q.index, k)
            if j != k:
                raise ValidationError(f"qubits[{k}].index {q.index} duplicates qubits[{j}]")
        coupler_at: Dict[Tuple[int, int], int] = {}
        for k, c in enumerate(self.couplers):
            for name, end in (("a", c.a), ("b", c.b)):
                if end not in qubit_at:
                    raise ValidationError(f"couplers[{k}].{name}: endpoint {end} is not a qubit")
            j = coupler_at.setdefault(c.pair, k)
            if j != k:
                raise ValidationError(f"couplers[{k}]: duplicate coupler for pair {c.pair}, first at couplers[{j}]")
        object.__setattr__(self, "_by_index", {q.index: q for q in self.qubits})
        object.__setattr__(self, "_by_pair", {c.pair: c for c in self.couplers})

    def qubit(self, index: int) -> PhysicalQubit:
        return self._by_index[index]

    def coupler(self, a: int, b: int) -> Coupler:
        key = (min(a, b), max(a, b))
        c = self._by_pair.get(key)
        if c is None:
            raise ValidationError(f"no coupler for pair {key}")
        return c


def _records(data: dict, key: str, fields: Dict[str, type], record: type) -> tuple:
    """The list data[key] as ``record`` objects, each record's fields
    type-checked first: integers exactly (no bool, no float), reals as ints
    or floats within float range. A fault names the record by its position in the list."""
    items = data[key]
    if not isinstance(items, list):
        raise ValidationError(f"{key} must be a list, got {type(items).__name__}")
    out = []
    for i, item in enumerate(items):
        where = f"{key}[{i}]"
        _require_keys(item, fields, where)
        for name, kind in fields.items():
            v = item[name]
            if kind is int and not _is_int(v):
                raise ValidationError(f"{where}.{name} must be an integer, got {v!r}")
            # abs() is False against NaN; an int beyond float range would overflow float().
            if kind is float and not ((_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max):
                raise ValidationError(f"{where}.{name} must be a finite number, got {v!r}")
        try:
            out.append(record(**{name: kind(item[name]) for name, kind in fields.items()}))
        except ValidationError as exc:
            raise ValidationError(f"{where}.{exc}") from None
    return tuple(out)


def calibration_from_json(data: dict) -> DeviceCalibration:
    _require_keys(data, {"snapshot_label", "qubits", "couplers"}, "calibration")
    label = data["snapshot_label"]
    if not isinstance(label, str):
        raise ValidationError(f"calibration: snapshot_label must be a string, got {label!r}")
    qubits = _records(data, "qubits", _QUBIT_FIELDS, PhysicalQubit)
    couplers = _records(data, "couplers", _COUPLER_FIELDS, Coupler)
    return DeviceCalibration(label, qubits, couplers)


def load_calibration(path) -> DeviceCalibration:
    """Load and validate a calibration JSON file."""
    return calibration_from_json(_read_json(path, "calibration"))


def save_calibration(cal: DeviceCalibration, path) -> None:
    """Write a calibration back out; load(save(x)) round-trips field-for-field."""
    data = {
        "snapshot_label": cal.snapshot_label,
        "qubits": [asdict(q) for q in cal.qubits],
        "couplers": [asdict(c) for c in cal.couplers],
    }
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def topology_graph(cal: DeviceCalibration) -> Dict[int, FrozenSet[int]]:
    """Undirected simple coupling graph as an adjacency map, in ascending qubit index."""
    return adjacency(sorted(q.index for q in cal.qubits), ((c.a, c.b) for c in cal.couplers))


def sample_calibration_path() -> Path:
    """Path of the bundled 27-qubit heavy-hex calibration snapshot."""
    return Path(__file__).parent / "data" / "sample27.json"
