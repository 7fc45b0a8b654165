"""Stabilizer verification and noisy fidelity estimation for timed circuits.

This module needs no numpy. ``estimate_fidelity`` and ``density_oracle``
load it, by importing their kernels from ``gscompile.frames`` once per call;
placing, solving, deriving and the tableau check never do.

Ideal verification runs the circuit on a stabilizer tableau and checks that
stabilizers have expectation +1. The tableau keeps one integer bitmask per
qubit for its X and for its Z bits (bit k is row k) plus a sign mask, and
has the circuits' two gates, H and CNOT. Every reader of the prepared state
goes through one canonical form of the circuit's own tableau, the reduced
row echelon form of its rows, combined with ``mul_phase``: expectations and
so ``verify_graph_state``, and the stabilizer group from which the noisy
estimator reads its measurement distributions. An expectation is a
membership test alone: the n rows are independent and commute, so they span
a maximal commuting set, and a Pauli commutes with every row exactly when
its X/Z bits lie in their span. Off the span it anticommutes with some row (expectation 0); on it, the one group
element with its bits gives the sign. Noisy estimation is a stabilizer
experiment: one measurement setting per stabilizer element, depolarizing
noise after gates, idle dephasing in the schedule's gaps, readout confusion,
and optional unbiased readout mitigation. The estimator and the dense
density-matrix oracle for small systems read the one event stream built
here. The estimator pushes each fault to the end of the circuit through
images precomputed from it and turns them into the exact distribution of
each element's read support word. Its analytic values are the exact means
over those distributions; its sampled values come from one histogram of
each element's shots drawn from them. The oracle replays the stream.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .circuit import TimedCircuit
from .device import DeviceCalibration
from .errors import CapExceededError, SolutionError, ValidationError
from .graphs import PauliString, _is_int, mul_phase, stabilizer_generators, stabilizer_group

DENSITY_CAP = 5
# A sampled estimate's shots. Its cost does not grow with them: each element
# is one multinomial draw of its shots. At the cap the shot noise, about
# 1e-4, still dwarfs the rounding of the distributions (under 1e-12).
SHOTS_CAP = 1 << 24
Canon = Tuple[Tuple[int, int, int, int], ...]  # canonical rows: (pivot column, X mask, Z mask, sign bit)


# ---------------------------------------------------------------------------
# Stabilizer tableau

class Tableau:
    """Stabilizer rows of an n-qubit state (Aaronson & Gottesman, PRA 70,
    052328, 2004) as bitmasks: ``x[q]`` and ``z[q]`` hold qubit q's X and Z
    bits with bit k for row k, and bit k of ``r`` is row k's sign (-1)^r.
    Each gate is a few integer operations on its qubits' columns; ``canon``
    caches the state's canonical form until the next gate."""

    def __init__(self, n: int):
        self.n = n
        self.x = [0] * n
        self.z = [1 << q for q in range(n)]  # row q is +Z_q: |0...0>
        self.r = 0
        self.canon: Optional[Canon] = None

    def h(self, q: int) -> None:
        self.canon = None
        self.r ^= self.x[q] & self.z[q]
        self.x[q], self.z[q] = self.z[q], self.x[q]

    def cx(self, c: int, t: int) -> None:
        self.canon = None
        self.r ^= self.x[c] & self.z[t] & ~(self.x[t] ^ self.z[c])
        self.x[t] ^= self.x[c]
        self.z[c] ^= self.z[t]


def simulate_ideal(c: TimedCircuit) -> Tableau:
    """Run the timed circuit on a tableau over graph vertices, from |0...0>."""
    vmap = c.vertex_of()
    tab = Tableau(c.n)
    for g in c.gates:
        if g.kind == "h":
            tab.h(vmap[g.wires[0]])
        elif g.kind == "cx":
            tab.cx(vmap[g.wires[0]], vmap[g.wires[1]])
        else:
            raise ValidationError(f"unknown gate kind {g.kind!r}")
    return tab


def _transpose(cols: List[int]) -> List[int]:
    """Row masks of a square bit matrix given as column masks: bit q of row
    k is bit k of column q. Only the set bits of each column are visited."""
    rows = [0] * len(cols)
    for q, col in enumerate(cols):
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= 1 << q
            col ^= low
    return rows


def _canonical(tab: Tableau) -> Canon:
    """Reduced row echelon form of the stabilizer rows over the 2n symplectic
    columns, X block first, as (pivot column, X mask, Z mask, sign bit)
    rows. Rows are plain masks combined with ``mul_phase``, so signs stay
    exact. The form of a row space is unique, so every reader sees the same
    rows whatever the gate history. It is cached on the tableau until the
    tableau's next gate. Rows that anticommute or are not independent (only
    a tableau built by hand can have them) raise ``ValidationError``."""
    if tab.canon is not None:
        return tab.canon
    n = tab.n
    xs, zs = _transpose(tab.x), _transpose(tab.z)
    rows = [(xs[k], zs[k], tab.r >> k & 1) for k in range(n)]
    sym = [x | z << n for x, z, _ in rows]
    flip = [z | x << n for x, z, _ in rows]
    for i in range(n):
        for j in range(i):
            if (sym[i] & flip[j]).bit_count() & 1:
                raise ValidationError(f"tableau rows {j} and {i} anticommute: not a stabilizer state")
    # Row operations keep the rows commuting, so each product is Hermitian
    # and its power of i is even.
    pivots: List[int] = []
    for col in range(2 * n):
        part, bit = divmod(col, n)  # the X mask, then the Z mask
        top = len(pivots)
        k = next((k for k in range(top, n) if rows[k][part] >> bit & 1), None)
        if k is None:
            continue
        rows[top], rows[k] = rows[k], rows[top]
        px, pz, pneg = rows[top]
        for other, (ox, oz, oneg) in enumerate(rows):
            if other != top and rows[other][part] >> bit & 1:
                phase = mul_phase(px, pz, ox, oz) + 2 * (pneg + oneg)
                rows[other] = (px ^ ox, pz ^ oz, phase % 4 // 2)
        pivots.append(col)
    if len(pivots) < n:
        raise ValidationError(f"tableau rows have rank {len(pivots)}, not {n}: not a stabilizer state")
    tab.canon = tuple((col, *row) for col, row in zip(pivots, rows))
    return tab.canon


def _member(canon: Canon, x: int, z: int) -> Optional[int]:
    """Sign of the group element with X/Z masks (x, z), or None when no
    element has them. In reduced form only pivot row k has pivot column k,
    so the element is the product of the rows whose pivots the bits hit.
    Its power of i is the sum of ``mul_phase`` over the steps, telescoped:
    the -|x & z| of each partial product cancels the next step's +|x1 & z1|,
    so each row adds |rx & rz| + 2 |az & rx| (az the partial product's Z
    mask) and the element's |x & z| is taken off once at the end."""
    bits = x | z << len(canon)  # a full form has n rows
    ax = az = phase = 0
    for col, rx, rz, neg in canon:
        if bits >> col & 1:
            phase += (rx & rz).bit_count() + 2 * ((az & rx).bit_count() + neg)
            ax ^= rx
            az ^= rz
    if ax != x or az != z:
        return None
    return 1 if (phase - (x & z).bit_count()) % 4 == 0 else -1


def expectation(tab: Tableau, p: PauliString) -> int:
    """Expectation of a signed Pauli on the tableau's state: +1, -1, or 0.

    One membership test decides it. The n canonical rows are independent and
    commute, so the only Paulis commuting with all of them are the ones whose
    X/Z bits lie in their span: a Pauli off the span anticommutes with some
    stabilizer and has expectation 0, one on it is +-1 times a group
    element."""
    if p.n != tab.n:
        raise ValidationError("Pauli size does not match the tableau")
    sign = _member(_canonical(tab), p.x_mask, p.z_mask)
    return 0 if sign is None else sign * p.sign


def verify_graph_state(c: TimedCircuit) -> None:
    """Raise ``SolutionError`` unless the ideal circuit prepares its graph
    state. The n generators are independent and commute, so expectation +1
    on each fixes the state; the message names the first that fails."""
    tab = simulate_ideal(c)
    for v, gen in enumerate(stabilizer_generators(c.graph)):
        value = expectation(tab, gen)
        if value != 1:
            raise SolutionError(
                f"circuit does not prepare the graph state: generator {gen.label} "
                f"of vertex {v} has expectation {value}, not +1"
            )


# ---------------------------------------------------------------------------
# Noise model

@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Per-qubit and per-coupler error rates keyed by physical qubit index.

    Gates get symmetric depolarizing noise, idle intervals get pure dephasing
    with probability (1 - exp(-t / D_q)) / 2, readout gets an independent
    per-qubit confusion matrix [[1-p01, p10], [p01, 1-p10]]. Every rate is a
    number in [0, 1] and every coherence time is > 0 (inf allowed); anything
    else, NaN included, raises ``ValidationError`` naming the field and key.
    """

    sq_error: Dict[int, float]
    cx_error: Dict[Tuple[int, int], float]
    coherence_ns: Dict[int, float]
    readout: Dict[int, Tuple[float, float]]  # (p01, p10)

    def __post_init__(self):
        for name, rates in (("sq_error", self.sq_error), ("cx_error", self.cx_error)):
            for key, p in rates.items():
                if not _is_rate(p):
                    raise ValidationError(f"{name}[{key}] must be a rate in [0, 1], got {p!r}")
        for key, pair in self.readout.items():
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(_is_rate, pair))):
                raise ValidationError(f"readout[{key}] must be a (p01, p10) pair of rates in [0, 1], got {pair!r}")
        for key, t in self.coherence_ns.items():
            if not (_is_real(t) and t > 0):
                raise ValidationError(f"coherence_ns[{key}] must be > 0 (inf allowed), got {t!r}")

    @classmethod
    def from_calibration(cls, cal: DeviceCalibration) -> "NoiseModel":
        return cls(
            sq_error={q.index: q.sq_error for q in cal.qubits},
            cx_error={c.pair: c.error for c in cal.couplers},
            coherence_ns={q.index: q.coherence_time_us * 1000.0 for q in cal.qubits},
            readout={q.index: (q.readout_p01, q.readout_p10) for q in cal.qubits},
        )

    @classmethod
    def noiseless(cls, cal: DeviceCalibration) -> "NoiseModel":
        return replace(cls.readout_only(cal), readout={q.index: (0.0, 0.0) for q in cal.qubits})

    @classmethod
    def readout_only(cls, cal: DeviceCalibration) -> "NoiseModel":
        return replace(
            cls.from_calibration(cal),
            sq_error={q.index: 0.0 for q in cal.qubits},
            cx_error={c.pair: 0.0 for c in cal.couplers},
            coherence_ns={q.index: math.inf for q in cal.qubits},
        )


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_rate(x) -> bool:
    return _is_real(x) and 0.0 <= x <= 1.0  # NaN fails both comparisons


def _dephase_prob(gap_ns: float, coherence_ns: float) -> float:
    return (1.0 - math.exp(-gap_ns / coherence_ns)) / 2.0


def _event_stream(c: TimedCircuit, noise: NoiseModel):
    """Noisy events in schedule order: each gate preceded by the idle
    dephasing its wires accumulated, plus trailing idles out to the makespan.

    Yields ("idle", (v,), p_z), ("h", (v,), p_err), ("cx", (c, t), p_err)
    with wires in graph-vertex space. A placement qubit or a CNOT coupler
    that the noise model lacks raises ``ValidationError`` naming it.
    """
    for k, q in enumerate(c.placement):
        if not all(q in rates for rates in (noise.sq_error, noise.coherence_ns, noise.readout)):
            raise ValidationError(f"placement[{k}]: qubit {q} is not in the noise calibration")
    vmap = c.vertex_of()
    last: Dict[int, Fraction] = {v: Fraction(0) for v in range(c.n)}
    events = []
    for k, g in enumerate(c.gates):
        vs = tuple(vmap[q] for q in g.wires)
        for q, v in zip(g.wires, vs):
            gap = g.start - last[v]
            if gap > 0:
                events.append(("idle", (v,), _dephase_prob(float(gap), noise.coherence_ns[q])))
            last[v] = g.end
        if g.kind == "h":
            events.append(("h", vs, noise.sq_error[g.wires[0]]))
        else:
            pair = (min(g.wires), max(g.wires))
            if pair not in noise.cx_error:
                raise ValidationError(f"gates[{k}].wires: no coupler {pair[0]}-{pair[1]} in the noise calibration")
            events.append(("cx", vs, noise.cx_error[pair]))
    for v in range(c.n):
        gap = c.makespan - last[v]
        if gap > 0:
            q = c.placement[v]
            events.append(("idle", (v,), _dephase_prob(float(gap), noise.coherence_ns[q])))
    return events


def _mitigation_weights(p01: float, p10: float) -> Tuple[float, float]:
    """Per-qubit weights w(observed bit) with E[w] = (-1)^(true bit)."""
    det = 1.0 - p01 - p10
    if det <= 0:
        raise ValidationError(
            f"readout confusion with p01={p01}, p10={p10} is not invertible"
        )
    return (1.0 + p01 - p10) / det, -(1.0 - p01 + p10) / det


@dataclass(frozen=True)
class ElementEstimate:
    label: str
    raw: float
    mitigated: Optional[float]
    stderr_raw: float
    stderr_mitigated: Optional[float]


@dataclass(frozen=True)
class NoisyEstimate:
    """Stabilizer-measurement fidelity, sampled or exact (``analytic``): raw
    and (optionally) readout-mitigated. ``shots`` and ``seed`` are None when
    analytic, since nothing was drawn."""

    fidelity_raw: float
    fidelity_mitigated: Optional[float]
    stderr_raw: float
    stderr_mitigated: Optional[float]
    shots: Optional[int]
    seed: Optional[int]
    analytic: bool
    elements: Tuple[ElementEstimate, ...]


def estimate_fidelity(
    c: TimedCircuit,
    noise: NoiseModel,
    shots: int = 4096,
    seed: int = 0,
    mitigate: bool = False,
    analytic: bool = False,
) -> NoisyEstimate:
    """Fidelity with the target graph state via stabilizer measurements.

    One measurement setting per stabilizer element; fidelity is the mean of
    the 2^n element expectations. Analytic, each element's values are the
    exact expectations under the full noise model, and nothing is sampled.
    Sampled, one RNG stream, seeded with the seed, serves the whole
    estimate, so results are reproducible bit for bit;
    ``frames.estimate_elements`` states the order in which it is drawn. A
    sampled estimate takes at most ``SHOTS_CAP`` shots.
    """
    if not _is_int(shots) or shots < 1:
        raise ValidationError(f"shots must be a positive integer, got {shots}")
    if not _is_int(seed) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    if not analytic and shots > SHOTS_CAP:
        raise CapExceededError(
            f"sampled estimates support shots <= {SHOTS_CAP}, got {shots}; "
            "use fewer shots, or average the estimates of several seeds"
        )
    group = stabilizer_group(c.graph)
    ideal_tab = simulate_ideal(c)
    events = _event_stream(c, noise)

    from . import frames  # numpy: loaded only when noise is simulated

    elements = frames.estimate_elements(c, noise, events, ideal_tab, group, shots, seed, mitigate, analytic)

    m = len(elements)
    raw = sum(e.raw for e in elements) / m
    err_raw = math.sqrt(sum(e.stderr_raw**2 for e in elements)) / m
    if mitigate:
        mit = sum(e.mitigated for e in elements) / m
        err_mit = math.sqrt(sum(e.stderr_mitigated**2 for e in elements)) / m
    else:
        mit, err_mit = None, None
    return NoisyEstimate(
        fidelity_raw=raw,
        fidelity_mitigated=mit,
        stderr_raw=err_raw,
        stderr_mitigated=err_mit,
        shots=None if analytic else shots,
        seed=None if analytic else seed,
        analytic=analytic,
        elements=tuple(elements),
    )


# ---------------------------------------------------------------------------
# Dense density-matrix oracle (small n)

def density_oracle(c: TimedCircuit, noise: NoiseModel) -> float:
    """Exact <G|rho|G> by dense channel evolution of the event stream the
    estimator reads (readout errors excluded: the sampled mitigated value is
    unbiased for this quantity, and the analytic one equals it)."""
    n = c.n
    if n > DENSITY_CAP:
        raise CapExceededError(f"density oracle supports n <= {DENSITY_CAP}, got {n}")
    events = _event_stream(c, noise)
    from . import frames  # numpy: loaded only when noise is simulated

    return frames.density_fidelity(c, events)
