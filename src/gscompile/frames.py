"""numpy kernels of the noisy simulation: the Pauli-frame Monte Carlo
estimator and the dense density-matrix oracle, both built on the event
stream of ``sim._event_stream``. ``sim.estimate_fidelity`` and
``sim.density_oracle`` validate their inputs and import this module once per
call, so numpy is loaded only when noise is simulated.

The estimator samples Pauli frames sparsely, in the manner of Stim (Gidney,
Quantum 5, 497, 2021). A frame is one integer per shot, its X bits then its
Z bits (``x | z << n``). One backward pass over the events gives the frame
that each fault of each noisy event has at the end of the circuit, its
image, so a shot's final frame is the XOR of the images of the faults that
hit it and no gate is replayed per shot. Faults are drawn as Poisson
arrivals: an event with error probability p gets Poisson(shots * lambda)
arrivals, lambda = -log(1 - p), each at a uniform shot with a uniform fault
type. A shot is hit when at least one arrival lands on it, which happens
with probability exactly p, independently across shots and events; a shot
hit more than once by one event keeps its first arrival's type. An event
with p = 1 hits every shot.

After its faults, an element costs its two other draws and a few passes
over whole arrays. The ideal outcome distribution in the element's basis is
read off the state's stabilizer group, which is expanded once per estimate
(``_Outcomes``). A shot's outcome is one integer word: its frame's flips XOR
one fixed outcome XOR the row of free directions that its outcome draw
selects. Readout compares each uniform with both confusion rates and keeps,
without a branch, the comparison that applies. The observed bits of the
support form one pattern per shot, and the pattern's sign and mitigation
weight are gathered from tables.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .circuit import TimedCircuit
from .graphs import PauliString, group_products
from .sim import ElementEstimate, NoiseModel, Tableau, _canonical, _readout_rates

# ---------------------------------------------------------------------------
# Pauli-frame Monte Carlo

WORD = np.uint32  # frames (2n bits), outcome words, span tables: n <= 12, the group's cap
_POW2 = (1 << np.arange(12)).astype(np.float32)


class _Outcomes:
    """All-qubit Z-measurement distribution of the ideal state after each
    element's basis change, read off the state's full stabilizer group: its
    2^n members (x mask gx, z mask gz, sign bit), expanded once from the
    canonical rows of the circuit's own tableau. H on an X wire and S-dagger
    then H on a Y wire leave a member with no X bit exactly when ``gx & ~A
    == 0`` and ``gz & A == gx & S`` (A and S the element's X and Z masks);
    its sign is kept and its Z support is ``gx | gz & ~A``. These members
    are the outcome checks, and outcomes are uniform over the affine
    subspace they allow (Aaronson & Gottesman, PRA 70, 052328, 2004).

    ``of`` gives it as (b0, span): b0 is one outcome and ``span[i]`` the XOR
    of the free rows selected by the bits of i. Both come from the checks'
    reduced row echelon form with each pivot at its row's lowest set bit.
    That form is unique, so they equal what elimination on the rotated
    tableau gives, the reference that ``tests/test_sim.py`` compares them
    with. The pivots are the checks' lowest set bits; a row is the one check
    that hits exactly one pivot; b0 sets the pivots of the rows with sign
    -1; free wire j, ascending, gives the row with bit j and the pivots of
    the rows that cover j."""

    def __init__(self, tab: Tableau):
        group = group_products([row[1:] for row in _canonical(tab)])
        self.gx, self.gz, self.neg = np.array(group, dtype=WORD).T
        self.full = (1 << tab.n) - 1

    def of(self, element: PauliString) -> Tuple[int, np.ndarray]:
        a = element.x_mask
        not_a = self.full ^ a
        # After the basis change a member's X bits are gx off A, gz on the
        # X wires and gx ^ gz on the Y wires: all 0 exactly when these agree.
        checks = np.flatnonzero((self.gx & (not_a | a & element.z_mask)) == (self.gz & a))
        zs = (self.gx.take(checks) | self.gz.take(checks) & not_a).tolist()
        pivots = 0
        for z in zs:
            pivots |= z & -z
        b0, rows = 0, []
        for z, neg in zip(zs, self.neg.take(checks).tolist()):
            pivot = z & pivots
            if pivot & (pivot - 1) == 0:  # one pivot hit (or none: the identity)
                b0 |= pivot if neg else 0
                rows.append((z, pivot))
        free = self.full ^ pivots
        span = np.zeros(1 << free.bit_count(), dtype=WORD)
        size = 1
        while free:
            low = free & -free
            free ^= low
            row = low
            for z, pivot in rows:
                if z & low:
                    row |= pivot
            np.bitwise_xor(span[:size], row, out=span[size : 2 * size])
            size *= 2
        return b0, span


def _fault_images(n: int, events) -> List[Tuple[float, Tuple[int, ...]]]:
    """(p, images) for each event with p > 0, in schedule order: images[k] is
    the end-of-circuit frame of fault type k inserted after the event's gate.
    The types are Z for an idle; X, Y, Z for an H; for a CNOT, type k is
    the two-qubit Pauli of code k + 1 (1..15), whose bits 0 and 1 are X and
    Z on the first wire and bits 2 and 3 X and Z on the second. The one
    backward pass keeps the images of X_v and Z_v inserted at the current
    point: H swaps them, and CNOT(c, t) maps X_c to X_c X_t and Z_t to
    Z_c Z_t."""
    img_x = [1 << v for v in range(n)]
    img_z = [1 << (v + n) for v in range(n)]
    noisy = []
    for kind, wires, p in reversed(events):
        if p > 0:
            v = wires[0]
            if kind == "idle":
                images: Tuple[int, ...] = (img_z[v],)
            elif kind == "h":
                images = (img_x[v], img_x[v] ^ img_z[v], img_z[v])
            else:
                table = [0]  # table[code]: the XOR of the parts its bits select
                for part in (img_x[v], img_z[v], img_x[wires[1]], img_z[wires[1]]):
                    table += [m ^ part for m in table]
                images = tuple(table[1:])
            noisy.append((p, images))
        if kind == "h":
            v = wires[0]
            img_x[v], img_z[v] = img_z[v], img_x[v]
        elif kind == "cx":
            c, t = wires
            img_x[c] ^= img_x[t]
            img_z[t] ^= img_z[c]
    noisy.reverse()
    return noisy


class _FaultTable:
    """The noisy events of one estimate as arrays: the Poisson rate of each
    over all shots (0 where p = 1), the events with p = 1, the number of
    fault types of each and their images, zero-padded to 15 columns."""

    def __init__(self, n: int, events, shots: int):
        noisy = _fault_images(n, events)
        self.shots = shots
        self.rate = np.array([0.0 if p >= 1 else shots * -math.log1p(-p) for p, _ in noisy])
        self.certain = np.array([e for e, (p, _) in enumerate(noisy) if p >= 1], dtype=np.int64)
        self.ntypes = np.array([len(images) for _, images in noisy], dtype=np.int64)
        self.images = np.zeros((len(noisy), 15), dtype=WORD)
        for e, (_, images) in enumerate(noisy):
            self.images[e, : len(images)] = images

    def sample(self, rng) -> Optional[np.ndarray]:
        """Final frame of every shot, or None without drawing when no event
        is noisy. Draws, in order: the arrival count of every noisy event
        (``poisson``), the shot of every arrival, then the fault type of
        every arrival and of every shot of each p = 1 event, in event order."""
        events, shots = len(self.rate), self.shots
        if not events:
            return None
        ev = np.repeat(np.arange(events), rng.poisson(self.rate))
        pos = rng.integers(0, shots, size=ev.size)
        if self.certain.size:
            ev = np.concatenate((ev, np.repeat(self.certain, shots)))
            pos = np.concatenate((pos, np.tile(np.arange(shots), self.certain.size)))
        kind = rng.integers(0, self.ntypes[ev])
        key = pos * events + ev
        order = np.argsort(key, kind="stable")  # arrivals of one (shot, event) stay in draw order
        first = np.ones(order.size, dtype=bool)
        first[1:] = key[order[1:]] != key[order[:-1]]
        hit = order[first]
        frame = np.zeros(shots, dtype=WORD)
        np.bitwise_xor.at(frame, pos[hit], self.images[ev[hit], kind[hit]])
        return frame


class _Readout:
    """Readout confusion of every qubit and, built on first use because
    elements often share a support, the readout of each support. Wire i of
    a support is its i-th qubit, and ``wires`` gives (k, 1) columns of each
    wire's outcome-word bit, its p01 and p10, and the shift that puts its
    observed bit at bit i of a shot's pattern, plus the mitigation weight of
    every pattern (None when not mitigating): the product of
    ``_mitigation_weights`` over the wires, multiplied in support order (at
    most 8 * 3^n bytes of tables). ``parity[sign]`` is sign times -1 to the
    number of a pattern's set bits."""

    def __init__(self, c: TimedCircuit, noise: NoiseModel, mitigate: bool):
        self.rates, self.weights = _readout_rates(c, noise, mitigate)
        self.supports: Dict[int, tuple] = {}
        parity = np.ones(1)
        for _ in range(c.n):
            parity = np.concatenate((parity, -parity))
        self.parity = {1: parity, -1: -parity}

    def wires(self, support: int) -> tuple:
        if support not in self.supports:
            vs = [v for v in range(support.bit_length()) if support >> v & 1]
            table = None
            if self.weights is not None:
                table = np.ones(1 << len(vs))
                for i, v in enumerate(vs):  # patterns with bit i are the upper half
                    w0, w1 = self.weights[v]
                    np.multiply(table[: 1 << i], w1, out=table[1 << i : 2 << i])
                    table[: 1 << i] *= w0
            p01, p10 = np.array([self.rates[v] for v in vs]).T[:, :, None]
            index = np.uint8 if len(vs) <= 8 else np.uint16
            masks = np.array([1 << v for v in vs], dtype=WORD)[:, None]
            self.supports[support] = (masks, p01, p10, np.arange(len(vs), dtype=index)[:, None], table)
        return self.supports[support]


def _summarize(vals: np.ndarray) -> Tuple[float, float]:
    """Mean and standard error of the mean: the arithmetic of ``vals.mean()``
    and ``vals.std(ddof=1) / sqrt(size)``, step for step, without their
    dispatch."""
    shots = vals.size
    mean = np.add.reduce(vals) / shots
    if shots == 1:
        return float(mean), 0.0
    dev = vals - mean
    dev *= dev
    return float(mean), float(math.sqrt(np.add.reduce(dev) / (shots - 1)) / math.sqrt(shots))


def _element_mc(
    n: int,
    element: PauliString,
    frame: Optional[np.ndarray],
    outcomes: _Outcomes,
    readout: _Readout,
    shots: int,
    rng,
) -> ElementEstimate:
    """One element's estimate from the shots' final frames (None: no
    faults). Each shot's outcome word is its frame's flips XOR b0 XOR the
    span row that its outcome draw selects."""
    b0, span = outcomes.of(element)
    if frame is None:
        word = np.full(shots, b0, dtype=WORD)
    else:
        # The basis change (H for X, S-dagger then H for Y) is noiseless, so
        # a Z outcome is flipped by the rotated frame's X bit: the frame's Z
        # bit under an X, X xor Z under a Y, its X bit under a Z.
        word = (frame & element.z_mask) ^ (frame >> n & element.x_mask) ^ b0
    if span.size > 1:
        free = span.size.bit_length() - 1
        u = rng.integers(0, 2, size=(shots, free), dtype=np.uint8)
        # The index has bit i from u[:, i]; a float32 product is exact
        # here (integer sums below 2^12) and faster than an integer one.
        word ^= span.take((u @ _POW2[:free]).astype(np.intp))

    # One (k, shots) block of readout uniforms: the same numbers as k draws.
    # A true 0 reads 1 when its uniform is below p01 and a true 1 reads 0
    # when it is below p10, so obs = bits ^ lt01 ^ (bits & (lt01 ^ lt10)).
    # Bit i of a shot's pattern is its observed bit on wire i.
    masks, p01, p10, shifts, weights = readout.wires(element.support())
    ru = rng.random((masks.shape[0], shots))
    bits = (word & masks) != 0
    lt01 = ru < p01
    obs = ru < p10
    obs ^= lt01
    obs &= bits
    obs ^= lt01
    obs ^= bits
    pattern = np.bitwise_or.reduce(obs.view(np.uint8) << shifts, axis=0)

    raw, err_raw = _summarize(readout.parity[element.sign].take(pattern))
    mit = err_mit = None
    if weights is not None:
        vals = weights.take(pattern)
        if element.sign < 0:
            np.negative(vals, out=vals)
        mit, err_mit = _summarize(vals)
    return ElementEstimate(element.label, raw, mit, err_raw, err_mit)


def sample_elements(
    c: TimedCircuit,
    noise: NoiseModel,
    events,
    ideal_tab: Tableau,
    group: Sequence[PauliString],
    shots: int,
    seed: int,
    mitigate: bool,
) -> List[ElementEstimate]:
    """Monte Carlo estimate of every group element; element k draws from its
    own stream, spawned from the seed with key (k,): its faults when some
    event is noisy, then its outcomes and readout. The identity element
    draws nothing: its value is its sign."""
    faults = _FaultTable(c.n, events, shots)
    outcomes = _Outcomes(ideal_tab)
    readout = _Readout(c, noise, mitigate)
    elements: List[ElementEstimate] = []
    for k, element in enumerate(group):
        if element.support() == 0:
            one = float(element.sign)
            elements.append(
                ElementEstimate(element.label, one, one if mitigate else None, 0.0, 0.0 if mitigate else None)
            )
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
            elements.append(_element_mc(c.n, element, faults.sample(rng), outcomes, readout, shots, rng))
    return elements


# ---------------------------------------------------------------------------
# Dense density-matrix oracle (small n)

_I2 = np.eye(2, dtype=complex)
_H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def _embed_1q(op: np.ndarray, q: int, n: int) -> np.ndarray:
    full = np.array([[1.0 + 0j]])
    for j in range(n - 1, -1, -1):  # qubit 0 on the least significant bit
        full = np.kron(full, op if j == q else _I2)
    return full


def _embed_cx(cq: int, tq: int, n: int) -> np.ndarray:
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        m2 = m ^ (1 << tq) if (m >> cq) & 1 else m
        u[m2, m] = 1.0
    return u


def _graph_statevector(c: TimedCircuit) -> np.ndarray:
    n = c.n
    dim = 1 << n
    psi = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)  # H on every qubit
    for u, v in c.graph.sorted_edges():
        for m in range(dim):
            if (m >> u) & 1 and (m >> v) & 1:
                psi[m] = -psi[m]
    return psi


def density_fidelity(c: TimedCircuit, events) -> float:
    """<G|rho|G> after dense channel evolution of the event stream from
    |0...0>; the caller checks the size cap."""
    n = c.n
    dim = 1 << n
    paulis = {
        v: (_embed_1q(_X2, v, n), _embed_1q(_Y2, v, n), _embed_1q(_Z2, v, n))
        for v in range(n)
    }

    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for kind, wires, p in events:
        if kind == "idle":
            z = paulis[wires[0]][2]
            rho = (1 - p) * rho + p * (z @ rho @ z)
            continue
        if kind == "h":
            u = _embed_1q(_H2, wires[0], n)
        else:
            u = _embed_cx(wires[0], wires[1], n)
        rho = u @ rho @ u.conj().T
        if p > 0:
            if kind == "h":
                x, y, z = paulis[wires[0]]
                rho = (1 - p) * rho + (p / 3) * (x @ rho @ x + y @ rho @ y + z @ rho @ z)
            else:
                mixed = np.zeros_like(rho)
                eye = np.eye(dim, dtype=complex)
                ops_a = (eye,) + paulis[wires[0]]
                ops_b = (eye,) + paulis[wires[1]]
                for ia in range(4):
                    for ib in range(4):
                        if ia == 0 and ib == 0:
                            continue
                        op = ops_a[ia] @ ops_b[ib]
                        mixed += op @ rho @ op.conj().T
                rho = (1 - p) * rho + (p / 15) * mixed

    psi = _graph_statevector(c)
    return float(np.real(psi.conj() @ rho @ psi))
