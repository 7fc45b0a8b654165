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
hit it and no gate is replayed per shot.

Faults and readout flips share one hit rule (``_hits``). A cell with hit
probability p, an (element, noisy event) or an (element, wire), gets
Poisson(shots * lambda) arrivals, lambda = -log(1 - p), each at a uniform
shot, and a shot is hit when at least one arrival lands on it. That happens
with probability exactly p, independently across shots and cells; a cell
with p = 1 hits every shot. A fault hit draws a uniform fault type. A wire's
readout hits, at p = max(p01, p10), are candidates, and a candidate flips
with chance p01 / max or p10 / max by its true bit.

Elements are sampled a block at a time, one shot slot per (element, shot),
from one stream. As in Stim's frame simulator, a shot's outcome is one
reference outcome XOR the flips of its frame times a uniform member of the
state's stabilizer group. An element's shots reduce to a histogram of its
support words, which gives its raw and mitigated values.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .circuit import TimedCircuit
from .graphs import PauliString, group_products
from .sim import ElementEstimate, NoiseModel, Tableau, _canonical, _readout_rates

# ---------------------------------------------------------------------------
# Pauli-frame Monte Carlo

WORD = np.uint32  # frames (2n bits) and outcome words: n <= 12, the group's cap
BLOCK = 1 << 14  # a block's shot slots and histogram entries are at most this


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

    ``of`` gives one outcome b0 per element from the checks' reduced row
    echelon form with each pivot at its row's lowest set bit: the pivots are
    the checks' lowest set bits, a row is the one check that hits exactly
    one pivot, and b0 sets the pivots of the rows with sign -1. Members
    commute with the checks, and the checks are the members without
    ``_flips``, so a uniform ``member`` flips to a uniform free direction."""

    def __init__(self, tab: Tableau):
        group = group_products([row[1:] for row in _canonical(tab)])
        self.gx, self.gz, self.neg = np.array(group, dtype=WORD).T
        self.member = self.gx | self.gz << tab.n
        self.full = (1 << tab.n) - 1

    def of(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """b0 of each element with X and Z masks from the (m, 1) arrays x, z."""
        not_a = self.full ^ x
        # After the basis change a member's X bits are gx off A, gz on the
        # X wires and gx ^ gz on the Y wires: all 0 exactly when these agree.
        check = (self.gx & (not_a | x & z)) == (self.gz & x)
        zs = self.gx | self.gz & not_a
        pivots = np.bitwise_or.reduce(np.where(check, zs & (~zs + 1), 0), axis=1, keepdims=True)
        pivot = zs & pivots
        row = check & (self.neg == 1) & (pivot & (pivot - 1) == 0)  # one pivot hit (or none: the identity)
        return np.bitwise_or.reduce(np.where(row, pivot, 0), axis=1)


def _flips(frame, x, z, n: int):
    """Outcome flips of frames measured after the basis change of an element
    with X mask x and Z mask z. The basis change (H for X, S-dagger then H
    for Y) is noiseless, so a Z outcome is flipped by the rotated frame's X
    bit: the frame's Z bit under an X, X xor Z under a Y, its X bit under a
    Z. Only the element's support gets flips."""
    return (frame & z) ^ (frame >> n & x)


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


def _rates(ps: Sequence[float], shots: int) -> Tuple[np.ndarray, np.ndarray]:
    """The Poisson rate over all shots of each hit probability p in ps,
    -shots * log(1 - p) (0 where p = 1), and the mask of the p = 1 ones."""
    return np.array([0.0 if p >= 1 else shots * -math.log1p(-p) for p in ps]), np.array([p >= 1 for p in ps])


def _hits(rng, rate: np.ndarray, certain: np.ndarray, shots: int) -> Tuple[np.ndarray, np.ndarray]:
    """The hits of a block's (elements, columns) cells by the module's hit
    rule, as (slot, column) arrays with slot ``element * shots + shot``,
    each hit once, in ascending order. Draws one Poisson arrival count per
    cell, row-major, at its ``rate``, then one shot per arrival; a
    ``certain`` cell hits every shot. Hits are deduplicated by one sort of
    the key ``slot << b | column``, which fits in int64 below 2^39 columns:
    ``sim.SHOTS_CAP`` keeps a block's slots within max(``BLOCK``, 2^24)."""
    elements, columns = rate.shape
    b = (columns - 1).bit_length()
    first = (np.arange(elements)[:, None] * shots << b | np.arange(columns)).ravel()  # each cell's key at shot 0
    key = np.repeat(first, rng.poisson(rate).ravel())
    key += rng.integers(0, shots, size=key.size) << b
    if certain.any():
        key = np.concatenate((key, (first[certain.ravel()][:, None] + (np.arange(shots) << b)).ravel()))
    key.sort()
    key = key[np.diff(key, prepend=-1) != 0]
    return key >> b, key & ((1 << b) - 1)


class _FaultTable:
    """The noisy events of one estimate as arrays: the rate and p = 1 mask
    of each (``_rates``), the number of fault types of each and their
    images, zero-padded to 15 columns."""

    def __init__(self, n: int, events, shots: int):
        noisy = _fault_images(n, events)
        self.shots = shots
        self.rate, self.certain = _rates([p for p, _ in noisy], shots)
        self.ntypes = np.array([len(images) for _, images in noisy], dtype=np.int64)
        self.images = np.zeros((len(noisy), 15), dtype=WORD)
        for e, (_, images) in enumerate(noisy):
            self.images[e, : len(images)] = images

    def sample(self, rng, elements: int) -> np.ndarray:
        """Fault frame of every shot slot of a block: the hits of its
        (element, noisy event) cells, then one type per hit in their order,
        an integer below 15 modulo the event's 1, 3 or 15 types, which
        divide 15, so types are uniform."""
        cells = (elements, self.rate.size)
        slot, event = _hits(rng, np.broadcast_to(self.rate, cells), np.broadcast_to(self.certain, cells), self.shots)
        kind = rng.integers(0, 15, size=slot.size) % self.ntypes.take(event)
        frame = np.zeros(elements * self.shots, dtype=WORD)
        np.bitwise_xor.at(frame, slot, self.images.take(event * 15 + kind))
        return frame


def _product_table(factors: Sequence[float]) -> np.ndarray:
    """table[w]: the product of factors[v] over the set bits v of w, taken
    in ascending v."""
    table = np.ones(1)
    for f in factors:
        table = np.concatenate((table, table * f))
    return table


class _Readout:
    """Readout confusion by vertex as the sparse draws use it: each wire's
    rate and p = 1 mask (``_rates``) at pmax = max(p01, p10), and ``flip[b *
    n + v]``, p01 / pmax or p10 / pmax as the true bit b is 0 or 1. Tables
    over support words w: ``parity[w]``, -1 to the number of set bits, and,
    when mitigating, ``ratio[w]`` and ``w0[w]``, the products of w1 / w0 and
    of w0 (``_mitigation_weights``) over the set bits: a shot that reads w
    on support S is worth w0[S] * ratio[w]."""

    def __init__(self, c: TimedCircuit, noise: NoiseModel, mitigate: bool, shots: int):
        rates, weights = _readout_rates(c, noise, mitigate)
        pmax = [max(rate) for rate in rates]
        self.rate, self.certain = _rates(pmax, shots)
        self.flip = np.array([rate[b] / p if p > 0 else 0.0 for b in (0, 1) for rate, p in zip(rates, pmax)])
        self.parity = _product_table([-1.0] * c.n)
        self.ratio = self.w0 = None
        if weights is not None:
            self.ratio = _product_table([w1 / w0 for w0, w1 in weights])
            self.w0 = _product_table([w0 for w0, _ in weights])

    def apply(self, rng, word: np.ndarray, supports: np.ndarray) -> None:
        """Flip the read bits of a block's (elements, shots) outcome words in
        place: the candidates are the hits of its (element, wire) cells, at
        rate 0 off the element's support, and each draws one uniform in
        their order, below whose flip chance the bit flips."""
        shots = word.shape[1]
        n = self.rate.size
        on = (supports[:, None] >> np.arange(n) & 1) == 1
        slot, wire = _hits(rng, self.rate * on, self.certain & on, shots)
        word = word.reshape(-1)
        bit = word.take(slot) >> wire & 1
        flip = rng.random(slot.size) < self.flip.take(bit * n + wire)
        # The flips of one slot are distinct bits, so their sum is their XOR.
        delta = np.zeros(word.size, dtype=WORD)
        np.add.at(delta, slot[flip], (1 << wire[flip]).astype(WORD))
        word ^= delta


def _summarize(hist: np.ndarray, table: np.ndarray, scale: np.ndarray, shots: int) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the mean of each element of a block, from
    its histogram: ``hist[i, w]`` shots of element i read support word w,
    each worth ``scale[i] * table[w]``. Two passes over the histogram: the
    mean, then the squared deviations from it, all exactly 0 at one shot."""
    vals = scale[:, None] * table
    mean = (hist * vals).sum(axis=1) / shots
    dev = vals - mean[:, None]
    dev *= dev
    return mean, np.sqrt((hist * dev).sum(axis=1) / max(shots - 1, 1)) / math.sqrt(shots)


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
    """Monte Carlo estimate of every group element, from one stream seeded
    with the seed. The elements other than the identity, in group order, go
    in blocks of ``max(1, BLOCK // max(shots, 2^n))``, so that a block's
    shot slots and its histograms stay within ``BLOCK`` entries. A block
    draws, in this order:

    - its faults (``_FaultTable.sample``): a Poisson arrival count per
      (element, noisy event), row-major, and a shot per arrival
      (``_hits``), then a fault type per hit, in ascending (slot, event)
      order;
    - one stabilizer-group member index per shot slot;
    - its readout (``_Readout.apply``): a Poisson candidate count per
      (element, wire), row-major, at rate 0 off the element's support, and
      a shot per candidate (``_hits``), then an acceptance uniform per hit, in
      ascending (slot, wire) order.

    A p = 1 cell hits every shot without a draw, and a rate of 0 draws no
    arrival. The identity element draws nothing: its value is its sign."""
    n = c.n
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    faults = _FaultTable(n, events, shots)
    outcomes = _Outcomes(ideal_tab)
    readout = _Readout(c, noise, mitigate, shots)
    x, z, supports = np.array([(el.x_mask, el.z_mask, el.support()) for el in group], dtype=WORD).T
    signs = np.array([float(el.sign) for el in group])
    stats = np.zeros((4, len(group)))  # raw, its stderr, mitigated, its stderr
    stats[0] = stats[2] = signs  # the identity's values
    todo = np.flatnonzero(supports)
    per = max(1, BLOCK // max(shots, 1 << n))
    for start in range(0, todo.size, per):
        ks = todo[start : start + per]
        frame = faults.sample(rng, ks.size)
        frame ^= outcomes.member.take(rng.integers(0, 1 << n, size=frame.size))
        bx, bz, support = x[ks, None], z[ks, None], supports[ks]
        word = _flips(frame.reshape(ks.size, shots), bx, bz, n) ^ (outcomes.of(bx, bz) & support)[:, None]
        readout.apply(rng, word, support)
        word |= (np.arange(ks.size, dtype=WORD) << n)[:, None]  # the element's row of the block's histogram
        hist = np.bincount(word.ravel(), minlength=ks.size << n).reshape(ks.size, -1)
        stats[:2, ks] = _summarize(hist, readout.parity, signs[ks], shots)
        if mitigate:
            stats[2:, ks] = _summarize(hist, readout.ratio, signs[ks] * readout.w0.take(support), shots)
    return [
        ElementEstimate(el.label, raw, mit if mitigate else None, err_raw, err_mit if mitigate else None)
        for el, (raw, err_raw, mit, err_mit) in zip(group, stats.T.tolist())
    ]


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
