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
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .circuit import TimedCircuit
from .graphs import PauliString
from .sim import ElementEstimate, NoiseModel, Tableau, _canonical, _mitigation_weights, _rotated_tableau

# ---------------------------------------------------------------------------
# Pauli-frame Monte Carlo


def _outcome_sampler(tab: Tableau):
    """All-qubit Z-measurement distribution of a stabilizer state.

    Outcomes are uniform over an affine subspace: returns (b0, basis) with
    b0 a particular outcome and basis rows spanning the free directions.
    They are read off the pure-Z rows of the canonical form: the row with
    pivot Z_j fixes b[j] given the free bits, whose own value in b0 is 0.
    """
    n = tab.n
    zrows = {col - n: (z, neg) for col, _, z, neg in _canonical(tab) if col >= n}
    b0 = np.zeros(n, dtype=np.uint8)
    for j, (_, neg) in zrows.items():
        b0[j] = neg
    free = [j for j in range(n) if j not in zrows]
    basis = np.zeros((len(free), n), dtype=np.uint8)
    for bi, fj in enumerate(free):
        basis[bi, fj] = 1
        for j, (z, _) in zrows.items():
            basis[bi, j] = (z >> fj) & 1
    return b0, basis


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
        self.dtype = np.uint32 if n <= 16 else np.uint64  # a frame has 2n bits
        self.images = np.zeros((len(noisy), 15), dtype=self.dtype)
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
        frame = np.zeros(shots, dtype=self.dtype)
        np.bitwise_xor.at(frame, pos[hit], self.images[ev[hit], kind[hit]])
        return frame


def _element_mc(
    c: TimedCircuit,
    noise: NoiseModel,
    frame: Optional[np.ndarray],
    ideal_tab: Tableau,
    element: PauliString,
    shots: int,
    rng,
    mitigate: bool,
) -> ElementEstimate:
    """One element's estimate from the shots' final frames (None: no faults)."""
    b0, basis = _outcome_sampler(_rotated_tableau(ideal_tab, element))
    support = [v for v in range(c.n) if (element.support() >> v) & 1]
    if frame is None:
        bits = np.zeros((len(support), shots), dtype=bool)
    else:
        # The basis change (H for X, S-dagger then H for Y) is noiseless, so
        # a Z outcome is flipped by the rotated frame's X bit: the frame's Z
        # bit under an X, X xor Z under a Y, its X bit under a Z.
        flips = (frame & element.z_mask) ^ (frame >> c.n & element.x_mask)
        bits = (flips & (1 << np.array(support, dtype=frame.dtype))[:, None]) != 0
    bits ^= b0[support, None] != 0
    if basis.shape[0]:
        u = rng.integers(0, 2, size=(shots, basis.shape[0]), dtype=np.uint8)
        for col, rows in zip(np.ascontiguousarray(u.T, dtype=bool), basis[:, support] != 0):
            bits[rows] ^= col  # a free direction flips the outcomes its basis row covers

    # One (k, shots) block of readout uniforms: the same numbers as k draws.
    p01, p10 = np.array([noise.readout[c.placement[v]] for v in support]).T[:, :, None]
    obs = bits ^ (rng.random((len(support), shots)) < np.where(bits, p10, p01))
    parity = np.bitwise_xor.reduce(obs, axis=0)

    def summarize(vals):
        err = float(vals.std(ddof=1) / math.sqrt(shots)) if shots > 1 else 0.0
        return float(vals.mean()), err

    raw, err_raw = summarize(element.sign * (1.0 - 2.0 * parity.astype(np.float64)))
    mit = err_mit = None
    if mitigate:
        weights = np.ones(shots, dtype=np.float64)  # multiplied in support order
        for row, v in zip(obs, support):
            w0, w1 = _mitigation_weights(*noise.readout[c.placement[v]])
            weights *= np.where(row, w1, w0)
        mit, err_mit = summarize(element.sign * weights)
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
    elements: List[ElementEstimate] = []
    for k, element in enumerate(group):
        if element.support() == 0:
            one = float(element.sign)
            elements.append(
                ElementEstimate(element.label, one, one if mitigate else None, 0.0, 0.0 if mitigate else None)
            )
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
            elements.append(_element_mc(c, noise, faults.sample(rng), ideal_tab, element, shots, rng, mitigate))
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
