"""numpy kernels of the noisy simulation: the Pauli-frame Monte Carlo
estimator and the dense density-matrix oracle, both replaying the event
stream of ``sim._event_stream``. ``sim.estimate_fidelity`` and
``sim.density_oracle`` validate their inputs and import this module once per
call, so numpy is loaded only when noise is simulated.

A frame is one boolean row per qubit for its X part and one for its Z part,
each holding every shot, so a gate or a fault is a few whole-row operations
and a CNOT fault touches only the shots it hits.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

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


# Fault bits of the drawn two-qubit Pauli code 1..15, one row per frame row
# it flips: X then Z on the first wire, X then Z on the second.
_CX_FAULT_BITS = (np.arange(16) >> np.arange(4)[:, None] & 1).astype(bool)


def _frame_apply_gate(fx, fz, kind: str, wires: Tuple[int, ...]) -> None:
    if kind == "h":
        v = wires[0]
        fx[v], fz[v] = fz[v], fx[v]  # rows are separate arrays: swap, no copy
    else:  # cx
        cq, tq = wires
        fx[tq] ^= fx[cq]
        fz[cq] ^= fz[tq]


def _frame_noise(fx, fz, rng, kind: str, wires: Tuple[int, ...], p: float) -> None:
    if p <= 0:
        return
    shots = len(fx[0])
    if kind == "idle":
        fz[wires[0]] ^= rng.random(shots) < p
    elif kind == "h":
        u = rng.random(shots)
        v = wires[0]
        fx[v] ^= u < 2 * p / 3  # X or Y component
        fz[v] ^= (u >= p / 3) & (u < p)  # Y or Z component
    else:  # cx: uniform over the 15 non-identity two-qubit Paulis
        hit = np.flatnonzero(rng.random(shots) < p)
        bits = _CX_FAULT_BITS[:, rng.integers(1, 16, size=shots)[hit]]
        a, b = wires
        for row, flips in zip((fx[a], fz[a], fx[b], fz[b]), bits):
            row[hit] ^= flips


def _element_mc(
    c: TimedCircuit,
    noise: NoiseModel,
    events,
    ideal_tab: Tableau,
    element: PauliString,
    shots: int,
    rng,
    mitigate: bool,
) -> ElementEstimate:
    b0, basis = _outcome_sampler(_rotated_tableau(ideal_tab, element))

    fx = [np.zeros(shots, dtype=bool) for _ in range(c.n)]  # one row per qubit
    fz = [np.zeros(shots, dtype=bool) for _ in range(c.n)]
    for kind, wires, p in events:
        if kind != "idle":
            _frame_apply_gate(fx, fz, kind, wires)
        _frame_noise(fx, fz, rng, kind, wires, p)

    # The basis change (H for X, S-dagger then H for Y) is noiseless, so a Z
    # outcome is flipped by the rotated frame's X bit: the frame's Z bit
    # under an X, X xor Z under a Y, its X bit under a Z.
    support = [v for v in range(c.n) if (element.support() >> v) & 1]
    ys, xs = element.x_mask & element.z_mask, element.x_mask & ~element.z_mask
    bits = np.array([fx[v] ^ fz[v] if ys >> v & 1 else fz[v] if xs >> v & 1 else fx[v] for v in support])
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
    own stream, spawned from the seed with key (k,). The identity element
    draws nothing: its value is its sign."""
    elements: List[ElementEstimate] = []
    for k, element in enumerate(group):
        if element.support() == 0:
            one = float(element.sign)
            elements.append(
                ElementEstimate(element.label, one, one if mitigate else None, 0.0, 0.0 if mitigate else None)
            )
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
            elements.append(_element_mc(c, noise, events, ideal_tab, element, shots, rng, mitigate))
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
