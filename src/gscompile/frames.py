"""numpy kernels of the noisy simulation: the stabilizer-measurement
estimator and the dense density-matrix oracle, both built on the event
stream of ``sim._event_stream``. ``sim.estimate_fidelity`` and
``sim.density_oracle`` validate their inputs and import this module once per
call, so numpy is loaded only when noise is simulated.

Every noise event is a Pauli channel, so the estimator follows no frame
shot by shot. One backward pass over the events gives the syndrome of each
fault type of each noisy event: the canonical rows of the prepared state
that its end-of-circuit image anticommutes with. A fault flips the outcome
of a stabilizer-group member exactly when its image anticommutes with the
member, so the member's expectation on the noisy state, its character, is
its sign times one factor per event (``_Group``). An element measured in its
basis reads a word on its k support wires whose distribution is the inverse
Walsh-Hadamard transform of its z-moments, each the character of the member
equal to the element restricted to a subset of the support (0 when none is),
with readout confusion applied per wire (``_distributions``). For the ideal
state these are the uniform outcomes over an affine subspace of Aaronson &
Gottesman (PRA 70, 052328, 2004). An element's raw and mitigated values are
the mean over that distribution of what a shot reading each word is worth:
exactly, in the analytic mode, or over one multinomial histogram of its
shots drawn from it, so the shots are independent draws of the noise model.
Either costs 2^k cells per element whatever the number of shots.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .circuit import TimedCircuit
from .graphs import PauliString, group_products
from .sim import ElementEstimate, NoiseModel, Tableau, _canonical, _mitigation_weights, _transpose

# ---------------------------------------------------------------------------
# Stabilizer-measurement estimator

BLOCK = 1 << 14  # a block's distribution and histogram cells are at most this


def _fault_syndromes(canon, events) -> List[Tuple[float, Tuple[int, ...]]]:
    """(p, syndromes) for each event with p > 0, in schedule order:
    syndromes[k] has bit r set when fault type k, inserted after the event's
    gate, anticommutes at the end of the circuit with canonical row r.
    The types are Z for an idle; X, Y, Z for an H; for a CNOT, type k is
    the two-qubit Pauli of code k + 1 (1..15), whose bits 0 and 1 are X and
    Z on the first wire and bits 2 and 3 X and Z on the second. The one
    backward pass keeps the syndromes of X_v and Z_v inserted at the current
    point. At the end X_v anticommutes with the rows whose Z mask has bit v,
    and Z_v with those whose X mask has it; H swaps X_v and Z_v, CNOT(c, t)
    maps X_c to X_c X_t and Z_t to Z_c Z_t, and a product's syndrome is the
    XOR of its factors'."""
    syn_x = _transpose([rz for _, _, rz, _ in canon])
    syn_z = _transpose([rx for _, rx, _, _ in canon])
    noisy = []
    for kind, wires, p in reversed(events):
        if p > 0:
            v = wires[0]
            if kind == "idle":
                syndromes: Tuple[int, ...] = (syn_z[v],)
            elif kind == "h":
                syndromes = (syn_x[v], syn_x[v] ^ syn_z[v], syn_z[v])
            else:
                table = [0]  # table[code]: the XOR of the parts its bits select
                for part in (syn_x[v], syn_z[v], syn_x[wires[1]], syn_z[wires[1]]):
                    table += [m ^ part for m in table]
                syndromes = tuple(table[1:])
            noisy.append((p, syndromes))
        if kind == "h":
            v = wires[0]
            syn_x[v], syn_z[v] = syn_z[v], syn_x[v]
        elif kind == "cx":
            c, t = wires
            syn_x[c] ^= syn_x[t]
            syn_z[t] ^= syn_z[c]
    noisy.reverse()
    return noisy


class _Group:
    """The state's stabilizer group under the noise: member j is the product
    of the canonical rows of the circuit's own tableau selected by the bits
    of j (``group_products``), kept as its word ``x | z << n`` and its
    character. ``index[b]`` is the member bit that word bit b selects: 1 << k
    when b is row k's pivot column, else 0. In reduced form the only member
    that can have a given word is the one its pivot bits select.

    A fault's syndrome (``_fault_syndromes``) has bit k set when its image
    anticommutes with row k, and it anticommutes with member j exactly when
    the syndrome and j share an odd number of bits. A noisy event with probability p and T fault
    types, a of which anticommute with the member, multiplies the member's
    expectation by 1 - 2 p a / T, so the character is (-1)^sign times the
    product of these factors over the events."""

    def __init__(self, tab: Tableau, events):
        n = tab.n
        canon = _canonical(tab)
        x, z, neg = np.array(group_products([row[1:] for row in canon]), dtype=np.int64).T
        self.word = x | z << n
        self.index = np.zeros(2 * n, dtype=np.int64)
        self.index[[col for col, *_ in canon]] = 1 << np.arange(n)
        self.chi = 1.0 - 2.0 * neg
        noisy = _fault_syndromes(canon, events)
        if not noisy:
            return
        faults = np.array([f for _, syndromes in noisy for f in syndromes], dtype=np.int64)
        syndrome = (faults[:, None] >> np.arange(n) & 1).astype(np.uint8)  # [f, k]: f anticommutes with row k
        odd = np.zeros((faults.size, 1), dtype=np.uint8)  # [f, j]: f anticommutes with member j
        for k in range(n):
            odd = np.concatenate((odd, odd ^ syndrome[:, k, None]), axis=1)
        ntypes = np.array([len(syndromes) for _, syndromes in noisy])
        anti = np.add.reduceat(odd, np.cumsum(ntypes) - ntypes, axis=0, dtype=np.uint8)  # a by (event, member)
        factor = anti * (-2.0 * np.array([p for p, _ in noisy]) / ntypes)[:, None]
        factor += 1.0
        self.chi *= factor.prod(axis=0)


def _kron(maps: np.ndarray) -> np.ndarray:
    """The tensor product of each row of maps, from shape (m, k, r, c) to
    (m, r^k, c^k): digit j of a row or column index of out[i], base r or c,
    picks the row or column of maps[i, j]. Factors multiply in ascending j."""
    m, k, r, c = maps.shape
    out = np.ones((m, 1, 1))
    for j in range(k):
        out = (maps[:, j, :, None, :, None] * out[:, None, :, None, :]).reshape(m, r * out.shape[1], c * out.shape[2])
    return out


def _distributions(members: _Group, x: np.ndarray, z: np.ndarray, wires: np.ndarray, readout: np.ndarray) -> np.ndarray:
    """The support-word distributions of a block of m elements of support
    size k, X masks x and Z masks z: row i is over the 2^k words whose bit j
    is the bit read on wire ``wires[i, j]``, the support in ascending order.
    The z-moment of each subset M of the support is the character of the
    member equal to the element restricted to M, 0 when no member is: after
    the element's basis change, Z on an X or Y wire is that wire's X or Y
    before it, so the moment is the restricted element's expectation on the
    unrotated state. On each wire, readout confusion mixes each moment with
    the moment without that wire, by the coefficients c0 = p10 - p01 and
    c1 = 1 - p01 - p10 (``readout[v]`` is vertex v's (p01, p10)), and one
    step of the inverse Walsh-Hadamard transform turns the pair into
    probabilities. Rounding is clipped into [0, 1]."""
    m, k = wires.shape
    n = members.index.size // 2
    p01, p10 = readout[wires, 0], readout[wires, 1]
    c0, c1 = p10 - p01, 1.0 - p01 - p10
    bx = x[:, None] >> wires & 1
    bz = z[:, None] >> wires & 1
    part = bx << wires | bz << (wires + n)  # the element's word bits on each wire
    step = bx * members.index[wires] ^ bz * members.index[wires + n]  # the member bits they select
    word = pick = np.zeros((m, 1), dtype=np.int64)
    for j in range(k):
        word = np.concatenate((word, word ^ part[:, j, None]), axis=1)
        pick = np.concatenate((pick, pick ^ step[:, j, None]), axis=1)
    dist = np.where(members.word[pick] == word, members.chi[pick], 0.0)
    # Wire j maps its (without, with) moments to its (0, 1) probabilities by
    # [[1 + c0, c1], [1 - c0, -c1]] / 2. The tensor product of these maps
    # acts on the low half of the word bits, then on the high half.
    maps = 0.5 * np.stack((np.stack((1 + c0, c1), -1), np.stack((1 - c0, -c1), -1)), -2)
    lo = k // 2
    dist = dist.reshape(m, 1 << (k - lo), 1 << lo) @ _kron(maps[:, :lo]).transpose(0, 2, 1)
    dist = (_kron(maps[:, lo:]) @ dist).reshape(m, -1)
    return np.clip(dist, 0.0, 1.0, out=dist)


def _summarize(hist: np.ndarray, vals: np.ndarray, shots: int) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the mean of each element of a block, from
    its histogram: ``hist[i, w]`` shots of element i read support word w,
    each worth ``vals[i, w]``. Two passes over the histogram: the mean, then
    the squared deviations from it, all exactly 0 at one shot."""
    mean = (hist * vals).sum(axis=1) / shots
    dev = vals - mean[:, None]
    dev *= dev
    return mean, np.sqrt((hist * dev).sum(axis=1) / max(shots - 1, 1)) / math.sqrt(shots)


def estimate_elements(
    c: TimedCircuit,
    noise: NoiseModel,
    events,
    ideal_tab: Tableau,
    group: List[PauliString],
    shots: int,
    seed: int,
    mitigate: bool,
    analytic: bool,
) -> List[ElementEstimate]:
    """Estimate of every group element. The elements other than the identity
    go by support size k, ascending, and within one size in group order, in
    blocks of ``BLOCK // 2^k`` elements (k <= 12, the group's cap), each
    with its (elements, 2^k) distributions P (``_distributions``). A shot
    read as word w is worth the element's sign times the parity of w, raw,
    and times the product of the read bits' ``_mitigation_weights``,
    mitigated: the raw table depends only on k, the mitigated one on the
    wires too. Analytic, an element's values are their exact means over P,
    with stderr 0, and nothing is drawn. Sampled, one stream seeded with the
    seed makes one kind of draw, ``multinomial(shots, P)`` per block, one
    histogram of support words per element, whose means and standard errors
    give the values. The identity draws nothing: its value is its sign."""
    n = c.n
    members = _Group(ideal_tab, events)
    rates = [noise.readout[q] for q in c.placement]
    readout = np.array(rates)
    x, z, supports = np.array([(el.x_mask, el.z_mask, el.support()) for el in group], dtype=np.int64).T
    on = supports[:, None] >> np.arange(n) & 1
    sizes = on.sum(axis=1)
    signs = np.array([float(el.sign) for el in group])
    stats = np.zeros((4, len(group)))  # raw, its stderr, mitigated, its stderr
    stats[0] = stats[2] = signs  # the identity's values
    # Mitigated, a read bit b on vertex v weighs weights[v, b], and a shot
    # the product over its bits.
    if mitigate:  # a confusion that cannot be inverted raises, naming the lowest vertex's qubit
        weights = np.array([_mitigation_weights(*rate) for rate in rates])
    rng = None if analytic else np.random.default_rng(np.random.SeedSequence(seed))
    parity = np.ones(1)
    for k in range(1, n + 1):
        parity = np.concatenate((parity, -parity))  # (-1)^popcount(w) over the 2^k support words
        todo = np.flatnonzero(sizes == k)
        per = BLOCK >> k
        for start in range(0, todo.size, per):
            ks = todo[start : start + per]
            wires = np.nonzero(on[ks])[1].reshape(ks.size, k)
            cells = _distributions(members, x[ks], z[ks], wires, readout)
            if rng is not None:
                cells = rng.multinomial(shots, cells)  # the histogram, in place of P
            tables = [(0, signs[ks, None] * parity)]
            if mitigate:
                tables.append((2, signs[ks, None] * _kron(weights[wires, :, None])[..., 0]))
            for row, vals in tables:
                if rng is None:
                    stats[row, ks] = (cells * vals).sum(axis=1)
                else:
                    stats[row : row + 2, ks] = _summarize(cells, vals, shots)
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


def _density_matrix(c: TimedCircuit, events) -> np.ndarray:
    """rho after dense channel evolution of the event stream from |0...0>,
    qubit 0 on the least significant bit; the caller checks the size cap."""
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
    return rho


def density_fidelity(c: TimedCircuit, events) -> float:
    """<G|rho|G> of ``_density_matrix``; the caller checks the size cap."""
    psi = _graph_statevector(c)
    return float(np.real(psi.conj() @ _density_matrix(c, events) @ psi))
