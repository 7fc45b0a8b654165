import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gscompile import frames, sim
from gscompile.circuit import circuit_from_json, derive_circuit, naive_circuit
from gscompile.errors import CapExceededError, ValidationError
from gscompile.graphs import (
    PauliString,
    builtin_graph,
    graph_from_edges,
    linear_graph,
    ring_graph,
    star_graph,
    stabilizer_generators,
    stabilizer_group,
)
from gscompile.model import Objective, ObjectiveKind, build_model
from gscompile.sim import (
    NoiseModel,
    Tableau,
    _canonical,
    _member,
    _mitigation_weights,
    density_oracle,
    estimate_fidelity,
    expectation,
    simulate_ideal,
)
from gscompile.solver import solve_exact

from conftest import graph_calibration, identity_embedding, line_calibration, make_calibration

from test_graphs import dense  # dense-matrix Pauli oracle


def compiled(g, cal, kind=ObjectiveKind.SMT_RUNTIME):
    m = build_model(g, identity_embedding(g), cal, Objective(kind))
    return derive_circuit(m, solve_exact(m))


# ---------------------------------------------------------------------------
# Tableau vs dense statevector oracle

def statevector(n, ops):
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    one_qubit = {
        "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
        "sdg": np.diag([1, -1j]),
    }
    for kind, *ws in ops:
        if kind in one_qubit:
            q = ws[0]
            full = np.array([[1.0 + 0j]])
            for j in range(n - 1, -1, -1):
                full = np.kron(full, one_qubit[kind] if j == q else np.eye(2))
            psi = full @ psi
        else:
            c, t = ws
            out = np.zeros_like(psi)
            for m in range(1 << n):
                out[m ^ (1 << t) if (m >> c) & 1 else m] += psi[m]
            psi = out
    return psi


@st.composite
def clifford_ops(draw, n=3, max_len=8):
    ops = []
    for _ in range(draw(st.integers(0, max_len))):
        kind = draw(st.sampled_from(["h", "sdg", "cx"]))
        if kind != "cx":
            ops.append((kind, draw(st.integers(0, n - 1))))
        else:
            c = draw(st.integers(0, n - 1))
            t = draw(st.integers(0, n - 2))
            if t >= c:
                t += 1
            ops.append(("cx", c, t))
    return ops


class TestExpectationOracle:
    @given(clifford_ops(), st.integers(0, 7), st.integers(0, 7), st.sampled_from([1, -1]))
    @settings(max_examples=80, deadline=None)
    def test_matches_statevector(self, ops, xm, zm, sign):
        n = 3
        tab = tableau_of(n, ops)
        p = PauliString(n, xm, zm, sign)
        psi = statevector(n, ops)
        val = np.real(psi.conj() @ dense(p) @ psi)
        want = int(round(val)) if abs(abs(val) - 1) < 1e-9 or abs(val) < 1e-9 else None
        assert want is not None
        assert expectation(tab, p) == want

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            expectation(Tableau(2), PauliString(3, 0, 0))

    def test_dependent_rows_raise(self):
        # Both rows Z0Z1: rank 1, so the rows fix no state. Z0 commutes with
        # both, yet no element has its bits; the check fails closed.
        tab = Tableau(2)
        tab.z = [0b11, 0b11]
        with pytest.raises(ValidationError, match="rank 1"):
            expectation(tab, PauliString(2, 0, 0b01))

    def test_anticommuting_rows_raise(self):
        # Rows X0 and Z0 are independent but anticommute, so they fix no
        # state; read as a span they would give +Y0 the sign -1.
        tab = Tableau(2)
        tab.x, tab.z = [0b01, 0], [0b10, 0]
        for sign in (1, -1):
            with pytest.raises(ValidationError, match="rows 0 and 1 anticommute"):
                expectation(tab, PauliString(2, 0b01, 0b01, sign))


class TestSimulateIdeal:
    def test_single_edge_stabilizers(self):
        c = compiled(linear_graph(2), line_calibration(2))
        tab = simulate_ideal(c)
        assert expectation(tab, PauliString(2, 0b01, 0b10)) == 1  # XZ
        assert expectation(tab, PauliString(2, 0b10, 0b01)) == 1  # ZX

    def test_linear3_generators(self, sym3):
        c = compiled(linear_graph(3), sym3)
        tab = simulate_ideal(c)
        for gen in stabilizer_generators(linear_graph(3)):
            assert expectation(tab, gen) == 1

    def test_x_on_connected_vertex_vanishes(self, sym3):
        tab = simulate_ideal(compiled(linear_graph(3), sym3))
        assert expectation(tab, PauliString(3, 0b001, 0)) == 0

    def test_naive_and_optimized_agree(self):
        for g in (linear_graph(4), star_graph(4), ring_graph(4)):
            cal = graph_calibration(g)
            opt = simulate_ideal(compiled(g, cal))
            nai = simulate_ideal(naive_circuit(g, identity_embedding(g), cal))
            for el in stabilizer_group(g):
                assert expectation(opt, el) == expectation(nai, el) == 1

    def test_group_level_check_all_objectives(self, sym3):
        g = linear_graph(3)
        for kind in ObjectiveKind:
            tab = simulate_ideal(compiled(g, sym3, kind))
            assert all(expectation(tab, el) == 1 for el in stabilizer_group(g))


def test_expectation_golden():
    # Every group element and 300 seeded random signed Paulis (most of them
    # anticommute with some stabilizer) on naive and compiled circuits:
    # hashed, so every expectation is pinned bit for bit.
    h = hashlib.sha256()
    for name in ("linear:8", "linear:10", "linear:11", "fig1-seven", "star:4"):
        g = builtin_graph(name)
        cal = graph_calibration(g)
        rng = random.Random(name)
        paulis = stabilizer_group(g) + [
            PauliString(g.n, rng.getrandbits(g.n), rng.getrandbits(g.n), rng.choice((1, -1)))
            for _ in range(300)
        ]
        for c in (naive_circuit(g, identity_embedding(g), cal), compiled(g, cal)):
            tab = simulate_ideal(c)
            h.update(bytes(expectation(tab, p) % 3 for p in paulis))
    assert h.hexdigest() == "38f0848740253190d6c47034aa57b81d9ef9c5c71183fbbe037068d14c0eeb66"


def test_analytic_golden():
    # Analytic estimates under full noise, every per-element value hashed,
    # so their arithmetic is pinned bit for bit; where the density oracle
    # reaches, the mitigated fidelity is its value.
    h = hashlib.sha256()
    for n in (4, 5, 6):
        g = linear_graph(n)
        cal = graph_calibration(g, **NOISY)
        c, noise = compiled(g, cal), NoiseModel.from_calibration(cal)
        est = estimate_fidelity(c, noise, analytic=True, mitigate=True)
        if n <= sim.DENSITY_CAP:
            assert abs(est.fidelity_mitigated - density_oracle(c, noise)) <= 1e-12
        h.update(repr(est).encode())
    # Mitigated 0.29781, 0.22940 and 0.18118; raw 0.21614, 0.15193 and
    # 0.10947. The repr holds shots and seed, None since an analytic
    # estimate draws nothing; with them 4096 and 0 the digest was
    # 21ea0961eda177996b1f31929bb218b6eea67650493f9c4e527a910dfb11caf0.
    assert h.hexdigest() == "52f4cdf47c06bbbb47dfcfe87ff0886016f66114b45f84db5989f7f72abd7554"


class TestNoiseModel:
    def test_from_calibration(self, sym3):
        nm = NoiseModel.from_calibration(sym3)
        assert nm.sq_error[0] == 0.001
        assert nm.cx_error[(0, 1)] == 0.01
        assert nm.coherence_ns[2] == 100000.0
        assert nm.readout[1] == (0.02, 0.03)

    def test_noiseless_transformers(self, sym3):
        nm = NoiseModel.noiseless(sym3)
        assert all(v == 0 for v in nm.sq_error.values())
        assert all(v == 0 for v in nm.cx_error.values())
        assert all(math.isinf(v) for v in nm.coherence_ns.values())
        assert all(v == (0.0, 0.0) for v in nm.readout.values())
        ro = NoiseModel.readout_only(sym3)
        assert ro.readout[0] == (0.02, 0.03)
        assert all(v == 0 for v in ro.sq_error.values())

    @pytest.mark.parametrize(
        "field, key, value, where",
        [
            ("coherence_ns", 2, 0.0, r"coherence_ns\[2\]"),  # a bare ZeroDivisionError before
            ("coherence_ns", 2, -5.0, r"coherence_ns\[2\]"),  # a density-oracle value of 2e44
            ("coherence_ns", 2, math.nan, r"coherence_ns\[2\]"),
            ("sq_error", 1, 1.5, r"sq_error\[1\]"),  # sampled without complaint
            ("sq_error", 1, math.nan, r"sq_error\[1\]"),  # silently no noise
            ("cx_error", (0, 1), -0.1, r"cx_error\[\(0, 1\)\]"),
            ("cx_error", (0, 1), math.inf, r"cx_error\[\(0, 1\)\]"),
            ("readout", 0, (1.5, 0.0), r"readout\[0\]"),  # an analytic fidelity below 0
            ("readout", 0, (0.0, math.nan), r"readout\[0\]"),
            ("readout", 0, 0.5, r"readout\[0\]"),
            ("sq_error", 1, "0.1", r"sq_error\[1\]"),
        ],
    )
    def test_impossible_rates_rejected(self, sym3, field, key, value, where):
        nm = NoiseModel.from_calibration(sym3)
        with pytest.raises(ValidationError, match=where):
            dataclasses.replace(nm, **{field: {**getattr(nm, field), key: value}})

    def test_boundary_values_accepted(self, sym3):
        nm = NoiseModel.from_calibration(sym3)
        nm = dataclasses.replace(
            nm,
            coherence_ns={q: math.inf for q in nm.coherence_ns},
            sq_error={q: 1.0 for q in nm.sq_error},
            readout={q: (0, 1.0) for q in nm.readout},
        )
        assert nm.readout[2] == (0, 1.0)


class TestEstimateFidelity:
    def test_zero_noise_exactly_one(self, sym3):
        c = compiled(linear_graph(3), sym3)
        est = estimate_fidelity(c, NoiseModel.noiseless(sym3), shots=32, seed=5)
        assert est.fidelity_raw == 1.0
        assert est.fidelity_mitigated is None

    def test_readout_only_mitigated_analytic(self, sym3):
        c = compiled(linear_graph(3), sym3)
        est = estimate_fidelity(
            c, NoiseModel.readout_only(sym3), mitigate=True, analytic=True
        )
        assert abs(est.fidelity_mitigated - 1.0) <= 1e-6
        assert est.fidelity_raw < 1.0  # raw suffers the confusion

    def test_analytic_matches_sampled_readout_only(self, sym3):
        c = compiled(linear_graph(2), line_calibration(2))
        noise = NoiseModel.readout_only(line_calibration(2, p01=0.05, p10=0.08))
        exact = estimate_fidelity(c, noise, analytic=True, mitigate=True)
        sampled = estimate_fidelity(c, noise, shots=60000, seed=11, mitigate=True)
        assert abs(sampled.fidelity_raw - exact.fidelity_raw) < 4 * sampled.stderr_raw
        assert (
            abs(sampled.fidelity_mitigated - exact.fidelity_mitigated)
            < 4 * sampled.stderr_mitigated
        )

    def test_readout_rate_one(self, sym3):
        # p01 = 1 on one wire: every true 0 on it reads 1, and its readout
        # coefficient 1 - p01 - p10 is 0.
        c = compiled(linear_graph(3), sym3)
        ro = NoiseModel.readout_only(sym3)
        noise = dataclasses.replace(ro, readout={**ro.readout, 1: (1.0, 0.0)})
        exact = estimate_fidelity(c, noise, analytic=True)
        sampled = estimate_fidelity(c, noise, shots=4000, seed=5)
        assert abs(sampled.fidelity_raw - exact.fidelity_raw) <= 4 * sampled.stderr_raw + 1e-12
        for got, want in zip(sampled.elements, exact.elements):
            assert abs(got.raw - want.raw) <= 4 * got.stderr_raw + 1e-12, got.label

    def test_seed_determinism(self, sym3):
        c = compiled(linear_graph(3), sym3)
        noise = NoiseModel.from_calibration(sym3)
        a = estimate_fidelity(c, noise, shots=500, seed=42, mitigate=True)
        b = estimate_fidelity(c, noise, shots=500, seed=42, mitigate=True)
        assert a == b
        c2 = estimate_fidelity(c, noise, shots=500, seed=43, mitigate=True)
        assert a.fidelity_raw != c2.fidelity_raw

    def test_shots_validated(self, sym3):
        c = compiled(linear_graph(2), line_calibration(2))
        with pytest.raises(ValidationError):
            estimate_fidelity(c, NoiseModel.noiseless(line_calibration(2)), shots=0)

    def test_shots_cap(self, monkeypatch):
        # Refused before any sampling. The analytic estimate draws no shots:
        # their number and the seed change none of its values, and it
        # reports neither.
        c = compiled(linear_graph(3), line_calibration(3))
        noise = NoiseModel.from_calibration(line_calibration(3))
        with monkeypatch.context() as mp:
            mp.setattr(frames, "estimate_elements", lambda *args: pytest.fail("sampled above the cap"))
            with pytest.raises(CapExceededError, match=f"shots <= {sim.SHOTS_CAP}, got {sim.SHOTS_CAP + 1}; use fewer shots"):
                estimate_fidelity(c, noise, shots=sim.SHOTS_CAP + 1)
        assert sim.SHOTS_CAP == 1 << 24
        big = estimate_fidelity(c, noise, shots=sim.SHOTS_CAP + 1, analytic=True, mitigate=True)
        assert big.shots is None and big.seed is None
        assert big.elements == estimate_fidelity(c, noise, shots=1, seed=7, analytic=True, mitigate=True).elements

    @pytest.mark.parametrize("shots", [2.5, True, "8"])
    def test_shots_must_be_an_integer(self, shots):
        c = compiled(linear_graph(2), line_calibration(2))
        with pytest.raises(ValidationError, match="shots must be a positive integer"):
            estimate_fidelity(c, NoiseModel.noiseless(line_calibration(2)), shots=shots)

    def test_noise_calibration_must_cover_the_circuit(self, sym3):
        c = compiled(linear_graph(3), sym3)
        with pytest.raises(ValidationError, match=r"placement\[2\]: qubit 2"):
            estimate_fidelity(c, NoiseModel.from_calibration(line_calibration(2)), shots=8)
        k = next(k for k, g in enumerate(c.gates) if g.kind == "cx" and set(g.wires) == {1, 2})
        no_coupler = NoiseModel.from_calibration(make_calibration(3, [(0, 1)]))
        with pytest.raises(ValidationError, match=rf"gates\[{k}\].wires: no coupler 1-2"):
            estimate_fidelity(c, no_coupler, shots=8)
        with pytest.raises(ValidationError, match=rf"gates\[{k}\].wires"):
            density_oracle(c, no_coupler)

    def test_monotone_under_rate_scaling(self):
        # fidelity falls as gate error rates rise (MC trend on fixed seed)
        g = linear_graph(3)
        cal = line_calibration(3)
        c = compiled(g, cal)
        vals = []
        for scale in (0.0, 0.05, 0.15):
            nm = NoiseModel(
                sq_error={q: scale / 10 for q in range(3)},
                cx_error={(0, 1): scale, (1, 2): scale},
                coherence_ns={q: math.inf for q in range(3)},
                readout={q: (0.0, 0.0) for q in range(3)},
            )
            vals.append(estimate_fidelity(c, nm, shots=20000, seed=1).fidelity_raw)
        assert vals[0] == 1.0 and vals[0] > vals[1] > vals[2]


class TestDensityOracle:
    def test_zero_noise_is_one(self, sym3):
        c = compiled(linear_graph(3), sym3)
        assert density_oracle(c, NoiseModel.noiseless(sym3)) == pytest.approx(1.0, abs=1e-10)

    def test_cap(self):
        g = linear_graph(6)
        cal = line_calibration(6)
        c = compiled(g, cal)
        with pytest.raises(CapExceededError):
            density_oracle(c, NoiseModel.noiseless(cal))

    def test_mc_agrees_single_edge_depolarizing(self):
        cal = line_calibration(2, cx_error=0.1, sq_error=0.0, p01=0.0, p10=0.0)
        cal = cal  # coherence long enough to be negligible at 100 us
        c = compiled(linear_graph(2), cal, ObjectiveKind.MIN_MAKESPAN)
        noise = NoiseModel.from_calibration(cal)
        exact = density_oracle(c, noise)
        est = estimate_fidelity(c, noise, shots=100000, seed=9)
        assert abs(est.fidelity_raw - exact) <= 3 * est.stderr_raw

    def test_mitigated_mc_agrees_under_full_noise(self, sym3):
        # readout mitigation unbiases the estimate of <G|rho|G>
        c = compiled(linear_graph(3), sym3)
        noise = NoiseModel.from_calibration(sym3)
        exact = density_oracle(c, noise)
        est = estimate_fidelity(c, noise, shots=100000, seed=2, mitigate=True)
        assert abs(est.fidelity_mitigated - exact) <= 3 * est.stderr_mitigated

    @pytest.mark.parametrize("form", ["compiled", "naive"])
    def test_mitigated_mc_unbiased_over_seeds(self, form):
        # The whole estimate's bias, distributions, draws and statistics
        # together, is bounded statistically: over 20 seeds the z-scores
        # against the exact value have mean within 3 sigma of 0.
        c = reference_circuit("linear:4", form)
        noise = NoiseModel.from_calibration(graph_calibration(c.graph, **NOISY))
        exact = density_oracle(c, noise)
        z = []
        for seed in range(20):
            est = estimate_fidelity(c, noise, shots=2000, seed=seed, mitigate=True)
            z.append((est.fidelity_mitigated - exact) / est.stderr_mitigated)
        assert abs(sum(z) / len(z)) <= 3 / math.sqrt(len(z))
        assert max(abs(v) for v in z) < 5

    def test_one_block_unbiased_over_seeds(self):
        # A naive 5-vertex circuit has 31 elements besides the identity, and
        # the elements of each support size fit in one block; the same bound
        # as above over 20 seeds.
        c = reference_circuit("linear:5", "naive")
        assert all(len(block) <= frames.BLOCK >> k for k, block in support_blocks(stabilizer_group(c.graph)))
        noise = NoiseModel.from_calibration(graph_calibration(c.graph, **NOISY))
        exact = density_oracle(c, noise)
        z = []
        for seed in range(20):
            est = estimate_fidelity(c, noise, shots=256, seed=seed, mitigate=True)
            z.append((est.fidelity_mitigated - exact) / est.stderr_mitigated)
        assert abs(sum(z) / len(z)) <= 3 / math.sqrt(len(z))
        assert max(abs(v) for v in z) < 5

    @pytest.mark.parametrize("name, form", [("linear:4", "compiled"), ("linear:4", "naive"), ("star:4", "naive"), ("linear:2", "product")])
    @pytest.mark.parametrize("model", ["full", "certain"])
    def test_mitigated_at_shots_cap(self, name, form, model):
        # At the cap the stderr is about 1e-4, some 20x tighter than the
        # 100,000-shot checks, and the estimate is still within 4 sigma.
        c = reference_circuit(name, form)
        noise = reference_noise(c, model)
        est = estimate_fidelity(c, noise, shots=sim.SHOTS_CAP, seed=0, mitigate=True)
        assert est.stderr_mitigated < 2e-4
        assert abs(est.fidelity_mitigated - density_oracle(c, noise)) <= 4 * est.stderr_mitigated

    @pytest.mark.parametrize("rates", [dict(cx_error=1.0), dict(sq_error=1.0)])
    def test_certain_faults_agree(self, rates):
        # p = 1: every shot gets one fault of the event, and an event's
        # factor 1 - 2a/T can be negative.
        g = star_graph(4)
        cal = graph_calibration(g, **dict(NOISY, **rates))
        noise = NoiseModel.from_calibration(cal)
        for c in (compiled(g, cal), naive_circuit(g, identity_embedding(g), cal)):
            exact = density_oracle(c, noise)
            est = estimate_fidelity(c, noise, shots=20000, seed=3, mitigate=True)
            assert abs(est.fidelity_mitigated - exact) <= 4 * est.stderr_mitigated

    def test_dephasing_monotone_in_idle_time(self):
        # weaker coherence (longer effective idling) strictly lowers fidelity
        g = linear_graph(3)
        vals = []
        for coh in (50.0, 5.0, 0.5):
            cal = line_calibration(3, coherence_us=coh, sq_error=0.0, cx_error=0.0, p01=0.0, p10=0.0)
            c = compiled(g, cal)
            vals.append(density_oracle(c, NoiseModel.from_calibration(cal)))
        assert vals[0] > vals[1] > vals[2]

    def test_optimized_beats_naive(self):
        g = linear_graph(3)
        cal = line_calibration(3, coherence_us=20.0)
        e = identity_embedding(g)
        noise = NoiseModel.from_calibration(cal)
        opt = density_oracle(compiled(g, cal), noise)
        nai = density_oracle(naive_circuit(g, e, cal), noise)
        assert opt >= nai


# ---------------------------------------------------------------------------
# Frame kernel pinned against the dense density matrix and a replay of its draws


def _sdg(tab: Tableau, q: int) -> None:
    """S-dagger on a tableau: not a gate of any circuit, so only the tests'
    states and basis changes use it."""
    tab.canon = None
    tab.r ^= tab.x[q] & ~tab.z[q]
    tab.z[q] ^= tab.x[q]


def tableau_of(n, ops):
    """The tableau of a ``clifford_ops`` sequence applied to |0...0>."""
    tab = Tableau(n)
    for kind, *ws in ops:
        {"h": Tableau.h, "sdg": _sdg, "cx": Tableau.cx}[kind](tab, *ws)
    return tab


def _rotated_tableau(tab: Tableau, element: PauliString) -> Tableau:
    """A copy of the state after the basis change mapping each X of the
    element to Z (H) and each Y to Z (S-dagger, then H)."""
    t = Tableau(tab.n)
    t.x, t.z, t.r = list(tab.x), list(tab.z), tab.r
    for v in range(element.n):
        if (element.x_mask >> v) & 1:
            if (element.z_mask >> v) & 1:
                _sdg(t, v)
            t.h(v)
    return t


def _outcome_sampler(tab: Tableau):
    """All-qubit Z-measurement distribution of a stabilizer state, by
    elimination: (b0, basis) with b0 a particular outcome and basis rows
    spanning the free directions, read off the pure-Z rows of the canonical
    form. The row with pivot Z_j fixes b[j] given the free bits, whose own
    value in b0 is 0."""
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


def support_wires(element: PauliString):
    return [v for v in range(element.n) if element.support() >> v & 1]


def support_blocks(group):
    """The elements other than the identity by support size k, ascending,
    each size in group order: (k, elements) pairs."""
    sizes = sorted({len(support_wires(el)) for el in group} - {0})
    return [(k, [el for el in group if len(support_wires(el)) == k]) for k in sizes]


def kernel_distributions(members, elements, readout):
    """``frames._distributions`` of elements of one support size, as one block."""
    x = np.array([el.x_mask for el in elements])
    z = np.array([el.z_mask for el in elements])
    wires = np.array([support_wires(el) for el in elements])
    return frames._distributions(members, x, z, wires, np.array(readout, dtype=float))


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_SDG = np.diag([1, -1j])


def dense_distribution(rho, element, rates):
    """The distribution of the element's support word measured on rho: the
    basis change (H on each X wire, S-dagger then H on each Y wire; qubit v
    is bit v of a basis index), the diagonal, its marginal with bit j the
    j-th support wire, then each support wire's confusion matrix
    [[1 - p01, p10], [p01, 1 - p10]], column the true bit and row the read
    one."""
    u = np.eye(1)
    for v in range(element.n - 1, -1, -1):
        x, z = element.x_mask >> v & 1, element.z_mask >> v & 1
        u = np.kron(u, _H @ _SDG if x and z else _H if x else np.eye(2))
    probs = np.real(np.diag(u @ rho @ u.conj().T))
    wires = support_wires(element)
    dist = np.zeros(1 << len(wires))
    for b, pb in enumerate(probs):
        dist[sum((b >> v & 1) << j for j, v in enumerate(wires))] += pb
    for j, v in enumerate(wires):
        p01, p10 = rates[v]
        confusion = np.array([[1 - p01, p10], [p01, 1 - p10]])
        dist = np.einsum("rb,hbl->hrl", confusion, dist.reshape(-1, 2, 1 << j)).ravel()
    return dist


def replay_sample_elements(c, noise, events, ideal_tab, group, shots, seed, mitigate, analytic):
    """The kernel's draws replayed from its docstring: one stream; the
    elements by support size k, then group order, in blocks of BLOCK // 2^k;
    one multinomial per block of its ``frames._distributions``. Sampled
    estimates only: the analytic ones draw nothing, and
    ``TestAnalyticExact`` checks them against the density matrix.
    Each word's value is computed one word at a time: the sign times (-1)
    per read 1, raw, and times the read bits' mitigation weights, in
    ascending wire order, mitigated."""
    assert not analytic
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    members = frames._Group(ideal_tab, events)
    rates = [noise.readout[q] for q in c.placement]
    weights = [_mitigation_weights(*rate) for rate in rates]
    values = {}
    for k, todo in support_blocks(group):
        per = frames.BLOCK >> k
        for start in range(0, len(todo), per):
            block = todo[start : start + per]
            hist = rng.multinomial(shots, kernel_distributions(members, block, rates))
            raw = [[el.sign * (-1.0) ** bin(w).count("1") for w in range(1 << k)] for el in block]
            raw, err_raw = frames._summarize(hist, np.array(raw), shots)
            mit = err_mit = [None] * len(block)
            if mitigate:
                table = []
                for el in block:
                    row = []
                    for w in range(1 << k):
                        value = 1.0
                        for j, v in enumerate(support_wires(el)):
                            value *= weights[v][w >> j & 1]
                        row.append(el.sign * value)
                    table.append(row)
                mit, err_mit = (a.tolist() for a in frames._summarize(hist, np.array(table), shots))
            for i, el in enumerate(block):
                values[el.label] = sim.ElementEstimate(el.label, float(raw[i]), mit[i], float(err_raw[i]), err_mit[i])

    def one(el):  # the identity: its sign, drawn from nothing
        sign = float(el.sign)
        return sim.ElementEstimate(el.label, sign, sign if mitigate else None, 0.0, 0.0 if mitigate else None)

    return [values.get(el.label) or one(el) for el in group]


NOISY = dict(sq_error=0.05, cx_error=0.2, coherence_us=0.5, p01=0.05, p10=0.08)
NOISE_MODELS = ["noiseless", "readout-only", "full", "certain"]
REFERENCE_CIRCUITS = [(g, f) for g in ("linear:3", "linear:4", "star:4") for f in ("compiled", "naive")] + [
    ("linear:2", "product")
]


def reference_circuit(name, form):
    if form == "product":
        # CNOT on |00> then H: the product state |+0>, so the XZ setting of the
        # edge's stabilizer group has a deterministic outcome (empty basis).
        return circuit_from_json({
            "n": 2,
            "placement": [0, 1],
            "makespan_ns": 400,
            "gates": [
                {"kind": "cx", "wires": [0, 1], "start_ns": 0, "end_ns": 300},
                {"kind": "h", "wires": [0], "start_ns": 300, "end_ns": 335},
            ],
        })
    g = {
        "linear:3": linear_graph(3), "linear:4": linear_graph(4), "linear:5": linear_graph(5),
        "star:4": star_graph(4), "linear:9": linear_graph(9),
    }[name]
    cal = graph_calibration(g)
    return compiled(g, cal) if form == "compiled" else naive_circuit(g, identity_embedding(g), cal)


def reference_noise(c, model):
    """The reference cases' noise models; "certain" has p = 1 on every gate event."""
    rates = dict(NOISY, cx_error=1.0, sq_error=1.0) if model == "certain" else NOISY
    cal = graph_calibration(c.graph, **rates)
    return {
        "noiseless": NoiseModel.noiseless,  # every event has p = 0
        "readout-only": NoiseModel.readout_only,
        "full": NoiseModel.from_calibration,
        "certain": NoiseModel.from_calibration,
    }[model](cal)


def test_estimate_golden():
    # Sampled estimates under full noise, raw and mitigated, on a compiled
    # and a naive circuit: hashed with every per-element value, so the
    # sampler's draws and arithmetic are pinned bit for bit.
    h = hashlib.sha256()
    g = linear_graph(4)
    cal = graph_calibration(g, **NOISY)
    noise = NoiseModel.from_calibration(cal)
    for c in (compiled(g, cal), naive_circuit(g, identity_embedding(g), cal)):
        for mitigate in (False, True):
            h.update(repr(estimate_fidelity(c, noise, shots=500, seed=17, mitigate=mitigate)).encode())
    # The digest of one multinomial histogram per element from its exact
    # support-word distribution, in blocks by support size. Mitigated:
    # 0.3508 and 0.1078 against density-oracle values of 0.2978 and 0.1138
    # (stderr 0.017 each; the compiled value is a 3.2 sigma draw of this
    # seed, and 2^24 shots give 0.29773 +- 0.00009).
    assert h.hexdigest() == "c604132a8398c82d1438c6a1305525a133373cb39383e0df079bfae6365e2435"


def assert_matches_replay(monkeypatch, c, noise, shots, mitigate):
    got = estimate_fidelity(c, noise, shots=shots, seed=17, mitigate=mitigate)
    with monkeypatch.context() as mp:
        mp.setattr(frames, "estimate_elements", replay_sample_elements)
        want = estimate_fidelity(c, noise, shots=shots, seed=17, mitigate=mitigate)
    assert got == want


class TestFrameKernelReference:
    @pytest.mark.parametrize("name, form", REFERENCE_CIRCUITS)
    @pytest.mark.parametrize("model", NOISE_MODELS)
    def test_bit_identical_to_reference(self, monkeypatch, name, form, model):
        # Every element's distribution matches the density oracle's rho to
        # 1e-12, and the estimates are bit-identical to a replay of the
        # kernel's draws from those distributions.
        c = reference_circuit(name, form)
        noise = reference_noise(c, model)
        events = sim._event_stream(c, noise)
        rho = frames._density_matrix(c, events)
        rates = [noise.readout[q] for q in c.placement]
        members = frames._Group(simulate_ideal(c), events)
        for _, block in support_blocks(stabilizer_group(c.graph)):
            for el, got in zip(block, kernel_distributions(members, block, rates)):
                assert np.abs(got - dense_distribution(rho, el, rates)).max() <= 1e-12, el.label
        for mitigate in (False, True):
            for shots in (1, 500):
                assert_matches_replay(monkeypatch, c, noise, shots, mitigate)

    @pytest.mark.parametrize("shots", [1, 64])
    def test_element_heavy_bit_identical_to_reference(self, monkeypatch, shots):
        # 511 elements, some on all 9 qubits and some with 8 free outcome
        # directions. Blocks hold 2^14 cells: the 161 elements of support 7
        # fill one block of 128 and part of another, and so do the 123 of
        # support 8 (64 to a block) and the 37 of support 9 (32).
        c = reference_circuit("linear:9", "naive")
        tab = simulate_ideal(c)
        group = stabilizer_group(c.graph)[1:]
        assert any("I" not in el.label for el in group)
        assert max(_outcome_sampler(_rotated_tableau(tab, el))[1].shape[0] for el in group) == 8
        counts = {k: len(block) for k, block in support_blocks(group)}
        assert [(counts[k], frames.BLOCK >> k) for k in (7, 8, 9)] == [(161, 128), (123, 64), (37, 32)]
        noise = NoiseModel.from_calibration(graph_calibration(c.graph, **NOISY))
        assert_matches_replay(monkeypatch, c, noise, shots, mitigate=True)

    def test_cases_cover_y_and_empty_outcome_basis(self):
        def settings(name, form):
            c = reference_circuit(name, form)
            tab = simulate_ideal(c)
            for el in stabilizer_group(c.graph):
                _, basis = _outcome_sampler(_rotated_tableau(tab, el))
                yield el.label, basis.shape[0]

        assert any("Y" in label for label, _ in settings("linear:3", "naive"))
        assert any(free == 0 for _, free in settings("linear:2", "product"))


class TestAnalyticExact:
    @pytest.mark.parametrize("name, form", REFERENCE_CIRCUITS)
    @pytest.mark.parametrize("model", NOISE_MODELS)
    def test_matches_density_matrix(self, name, form, model):
        # The analytic estimate is exact under the full noise model: each
        # element's raw and mitigated values are the means of what a shot is
        # worth over its support-word distribution on the density oracle's
        # rho, with stderr 0, and the mitigated fidelity is the oracle's.
        c = reference_circuit(name, form)
        noise = reference_noise(c, model)
        rho = frames._density_matrix(c, sim._event_stream(c, noise))
        rates = [noise.readout[q] for q in c.placement]
        weights = [_mitigation_weights(*rate) for rate in rates]
        est = estimate_fidelity(c, noise, analytic=True, mitigate=True)
        for el, got in zip(stabilizer_group(c.graph), est.elements):
            dist = dense_distribution(rho, el, rates)
            wires = support_wires(el)
            raw = sum(pw * (-1) ** bin(w).count("1") for w, pw in enumerate(dist))
            mit = sum(pw * math.prod(weights[v][w >> j & 1] for j, v in enumerate(wires)) for w, pw in enumerate(dist))
            assert abs(got.raw - el.sign * raw) <= 1e-12, el.label
            assert abs(got.mitigated - el.sign * mit) <= 1e-12, el.label
            assert got.stderr_raw == got.stderr_mitigated == 0.0
        assert abs(est.fidelity_mitigated - density_oracle(c, noise)) <= 1e-12


# ---------------------------------------------------------------------------
# Closed-form outcome distributions against the tableau elimination


def assert_outcomes_match_tableau(c):
    """For every group element, the kernel's noiseless distribution (no noisy
    event, no readout error) is the elimination's on the rotated tableau: b0
    XOR each of the 2^free points of its span, read on the support, each with
    probability 2^-free."""
    n = c.n
    tab = simulate_ideal(c)
    members = frames._Group(tab, [])
    for k, block in support_blocks(stabilizer_group(c.graph)):
        for el, got in zip(block, kernel_distributions(members, block, np.zeros((n, 2)))):
            b0, basis = _outcome_sampler(_rotated_tableau(tab, el))
            points = np.array([b0 @ (1 << np.arange(n))])
            for row in basis:
                points = np.concatenate((points, points ^ int(row @ (1 << np.arange(n)))))
            words = sum((points >> v & 1) << j for j, v in enumerate(support_wires(el)))
            want = np.bincount(words, minlength=1 << k) / points.size
            assert np.abs(got - want).max() <= 1e-12, el.label


@st.composite
def connected_graphs(draw, max_n=7, max_extra=3):
    """A random tree on 2..max_n vertices plus up to max_extra more edges:
    at most 9 edges, within the exact search's CNOT cap."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(a, b) for b in range(n) for a in range(b) if (a, b) not in edges]
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), max_size=max_extra, unique=True)))
    return graph_from_edges(n, edges)


class TestClosedFormOutcomes:
    @given(connected_graphs(), st.sampled_from(["compiled", "naive"]))
    @settings(max_examples=30, deadline=None)
    def test_random_graphs(self, g, form):
        cal = graph_calibration(g)
        c = compiled(g, cal) if form == "compiled" else naive_circuit(g, identity_embedding(g), cal)
        assert_outcomes_match_tableau(c)

    def test_product_circuit(self):
        assert_outcomes_match_tableau(reference_circuit("linear:2", "product"))

    def test_circuit_missing_a_cnot(self):
        # Not the graph state: the distributions come from the circuit's own
        # tableau, so they must still match elimination on it.
        g = star_graph(5)
        c = naive_circuit(g, identity_embedding(g), graph_calibration(g))
        k = next(k for k, tg in enumerate(c.gates) if tg.kind == "cx")
        c = dataclasses.replace(c, gates=c.gates[:k] + c.gates[k + 1 :])
        assert expectation(simulate_ideal(c), stabilizer_generators(g)[0]) != 1
        assert_outcomes_match_tableau(c)

    def test_twelve_qubits(self):
        g = ring_graph(12)
        assert_outcomes_match_tableau(naive_circuit(g, identity_embedding(g), graph_calibration(g)))


# ---------------------------------------------------------------------------
# Restricted z-moments against the rotated tableau


@st.composite
def clifford_states(draw, max_n=4):
    n = draw(st.integers(2, max_n))
    return n, draw(clifford_ops(n=n, max_len=12))


class TestRestrictedZMoments:
    @given(clifford_states(), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_rotated_tableau(self, state, seed):
        # <Z_M> after a Pauli's basis change is the Pauli restricted to M on
        # the unrotated state, ``frames._distributions``' z-moment rule:
        # ``_member`` of the restricted masks on the unrotated canonical rows.
        # Every Pauli P, with a random sign that neither side may read, and
        # every M within its support.
        n, ops = state
        tab = tableau_of(n, ops)
        canon = _canonical(tab)
        rng = random.Random(seed)
        for x in range(1 << n):
            for z in range(1 << n):
                p = PauliString(n, x, z, rng.choice((1, -1)))
                rotated = _canonical(_rotated_tableau(tab, p))
                m = p.support()
                while True:  # every submask of the support, down to 0
                    assert _member(canon, p.x_mask & m, p.z_mask & m) == _member(rotated, 0, m), (p.label, m)
                    if m == 0:
                        break
                    m = (m - 1) & p.support()
