import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gscompile.circuit import derive_circuit, naive_circuit
from gscompile.errors import CapExceededError, ValidationError
from gscompile.graphs import (
    PauliString,
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
    density_oracle,
    estimate_fidelity,
    expectation,
    simulate_ideal,
)
from gscompile.solver import solve_exact

from conftest import graph_calibration, identity_embedding, line_calibration

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
        tab = Tableau(n)
        for kind, *ws in ops:
            getattr(tab, kind[:2] if kind == "cx" else kind)(*ws)
        p = PauliString(n, xm, zm, sign)
        psi = statevector(n, ops)
        val = np.real(psi.conj() @ dense(p) @ psi)
        want = int(round(val)) if abs(abs(val) - 1) < 1e-9 or abs(val) < 1e-9 else None
        assert want is not None
        assert expectation(tab, p) == want

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            expectation(Tableau(2), PauliString(3, 0, 0))


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
