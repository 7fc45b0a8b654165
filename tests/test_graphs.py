import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gscompile.errors import CapExceededError, ValidationError
from gscompile.graphs import (
    GraphSpec,
    PauliString,
    builtin_graph,
    fig1_seven,
    graph_from_edges,
    linear_graph,
    load_graph,
    pauli_mul,
    ring_graph,
    star_graph,
    stabilizer_generators,
    stabilizer_group,
)
from gscompile.subiso import adjacency, embeddings_iter

# Independent dense-matrix oracle for Pauli algebra.
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)
_MAT = {(0, 0): _I, (1, 0): _X, (1, 1): _Y, (0, 1): _Z}


def dense(p: PauliString) -> np.ndarray:
    m = np.array([[p.sign + 0j]])
    for i in range(p.n - 1, -1, -1):
        m = np.kron(m, _MAT[((p.x_mask >> i) & 1, (p.z_mask >> i) & 1)])
    return m


def paulis(n):
    return st.builds(
        PauliString,
        n=st.just(n),
        x_mask=st.integers(0, (1 << n) - 1),
        z_mask=st.integers(0, (1 << n) - 1),
        sign=st.sampled_from([1, -1]),
    )


class TestPauliString:
    def test_label(self):
        p = PauliString(3, x_mask=0b011, z_mask=0b110, sign=-1)
        assert p.label == "-XYZ"

    def test_mask_bounds_checked(self):
        with pytest.raises(ValidationError):
            PauliString(2, x_mask=0b100, z_mask=0)

    def test_bad_sign(self):
        with pytest.raises(ValidationError):
            PauliString(1, 0, 0, sign=0)

    @given(paulis(3), paulis(3))
    @settings(max_examples=100)
    def test_commutes_with_matches_matrices(self, p, q):
        mp, mq = dense(p), dense(q)
        commute = np.allclose(mp @ mq, mq @ mp)
        assert p.commutes_with(q) == commute


class TestPauliMul:
    @given(paulis(3), paulis(3))
    @settings(max_examples=150)
    def test_matches_matrix_product_when_real(self, p, q):
        prod = dense(p) @ dense(q)
        try:
            r = pauli_mul(p, q)
        except AssertionError:
            # Imaginary global phase: the product matrix must not be real-signed.
            assert not (
                np.allclose(prod, dense(PauliString(3, p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask, 1)))
                or np.allclose(prod, dense(PauliString(3, p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask, -1)))
            )
            return
        assert np.allclose(prod, dense(r))

    def test_y_from_x_and_z_needs_phase(self):
        x = PauliString(1, 1, 0)
        z = PauliString(1, 0, 1)
        with pytest.raises(AssertionError):
            pauli_mul(x, z)  # XZ = -iY, not real

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            pauli_mul(PauliString(1, 0, 0), PauliString(2, 0, 0))


class TestGraphSpec:
    def test_rejects_disconnected(self):
        with pytest.raises(ValidationError):
            graph_from_edges(4, [(0, 1), (2, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            GraphSpec(2, frozenset({(1, 1)}))

    def test_canonicalizes_edges(self):
        g = graph_from_edges(3, [(1, 0), (2, 1)])
        assert g.sorted_edges() == [(0, 1), (1, 2)]

    def test_builtins(self):
        assert len(linear_graph(5).edges) == 4
        assert len(ring_graph(6).edges) == 6
        assert len(star_graph(5).edges) == 4
        f = fig1_seven()
        degs = sorted(len(f.neighbors(v)) for v in range(7))
        assert degs == [1, 1, 1, 1, 2, 3, 3]

    def test_builtin_names(self):
        assert builtin_graph("linear:4") == linear_graph(4)
        assert builtin_graph("fig1-seven") == fig1_seven()
        with pytest.raises(ValidationError):
            builtin_graph("grid:3")
        with pytest.raises(ValidationError):
            builtin_graph("linear:x")

    def test_load_graph(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        assert load_graph(p) == linear_graph(3)
        p.write_text(json.dumps({"n": 3, "edges": [], "extra": 1}))
        with pytest.raises(ValidationError):
            load_graph(p)


class TestStabilizers:
    def test_generators_linear3(self):
        labels = [p.label for p in stabilizer_generators(linear_graph(3))]
        assert labels == ["+XZI", "+ZXZ", "+IZX"]

    def test_group_size_and_closure(self):
        g = linear_graph(4)
        grp = stabilizer_group(g)
        assert len(grp) == 16
        assert grp[0].label == "+IIII"
        labels = {p.label for p in grp}
        assert len(labels) == 16
        # closed under multiplication
        for a in grp[:5]:
            for b in grp[:5]:
                assert pauli_mul(a, b).label in labels

    def test_group_mutually_commutes(self):
        grp = stabilizer_group(fig1_seven())
        gens = grp[1 : 1 + 7]
        for a in gens:
            for b in gens:
                assert a.commutes_with(b)

    def test_group_element_indexing(self):
        # element k is the product of generators in the bits of k
        g = linear_graph(3)
        gens = stabilizer_generators(g)
        grp = stabilizer_group(g)
        assert grp[0b011].label == pauli_mul(pauli_mul(grp[0], gens[0]), gens[1]).label

    def test_cap(self):
        with pytest.raises(CapExceededError):
            stabilizer_group(linear_graph(13))


class TestNativity:
    def test_triangle_not_native_to_tree(self):
        tri = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        topo = adjacency(4, [(0, 1), (1, 2), (2, 3)])
        assert next(embeddings_iter(tri.n, tri.edges, topo), None) is None

    def test_path_native_to_path(self):
        g = linear_graph(3)
        topo = adjacency(3, [(0, 1), (1, 2)])
        assert next(embeddings_iter(g.n, g.edges, topo), None) is not None
