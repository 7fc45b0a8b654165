import json

import numpy as np
import pytest
from hypothesis import given, settings

from gscompile.errors import CapExceededError, ValidationError
from gscompile.graphs import (
    GraphSpec,
    PauliString,
    builtin_graph,
    fig1_seven,
    graph_from_edges,
    linear_graph,
    load_graph,
    mul_phase,
    ring_graph,
    star_graph,
    stabilizer_generators,
    stabilizer_group,
)

from conftest import mutated_json

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


def all_commute(ps) -> bool:
    """Whether the dense matrices of ps commute pairwise. Two Paulis commute
    or anticommute, and AB v = -BA v differs from BA v for any nonzero v, so
    one vector decides every pair: abv[a, :, b] = A B v against abv[b, :, a]."""
    mats = np.stack([dense(p) for p in ps])
    k, d = mats.shape[:2]
    v = np.random.default_rng(0).standard_normal(d)
    abv = (mats.reshape(k * d, d) @ (mats @ v).T).reshape(k, d, k)
    return np.allclose(abv, abv.transpose(2, 1, 0))


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


class TestPauliMul:
    def test_matches_matrix_product(self):
        # Every ordered pair of unsigned 3-qubit Paulis: PQ = i^phase * (P xor Q).
        ps = [PauliString(3, x, z) for x in range(8) for z in range(8)]
        mats = [dense(p) for p in ps]
        for p, mp in zip(ps, mats):
            for q, mq in zip(ps, mats):
                phase = mul_phase(p.x_mask, p.z_mask, q.x_mask, q.z_mask)
                prod = dense(PauliString(3, p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask))
                assert np.allclose(mp @ mq, 1j**phase * prod)

    def test_y_from_x_and_z_needs_phase(self):
        assert mul_phase(1, 0, 0, 1) == -1  # XZ = -iY
        assert mul_phase(0, 1, 1, 0) == 1  # ZX = iY


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
        adj = f.adjacency()
        degs = sorted(len(adj[v]) for v in range(7))
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

    @settings(max_examples=150, deadline=None)
    @given(mutated_json({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
    def test_load_graph_fails_closed(self, tmp_path_factory, data):
        # Any JSON value either loads or is refused with ValidationError.
        p = tmp_path_factory.getbasetemp() / "fuzz_graph.json"
        p.write_text(json.dumps(data))
        try:
            load_graph(p)
        except ValidationError:
            pass


class TestStabilizers:
    def test_generators_linear3(self):
        labels = [p.label for p in stabilizer_generators(linear_graph(3))]
        assert labels == ["+XZI", "+ZXZ", "+IZX"]

    def test_group_size_and_closure(self):
        for name in ("linear:4", "star:4"):
            grp = stabilizer_group(builtin_graph(name))
            assert len(grp) == 16
            assert grp[0].label == "+IIII"
            assert len({p.label for p in grp}) == 16
            # closed under multiplication: generators commute and square to I
            mats = [dense(p) for p in grp]
            for a in range(16):
                for b in range(16):
                    assert np.allclose(mats[a] @ mats[b], mats[a ^ b])

    def test_group_mutually_commutes(self):
        assert not all_commute([PauliString(1, 1, 0), PauliString(1, 0, 1)])  # X, Z
        g = fig1_seven()
        gens = stabilizer_generators(g)
        assert len(gens) == g.n
        assert all_commute(gens)
        assert all_commute(stabilizer_group(g))

    def test_group_element_indexing(self):
        # element k is the product of generators in the bits of k; ring:6
        # also meets products whose power of i is -2
        for name in ("linear:4", "star:4", "ring:6"):
            g = builtin_graph(name)
            gens = [dense(p) for p in stabilizer_generators(g)]
            for k, p in enumerate(stabilizer_group(g)):
                want = np.eye(2**g.n, dtype=complex)
                for i in range(g.n):
                    if (k >> i) & 1:
                        want = want @ gens[i]
                assert np.allclose(dense(p), want), (name, k)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            stabilizer_group(linear_graph(13))
