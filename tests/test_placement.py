import itertools
import random
from dataclasses import replace

import pytest

from gscompile.device import (
    DeviceCalibration,
    load_calibration,
    sample_calibration_path,
    topology_graph,
)
from gscompile.errors import NotNativeError
from gscompile.graphs import builtin_graph, graph_from_edges, linear_graph
from gscompile.placement import (
    Embedding,
    best_placement,
    enumerate_embeddings,
    score_embedding,
)

from conftest import line_calibration, make_calibration, reference_placement


def brute_force_embeddings(g, cal):
    """Independent oracle: try every injective vertex->qubit tuple."""
    topo = topology_graph(cal)
    qubits = sorted(topo)
    found = []
    for perm in itertools.permutations(qubits, g.n):
        if all(perm[b] in topo[perm[a]] for a, b in g.edges):
            found.append(perm)
    return found


def test_linear2_into_path3_has_four_embeddings():
    cal = line_calibration(3)
    found = sorted(e.mapping for e in enumerate_embeddings(linear_graph(2), cal))
    assert found == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_triangle_into_tree_is_empty():
    tri = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    cal = line_calibration(4)
    assert list(enumerate_embeddings(tri, cal)) == []
    with pytest.raises(NotNativeError):
        best_placement(tri, cal)


def test_embeddings_unique_and_match_brute_force():
    g = graph_from_edges(4, [(0, 1), (1, 2), (1, 3)])  # star-ish
    cal = make_calibration(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    mine = sorted(e.mapping for e in enumerate_embeddings(g, cal))
    assert len(mine) == len(set(mine))
    assert mine == sorted(brute_force_embeddings(g, cal))


def test_linear8_count_matches_path_oracle():
    """Path embeddings = directed simple paths of length 8 in the topology."""
    cal = load_calibration(sample_calibration_path())
    topo = topology_graph(cal)

    def count_paths(length):
        total = 0
        def walk(v, seen, left):
            nonlocal total
            if left == 0:
                total += 1
                return
            for w in topo[v]:
                if w not in seen:
                    seen.add(w)
                    walk(w, seen, left - 1)
                    seen.remove(w)
        for v in topo:
            walk(v, {v}, length - 1)
        return total

    mine = sum(1 for _ in enumerate_embeddings(linear_graph(8), cal))
    assert mine == count_paths(8)


def test_score_trivial_cases():
    g = linear_graph(2)
    perfect = line_calibration(2, sq_error=0.0, cx_error=0.0)
    e = Embedding((0, 1), 0.0)
    assert score_embedding(e, g, perfect) == 1.0
    half = line_calibration(2, sq_error=0.0, cx_error=0.5)
    assert score_embedding(e, g, half) == 0.5


def test_best_placement_is_exhaustive_max():
    cal = load_calibration(sample_calibration_path())
    g = linear_graph(3)
    best = best_placement(g, cal)
    scores = [score_embedding(e, g, cal) for e in enumerate_embeddings(g, cal)]
    assert best.score == max(scores)


def test_best_placement_tie_break_deterministic():
    g = linear_graph(2)
    cal = line_calibration(3)  # all scores equal
    assert best_placement(g, cal).mapping == (0, 1)


def reerrored(cal, sq_error, cx_error):
    """The calibration with every qubit's and coupler's error replaced."""
    return DeviceCalibration(
        cal.snapshot_label,
        tuple(replace(q, sq_error=sq_error(q)) for q in cal.qubits),
        tuple(replace(c, error=cx_error(c)) for c in cal.couplers),
    )


SAMPLE = load_calibration(sample_calibration_path())
SAMPLE_GRAPHS = [f"linear:{n}" for n in range(2, 11)] + ["fig1-seven", "star:4", "ring:12"]
TIE_GRAPHS = ["linear:2", "linear:5", "linear:8", "fig1-seven", "star:4", "ring:12"]


def _two_level(seed):
    rng = random.Random(seed)
    return reerrored(
        SAMPLE,
        lambda q: rng.choice((0.01, 0.02)),
        lambda c: rng.choice((0.01, 0.02)),
    )


class TestBestPlacementReference:
    """best_placement equals the exhaustive reference, mapping and score."""

    @pytest.mark.parametrize("name", SAMPLE_GRAPHS)
    def test_sample27(self, name):
        g = builtin_graph(name)
        assert best_placement(g, SAMPLE) == reference_placement(g, SAMPLE)

    @pytest.mark.parametrize("name", TIE_GRAPHS)
    def test_all_errors_equal(self, name):
        cal = reerrored(SAMPLE, lambda q: 0.001, lambda c: 0.01)
        g = builtin_graph(name)
        best = best_placement(g, cal)
        assert best == reference_placement(g, cal)
        assert best.mapping == min(e.mapping for e in enumerate_embeddings(g, cal))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", TIE_GRAPHS)
    def test_two_error_levels(self, name, seed):
        cal = _two_level(seed)
        g = builtin_graph(name)
        assert best_placement(g, cal) == reference_placement(g, cal)

    @pytest.mark.parametrize("name", TIE_GRAPHS)
    def test_dead_coupler(self, name):
        """A coupler with error 1.0 puts a zero factor into every embedding
        that uses it; the best placements must avoid or tie through it."""
        dead = {(0, 1), (4, 7), (12, 15)}
        cal = reerrored(SAMPLE, lambda q: q.sq_error, lambda c: 1.0 if c.pair in dead else c.error)
        g = builtin_graph(name)
        assert best_placement(g, cal) == reference_placement(g, cal)

    def test_every_score_zero(self):
        """Every embedding scores 0. Higher qubits have the better 1q gates,
        so the search meets a zero-score leaf before the smallest mapping."""
        cal = reerrored(line_calibration(5), lambda q: 0.001 * (5 - q.index), lambda c: 1.0)
        best = best_placement(linear_graph(3), cal)
        assert best == reference_placement(linear_graph(3), cal)
        assert best == Embedding((0, 1, 2), 0.0)

    def test_no_couplers_not_native(self):
        cal = make_calibration(4, [])
        with pytest.raises(NotNativeError):
            best_placement(linear_graph(2), cal)
