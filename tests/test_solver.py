import gc
import hashlib
import random
from fractions import Fraction

import pytest

from gscompile import solver
from gscompile.device import load_calibration, sample_calibration_path
from gscompile.errors import CapExceededError
from gscompile.graphs import builtin_graph, fig1_seven, graph_from_edges, linear_graph, ring_graph, star_graph
from gscompile.model import Objective, ObjectiveKind, Solution, build_model, check_solution, objective_value_of
from gscompile.oracle import ORACLE_CAP, oracle_search, oracle_sweep
from gscompile.placement import best_placement, enumerate_embeddings
from gscompile.solver import solve_exact

from conftest import (
    graph_calibration,
    identity_embedding,
    line_calibration,
    make_calibration,
    random_calibration,
    straddling_calibration,
)


def build(g, cal, kind, crosstalk=False):
    return build_model(g, identity_embedding(g), cal, Objective(kind, crosstalk))


class TestDerivedConstants:
    def test_single_edge_makespan_370(self):
        m = build(linear_graph(2), line_calibration(2), ObjectiveKind.MIN_MAKESPAN)
        s = solve_exact(m)
        assert s.objective_value == 370  # 35 prep + 300 CNOT + 35 trailing H
        assert s.objective_value == oracle_search(m).objective_value

    def test_linear3_lex_optimum(self, sym3):
        m = build(linear_graph(3), sym3, ObjectiveKind.SMT_RUNTIME)
        s = solve_exact(m)
        assert s.objective_value == (4, Fraction(670))
        assert s.proven_optimal

    def test_lex_cancellation_outweighs_makespan(self):
        # 35 ns Hadamards; the CNOT takes 34 ns one way, too short to hold a
        # Hadamard (nothing cancels, makespan 139), and 1000 ns the other
        # (the target's prep and sandwich Hadamards cancel, makespan 1070).
        # smt-runtime buys the one cancellation with 931 ns of makespan.
        cal = line_calibration(2, cnot=lambda a, b: (34, 1000))
        assert solve_exact(build(linear_graph(2), cal, ObjectiveKind.MIN_MAKESPAN)).objective_value == 139
        m = build(linear_graph(2), cal, ObjectiveKind.SMT_RUNTIME)
        s = solve_exact(m)
        assert s.objective_value == (2, Fraction(1070))
        assert s.vars == oracle_search(m).vars

    def test_linear5_max_cancellation(self):
        m = build(linear_graph(5), line_calibration(5), ObjectiveKind.MAX_CANCELLATION)
        s = solve_exact(m)
        # 5 preps + 8 sandwich H; optimum keeps one H per qubit: 13 - 5 = 8
        assert s.objective_value == 8

    def test_linear_n_hadamard_floor(self):
        # after maximal cancellation a linear chain keeps exactly n Hadamards
        for n in (3, 4, 5, 6):
            cal = line_calibration(n)
            m = build(linear_graph(n), cal, ObjectiveKind.MAX_CANCELLATION)
            s = solve_exact(m)
            total_h = n + 2 * (n - 1)
            assert total_h - s.objective_value == n

    def test_cancellation_impossible_when_sq_too_long(self):
        # Hadamard longer than every CNOT window: nothing fits inside, B all false
        cal = line_calibration(2, sq=400, cnot=300)
        m = build(linear_graph(2), cal, ObjectiveKind.MAX_CANCELLATION)
        assert solve_exact(m).objective_value == 0


class TestSolverProperties:
    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_solutions_satisfy_model(self, kind):
        rng = random.Random(7)
        for g in (linear_graph(4), star_graph(4), ring_graph(4)):
            cal = random_calibration(g, rng)
            m = build(g, cal, kind)
            s = solve_exact(m)
            assert check_solution(m, s) == []
            assert s.proven_optimal

    def test_cap_exceeded(self):
        g = linear_graph(12)  # 11 CNOTs > default cap 10
        cal = line_calibration(12)
        m = build(g, cal, ObjectiveKind.MIN_MAKESPAN)
        with pytest.raises(CapExceededError, match="emit-smt"):
            solve_exact(m)

    def test_crosstalk_serializes_adjacent_cnots(self):
        g = linear_graph(4)
        cal = line_calibration(4)
        free = solve_exact(build(g, cal, ObjectiveKind.MIN_MAKESPAN))
        guarded = solve_exact(build(g, cal, ObjectiveKind.MIN_MAKESPAN, crosstalk=True))
        assert guarded.objective_value >= free.objective_value
        m = build(g, cal, ObjectiveKind.MIN_MAKESPAN, crosstalk=True)
        assert check_solution(m, solve_exact(m)) == []

    def test_direction_choice_uses_faster_orientation(self):
        # one very slow direction: the solver must pick the fast one
        cal = line_calibration(2, cnot=lambda a, b: (500, 200))
        m = build(linear_graph(2), cal, ObjectiveKind.MIN_MAKESPAN)
        s = solve_exact(m)
        assert s.vars.C[0] is False  # control = coupler endpoint b
        assert s.objective_value == 35 + 200 + 35

    def test_coherence_objective_prefers_short_critical_wire(self):
        # qubit 1 has far less coherence; remaining-coherence optimum is
        # bounded by it and must match the oracle
        g = linear_graph(3)
        cal = line_calibration(3, coherence_us=lambda i: 1.0 if i == 1 else 100.0)
        m = build(g, cal, ObjectiveKind.MAX_REMAINING_COHERENCE)
        s = solve_exact(m)
        assert s.objective_value == oracle_search(m).objective_value
        assert s.objective_value < Fraction(1000)


class TestOracleAgreement:
    def test_matches_on_random_instances(self):
        # One test id over both crosstalk settings, so the crosstalk wait of
        # the leaf step is compared with the oracle too.
        for crosstalk_free in (False, True):
            rng = random.Random(123)
            graphs = [linear_graph(3), linear_graph(4), star_graph(4)]
            for trial in range(6):
                g = graphs[trial % len(graphs)]
                cal = random_calibration(g, rng)
                e = identity_embedding(g)
                m0 = build_model(g, e, cal, Objective(ObjectiveKind.MIN_MAKESPAN, crosstalk_free))
                sweep = oracle_sweep(m0)
                for kind in ObjectiveKind:
                    m = build_model(g, e, cal, Objective(kind, crosstalk_free))
                    s = solve_exact(m)
                    where = (crosstalk_free, trial, kind)
                    assert s.objective_value == sweep[kind][0], where
                    assert check_solution(m, s) == [], where

    def test_crosstalk_free_matches_oracle_sweep(self):
        # With crosstalk exclusion, where a CNOT waits for its placed
        # partners' ends, the exact search's edge-start term prunes on every
        # timed objective: each optimum matches the brute-force sweep, on
        # random and on straddling calibrations.
        # Three draws on each graph of 3 to 5 CNOTs, one on a 6-CNOT tree,
        # whose sweep takes about a second.
        graphs = 3 * [linear_graph(4), star_graph(5), ring_graph(5), linear_graph(6), star_graph(6)]
        graphs.append(graph_from_edges(7, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6)]))
        for calibration, rng in ((random_calibration, random.Random(17)), (straddling_calibration, random.Random(71))):
            for trial, g in enumerate(graphs):
                cal = calibration(g, rng)
                e = identity_embedding(g)
                sweep = oracle_sweep(build_model(g, e, cal, Objective(ObjectiveKind.MIN_MAKESPAN, True)))
                for kind in ObjectiveKind:
                    s = solve_exact(build_model(g, e, cal, Objective(kind, True)))
                    assert s.objective_value == sweep[kind][0], (calibration.__name__, trial, kind)

    def test_returns_oracle_witness(self):
        # Ties go to the first optimal leaf in mask-ascending, lexicographic
        # edge-order enumeration, as in the oracle: the whole assignment
        # matches, not only the value.
        rng = random.Random(321)
        graphs = [linear_graph(3), linear_graph(4), star_graph(4), ring_graph(4), linear_graph(5)]
        for trial in range(2 * len(graphs)):
            g = graphs[trial % len(graphs)]
            cal = random_calibration(g, rng)
            for crosstalk_free in (False, True):
                for kind in ObjectiveKind:
                    m = build_model(g, identity_embedding(g), cal, Objective(kind, crosstalk_free))
                    assert solve_exact(m).vars == oracle_search(m).vars, (trial, crosstalk_free, kind)

    def test_matches_with_straddling_hadamards(self):
        # Hadamards that outlast some CNOTs but not all: whether a wire can
        # cancel depends on the directions of edges placed later, so the
        # search has to carry both cancellation assumptions.
        rng = random.Random(99)
        graphs = [linear_graph(3), linear_graph(4), star_graph(4), ring_graph(4), linear_graph(5)]
        for trial in range(2 * len(graphs)):
            g = graphs[trial % len(graphs)]
            cal = straddling_calibration(g, rng)
            for crosstalk_free in (False, True):
                for kind in ObjectiveKind:
                    m = build_model(g, identity_embedding(g), cal, Objective(kind, crosstalk_free))
                    s, o = solve_exact(m), oracle_search(m)
                    where = (trial, crosstalk_free, kind)
                    assert s.objective_value == o.objective_value, where
                    assert s.vars == o.vars, where
                    assert check_solution(m, s) == [], where

    def test_five_cnot_witnesses(self):
        # Five CNOTs on a line and on a star, with straddling Hadamards: the
        # whole assignment matches the oracle under every objective.
        rng = random.Random(6)
        for g in (linear_graph(6), star_graph(6)):
            cal = straddling_calibration(g, rng)
            for crosstalk_free in (False, True):
                for kind in ObjectiveKind:
                    m = build(g, cal, kind, crosstalk_free)
                    s, o = solve_exact(m), oracle_search(m)
                    where = (g.n, crosstalk_free, kind)
                    assert s.objective_value == o.objective_value, where
                    assert s.vars == o.vars, where

    def test_witness_behind_a_repeated_state(self):
        # The search reaches one partial state first under a larger placed
        # mask and later under a smaller one; only the second path leads to
        # the first optimal leaf, so a state seen before must be expanded
        # again when it comes back under a smaller mask.
        durations = {(0, 1): (135, 200), (1, 2): (100, 135), (2, 3): (135, 100), (3, 4): (100, 135), (4, 5): (135, 200)}
        g = linear_graph(6)
        cal = graph_calibration(g, sq=lambda i: (100, 35, 35, 35, 35, 35)[i], cnot=lambda a, b: durations[(a, b)])
        m = build(g, cal, ObjectiveKind.MIN_MAKESPAN)
        s = solve_exact(m)
        assert s.objective_value == 340
        assert s.vars.C == {0: True, 1: False, 2: False, 3: False, 4: True}
        assert s.vars == oracle_search(m).vars

    def test_decoherence_with_sub_ns_coherence(self):
        # Coherences of 100000.5, 99999.75 and 100000.12 ns: the search runs
        # on a time axis scaled by 100 and must agree with the oracle's
        # Fraction arithmetic.
        coherence = [100.0005, 99.99975, 100.00012, 100.0005]
        for g in (linear_graph(3), linear_graph(4), star_graph(4)):
            cal = make_calibration(
                g.n,
                g.sorted_edges(),
                cnot=lambda a, b: (300 + 7 * a, 290 + 5 * b),
                coherence_us=lambda i: coherence[i],
            )
            for crosstalk_free in (False, True):
                m = build(g, cal, ObjectiveKind.MAX_REMAINING_COHERENCE, crosstalk_free)
                s, o = solve_exact(m), oracle_search(m)
                assert s.objective_value == o.objective_value
                assert s.objective_value.denominator > 1
                assert s.vars == o.vars
                assert check_solution(m, s) == []

    def test_oracle_refuses_large_instances(self):
        g = linear_graph(8)  # 7 CNOTs > oracle cap 6
        cal = line_calibration(8)
        m = build(g, cal, ObjectiveKind.MIN_MAKESPAN)
        with pytest.raises(CapExceededError):
            oracle_sweep(m)
        assert ORACLE_CAP == 6

    def test_oracle_solution_is_checkable(self, sym3):
        m = build(linear_graph(3), sym3, ObjectiveKind.SMT_RUNTIME)
        s = oracle_search(m)
        assert check_solution(m, s) == []


def test_fig1_seven_compiles_with_six_cnots():
    g = fig1_seven()
    cal = graph_calibration(g)
    m = build(g, cal, ObjectiveKind.SMT_RUNTIME)
    s = solve_exact(m)
    assert m.num_cnots == 6
    assert check_solution(m, s) == []


def test_witness_golden():
    # The full assignments of 6- to 8-CNOT solves on the bundled device,
    # every objective with crosstalk allowed and forbidden, hashed: the
    # tie-break to the first optimal leaf is pinned beyond the oracle's cap.
    cal = load_calibration(sample_calibration_path())
    h = hashlib.sha256()
    for name in ("linear:8", "linear:9", "fig1-seven"):
        g = builtin_graph(name)
        e = best_placement(g, cal)
        for kind in ObjectiveKind:
            for crosstalk_free in (False, True):
                s = solve_exact(build_model(g, e, cal, Objective(kind, crosstalk_free)))
                v = s.vars
                h.update(repr((
                    s.objective_value, sorted(v.C.items()), sorted(v.S.items()), sorted(v.T.items()), sorted(v.B.items())
                )).encode())
    assert h.hexdigest() == "9aa10d1d613f96dac3040719c49a4f2fafca841b00e7dcaba00fd7c0b5763546"


def test_smt_runtime_golden_linear10():
    # The packed smt-runtime key on 9 CNOTs, one more than
    # test_witness_golden: the full assignments of linear:10 on the bundled
    # device, crosstalk allowed and forbidden, hashed.
    cal = load_calibration(sample_calibration_path())
    g = builtin_graph("linear:10")
    e = best_placement(g, cal)
    h = hashlib.sha256()
    for crosstalk_free in (False, True):
        s = solve_exact(build_model(g, e, cal, Objective(ObjectiveKind.SMT_RUNTIME, crosstalk_free)))
        v = s.vars
        h.update(repr((
            s.objective_value, sorted(v.C.items()), sorted(v.S.items()), sorted(v.T.items()), sorted(v.B.items())
        )).encode())
    assert h.hexdigest() == "0c9157aece2144fb3bf192ae0884da868a6ce06ca454dfa83a80a8bc029cabd7"


def test_random_search_golden():
    # The (direction mask, edge order) the search returns on 168 seeded
    # solves of 3- to 6-CNOT graphs, random and straddling calibrations
    # alternating, every objective with crosstalk allowed and forbidden,
    # hashed: a bound or incumbent change that alters any tie-break fails
    # here, below and beyond the oracle's cap.
    rng = random.Random(2026)
    graphs = [
        linear_graph(4), star_graph(5), ring_graph(5), linear_graph(6),
        graph_from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]), ring_graph(6), linear_graph(7),
    ]
    h = hashlib.sha256()
    for trial in range(3 * len(graphs)):
        g = graphs[trial % len(graphs)]
        cal = (random_calibration if trial % 2 else straddling_calibration)(g, rng)
        for crosstalk_free in (False, True):
            for kind in ObjectiveKind:
                m = build_model(g, identity_embedding(g), cal, Objective(kind, crosstalk_free))
                h.update(repr(solver._search(m)).encode())
    assert h.hexdigest() == "78fd0731192cb8a7ba1cce0552a48e089f480687083928171f3e061c68eac82c"


def test_seed_is_a_real_leaf():
    # The list schedule that seeds the search's incumbent is a leaf of the
    # model: its replay satisfies every constraint, and the search never
    # returns a worse value. Seeds exist only where every edge has a
    # direction at least as long as its target's Hadamard, so the straddling
    # calibrations give fewer of them.
    worse = {
        ObjectiveKind.MAX_CANCELLATION: lambda v: -v,
        ObjectiveKind.MIN_MAKESPAN: lambda v: v,
        ObjectiveKind.MAX_REMAINING_COHERENCE: lambda v: -v,
        ObjectiveKind.SMT_RUNTIME: lambda v: (-v[0], v[1]),
    }
    graphs = [linear_graph(3), linear_graph(4), star_graph(4), ring_graph(4), linear_graph(5), star_graph(5)]
    seeded = {}
    for calibration, rng in ((random_calibration, random.Random(5)), (straddling_calibration, random.Random(55))):
        seeded[calibration] = 0
        for trial in range(2 * len(graphs)):
            g = graphs[trial % len(graphs)]
            cal = calibration(g, rng)
            for crosstalk_free in (False, True):
                for kind in ObjectiveKind:
                    m = build(g, cal, kind, crosstalk_free)
                    seed = solver._seed(solver._Leaf(m))
                    if seed is None:
                        continue
                    seeded[calibration] += 1
                    v = solver._vars_from_leaf(m, *seed)
                    value = objective_value_of(m, v)
                    where = (calibration.__name__, trial, crosstalk_free, kind)
                    assert check_solution(m, Solution(v, value, proven_optimal=False)) == [], where
                    assert worse[kind](solve_exact(m).objective_value) <= worse[kind](value), where
    assert seeded[random_calibration] == 2 * len(graphs) * 2 * len(ObjectiveKind)
    assert seeded[straddling_calibration] > 0


def test_search_work_pinned(monkeypatch):
    # The children the exact search enters on the bundled device, one
    # _Leaf.place call each (the seed's list schedule, up to three calls per
    # edge, included): a change that prunes less fails here in the open.
    # The runtime row pins the timed wire bound; the decoherence rows pin
    # the edge-start term too, the crosstalk-free one with the ends owed to
    # crosstalk partners (179,489 without the term). Before the term the
    # crosstalk-allowed decoherence row was 40,619. Before each pending wire
    # owed one Hadamard and the incumbent was seeded, the first four were
    # 9,584 (smt-runtime), 2,820 (cancellation), 19,264 (runtime) and 62,420
    # (decoherence); before the pending-aware cancellation bound and the
    # untimed cancellation key, the first two were 13,072 and 4,118.
    cal = load_calibration(sample_calibration_path())
    calls = 0
    place = solver._Leaf.place

    def counting_place(self, i, d):
        nonlocal calls
        calls += 1
        return place(self, i, d)

    monkeypatch.setattr(solver._Leaf, "place", counting_place)
    counts = {}
    for name, kind, crosstalk_free in (
        ("linear:10", ObjectiveKind.SMT_RUNTIME, False),
        ("linear:11", ObjectiveKind.MAX_CANCELLATION, False),
        ("linear:10", ObjectiveKind.MIN_MAKESPAN, False),
        ("linear:10", ObjectiveKind.MAX_REMAINING_COHERENCE, False),
        ("linear:10", ObjectiveKind.MAX_REMAINING_COHERENCE, True),
    ):
        g = builtin_graph(name)
        m = build_model(g, best_placement(g, cal), cal, Objective(kind, crosstalk_free))
        calls = 0
        solver._search(m)
        counts[name, kind.value, crosstalk_free] = calls
    assert counts == {
        ("linear:10", "smt-runtime", False): 6801,
        ("linear:11", "cancellation", False): 2690,
        ("linear:10", "runtime", False): 11649,
        ("linear:10", "decoherence", False): 21283,
        ("linear:10", "decoherence", True): 3045,
    }


def test_searches_leave_no_cyclic_garbage():
    # The recursive searches of placement, subiso and the solver hold
    # themselves through their closures. Each unbinds itself on return, so
    # a call leaves nothing for the cyclic collector, whose next full pass
    # would otherwise be what frees the search's tables.
    cal = load_calibration(sample_calibration_path())
    g = linear_graph(8)
    m = build_model(g, best_placement(g, cal), cal, Objective(ObjectiveKind.SMT_RUNTIME))
    calls = {
        "best_placement": lambda: best_placement(g, cal),
        "enumerate_embeddings": lambda: list(enumerate_embeddings(g, cal)),
        "enumerate_embeddings closed early": lambda: next(enumerate_embeddings(g, cal)),
        "solve_exact": lambda: solve_exact(m),
    }
    left = {}
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == dict.fromkeys(calls, 0)
