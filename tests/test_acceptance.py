"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; each test hard-fails if its criterion is not met.
"""

import json
import random
import shutil
import time
from fractions import Fraction

from gscompile.circuit import derive_circuit, naive_circuit
from gscompile.cli import main
from gscompile.device import load_calibration, sample_calibration_path, save_calibration
from gscompile.graphs import fig1_seven, linear_graph, ring_graph, star_graph, stabilizer_group
from gscompile.model import (
    Objective,
    ObjectiveKind,
    build_model,
    check_solution,
    emit_smtlib,
    objective_value_of,
    parse_external_solution,
)
from gscompile.oracle import oracle_sweep
from gscompile.placement import best_placement, enumerate_embeddings, score_embedding
from gscompile.sim import NoiseModel, density_oracle, estimate_fidelity, expectation, simulate_ideal
from gscompile.solver import solve_exact

from conftest import (
    graph_calibration,
    identity_embedding,
    line_calibration,
    random_calibration,
    reference_placement,
)

SAMPLE = load_calibration(sample_calibration_path())

EXTERNAL_SOLVERS = ("z3", "optimathsat", "cvc5")


def _report(line):
    print(f"\n{line}")


def _oracle_pool():
    """Builtin graphs with at most 6 CNOTs."""
    return [
        linear_graph(3),
        linear_graph(4),
        linear_graph(5),
        linear_graph(6),
        linear_graph(7),
        star_graph(4),
        star_graph(5),
        ring_graph(4),
        ring_graph(5),
        ring_graph(6),
        fig1_seven(),
    ]


def _builtin_instances():
    """(name, graph, calibration, embedding) for every acceptance graph.

    star:5 (degree 4) and ring:6 (6-cycle) are not native to the heavy-hex
    sample, so they get synthetic calibrations with matching topology.
    """
    out = []
    for n in range(3, 9):
        g = linear_graph(n)
        out.append((f"linear:{n}", g, SAMPLE, best_placement(g, SAMPLE)))
    g = fig1_seven()
    out.append(("fig1-seven", g, SAMPLE, best_placement(g, SAMPLE)))
    for name, g in (("star:5", star_graph(5)), ("ring:6", ring_graph(6))):
        cal = graph_calibration(g)
        out.append((name, g, cal, identity_embedding(g)))
    return out


def test_compilation_correctness_all_graphs_all_objectives():
    """Every compiled circuit is an exact graph state (all 2^n expectations +1)."""
    t0 = time.monotonic()
    checked = 0
    for name, g, cal, e in _builtin_instances():
        group = stabilizer_group(g)
        for kind in ObjectiveKind:
            m = build_model(g, e, cal, Objective(kind))
            c = derive_circuit(m, solve_exact(m))
            tab = simulate_ideal(c)
            bad = [el.label for el in group if expectation(tab, el) != 1]
            assert not bad, f"{name}/{kind.value}: non-stabilized elements {bad[:3]}"
            checked += len(group)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s (budget 5s)"
    _report(
        f"[PASS] compilation correctness: {checked} stabilizer expectations all +1 "
        f"across 10 graphs x 4 objectives in {elapsed:.1f}s"
    )


def test_optimality_against_oracle_50_duration_sets():
    """solve_exact matches exhaustive enumeration on all four objectives."""
    t0 = time.monotonic()
    pool = _oracle_pool()
    rng = random.Random(2026)
    for trial in range(50):
        g = pool[trial % len(pool)]
        cal = random_calibration(g, rng)
        e = identity_embedding(g)
        sweep = oracle_sweep(build_model(g, e, cal, Objective(ObjectiveKind.MIN_MAKESPAN)))
        for kind in ObjectiveKind:
            m = build_model(g, e, cal, Objective(kind))
            s = solve_exact(m)
            assert s.objective_value == sweep[kind][0], (
                f"set {trial}, {kind.value}: solver {s.objective_value} "
                f"!= oracle {sweep[kind][0]}"
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s (budget 60s)"
    _report(
        f"[PASS] optimality: solver == brute-force oracle on 50 random duration "
        f"sets x 4 objectives in {elapsed:.1f}s"
    )


def test_derived_constants():
    """Gate-count and makespan constants from independent reasoning."""
    # linear n: n-1 CNOTs, n Hadamards after maximal cancellation
    for n in range(3, 9):
        g = linear_graph(n)
        cal = line_calibration(n)
        m = build_model(g, identity_embedding(g), cal, Objective(ObjectiveKind.MAX_CANCELLATION))
        s = solve_exact(m)
        c = derive_circuit(m, s)
        assert sum(1 for tg in c.gates if tg.kind == "cx") == n - 1
        assert sum(1 for tg in c.gates if tg.kind == "h") == n
        if n <= 7:  # oracle cap is 6 CNOTs
            assert s.objective_value == oracle_sweep(m)[ObjectiveKind.MAX_CANCELLATION][0]
    # fig1-seven: 6 CNOTs
    g = fig1_seven()
    cal = graph_calibration(g)
    m = build_model(g, identity_embedding(g), cal, Objective(ObjectiveKind.MIN_MAKESPAN))
    assert m.num_cnots == 6
    # symmetric 3-qubit line: optimal 670 ns, naive 775 ns
    g = linear_graph(3)
    cal = line_calibration(3)
    m = build_model(g, identity_embedding(g), cal, Objective(ObjectiveKind.MIN_MAKESPAN))
    assert solve_exact(m).objective_value == 670
    assert naive_circuit(g, identity_embedding(g), cal).makespan == 775
    _report(
        "[PASS] derived constants: linear gate counts (n<=8, oracle-checked n<=7), "
        "fig1-seven 6 CNOTs, 670/775 ns makespans"
    )


def _perturb(rng, m, s):
    """One random single-variable perturbation; returns mutated vars copy."""
    import copy

    v = copy.deepcopy(s.vars)
    kind = rng.choice(["C", "B", "S", "T"])
    if kind == "C" and m.num_cnots:
        i = rng.randrange(m.num_cnots)
        v.C[i] = not v.C[i]
    elif kind == "B":
        h = rng.choice(m.hadamard_ids())
        v.B[h] = not v.B[h]
    else:
        gid = rng.choice([g.id for g in m.gates])
        delta = Fraction(rng.randint(1, 500), rng.randint(1, 7)) * rng.choice([1, -1])
        if kind == "S":
            v.S[gid] += delta
        else:
            v.T[gid] += delta
    return v


def _is_worse(kind, new, old):
    if kind is ObjectiveKind.MIN_MAKESPAN:
        return new > old
    if kind is ObjectiveKind.SMT_RUNTIME:
        return (-new[0], new[1]) > (-old[0], old[1])
    return new < old  # maximization objectives


def test_solution_checking_and_perturbations():
    """All backend solutions check clean; 200 perturbations never improve."""
    rng = random.Random(7)
    instances = []
    for g in (linear_graph(3), linear_graph(4), star_graph(4), ring_graph(4)):
        cal = random_calibration(g, rng)
        for kind in ObjectiveKind:
            m = build_model(g, identity_embedding(g), cal, Objective(kind))
            s = solve_exact(m)
            assert check_solution(m, s) == [], f"{kind.value} solution not clean"
            instances.append((m, s))
    rejected = 0
    for trial in range(200):
        m, s = instances[trial % len(instances)]
        v = _perturb(rng, m, s)
        from gscompile.model import Solution

        mutated = Solution(vars=v, objective_value=None, proven_optimal=False)
        if check_solution(m, mutated):
            rejected += 1
            continue
        new_val = objective_value_of(m, v)
        assert _is_worse(m.objective.kind, new_val, s.objective_value), (
            f"perturbation {trial} is feasible and not worse: "
            f"{new_val} vs {s.objective_value} ({m.objective.kind.value})"
        )
    _report(
        f"[PASS] solution checking: all optima satisfy every constraint; "
        f"200 perturbations all rejected ({rejected}) or strictly worse ({200 - rejected})"
    )


def test_smt_emission_and_external_solver(tmp_path):
    """linear:21 emission under 1 s and byte-deterministic; external optional."""
    g = linear_graph(21)
    e = best_placement(g, SAMPLE)
    t0 = time.monotonic()
    m = build_model(g, e, SAMPLE, Objective(ObjectiveKind.SMT_RUNTIME))
    first = emit_smtlib(m)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"emission took {elapsed:.2f}s (budget 1s)"
    again = emit_smtlib(build_model(g, e, SAMPLE, Objective(ObjectiveKind.SMT_RUNTIME)))
    assert first == again, "emission is not byte-deterministic"
    assert first.startswith(";") and "(check-sat)" in first

    solver = next((s for s in EXTERNAL_SOLVERS if shutil.which(s)), None)
    if solver is None:
        _report(
            f"[PASS] SMT path: linear:21 emitted in {elapsed * 1000:.0f} ms, "
            "byte-deterministic (no external optimizing solver installed; "
            "parsed-equality checks skipped)"
        )
        return
    import subprocess

    matched = 0
    rng = random.Random(3)
    for g2 in (linear_graph(3), star_graph(4), ring_graph(4)):
        cal = random_calibration(g2, rng)
        m2 = build_model(g2, identity_embedding(g2), cal, Objective(ObjectiveKind.SMT_RUNTIME))
        path = tmp_path / "m.smt2"
        path.write_text(emit_smtlib(m2))
        out = subprocess.run([solver, str(path)], capture_output=True, text=True)
        s2 = parse_external_solution(m2, out.stdout)
        assert check_solution(m2, s2) == []
        assert s2.objective_value == solve_exact(m2).objective_value
        matched += 1
    _report(
        f"[PASS] SMT path: linear:21 emitted in {elapsed * 1000:.0f} ms, "
        f"byte-deterministic; external solver '{solver}' matched the builtin "
        f"optimum on {matched}/{matched} instances"
    )


def test_simulation_fidelity():
    """Zero-noise exact, mitigation exact, MC vs density oracle, opt >= naive."""
    # zero noise -> exactly 1
    for g in (linear_graph(3), star_graph(4)):
        cal = graph_calibration(g)
        m = build_model(g, identity_embedding(g), cal, Objective(ObjectiveKind.SMT_RUNTIME))
        c = derive_circuit(m, solve_exact(m))
        est = estimate_fidelity(c, NoiseModel.noiseless(cal), shots=64, seed=0)
        assert est.fidelity_raw == 1.0

    # readout-only, analytic, mitigated -> 1 within 1e-6
    g = linear_graph(4)
    cal = graph_calibration(g, p01=0.05, p10=0.05)
    m = build_model(g, identity_embedding(g), cal, Objective(ObjectiveKind.SMT_RUNTIME))
    c = derive_circuit(m, solve_exact(m))
    est = estimate_fidelity(c, NoiseModel.readout_only(cal), mitigate=True, analytic=True)
    assert abs(est.fidelity_mitigated - 1.0) <= 1e-6

    # Monte Carlo within 3 sigma of the density oracle (n <= 4, 1e5 shots)
    for n, seed in ((2, 9), (3, 2), (4, 4)):
        g = linear_graph(n)
        cal = line_calibration(n, coherence_us=30.0)
        m = build_model(g, identity_embedding(g), cal, Objective(ObjectiveKind.SMT_RUNTIME))
        c = derive_circuit(m, solve_exact(m))
        noise = NoiseModel.from_calibration(cal)
        exact = density_oracle(c, noise)
        est = estimate_fidelity(c, noise, shots=100_000, seed=seed, mitigate=True)
        dev = abs(est.fidelity_mitigated - exact)
        assert dev <= 3 * est.stderr_mitigated, (
            f"n={n}: MC {est.fidelity_mitigated:.4f} vs density {exact:.4f} "
            f"is {dev / est.stderr_mitigated:.1f} sigma"
        )

    # optimized >= naive for every test graph and 5 seeds, and exactly:
    # the analytic mitigated fidelity, strictly
    for g in (linear_graph(3), linear_graph(4), star_graph(4), ring_graph(4)):
        cal = graph_calibration(g, coherence_us=5.0, sq_error=0.005, cx_error=0.015)
        e = identity_embedding(g)
        m = build_model(g, e, cal, Objective(ObjectiveKind.SMT_RUNTIME))
        opt = derive_circuit(m, solve_exact(m))
        nai = naive_circuit(g, e, cal)
        noise = NoiseModel.from_calibration(cal)
        fo, fn = (estimate_fidelity(c, noise, mitigate=True, analytic=True).fidelity_mitigated for c in (opt, nai))
        assert fo > fn, f"{g.n}-vertex graph: exact optimized {fo:.4f} <= naive {fn:.4f}"
        for seed in range(5):
            fo = estimate_fidelity(opt, noise, shots=8000, seed=seed, mitigate=True)
            fn = estimate_fidelity(nai, noise, shots=8000, seed=seed, mitigate=True)
            assert fo.fidelity_mitigated >= fn.fidelity_mitigated, (
                f"{g.n}-vertex graph, seed {seed}: optimized "
                f"{fo.fidelity_mitigated:.4f} < naive {fn.fidelity_mitigated:.4f}"
            )
    _report(
        "[PASS] simulation fidelity: zero-noise exact 1, mitigated readout-only "
        "within 1e-6, MC within 3 sigma of the density oracle (n=2..4, 1e5 shots), "
        "optimized >= naive on 4 graphs x 5 seeds and exactly"
    )


def test_placement_exhaustive_maximum():
    """best_placement equals the brute-force maximum on the sample: the same
    score and the same mapping, equal scores broken to the smallest mapping."""
    t0 = time.monotonic()
    graphs = [(f"linear:{n}", linear_graph(n)) for n in range(3, 9)]
    graphs.append(("fig1-seven", fig1_seven()))
    for name, g in graphs:
        best = best_placement(g, SAMPLE)
        maximum = max(
            score_embedding(e, g, SAMPLE) for e in enumerate_embeddings(g, SAMPLE)
        )
        assert best.score == maximum, f"{name}: {best.score} != {maximum}"
        reference = reference_placement(g, SAMPLE)
        assert best.mapping == reference.mapping, f"{name}: {best.mapping} != {reference.mapping}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"
    _report(
        f"[PASS] placement: best_placement equals the exhaustive maximum (score and mapping) for "
        f"linear 3-8 and fig1-seven on the 27-qubit sample in {elapsed:.1f}s"
    )


def test_cli_determinism(tmp_path, capsys):
    """Identical invocations produce bit-identical outputs."""
    cal_path = tmp_path / "cal.json"
    save_calibration(line_calibration(3), cal_path)
    runs = []
    for tag in "abc":
        circ = tmp_path / f"c{tag}.json"
        smt = tmp_path / f"m{tag}.smt2"
        report = tmp_path / f"r{tag}.json"
        assert main([
            "compile", "--graph", "linear:3",
            "--cal", str(cal_path), "--objective", "smt-runtime", "--out", str(circ),
        ]) == 0
        summary = capsys.readouterr().out
        assert main([
            "emit-smt", "--graph", "linear:3",
            "--cal", str(cal_path), "--objective", "smt-runtime", "--out", str(smt),
        ]) == 0
        capsys.readouterr()
        assert main([
            "simulate", "--circuit", str(circ),
            "--noise-from", str(cal_path), "--shots", "512", "--seed", "1",
            "--mitigate", "--report", str(report),
        ]) == 0
        capsys.readouterr()
        runs.append((summary, circ.read_bytes(), smt.read_bytes(), report.read_bytes()))
    assert runs[0] == runs[1] == runs[2]
    # sanity: the outputs carry real content
    assert json.loads(runs[0][0])["makespan_ns"] == 670
    _report(
        "[PASS] determinism: compile/emit-smt/simulate outputs bit-identical "
        "across repeated runs"
    )
