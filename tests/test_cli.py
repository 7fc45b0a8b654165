import dataclasses
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gscompile import cli, graphs
from gscompile.circuit import circuit_to_json, derive_circuit, naive_circuit
from gscompile.cli import main
from gscompile.device import load_calibration, sample_calibration_path, save_calibration
from gscompile.graphs import linear_graph
from gscompile.model import Objective, ObjectiveKind, build_model
from gscompile.placement import best_placement
from gscompile.solver import solve_exact

from conftest import line_calibration, make_calibration


@pytest.fixture
def sym3_path(tmp_path):
    p = tmp_path / "sym3.json"
    save_calibration(line_calibration(3), p)
    return str(p)


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompile:
    def test_linear8_on_sample(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code, stdout, _ = run_main(
            ["compile", "--graph", "linear:8", "--objective", "smt-runtime", "--out", str(out)],
            capsys,
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["cnots"] == 7
        assert summary["hadamards"] == 8
        assert summary["proven_optimal"] is True
        circuit = json.loads(out.read_text())
        assert circuit["makespan_ns"] == summary["makespan_ns"]

    def test_fig1_seven_runtime(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code, stdout, _ = run_main(
            ["compile", "--graph", "fig1-seven", "--objective", "runtime", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert json.loads(stdout)["cnots"] == 6

    def test_dropped_gate_fails_stabilizer_check(self, capsys, monkeypatch):
        def drop_first_cnot(m, s):
            c = derive_circuit(m, s)
            k = next(k for k, tg in enumerate(c.gates) if tg.kind == "cx")
            return dataclasses.replace(c, gates=c.gates[:k] + c.gates[k + 1:])

        monkeypatch.setattr(cli, "derive_circuit", drop_first_cnot)
        code, stdout, err = run_main(["compile", "--graph", "linear:4"], capsys)
        assert code == 1
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("gscompile: circuit does not prepare the graph state: generator ")

    def test_builtin_solution_is_checked(self, capsys, monkeypatch):
        def all_at_zero(m):
            s = solve_exact(m)
            s.vars.S.update(dict.fromkeys(s.vars.S, 0))
            return s

        monkeypatch.setattr(cli, "solve_exact", all_at_zero)
        code, _, err = run_main(["compile", "--graph", "linear:4"], capsys)
        assert code == 1
        assert err.startswith("gscompile: solver solution violates constraints: [")

    @pytest.mark.parametrize("command", ["compile", "emit-smt"])
    def test_stdout_matches_out_file(self, tmp_path, capsys, sym3_path, command):
        # Without --out, the output goes to stdout, and compile's summary
        # goes to stderr instead.
        argv = [command, "--graph", "linear:3", "--cal", sym3_path]
        out = tmp_path / "out"
        code, to_file, _ = run_main(argv + ["--out", str(out)], capsys)
        assert code == 0
        code, stdout, stderr = run_main(argv, capsys)
        assert code == 0
        assert stdout.encode() == out.read_bytes()
        assert stderr == to_file

    def test_not_native_exit_2(self, capsys):
        code, _, err = run_main(
            ["compile", "--graph", "star:5", "--objective", "runtime"], capsys
        )
        assert code == 2
        assert "not native" in err

    @pytest.mark.parametrize("command", ["compile", "place", "emit-smt"])
    def test_oversized_builtin_refused_before_building(self, command, capsys, monkeypatch):
        # A builtin graph larger than the device is refused by its name
        # alone: linear:99999999999 would need 10^11 edges.
        def never(n):
            raise AssertionError(f"linear:{n} was built")

        monkeypatch.setattr(graphs, "linear_graph", never)
        monkeypatch.delenv("GSCOMPILE_CALIBRATION", raising=False)
        code, stdout, err = run_main([command, "--graph", "linear:99999999999"], capsys)
        assert code == 2
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("gscompile: graph with 99999999999 vertices is not native to device ")

    def test_cap_exceeded_exit_3_with_hint(self, capsys):
        code, _, err = run_main(
            ["compile", "--graph", "linear:12", "--objective", "runtime"], capsys
        )
        assert code == 3
        assert "emit-smt" in err

    def test_cap_exceeded_names_emit_smt_once(self, capsys):
        code, _, err = run_main(["compile", "--graph", "linear:12"], capsys)
        assert code == 3
        assert err.count("emit-smt") == 1

    def test_bad_input_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_main(
            ["compile", "--graph", str(bad), "--objective", "runtime"], capsys
        )
        assert code == 1

    def test_graph_file_and_env_calibration(self, tmp_path, capsys, monkeypatch, sym3_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        monkeypatch.setenv("GSCOMPILE_CALIBRATION", sym3_path)
        code, stdout, _ = run_main(
            ["compile", "--graph", str(gpath), "--objective", "smt-runtime", "--out", str(tmp_path / "c.json")],
            capsys,
        )
        assert code == 0
        assert json.loads(stdout)["makespan_ns"] == 670


class TestOtherCommands:
    def test_place(self, capsys):
        code, stdout, _ = run_main(["place", "--graph", "linear:3"], capsys)
        assert code == 0
        data = json.loads(stdout)
        assert len(data["mapping"]) == 3 and 0 < data["score"] <= 1

    def test_oracle_linear3(self, capsys, sym3_path):
        code, stdout, _ = run_main(
            ["oracle", "--graph", "linear:3", "--cal", sym3_path, "--objective", "runtime"],
            capsys,
        )
        assert code == 0
        assert json.loads(stdout) == {"objective": "runtime", "value": 670}

    def test_oracle_refuses_large(self, capsys):
        code, _, _ = run_main(
            ["oracle", "--graph", "linear:8", "--objective", "runtime"], capsys
        )
        assert code == 3

    def test_oracle_cap_names_compile(self, capsys):
        code, _, err = run_main(["oracle", "--graph", "linear:9"], capsys)
        assert code == 3
        assert "compile" in err and "emit-smt" not in err

    def test_simulate_above_stabilizer_cap_exit_3(self, tmp_path, capsys):
        cal = load_calibration(sample_calibration_path())
        g = linear_graph(13)
        circ = tmp_path / "c.json"
        circ.write_text(json.dumps(circuit_to_json(naive_circuit(g, best_placement(g, cal), cal))))
        code, _, err = run_main(["simulate", "--circuit", str(circ), "--shots", "16"], capsys)
        assert code == 3
        assert "n=13" in err and "emit-smt" not in err

    def test_simulate_above_shots_cap_exit_3(self, tmp_path, capsys, sym3_path):
        circ = tmp_path / "c.json"
        run_main(["compile", "--graph", "linear:3", "--cal", sym3_path, "--out", str(circ)], capsys)
        code, stdout, err = run_main(["simulate", "--circuit", str(circ), "--shots", "16777217"], capsys)
        assert code == 3 and stdout == ""
        assert err.splitlines() == [err.strip()] and err.startswith("gscompile: ")
        assert "shots <= 16777216" in err and "Traceback" not in err

    def test_emit_smt_to_file(self, tmp_path, capsys, sym3_path):
        out = tmp_path / "m.smt2"
        code, _, _ = run_main(
            ["emit-smt", "--graph", "linear:3", "--cal", sym3_path, "--objective", "smt-runtime", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text().startswith("; graph-state preparation")

    def test_simulate_report(self, tmp_path, capsys, sym3_path):
        circ = tmp_path / "c.json"
        run_main(
            ["compile", "--graph", "linear:3", "--cal", sym3_path, "--objective", "smt-runtime", "--out", str(circ)],
            capsys,
        )
        report = tmp_path / "r.json"
        code, stdout, _ = run_main(
            [
                "simulate", "--circuit", str(circ), "--noise-from", sym3_path,
                "--shots", "128", "--seed", "3", "--mitigate", "--report", str(report),
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(stdout)
        assert set(data) >= {"fidelity_raw", "fidelity_mitigated", "elements", "shots", "seed"}
        assert data["shots"] == 128 and data["seed"] == 3
        assert report.read_text() == stdout

    def test_simulate_analytic_mitigated_readout_only(self, tmp_path, capsys):
        ro = tmp_path / "ro.json"
        save_calibration(line_calibration(3, sq_error=0.0, cx_error=0.0, coherence_us=1e9), ro)
        circ = tmp_path / "c.json"
        run_main(
            ["compile", "--graph", "linear:3", "--cal", str(ro), "--objective", "smt-runtime", "--out", str(circ)],
            capsys,
        )
        code, stdout, _ = run_main(
            ["simulate", "--circuit", str(circ), "--noise-from", str(ro), "--analytic", "--mitigate"],
            capsys,
        )
        assert code == 0
        data = json.loads(stdout)
        assert abs(data["fidelity_mitigated"] - 1.0) <= 1e-6
        assert data["shots"] is None and data["seed"] is None  # nothing was drawn

    @pytest.mark.parametrize("noise_cal, named", [
        (line_calibration(2), "placement[2]: qubit 2"),
        (make_calibration(3, [(0, 1)]), ".wires: no coupler 1-2"),
    ], ids=["missing-qubit", "missing-coupler"])
    def test_simulate_noise_calibration_mismatch_exit_1(self, tmp_path, capsys, sym3_path, noise_cal, named):
        circ = tmp_path / "c.json"
        run_main(["compile", "--graph", "linear:3", "--cal", sym3_path, "--out", str(circ)], capsys)
        noise = tmp_path / "noise.json"
        save_calibration(noise_cal, noise)
        code, stdout, err = run_main(["simulate", "--circuit", str(circ), "--noise-from", str(noise)], capsys)
        assert code == 1 and stdout == ""
        assert err.splitlines() == [err.strip()] and err.startswith("gscompile: ")
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", [[], ["--analytic"]], ids=["sampled", "analytic"])
    def test_simulate_readout_not_invertible_exit_1(self, tmp_path, capsys, sym3_path, mode):
        circ = tmp_path / "c.json"
        run_main(["compile", "--graph", "linear:3", "--cal", sym3_path, "--out", str(circ)], capsys)
        noise = tmp_path / "noise.json"
        save_calibration(line_calibration(3, p01=0.7, p10=0.4), noise)
        argv = ["simulate", "--circuit", str(circ), "--noise-from", str(noise), "--mitigate", "--shots", "16", *mode]
        code, stdout, err = run_main(argv, capsys)
        assert code == 1 and stdout == ""
        assert err == "gscompile: readout confusion with p01=0.7, p10=0.4 is not invertible\n"


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["compile"], "--graph"),
            (["compile", "--graph", "linear:3", "--objective", "nope"], "--objective"),
            (["simulate", "--circuit", "x", "--shots", "abc"], "--shots"),
            (["bogus"], "bogus"),
            # --threads is not a flag: before the command it is read as the command.
            (["--threads", "1", "place", "--graph", "linear:3"], "invalid choice: '1'"),
            (["place", "--graph", "linear:3", "--threads", "1"], "unrecognized arguments: --threads 1"),
            (["place", "--graph", "linear:1"], "linear graph needs n >= 2, got 1"),
            (["place", "--graph", "ring:2"], "ring graph needs n >= 3, got 2"),
            (["place", "--graph", "star:1"], "star graph needs n >= 2, got 1"),
        ],
    )
    def test_usage_error_exit_1(self, capsys, argv, named):
        code, _, err = run_main(argv, capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()] and err.startswith("gscompile: ")
        assert named in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["compile", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "graph, field",
        [
            ({"n": 3, "edges": [[0, 1, 2]]}, "edges[0]"),
            ({"n": "x", "edges": [[0, 1]]}, "n must be an integer"),
            ({"n": 3, "edges": [[0, 1], [1, "2"]]}, "edges[1]"),
            ({"n": 3, "edges": [[0, 1], [1, 2]], "extra": 1}, "graph file: unknown keys ['extra']"),
            ({"n": 3}, "graph file: missing keys ['edges']"),
            ({"n": 3, "edges": 5}, "edges must be a list"),
            ({"n": 1, "edges": []}, "graph needs at least 2 vertices, got 1"),
            ({"n": 3, "edges": [[0, 1], [1, 5]]}, "graph file: edges[1] has vertex 5 outside 0..2"),
            ({"n": 3, "edges": [[0, 1], [1, 1]]}, "graph file: edges[1] is a self-loop at vertex 1"),
            ({"n": 3, "edges": [[1, 2], [0, 1], [2, 1]]}, "graph file: edges[2] duplicates edges[0]"),
        ],
    )
    def test_bad_graph_file_exit_1(self, tmp_path, capsys, graph, field):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph))
        code, _, err = run_main(["place", "--graph", str(gpath)], capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()] and err.startswith("gscompile: ")
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 100000, b'{"n": ' + b"9" * 5000 + b"}"],
        ids=["not-utf8", "deeply-nested", "huge-integer"],
    )
    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["place", "--graph", "{f}"], "graph"),
            (["compile", "--graph", "linear:3", "--cal", "{f}"], "calibration"),
            (["simulate", "--circuit", "{f}"], "circuit"),
        ],
    )
    def test_unreadable_json_file_exit_1(self, tmp_path, capsys, argv, kind, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        code, _, err = run_main([a.format(f=path) for a in argv], capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"gscompile: malformed {kind} file {path}: ")

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["place", "--graph", "{f}"], "graph file must be an object, got list"),
            (["place", "--graph", "linear:3", "--cal", "{f}"], "calibration must be an object, got list"),
            (["simulate", "--circuit", "{f}"], "circuit file must be an object, got list"),
        ],
    )
    def test_input_not_an_object_exit_1(self, tmp_path, capsys, argv, named):
        path = tmp_path / "input.json"
        path.write_text("[1, 2]")
        code, _, err = run_main([a.format(f=path) for a in argv], capsys)
        assert code == 1
        assert err == f"gscompile: {named}\n"

    def test_huge_n_graph_file_exit_1(self, tmp_path, capsys):
        """Too few edges to connect n vertices is rejected before anything
        of size n is built."""
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"n": 10**12, "edges": [[0, 1]]}))
        code, _, err = run_main(["place", "--graph", str(gpath)], capsys)
        assert code == 1
        assert err.splitlines() == ["gscompile: graph must be connected"]

    def test_circuit_wire_outside_placement_exit_1(self, tmp_path, capsys, sym3_path):
        circ = tmp_path / "c.json"
        circ.write_text(json.dumps({
            "n": 2,
            "placement": [0, 1],
            "makespan_ns": 370,
            "gates": [
                {"kind": "h", "wires": [0], "start_ns": 0, "end_ns": 35},
                {"kind": "h", "wires": [1], "start_ns": 0, "end_ns": 35},
                {"kind": "cx", "wires": [0, 1], "start_ns": 35, "end_ns": 335},
                {"kind": "h", "wires": [9], "start_ns": 335, "end_ns": 370},
            ],
        }))
        code, _, err = run_main(["simulate", "--circuit", str(circ), "--noise-from", sym3_path], capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()] and err.startswith("gscompile: ")
        assert "gates[3].wires" in err and "Traceback" not in err


    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda c: c["gates"][1].update(end_ns=None), "gates[1].end_ns"),
            (lambda c: c["gates"][0].update(start_ns="x"), "gates[0].start_ns"),
            (lambda c: c["gates"][2].update(kind="cz"), "gates[2].kind"),
            (lambda c: c.update(gates=5), "gates must be a list"),
            (lambda c: c.update(n="q"), "n must be an integer"),
            (lambda c: c.update(placement=[0, 0]), "placement must be a list"),
            (lambda c: c.update(makespan_ns=335.5), "makespan_ns"),
            (lambda c: c["gates"][0].update(end_ns=0), "gates[0].end_ns"),
            (lambda c: c["gates"].append({"kind": "h", "wires": [1], "start_ns": 100, "end_ns": 135}),
             "gates[3].start_ns 100 on qubit 1"),
            (lambda c: c["gates"].reverse(), "gates[1].start_ns 0 on qubit 1"),
            (lambda c: c.update(makespan_ns=300), "makespan_ns 300 is before"),
            (lambda c: c["gates"][0].update(start_ns=-35, end_ns=0), "gates[0].start_ns -35 is before time 0"),
            (lambda c: c["gates"].__setitem__(0, 5), "gates[0] must be an object, got 5"),
            (lambda c: c["gates"][0].update(bogus=1), "circuit file: gates[0]: unknown keys ['bogus']"),
            (lambda c: c["gates"][0].pop("start_ns"), "circuit file: gates[0]: missing keys ['start_ns']"),
            (lambda c: c.update(bogus=1), "circuit file: unknown keys ['bogus']"),
            (lambda c: c.pop("makespan_ns"), "circuit file: missing keys ['makespan_ns']"),
            (lambda c: c["gates"].pop(2), "circuit file: the cx gates' graph on 2 vertices is not connected"),
            (lambda c: c.update(n=1), "circuit file: n must be at least 2, got 1"),
            (lambda c: c["gates"].append({"kind": "cx", "wires": [1, 0], "start_ns": 335, "end_ns": 635}),
             "circuit file: gates[3] repeats the cx pair of gates[2]"),
        ],
    )
    def test_bad_circuit_field_exit_1(self, tmp_path, capsys, sym3_path, edit, field):
        data = {
            "n": 2,
            "placement": [0, 1],
            "makespan_ns": 335,
            "gates": [
                {"kind": "h", "wires": [0], "start_ns": 0, "end_ns": 35},
                {"kind": "h", "wires": [1], "start_ns": 0, "end_ns": 35},
                {"kind": "cx", "wires": [0, 1], "start_ns": 35, "end_ns": 335},
            ],
        }
        edit(data)
        circ = tmp_path / "c.json"
        circ.write_text(json.dumps(data))
        code, _, err = run_main(["simulate", "--circuit", str(circ), "--noise-from", sym3_path], capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()] and err.startswith("gscompile: ")
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda c: c.update(makespan_ns=10**400), "makespan_ns"),
            (lambda c: c["gates"][2].update(end_ns=10**400), "gates[2].end_ns"),
            (lambda c: c["gates"][2].update(start_ns=10**400, end_ns=10**400 + 300), "gates[2].start_ns"),
        ],
    )
    def test_time_beyond_float_range_exit_1(self, tmp_path, capsys, sym3_path, edit, field):
        # An idle gap becomes a float in the noise model; a time with no
        # float value is refused where the file is read.
        data = {
            "n": 2,
            "placement": [0, 1],
            "makespan_ns": 335,
            "gates": [
                {"kind": "h", "wires": [0], "start_ns": 0, "end_ns": 35},
                {"kind": "h", "wires": [1], "start_ns": 0, "end_ns": 35},
                {"kind": "cx", "wires": [0, 1], "start_ns": 35, "end_ns": 335},
            ],
        }
        edit(data)
        circ = tmp_path / "c.json"
        circ.write_text(json.dumps(data))
        argv = ["simulate", "--circuit", str(circ), "--noise-from", sym3_path, "--shots", "10"]
        code, _, err = run_main(argv, capsys)
        assert code == 1
        assert err == f"gscompile: circuit file: {field} is beyond float range\n"

    def test_negative_seed_exit_1(self, tmp_path, capsys, sym3_path):
        circ = tmp_path / "c.json"
        circ.write_text(json.dumps({
            "n": 2,
            "placement": [0, 1],
            "makespan_ns": 335,
            "gates": [
                {"kind": "h", "wires": [0], "start_ns": 0, "end_ns": 35},
                {"kind": "h", "wires": [1], "start_ns": 0, "end_ns": 35},
                {"kind": "cx", "wires": [0, 1], "start_ns": 35, "end_ns": 335},
            ],
        }))
        argv = ["simulate", "--circuit", str(circ), "--noise-from", sym3_path, "--seed", "-1"]
        code, _, err = run_main(argv, capsys)
        assert code == 1
        assert err == "gscompile: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d["qubits"][0].update(coherence_time_us="abc"), "qubits[0].coherence_time_us"),
            (lambda d: d["qubits"][1].update(coherence_time_us=float("nan")), "qubits[1].coherence_time_us"),
            (lambda d: d["qubits"][2].update(index=2.0), "qubits[2].index"),
            (lambda d: d["couplers"][1].update(duration_ab_ns="300"), "couplers[1].duration_ab_ns"),
            (lambda d: d.update(couplers="nope"), "couplers must be a list"),
            (lambda d: d.update(qubits=[5]), "qubits[0] must be an object"),
            (lambda d: d["qubits"][0].update(index=-1), "qubits[0].index must be non-negative"),
            (lambda d: d["qubits"][1].update(index=0), "qubits[1].index 0 duplicates qubits[0]"),
            (lambda d: d["couplers"][0].update(b=0), "couplers[0].b must differ from a"),
            (lambda d: d["couplers"][0].update(duration_ba_ns=0), "couplers[0].duration_ba_ns must be > 0"),
            (lambda d: d["couplers"][0].update(error=1.5), "couplers[0].error must be in [0, 1]"),
            (lambda d: d.update(snapshot_label=None), "calibration: snapshot_label must be a string, got None"),
            (lambda d: d.update(snapshot_label=[1, 2]), "calibration: snapshot_label must be a string, got [1, 2]"),
            (lambda d: d.update(snapshot_label=5), "calibration: snapshot_label must be a string, got 5"),
        ],
    )
    def test_bad_calibration_field_exit_1(self, tmp_path, capsys, sym3_path, edit, field):
        with open(sym3_path, encoding="utf-8") as f:
            data = json.load(f)
        edit(data)
        cal = tmp_path / "bad.json"
        cal.write_text(json.dumps(data))
        code, _, err = run_main(["place", "--graph", "linear:3", "--cal", str(cal)], capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()] and err.startswith("gscompile: ")
        assert field in err and "Traceback" not in err


class TestExternalSolver:
    def test_timeout_exit_1(self, capsys, sym3_path, monkeypatch):
        monkeypatch.setattr(cli, "EXTERNAL_SOLVER_TIMEOUT_S", 0.5)
        hang = shlex.join([sys.executable, "-c", "import time; time.sleep(30)"])
        start = time.monotonic()
        code, _, err = run_main(
            ["compile", "--graph", "linear:3", "--cal", sym3_path, "--external-solver", hang], capsys
        )
        assert time.monotonic() - start < 20
        assert code == 1
        assert err.splitlines() == [err.strip()] and err.startswith("gscompile: ")
        assert "timed out after 0.5 s" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "bindings, named",
        [
            ("C_0 Bool true, C_1 Bool true, S_0 Real (/ 1.0 0.0)", "S_0 to (/ 1.0 0.0), not a Real"),
            ("C_0 Bool true, C_1 Bool true, S_0 Real abc", "S_0 to abc, not a Real"),
            ("C_0 Bool 0.0", "C_0 to 0.0, not a Bool"),
            ("C_0 Bool true, C_1 Bool false, S_0 Real true", "S_0 to true, not a Real"),
            ("C_0 Bool true, C_1 Bool true, S_0 Real (+ 1.0 2.0)", "S_0 to (+ 1.0 2.0), not a Real"),
        ],
    )
    def test_malformed_value_exit_1(self, capsys, sym3_path, bindings, named):
        # A fake solver prints a model whose last binding is malformed.
        defs = [b.split(" ", 2) for b in bindings.split(", ")]
        listing = "sat\n(" + " ".join(f"(define-fun {n} () {sort} {v})" for n, sort, v in defs) + ")"
        fake = shlex.join([sys.executable, "-c", f"print({listing!r})"])
        code, _, err = run_main(
            ["compile", "--graph", "linear:3", "--cal", sym3_path, "--external-solver", fake], capsys
        )
        assert code == 1
        assert err.splitlines() == [err.strip()] and err.startswith("gscompile: ")
        assert named in err and "Traceback" not in err

    def test_solution_checked_then_compiled(self, tmp_path, capsys, sym3_path):
        # A fake solver prints the builtin solver's assignment: compile then
        # writes what the builtin path writes. With one start moved, the
        # same check that guards the builtin path refuses it.
        cal = load_calibration(sym3_path)
        g = linear_graph(3)
        m = build_model(g, best_placement(g, cal), cal, Objective(ObjectiveKind.SMT_RUNTIME))
        v = solve_exact(m).vars

        def listing(S):
            defs = [f"(define-fun C_{i} () Bool {str(b).lower()})" for i, b in v.C.items()]
            defs += [f"(define-fun B_{i} () Bool {str(b).lower()})" for i, b in v.B.items()]
            for name, values in (("S", S), ("T", v.T)):
                defs += [f"(define-fun {name}_{i} () Real {x}.0)" for i, x in values.items()]
            return "sat\n(" + "\n".join(defs) + ")\n"

        def run_external(S):
            model = tmp_path / "model.txt"
            model.write_text(listing(S))
            fake = shlex.join([sys.executable, "-c", "import sys; print(open(sys.argv[1]).read())", str(model)])
            return run_main(argv + ["--out", str(tmp_path / "ext.json"), "--external-solver", fake], capsys)

        argv = ["compile", "--graph", "linear:3", "--cal", sym3_path]
        builtin = tmp_path / "builtin.json"
        _, summary, _ = run_main(argv + ["--out", str(builtin)], capsys)
        code, stdout, _ = run_external(v.S)
        assert code == 0 and stdout == summary
        assert (tmp_path / "ext.json").read_bytes() == builtin.read_bytes()
        code, _, err = run_external({**v.S, 0: v.S[0] + 1})
        assert code == 1
        assert err.startswith("gscompile: solver solution violates constraints: [")

    def test_output_not_utf8_exit_1(self, capsys, sym3_path):
        # A fake solver answers sat, then bytes that are not UTF-8.
        script = "import sys; sys.stdout.buffer.write(b'sat\\n\\xff\\xfe')"
        fake = shlex.join([sys.executable, "-c", script])
        code, _, err = run_main(
            ["compile", "--graph", "linear:3", "--cal", sym3_path, "--external-solver", fake], capsys
        )
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith("gscompile: external solver output is not UTF-8: ")


class TestDeterminism:
    def test_repeat_invocations_bit_identical(self, tmp_path, capsys, sym3_path):
        outputs = []
        for tag in ("a", "b"):
            circ = tmp_path / f"c{tag}.json"
            _, summary, _ = run_main(
                ["compile", "--graph", "linear:3", "--cal", sym3_path, "--objective", "smt-runtime", "--out", str(circ)],
                capsys,
            )
            _, sim, _ = run_main(
                ["simulate", "--circuit", str(circ), "--noise-from", sym3_path, "--shots", "200", "--seed", "1"],
                capsys,
            )
            outputs.append((summary, circ.read_bytes(), sim))
        assert outputs[0] == outputs[1]


def test_console_script_installed():
    exe = shutil.which("gscompile")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gscompile 0.1.0" in proc.stdout
    assert "circuit=1" in proc.stdout


def test_module_entry_point():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "gscompile", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "gscompile 0.1.0" in proc.stdout
    assert "circuit=1" in proc.stdout


NUMPY_FREE_COMPILE = """
import json, sys
import gscompile
from gscompile import cli

code = cli.main(["compile", "--graph", "linear:4", "--out", sys.argv[1]])
after_compile = "numpy" in sys.modules

from gscompile.circuit import load_circuit
from gscompile.device import load_calibration, sample_calibration_path
from gscompile.sim import NoiseModel, density_oracle, estimate_fidelity

noise = NoiseModel.from_calibration(load_calibration(sample_calibration_path()))
circuit = load_circuit(sys.argv[1])
analytic = estimate_fidelity(circuit, noise, analytic=True, mitigate=True)
after_analytic = "numpy" in sys.modules
est = estimate_fidelity(circuit, noise, shots=200, seed=3, mitigate=True)
print(json.dumps({
    "code": code,
    "numpy_after_compile": after_compile,
    "numpy_after_analytic": after_analytic,
    "analytic_mitigated": analytic.fidelity_mitigated,
    "oracle": density_oracle(circuit, noise),
    "fidelity_raw": est.fidelity_raw,
    "stderr_raw": est.stderr_raw,
    "elements": len(est.elements),
}))
"""


def test_compile_does_not_load_numpy(tmp_path):
    # A fresh interpreter: place, solve, derive and the tableau check run
    # without numpy; any estimate, analytic or sampled, loads it.
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.pop("GSCOMPILE_CALIBRATION", None)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_COMPILE, str(tmp_path / "c.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == 0
    assert got["numpy_after_compile"] is False
    assert got["numpy_after_analytic"] is True
    assert abs(got["analytic_mitigated"] - got["oracle"]) <= 1e-12  # exact under the full noise model
    assert 0.0 < got["fidelity_raw"] <= 1.0 and got["stderr_raw"] > 0.0
    assert got["elements"] == 16
