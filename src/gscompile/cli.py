"""Command-line pipeline: place -> model -> solve/emit -> circuit -> simulate.

Exit codes: 0 success, 1 I/O, usage or validation failure, 2 graph not native
to the device, 3 a size cap was exceeded (the message names the remedy).
Diagnostics go to stderr; machine-readable results go to stdout or the
requested output files, so runs are scriptable and bit-identical for fixed
inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from . import __version__ as VERSION
from .circuit import circuit_to_json, derive_circuit, export_circuit, load_circuit
from .device import load_calibration, sample_calibration_path
from .errors import (
    CapExceededError,
    ExternalSolverError,
    NotNativeError,
    SolutionError,
    ValidationError,
)
from .graphs import builtin_graph, builtin_size, load_graph
from .model import (
    Objective,
    ObjectiveKind,
    build_model,
    canceled_count,
    check_solution,
    emit_smtlib,
    parse_external_solution,
)
from .oracle import oracle_sweep
from .placement import best_placement, check_size
from .sim import NoiseModel, estimate_fidelity, verify_graph_state
from .solver import solve_exact

SCHEMA_VERSIONS = {
    "calibration": 1,
    "graph": 1,
    "circuit": 1,
    "smtlib": "QF_LRA + maximize/minimize extension",
}
CALIBRATION_ENV = "GSCOMPILE_CALIBRATION"
EXTERNAL_SOLVER_TIMEOUT_S = 600  # wall-clock limit of one --external-solver run

_OBJECTIVES = {k.value: k for k in ObjectiveKind}


def _err(msg: str) -> None:
    print(f"gscompile: {msg}", file=sys.stderr)


def _resolve_graph(spec: str, cal):
    """A graph file, or a builtin name refused before its edges are built
    when it has more vertices than the device has qubits."""
    if "/" in spec or spec.endswith(".json") or os.path.exists(spec):
        return load_graph(spec)
    check_size(builtin_size(spec), cal)
    return builtin_graph(spec)


def _resolve_calibration(path):
    if path is None:
        path = os.environ.get(CALIBRATION_ENV)
    if path is None:
        path = sample_calibration_path()
    return load_calibration(path)


def _jsonable(value):
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else float(value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _write_or_stdout(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _build_instance(args):
    cal = _resolve_calibration(args.cal)
    g = _resolve_graph(args.graph, cal)
    e = best_placement(g, cal)
    obj = Objective(_OBJECTIVES[args.objective], crosstalk_free=args.crosstalk_free)
    return g, cal, e, build_model(g, e, cal, obj)


def _solve_external(m, command: str):
    try:
        argv = shlex.split(command)
    except ValueError as exc:  # e.g. an unbalanced quote
        raise ValidationError(f"--external-solver: {exc}") from None
    with tempfile.NamedTemporaryFile(
        "w", suffix=".smt2", delete=False, encoding="utf-8"
    ) as f:
        f.write(emit_smtlib(m))
        path = f.name
    try:
        proc = subprocess.run(argv + [path], capture_output=True, timeout=EXTERNAL_SOLVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ExternalSolverError(f"external solver timed out after {EXTERNAL_SOLVER_TIMEOUT_S} s") from None
    finally:
        os.unlink(path)
    if proc.returncode not in (0, 1):  # some solvers exit 1 on sat
        stderr = proc.stderr.decode(errors="replace").strip()
        raise ExternalSolverError(f"external solver failed (exit {proc.returncode}): {stderr}")
    try:
        output = proc.stdout.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ExternalSolverError(f"external solver output is not UTF-8: {exc}") from None
    return parse_external_solution(m, output)


def cmd_compile(args) -> int:
    g, cal, e, m = _build_instance(args)
    s = _solve_external(m, args.external_solver) if args.external_solver else solve_exact(m)
    violated = check_solution(m, s)
    if violated:
        raise SolutionError(f"solver solution violates constraints: {violated}")
    c = derive_circuit(m, s)
    verify_graph_state(c)
    summary = {
        "graph": args.graph,
        "n": g.n,
        "placement": list(e.mapping),
        "placement_score": e.score,
        "objective": args.objective,
        "objective_value": _jsonable(s.objective_value),
        "proven_optimal": s.proven_optimal,
        "canceled": canceled_count(m, s.vars),
        "cnots": sum(1 for tg in c.gates if tg.kind == "cx"),
        "hadamards": sum(1 for tg in c.gates if tg.kind == "h"),
        "makespan_ns": _jsonable(c.makespan),
    }
    if args.out is None:
        print(json.dumps(summary, indent=2), file=sys.stderr)
        sys.stdout.write(export_circuit(c, args.format))
    else:
        _write_or_stdout(export_circuit(c, args.format), args.out)
        print(json.dumps(summary, indent=2))
    return 0


def cmd_place(args) -> int:
    cal = _resolve_calibration(args.cal)
    g = _resolve_graph(args.graph, cal)
    e = best_placement(g, cal)
    print(json.dumps({"mapping": list(e.mapping), "score": e.score}, indent=2))
    return 0


def cmd_emit_smt(args) -> int:
    _, _, _, m = _build_instance(args)
    _write_or_stdout(emit_smtlib(m), args.out)
    return 0


def cmd_oracle(args) -> int:
    _, _, _, m = _build_instance(args)
    value, _, _ = oracle_sweep(m)[m.objective.kind]
    print(json.dumps({"objective": args.objective, "value": _jsonable(value)}))
    return 0


def cmd_simulate(args) -> int:
    c = load_circuit(args.circuit)
    cal = _resolve_calibration(args.noise_from)
    noise = NoiseModel.from_calibration(cal)
    est = estimate_fidelity(
        c,
        noise,
        shots=args.shots,
        seed=args.seed,
        mitigate=args.mitigate,
        analytic=args.analytic,
    )
    report = {
        "fidelity_raw": est.fidelity_raw,
        "fidelity_mitigated": est.fidelity_mitigated,
        "stderr_raw": est.stderr_raw,
        "stderr_mitigated": est.stderr_mitigated,
        "elements": {
            el.label: {"raw": el.raw, "mitigated": el.mitigated} for el in est.elements
        },
        "shots": est.shots,
        "seed": est.seed,
        "analytic": est.analytic,
    }
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if args.report is not None:
        Path(args.report).write_text(text, encoding="utf-8")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation failures: exit 1 with one named line.
    Subparsers inherit the class."""

    def error(self, message: str):
        raise ValidationError(message)


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="builtin name (linear:8, ring:6, star:5, fig1-seven) or graph JSON path")
    p.add_argument("--cal", default=None, help=f"calibration JSON (default: ${CALIBRATION_ENV} or the bundled 27-qubit sample)")
    p.add_argument("--objective", choices=sorted(_OBJECTIVES), default="smt-runtime")
    p.add_argument("--crosstalk-free", action="store_true", help="forbid concurrent topology-adjacent CNOTs")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gscompile",
        description="Hardware-aware compiler for timed graph-state preparation circuits.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"gscompile {VERSION} (schemas: "
        + ", ".join(f"{k}={v}" for k, v in SCHEMA_VERSIONS.items())
        + ")",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="full pipeline: place, solve, derive circuit")
    _add_instance_args(p)
    p.add_argument("--out", default=None, help="circuit output path (default: stdout)")
    p.add_argument("--format", choices=["json", "qasm-like"], default="json")
    p.add_argument("--external-solver", default=None, metavar="CMD", help="optimizing SMT solver command; receives the problem file path")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("place", help="best embedding and its fidelity score")
    p.add_argument("--graph", required=True)
    p.add_argument("--cal", default=None)
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("emit-smt", help="emit the scheduling model as SMT-LIB 2")
    _add_instance_args(p)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_emit_smt)

    p = sub.add_parser("oracle", help="brute-force optimum (small instances only)")
    _add_instance_args(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="noisy fidelity estimate for a circuit file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--noise-from", default=None, help="calibration JSON for the noise model")
    p.add_argument("--shots", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mitigate", action="store_true")
    p.add_argument("--analytic", action="store_true", help="exact expectations under the full noise model, no sampling")
    p.add_argument("--report", default=None, help="also write the report JSON here")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NotNativeError as exc:
        _err(str(exc))
        return 2
    except CapExceededError as exc:
        _err(str(exc))
        return 3
    except (ValidationError, SolutionError, ExternalSolverError, OSError) as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
