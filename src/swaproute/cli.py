"""Command-line front end: compile circuits, verify routings, emit WCNF."""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import os
import stat
import sys
import time
from pathlib import Path

from .arch import load_arch, load_noise
from .circuit import Circuit, emit_qasm, generate_qaoa_maxcut, parse_qasm
from .driver import DriverConfig, SizeRun, as_cyclic_blocks, solve_best, solve_cyclic, solve_global
from .encoder import EncodeOptions, encode
from .errors import EncodingIntegrityError, SolveTimeoutError, SwaprouteError, UnroutableError
from .kernel import name as kernel_name
from .maxsat import emit_wcnf
from .solution import SliceStats, apply_routing
from .verifier import verify, verify_solution

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_SOLUTION = 2  # budget expired without any incumbent
EXIT_UNROUTABLE = 3  # hard-unsat: no routing with n swaps per slot
EXIT_INTERNAL = 4  # a model or routing fails swaproute's own checks: a fault in swaproute, not in its input

_MAP_COMMENT = "initial_map:"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


class _Phases:
    """Wall time of consecutive phases of one command, in ms."""

    def __init__(self):
        self.ms: dict[str, float] = {}
        self._mark = time.monotonic()

    def end(self, name: str):
        """Close phase ``name`` now; the next phase starts here."""
        now = time.monotonic()
        self.ms[name] = (now - self._mark) * 1000.0
        self._mark = now


@dataclasses.dataclass
class StatsRecord:
    """Machine-readable summary of one ``map`` run.

    ``phase_ms`` splits the run's wall time: ``parse`` reads the circuit,
    the device and the noise file; ``route`` runs the strategy;
    ``verify`` builds the routed circuit and checks it twice; ``emit``
    writes the routed QASM.  ``kernel`` names the search kernel that the
    built-in solver runs in this process, ``"c"`` (compiled) or
    ``"python"``; it is None with an external solver.
    """

    input: str
    arch: str
    strategy: str
    slice_sizes: list[int] | None
    n: int
    backend: str
    swap_count: int
    gates_added: int
    status: str
    total_elapsed_ms: float
    backtracks: int
    num_vars: int
    hard_clauses: int
    soft_clauses: int
    initial_map: list[int]
    per_slice: list[SliceStats]
    phase_ms: dict[str, float]
    weighted_objective: int | None = None
    selected_slice_size: int | None = None
    size_runs: list[SizeRun] | None = None
    kernel: str | None = None


def _read_circuit(path: str) -> Circuit:
    return parse_qasm(Path(path).read_text(encoding="utf-8"))


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise _UsageError(f"bad slice size list {text!r}") from exc
    if not sizes or any(s < 1 for s in sizes):
        raise _UsageError(f"slice sizes must be positive: {text!r}")
    return sizes


def _parse_map(text: str) -> tuple[int, ...]:
    # raw placement tuple: even a non-injective map should reach the
    # verifier and come back as a verdict, not a usage error
    try:
        return tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError as exc:
        raise _UsageError(f"bad initial map {text!r}: {exc}") from exc


def _overwrite(path: str, content: str):
    """Write ``content`` to ``path``, overwriting a regular file in place.

    A regular file is opened without truncation, written over and then cut
    to the new length; a write that fails cuts it at the bytes written, so
    no old tail survives.  Emptying a file first would cost more: ext4
    (``auto_da_alloc``) starts writeback on close of a file that was
    truncated to zero and rewritten.  Anything else (``/dev/null``, a FIFO)
    is just written to.
    """
    data = memoryview(content.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _write(path: str | None, content: str):
    if path is None or path == "-":
        sys.stdout.write(content)
    else:
        _overwrite(path, content)


def _cmd_map(args) -> int:
    t0 = time.monotonic()
    phases = _Phases()
    source = _read_circuit(args.input)
    g = load_arch(args.arch)
    noise = load_noise(args.noise, g) if args.noise else None
    phases.end("parse")
    sizes = _parse_sizes(args.slice_size) if args.slice_size else DriverConfig.slice_sizes
    cfg = DriverConfig(
        slice_sizes=sizes,
        n=args.n,
        budget=args.budget,
        backend=args.solver,
        weighted=noise,
    )

    selected = None
    size_runs = None
    used_sizes = None  # the slice sizes the strategy ran with
    if args.strategy == "global":
        solution = solve_global(source, g, cfg)
    elif args.strategy == "sliced":
        outcome = solve_best(source, g, cfg)
        solution, selected = outcome.solution, outcome.selected_size
        size_runs = list(outcome.runs)
        used_sizes = list(sizes)
    else:  # "cyclic", the last of argparse's choices
        if args.cyclic_block_slots is None:
            raise _UsageError("--strategy cyclic requires --cyclic-block-slots")
        block, cycles = as_cyclic_blocks(source, args.cyclic_block_slots)
        block_slice = max(sizes) if args.slice_size else None
        solution = solve_cyclic(block, cycles, g, cfg, slice_size=block_slice)
        used_sizes = None if block_slice is None else [block_slice]
    phases.end("route")

    structural = verify_solution(source, solution, g)
    if not structural:
        print(f"internal error: solution fails structural verification: {structural.violation}", file=sys.stderr)
        return EXIT_INTERNAL
    routed = apply_routing(source, solution, g.num_physical)
    replay = verify(source, routed, solution.initial_map, g)
    if not replay:
        print(f"internal error: routed circuit fails verification: {replay.violation}", file=sys.stderr)
        return EXIT_INTERNAL
    phases.end("verify")

    comment = f"{_MAP_COMMENT} " + " ".join(str(p) for p in solution.initial_map.placement)
    _write(args.output, emit_qasm(routed, decompose_swaps=args.decompose_swaps, comments=[comment]))
    phases.end("emit")

    record = StatsRecord(
        input=args.input,
        arch=args.arch,
        strategy=args.strategy,
        slice_sizes=used_sizes,
        n=args.n,
        backend=args.solver,
        swap_count=solution.swap_count,
        gates_added=solution.gates_added,
        status=solution.status,
        total_elapsed_ms=(time.monotonic() - t0) * 1000.0,
        backtracks=sum(s.backtracks for s in solution.per_slice_stats),
        num_vars=sum(s.num_vars for s in solution.per_slice_stats),
        hard_clauses=sum(s.hard_clauses for s in solution.per_slice_stats),
        soft_clauses=sum(s.soft_clauses for s in solution.per_slice_stats),
        initial_map=list(solution.initial_map.placement),
        per_slice=list(solution.per_slice_stats),
        phase_ms=phases.ms,
        weighted_objective=solution.weighted_objective,
        selected_slice_size=selected,
        size_runs=size_runs,
        kernel=kernel_name() if args.solver == "builtin" else None,
    )
    if args.stats:
        # One pass: json writes each dataclass from its own field dict, where
        # dataclasses.asdict would deep-copy every leaf first; same text.
        _overwrite(args.stats, json.dumps(record, indent=2, default=vars) + "\n")
    print(
        f"{args.input}: {solution.swap_count} swap(s), {solution.gates_added} gate(s) added, "
        f"status {solution.status}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    source = _read_circuit(args.source)
    routed_text = Path(args.routed).read_text(encoding="utf-8")
    routed = parse_qasm(routed_text)
    g = load_arch(args.arch)
    if args.initial_map:
        initial = _parse_map(args.initial_map)
    else:
        initial = None
        for line in routed_text.splitlines():
            stripped = line.strip()
            if stripped.startswith("//") and _MAP_COMMENT in stripped:
                initial = _parse_map(stripped.split(_MAP_COMMENT, 1)[1])
                break
        if initial is None:
            raise _UsageError("no --initial-map given and the routed file carries no initial_map comment")
    verdict = verify(source, routed, initial, g)
    if verdict.ok:
        print("ok")
        return EXIT_OK
    v = verdict.violation
    print(f"violation [{v.kind}] at gate {v.index}: {v.message}")
    return EXIT_UNROUTABLE


def _cmd_emit_wcnf(args) -> int:
    source = _read_circuit(args.input)
    g = load_arch(args.arch)
    noise = load_noise(args.noise, g) if args.noise else None
    instance = encode(source, g, EncodeOptions(n=args.n, weighted=noise))
    _write(args.output, emit_wcnf(instance))
    return EXIT_OK


def _cmd_gen_qaoa(args) -> int:
    circuit = generate_qaoa_maxcut(args.qubits, args.cycles, args.seed)
    _write(args.output, emit_qasm(circuit))
    return EXIT_OK


def _cmd_arch(args) -> int:
    g = load_arch(args.name)
    lines = [f"n {g.num_physical}"] + [f"{u} {v}" for u, v in g.sorted_edges()]
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swaproute", description="MaxSAT-based qubit mapping and routing")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="compile a circuit onto an architecture")
    p.add_argument("--input", required=True, help="source OpenQASM 2.0 file")
    p.add_argument("--arch", required=True, help="architecture name or edge-list file")
    p.add_argument("--strategy", choices=["global", "sliced", "cyclic"], default="sliced")
    default_sizes = ",".join(map(str, DriverConfig.slice_sizes))
    p.add_argument(
        "--slice-size",
        default=None,
        help=f"comma-separated slice sizes (default {default_sizes}); with --strategy cyclic the block is "
        "sliced at the largest listed size, its last slice pinned back to the block's start, and it is "
        "encoded whole without this option or if that last slice is refuted",
    )
    p.add_argument("--n", type=int, default=1, help="swaps allowed before each two-qubit gate")
    p.add_argument("--budget", type=float, default=None, help="total time budget in seconds")
    p.add_argument("--solver", default="builtin", help="'builtin' or 'cmd:<template with {wcnf}>'")
    p.add_argument("--noise", default=None, help="JSON noise file enabling weighted (fidelity) mode")
    p.add_argument("--cyclic-block-slots", type=int, default=None, help="two-qubit gates per repeated block (cyclic strategy)")
    p.add_argument("--decompose-swaps", action="store_true", help="emit each swap as three CNOTs")
    p.add_argument("--output", default=None, help="routed QASM path (default stdout)")
    p.add_argument("--stats", default=None, help="write a JSON stats record here")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("verify", help="check a routed circuit against its source")
    p.add_argument("--source", required=True)
    p.add_argument("--routed", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--initial-map", default=None, help="space/comma-separated physical position of each logical qubit")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("emit-wcnf", help="encode a routing problem and write the WCNF")
    p.add_argument("--input", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument(
        "--noise",
        default=None,
        help="JSON noise file enabling weighted mode; the WCNF leaves out the least cx weight that each "
        "two-qubit gate pays wherever it lands",
    )
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_emit_wcnf)

    p = sub.add_parser("gen-qaoa", help="generate a QAOA max-cut circuit over a random 3-regular graph")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--cycles", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_gen_qaoa)

    p = sub.add_parser("arch", help="print a built-in architecture as an edge-list file")
    p.add_argument("--name", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_arch)

    return parser


_parser: argparse.ArgumentParser | None = None  # main's, built on its first call


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector paused.

    A device-scale command builds hundreds of thousands of solver
    lists, and each collection re-walks every one of them.  None of them
    is in a reference cycle, so reference counting frees them all the
    same; the caller's setting comes back on every exit.

    The argument parser is built on the first call, not at import, and
    kept for every later call in the process.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parser.parse_args(argv)
        logging.basicConfig(stream=sys.stderr)  # a no-op once the root logger has a handler
        logging.getLogger("swaproute").setLevel(logging.INFO if args.verbose else logging.WARNING)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except SolveTimeoutError as exc:
        print(f"no solution within budget: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except UnroutableError as exc:
        print(f"unroutable: {exc}", file=sys.stderr)
        return EXIT_UNROUTABLE
    except EncodingIntegrityError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (SwaprouteError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
