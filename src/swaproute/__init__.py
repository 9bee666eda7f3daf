"""MaxSAT-based qubit mapping and routing.

Given a circuit and a device connectivity graph, find an initial
logical-to-physical placement and the swaps to insert before two-qubit
gates so every such gate acts on adjacent physical qubits, minimizing
the number of swaps (or, in weighted mode, the routed circuit's log
infidelity).  The reduction, the relaxations (slicing with
backtracking, cyclic stitching), the solvers, and an independent
verifier are all importable from this package; the ``swaproute`` CLI
ties them together.
"""

from .arch import ConnectivityGraph, NoiseModel, diameter, load_arch, load_noise
from .circuit import (
    Circuit,
    Gate,
    emit_qasm,
    generate_qaoa_maxcut,
    parse_qasm,
    slice_circuit,
)
from .cnf import Clause, InstanceBuilder, MaxSatInstance, Model
from .driver import (
    BestOfOutcome,
    DriverConfig,
    as_cyclic_blocks,
    solve_best,
    solve_cyclic,
    solve_global,
    solve_sliced,
)
from .encoder import (
    EncodeOptions,
    decode,
    encode,
    instance_stats,
)
from .errors import (
    ArchError,
    EncodingError,
    NoiseModelError,
    OracleLimitError,
    QasmError,
    SolverIntegrityError,
    SolverOutputError,
    SolveTimeoutError,
    SwaprouteError,
    UnroutableError,
)
from .maxsat import SolveOutcome, SolveStatus, emit_wcnf, parse_wcnf, solve_builtin, solve_external
from .solution import QubitMap, RoutingSolution, SliceStats, apply_routing
from .verifier import Verdict, Violation, verify, verify_solution

__version__ = "0.1.0"

__all__ = [
    "ArchError",
    "BestOfOutcome",
    "Circuit",
    "Clause",
    "ConnectivityGraph",
    "DriverConfig",
    "EncodeOptions",
    "EncodingError",
    "Gate",
    "InstanceBuilder",
    "MaxSatInstance",
    "Model",
    "NoiseModel",
    "NoiseModelError",
    "OracleLimitError",
    "QasmError",
    "QubitMap",
    "RoutingSolution",
    "SliceStats",
    "SolveOutcome",
    "SolveStatus",
    "SolveTimeoutError",
    "SolverIntegrityError",
    "SolverOutputError",
    "SwaprouteError",
    "UnroutableError",
    "Verdict",
    "Violation",
    "apply_routing",
    "as_cyclic_blocks",
    "decode",
    "diameter",
    "emit_qasm",
    "emit_wcnf",
    "encode",
    "generate_qaoa_maxcut",
    "instance_stats",
    "load_arch",
    "load_noise",
    "parse_qasm",
    "parse_wcnf",
    "slice_circuit",
    "solve_best",
    "solve_builtin",
    "solve_cyclic",
    "solve_external",
    "solve_global",
    "solve_sliced",
    "verify",
    "verify_solution",
]
