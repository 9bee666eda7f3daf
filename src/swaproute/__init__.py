"""MaxSAT-based qubit mapping and routing.

Given a circuit and a device connectivity graph, find an initial
logical-to-physical placement and the swaps to insert before two-qubit
gates so every such gate acts on adjacent physical qubits, minimizing
the number of swaps (or, in weighted mode, the routed circuit's log
infidelity).  The package root exports the library API: parsing,
devices, the reduction, the strategies (whole-circuit, slicing that
merges a refuted slice into its predecessor, cyclic stitching,
best-of), the solver, the verifier and the errors.  Every other name is
importable from its own module; the ``swaproute`` CLI ties them
together.
"""

from .arch import NoiseModel, diameter, load_arch
from .circuit import Circuit, Gate, emit_qasm, generate_qaoa_maxcut, parse_qasm
from .cnf import InstanceBuilder
from .driver import DriverConfig, solve_best, solve_cyclic, solve_global, solve_sliced
from .encoder import EncodeOptions, decode, encode
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
from .maxsat import emit_wcnf, parse_wcnf, solve_builtin
from .solution import apply_routing
from .verifier import verify, verify_solution

__version__ = "0.1.0"

__all__ = [
    "ArchError",
    "Circuit",
    "DriverConfig",
    "EncodeOptions",
    "EncodingError",
    "Gate",
    "InstanceBuilder",
    "NoiseModel",
    "NoiseModelError",
    "OracleLimitError",
    "QasmError",
    "SolveTimeoutError",
    "SolverIntegrityError",
    "SolverOutputError",
    "SwaprouteError",
    "UnroutableError",
    "apply_routing",
    "decode",
    "diameter",
    "emit_qasm",
    "emit_wcnf",
    "encode",
    "generate_qaoa_maxcut",
    "load_arch",
    "parse_qasm",
    "parse_wcnf",
    "solve_best",
    "solve_builtin",
    "solve_cyclic",
    "solve_global",
    "solve_sliced",
    "verify",
    "verify_solution",
]
