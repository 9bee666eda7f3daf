"""Solving strategies: whole-circuit, sliced with merging of refuted
slices, cyclic stitching, and best-of-slice-sizes selection.  All run
one slice loop, :func:`solve_sliced`, and one stitch, :func:`_concatenate`."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

from .arch import ConnectivityGraph, NoiseModel, diameter
from .circuit import Circuit, slice_circuit
from .encoder import EncodeOptions, decode, encode
from .errors import EncodingIntegrityError, SolveTimeoutError, UnroutableError
from .maxsat import SolveOutcome, SolveStatus, solve_builtin, solve_external
from .solution import QubitMap, RoutingSolution, SliceStats

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DriverConfig:
    """Strategy knobs for a routing run.

    ``slice_sizes`` drives :func:`solve_best`; the default tries 10-slot
    slices, then the whole circuit if it has at most 50 slots.  ``n`` is
    the swap budget per slot (1 is almost always enough and keeps the
    encoding small; the graph diameter guarantees feasibility).
    ``backend`` is ``"builtin"`` or ``"cmd:<template with {wcnf}>"``.
    """

    slice_sizes: tuple[int, ...] = (10, 50)
    n: int = 1
    budget: float | None = None
    backend: str = "builtin"
    weighted: NoiseModel | None = None

    def __post_init__(self):
        if self.budget is not None and not 0 < self.budget < math.inf:
            raise ValueError(f"budget must be a positive, finite number of seconds, got {self.budget}")
        if self.backend != "builtin" and not self.backend.startswith("cmd:"):
            raise ValueError(f"backend must be 'builtin' or 'cmd:<template>', got {self.backend!r}")


class _Budget:
    def __init__(self, seconds: float | None):
        self.seconds = seconds
        self.start = time.monotonic()
        self.deadline = None if seconds is None else self.start + seconds

    def share(self, parts: int) -> float | None:
        """What is left, split evenly over ``parts`` runs still to come."""
        if self.deadline is None:
            return None
        return max(self.deadline - time.monotonic(), 0.001) / parts

    def spent(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def where(self, index: int) -> str:
        """Failure context: the slice, the seconds spent and the budget."""
        limit = "none" if self.seconds is None else f"{self.seconds:g} s"
        return f"slice {index}, {time.monotonic() - self.start:.2f} s spent, budget {limit}"


def _run_solver(instance, cfg: DriverConfig, budget: float | None) -> SolveOutcome:
    if cfg.backend == "builtin":
        return solve_builtin(instance, budget)
    return solve_external(instance, cfg.backend[4:], budget)


def _trivial_solution(circuit: Circuit, g: ConnectivityGraph, budget: _Budget) -> RoutingSolution:
    """Routing for a circuit without two-qubit gates: identity placement."""
    if circuit.num_logical > g.num_physical:
        raise UnroutableError(
            f"{circuit.num_logical} logical qubits but only {g.num_physical} physical qubits ({budget.where(0)})"
        )
    return RoutingSolution(QubitMap.identity(circuit.num_logical), (), "optimal")


class _Step(NamedTuple):
    """One encode, solve and decode of a slice, with the time of each end."""

    solution: RoutingSolution | None  # None when the hard clauses are refuted
    outcome: SolveOutcome
    size: tuple[int, int, int]  # variables, hard clauses, soft clauses
    encode_ms: float
    decode_ms: float


def _slice_stats(index: int, steps: list[_Step]) -> SliceStats:
    """Accounting for one slice: times and search counters summed over
    all of its solves, the refuted solves merged into it included;
    status, size, incumbent timeline and lower bound from the last one."""
    last = steps[-1]
    outcomes = [s.outcome for s in steps]
    return SliceStats(
        index,
        sum(o.elapsed for o in outcomes) * 1000.0,
        sum(s.solution is None for s in steps),
        last.outcome.status.value,
        *last.size,
        sum(o.decisions for o in outcomes),
        sum(o.conflicts for o in outcomes),
        sum(o.propagations for o in outcomes),
        last.outcome.incumbents,
        last.outcome.lower_bound,
        encode_ms=sum(s.encode_ms for s in steps),
        decode_ms=sum(s.decode_ms for s in steps),
    )


def _solve_step(
    piece: Circuit, g: ConnectivityGraph, cfg: DriverConfig, budget: _Budget, index: int, slices_left: int, **options
) -> _Step:
    """Encode ``piece`` (slice ``index`` of a run) with the given
    :class:`EncodeOptions` fields, solve it with its share of what is
    left of ``budget`` (``slices_left`` slices, this one included, still
    have to run), and decode the model.

    A budget spent before the encode, or a share spent before the
    solver's first model, raises :class:`SolveTimeoutError`.
    """
    if budget.spent():
        raise SolveTimeoutError(f"budget spent before the solve started ({budget.where(index)})")
    opt = EncodeOptions(n=cfg.n, weighted=cfg.weighted, **options)
    t0 = time.monotonic()
    instance = encode(piece, g, opt)
    encode_ms = (time.monotonic() - t0) * 1000.0
    outcome = _run_solver(instance, cfg, budget.share(slices_left))
    size = (instance.num_vars, len(instance.hard), len(instance.soft))
    if outcome.status is SolveStatus.UNKNOWN:
        raise SolveTimeoutError(f"budget expired with no incumbent ({budget.where(index)})")
    if outcome.status is SolveStatus.HARD_UNSAT:
        return _Step(None, outcome, size, encode_ms, 0.0)
    status = "optimal" if outcome.status is SolveStatus.OPTIMAL else "best_effort"
    t0 = time.monotonic()
    solution = decode(outcome.model, instance, status=status)
    return _Step(solution, outcome, size, encode_ms, (time.monotonic() - t0) * 1000.0)


def solve_global(circuit: Circuit, g: ConnectivityGraph, cfg: DriverConfig = DriverConfig()) -> RoutingSolution:
    """Encode the whole circuit at once, solve, decode: the one-slice
    case of :func:`solve_sliced`.

    The solution is flagged optimal exactly when the backend proved
    optimality; with ``n`` set to the graph diameter that optimum is
    the true minimum swap count.
    """
    return solve_sliced(circuit, g, cfg, len(circuit.slots) or 1)


def solve_sliced(
    circuit: Circuit, g: ConnectivityGraph, cfg: DriverConfig, slice_size: int, *, cyclic: bool = False
) -> RoutingSolution:
    """Solve the circuit slice by slice, pinning each slice's starting
    placement to the previous slice's final one.

    A refuted slice is merged into its predecessor, and the joined slice
    is re-solved from the final map before it, or unpinned once it is
    slice 0.  Each refutation removes one slice, so the run ends; a
    refuted slice 0 is a refuted prefix of the circuit, which proves the
    whole circuit unroutable at this ``n``.  Each slice's solve gets what
    is left of the budget divided by the slices still to run, so it stops
    at its incumbent instead of spending the later slices' time on a
    proof.  Only a run down to one slice, the whole circuit, carries the
    canonical placement clauses: they could change which of its
    equal-cost optima slice 0 hands on, and with it every later slice.

    With ``cyclic`` (see :func:`solve_cyclic`) the last slice, the
    closing one, is also pinned at its end to the map slice 0 starts
    from, so the run returns to where it began.  A refuted closing slice
    collapses the run to one slice, and a one-slice cyclic run is the
    whole circuit encoded cyclically.

    The result is locally optimal per slice but only best-effort
    overall, unless it has zero swaps (unweighted) or is one slice, which
    is the instance of :func:`solve_global` and keeps that solve's status.
    """
    budget = _Budget(cfg.budget)
    if not circuit.slots:
        return _trivial_solution(circuit, g, budget)
    slices = slice_circuit(circuit, slice_size)
    solutions: list[RoutingSolution] = []
    steps: list[list[_Step]] = [[] for _ in slices]  # each slice's solves, merged refutations included

    while len(solutions) < len(slices):
        i, count = len(solutions), len(slices)
        pin = solutions[-1].final_map if solutions else None
        closing = cyclic and i == count - 1  # pinned back to slice 0's start, or, alone, encoded cyclically
        home = solutions[0].initial_map if closing and solutions else None
        step = _solve_step(
            slices[i], g, cfg, budget, i, count - i,
            pinned_initial=pin, pinned_final=home, cyclic=closing and not solutions, canonical_placement=count == 1,
        )
        steps[i].append(step)
        if step.solution is not None:
            logger.info(
                "slice %d of %d: %s, %d gates added, %d conflicts",
                i, count, step.solution.status, step.solution.gates_added, step.outcome.conflicts,
            )
            solutions.append(step.solution)
            continue
        if i == 0:
            refuted = "no cyclic routing of the block" if closing else "unroutable"
            raise UnroutableError(
                f"{refuted} with n={cfg.n} swaps per slot; "
                f"raise n (graph diameter is {diameter(g)}) ({budget.where(0)})"
            )
        if closing:
            logger.info(
                "slice %d of %d: closing slice unsatisfiable after %d conflicts; solving the whole block cyclically",
                i, count, step.outcome.conflicts,
            )
            solutions.clear()
            slices[:] = [circuit]
            steps[:] = [[s for merged in steps for s in merged]]
            continue
        logger.info(
            "slice %d of %d: unsatisfiable after %d conflicts; merging it into slice %d",
            i, count, step.outcome.conflicts, i - 1,
        )
        solutions.pop()
        slices[i - 1 : i + 1] = [Circuit(circuit.num_logical, slices[i - 1].gates + slices[i].gates)]
        steps[i - 1 : i + 1] = [steps[i - 1] + steps[i]]

    stats = tuple(_slice_stats(k, s) for k, s in enumerate(steps))
    if len(solutions) == 1:
        return replace(solutions[0], per_slice_stats=stats)
    return _concatenate(solutions, stats, cfg)


def _concatenate(solutions: list[RoutingSolution], stats, cfg: DriverConfig) -> RoutingSolution:
    swaps = tuple(s for sol in solutions for s in sol.swaps)
    objectives = [sol.weighted_objective for sol in solutions]
    return RoutingSolution(
        solutions[0].initial_map,
        swaps,
        "optimal" if cfg.weighted is None and not any(swaps) else "best_effort",  # no one solve proves the whole
        per_slice_stats=stats,
        weighted_objective=None if None in objectives else sum(objectives),
    )


def solve_cyclic(
    block: Circuit,
    cycles: int,
    g: ConnectivityGraph,
    cfg: DriverConfig = DriverConfig(),
    slice_size: int | None = None,
) -> RoutingSolution:
    """Route one repeated block under the constraint that its final map
    equals its initial map, then stitch ``cycles`` copies together.

    Because the boundary constraint makes every copy start exactly where
    the previous one ended, the block's swap schedule replays verbatim
    in every copy and the total cost is exactly ``cycles`` times the
    per-block cost.  The block runs through the slice loop of
    :func:`solve_sliced`, at ``slice_size`` or else as one slice.  Its
    last slice closes the loop: it is pinned at its end to the map
    slice 0 starts from.  If that closing slice is refuted, the run
    collapses to one slice, the whole block encoded with its final map
    tied to its initial one.  A refuted slice 0 refutes the block, open
    or cyclic.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    base = solve_sliced(block, g, cfg, slice_size or len(block.slots) or 1, cyclic=True)
    if base.final_map != base.initial_map:
        raise EncodingIntegrityError("cyclic solve produced a block that does not return to its initial map")
    return _concatenate([base] * cycles, base.per_slice_stats, cfg)


@dataclass(frozen=True)
class SizeRun:
    """Outcome of one slice size within a best-of run."""

    slice_size: int
    status: str  # "ok" or "timeout"
    gates_added: int | None
    elapsed_ms: float
    error: str | None = None
    weighted_objective: int | None = None  # the routing's cost under the noise model, when one is set


@dataclass(frozen=True)
class BestOfOutcome:
    solution: RoutingSolution
    selected_size: int
    runs: tuple[SizeRun, ...]


def solve_best(circuit: Circuit, g: ConnectivityGraph, cfg: DriverConfig = DriverConfig()) -> BestOfOutcome:
    """Run the sliced strategy at every configured slice size and keep
    the cheapest verified outcome.  Under a noise model the cheapest is
    the least weighted objective, then the fewest gates added; without
    one, the fewest gates added.  Ties go to the smaller size.

    Every size of at least the circuit's slot count yields the same
    single slice, so only the smallest of those runs.  Each size gets
    what is left of the budget divided by the sizes still to run, so a
    size that finishes early hands its unspent share on.  The run stops
    at the first size whose routing is optimal: no later size can beat it.

    A size's :class:`UnroutableError` proves the whole circuit
    unroutable (see :func:`solve_sliced`), so it ends the run at once.
    When no size routes, every size ran out of budget, and the run
    raises :class:`SolveTimeoutError`.
    """
    if not cfg.slice_sizes:
        raise ValueError("sliced strategy needs at least one slice size")
    sizes = sorted(set(cfg.slice_sizes))
    whole = [s for s in sizes if s >= len(circuit.slots)]
    sizes = [s for s in sizes if s < len(circuit.slots)] + whole[:1]
    budget = _Budget(cfg.budget)
    runs: list[SizeRun] = []
    best: tuple[int, int, int] | None = None  # (weighted objective or 0, gates_added, size)
    best_solution: RoutingSolution | None = None
    for k, size in enumerate(sizes):
        t0 = time.monotonic()
        try:
            sol = solve_sliced(circuit, g, replace(cfg, budget=budget.share(len(sizes) - k)), size)
        except SolveTimeoutError as exc:
            runs.append(SizeRun(size, "timeout", None, (time.monotonic() - t0) * 1000.0, str(exc)))
            continue
        runs.append(SizeRun(size, "ok", sol.gates_added, (time.monotonic() - t0) * 1000.0,
                            weighted_objective=sol.weighted_objective))
        rank = (sol.weighted_objective or 0, sol.gates_added, size)  # the objective is None when unweighted
        if best is None or rank < best:
            best = rank
            best_solution = sol
        if sol.status == "optimal":
            break
    if best_solution is None:
        reasons = "; ".join(f"size {r.slice_size}: {r.error}" for r in runs)
        raise SolveTimeoutError(f"no slice size routed within the budget ({reasons})")
    return BestOfOutcome(best_solution, best[2], tuple(runs))


def as_cyclic_blocks(circuit: Circuit, block_slots: int) -> tuple[Circuit, int]:
    """Split a pre-unrolled cyclic circuit into (block, cycles).

    The circuit must consist of identical copies of a ``block_slots``
    two-qubit-gate pattern: same unordered operand pair at every slot of
    every copy.  Anything else is rejected rather than mis-stitched.
    """
    total = len(circuit.slots)
    if block_slots < 1 or total == 0 or total % block_slots:
        raise ValueError(f"{total} slots do not divide into blocks of {block_slots}")
    cycles = total // block_slots
    pattern = [frozenset(circuit.gates[s].operands) for s in circuit.slots]
    for t in range(block_slots):
        for j in range(1, cycles):
            if pattern[j * block_slots + t] != pattern[t]:
                raise ValueError(
                    f"slot {j * block_slots + t} does not repeat slot {t}'s qubit pair; "
                    "the circuit is not cyclic with this block length"
                )
    return slice_circuit(circuit, block_slots)[0], cycles
