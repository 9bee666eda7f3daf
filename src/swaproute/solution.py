"""Qubit maps and routing solutions shared by the encoder, driver, and verifier."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .circuit import Circuit, Gate

Edge = tuple[int, int]


@dataclass(frozen=True)
class QubitMap:
    """A total injective placement of logical qubits on physical qubits.

    ``placement[q]`` is the physical qubit holding logical qubit ``q``.
    """

    placement: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "placement", tuple(self.placement))
        if len(set(self.placement)) != len(self.placement):
            raise ValueError(f"map is not injective: {self.placement}")

    def __getitem__(self, logical: int) -> int:
        return self.placement[logical]

    def __len__(self) -> int:
        return len(self.placement)

    def apply_swap(self, u: int, v: int) -> "QubitMap":
        """The map after exchanging the contents of physical qubits u and v."""
        moved = tuple(v if p == u else u if p == v else p for p in self.placement)
        return QubitMap(moved)

    @classmethod
    def identity(cls, n: int) -> "QubitMap":
        return cls(tuple(range(n)))


@dataclass(frozen=True)
class SliceStats:
    """Per-slice solve accounting for one driver run.

    Times and the search counters are summed over every solve of the
    slice, and of each refuted slice merged into it: ``encode_ms``,
    ``solve_ms`` and ``decode_ms`` are its encode, solver and decode wall
    times, and ``backtracks`` counts the refuted solves merged in.  The
    instance sizes and status are the last solve's; ``incumbents`` is its
    timeline of (seconds, falsified weight) pairs, and ``lower_bound`` its
    proven lower bound on the falsified weight, so a best-effort slice
    shows its gap.  Both are in instance units: in weighted mode they
    leave out the encoder's offset, which ``weighted_objective`` includes.
    """

    index: int
    solve_ms: float
    backtracks: int
    status: str
    num_vars: int = 0
    hard_clauses: int = 0
    soft_clauses: int = 0
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    incumbents: tuple[tuple[float, int], ...] = ()
    lower_bound: int = 0
    encode_ms: float = 0.0
    decode_ms: float = 0.0


@dataclass(frozen=True)
class RoutingSolution:
    """A complete routing: where qubits start, and which swaps happen
    before each two-qubit gate.  Everything else is derived from those two.

    ``swaps[k-1]`` holds slot k's transpositions.  ``map_sequence[k-1]``
    is the map under which slot k's gate executes: the previous map (or
    ``initial_map`` for slot 1) composed with that slot's transpositions.
    It is replayed from ``swaps`` on first use and kept; an object made by
    ``dataclasses.replace`` replays its own.
    """

    initial_map: QubitMap
    swaps: tuple[tuple[Edge, ...], ...]
    status: str  # "optimal" or "best_effort"
    per_slice_stats: tuple[SliceStats, ...] = ()
    weighted_objective: int | None = None

    @cached_property
    def map_sequence(self) -> tuple[QubitMap, ...]:
        maps = []
        live = self.initial_map
        for group in self.swaps:
            for u, v in group:
                live = live.apply_swap(u, v)
            maps.append(live)
        return tuple(maps)

    @property
    def swap_count(self) -> int:
        return sum(len(s) for s in self.swaps)

    @property
    def gates_added(self) -> int:
        """Cost in CNOTs: every swap decomposes to three."""
        return 3 * self.swap_count

    @property
    def final_map(self) -> QubitMap:
        return self.map_sequence[-1] if self.map_sequence else self.initial_map


def apply_routing(source: Circuit, solution: RoutingSolution, num_physical: int) -> Circuit:
    """Realize a routed physical circuit from a source circuit and a solution.

    Before each two-qubit gate the slot's swaps are emitted as ``swap``
    gates; every source gate is re-emitted on the physical qubits its
    logical operands occupy at that point.  One-qubit gates between two
    slots execute under the later slot's map, after its swaps.
    """
    if len(solution.swaps) != len(source.slots):
        raise ValueError(f"solution has {len(solution.swaps)} slots, circuit has {len(source.slots)}")
    out: list[Gate] = []
    maps = zip(solution.swaps, solution.map_sequence)
    live = solution.initial_map
    pending: list[Gate] = []

    def flush(m: QubitMap):
        for g in pending:
            out.append(Gate(g.name, tuple(m[q] for q in g.operands), g.params))
        pending.clear()

    for g in source.gates:
        if not g.is_two_qubit:
            pending.append(g)
            continue
        group, live = next(maps)
        out.extend(Gate("swap", (u, v)) for u, v in group)
        flush(live)
        out.append(Gate(g.name, tuple(live[q] for q in g.operands), g.params))
    flush(live)
    return Circuit(num_physical, tuple(out))
