"""Independent validation of routed circuits.

The verifier shares only the basic circuit/graph/map types with the
rest of the package: it re-derives everything by traversing the routed
circuit, evaluating the effect of each swap on a live map and checking
that every gate matches the source and acts on connected qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .arch import ConnectivityGraph
from .circuit import Circuit, Gate
from .solution import QubitMap, RoutingSolution

# Violation kinds
SWAP_NON_EDGE = "swap-non-edge"
GATE_NON_EDGE = "gate-non-edge"
REORDERED_GATE = "reordered-gate"
DROPPED_GATE = "dropped-gate"
EXTRA_GATE = "extra-gate"
GATE_MISMATCH = "gate-mismatch"
NON_INJECTIVE_MAP = "non-injective-map"
MAP_MISMATCH = "map-mismatch"


@dataclass(frozen=True)
class Violation:
    kind: str
    index: int  # gate index in the routed circuit (or slot index for solutions)
    message: str


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violation: Violation | None = None

    def __bool__(self) -> bool:
        return self.ok


def _fail(kind: str, index: int, message: str) -> Verdict:
    return Verdict(False, Violation(kind, index, message))


def _mapped(gate: Gate, live: dict[int, int]) -> tuple:
    return (gate.name, tuple(live[q] for q in gate.operands), gate.params)


def _routed_key(gate: Gate) -> tuple:
    return (gate.name, gate.operands, gate.params)


def verify(source: Circuit, routed: Circuit, initial_map: QubitMap | Sequence[int], g: ConnectivityGraph) -> Verdict:
    """Check that ``routed`` faithfully executes ``source`` on ``g``.

    Walks the routed circuit with a live logical-to-physical map seeded
    from ``initial_map`` (a QubitMap or a raw placement sequence).  A
    ``swap`` gate must act on an edge and updates the map; any other
    gate must equal the next unconsumed source gate translated through
    the live map, and two-qubit gates must act on an edge.  At the end
    every source gate must have been consumed.  The first violation is
    reported with its index and kind.
    """
    placement = tuple(getattr(initial_map, "placement", initial_map))
    if len(set(placement)) != len(placement):
        return _fail(NON_INJECTIVE_MAP, -1, "initial map is not injective")
    if len(placement) != source.num_logical:
        return _fail(MAP_MISMATCH, -1, f"initial map covers {len(placement)} qubits, source has {source.num_logical}")
    for p in placement:
        if not 0 <= p < g.num_physical:
            return _fail(MAP_MISMATCH, -1, f"initial map uses nonexistent physical qubit {p}")

    live = {q: placement[q] for q in range(source.num_logical)}
    src = source.gates
    j = 0  # next unconsumed source gate
    routed_gates = routed.gates

    for i, gate in enumerate(routed_gates):
        if gate.name == "swap":
            u, v = gate.operands
            if not g.has_edge(u, v):
                return _fail(SWAP_NON_EDGE, i, f"swap on non-edge ({u},{v})")
            for q, p in live.items():
                if p == u:
                    live[q] = v
                elif p == v:
                    live[q] = u
            continue
        if gate.is_two_qubit and not g.has_edge(*gate.operands):
            return _fail(GATE_NON_EDGE, i, f"{gate.name} on non-edge {gate.operands}")
        if j >= len(src):
            return _fail(EXTRA_GATE, i, f"{gate.name} appears after every source gate was consumed")
        if _routed_key(gate) == _mapped(src[j], live):
            j += 1
            continue
        return _classify_mismatch(routed_gates, i, src, j, live)

    if j < len(src):
        return _fail(DROPPED_GATE, len(routed_gates), f"routed circuit ended with {len(src) - j} source gate(s) unconsumed")
    return Verdict(True)


def _classify_mismatch(routed_gates, i, src, j, live) -> Verdict:
    """Name the likeliest single-edit cause of a mismatch by peeking one
    gate ahead on each side; anything more tangled is a plain mismatch."""
    gate = routed_gates[i]
    nxt = routed_gates[i + 1] if i + 1 < len(routed_gates) and routed_gates[i + 1].name != "swap" else None
    matches_next_src = j + 1 < len(src) and _routed_key(gate) == _mapped(src[j + 1], live)
    next_matches_cur = nxt is not None and _routed_key(nxt) == _mapped(src[j], live)
    if matches_next_src and next_matches_cur:
        return _fail(REORDERED_GATE, i, f"{gate.name} and the following gate appear out of order")
    if matches_next_src:
        return _fail(DROPPED_GATE, i, f"expected image of source gate {j} ({src[j].name}) is missing")
    if next_matches_cur:
        return _fail(EXTRA_GATE, i, f"unexpected {gate.name} inserted before source gate {j}")
    return _fail(GATE_MISMATCH, i, f"got {gate.name}{gate.operands}, expected {src[j].name} mapped to {tuple(live[q] for q in src[j].operands)}")


def verify_solution(source: Circuit, solution: RoutingSolution, g: ConnectivityGraph) -> Verdict:
    """Structural check of a routing solution before any emission.

    Requires one swap group per slot and an injective initial map over
    every logical qubit, then replays the per-slot swaps over that map
    and requires that every swap is an edge and every slot's gate
    operands are adjacent under the replayed map.
    """
    slot_gates = source.slot_gates
    if len(solution.swaps) != len(slot_gates):
        return _fail(MAP_MISMATCH, -1, "solution slot count differs from the circuit")
    placement = tuple(getattr(solution.initial_map, "placement", solution.initial_map))
    if len(set(placement)) != len(placement):
        return _fail(NON_INJECTIVE_MAP, -1, "initial map is not injective")
    if len(placement) != source.num_logical:
        return _fail(MAP_MISMATCH, -1, "initial map does not cover every logical qubit")

    live = list(placement)
    for k, gate in enumerate(slot_gates, start=1):
        for u, v in solution.swaps[k - 1]:
            if not g.has_edge(u, v):
                return _fail(SWAP_NON_EDGE, k, f"slot {k} swaps non-edge ({u},{v})")
            live = [v if p == u else u if p == v else p for p in live]
        qa, qb = gate.operands
        if not g.has_edge(live[qa], live[qb]):
            return _fail(GATE_NON_EDGE, k, f"slot {k} gate {gate.name} acts on non-adjacent ({live[qa]},{live[qb]})")
    return Verdict(True)
