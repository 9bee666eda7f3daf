"""Exhaustive ground-truth search for small routing instances.

Independent of the MaxSAT path: this module explores the full solution
space -- every injective placement and every way of spending at most
``max_swaps_per_slot`` swaps before each two-qubit gate -- by dynamic
programming over placement states, and returns the exact minimum number
of swaps together with one deterministic witness.  It exists to check
the encoder and solvers, so it must not share any code with them.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import permutations

from .arch import ConnectivityGraph
from .circuit import Circuit
from .errors import OracleLimitError, UnroutableError
from .solution import Edge, QubitMap, RoutingSolution

_MAX_STATES = 20000
_MAX_SLOTS = 16
_MAX_SWAPS = 4

State = tuple[int, ...]  # position of each active qubit, in active order


def _neighbors(state: State, edges: list[Edge]) -> list[tuple[Edge, State]]:
    out = []
    for u, v in edges:
        if u in state or v in state:  # swaps touching no active qubit never help
            moved = tuple(v if p == u else u if p == v else p for p in state)
            out.append(((u, v), moved))
    return out


def _relax(start: dict[State, int], edges: list[Edge], rounds: int) -> dict[State, int]:
    """Cheapest cost to reach each state from ``start`` in <= rounds moves."""
    best = dict(start)
    frontier = dict(start)
    for _ in range(rounds):
        nxt: dict[State, int] = {}
        for s, c in frontier.items():
            for _, t in _neighbors(s, edges):
                if c + 1 < best.get(t, math.inf):
                    best[t] = c + 1
                    nxt[t] = c + 1
        if not nxt:
            break
        frontier = nxt
    return best


def _shortest_path(src: State, dst: State, edges: list[Edge], limit: int) -> list[Edge] | None:
    """Lexicographically earliest shortest swap sequence from src to dst."""
    if src == dst:
        return []
    parent: dict[State, tuple[State, Edge]] = {src: (src, (-1, -1))}
    frontier = deque([(src, 0)])
    while frontier:
        s, d = frontier.popleft()
        if d == limit:
            continue
        for e, t in _neighbors(s, edges):
            if t not in parent:
                parent[t] = (s, e)
                if t == dst:
                    path = []
                    cur = t
                    while cur != src:
                        cur, edge = parent[cur]
                        path.append(edge)
                    return path[::-1]
                frontier.append((t, d + 1))
    return None


def brute_force_oracle(
    circuit: Circuit,
    g: ConnectivityGraph,
    max_swaps_per_slot: int,
    initial_map: QubitMap | None = None,
) -> tuple[int, RoutingSolution]:
    """Exact minimum swap count over all routings, with one witness.

    The witness is deterministic: among all optimal routings it carries
    the lexicographically smallest final placement, then per slot the
    lexicographically smallest predecessor placement and swap path.
    ``initial_map``, when given, forces the starting placement.
    """
    slot_gates = circuit.slot_gates
    K = len(slot_gates)
    active = sorted({q for gate in slot_gates for q in gate.operands})
    P = g.num_physical
    edges = g.sorted_edges()
    n = max_swaps_per_slot

    if circuit.num_logical > P:
        raise UnroutableError(f"{circuit.num_logical} logical qubits but only {P} physical qubits")
    if K == 0:
        initial = initial_map if initial_map is not None else _pad({}, circuit.num_logical, P)
        return 0, RoutingSolution(initial, (), "optimal")
    n_states = math.perm(P, len(active))
    if n_states > _MAX_STATES or K > _MAX_SLOTS or n > _MAX_SWAPS:
        raise OracleLimitError(
            f"search space too large: {n_states} placements, {K} slots, {n} swaps/slot"
        )

    qpos = {q: i for i, q in enumerate(active)}
    valid: list[set[State]] = []
    all_states = list(permutations(range(P), len(active)))
    for gate in slot_gates:
        a, b = (qpos[q] for q in gate.operands)
        valid.append({s for s in all_states if g.has_edge(s[a], s[b])})

    if initial_map is not None:
        start_state: State = tuple(initial_map[q] for q in active)
        layer0 = {start_state: 0}
    else:
        layer0 = {s: 0 for s in all_states}

    layers: list[dict[State, int]] = [layer0]
    for k in range(K):
        reach = _relax(layers[-1], edges, n)
        layer = {s: c for s, c in reach.items() if s in valid[k]}
        if not layer:
            raise UnroutableError(
                f"slot {k + 1} unreachable within {n} swap(s) per slot"
                + (" from the forced initial map" if initial_map is not None else "")
            )
        layers.append(layer)

    optimum = min(layers[-1].values())

    # Witness: walk the layers backwards, preferring small placements.
    chosen = min(s for s, c in layers[-1].items() if c == optimum)
    states = [chosen]
    for k in range(K, 0, -1):
        target, cost = states[-1], layers[k][states[-1]]
        pred = None
        for s in sorted(layers[k - 1]):
            d = cost - layers[k - 1][s]
            if 0 <= d <= n and _path_len(s, target, edges, n) == d:
                pred = s
                break
        assert pred is not None, "DP layers must admit a predecessor"
        states.append(pred)
    states.reverse()

    swaps: list[tuple[Edge, ...]] = []
    for k in range(K):
        path = _shortest_path(states[k], states[k + 1], edges, n)
        swaps.append(tuple(path))

    initial = initial_map if initial_map is not None else _pad(
        dict(zip(active, states[0])), circuit.num_logical, P
    )
    return optimum, RoutingSolution(initial, tuple(swaps), "optimal")


def _path_len(src: State, dst: State, edges: list[Edge], limit: int) -> int | None:
    path = _shortest_path(src, dst, edges, limit)
    return None if path is None else len(path)


def _pad(placed: dict[int, int], num_logical: int, num_physical: int) -> QubitMap:
    """Complete a partial placement, filling the rest onto free physical
    qubits in ascending order."""
    placement = [-1] * num_logical
    for q, p in placed.items():
        placement[q] = p
    free = iter(sorted(set(range(num_physical)) - set(placed.values())))
    for q in range(num_logical):
        if placement[q] < 0:
            placement[q] = next(free)
    return QubitMap(tuple(placement))
