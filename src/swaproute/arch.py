"""Device connectivity graphs, built-in architectures, and noise models."""

from __future__ import annotations

import functools
import json
import math
import os
import re
from collections import deque
from dataclasses import dataclass

from .errors import ArchError, NoiseModelError

Edge = tuple[int, int]


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class ConnectivityGraph:
    """Undirected connectivity graph over physical qubits.

    Edges are stored canonically as (min, max); the graph must be
    connected, simple, and free of self-loops.
    """

    num_physical: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.num_physical < 0:
            raise ArchError(f"negative qubit count {self.num_physical}")
        object.__setattr__(self, "edges", frozenset(_canon(u, v) for u, v in self.edges))
        for u, v in self.edges:
            if u == v:
                raise ArchError(f"self-loop on qubit {u}")
            if not (0 <= u < self.num_physical and 0 <= v < self.num_physical):
                raise ArchError(f"edge ({u},{v}) out of range for {self.num_physical} qubits")
        # Fewer than num_physical - 1 edges cannot connect the graph; saying so
        # first spares building num_physical adjacency lists for a huge count.
        if self.num_physical > 1 and (len(self.edges) < self.num_physical - 1 or not self._connected()):
            raise ArchError("connectivity graph is disconnected")

    def _adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_physical)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def _connected(self) -> bool:
        if self.num_physical == 0:
            return True
        adj = self._adjacency()
        seen = {0}
        queue = deque([0])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.num_physical

    def has_edge(self, u: int, v: int) -> bool:
        return _canon(u, v) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def _distances(g: ConnectivityGraph) -> list[list[int]]:
    """Shortest-path length between every pair of qubits (BFS from each)."""
    adj = g._adjacency()
    out = []
    for src in range(g.num_physical):
        dist = [-1] * g.num_physical
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out.append(dist)
    return out


def diameter(g: ConnectivityGraph) -> int:
    """Maximum shortest-path length between any two qubits (BFS all pairs)."""
    return max((max(row) for row in _distances(g)), default=0)


AUTOMORPHISM_SEARCH_STEPS = 20000  # candidate images one search tries before it gives up


@functools.lru_cache(maxsize=64)
def orbit_minima(g: ConnectivityGraph) -> tuple[int, ...]:
    """The smallest place in each place's orbit under the automorphisms of ``g``.

    An automorphism permutes the places and maps the edge set onto
    itself.  The group is never enumerated: each place is tried against
    the smaller orbit representatives that share its distance profile,
    one search for a single automorphism per pair, and the orbits are
    merged with union-find from every map found.  Each map is checked
    against the edge set before use, and a search that runs out of steps
    merges nothing, so the orbits returned may be finer than the true
    ones but never coarser.
    """
    P = g.num_physical
    adj = g._adjacency()
    dist = _distances(g)
    profile = [sorted(row) for row in dist]
    root = list(range(P))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for p in range(P):
        for r in range(p):
            if find(p) != p:
                break  # p already joined a smaller place's orbit
            if find(r) != r or profile[r] != profile[p]:
                continue
            sigma = _automorphism_to(p, r, adj, dist)
            if sigma is None or not _keeps_edges(sigma, g):
                continue
            for x in range(P):
                a, b = find(x), find(sigma[x])
                if a != b:
                    root[max(a, b)] = min(a, b)
    return tuple(find(p) for p in range(P))


def _automorphism_to(p: int, r: int, adj: list[list[int]], dist: list[list[int]]) -> list[int] | None:
    """A permutation sending ``p`` to ``r`` that keeps adjacency, or None
    when none exists or the search runs out of steps.

    Places are assigned in breadth-first layers from ``p``; each place
    after ``p`` has a neighbour one layer closer, so its image is one of
    that neighbour's image's neighbours, at the same distance from ``r``.
    """
    P = len(adj)
    order = sorted(range(P), key=lambda x: dist[p][x])
    anchor = [next((w for w in adj[x] if dist[p][w] < dist[p][x]), -1) for x in range(P)]
    sigma = [-1] * P
    used = [False] * P

    def fits(x: int, y: int) -> bool:
        if used[y] or len(adj[y]) != len(adj[x]) or dist[r][y] != dist[p][x]:
            return False
        placed = 0
        for w in adj[x]:
            if sigma[w] >= 0:
                if sigma[w] not in adj[y]:
                    return False
                placed += 1
        return placed == sum(used[z] for z in adj[y])  # no extra edge to a placed image

    choices = [iter([r])] + [iter(())] * (P - 1)
    depth = steps = 0
    while depth >= 0:
        x = order[depth]
        if sigma[x] >= 0:  # back here: undo the last choice and try the next one
            used[sigma[x]] = False
            sigma[x] = -1
        for y in choices[depth]:
            steps += 1
            if steps > AUTOMORPHISM_SEARCH_STEPS:
                return None
            if fits(x, y):
                sigma[x] = y
                used[y] = True
                break
        else:
            depth -= 1
            continue
        depth += 1
        if depth == P:
            return sigma
        choices[depth] = iter(adj[sigma[anchor[order[depth]]]])
    return None


def _keeps_edges(sigma: list[int], g: ConnectivityGraph) -> bool:
    """Whether ``sigma`` is a permutation mapping every edge of ``g`` onto an edge."""
    if sorted(sigma) != list(range(len(sigma))):
        return False
    return all(g.has_edge(sigma[u], sigma[v]) for u, v in g.edges)


# ---------------------------------------------------------------------------
# Built-in architectures
# ---------------------------------------------------------------------------


def _grid_edges(rows: int, cols: int) -> set[Edge]:
    edges: set[Edge] = set()
    for r in range(rows):
        for c in range(cols):
            p = r * cols + c
            if c + 1 < cols:
                edges.add(_canon(p, p + 1))
            if r + 1 < rows:
                edges.add(_canon(p, p + cols))
    return edges


def _tokyo_variant(density: str) -> ConnectivityGraph:
    """The 20-qubit IBM Q20 Tokyo family: a 4x5 grid with crossed
    diagonals in alternating unit squares ("standard"), in every square
    ("plus"), or in none ("minus")."""
    rows, cols = 4, 5
    edges = _grid_edges(rows, cols)
    for r in range(rows - 1):
        for c in range(cols - 1):
            crossed = density == "plus" or (density == "standard" and (r + c) % 2 == 1)
            if crossed:
                a = r * cols + c
                edges.add(_canon(a, a + cols + 1))
                edges.add(_canon(a + 1, a + cols))
    return ConnectivityGraph(rows * cols, frozenset(edges))


def _line(n: int) -> ConnectivityGraph:
    return ConnectivityGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def _cycle(n: int) -> ConnectivityGraph:
    if n < 3:
        raise ArchError("cycle needs at least 3 qubits")
    return ConnectivityGraph(n, frozenset(_canon(i, (i + 1) % n) for i in range(n)))


def _star(n: int) -> ConnectivityGraph:
    if n < 2:
        raise ArchError("star needs at least 2 qubits")
    return ConnectivityGraph(n, frozenset((0, i) for i in range(1, n)))


_PARAMETRIC = re.compile(r"^(line|cycle|star):(\d+)$|^grid:(\d+)x(\d+)$")
# The largest parametric device: the largest real devices have about 1,100
# qubits, and an edge-list file still describes anything larger.  A size
# above it is refused before any edge is built.
MAX_PARAMETRIC_QUBITS = 4096


def load_arch(spec: str) -> ConnectivityGraph:
    """Load a connectivity graph from a built-in name or an edge-list file.

    Built-ins: ``tokyo``, ``tokyo_plus``, ``tokyo_minus``, ``line:<n>``,
    ``cycle:<n>``, ``grid:<r>x<c>``, ``star:<n>``.  Anything else is
    treated as a path to a file with a first line ``n <count>`` followed
    by one ``u v`` pair per line.
    """
    if spec == "tokyo":
        return _tokyo_variant("standard")
    if spec == "tokyo_plus":
        return _tokyo_variant("plus")
    if spec == "tokyo_minus":
        return _tokyo_variant("minus")
    m = _PARAMETRIC.match(spec)
    if m:
        if m.group(1):
            n = int(m.group(2))
            if n < 2:
                raise ArchError(f"{m.group(1)} needs at least 2 qubits")
            _check_size(spec, n)
            return {"line": _line, "cycle": _cycle, "star": _star}[m.group(1)](n)
        rows, cols = int(m.group(3)), int(m.group(4))
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise ArchError(f"grid needs at least 1x2 qubits, got {rows}x{cols}")
        _check_size(spec, rows * cols)
        return ConnectivityGraph(rows * cols, frozenset(_grid_edges(rows, cols)))
    if os.path.exists(spec):
        return _load_arch_file(spec)
    raise ArchError(f"unknown architecture {spec!r} (not a built-in name or a readable file)")


def _check_size(spec: str, n: int):
    if n > MAX_PARAMETRIC_QUBITS:
        raise ArchError(
            f"{spec} has {n} qubits, more than the {MAX_PARAMETRIC_QUBITS} a built-in device may have; "
            "describe a larger device in an edge-list file"
        )


def _load_arch_file(path: str) -> ConnectivityGraph:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("n "):
        raise ArchError(f"{path}: first line must be 'n <count>'")
    try:
        num = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ArchError(f"{path}: malformed count line {lines[0]!r}") from exc
    edges: set[Edge] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ArchError(f"{path}: malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ArchError(f"{path}: malformed edge line {ln!r}") from exc
        e = _canon(u, v)
        if e in edges:
            raise ArchError(f"{path}: duplicate edge {u} {v}")
        edges.add(e)
    try:
        return ConnectivityGraph(num, frozenset(edges))
    except ArchError as exc:
        raise ArchError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Per-edge two-qubit gate and swap fidelities, each in (0, 1].

    A missing swap fidelity defaults to the cube of the edge's cx
    fidelity, matching a swap's three-CNOT decomposition.
    """

    cx_fidelity: dict[Edge, float]
    swap_fidelity: dict[Edge, float]

    def __post_init__(self):
        object.__setattr__(self, "cx_fidelity", {_canon(*e): f for e, f in self.cx_fidelity.items()})
        swap = {_canon(*e): f for e, f in self.swap_fidelity.items()}
        for e, f in self.cx_fidelity.items():
            swap.setdefault(e, f**3)
        object.__setattr__(self, "swap_fidelity", swap)
        for table in (self.cx_fidelity, self.swap_fidelity):
            for e, f in table.items():
                if not 0.0 < f <= 1.0:
                    raise NoiseModelError(f"fidelity {f} for edge {e} outside (0, 1]")

    def covers(self, g: ConnectivityGraph) -> bool:
        return all(e in self.cx_fidelity for e in g.edges)

    @classmethod
    def uniform(cls, g: ConnectivityGraph, cx: float = 0.99, swap: float | None = None) -> "NoiseModel":
        swap_table = {} if swap is None else {e: swap for e in g.edges}
        return cls({e: cx for e in g.edges}, swap_table)


def _json_is(value, types) -> bool:
    """Whether a parsed JSON value is of ``types``; a JSON boolean is no number."""
    return isinstance(value, types) and not isinstance(value, bool)


def load_noise(path: str, g: ConnectivityGraph) -> NoiseModel:
    """Load a JSON noise file and check it covers every edge of ``g``.

    The file is a JSON array of records ``{"edge": [u, v], "cx": f}``
    with an optional ``"swap": f`` field per record.  Edge ends must be
    JSON integers and fidelities JSON numbers; ``true`` and ``false``
    are neither.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            records = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NoiseModelError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(records, list):
        raise NoiseModelError(f"{path}: expected a JSON array of records")
    cx: dict[Edge, float] = {}
    swap: dict[Edge, float] = {}
    for rec in records:
        try:
            u, v = rec["edge"]
            fid = rec["cx"]
            swap_fid = rec["swap"] if "swap" in rec else None
        except (KeyError, TypeError, ValueError) as exc:
            raise NoiseModelError(f"{path}: malformed record {rec!r}") from exc
        fids = [fid, swap_fid] if "swap" in rec else [fid]
        if not all(_json_is(x, int) for x in (u, v)) or not all(_json_is(f, (int, float)) for f in fids):
            raise NoiseModelError(f"{path}: malformed record {rec!r}: edge ends must be integers, fidelities numbers")
        e = _canon(u, v)
        if e not in g.edges:
            raise NoiseModelError(f"{path}: edge {e} is not in the connectivity graph")
        if e in cx:
            raise NoiseModelError(f"{path}: duplicate record for edge {e}")
        cx[e] = float(fid)
        if swap_fid is not None:
            swap[e] = float(swap_fid)
    model = NoiseModel(cx, swap)
    missing = sorted(e for e in g.edges if e not in model.cx_fidelity)
    if missing:
        raise NoiseModelError(f"{path}: no fidelity given for edge(s) {missing}")
    return model


def swap_weight(model: NoiseModel, e: Edge, scale: int) -> int:
    """Integer soft-clause weight for performing a swap on ``e``."""
    return round(scale * -math.log(model.swap_fidelity[_canon(*e)]))


def cx_weight(model: NoiseModel, e: Edge, scale: int) -> int:
    """Integer soft-clause weight for executing a two-qubit gate on ``e``."""
    return round(scale * -math.log(model.cx_fidelity[_canon(*e)]))
