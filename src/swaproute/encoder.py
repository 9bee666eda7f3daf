"""Reduction of qubit mapping and routing to weighted MaxSAT.

For a circuit with K two-qubit slots on a graph (P, E), the encoding
introduces map variables m(q, p, k) -- logical qubit q sits on physical
qubit p at slot k -- and swap variables s(u, v, k, i) -- the i-th swap
inserted before slot k acts on edge (u, v).  A synthetic pair (p0, p0)
stands for "no swap".  Slot 0 carries the initial placement, before any
swaps; the swaps of slot k transform the slot k-1 map into the slot k
map, under which slot k's gate must act on an edge.

Hard constraints: the slot 0 map is a total injection (A); every
slot's gate operands sit on an edge (B), stated with no new variables
as one clause per operand q and place p: if q is on p, the other
operand is on a neighbour of p; each swap position picks exactly one
pair (C), and a slot's no-op positions come after its swaps (C'); each
swap position carries one placement layer into the next (D).  Layer 0
of slot k is the slot k-1 map, layer n is the slot k map, and the
layers between are intermediate variables mid(q, p, k, i).  A
transition is a biconditional: q is on p after the swap iff it was on
p before, unless a chosen swap touches p (frame axioms), and a chosen
swap on (u, v) moves whatever is on u to v and back (move
axioms).  Every transition is thus the permutation its swap picks, so
the maps of later slots are injective without (A), and the encoding
grows linearly in n.  Soft constraints reward no-op swaps, so a
minimum-weight solution inserts the fewest swaps.  The instance carries
its :class:`Layout`, from which ``decode(model, instance)`` alone
reads a model back.

(C') is one binary clause per pair of neighbouring positions in a slot,
"if position i is a no-op, so is position i+1", so none at n = 1.  It
breaks a symmetry: a slot with k < n swaps could otherwise place them
in C(n, k) arrangements of equal cost, and an exact search would refute
the same partial routing once for each.  It is sound, because moving a
slot's no-ops past its swaps keeps the swaps' order, so every slot map
is unchanged, and with it every gate placement, pin, cyclic tie and
Hard E clause below; it keeps the chosen pairs, so every cost is
unchanged too, weighted or not.  Only the intermediate layers inside
the slot move, and nothing but (D) reads those.

In weighted mode a routing costs the negative log fidelity of every
swap and of the edge every gate lands on, so the cheapest routing is
the one most likely to succeed.  Each swap position picks exactly one
pair (C) and each gate lands on exactly one directed edge (B), so each
of these groups is charged its least weight once, not each choice in
full (weight shifting over exactly-one groups; Li & Manya, "MaxSAT,
Hard and Soft Constraints", Handbook of Satisfiability, 2009).  A swap
position's no-op clause carries the least swap weight over the edges,
a pair's clause only what its edge costs beyond that, and a gate
clause only what its edge costs beyond the least cx weight; the K
least cx weights that every routing pays are the layout's offset,
which :func:`decode` adds back.  A model's cost is unchanged, but a
partial assignment's falsified weight now counts the least cost of
every swap it commits to, and the bound clauses the solver learns name
no-op variables, as they do unweighted.  Under uniform noise the
instance is the unweighted one, scaled.

Hard E, canonical initial placement, breaks the device's symmetry
(lex-leader style, after Crawford, Ginsberg, Luks & Roy, KR 1996).  An
automorphism of the graph maps every model to a model of equal cost:
it keeps gates on edges, swaps on edges, the no-op a no-op and a cyclic
block's first map equal to its last.  So the lowest-numbered active
qubit may start only on one place of its orbit, one unit clause for
every other place, and an exact solve searches one initial placement
per orbit.  The place kept is the orbit's largest.  The built-in solver
decides map variables in ascending id order, false first until it has
saved a value, so without the clauses the first descent of a search
that starts with nothing saved -- the probe, or branch and bound run
alone -- already puts that qubit on the largest place left open; keeping
that place leaves that descent as it was.  After the probe, branch and
bound starts from the values the probe saved, and those change once the
clauses prune, so a whole solve's early incumbents may move either way.
The clauses are sound only where every constraint is symmetric too, so
they are left out when a map is pinned.  They are also left out in
weighted mode: an automorphism would have to keep every edge's swap and
gate weights, and a noise model measured per edge leaves none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .arch import ConnectivityGraph, NoiseModel, cx_weight, diameter, orbit_minima, swap_weight
from .circuit import Circuit
from .cnf import InstanceBuilder, MaxSatInstance, Model
from .errors import EncodingError, UnroutableError
from .solution import Edge, QubitMap, RoutingSolution

NOOP: Edge = (0, 0)  # synthetic pair: swap p0 with itself; touches nothing
WEIGHT_SCALE = 1000  # weighted mode: soft weights are -log fidelity times this, rounded


class Layout(NamedTuple):
    """Where :func:`encode` put every variable, and all else :func:`decode` reads.

    A placement layer maps each active qubit q to its row of places:
    ``layer[q][p]`` is the variable "q sits on p".  ``maps[k]`` is the
    layer at slot k.  ``hops`` holds one entry per swap position, slot by
    slot: the row of its pair variables, in ``pairs`` order, and the
    layer it produces, an intermediate one or, at the slot's last
    position, the slot's map.  Every variable is in ``maps[0]`` or in
    exactly one hop.  ``pinned_initial`` places the circuit's
    ``num_logical`` qubits, those left out of ``active`` included, if
    pinned.  ``offset`` is the weight every routing pays that no soft
    clause carries: K times the least cx weight in weighted mode, else ``None``.
    """

    num_logical: int
    active: list[int]
    pairs: list[Edge]
    maps: list[dict[int, list[int]]]
    hops: list[tuple[list[int], dict[int, list[int]]]]
    pinned_initial: QubitMap | None
    offset: int | None


@dataclass(frozen=True)
class EncodeOptions:
    """Knobs for one encoding run.

    ``n`` is the number of swap positions before each slot; setting it
    to the graph diameter guarantees any placement can be repaired, and
    a solution that is optimal for the encoding is then optimal overall.
    ``pinned_final`` and ``cyclic`` bind the final map, and they bind it
    for every logical qubit, idle ones included, so the pinned or initial
    map holds at the end for every qubit.  ``canonical_placement`` adds
    Hard E (see the module docstring).  It keeps the optimum, but it can
    change which optimal routing a solve returns, so the slices of a
    multi-slice run leave it off.
    """

    n: int = 1
    weighted: NoiseModel | None = None
    pinned_initial: QubitMap | None = None
    pinned_final: QubitMap | None = None
    cyclic: bool = False
    canonical_placement: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.cyclic and self.pinned_initial is not None:
            raise ValueError("cyclic mode leaves the initial map free; do not pin it")


def encode(circuit: Circuit, g: ConnectivityGraph, opt: EncodeOptions = EncodeOptions()) -> MaxSatInstance:
    """Build the MaxSAT instance for routing ``circuit`` on ``g``.

    The instance carries its :class:`Layout`, which is all that
    :func:`decode` needs to read a model back.
    """
    slot_gates = circuit.slot_gates
    K = len(slot_gates)
    if K == 0:
        raise EncodingError("circuit has no two-qubit gates; nothing to route")

    # Qubits never touched by a two-qubit gate cannot affect the swap
    # count, so they are left out of the encoding and placed on free
    # physical qubits at decode time.  A bound final map encodes
    # everything: a pinned or cyclic end must hold for every qubit, or an
    # idle one that a swap moves would not come back.
    if opt.cyclic or opt.pinned_final is not None:
        active = list(range(circuit.num_logical))
    else:
        active = sorted({q for g in slot_gates for q in g.operands})
    P = g.num_physical
    if circuit.num_logical > P:
        raise UnroutableError(f"{circuit.num_logical} logical qubits but only {P} physical qubits")

    diam = max(diameter(g), 1)
    if opt.n > diam:
        raise EncodingError(f"n={opt.n} exceeds the graph diameter {diam}; larger values cannot help")

    if opt.pinned_initial is not None:
        _check_pin(opt.pinned_initial, circuit, g)
    if opt.pinned_final is not None:
        _check_pin(opt.pinned_final, circuit, g)
    if opt.weighted is not None and not opt.weighted.covers(g):
        raise EncodingError("noise model does not cover every edge of the graph")

    edges = g.sorted_edges()
    pairs = [NOOP] + edges
    builder = InstanceBuilder()

    def layer():  # one fresh placement layer
        ids = builder.new_vars(len(active) * P)
        return {q: ids[j * P : (j + 1) * P] for j, q in enumerate(active)}

    # Interleave ids slot by slot, each swap position's pairs followed by
    # the layer they produce, so the solver's ascending-id branching
    # settles each slot's swaps and map before moving to the next.  The
    # layer before a swap position is the one its predecessor produced.
    maps = [layer()]  # maps[k][q][p]: q sits on p at slot k
    hops = []  # (swap position's pair vars, in ``pairs`` order; layer after it)
    for _ in range(K):
        hops += [(builder.new_vars(len(pairs)), layer()) for _ in range(opt.n)]
        maps.append(hops[-1][1])
    first, last = maps[0], maps[K]
    # Every variable exists now.  Clauses take their negative literals
    # from this one table, not from ``-v`` at each use: each ``-v`` below
    # -5 is a new int object, and at device scale those objects would be
    # about a third of an instance's memory.
    neg = [-v for v in range(builder.num_vars + 1)]

    # Hard A: the initial map is a total injective function.  The
    # transitions (D) are permutations, so every later map inherits it.
    for q in active:
        builder.exactly_one(first[q])
    for p in range(P):
        builder.at_most_one_pairwise([first[q][p] for q in active])

    # Hard B, C', D and the closing clauses are written straight into the
    # builder's clause list, each clause's literals followed by a 0, and
    # each block adds the number of clauses it wrote.
    #
    # Hard B: wherever one operand of slot k's gate sits, the other sits
    # on a neighbour.  (A) and (D) put each operand on exactly one place,
    # so one clause per operand and place says the gate acts on an edge.
    touching = [[j for j, e in enumerate(pairs) if j and p in e] for p in range(P)]  # where p's edges sit in pairs
    neighbours = [[u + v - p for u, v in edges if p in (u, v)] for p in range(P)]  # the far end of each edge
    hard = builder.hard
    for k, gate in enumerate(slot_gates, start=1):
        for x, y in (gate.operands, gate.operands[::-1]):
            xrow, yrow = maps[k][x], maps[k][y]
            for p, far in enumerate(neighbours):
                hard += (neg[xrow[p]], *map(yrow.__getitem__, far), 0)
    builder.hard_count += 2 * K * P

    # Hard C: each swap position picks exactly one pair (possibly the no-op).
    for picks, _ in hops:
        builder.exactly_one(picks)
    # Hard C': a slot's no-op positions come after its swaps (see the
    # module docstring).
    for j in range(len(hops)):
        if (j + 1) % opt.n:
            hard += (neg[hops[j][0][0]], hops[j + 1][0][0], 0)
    builder.hard_count += len(hops) - K

    # Hard D: each swap position carries its layer before into its layer
    # after.  Frame axioms: q is on p after iff it was on p before,
    # unless a chosen swap touches p.  Move axioms: a chosen swap on
    # (u, v) puts q on v after iff q was on u before, and vice versa.
    # Both halves of each biconditional stay: the backward ones pin the
    # layer after to exactly the permuted layer before, which is what
    # lets (A) stop at slot 0, and they let propagation run from later
    # maps back to earlier ones.  Forward halves plus (A) at every slot
    # would also be sound, but the search then slows by orders of
    # magnitude.
    for (picks, after), before in zip(hops, [first, *(a for _, a in hops)]):
        fires = [(*map(picks.__getitem__, at), 0) for at in touching]  # each closes its clause
        rows = [(before[q], after[q]) for q in active]
        for brow, arow in rows:
            for b, a, f in zip(brow, arow, fires):
                hard += (neg[b], a, *f, b, neg[a], *f)
        for s, (u, v) in zip(picks[1:], edges):
            ns = neg[s]
            for brow, arow in rows:
                bu, bv = brow[u], brow[v]
                au, av = arow[u], arow[v]
                hard += (ns, neg[bu], av, 0, ns, bu, neg[av], 0, ns, neg[bv], au, 0, ns, bv, neg[au], 0)
    builder.hard_count += len(hops) * len(active) * (2 * P + 4 * len(edges))

    # Soft: reward no-ops (unweighted), or charge log-fidelities (weighted),
    # each swap position's and each gate's least weight once (see the
    # module docstring).  Falsified weight plus the offset is a model's cost.
    offset = None
    if opt.weighted is None:
        for picks, _ in hops:
            builder.add_soft([picks[0]], 1)
    else:
        swap_w = [swap_weight(opt.weighted, e, WEIGHT_SCALE) for e in edges]
        cx_w = [cx_weight(opt.weighted, e, WEIGHT_SCALE) for e in edges]
        least_swap, least_cx = min(swap_w), min(cx_w)
        for picks, _ in hops:
            builder.add_soft([picks[0]], least_swap)
            for s, w in zip(picks[1:], swap_w):
                builder.add_soft([neg[s]], w - least_swap)
        for k, gate in enumerate(slot_gates, start=1):
            arow, brow = (maps[k][q] for q in gate.operands)
            for (u, v), w in zip(edges, cx_w):
                builder.add_soft([neg[arow[u]], neg[brow[v]]], w - least_cx)
                builder.add_soft([neg[arow[v]], neg[brow[u]]], w - least_cx)
        offset = K * least_cx

    if opt.pinned_initial is not None:
        for q in active:
            hard += (first[q][opt.pinned_initial[q]], 0)
        builder.hard_count += len(active)
    if opt.pinned_final is not None:
        for q in active:
            hard += (last[q][opt.pinned_final[q]], 0)
        builder.hard_count += len(active)
    if opt.cyclic:
        for q in active:
            for f, l in zip(first[q], last[q]):
                hard += (neg[f], l, 0, f, neg[l], 0)
        builder.hard_count += 2 * len(active) * P

    # Hard E: canonical initial placement (see the module docstring).
    # Pins name places that an automorphism would move, and a noise
    # model's weights are left unchecked, so those go without.
    pinned = opt.pinned_initial is not None or opt.pinned_final is not None
    if opt.canonical_placement and opt.weighted is None and not pinned:
        orbit = orbit_minima(g)
        largest = {o: p for p, o in enumerate(orbit)}
        off = [p for p in range(P) if largest[orbit[p]] != p]
        for p in off:
            hard += (neg[first[active[0]][p]], 0)
        builder.hard_count += len(off)

    return builder.build(Layout(circuit.num_logical, active, pairs, maps, hops, opt.pinned_initial, offset))


def _check_pin(pin: QubitMap, circuit: Circuit, g: ConnectivityGraph):
    if len(pin) != circuit.num_logical:
        raise EncodingError(f"pinned map covers {len(pin)} qubits, circuit has {circuit.num_logical}")
    for q in range(len(pin)):
        if not 0 <= pin[q] < g.num_physical:
            raise EncodingError(f"pinned map sends q{q} to nonexistent physical qubit {pin[q]}")


def decode(model: Model, instance: MaxSatInstance, *, status: str = "best_effort") -> RoutingSolution:
    """Extract the routing described by a model of the hard constraints.

    Reads the model through the instance's :class:`Layout` alone,
    rebuilds the initial map (inactive qubits included), replays every
    slot's swaps over it, and cross-checks the maps against the model,
    so a defective model or encoding fails loudly rather than decoding
    into a bogus routing.
    """
    if not instance.hard_satisfied(model):
        raise EncodingError("model does not satisfy the hard constraints")
    layout: Layout | None = instance.layout
    if layout is None:
        raise EncodingError("instance carries no variable layout; cannot decode")

    num_logical, active, pairs, layers, hops, pinned_initial, offset = layout
    K = len(layers) - 1
    n = len(hops) // K
    P = len(layers[0][active[0]])

    def chosen_pair(k: int, i: int) -> Edge:
        picks = hops[(k - 1) * n + i - 1][0]
        hits = [pair for pair, s in zip(pairs, picks) if model[s]]
        if len(hits) != 1:
            raise EncodingError(f"slot {k} swap {i}: expected exactly one chosen pair, got {hits}")
        return hits[0]

    def active_map(k: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for q in active:
            spots = [p for p, v in enumerate(layers[k][q]) if model[v]]
            if len(spots) != 1:
                raise EncodingError(f"q{q} occupies {len(spots)} places at slot {k}")
            out[q] = spots[0]
        if len(set(out.values())) != len(out):
            raise EncodingError(f"decoded map at slot {k} is not injective")
        return out

    swaps: list[tuple[Edge, ...]] = []
    for k in range(1, K + 1):
        swaps.append(tuple(pair for i in range(1, n + 1) if (pair := chosen_pair(k, i)) != NOOP))

    decoded = [active_map(k) for k in range(K + 1)]

    if pinned_initial is not None:
        for q in active:
            if pinned_initial[q] != decoded[0][q]:
                raise EncodingError(f"decoded initial position of q{q} disagrees with the pin")
        initial = pinned_initial
    else:
        placement = [-1] * num_logical
        for q, p in decoded[0].items():
            placement[q] = p
        free = iter(sorted(set(range(P)) - set(decoded[0].values())))
        for q in range(num_logical):
            if placement[q] < 0:
                placement[q] = next(free)
        initial = QubitMap(tuple(placement))

    objective = None if offset is None else instance.falsified_weight(model) + offset
    solution = RoutingSolution(initial, tuple(swaps), status, weighted_objective=objective)
    for k, live in enumerate(solution.map_sequence, start=1):
        for q in active:
            if live[q] != decoded[k][q]:
                raise EncodingError(f"replayed position of q{q} at slot {k} disagrees with the model")
    return solution

