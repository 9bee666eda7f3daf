import hashlib
import random
import time
import tracemalloc
from dataclasses import replace
from itertools import permutations, product

import pytest

from conftest import ORACLE_ARCHES, random_circuit
from swaproute import maxsat
from swaproute.arch import NoiseModel, cx_weight, diameter, load_arch, load_noise, swap_weight
from swaproute.circuit import Circuit, Gate, generate_qaoa_maxcut
from swaproute.cnf import MaxSatInstance, Model
from swaproute.encoder import WEIGHT_SCALE, EncodeOptions, decode, encode
from swaproute.errors import EncodingError, UnroutableError
from swaproute.maxsat import SolveStatus, emit_wcnf, parse_wcnf, solve_builtin
from swaproute.oracle import brute_force_oracle
from swaproute.solution import QubitMap
from swaproute.verifier import verify_solution

LINE2 = load_arch("line:2")
LINE3 = load_arch("line:3")
LINE4 = load_arch("line:4")


def single_gate_instance():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    return c, encode(c, LINE2, EncodeOptions(n=1))


def all_hard_models(inst):
    for bits in product([False, True], repeat=inst.num_vars):
        m = Model((False, *bits))
        if inst.hard_satisfied(m):
            yield m


def test_single_slot_line2_golden_counts():
    # Hand enumeration: 10 variables (4 maps at slot 0, 2 swap choices,
    # 4 maps at slot 1) and 29 hard clauses: injectivity at slot 0 only,
    # 6 (2 exactly-one pairs + 2 collision clauses); gate execution 4,
    # one per (operand, place); swap choice 2; the one transition's
    # frame clauses, 2 per (qubit, place) = 8, and move clauses, 2 per
    # (edge, qubit, direction) = 8; canonical placement 1, keeping q0
    # off place 0, which the reflection of line:2 sends to place 1.
    _, inst = single_gate_instance()
    assert (inst.num_vars, len(inst.hard), len(inst.soft)) == (10, 29, 1)


def check_functional_maps_and_swaps(inst, expected_models):
    layout = inst.layout
    assert layout.pairs == [(0, 0), (0, 1)]
    models = list(all_hard_models(inst))
    assert len(models) == expected_models
    for m in models:
        for q in range(2):
            for k in range(2):
                assert sum(m[v] for v in layout.maps[k][q]) == 1
        assert sum(m[v] for v in layout.hops[0][0]) == 1


def test_every_model_has_functional_maps_and_swaps():
    _, inst = single_gate_instance()
    check_functional_maps_and_swaps(inst, 2)  # 2 swap choices; canonical placement starts q0 on place 1


def test_every_model_without_canonical_placement():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    inst = encode(c, LINE2, EncodeOptions(n=1, canonical_placement=False))
    check_functional_maps_and_swaps(inst, 4)  # 2 initial placements x 2 swap choices


def test_every_model_executes_the_gate_on_an_edge():
    c, inst = single_gate_instance()
    for m in models_with_positions(inst, c):
        positions = m["positions"]
        assert LINE2.has_edge(positions[1][0], positions[1][1])


def models_with_positions(inst, c):
    maps = inst.layout.maps
    out = []
    for m in all_hard_models(inst):
        positions = {}
        for k in range(len(c.slots) + 1):
            positions[k] = tuple(
                next(p for p in range(LINE2.num_physical) if m[maps[k][q][p]]) for q in range(c.num_logical)
            )
        out.append({"model": m, "positions": positions})
    return out


def test_swap_effect_links_adjacent_maps():
    c, inst = single_gate_instance()
    layout = inst.layout
    for rec in models_with_positions(inst, c):
        m = rec["model"]
        u, v = next(pair for pair, s in zip(layout.pairs, layout.hops[0][0]) if m[s])
        before, after = rec["positions"][0], rec["positions"][1]
        assert QubitMap(after) == QubitMap(before).apply_swap(u, v)


def test_decode_round_trip_single_gate():
    _, inst = single_gate_instance()
    out = solve_builtin(inst)
    assert out.status is SolveStatus.OPTIMAL and out.falsified_weight == 0
    sol = decode(out.model, inst)
    assert sol.swap_count == 0
    assert sol.map_sequence[0] == sol.initial_map


def test_three_gate_line4_needs_one_swap():
    c = Circuit(4, (Gate("cx", (0, 1)), Gate("cx", (0, 2)), Gate("cx", (0, 3))))
    inst = encode(c, LINE4, EncodeOptions(n=1))
    out = solve_builtin(inst)
    assert out.status is SolveStatus.OPTIMAL
    assert out.falsified_weight == 1
    oracle_count, _ = brute_force_oracle(c, LINE4, 1)
    assert oracle_count == 1


def test_pinned_initial_forces_one_swap():
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (0, 2))))
    pin = QubitMap((0, 1, 2))
    opt = EncodeOptions(n=1, pinned_initial=pin)
    inst = encode(c, LINE3, opt)
    out = solve_builtin(inst)
    assert out.status is SolveStatus.OPTIMAL
    assert out.falsified_weight == 1
    oracle_count, _ = brute_force_oracle(c, LINE3, 1, initial_map=pin)
    assert oracle_count == 1
    sol = decode(out.model, inst)
    assert sol.initial_map == pin


def test_pinned_initial_unreachable_gate_is_unsat():
    c = Circuit(4, (Gate("cx", (0, 3)),))
    pin = QubitMap((0, 1, 2, 3))  # q0 and q3 are three hops apart
    inst = encode(c, LINE4, EncodeOptions(n=1, pinned_initial=pin))
    assert solve_builtin(inst).status is SolveStatus.HARD_UNSAT


def test_cyclic_boundary_forces_return():
    c = Circuit(2, (Gate("cx", (0, 1)), Gate("cx", (1, 0)),))
    opt = EncodeOptions(n=1, cyclic=True)
    inst = encode(c, LINE2, opt)
    sol = decode(solve_builtin(inst).model, inst)
    assert sol.final_map == sol.initial_map


def test_pinned_final_binds_every_qubit():
    # q2 takes part in no two-qubit gate, yet the pinned final map moves
    # it one place on, so it is encoded and costs the one swap.
    c = Circuit(3, (Gate("cx", (0, 1)),))
    opt = EncodeOptions(n=1, pinned_initial=QubitMap((0, 1, 2)), pinned_final=QubitMap((0, 1, 3)))
    inst = encode(c, LINE4, opt)
    assert inst.layout.active == [0, 1, 2]
    sol = decode(solve_builtin(inst).model, inst)
    assert sol.final_map == QubitMap((0, 1, 3)) and sol.swaps == (((2, 3),),)


def test_decode_puts_idle_qubits_on_their_initial_pin():
    # q2 and q3 take part in no two-qubit gate, so they are left out of
    # the encoding; decode places them from the pin the instance carries,
    # not on the lowest places left free.
    c = Circuit(4, (Gate("h", (2,)), Gate("cx", (0, 1)), Gate("h", (3,))))
    pins = [QubitMap(p) for p in permutations(range(4)) if abs(p[0] - p[1]) == 1]
    for pin in pins:
        inst = encode(c, LINE4, EncodeOptions(n=1, pinned_initial=pin))
        assert inst.layout.active == [0, 1]
        sol = decode(solve_builtin(inst).model, inst)
        assert sol.initial_map == pin and sol.swap_count == 0
        assert all(m[q] == pin[q] for m in sol.map_sequence for q in (2, 3))
        assert verify_solution(c, sol, LINE4).ok


def test_cyclic_rejects_pin():
    with pytest.raises(ValueError):
        EncodeOptions(cyclic=True, pinned_initial=QubitMap((0, 1)))


def test_n_above_diameter_rejected():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    with pytest.raises(EncodingError, match="diameter"):
        encode(c, LINE2, EncodeOptions(n=2))


def test_too_many_logical_qubits():
    # No routing places five qubits on three places: unroutable, as the
    # oracle says, whether or not every qubit takes part in a gate.
    c = Circuit(5, (Gate("cx", (0, 4)), Gate("cx", (1, 3)), Gate("cx", (2, 4)), Gate("cx", (0, 1)), Gate("cx", (2, 3))))
    with pytest.raises(UnroutableError, match="5 logical qubits but only 3 physical"):
        encode(c, LINE3, EncodeOptions(n=1))
    with pytest.raises(UnroutableError, match="physical"):
        encode(Circuit(5, (Gate("cx", (0, 1)),)), LINE3, EncodeOptions(n=1))


def test_hard_count_grows_linearly_with_slots():
    g = load_arch("line:6")

    def count(num_slots):
        gates = tuple(Gate("cx", (i % 5, i % 5 + 1)) for i in range(num_slots))
        inst = encode(Circuit(6, gates), g, EncodeOptions(n=1))
        return len(inst.hard)

    c10, c20 = count(10), count(20)
    assert 1.5 <= c20 / c10 <= 2.5


def test_hard_count_grows_linearly_with_swap_positions():
    # each extra swap position adds one transition, one swap choice and
    # one no-op order clause per slot, the same number of clauses every time
    g = load_arch("tokyo")
    c = Circuit(8, (Gate("cx", (0, 7)), Gate("cx", (3, 4)), Gate("cx", (1, 2)), Gate("cx", (5, 6))))
    counts = [len(encode(c, g, EncodeOptions(n=n)).hard) for n in range(1, diameter(g) + 1)]
    steps = {b - a for a, b in zip(counts, counts[1:])}
    assert len(counts) == 4 and len(steps) == 1 and steps.pop() > 0


def test_encoded_instance_shares_its_negative_literals():
    # Every clause takes its negative literals from one table, so a hard
    # clause costs its tuple and not a fresh int per negated id.
    c, g = generate_qaoa_maxcut(8, 1, 7), load_arch("tokyo")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inst = encode(c, g, EncodeOptions(n=1))
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert live / len(inst.hard) < 95


def test_pinned_maps_below_diameter_match_oracle():
    rng = random.Random(11)
    for _ in range(30):
        g = load_arch(rng.choice(["line:4", "line:5", "cycle:4", "star:4"]))
        n = rng.randint(1, max(diameter(g) - 1, 1))
        nq = rng.randint(2, min(4, g.num_physical))
        gates = tuple(Gate("cx", tuple(rng.sample(range(nq), 2))) for _ in range(rng.randint(1, 4)))
        c = Circuit(nq, gates)
        pin = QubitMap(tuple(rng.sample(range(g.num_physical), nq))) if rng.random() < 0.5 else None
        opt = EncodeOptions(n=n, pinned_initial=pin)
        inst = encode(c, g, opt)
        out = solve_builtin(inst)
        try:
            expected, _ = brute_force_oracle(c, g, n, initial_map=pin)
        except UnroutableError:
            assert out.status is SolveStatus.HARD_UNSAT
            continue
        assert out.status is SolveStatus.OPTIMAL and out.falsified_weight == expected
        sol = decode(out.model, inst)
        assert sol.swap_count == expected
        if pin is not None:
            assert sol.initial_map == pin


def test_weighted_soft_construction():
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2))))
    K = 2
    # Uniform noise: each swap position's no-op clause carries the swap
    # weight, and no pair or gate clause is left; every gate's cx weight
    # is in the offset.  The instance is the unweighted one, scaled.
    uniform = NoiseModel.uniform(LINE3, cx=0.99)
    inst = encode(c, LINE3, EncodeOptions(n=2, weighted=uniform))
    swap, cx = swap_weight(uniform, (0, 1), WEIGHT_SCALE), cx_weight(uniform, (0, 1), WEIGHT_SCALE)
    assert (swap, cx) == (30, 10)
    assert list(inst.soft) == [((picks[0],), swap) for picks, _ in inst.layout.hops]
    assert inst.layout.offset == K * cx
    # Edge (1, 2) costlier: only its swap and its gate placements carry a
    # clause, at what they cost beyond the least weight.
    noisy = NoiseModel({(0, 1): 0.99, (1, 2): 0.97}, {})
    inst = encode(c, LINE3, EncodeOptions(n=1, weighted=noisy))
    assert [swap_weight(noisy, e, WEIGHT_SCALE) for e in [(0, 1), (1, 2)]] == [30, 91]
    assert [cx_weight(noisy, e, WEIGHT_SCALE) for e in [(0, 1), (1, 2)]] == [10, 30]
    layout = inst.layout
    assert layout.pairs == [(0, 0), (0, 1), (1, 2)]
    expected = []
    for picks, _ in layout.hops:
        expected += [((picks[0],), 30), ((-picks[2],), 91 - 30)]
    for k, (a, b) in enumerate([(0, 1), (1, 2)], start=1):
        arow, brow = layout.maps[k][a], layout.maps[k][b]
        expected += [((-arow[1], -brow[2]), 30 - 10), ((-arow[2], -brow[1]), 30 - 10)]
    assert list(inst.soft) == expected
    assert layout.offset == K * 10


def per_choice_instance(inst, c, model):
    """``inst``'s hard clauses under the per-choice soft side: every
    non-no-op pair charged its full swap weight and every directed gate
    placement its full cx weight, with nothing in an offset."""
    layout = inst.layout
    edges = layout.pairs[1:]
    soft = []
    for picks, _ in layout.hops:
        soft += [((-s,), w) for s, e in zip(picks[1:], edges) if (w := swap_weight(model, e, WEIGHT_SCALE))]
    for k, gate in enumerate(c.slot_gates, start=1):
        arow, brow = (layout.maps[k][q] for q in gate.operands)
        for u, v in edges:
            if w := cx_weight(model, (u, v), WEIGHT_SCALE):
                soft += [((-arow[u], -brow[v]), w), ((-arow[v], -brow[u]), w)]
    return MaxSatInstance(inst.num_vars, inst.hard, soft, layout)


def routing_cost(c, sol, model):
    """The routing's full weight, from the routing and the noise model alone."""
    swaps = sum(swap_weight(model, e, WEIGHT_SCALE) for group in sol.swaps for e in group)
    gates = sum(
        cx_weight(model, (live[gate.operands[0]], live[gate.operands[1]]), WEIGHT_SCALE)
        for gate, live in zip(c.slot_gates, sol.map_sequence)
    )
    return swaps + gates


@pytest.mark.parametrize("noise", ["uniform", "random"])
def test_weighted_encoding_matches_the_per_choice_encoding(noise):
    # Charging each exactly-one group's least weight once, with the K
    # least cx weights in the offset, keeps every model's full cost, so
    # both soft sides reach the same optimum.
    rng = random.Random(f"weighted-least-cost/{noise}")
    compared = 0
    for _ in range(80):
        g = load_arch(rng.choice(ORACLE_ARCHES))
        nq = rng.randint(2, g.num_physical)
        c = Circuit(nq, tuple(Gate("cx", tuple(rng.sample(range(nq), 2))) for _ in range(rng.randint(1, 4))))
        if noise == "uniform":
            model = NoiseModel.uniform(g, cx=rng.choice([0.9, 0.97, 0.99]))
        else:
            model = NoiseModel(
                {e: round(rng.uniform(0.9, 0.995), 4) for e in g.edges},
                {e: round(rng.uniform(0.8, 0.98), 4) for e in g.edges if rng.random() < 0.3},
            )
        pin = QubitMap(tuple(rng.sample(range(g.num_physical), nq)))
        mode = rng.choice([{}, {"cyclic": True}, {"pinned_initial": pin}, {"pinned_final": pin}])
        opt = EncodeOptions(n=1, weighted=model, **mode)
        inst = encode(c, g, opt)
        new, old = solve_builtin(inst), solve_builtin(per_choice_instance(inst, c, model))
        assert new.status is old.status
        if new.status is not SolveStatus.OPTIMAL:
            assert new.status is SolveStatus.HARD_UNSAT
            continue
        assert new.falsified_weight + inst.layout.offset == old.falsified_weight
        for out in (new, old):
            sol = decode(out.model, inst)
            assert verify_solution(c, sol, g).ok
            assert sol.weighted_objective == routing_cost(c, sol, model) == old.falsified_weight
        compared += 1
    assert compared >= 60


def test_weighted_mode_drops_zero_weight_clauses():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    perfect = NoiseModel.uniform(LINE2, cx=1.0)
    inst = encode(c, LINE2, EncodeOptions(n=1, weighted=perfect))
    assert len(inst.soft) == 0


def test_weighted_requires_covering_noise():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    sparse = NoiseModel({(0, 1): 0.99}, {})
    with pytest.raises(EncodingError, match="cover"):
        encode(c, LINE3, EncodeOptions(n=1, weighted=sparse))


def test_decode_rejects_model_violating_hard_clauses():
    _, inst = single_gate_instance()
    bogus = Model(tuple([False] * (inst.num_vars + 1)))
    with pytest.raises(EncodingError, match="hard"):
        decode(bogus, inst)


def test_decode_needs_the_encoder_layout():
    _, inst = single_gate_instance()
    model = solve_builtin(inst).model
    parsed = parse_wcnf(emit_wcnf(inst))
    assert parsed.hard == inst.hard and parsed.layout is None
    with pytest.raises(EncodingError, match="layout"):
        decode(model, parsed)


def layout_ids(layout):
    """Every variable id in the layout's rows, with repeats: the slot 0
    map, then each swap position's pairs and the layer it produces."""
    ids = [v for row in layout.maps[0].values() for v in row]
    for picks, after in layout.hops:
        ids += picks
        ids += [v for row in after.values() for v in row]
    return ids


@pytest.mark.parametrize(
    "n, options",
    [
        pytest.param(1, {}, id="plain"),
        pytest.param(2, {}, id="n2"),
        pytest.param(1, {"cyclic": True}, id="cyclic"),
        pytest.param(2, {"pinned_initial": QubitMap((0, 1, 2, 3)), "pinned_final": QubitMap((3, 2, 1, 0))}, id="pinned"),
        pytest.param(3, {}, id="diameter"),  # n = diameter of line:4
    ],
)
def test_layout_rows_hold_every_variable_once(n, options):
    c = Circuit(4, (Gate("cx", (0, 1)), Gate("cx", (2, 3))))
    inst = encode(c, LINE4, EncodeOptions(n=n, **options))
    layout = inst.layout
    assert sorted(layout_ids(layout)) == list(range(1, inst.num_vars + 1))
    assert layout.active == [0, 1, 2, 3] and layout.pairs == [(0, 0), *LINE4.sorted_edges()]
    assert [layout.hops[k * n - 1][1] for k in (1, 2)] == layout.maps[1:]
    # Maps at slots 0..K, n swap positions of |E| + 1 pairs per slot, and
    # n - 1 intermediate layers per slot: 48 + 8n + 32(n - 1) on this instance.
    K, A, P, E = 2, 4, LINE4.num_physical, len(LINE4.sorted_edges())
    assert inst.num_vars == (K + 1) * A * P + K * n * (E + 1) + K * (n - 1) * A * P == 40 * n + 16


def idle_last_rule(layout):
    """The clauses that put a slot's no-op positions after its swaps,
    from the layout's ids: (-noop(k, i), noop(k, i + 1)) for i < n - 1."""
    hops = layout.hops
    n = len(hops) // (len(layout.maps) - 1)
    return [(-hops[j][0][0], hops[j + 1][0][0]) for j in range(len(hops)) if (j + 1) % n]


def idle_first_slots(model, layout):
    """Slots (1-based) where ``model`` puts a no-op position before a swap."""
    K = len(layout.maps) - 1
    n = len(layout.hops) // K
    noop = [model[picks[0]] for picks, _ in layout.hops]
    return [k for k in range(1, K + 1) if noop[(k - 1) * n : k * n] != sorted(noop[(k - 1) * n : k * n])]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_idle_positions_last_adds_one_clause_per_neighbouring_pair(n):
    c = Circuit(4, (Gate("cx", (0, 1)), Gate("cx", (2, 3))))
    inst = encode(c, LINE4, EncodeOptions(n=n))
    noops = {picks[0] for picks, _ in inst.layout.hops}
    # The only hard clauses over no-op variables alone are the rule's.
    assert [clause for clause in inst.hard if noops.issuperset(map(abs, clause))] == idle_last_rule(inst.layout)
    # K (n - 1) binary clauses on top of the 244 + 174 (n - 1) of the
    # other constraints, and no variable beyond the 40 n + 16 of the layout.
    K = 2
    assert len(inst.hard) == 244 + 174 * (n - 1) + K * (n - 1)
    assert inst.num_vars == 40 * n + 16


def test_idle_positions_last_keeps_the_weighted_optimum():
    # Moving a slot's no-ops past its swaps keeps every slot map and the
    # multiset of chosen pairs, so the weighted optimum is the same with
    # and without the rule, under pins and cyclic ties too.
    rng = random.Random("idle-last/weighted")
    compared = 0
    for _ in range(40):
        g = load_arch(rng.choice(["line:4", "cycle:4"]))
        nq = rng.randint(2, 4)
        c = Circuit(nq, tuple(Gate("cx", tuple(rng.sample(range(nq), 2))) for _ in range(rng.randint(2, 5))))
        model = NoiseModel(
            {e: round(rng.uniform(0.9, 0.995), 4) for e in g.edges},
            {e: round(rng.uniform(0.8, 0.98), 4) for e in g.edges if rng.random() < 0.3},
        )
        pin = QubitMap(tuple(rng.sample(range(g.num_physical), nq)))
        mode = rng.choice([{}, {}, {"cyclic": True}, {"pinned_initial": pin}, {"pinned_final": pin}])
        inst = encode(c, g, EncodeOptions(n=2, weighted=model, **mode))
        rule = set(idle_last_rule(inst.layout))
        without = MaxSatInstance(inst.num_vars, tuple(h for h in inst.hard if h not in rule), inst.soft, inst.layout)
        assert len(inst.hard) - len(without.hard) == len(rule) == len(c.slot_gates)
        kept, dropped = solve_builtin(inst), solve_builtin(without)
        assert kept.status is dropped.status
        if kept.status is not SolveStatus.OPTIMAL:
            assert kept.status is SolveStatus.HARD_UNSAT
            continue
        assert kept.falsified_weight == dropped.falsified_weight
        assert not idle_first_slots(kept.model, inst.layout)
        compared += 1
    assert compared >= 30


def test_decoded_routings_put_idle_positions_last():
    rng = random.Random("idle-last/decoded")
    checked = 0
    for _ in range(60):
        c, g, n = random_draw(rng)
        if n < 2:
            continue
        inst = encode(c, g, EncodeOptions(n=n, cyclic=rng.random() < 0.5))
        out = solve_builtin(inst)
        if out.status is not SolveStatus.OPTIMAL:
            continue
        sol = decode(out.model, inst)
        assert not idle_first_slots(out.model, inst.layout)
        assert sol.swap_count == sum(not out.model[picks[0]] for picks, _ in inst.layout.hops)
        checked += 1
    assert checked >= 20


def hard_e_count(c, g, opt):
    """Unit clauses that canonical placement adds to ``opt``'s encoding."""
    plain = replace(opt, canonical_placement=False)
    return len(encode(c, g, opt).hard) - len(encode(c, g, plain).hard)


def test_canonical_placement_keeps_the_largest_place_of_each_orbit():
    g = load_arch("grid:3x3")
    c = Circuit(3, (Gate("cx", (1, 2)), Gate("cx", (2, 0))))
    inst = encode(c, g, EncodeOptions(n=1))
    units = {clause for clause in inst.hard if len(clause) == 1}
    first = inst.layout.maps[0]
    # q0 first acts at slot 2, but as the lowest-numbered active qubit it
    # is the one held to a corner (8), an edge middle (7) or the centre (4)
    assert units == {(-first[0][p],) for p in range(9) if p not in (4, 7, 8)}


def test_canonical_placement_is_left_out_where_it_is_unsound():
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2))))
    pin = QubitMap((0, 1, 2))
    assert hard_e_count(c, LINE3, EncodeOptions(n=1)) == 1
    assert hard_e_count(c, LINE3, EncodeOptions(n=1, cyclic=True)) == 1
    assert hard_e_count(c, LINE3, EncodeOptions(n=1, pinned_initial=pin)) == 0
    assert hard_e_count(c, LINE3, EncodeOptions(n=1, pinned_final=pin)) == 0
    # weighted mode goes without, even under a noise model that the reflection keeps
    assert hard_e_count(c, LINE3, EncodeOptions(n=1, weighted=NoiseModel.uniform(LINE3, cx=0.99))) == 0


SYMMETRIC_ARCHES = ["line:3", "line:4", "cycle:4", "cycle:5", "star:4", "star:5", "grid:2x2", "grid:2x3"]


def random_draw(rng):
    g = load_arch(rng.choice(SYMMETRIC_ARCHES))
    nq = rng.randint(2, min(4, g.num_physical))
    c = Circuit(nq, tuple(Gate("cx", tuple(rng.sample(range(nq), 2))) for _ in range(rng.randint(1, 5))))
    return c, g, rng.randint(1, diameter(g))


@pytest.mark.parametrize("cyclic", [False, True])
def test_canonical_placement_keeps_the_optimum(cyclic):
    rng = random.Random(f"canonical-placement/{'cyclic' if cyclic else 'plain'}")
    emitted = 0
    for _ in range(100):
        c, g, n = random_draw(rng)
        opt = EncodeOptions(n=n, cyclic=cyclic)
        emitted += hard_e_count(c, g, opt)
        inst = encode(c, g, opt)
        with_e = solve_builtin(inst)
        without = solve_builtin(encode(c, g, replace(opt, canonical_placement=False)))
        try:
            oracle, _ = brute_force_oracle(c, g, n)
        except UnroutableError:
            assert with_e.status is without.status is SolveStatus.HARD_UNSAT
            continue
        assert with_e.status is without.status
        if with_e.status is SolveStatus.HARD_UNSAT:
            assert cyclic  # only the return to the start can fail
            continue
        assert with_e.status is SolveStatus.OPTIMAL
        assert with_e.falsified_weight == without.falsified_weight
        sol = decode(with_e.model, inst)
        if cyclic:
            assert sol.swap_count >= oracle  # a cyclic optimum is a routing, so it has at least the fewest swaps
        else:
            assert sol.swap_count == with_e.falsified_weight == oracle
    assert emitted > 0


def test_canonical_placement_keeps_the_first_incumbent():
    # Keeping each orbit's largest place leaves the first descent of a
    # search that starts with nothing saved as it was.  In a whole solve,
    # branch and bound starts from the values the probe saved, which the
    # clauses change once they prune, so it runs on its own here; keeping
    # the smallest place fails this on 27 of these 40 draws.
    rng = random.Random("canonical-placement/first-incumbent")
    arches = ["line:4", "line:5", "cycle:4", "cycle:6", "grid:2x3", "grid:3x3", "star:5", "tokyo"]

    def branch_and_bound(inst):
        t0 = time.monotonic()
        return maxsat._search(inst, inst.soft_weight_total + 1, t0 + 0.5, 0, bytearray(inst.num_vars + 1), t0)

    compared = 0
    for _ in range(40):
        g = load_arch(rng.choice(arches))
        nq = rng.randint(3, min(6, g.num_physical))
        c = Circuit(nq, tuple(Gate("cx", tuple(rng.sample(range(nq), 2))) for _ in range(rng.randint(3, 7))))
        opt = EncodeOptions(n=1)
        with_e = branch_and_bound(encode(c, g, opt))
        without = branch_and_bound(encode(c, g, replace(opt, canonical_placement=False)))
        if with_e.incumbents and without.incumbents:
            assert with_e.incumbents[0][1] == without.incumbents[0][1]
            compared += 1
    assert compared >= 30


@pytest.mark.parametrize("noise", ["uniform", "random"])
def test_weighted_encodings_leave_canonical_placement_out(noise):
    rng = random.Random(f"canonical-placement/{noise}-noise")
    for _ in range(50):
        c, g, n = random_draw(rng)
        if noise == "uniform":
            model = NoiseModel.uniform(g, cx=rng.choice([0.9, 0.97, 0.99]))
        else:
            model = NoiseModel({e: round(rng.uniform(0.95, 0.995), 4) for e in g.edges}, {})
        opt = EncodeOptions(n=n, weighted=model, cyclic=rng.random() < 0.5)
        plain = encode(c, g, replace(opt, canonical_placement=False))
        assert encode(c, g, opt).hard == plain.hard


def golden_noise(tmp_path):
    path = tmp_path / "line4-noise.json"
    path.write_text(
        '[{"edge": [0, 1], "cx": 0.97}, {"edge": [1, 2], "cx": 0.99, "swap": 0.95}, {"edge": [2, 3], "cx": 0.98}]',
        encoding="utf-8",
    )
    return load_noise(str(path), LINE4)


def golden_cases(tmp_path):
    tokyo = load_arch("tokyo")
    qaoa8 = generate_qaoa_maxcut(8, 1, 7)
    slice_ = random_circuit(random.Random("golden/slice"), 5, 6)
    yield "qaoa8-tokyo-n1", qaoa8, tokyo, EncodeOptions(n=1)
    yield "qaoa8-tokyo-n2", qaoa8, tokyo, EncodeOptions(n=2)
    yield "rand16x10-tokyo", random_circuit(random.Random("golden/tokyo16x10"), 16, 10), tokyo, EncodeOptions(n=1)
    line4 = random_circuit(random.Random("golden/line4"), 4, 5)
    yield "weighted-line4", line4, LINE4, EncodeOptions(n=2, weighted=golden_noise(tmp_path))
    yield "qaoa4-cycle4-cyclic", generate_qaoa_maxcut(4, 1, 7), load_arch("cycle:4"), EncodeOptions(n=2, cyclic=True)
    pin = QubitMap((4, 0, 8, 2, 6))
    yield "pinned-slice-grid3x3", slice_, load_arch("grid:3x3"), EncodeOptions(
        n=2, pinned_initial=pin, canonical_placement=False
    )
    yield "patched-slice-grid3x3", slice_, load_arch("grid:3x3"), EncodeOptions(
        n=2, pinned_initial=pin, pinned_final=QubitMap((1, 3, 5, 7, 4)), canonical_placement=False
    )


# sha256 of emit_wcnf(encode(...)) for each golden case.  The budget-bound
# Tokyo routings depend on the solver's first descent, which follows the
# clause and variable order, so any change to that order shows up here.
GOLDEN_WCNF_SHA256 = {
    "qaoa8-tokyo-n1": "aee28251712a730ab5660af9378275c5aaa45b07fd53194c4ea5e5de48249d70",
    "qaoa8-tokyo-n2": "a1c931346f80bb84f1fa944f1f81fc52f70f6c545065d084f8359ea423e7cee8",
    "rand16x10-tokyo": "da595bc0a75ae06f2c662383fe0a67228dd27a9abbd801c8d3c2b27710592c2d",
    "weighted-line4": "5b14104ed55b1ac68abe50587ada1da11e1345937804f61b832ad1aeb808577e",
    "qaoa4-cycle4-cyclic": "a33670d32864ff9fc4f858423f8c4ab34a0867e82adcd1eefd916e67ea650527",
    "pinned-slice-grid3x3": "0d323aa90a8594814bba87ddf2b041068d620ae85194948450ca4e17b6c36807",
    "patched-slice-grid3x3": "e1c48755c99a89baafc8fabb2597292dfe649a88e6897404391c8a9a13e873b8",
}


def test_golden_wcnf_digests(tmp_path):
    got = {}
    for name, c, g, opt in golden_cases(tmp_path):
        got[name] = hashlib.sha256(emit_wcnf(encode(c, g, opt)).encode()).hexdigest()
    assert got == GOLDEN_WCNF_SHA256
