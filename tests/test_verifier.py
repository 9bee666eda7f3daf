from dataclasses import replace

from conftest import MUTATORS, random_circuit

from swaproute.arch import diameter, load_arch
from swaproute.circuit import Circuit, Gate
from swaproute.driver import DriverConfig, solve_global
from swaproute.oracle import brute_force_oracle
from swaproute.solution import QubitMap, apply_routing
from swaproute.verifier import (
    DROPPED_GATE,
    EXTRA_GATE,
    GATE_MISMATCH,
    GATE_NON_EDGE,
    MAP_MISMATCH,
    NON_INJECTIVE_MAP,
    SWAP_NON_EDGE,
    verify,
    verify_solution,
)

LINE3 = load_arch("line:3")
LINE4 = load_arch("line:4")


def routed_example():
    c = Circuit(4, (Gate("cx", (0, 1)), Gate("h", (2,)), Gate("cx", (0, 2)), Gate("cx", (0, 3))))
    sol = solve_global(c, LINE4, DriverConfig(n=1))
    return c, sol, apply_routing(c, sol, 4)


def test_identity_case():
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("h", (0,)), Gate("cx", (1, 2))))
    routed = Circuit(3, c.gates)  # already fits under the identity map
    assert verify(c, routed, QubitMap((0, 1, 2)), LINE3).ok


def test_driver_output_verifies():
    c, sol, routed = routed_example()
    assert verify_solution(c, sol, LINE4).ok
    assert verify(c, routed, sol.initial_map, LINE4).ok


def test_swap_on_non_edge_rejected():
    c, sol, routed = routed_example()
    gates = list(routed.gates)
    i = next(k for k, gt in enumerate(gates) if gt.name == "swap")
    gates[i] = Gate("swap", (0, 3))
    verdict = verify(c, Circuit(4, tuple(gates)), sol.initial_map, LINE4)
    assert not verdict.ok and verdict.violation.kind == SWAP_NON_EDGE


def test_each_mutation_class_is_named(rng):
    c, sol, routed = routed_example()
    for kind, mutate in MUTATORS.items():
        mutant = mutate(routed, LINE4, rng)
        assert mutant is not None, kind
        verdict = verify(c, mutant, sol.initial_map, LINE4)
        assert not verdict.ok, kind
        assert verdict.violation.kind == kind, (kind, verdict.violation)


def test_non_injective_initial_map_rejected():
    c, sol, routed = routed_example()
    bad = list(sol.initial_map.placement)
    bad[1] = bad[0]
    verdict = verify(c, routed, tuple(bad), LINE4)
    assert not verdict.ok and verdict.violation.kind == NON_INJECTIVE_MAP


def test_initial_map_range_checked():
    c, sol, routed = routed_example()
    verdict = verify(c, routed, (0, 1, 2, 9), LINE4)
    assert not verdict.ok and verdict.violation.kind == MAP_MISMATCH


def test_wrong_parameter_is_a_mismatch():
    c = Circuit(2, (Gate("rz", (0,), (0.5,)), Gate("cx", (0, 1))))
    routed = Circuit(2, (Gate("rz", (0,), (0.25,)), Gate("cx", (0, 1))))
    verdict = verify(c, routed, QubitMap((0, 1)), load_arch("line:2"))
    assert not verdict.ok and verdict.violation.kind == GATE_MISMATCH


def test_gate_on_wrong_qubit_is_a_mismatch():
    c = Circuit(2, (Gate("h", (0,)), Gate("cx", (0, 1))))
    routed = Circuit(2, (Gate("h", (1,)), Gate("cx", (0, 1))))
    verdict = verify(c, routed, QubitMap((0, 1)), load_arch("line:2"))
    assert not verdict.ok and verdict.violation.kind == GATE_MISMATCH


def test_trailing_extra_gate_rejected():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    routed = Circuit(2, (Gate("cx", (0, 1)), Gate("h", (0,))))
    verdict = verify(c, routed, QubitMap((0, 1)), load_arch("line:2"))
    assert not verdict.ok and verdict.violation.kind == EXTRA_GATE


def test_truncated_output_rejected():
    c = Circuit(2, (Gate("cx", (0, 1)), Gate("h", (0,))))
    routed = Circuit(2, (Gate("cx", (0, 1)),))
    verdict = verify(c, routed, QubitMap((0, 1)), load_arch("line:2"))
    assert not verdict.ok and verdict.violation.kind == DROPPED_GATE


# -- verify_solution ----------------------------------------------------------


class RawMap:
    def __init__(self, placement):
        self.placement = tuple(placement)


def test_solution_with_removed_swap_rejected():
    c, sol, _ = routed_example()
    k = next(i for i, group in enumerate(sol.swaps) if group)
    swaps = list(sol.swaps)
    swaps[k] = ()
    tampered = replace(sol, swaps=tuple(swaps))
    verdict = verify_solution(c, tampered, LINE4)
    assert not verdict.ok and verdict.violation.kind in (MAP_MISMATCH, GATE_NON_EDGE)


def test_solution_with_non_injective_map_rejected():
    c, sol, _ = routed_example()
    broken = list(sol.initial_map.placement)
    broken[1] = broken[0]
    tampered = replace(sol, initial_map=RawMap(broken))
    verdict = verify_solution(c, tampered, LINE4)
    assert not verdict.ok and verdict.violation.kind == NON_INJECTIVE_MAP


def _replayed(initial, swaps):
    live, maps = list(initial.placement), []
    for group in swaps:
        for u, v in group:
            live = [v if p == u else u if p == v else p for p in live]
        maps.append(QubitMap(tuple(live)))
    return tuple(maps)


def test_slot_maps_final_map_and_swap_count_are_the_replay_of_the_swaps(rng):
    for _ in range(15):
        g = load_arch(rng.choice(["line:3", "line:4", "cycle:4", "star:4"]))
        c = random_circuit(rng, rng.randint(2, min(4, g.num_physical)), rng.randint(1, 5))
        optimum, witness = brute_force_oracle(c, g, diameter(g))
        assert witness.swap_count == optimum
        for sol in (solve_global(c, g, DriverConfig(n=diameter(g))), witness):
            maps = _replayed(sol.initial_map, sol.swaps)
            assert sol.map_sequence == maps
            assert sol.final_map == maps[-1]
            assert sol.swap_count == sum(len(group) for group in sol.swaps)

    _, sol, _ = routed_example()
    before = sol.map_sequence  # derived and kept on the original
    swaps = tuple(() for _ in sol.swaps)
    bare = replace(sol, swaps=swaps)
    assert bare.map_sequence == _replayed(sol.initial_map, swaps) != before
    assert bare.final_map == sol.initial_map and bare.swap_count == 0
    assert sol.map_sequence is before


def test_solution_with_non_edge_swap_rejected():
    c, sol, _ = routed_example()
    swaps = list(sol.swaps)
    swaps[0] = ((0, 2),)
    tampered = replace(sol, swaps=tuple(swaps))
    verdict = verify_solution(c, tampered, LINE4)
    assert not verdict.ok and verdict.violation.kind == SWAP_NON_EDGE


def test_mutants_over_random_outputs(rng):
    rejected = 0
    total = 0
    for trial in range(20):
        g = load_arch(rng.choice(["line:3", "line:4", "star:4"]))
        nq = rng.randint(2, min(4, g.num_physical))
        c = random_circuit(rng, nq, rng.randint(1, 4))
        sol = solve_global(c, g, DriverConfig(n=diameter(g)))
        routed = apply_routing(c, sol, g.num_physical)
        assert verify(c, routed, sol.initial_map, g).ok
        for kind, mutate in MUTATORS.items():
            mutant = mutate(routed, g, rng)
            if mutant is None:
                continue
            total += 1
            verdict = verify(c, mutant, sol.initial_map, g)
            assert not verdict.ok, (kind, trial)
            assert verdict.violation.kind == kind, (kind, verdict.violation)
            rejected += 1
    assert rejected == total and total > 40
