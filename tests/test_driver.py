import random
import re
import time

import pytest

from swaproute import driver
from swaproute.arch import NoiseModel, diameter, load_arch
from swaproute.circuit import Circuit, Gate, generate_qaoa_maxcut, slice_circuit
from swaproute.driver import (
    DriverConfig,
    as_cyclic_blocks,
    solve_best,
    solve_cyclic,
    solve_global,
    solve_sliced,
)
from swaproute.encoder import EncodeOptions, encode
from swaproute.errors import SolveTimeoutError, UnroutableError
from swaproute.maxsat import SolveOutcome, SolveStatus
from swaproute.oracle import brute_force_oracle
from swaproute.verifier import verify, verify_solution
from swaproute.solution import apply_routing

from conftest import ORACLE_ARCHES, random_circuit
from test_encoder import routing_cost

LINE2 = load_arch("line:2")
LINE3 = load_arch("line:3")
LINE4 = load_arch("line:4")
STAR4 = load_arch("star:4")
CYCLE6 = load_arch("cycle:6")

THREE_GATE = Circuit(4, (Gate("cx", (0, 1)), Gate("cx", (0, 2)), Gate("cx", (0, 3))))


def check_solution(circuit, solution, g):
    assert verify_solution(circuit, solution, g).ok
    routed = apply_routing(circuit, solution, g.num_physical)
    assert verify(circuit, routed, solution.initial_map, g).ok


def test_global_trivial():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    sol = solve_global(c, LINE2, DriverConfig(n=1))
    assert sol.swap_count == 0 and sol.status == "optimal"
    check_solution(c, sol, LINE2)


def test_global_three_gate_line4():
    sol = solve_global(THREE_GATE, LINE4, DriverConfig(n=1))
    assert sol.swap_count == 1 and sol.gates_added == 3
    assert sol.status == "optimal"
    check_solution(THREE_GATE, sol, LINE4)


def test_global_triangle_on_line3():
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 2))))
    sol = solve_global(c, LINE3, DriverConfig(n=1))
    oracle, _ = brute_force_oracle(c, LINE3, 1)
    assert sol.swap_count == oracle == 1
    check_solution(c, sol, LINE3)


def _one_slice(circuit, g, cfg):
    return solve_sliced(circuit, g, cfg, len(circuit.slots))


@pytest.mark.parametrize("solve", [solve_global, _one_slice], ids=["global", "one_slice"])
def test_global_matches_oracle_at_diameter(rng, solve):
    # solve_global is the one-slice run of solve_sliced: same routing,
    # same proof, one slice's stats
    for _ in range(25):
        g = load_arch(rng.choice(["line:3", "line:4", "cycle:4", "star:4"]))
        nq = rng.randint(2, min(4, g.num_physical))
        c = Circuit(nq, tuple(Gate("cx", tuple(rng.sample(range(nq), 2))) for _ in range(rng.randint(1, 4))))
        n = diameter(g)
        sol = solve(c, g, DriverConfig(n=n))
        oracle, _ = brute_force_oracle(c, g, n)
        assert sol.status == "optimal" and sol.swap_count == oracle
        glob = solve_global(c, g, DriverConfig(n=n))
        assert (sol.initial_map, sol.swaps, sol.map_sequence) == (glob.initial_map, glob.swaps, glob.map_sequence)
        assert [(s.index, s.backtracks, s.status) for s in sol.per_slice_stats] == [(0, 0, "optimal")]
        check_solution(c, sol, g)


def test_global_refutation_names_n_not_the_slice_size(monkeypatch):
    # A refutation is of slice 0, unpinned: a prefix of the circuit, or
    # all of it.  A larger slice size cannot help either way.
    refuted = SolveOutcome(SolveStatus.HARD_UNSAT, None, None, 0.0)
    monkeypatch.setattr(driver, "_run_solver", lambda instance, cfg, budget: refuted)
    for solve in (lambda: solve_global(THREE_GATE, LINE4, DriverConfig(n=1)),
                  lambda: solve_sliced(THREE_GATE, LINE4, DriverConfig(n=1), 1)):
        with pytest.raises(UnroutableError) as info:
            solve()
        assert re.search(r"n=1 .*graph diameter is 3.*\(slice 0, \d+\.\d\d s spent, budget none\)", str(info.value))
        assert "slice size" not in str(info.value)


def test_config_rejects_an_unknown_backend():
    with pytest.raises(ValueError, match="backend must be 'builtin' or 'cmd:<template>'"):
        DriverConfig(backend="magic")
    assert DriverConfig(backend="cmd:solver {wcnf}").backend == "cmd:solver {wcnf}"


def test_global_one_qubit_circuit():
    c = Circuit(2, (Gate("h", (0,)),))
    sol = solve_global(c, LINE2, DriverConfig())
    assert sol.swap_count == 0 and len(sol.swaps) == 0
    check_solution(c, sol, LINE2)


def test_sliced_fitting_circuit_needs_nothing():
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 1))))
    for size in (1, 2, 3):
        sol = solve_sliced(c, LINE3, DriverConfig(n=1), size)
        assert sol.swap_count == 0
        assert sol.status == "optimal"  # no routing has fewer than zero swaps
        check_solution(c, sol, LINE3)


def test_multi_slice_runs_encode_slices_without_canonical_placement():
    sol = solve_sliced(THREE_GATE, LINE4, DriverConfig(n=1), 2)
    assert [s.backtracks for s in sol.per_slice_stats] == [0, 0]
    slices = slice_circuit(THREE_GATE, 2)
    done = 0
    for piece, stats in zip(slices, sol.per_slice_stats):
        pin = sol.map_sequence[done - 1] if done else None
        plain = EncodeOptions(n=1, pinned_initial=pin, canonical_placement=False)
        assert stats.hard_clauses == len(encode(piece, LINE4, plain).hard)
        done += len(piece.slots)
    # slice 0 alone would have carried the clauses; one slice does carry them
    canonical = len(encode(slices[0], LINE4, EncodeOptions(n=1)).hard)
    assert sol.per_slice_stats[0].hard_clauses < canonical
    (whole,) = solve_sliced(THREE_GATE, LINE4, DriverConfig(n=1), 3).per_slice_stats
    assert whole.hard_clauses == len(encode(THREE_GATE, LINE4, EncodeOptions(n=1)).hard)


def test_slice_stats_time_each_end_of_the_solve():
    sol = solve_sliced(THREE_GATE, LINE4, DriverConfig(n=1), 1)
    for stats in sol.per_slice_stats:
        assert stats.encode_ms > 0 and stats.solve_ms > 0 and stats.decode_ms > 0


def test_sliced_status_is_proved_only_where_it_holds():
    # Several slices with swaps: best effort, however each slice was solved.
    sol = solve_sliced(THREE_GATE, LINE4, DriverConfig(n=1), 1)
    assert sol.swap_count >= 1 and sol.status == "best_effort"
    assert all(s.status == "optimal" for s in sol.per_slice_stats)
    # One slice is the global instance and keeps its proof.
    one = solve_sliced(THREE_GATE, LINE4, DriverConfig(n=1), 3)
    assert one.status == "optimal" and one.swap_count == solve_global(THREE_GATE, LINE4, DriverConfig(n=1)).swap_count
    (stats,) = one.per_slice_stats
    assert stats.lower_bound == one.swap_count
    # Zero swaps is the unweighted minimum only; under a noise model the
    # placement still carries a cost the slices did not minimize jointly.
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 1))))
    weighted = solve_sliced(c, LINE3, DriverConfig(n=1, weighted=NoiseModel.uniform(LINE3, cx=0.99)), 1)
    assert weighted.status == "best_effort"


def test_weighted_objective_of_stitched_routings_is_their_cost():
    # A multi-slice run's objective sums its slices'; a cyclic run's adds
    # up its copies.  Either way it is what the stitched routing costs
    # under the noise model.
    rng = random.Random("weighted/stitched")
    multi_slice = cyclic = 0
    for _ in range(12):
        g = load_arch(rng.choice(ORACLE_ARCHES))
        model = NoiseModel(
            {e: round(rng.uniform(0.9, 0.995), 4) for e in g.edges},
            {e: round(rng.uniform(0.8, 0.98), 4) for e in g.edges if rng.random() < 0.3},
        )
        c = random_circuit(rng, rng.randint(2, g.num_physical), rng.randint(2, 5))
        cfg = DriverConfig(n=diameter(g), weighted=model)
        for size in (1, 2):
            sol = solve_sliced(c, g, cfg, size)
            assert verify_solution(c, sol, g).ok
            assert sol.weighted_objective == routing_cost(c, sol, model)
            multi_slice += len(sol.per_slice_stats) > 1
        for cycles in (2, 3):
            try:
                sol = solve_cyclic(c, cycles, g, cfg, slice_size=rng.choice([None, 2]))
            except UnroutableError:
                continue
            full = Circuit(c.num_logical, c.gates * cycles)
            assert verify_solution(full, sol, g).ok
            assert sol.weighted_objective == routing_cost(full, sol, model)
            cyclic += 1
    assert multi_slice >= 12 and cyclic >= 12


def test_sliced_star_shows_local_optimum_gap():
    # Globally 0 swaps fit (hub on the center); slicing the two-gate
    # circuit gate by gate lets the first slice pick a hub-less placement
    # that the second slice must repair.
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (0, 2))))
    cfg = DriverConfig(n=diameter(STAR4))
    glob = solve_global(c, STAR4, cfg)
    sliced = solve_sliced(c, STAR4, cfg, 1)
    assert glob.swap_count == 0
    assert sliced.swap_count >= glob.swap_count
    assert sliced.swap_count == 1  # the deterministic solver exhibits the gap
    check_solution(c, sliced, STAR4)


def test_sliced_dominates_global_generally(rng):
    for _ in range(15):
        g = load_arch(rng.choice(["line:3", "line:4", "star:4"]))
        nq = rng.randint(2, min(4, g.num_physical))
        c = Circuit(nq, tuple(Gate("cx", tuple(rng.sample(range(nq), 2))) for _ in range(rng.randint(1, 5))))
        cfg = DriverConfig(n=diameter(g))
        glob = solve_global(c, g, cfg)
        for size in (1, 2):
            sliced = solve_sliced(c, g, cfg, size)
            assert sliced.swap_count >= glob.swap_count
            check_solution(c, sliced, g)


def test_sliced_slices_are_locally_optimal(rng):
    # without a merge, every slice's swap spend must equal the
    # exhaustive minimum for that slice under its pinned starting map
    from swaproute.circuit import slice_circuit

    checked = 0
    for _ in range(12):
        g = load_arch(rng.choice(["line:3", "line:4", "star:4"]))
        nq = rng.randint(2, min(4, g.num_physical))
        c = Circuit(nq, tuple(Gate("cx", tuple(rng.sample(range(nq), 2))) for _ in range(4)))
        cfg = DriverConfig(n=diameter(g))
        sol = solve_sliced(c, g, cfg, 1)
        if any(s.backtracks for s in sol.per_slice_stats):
            continue
        pin = None
        for i, sl in enumerate(slice_circuit(c, 1)):
            spent = len(sol.swaps[i])
            expected, _ = brute_force_oracle(sl, g, cfg.n, initial_map=pin)
            assert spent == expected, (c.gates, g, i)
            pin = sol.map_sequence[i]
            checked += 1
    assert checked >= 20
    gates = tuple(Gate("cx", p) for p in [(1, 0), (3, 0), (3, 1), (0, 2), (3, 1)])
    c = Circuit(4, gates)
    sol = solve_sliced(c, LINE4, DriverConfig(n=1), 1)
    assert sum(s.backtracks for s in sol.per_slice_stats) >= 1
    check_solution(c, sol, LINE4)


# Sliced at 3 slots on cycle:6, slice 1 is refuted from the placement
# slice 0 ends in, and from many others that slice 0 could end in.
NEEDS_A_MERGE = Circuit(4, tuple(Gate("cx", p) for p in [(0, 1), (0, 3), (1, 2), (3, 2), (3, 2)]))


def test_sliced_merges_a_refuted_slice_into_its_predecessor():
    sol = solve_sliced(NEEDS_A_MERGE, CYCLE6, DriverConfig(n=1), 3)
    check_solution(NEEDS_A_MERGE, sol, CYCLE6)
    # Merged down to one slice, the run solves the instance of
    # solve_global and keeps its routing and its proof.
    glob = solve_global(NEEDS_A_MERGE, CYCLE6, DriverConfig(n=1))
    assert (sol.initial_map, sol.swaps, sol.status) == (glob.initial_map, glob.swaps, "optimal")
    (stats,) = sol.per_slice_stats
    assert (stats.index, stats.backtracks, stats.hard_clauses) == (0, 1, glob.per_slice_stats[0].hard_clauses)


SLICED_ORACLE_ARCHES = ["line:4", "cycle:5", "star:4", "grid:2x2", "grid:2x3"]
# q0 meets q1..q5 in turn, twice over and once more: on line:6 at n=1 no
# routing of the first ten gates reaches the eleventh.
ROUND_ROBIN = Circuit(6, tuple(Gate("cx", (0, k)) for k in [1, 2, 3, 4, 5] * 2 + [1]))


def sliced_oracle_draws():
    rng = random.Random("sliced/oracle")
    for _ in range(60):
        g = load_arch(rng.choice(SLICED_ORACLE_ARCHES))
        c = random_circuit(rng, rng.randint(2, min(4, g.num_physical)), rng.randint(2, 6))
        yield c, g, rng.randint(1, diameter(g)), rng.randint(1, 3)
    for n in (1, 2):
        for size in (1, 2, 3):
            yield ROUND_ROBIN, load_arch("line:6"), n, size
    yield NEEDS_A_MERGE, CYCLE6, 1, 3


def test_sliced_refutes_exactly_what_the_oracle_refutes():
    # Merging a refuted slice into its predecessor never gives up on a
    # routable circuit, and refutes only a prefix that no routing has.
    refuted = routed = merged = 0
    for c, g, n, size in sliced_oracle_draws():
        try:
            oracle, _ = brute_force_oracle(c, g, n)
        except UnroutableError:
            with pytest.raises(UnroutableError):
                solve_sliced(c, g, DriverConfig(n=n), size)
            refuted += 1
            continue
        sol = solve_sliced(c, g, DriverConfig(n=n), size)
        check_solution(c, sol, g)
        assert sol.swap_count >= oracle
        routed += 1
        merged += any(s.backtracks for s in sol.per_slice_stats)
    assert (refuted, routed) == (3, 64) and merged >= 1


def test_sliced_stops_once_budget_is_spent(monkeypatch):
    # Slice 0's solve outlasts the whole budget; slice 1 must then be
    # refused before it is encoded, and the timeout must name it.
    run_solver, encode = driver._run_solver, driver.encode
    encoded = []

    def slow_first_solve(instance, cfg, budget):
        outcome = run_solver(instance, cfg, budget)
        if len(encoded) == 1:
            time.sleep(0.3)
        return outcome

    def counting_encode(*args, **kwargs):
        encoded.append(args[0])
        return encode(*args, **kwargs)

    monkeypatch.setattr(driver, "_run_solver", slow_first_solve)
    monkeypatch.setattr(driver, "encode", counting_encode)
    with pytest.raises(SolveTimeoutError, match=r"\(slice 1, \d+\.\d\d s spent, budget 0\.2 s\)"):
        solve_sliced(THREE_GATE, LINE4, DriverConfig(n=1, budget=0.2), 1)
    assert len(encoded) == 1


def test_sliced_solves_get_a_share_each(monkeypatch):
    # Each slice's solve gets what is left divided by the slices still to
    # run (this one included), so the three shares grow 10 -> 15 -> 30.
    budgets = []
    real = driver._run_solver

    def recording(instance, cfg, budget):
        budgets.append(budget)
        return real(instance, cfg, budget)

    monkeypatch.setattr(driver, "_run_solver", recording)
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 1))))
    solve_sliced(c, LINE3, DriverConfig(n=1, budget=30), 1)
    assert budgets == pytest.approx([10, 15, 30], abs=0.5)


def test_timeout_without_incumbent():
    # A cyclic QAOA-16 block on Tokyo: encoding it and setting up its
    # clauses take tens of milliseconds, so a 1 ms budget (the least share
    # a solve gets) runs out before the search starts, and the solver
    # returns no model.  That must surface as a timeout, however fast the
    # search is.
    block = generate_qaoa_maxcut(16, 1, 7)
    g = load_arch("tokyo")
    with pytest.raises(SolveTimeoutError, match=r"\(slice 0, \d+\.\d\d s spent, budget 0\.001 s\)"):
        solve_cyclic(block, 2, g, DriverConfig(n=1, budget=0.001))


def test_interrupted_global_solve_still_verifies():
    block = generate_qaoa_maxcut(6, 1, 7)
    g = load_arch("line:6")
    try:
        sol = solve_global(block, g, DriverConfig(n=1, budget=0.5))
    except SolveTimeoutError:
        return  # legal under load: no incumbent yet, and nothing was emitted
    if sol.status == "optimal":  # proved within the budget: it must be the optimum
        assert sol.swap_count == solve_global(block, g, DriverConfig(n=1)).swap_count
    else:
        assert sol.status == "best_effort"
    check_solution(block, sol, g)


def test_global_proves_the_tokyo_rand8x10_optimum():
    # The two-qubit structure of the benchmark's rand8x10-global row.  Its
    # probe refutes zero swaps; branch and bound then has to find a
    # one-swap routing, which it does by following the probe's saved phases.
    pairs = [(6, 4), (3, 7), (1, 2), (0, 5), (0, 6), (5, 3), (3, 6), (0, 1), (4, 1), (7, 4)]
    c = Circuit(8, tuple(Gate("cx", p) for p in pairs))
    g = load_arch("tokyo")
    sol = solve_global(c, g, DriverConfig(n=1, budget=30))
    assert sol.status == "optimal" and sol.gates_added == 3
    check_solution(c, sol, g)


# -- cyclic ------------------------------------------------------------------


def test_cyclic_running_example_two_swaps_per_block():
    # One block needs a swap before its last gate plus a swap that resets
    # the placement, so each copy costs exactly two swaps.
    sol = solve_cyclic(THREE_GATE, 3, LINE4, DriverConfig(n=1))
    assert sol.swap_count == 6
    assert sol.final_map == sol.initial_map
    full = Circuit(4, THREE_GATE.gates * 3)
    check_solution(full, sol, LINE4)


def test_cyclic_boundary_holds_after_each_copy():
    cycles = 4
    sol = solve_cyclic(THREE_GATE, cycles, LINE4, DriverConfig(n=1))
    per_block = len(THREE_GATE.slots)
    for j in range(1, cycles + 1):
        assert sol.map_sequence[j * per_block - 1] == sol.initial_map


def test_cyclic_vacuous_boundary_matches_global():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    cyc = solve_cyclic(c, 5, LINE2, DriverConfig(n=1))
    glob = solve_global(c, LINE2, DriverConfig(n=1))
    assert cyc.swap_count == 5 * glob.swap_count == 0


def test_cyclic_cost_scales_linearly():
    block = generate_qaoa_maxcut(4, 1, 3)
    per_costs = {}
    for cycles in (2, 4):
        sol = solve_cyclic(block, cycles, LINE4, DriverConfig(n=1))
        per_costs[cycles] = sol.swap_count
        full = Circuit(4, block.gates * cycles)
        check_solution(full, sol, LINE4)
    assert per_costs[4] == 2 * per_costs[2]


def test_cyclic_via_slicing_path():
    block = generate_qaoa_maxcut(6, 1, 7)
    g = load_arch("grid:2x3")
    sol = solve_cyclic(block, 2, g, DriverConfig(n=1, budget=60), slice_size=6)
    assert sol.final_map == sol.initial_map
    full = Circuit(6, block.gates * 2)
    check_solution(full, sol, g)


def answer_closing_slices(monkeypatch, status):
    """Make every closing slice's solve (the one encode with a pinned final
    map) answer ``status``, as an external solver can; returns the list of
    those instances."""
    real_encode, real_run = driver.encode, driver._run_solver
    closing = []

    def encode_noting_closing(circuit, graph, opt):
        instance = real_encode(circuit, graph, opt)
        if opt.pinned_final is not None:
            closing.append(instance)
        return instance

    def run_answering_closing(instance, cfg, budget):
        if any(instance is c for c in closing):
            return SolveOutcome(status, None, None, 0.0)
        return real_run(instance, cfg, budget)

    monkeypatch.setattr(driver, "encode", encode_noting_closing)
    monkeypatch.setattr(driver, "_run_solver", run_answering_closing)
    return closing


def test_cyclic_refuted_closing_slice_collapses_to_the_whole_block(monkeypatch):
    block = generate_qaoa_maxcut(4, 1, 7)
    closing = answer_closing_slices(monkeypatch, SolveStatus.HARD_UNSAT)
    sol = solve_cyclic(block, 2, LINE4, DriverConfig(n=1), slice_size=2)
    assert len(closing) == 1
    (stats,) = sol.per_slice_stats  # one slice: the whole block, encoded cyclically
    assert stats.index == 0 and stats.backtracks >= 1
    assert sol.final_map == sol.initial_map
    check_solution(Circuit(4, block.gates * 2), sol, LINE4)


def test_cyclic_closing_slice_timeout_names_its_slice(monkeypatch):
    # The closing slice gets all of the budget that is left; a solve that
    # ends without a model is a timeout, as for every slice of a sliced run.
    # At n = diameter no open slice is refuted, so none is merged, and the
    # closing slice is the last of the six.
    block = generate_qaoa_maxcut(4, 1, 7)
    answer_closing_slices(monkeypatch, SolveStatus.UNKNOWN)
    with pytest.raises(SolveTimeoutError, match=r"no incumbent \(slice 5, "):
        solve_cyclic(block, 2, LINE4, DriverConfig(n=diameter(LINE4)), slice_size=2)


# Routes on line:6 at n=1, but no such routing returns to its start.
NO_RETURN = Circuit(4, tuple(Gate("cx", p) for p in [(2, 0), (0, 1), (3, 0), (2, 1), (3, 2), (1, 3)]))


def cyclic_oracle_draws():
    rng = random.Random("cyclic/oracle")
    for _ in range(40):
        g = load_arch(rng.choice(ORACLE_ARCHES))
        c = random_circuit(rng, rng.randint(2, g.num_physical), rng.randint(2, 6))
        yield c, g, rng.randint(1, diameter(g)), rng.randint(1, 3)
    for size in (1, 2, 3):
        yield NO_RETURN, load_arch("line:6"), 1, size  # refuted at the closing slice
    yield ROUND_ROBIN, load_arch("line:6"), 1, 3  # refuted open, so before it closes


def test_sliced_cyclic_refutes_exactly_what_the_whole_block_refutes():
    # A sliced cyclic run refutes a block only where the whole-block
    # cyclic encode does, returns to its start, and never beats that
    # encode's optimum.
    refuted = routed = 0
    for c, g, n, size in cyclic_oracle_draws():
        cfg = DriverConfig(n=n)
        try:
            whole = solve_cyclic(c, 1, g, cfg)
        except UnroutableError:
            with pytest.raises(UnroutableError):
                solve_cyclic(c, 1, g, cfg, slice_size=size)
            refuted += 1
            continue
        sol = solve_cyclic(c, 1, g, cfg, slice_size=size)
        assert sol.final_map == sol.initial_map
        assert verify_solution(c, sol, g).ok
        assert sol.swap_count >= whole.swap_count
        routed += 1
    assert (refuted, routed) == (4, 40)


def test_as_cyclic_blocks_accepts_generated_circuits():
    c = generate_qaoa_maxcut(4, 3, 11)
    block, cycles = as_cyclic_blocks(c, 12)
    assert cycles == 3
    assert len(block.slots) == 12


def test_as_cyclic_blocks_rejects_non_cyclic():
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 1)), Gate("cx", (0, 2))))
    with pytest.raises(ValueError, match="not cyclic"):
        as_cyclic_blocks(c, 2)
    with pytest.raises(ValueError, match="divide"):
        as_cyclic_blocks(c, 3)


# -- best-of -----------------------------------------------------------------


def test_best_of_ties_prefer_smaller_size():
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 1))))
    out = solve_best(c, LINE3, DriverConfig(n=1, slice_sizes=(1, 2, 3)))
    assert out.selected_size == 1
    assert out.solution.swap_count == 0


def test_best_of_reports_failed_sizes(monkeypatch):
    real = driver.solve_sliced

    def three_times_out(circuit, g, cfg, size):
        if size == 3:
            raise SolveTimeoutError("budget expired")
        return real(circuit, g, cfg, size)

    monkeypatch.setattr(driver, "solve_sliced", three_times_out)
    out = solve_best(NEEDS_A_MERGE, CYCLE6, DriverConfig(n=1, slice_sizes=(3, 5)))
    assert out.selected_size == 5
    assert [(r.slice_size, r.status, r.error) for r in out.runs] == [(3, "timeout", "budget expired"), (5, "ok", None)]


def test_best_of_picks_minimum_cost(rng):
    for _ in range(8):
        nq = rng.randint(2, 4)
        c = Circuit(nq, tuple(Gate("cx", tuple(rng.sample(range(nq), 2))) for _ in range(5)))
        cfg = DriverConfig(n=diameter(LINE4), slice_sizes=(2, 3))
        out = solve_best(c, LINE4, cfg)
        costs = {}
        for size in (2, 3):
            costs[size] = solve_sliced(c, LINE4, cfg, size).gates_added
        assert out.solution.gates_added == min(costs.values())
        glob = solve_global(c, LINE4, cfg)
        assert out.solution.gates_added >= glob.gates_added


def test_best_of_under_noise_keeps_the_least_objective():
    # Under a noise model the cheapest routing is the one of least weighted
    # objective, which need not add the fewest gates: a swap on a good edge
    # can cost less than gates on bad ones.
    rng = random.Random("best-of/noise")
    gates_disagree = 0
    for _ in range(25):
        g = load_arch(rng.choice(["line:4", "line:5", "cycle:4", "star:4", "grid:2x3"]))
        model = NoiseModel({e: round(rng.uniform(0.9, 0.999), 4) for e in g.edges}, {})
        nq = rng.randint(3, 4)
        c = Circuit(nq, tuple(Gate("cx", tuple(rng.sample(range(nq), 2))) for _ in range(rng.randint(4, 7))))
        out = solve_best(c, g, DriverConfig(n=1, slice_sizes=(2, 50), weighted=model))
        ran = [r for r in out.runs if r.status == "ok"]
        assert out.solution.weighted_objective == min(r.weighted_objective for r in ran)
        assert out.solution.weighted_objective == routing_cost(c, out.solution, model)
        kept = next(r for r in ran if r.slice_size == out.selected_size)
        assert (kept.weighted_objective, kept.gates_added) == (out.solution.weighted_objective, out.solution.gates_added)
        gates_disagree += min(ran, key=lambda r: (r.gates_added, r.slice_size)) is not kept
        check_solution(c, out.solution, g)
    assert gates_disagree >= 3


def test_best_of_hands_unspent_share_forward(monkeypatch):
    # Each size gets what is left divided by the sizes still to run; the
    # first two finish in milliseconds, so the shares grow 10 -> 15 -> 30.
    budgets = []
    real = driver.solve_sliced

    def recording(circuit, g, cfg, size):
        budgets.append(cfg.budget)
        return real(circuit, g, cfg, size)

    monkeypatch.setattr(driver, "solve_sliced", recording)
    out = solve_best(THREE_GATE, LINE4, DriverConfig(n=1, slice_sizes=(1, 2, 3), budget=30))
    assert [r.slice_size for r in out.runs] == [1, 2, 3]
    assert [r.status for r in out.runs] == ["ok"] * 3
    assert budgets[0] == pytest.approx(10, abs=0.5)
    assert budgets[1] == pytest.approx((30 - out.runs[0].elapsed_ms / 1000) / 2, abs=0.5)
    assert budgets[2] == pytest.approx(30 - sum(r.elapsed_ms for r in out.runs[:2]) / 1000, abs=0.5)


def test_best_of_stops_at_a_zero_swap_routing():
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 1))))
    out = solve_best(c, LINE3, DriverConfig(n=1, slice_sizes=(1, 2, 3)))
    assert [r.slice_size for r in out.runs] == [1]
    assert out.selected_size == 1
    assert out.solution.status == "optimal" and out.solution.swap_count == 0
    check_solution(c, out.solution, LINE3)


def test_best_of_requires_sizes():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    with pytest.raises(ValueError):
        solve_best(c, LINE2, DriverConfig(slice_sizes=()))


def test_best_of_default_is_ten_slot_slices_then_the_whole_circuit(monkeypatch):
    runs = []

    def recording(circuit, g, cfg, size):
        runs.append((len(circuit.slots), size))
        raise SolveTimeoutError("no model")

    monkeypatch.setattr(driver, "solve_sliced", recording)
    for num_slots in (8, 36):
        with pytest.raises(SolveTimeoutError):
            solve_best(Circuit(2, (Gate("cx", (0, 1)),) * num_slots), LINE2, DriverConfig())
    assert runs == [(8, 10), (36, 10), (36, 50)]


@pytest.mark.parametrize(
    "failures, raised, ran",
    [
        # any size's refutation is a whole-circuit proof: it ends the run
        ({1: "unroutable", 3: "timeout"}, UnroutableError, [1]),
        ({1: "timeout", 3: "unroutable"}, UnroutableError, [1, 3]),
        ({1: "unroutable", 3: "unroutable"}, UnroutableError, [1]),
        ({1: "timeout", 3: "timeout"}, SolveTimeoutError, [1, 3]),
        ({1: "unroutable", 2: "timeout"}, UnroutableError, [1]),  # no size covers the whole circuit
    ],
    ids=["refuted-timeout", "timeout-refuted", "refuted-refuted", "timeout-timeout", "refuted-timeout-sliced"],
)
def test_best_of_failure_class(monkeypatch, failures, raised, ran):
    sizes = []

    def failing(circuit, g, cfg, size):
        sizes.append(size)
        if failures[size] == "timeout":
            raise SolveTimeoutError("budget expired")
        raise UnroutableError("refuted")

    monkeypatch.setattr(driver, "solve_sliced", failing)
    with pytest.raises(raised):
        solve_best(THREE_GATE, LINE4, DriverConfig(slice_sizes=tuple(failures)))
    assert sizes == ran


def test_best_of_runs_one_whole_circuit_size():
    # sizes of at least the slot count all solve the same single slice
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 2))))
    K = len(c.slots)
    out = solve_best(c, LINE3, DriverConfig(n=1, slice_sizes=(3 * K, K, 2 * K), budget=30))
    assert [r.slice_size for r in out.runs] == [K]
    assert out.selected_size == K
    check_solution(c, out.solution, LINE3)
