"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import itertools
import os
import random
import sys
from pathlib import Path

from conftest import MUTATORS, random_circuit

from swaproute.arch import NoiseModel, diameter, load_arch
from swaproute.circuit import Circuit, Gate, generate_qaoa_maxcut
from swaproute.cli import main as cli_main
from swaproute.cnf import InstanceBuilder, Model
from swaproute.driver import DriverConfig, solve_cyclic, solve_global, solve_sliced
from swaproute.encoder import EncodeOptions, encode
from swaproute.errors import SolveTimeoutError
from swaproute.maxsat import SolveStatus, emit_wcnf, parse_wcnf, solve_builtin, solve_external
from swaproute.oracle import brute_force_oracle
from swaproute.solution import apply_routing
from swaproute.verifier import NON_INJECTIVE_MAP, verify, verify_solution

ORACLE_ARCHES = ["line:3", "line:4", "cycle:4", "star:4"]
STUB = str(Path(__file__).parent / "external_stub.py")


def oracle_instances(seed: int, count: int, max_slots: int = 5):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        g = load_arch(ORACLE_ARCHES[i % len(ORACLE_ARCHES)])
        nq = rng.randint(2, min(4, g.num_physical))
        c = random_circuit(rng, nq, rng.randint(1, max_slots), one_qubit=False)
        out.append((c, g))
    return out


def test_criterion_1_oracle_optimality():
    checked = 0
    for c, g in oracle_instances(101, 200):
        n = diameter(g)
        sol = solve_global(c, g, DriverConfig(n=n))
        expected, _ = brute_force_oracle(c, g, n)
        assert sol.status == "optimal"
        assert sol.swap_count == expected, (c.gates, g)
        checked += 1
    assert checked == 200
    print(f"ACCEPTANCE 1 oracle optimality over {checked} instances: PASS")


def test_criterion_2_running_example_family():
    c = Circuit(4, (Gate("cx", (0, 1)), Gate("cx", (0, 2)), Gate("cx", (0, 3))))
    g = load_arch("line:4")
    expected, _ = brute_force_oracle(c, g, 1)
    assert expected == 1  # golden value, confirmed by the oracle
    sol = solve_global(c, g, DriverConfig(n=1))
    assert sol.swap_count == 1 and sol.gates_added == 3
    assert verify_solution(c, sol, g).ok
    print("ACCEPTANCE 2 running example costs exactly one swap: PASS")


def test_criterion_3_maxsat_micro_examples():
    # one hard clause, soft {b} and the soft formula {a and not b}
    b = InstanceBuilder()
    va, vb = b.new_var(), b.new_var()
    b.add_hard([-va, vb])
    b.add_soft([vb], 1)
    b.add_soft_formula([[va], [-vb]], 1)
    out = solve_builtin(b.build())
    assert out.status is SolveStatus.OPTIMAL
    assert out.falsified_weight == 1  # exactly one soft formula satisfied
    assert out.model[va] is False and out.model[vb] is True

    b = InstanceBuilder()
    va, vb = b.new_var(), b.new_var()
    b.add_hard([va, vb])
    b.add_soft([-va], 5)
    b.add_soft([-vb], 1)
    inst = b.build()
    out = solve_builtin(inst)
    assert out.model[va] is False and out.model[vb] is True
    assert inst.soft_weight_total - out.falsified_weight == 5
    print("ACCEPTANCE 3 maxsat micro examples reproduce exactly: PASS")


def test_criterion_4_slicing_dominance():
    # the star-graph pair is the canonical local-optimum trap; the rest
    # are randomized oracle-sized instances
    instances = [(Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (0, 2)))), load_arch("star:4"))]
    instances += oracle_instances(404, 49)
    strict = 0
    for c, g in instances:
        n = diameter(g)
        cfg = DriverConfig(n=n)
        glob = solve_global(c, g, cfg)
        for size in (1, 2, 3):
            sliced = solve_sliced(c, g, cfg, size)
            assert sliced.swap_count >= glob.swap_count, (c.gates, g, size)
            assert verify_solution(c, sliced, g).ok
            routed = apply_routing(c, sliced, g.num_physical)
            assert verify(c, routed, sliced.initial_map, g).ok
            if sliced.swap_count > glob.swap_count:
                strict += 1
    assert strict >= 1
    print(f"ACCEPTANCE 4 slicing dominance on 50 instances ({strict} strict gaps): PASS")


def test_criterion_5_cyclic_stitching():
    cases = [
        (4, "line:4", None),
        (6, "grid:2x3", 6),  # the block is solved sliced, its last slice pinned back to its start
    ]
    for qubits, arch, slice_size in cases:
        g = load_arch(arch)
        block = generate_qaoa_maxcut(qubits, 1, 7)
        per_block = len(block.slots)
        for cycles in (2, 4):
            sol = solve_cyclic(block, cycles, g, DriverConfig(n=1, budget=120), slice_size=slice_size)
            assert sol.final_map == sol.initial_map
            for j in range(1, cycles + 1):
                assert sol.map_sequence[j * per_block - 1] == sol.initial_map
            assert sol.swap_count % cycles == 0
            per_copy = sol.swap_count // cycles
            one = solve_cyclic(block, 1, g, DriverConfig(n=1, budget=120), slice_size=slice_size)
            assert per_copy == one.swap_count  # exactly linear in cycles
            full = Circuit(qubits, block.gates * cycles)
            assert verify_solution(full, sol, g).ok
            routed = apply_routing(full, sol, g.num_physical)
            assert verify(full, routed, sol.initial_map, g).ok
    print("ACCEPTANCE 5 cyclic stitching at 4 and 6 qubits, cycles 2 and 4: PASS")


def test_criterion_6_verifier_fault_injection():
    rng = random.Random(606)
    valid = []
    while len(valid) < 100:
        g = load_arch(rng.choice(ORACLE_ARCHES))
        nq = rng.randint(2, min(4, g.num_physical))
        c = random_circuit(rng, nq, rng.randint(1, 5))
        sol = solve_global(c, g, DriverConfig(n=diameter(g)))
        routed = apply_routing(c, sol, g.num_physical)
        valid.append((c, routed, sol, g))

    false_rejections = sum(
        0 if verify(c, routed, sol.initial_map, g).ok else 1 for c, routed, sol, g in valid
    )
    assert false_rejections == 0

    counts = {kind: 0 for kind in MUTATORS}
    counts[NON_INJECTIVE_MAP] = 0
    for c, routed, sol, g in itertools.cycle(valid):
        for kind, mutate in MUTATORS.items():
            if counts[kind] >= 20:
                continue
            mutant = mutate(routed, g, rng)
            if mutant is None:
                continue
            verdict = verify(c, mutant, sol.initial_map, g)
            assert not verdict.ok and verdict.violation.kind == kind, (kind, verdict)
            counts[kind] += 1
        if counts[NON_INJECTIVE_MAP] < 20 and len(sol.initial_map) >= 2:
            bad = list(sol.initial_map.placement)
            bad[1] = bad[0]
            verdict = verify(c, routed, tuple(bad), g)
            assert not verdict.ok and verdict.violation.kind == NON_INJECTIVE_MAP
            counts[NON_INJECTIVE_MAP] += 1
        if all(v >= 20 for v in counts.values()):
            break
    assert all(v >= 20 for v in counts.values())
    total = sum(counts.values())
    print(f"ACCEPTANCE 6 fault injection ({total} mutants over 6 classes, 0 false rejections): PASS")


def test_criterion_7_encoding_size_scaling():
    g = load_arch("line:6")

    def hard_count(num_slots: int) -> int:
        gates = tuple(Gate("cx", (i % 5, i % 5 + 1)) for i in range(num_slots))
        return len(encode(Circuit(6, gates), g, EncodeOptions(n=1)).hard)

    xs = [10, 20, 40]
    ys = [hard_count(x) for x in xs]
    # least-squares line through the three points
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum((x - mean_x) ** 2 for x in xs)
    intercept = mean_y - slope * mean_x
    for x, y in zip(xs, ys):
        residual = abs((slope * x + intercept) - y) / y
        assert residual < 0.05, (x, y, residual)
    assert 1.5 <= ys[1] / ys[0] <= 2.5
    assert 1.5 <= ys[2] / ys[1] <= 2.5
    print(f"ACCEPTANCE 7 hard-clause growth linear in slots {dict(zip(xs, ys))}: PASS")


def test_criterion_8_wcnf_interop():
    from test_maxsat import random_instance

    rng = random.Random(808)
    external_cmd = os.environ.get("MAXSAT_SOLVER", f"{sys.executable} {STUB} ok {{wcnf}}")
    agreed = 0
    for _ in range(50):
        inst = random_instance(rng, rng.randint(3, 9))
        direct = solve_builtin(inst)
        round_tripped = solve_builtin(parse_wcnf(emit_wcnf(inst)))
        assert direct.status == round_tripped.status
        assert direct.falsified_weight == round_tripped.falsified_weight
        ext = solve_external(inst, external_cmd, budget=60)
        assert ext.status == direct.status
        if direct.status is SolveStatus.OPTIMAL:
            assert ext.falsified_weight == direct.falsified_weight
        agreed += 1
    assert agreed == 50
    print("ACCEPTANCE 8 wcnf round-trip and external agreement on 50 instances: PASS")


def test_criterion_9_anytime_contract(tmp_path):
    rng = random.Random(909)
    block = generate_qaoa_maxcut(6, 1, 7)
    g = load_arch("line:6")
    optimum = solve_global(block, g, DriverConfig(n=1))  # no budget: proved optimal
    assert optimum.status == "optimal"
    timeouts = solved = 0
    for _ in range(50):
        budget = rng.uniform(0.004, 0.4)
        try:
            sol = solve_global(block, g, DriverConfig(n=1, budget=budget))
        except SolveTimeoutError:
            timeouts += 1
            continue
        solved += 1
        # A solve that ends inside its budget may prove its routing; it is
        # then the optimum.  One stopped by its budget is best effort.
        if sol.status == "optimal":
            assert sol.swap_count == optimum.swap_count
        else:
            assert sol.status == "best_effort"
        assert verify_solution(block, sol, g).ok
        routed = apply_routing(block, sol, g.num_physical)
        assert verify(block, routed, sol.initial_map, g).ok
    assert timeouts + solved == 50

    # the same contract at the CLI: exit 0 with a verifying file, or exit 2
    qasm = tmp_path / "block.qasm"
    assert cli_main(["gen-qaoa", "--qubits", "6", "--cycles", "1", "--seed", "7", "--output", str(qasm)]) == 0
    out = tmp_path / "routed.qasm"
    code = cli_main(["map", "--input", str(qasm), "--arch", "line:6", "--strategy", "global",
                     "--budget", "0.05", "--output", str(out)])
    assert code in (0, 2)
    if code == 0:
        assert cli_main(["verify", "--source", str(qasm), "--routed", str(out), "--arch", "line:6"]) == 0
    print(f"ACCEPTANCE 9 anytime contract over 50 cutoffs ({timeouts} timeouts, {solved} best-effort): PASS")


def test_criterion_10_weighted_argmin_invariance():
    for c, g in oracle_instances(1010, 30, max_slots=4):
        n = diameter(g)
        uniform = NoiseModel.uniform(g, cx=0.99)
        plain = solve_global(c, g, DriverConfig(n=n))
        weighted = solve_global(c, g, DriverConfig(n=n, weighted=uniform))
        assert plain.status == weighted.status == "optimal"
        assert plain.swap_count == weighted.swap_count, (c.gates, g)
        assert weighted.weighted_objective is not None
    print("ACCEPTANCE 10 weighted argmin invariance on 30 oracle instances: PASS")
