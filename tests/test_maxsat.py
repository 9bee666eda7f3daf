import gc
import hashlib
import itertools
import random
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from swaproute import kernel, maxsat
from swaproute.arch import NoiseModel, load_arch
from swaproute.circuit import Circuit, Gate, generate_qaoa_maxcut
from swaproute.cnf import HardClauses, InstanceBuilder, MaxSatInstance, Model, make_clause
from swaproute.encoder import EncodeOptions, encode
from swaproute.errors import SolverIntegrityError, SolverOutputError
from swaproute.maxsat import (
    SolveStatus,
    emit_wcnf,
    parse_wcnf,
    solve_builtin,
    solve_external,
)

STUB = str(Path(__file__).parent / "external_stub.py")


def stub_cmd(mode: str) -> str:
    return f"{sys.executable} {STUB} {mode} {{wcnf}}"


def conjunctive_soft_instance() -> MaxSatInstance:
    # hard: (not a or b); soft: {b}, {a and not b}.  The conjunction is a
    # soft *formula*, so it rides behind a selector variable; splitting it
    # into two unit clauses would change the objective.
    b = InstanceBuilder()
    a, bb = b.new_var(), b.new_var()
    b.add_hard([-a, bb])
    b.add_soft([bb], 1)
    b.add_soft_formula([[a], [-bb]], 1)
    return b.build()


def test_soft_formula_example():
    inst = conjunctive_soft_instance()
    out = solve_builtin(inst)
    assert out.status is SolveStatus.OPTIMAL
    assert out.falsified_weight == 1  # exactly one of the two soft formulas holds
    assert out.model[1] is False and out.model[2] is True


def test_weighted_example_weight_five():
    b = InstanceBuilder()
    a, bb = b.new_var(), b.new_var()
    b.add_hard([a, bb])
    b.add_soft([-a], 5)
    b.add_soft([-bb], 1)
    inst = b.build()
    out = solve_builtin(inst)
    assert out.status is SolveStatus.OPTIMAL
    assert out.model[1] is False and out.model[2] is True
    assert out.falsified_weight == 1
    assert inst.soft_weight_total - out.falsified_weight == 5


def test_contradiction_is_hard_unsat():
    b = InstanceBuilder()
    a = b.new_var()
    b.add_hard([a])
    b.add_hard([-a])
    out = solve_builtin(b.build())
    assert out.status is SolveStatus.HARD_UNSAT
    assert out.model is None


def random_instance(rng: random.Random, num_vars: int, max_weight: int = 6) -> MaxSatInstance:
    b = InstanceBuilder()
    vs = b.new_vars(num_vars)
    for _ in range(rng.randint(1, 2 * num_vars)):
        size = rng.randint(1, min(3, num_vars))
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(vs, size)]
        b.add_hard(lits)
    for _ in range(rng.randint(1, num_vars)):
        size = rng.randint(1, min(2, num_vars))
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(vs, size)]
        b.add_soft(lits, rng.randint(1, max_weight))
    return b.build()


def pigeonhole_hard(builder: InstanceBuilder, pigeons: int, holes: int) -> list[list[int]]:
    """Place each pigeon in some hole, no two sharing one: unsatisfiable
    when pigeons > holes.  Every resolution refutation is exponential in
    the number of holes (Haken 1985), and clause learning is bounded by
    resolution, so at 12 pigeons no refutation fits in a fraction of a
    second."""
    x = [[builder.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        builder.add_hard(x[p])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                builder.add_hard([-x[p1][h], -x[p2][h]])
    return x


def exhaustive_optimum(inst: MaxSatInstance) -> int | None:
    best = None
    for bits in itertools.product([False, True], repeat=inst.num_vars):
        model = Model((False, *bits))
        if not inst.hard_satisfied(model):
            continue
        weight = inst.falsified_weight(model)
        best = weight if best is None else min(best, weight)
    return best


def test_builtin_matches_exhaustive_enumeration():
    rng = random.Random(7)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(2, 11))
        expected = exhaustive_optimum(inst)
        out = solve_builtin(inst)
        if expected is None:
            assert out.status is SolveStatus.HARD_UNSAT
        else:
            assert out.status is SolveStatus.OPTIMAL
            assert out.falsified_weight == expected
            assert inst.hard_satisfied(out.model)
            assert inst.falsified_weight(out.model) == expected


def search_once(inst: MaxSatInstance, upper: int):
    """One kernel call below ``upper``, with no budget, no proven lower
    bound and nothing saved."""
    return maxsat._search(inst, upper, None, 0, bytearray(inst.num_vars + 1), time.monotonic())


def branch_and_bound(inst: MaxSatInstance):
    """The branch and bound of ``solve_builtin`` on its own: no probe, so no
    proven lower bound to stop at."""
    return search_once(inst, inst.soft_weight_total + 1)


def test_builtin_weighted_matches_exhaustive_enumeration():
    # Improving on a first incumbent is what drives bound conflicts, so
    # enough instances must get past their first model.  The probe answers
    # many instances with one model, so that is counted on the branch and
    # bound run alone.
    rng = random.Random(2024)
    improved = 0
    for _ in range(400):
        inst = random_instance(rng, rng.randint(1, 12))
        expected = exhaustive_optimum(inst)
        out = solve_builtin(inst)
        bnb = branch_and_bound(inst)
        if expected is None:
            assert out.status is bnb.status is SolveStatus.HARD_UNSAT
            continue
        for o in (out, bnb):
            assert o.status is SolveStatus.OPTIMAL
            assert o.falsified_weight == expected == inst.falsified_weight(o.model)
            assert inst.hard_satisfied(o.model)
        improved += len(bnb.incumbents) >= 2
    assert improved >= 40


@pytest.mark.parametrize("max_weight", [1, 6])
def test_lower_bound_brackets_the_optimum(max_weight):
    rng = random.Random(4000 + max_weight)
    refuted = 0
    for _ in range(400):
        inst = random_instance(rng, rng.randint(1, 12), max_weight)
        expected = exhaustive_optimum(inst)
        out = solve_builtin(inst)
        if expected is None:
            assert out.status is SolveStatus.HARD_UNSAT
            continue
        assert out.lower_bound <= expected
        if out.status is SolveStatus.OPTIMAL:
            assert out.lower_bound == out.falsified_weight == expected
        # The probe finds a model exactly when one falsifies nothing.
        cheapest = min(w for _, w in inst.soft)
        probe = search_once(inst, cheapest)
        assert (probe.model is not None) == (expected == 0)
        refuted += probe.status is SolveStatus.HARD_UNSAT
    assert refuted >= 40


def test_probe_answers_zero_cost_model():
    # The first descent sets a (soft preference), which forces b false and
    # costs 1; the only zero-cost models have a false.  Branch and bound
    # walks its incumbent down 1 -> 0; the probe's bound conflicts steer
    # the first model it finds to cost 0.
    b = InstanceBuilder()
    a, bb, c = b.new_vars(3)
    b.add_hard([-a, -bb])
    b.add_soft([a, c], 1)
    b.add_soft([bb], 1)
    inst = b.build()
    out = solve_builtin(inst)
    assert out.status is SolveStatus.OPTIMAL
    assert out.falsified_weight == out.lower_bound == 0
    assert inst.hard_satisfied(out.model)
    assert [cost for _, cost in out.incumbents] == [0]
    assert [cost for _, cost in branch_and_bound(inst).incumbents] == [1, 0]


def test_expired_budget_is_unknown_without_search():
    b = InstanceBuilder()
    v = b.new_var()
    b.add_soft([v], 1)
    out = solve_builtin(b.build(), budget=0.0)
    assert out.status is SolveStatus.UNKNOWN and out.model is None
    assert out.propagations == out.decisions == out.conflicts == 0


def test_deadline_is_read_during_clause_set_up():
    # Setting up 200k clauses takes a tenth of a second or more; the set-up
    # polls the deadline every few thousand clauses, so a 5 ms budget ends
    # it long before that.
    n = 30000
    rng = random.Random(8)
    hard = tuple(tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)) for _ in range(200000))
    inst = MaxSatInstance(n, hard, (((1,), 1),))
    gc.disable()  # a collection pass over the fresh clauses would dwarf the poll interval
    try:
        out = solve_builtin(inst, budget=0.005)
    finally:
        gc.enable()
    assert out.status is SolveStatus.UNKNOWN
    assert out.propagations == 0
    assert out.elapsed < 0.05


def test_branch_and_bound_stops_at_the_probes_bound():
    # Every model falsifies one of the two soft clauses, which the probe
    # proves.  The first model of branch and bound costs 1, meets that
    # bound and is returned as optimal without a conflict of its own.
    b = InstanceBuilder()
    e = escaped_pigeonhole(b)
    b.add_soft([-e], 1)
    b.add_soft([e], 1)
    inst = b.build()
    probe = search_once(inst, 1)
    assert probe.status is SolveStatus.HARD_UNSAT
    out = solve_builtin(inst)
    assert out.status is SolveStatus.OPTIMAL
    assert out.falsified_weight == out.lower_bound == 1
    assert [cost for _, cost in out.incumbents] == [1]
    assert out.conflicts == probe.conflicts
    assert inst.hard_satisfied(out.model)


def test_branch_and_bound_forgets_what_the_probe_learned():
    # Refuting a zero-cost model, the probe learns (-a | -b | -c), the
    # first soft clause made hard.  Kept for branch and bound, that clause
    # would forbid the optimum, which falsifies exactly the first soft clause.
    b = InstanceBuilder()
    a, bb, c = b.new_vars(3)
    b.add_soft([-a, -bb, -c], 1)
    for v in (a, bb, c):
        b.add_soft([v], 5)
    out = solve_builtin(b.build())
    assert out.status is SolveStatus.OPTIMAL
    assert out.falsified_weight == out.lower_bound == 1



def test_incumbent_timeline_falls_to_reported_weight():
    rng = random.Random(3)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(6, 12))
        out = solve_builtin(inst)
        if out.model is None:
            assert out.incumbents == ()
            continue
        costs = [cost for _, cost in out.incumbents]
        times = [t for t, _ in out.incumbents]
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert times == sorted(times) and times[-1] <= out.elapsed
        assert costs[-1] == out.falsified_weight
        assert out.propagations > 0


def test_hard_satisfied_matches_per_clause_definition():
    rng = random.Random(17)
    verdicts = set()
    for _ in range(200):
        inst = random_instance(rng, rng.randint(2, 10))
        out = solve_builtin(inst)
        if out.model is not None and rng.random() < 0.5:
            model = out.model  # satisfying
        else:
            model = Model((False, *(rng.random() < 0.5 for _ in range(inst.num_vars))))
        if rng.random() < 0.3:  # a model that covers only some variables
            model = Model(model.values[: rng.randint(0, inst.num_vars)])
        covered = len(model.values) - 1
        # a variable the model does not cover holds in neither polarity
        expected = all(any(abs(lit) <= covered and model.holds(lit) for lit in clause) for clause in inst.hard)
        assert inst.hard_satisfied(model) is expected
        verdicts.add((expected, covered < inst.num_vars))
    assert verdicts == {(True, False), (False, False), (True, True), (False, True)}


def test_builtin_deterministic():
    rng = random.Random(21)
    for _ in range(10):
        inst = random_instance(rng, 9)
        first = solve_builtin(inst)
        second = solve_builtin(inst)
        assert first.status == second.status
        if first.model is not None:
            assert first.model.values == second.model.values


def test_budget_without_incumbent_is_unknown():
    b = InstanceBuilder()
    pigeonhole_hard(b, 12, 11)
    out = solve_builtin(b.build(), budget=0.3)
    assert out.status is SolveStatus.UNKNOWN
    assert out.model is None


def escaped_pigeonhole(builder: InstanceBuilder) -> int:
    """Twelve pigeons in eleven holes, every clause weakened by an escape
    variable (returned), which is the first variable of the instance."""
    e = builder.new_var()
    x = [[builder.new_var() for _ in range(11)] for _ in range(12)]
    for p in range(12):
        builder.add_hard([e, *x[p]])
    for h in range(11):
        for p1 in range(12):
            for p2 in range(p1 + 1, 12):
                builder.add_hard([e, -x[p1][h], -x[p2][h]])
    return e


def test_budget_with_incumbent_is_satisfiable_bound():
    # Setting the escape variable satisfies everything at soft cost 5;
    # proving that nothing cheaper exists would mean refuting the
    # pigeonhole core, which cannot happen within the budget.
    b = InstanceBuilder()
    e = escaped_pigeonhole(b)
    b.add_soft([-e], 5)
    b.add_soft([e], 1)
    inst = b.build()
    out = solve_builtin(inst, budget=0.3)
    assert out.status is SolveStatus.SATISFIABLE_BOUND
    assert inst.hard_satisfied(out.model)
    assert out.falsified_weight == 5  # the escape-hatch incumbent
    assert out.incumbents[-1][1] == 5
    assert out.lower_bound == 1  # the probe refutes a zero-cost model at once


# -- the search trajectory ------------------------------------------------------
#
# The no-budget outcome of solve_builtin on every instance below: status, decisions,
# conflicts, propagations, incumbent weights, lower bound and a digest of
# the model.  A change that only makes the search faster must reproduce
# them exactly; one that changes its decisions re-records them and says why.
# Both search kernels, the Python reference and the compiled one, must
# reproduce them.


def fixed_circuit(num_qubits: int, slots: int, tag: str) -> Circuit:
    """A two-qubit structure fixed by ``tag``: every qubit is used, no pair twice in a row."""
    rng = random.Random(f"base/{tag}")
    order = list(range(num_qubits))
    rng.shuffle(order)
    pairs = [tuple(order[i : i + 2]) for i in range(0, num_qubits - 1, 2)]
    if num_qubits % 2:
        pairs.append((order[-1], order[0]))
    while len(pairs) < slots:
        a, b = rng.sample(range(num_qubits), 2)
        if {a, b} != set(pairs[-1]):
            pairs.append((a, b))
    return Circuit(num_qubits, tuple(Gate("cx", p) for p in pairs[:slots]))


def routing_instance(name: str, arch: str, qubits: int, slots: int, n: int, noisy: bool) -> MaxSatInstance:
    """The whole-circuit instance of one routing shape, with seeded fidelities when ``noisy``."""
    g = load_arch(arch)
    noise = None
    if noisy:
        rng = random.Random(f"noise/{name}")
        noise = NoiseModel({e: round(rng.uniform(0.95, 0.995), 4) for e in g.sorted_edges()}, {})
    return encode(fixed_circuit(qubits, slots, name), g, EncodeOptions(n=n, weighted=noise))


def dense_instance(rng: random.Random, num_vars: int) -> MaxSatInstance:
    """Four hard clauses of 2-5 literals per variable, and soft units on half the variables."""
    b = InstanceBuilder()
    vs = b.new_vars(num_vars)
    for _ in range(4 * num_vars):
        size = rng.choice((2, 3, 3, 3, 4, 5))
        b.add_hard([v if rng.random() < 0.5 else -v for v in rng.sample(vs, size)])
    for v in rng.sample(vs, num_vars // 2):
        b.add_soft([v if rng.random() < 0.5 else -v], rng.randint(1, 6))
    return b.build()


ROUTING_SHAPES = [  # the global rows of the exact-small benchmark, and one Tokyo row
    ("line4-8s", "line:4", 4, 8, 1, False),
    ("line4-10s", "line:4", 4, 10, 1, False),
    ("line4-n2", "line:4", 4, 6, 2, False),
    ("line4-ndiam", "line:4", 4, 4, 3, False),
    ("line5-5s", "line:5", 5, 5, 1, False),
    ("line6-5s", "line:6", 5, 5, 1, False),
    ("cycle4-10s", "cycle:4", 4, 10, 1, False),
    ("cycle4-ndiam", "cycle:4", 4, 6, 2, False),
    ("cycle6-5s", "cycle:6", 5, 5, 1, False),
    ("grid3x3-6s", "grid:3x3", 4, 6, 1, False),
    ("line4-noise", "line:4", 4, 6, 1, True),
    ("cycle4-noise", "cycle:4", 4, 6, 1, True),
    ("rand8x10-global", "tokyo", 8, 10, 1, False),
    # Its branch and bound runs 8,509 conflicts, past three learned-clause
    # reductions (at 2,000, 4,300 and 6,900).
    ("grid3x3-10s", "grid:3x3", 5, 10, 1, False),
]

TRAJECTORIES = {
    "line4-8s": ("optimal", 115, 79, 2211, (4, 2), 2, "4ec903ea3f093e8d"),
    "line4-10s": ("optimal", 173, 153, 4504, (3,), 3, "ae3a9b01e8b49093"),
    "line4-n2": ("optimal", 22, 7, 531, (0,), 0, "a43e5c24117b0c0a"),
    "line4-ndiam": ("optimal", 85, 50, 3371, (4, 2, 1), 1, "20bdfc3db46b036e"),
    "line5-5s": ("optimal", 132, 87, 3273, (2, 1), 1, "b2a42bfe5caa5877"),
    "line6-5s": ("optimal", 40, 6, 435, (0,), 0, "e6e4f0fb4cb3868f"),
    "cycle4-10s": ("optimal", 197, 130, 3983, (3, 2), 2, "4da5806c804fd1cb"),
    "cycle4-ndiam": ("optimal", 33, 11, 833, (1,), 1, "b1a1d295611c0782"),
    "cycle6-5s": ("optimal", 43, 7, 449, (0,), 0, "4d895b4cfcbba56d"),
    "grid3x3-6s": ("optimal", 762, 411, 13771, (5, 4, 3, 1), 1, "6207611fe7e3e2ab"),
    "line4-noise": ("optimal", 226, 208, 4918, (325, 312, 233, 151, 111), 111, "1ce784325010b511"),
    "cycle4-noise": ("optimal", 508, 461, 10359, (120, 114, 109, 90, 80), 80, "8ed988b0987350cc"),
    "rand8x10-global": ("optimal", 5833, 1068, 218385, (4, 3, 2, 1), 1, "72ac98214be54d0e"),
    "grid3x3-10s": ("optimal", 10771, 8522, 607770, (7, 6, 5, 4, 3, 2), 2, "1cc8112c91e69330"),
    "random-0": ("optimal", 11, 3, 20, (5, 2), 2, "be58233c8b1c33d2"),
    "random-1": ("optimal", 6, 3, 24, (10,), 10, "056f49b3e64b3989"),
    "random-2": ("optimal", 27, 5, 32, (9, 5, 4), 4, "45b43ab125e4eb02"),
    "random-3": ("optimal", 9, 0, 9, (0,), 0, "5c977a92059534e0"),
    "random-4": ("optimal", 5, 3, 12, (11, 5), 5, "5de16aef7fb69854"),
    "random-5": ("optimal", 9, 3, 20, (13, 2), 2, "24843325d0697969"),
    "random-6": ("optimal", 10, 0, 12, (0,), 0, "dd46c3eebb1884ff"),
    "random-7": ("hard_unsat", 0, 0, 0, (), 1, None),
    "random-8": ("optimal", 6, 2, 16, (7,), 7, "eabb5779c31cd4c0"),
    "random-9": ("optimal", 4, 4, 14, (4,), 4, "1a21c5c68e74f8db"),
    "random-10": ("hard_unsat", 0, 2, 8, (), 6, None),
    "random-11": ("optimal", 7, 0, 9, (0,), 0, "cd7ec3e14233dbce"),
    "dense-0": ("optimal", 90, 42, 737, (33, 30, 28), 28, "ed8ba9aaa51cf3c1"),
    "dense-1": ("hard_unsat", 4, 4, 56, (), 1, None),
    "dense-2": ("hard_unsat", 54, 41, 917, (), 1, None),
    "dense-3": ("optimal", 125, 67, 1452, (49, 46, 40, 39), 39, "b35407ba50392d38"),
    "dense-4": ("hard_unsat", 14, 13, 290, (), 1, None),
    "dense-5": ("optimal", 818, 470, 13544, (79, 75, 73, 72, 71, 70, 63, 57, 56, 53, 52), 52, "165122e7ea84859a"),
}


def trajectory_instances():
    for shape in ROUTING_SHAPES:
        yield shape[0], routing_instance(*shape)
    rng = random.Random(2110)
    for i in range(12):
        yield f"random-{i}", random_instance(rng, rng.randint(6, 14))
    for i in range(6):
        yield f"dense-{i}", dense_instance(rng, 50 + 10 * i)


@pytest.fixture(params=["python", "c"])
def search(request):
    """Each search kernel."""
    if request.param == "c" and kernel.load() is None:
        pytest.skip("no compiled kernel: no C compiler, or no usable cache")
    return {"python": maxsat._search_python, "c": maxsat._search_c}[request.param]


def test_search_trajectory_is_pinned(search, monkeypatch):
    monkeypatch.setattr(maxsat, "_search", search)
    got = {}
    for name, inst in trajectory_instances():
        out = solve_builtin(inst)
        digest = None if out.model is None else hashlib.sha256(bytes(out.model.values)).hexdigest()[:16]
        weights = tuple(w for _, w in out.incumbents)
        got[name] = (out.status.value, out.decisions, out.conflicts, out.propagations, weights, out.lower_bound, digest)
        if out.model is not None:
            assert inst.hard_satisfied(out.model)
    assert got == TRAJECTORIES


def test_kernels_agree_call_by_call():
    # solve_builtin's two calls made directly, the second even after a
    # probe that found a model: each must give the same outcome and leave
    # the same saved polarities in both kernels.
    if kernel.load() is None:
        pytest.skip("no compiled kernel: no C compiler, or no usable cache")
    for name, inst in trajectory_instances():
        least = min(w for _, w in inst.soft)
        runs = []
        for search in (maxsat._search_python, maxsat._search_c):
            polarity = bytearray(inst.num_vars + 1)
            probe = search(inst, least, None, 0, polarity, time.monotonic())
            after_probe = bytes(polarity)
            lower = least if probe.status is SolveStatus.HARD_UNSAT else 0
            bnb = search(inst, inst.soft_weight_total + 1, None, lower, polarity, time.monotonic())
            runs.append([(out.status, out.decisions, out.conflicts, out.propagations,
                          tuple(w for _, w in out.incumbents), out.lower_bound, out.model) for out in (probe, bnb)]
                        + [after_probe, bytes(polarity)])
        assert runs[0] == runs[1], name


def test_probe_verdict_is_logged(caplog):
    b = InstanceBuilder()
    a, bb, c = b.new_vars(3)
    b.add_hard([-a, -bb])
    b.add_soft([a, c], 1)
    b.add_soft([bb], 1)
    zero_cost = b.build()
    b = InstanceBuilder()
    e = escaped_pigeonhole(b)
    b.add_soft([-e], 1)
    b.add_soft([e], 1)
    refuted = b.build()
    b = InstanceBuilder()
    pigeonhole_hard(b, 12, 11)
    b.add_soft([b.new_var()], 1)
    stopped = b.build()
    verdicts = []
    for inst, budget in ((zero_cost, None), (refuted, None), (stopped, 0.2)):
        caplog.clear()
        with caplog.at_level("INFO", logger="swaproute.maxsat"):
            solve_builtin(inst, budget)
        verdicts += [r.getMessage() for r in caplog.records if r.getMessage().startswith("probe ")]
    assert len(verdicts) == 3
    assert re.fullmatch(r"probe found a zero-cost model \(\d+ conflicts, [\d.]+ s\)", verdicts[0])
    assert re.fullmatch(r"probe refuted: lower bound 1 \(\d+ conflicts, [\d.]+ s\)", verdicts[1])
    assert re.fullmatch(r"probe stopped at its share of the budget \(\d+ conflicts, [\d.]+ s\)", verdicts[2])


def test_search_keeps_its_state_in_fast_locals():
    # A closure over the search's state would turn it into cell variables,
    # which every access in the hot loop then pays for.
    assert maxsat._search_python.__code__.co_cellvars == ()


def test_an_empty_hard_clause_is_refused_before_searching(search):
    # An instance refuses an empty clause when it is built, so the faulty
    # arena is put in behind the check.
    inst = MaxSatInstance(2, HardClauses([1, 0, 2, 0], 2), ())
    object.__setattr__(inst, "hard", HardClauses([1, 0, 0], 2))
    with pytest.raises(ValueError, match="empty hard clause"):
        search(inst, 1, None, 0, bytearray(3), time.monotonic())


# -- instances and the builder -------------------------------------------------


@pytest.mark.parametrize("lit", [0, 3, -3])
@pytest.mark.parametrize("side", ["hard", "soft"])
def test_instance_rejects_literal_out_of_range(side, lit):
    hard, soft = [(1, -2)], [((2,), 1)]
    if side == "hard":
        hard.append((1, lit))
    else:
        soft.append(((-1, lit), 2))
    with pytest.raises(ValueError, match=re.escape(f"literal {lit} out of range (num_vars=2)")):
        MaxSatInstance(2, tuple(hard), tuple(soft))


def test_instance_rejects_zero_soft_weight():
    with pytest.raises(ValueError, match=re.escape("soft weight must be >= 1, got 0")):
        MaxSatInstance(2, ((1, 2),), (((1,), 3), ((2,), 0)))


def test_instance_names_the_first_fault_in_clause_order():
    # hard clauses before soft ones; within a soft clause, literals before its weight
    with pytest.raises(ValueError, match=re.escape("literal 5 out of range")):
        MaxSatInstance(2, ((1,), (2, 5)), (((7,), 0),))
    with pytest.raises(ValueError, match=re.escape("literal 7 out of range")):
        MaxSatInstance(2, ((1,),), (((7,), 0),))
    with pytest.raises(ValueError, match=re.escape("got 0")):
        MaxSatInstance(2, ((1,),), (((2,), 0), ((7,), 1)))


def test_instance_rejects_empty_clause():
    # An empty clause can be neither written as a WCNF line nor watched by
    # the solver, so an instance never holds one: not as a tuple, and not
    # in an arena, where it is a 0 that opens the arena or follows a 0.
    for lits, count in (([1, 2, 0, 0], 2), ([0, 1, 0], 2), ([0], 1)):
        with pytest.raises(ValueError, match="empty clause"):
            MaxSatInstance(2, HardClauses(lits, count), ())
    with pytest.raises(ValueError, match="empty clause"):
        MaxSatInstance(2, ((1, 2), ()), ())
    with pytest.raises(ValueError, match="empty clause"):
        MaxSatInstance(2, ((1,),), (((), 1),))


def test_hard_is_a_view_of_the_clause_arena():
    b = InstanceBuilder()
    b.new_vars(4)
    b.add_hard([1, -2])
    b.exactly_one([3, 4])
    b.add_hard([-4])
    hard = b.build().hard
    clauses = ((1, -2), (3, 4), (-3, -4), (-4,))
    assert hard.lits == [1, -2, 0, 3, 4, 0, -3, -4, 0, -4, 0]
    assert len(hard) == 4 and bool(hard)
    assert tuple(hard) == clauses and list(hard) == list(clauses)
    assert hard == clauses and clauses == hard and hard == list(clauses)
    assert hard != clauses[:3] and hard != (*clauses[:3], (4,)) and hard != "abcd"
    assert hard == HardClauses.of(clauses) and hash(hard) == hash(clauses)
    assert len(MaxSatInstance(4, (), ()).hard) == 0


def test_an_instance_of_clause_tuples_equals_the_built_one():
    rng = random.Random("tuples-or-builder")
    for _ in range(50):
        b = InstanceBuilder()
        b.new_vars(9)
        for _ in range(rng.randint(0, 12)):
            b.add_hard([v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 10), rng.randint(1, 4))])
        b.add_soft([rng.randint(1, 9)], rng.randint(1, 5))
        built = b.build()
        again = MaxSatInstance(9, tuple(built.hard), built.soft)
        assert again == built and again.hard.lits == built.hard.lits
        assert (again.max_var, len(again.hard)) == (built.max_var, len(built.hard))


@pytest.fixture(scope="module")
def qaoa8_tokyo():
    inst = encode(generate_qaoa_maxcut(8, 1, 7), load_arch("tokyo"), EncodeOptions(n=1))
    model = solve_builtin(inst, budget=5.0).model  # any model of the hard clauses will do
    return inst, model


@pytest.mark.parametrize("which", ["first", "straddling", "last"])
def test_hard_satisfied_finds_the_one_falsified_clause(qaoa8_tokyo, which):
    # The re-check reads the arena one item at a time.  The QAOA-8 Tokyo
    # instance with one clause's signs turned so that a satisfying model
    # falsifies that clause alone, at the arena's start, across item 4,096
    # or last, keeps its layout and is refused.
    inst, model = qaoa8_tokyo
    clauses = list(inst.hard)
    starts = list(itertools.accumulate((len(c) + 1 for c in clauses), initial=0))
    at = {
        "first": 0,
        "straddling": next(i for i, s in enumerate(starts) if s < 4096 <= s + len(clauses[i])),
        "last": len(clauses) - 1,
    }[which]
    clauses[at] = tuple(-lit if model.holds(lit) else lit for lit in clauses[at])
    turned = MaxSatInstance(inst.num_vars, clauses, inst.soft)
    assert turned.hard.lits[starts[at]:starts[at + 1]] == [*clauses[at], 0]
    assert [c for c in turned.hard if not any(model.holds(lit) for lit in c)] == [clauses[at]]
    assert inst.hard_satisfied(model) and not turned.hard_satisfied(model)


def reference_at_most_one(builder: InstanceBuilder, lits):
    """One normalized clause per pair, one pair at a time."""
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            builder.add_hard([-lits[i], -lits[j]])


def pair_clauses(add, lits, num_vars=8):
    b = InstanceBuilder()
    b.new_vars(num_vars)
    add(b, lits)
    return b.build().hard


def test_at_most_one_pairwise_matches_one_clause_per_pair():
    rng = random.Random("at-most-one")
    for _ in range(300):
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 9), rng.randint(0, 8))]
        want = pair_clauses(reference_at_most_one, lits)
        assert pair_clauses(InstanceBuilder.at_most_one_pairwise, lits) == want
        if lits:
            exactly = pair_clauses(InstanceBuilder.exactly_one, lits)
            assert exactly == (make_clause(lits), *want)
    # repeated variables: a repeated literal's pair is a unit, a variable
    # in both polarities is a tautology, a 0 is no literal
    assert pair_clauses(InstanceBuilder.at_most_one_pairwise, [3, 3]) == ((-3,),)
    assert pair_clauses(InstanceBuilder.at_most_one_pairwise, [1, 2, 1]) == ((-1, -2), (-1,), (-2, -1))
    assert pair_clauses(InstanceBuilder.exactly_one, [4, 4]) == ((4,), (-4,))
    with pytest.raises(ValueError, match="tautological"):
        pair_clauses(InstanceBuilder.at_most_one_pairwise, [3, -3])
    with pytest.raises(ValueError, match="0 is not a literal"):
        pair_clauses(InstanceBuilder.at_most_one_pairwise, [0, 1])
    with pytest.raises(ValueError, match="empty set"):
        pair_clauses(InstanceBuilder.exactly_one, [])


def test_new_vars_continues_the_numbering():
    b = InstanceBuilder()
    assert b.new_var() == 1
    assert b.new_vars(3) == [2, 3, 4]
    assert b.new_vars(0) == [] and b.num_vars == 4
    assert b.new_var() == 5


# -- WCNF ---------------------------------------------------------------------


def test_emit_wcnf_exact_format():
    b = InstanceBuilder()
    v1, v2 = b.new_var(), b.new_var()
    b.add_hard([v1, -v2])
    b.add_soft([v2], 3)
    assert emit_wcnf(b.build()) == "p wcnf 2 2 4\n4 1 -2 0\n3 2 0\n"


def test_emit_wcnf_empty_soft_top_is_one():
    b = InstanceBuilder()
    v = b.new_var()
    b.add_hard([v])
    assert emit_wcnf(b.build()).startswith("p wcnf 1 1 1\n")


def reference_emit_wcnf(instance: MaxSatInstance) -> str:
    """One formatted line per clause."""
    top = 1 + instance.soft_weight_total
    lines = [f"p wcnf {instance.num_vars} {len(instance.hard) + len(instance.soft)} {top}"]
    lines += [f"{top} {' '.join(map(str, c))} 0" for c in instance.hard]
    lines += [f"{w} {' '.join(map(str, c))} 0" for c, w in instance.soft]
    return "\n".join(lines) + "\n"


def clause_runs(rng: random.Random, num_vars: int, max_width: int) -> list[tuple[int, ...]]:
    """Runs of clauses of one width each, widths interleaved, signs mixed."""
    clauses = []
    for _ in range(rng.randint(1, 6)):
        width = rng.randint(1, min(max_width, num_vars))
        for _ in range(rng.randint(1, 5)):
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), width)))
    return clauses


def test_emit_wcnf_matches_one_line_per_clause():
    rng = random.Random("emit-wcnf")
    cases = []
    for i in range(200):
        num_vars = rng.randint(6, 40)
        hard = () if i % 10 == 1 else tuple(clause_runs(rng, num_vars, 6))
        soft = () if i % 10 == 0 else tuple((c, rng.randint(1, 50)) for c in clause_runs(rng, num_vars, 4))
        cases.append(MaxSatInstance(num_vars, hard, soft))
    # Boundaries: literals +num_vars and -num_vars, a declared num_vars
    # above every literal used, and a unit clause first and last.
    cases += [
        MaxSatInstance(9, ((9, -3), (-9,)), (((-9,), 4), ((9, 1), 2))),
        MaxSatInstance(40, ((1, -2), (3,)), (((-3,), 1),)),
        MaxSatInstance(5, ((-5,), (1, 2, -3), (4,)), ()),
        MaxSatInstance(3, ((-3,),), ()),
        MaxSatInstance(12, (), (((12,), 7),)),
    ]
    for inst in cases:
        text = emit_wcnf(inst)
        assert text == reference_emit_wcnf(inst)
        again = parse_wcnf(text)
        assert (again.num_vars, again.hard, again.soft) == (inst.num_vars, inst.hard, inst.soft)


def test_emit_wcnf_sizes_its_table_by_the_variables_in_use():
    # A header may declare far more variables than the clauses use; the
    # writer keeps the declared count in its header but builds its text
    # table only over the variables in use.
    text = "p wcnf 500000 1 2\n2 1 -2 0\n"
    inst = parse_wcnf(text)
    assert (inst.num_vars, inst.max_var, inst.hard) == (500000, 2, ((1, -2),))
    tracemalloc.start()
    try:
        out = emit_wcnf(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == reference_emit_wcnf(inst) == "p wcnf 500000 1 1\n1 1 -2 0\n"
    again = parse_wcnf(out)
    assert (again.num_vars, again.hard, again.soft) == (inst.num_vars, inst.hard, inst.soft)
    assert peak < 64 * 1024


@pytest.mark.parametrize("chunk", [3, maxsat.WCNF_CHUNK])
def test_wcnf_chunks_are_bounded_and_join_to_the_text(monkeypatch, chunk):
    # A hard piece is the text of ``chunk`` items of the clause arena
    # (literals and closing 0s), a soft piece ``chunk`` lines.  Piece
    # boundaries fall before, on and after each multiple of the piece size,
    # inside and between lines, on the hard and the soft side, either side
    # empty.
    monkeypatch.setattr(maxsat, "WCNF_CHUNK", chunk)
    rng = random.Random("wcnf-chunks")
    for hard_count in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk):
        for soft_count in (0, 1, chunk, chunk + 1):
            if not hard_count + soft_count:
                continue
            hard = tuple(tuple(rng.sample(range(-9, 0), 2)) + (rng.randint(1, 9),) for _ in range(hard_count))
            soft = tuple(((rng.choice((-1, 1)) * rng.randint(1, 9),), rng.randint(1, 5)) for _ in range(soft_count))
            inst = MaxSatInstance(9, hard, soft)
            pieces = list(maxsat.wcnf_chunks(inst))
            assert "".join(pieces) == emit_wcnf(inst) == reference_emit_wcnf(inst)
            hard_pieces = -(-4 * hard_count // chunk)  # three literals and a 0 per clause
            # each item's text ends in one space, but for the last 0
            assert all(piece.count(" ") <= chunk for piece in pieces[1 : 1 + hard_pieces])
            assert all(piece.count("\n") <= chunk for piece in pieces[1 + hard_pieces :])
            assert len(pieces) == 1 + hard_pieces + -(-soft_count // chunk)


def test_external_solver_reads_the_streamed_wcnf(tmp_path, monkeypatch):
    # The temporary file is written piece by piece from wcnf_chunks, never
    # as one whole text, and holds every clause line of the instance.
    monkeypatch.setattr(maxsat, "WCNF_CHUNK", 2)
    written = []

    def spy(instance):
        for piece in chunks(instance):
            written.append(piece)
            yield piece

    def whole(instance):
        raise AssertionError("the whole text was built")

    chunks = maxsat.wcnf_chunks
    monkeypatch.setattr(maxsat, "wcnf_chunks", spy)
    monkeypatch.setattr(maxsat, "emit_wcnf", whole)
    inst = conjunctive_soft_instance()
    copy = tmp_path / "seen.wcnf"
    out = solve_external(inst, f"{sys.executable} {STUB} copy {{wcnf}} {copy}")
    assert out.status is SolveStatus.OPTIMAL
    assert out.falsified_weight == solve_builtin(inst).falsified_weight
    assert len(written) > 2
    assert copy.read_bytes() == "".join(written).encode() == reference_emit_wcnf(inst).encode()


def test_wcnf_round_trip_preserves_optimum():
    rng = random.Random(11)
    for _ in range(50):
        inst = random_instance(rng, rng.randint(2, 9))
        again = parse_wcnf(emit_wcnf(inst))
        a, b = solve_builtin(inst), solve_builtin(again)
        assert a.status == b.status
        assert a.falsified_weight == b.falsified_weight


def test_parse_wcnf_new_format():
    inst = parse_wcnf("c comment\nh 1 2 0\n3 -1 0\n")
    assert inst.num_vars == 2
    assert inst.hard == ((1, 2),)
    assert inst.soft == (((-1,), 3),)


def test_parse_wcnf_normalizes_foreign_clauses():
    # files produced elsewhere may carry duplicate literals or tautologies
    inst = parse_wcnf("p wcnf 2 4 9\n9 1 1 -2 0\n9 1 -1 0\n3 2 2 0\n2 -2 2 0\n")
    assert inst.hard == ((1, -2),)
    assert inst.soft == (((2,), 3),)
    assert solve_builtin(inst).status is SolveStatus.OPTIMAL


def test_parse_wcnf_rejects_garbage():
    with pytest.raises(SolverOutputError):
        parse_wcnf("p wcnf nope\n")
    with pytest.raises(SolverOutputError):
        parse_wcnf("p wcnf 2 1 5\n5 1 2\n")  # no trailing 0
    for weight in ("0", "-3"):
        with pytest.raises(SolverOutputError, match=f"{weight} 1 2 0"):
            parse_wcnf(f"p wcnf 2 2 5\n5 1 0\n{weight} 1 2 0\n")


# -- external solver ----------------------------------------------------------


def test_external_matches_builtin():
    rng = random.Random(5)
    for mode in ("ok", "binary"):
        inst = random_instance(rng, 7)
        while solve_builtin(inst).status is not SolveStatus.OPTIMAL:
            inst = random_instance(rng, 7)
        ext = solve_external(inst, stub_cmd(mode))
        ours = solve_builtin(inst)
        assert ext.status is SolveStatus.OPTIMAL
        assert ext.falsified_weight == ours.falsified_weight
        assert inst.hard_satisfied(ext.model)


def test_external_weighted_example():
    b = InstanceBuilder()
    a, bb = b.new_var(), b.new_var()
    b.add_hard([a, bb])
    b.add_soft([-a], 5)
    b.add_soft([-bb], 1)
    inst = b.build()
    ext = solve_external(inst, stub_cmd("ok"))
    assert ext.falsified_weight == solve_builtin(inst).falsified_weight == 1


def test_external_unsat_status():
    inst = conjunctive_soft_instance()
    out = solve_external(inst, stub_cmd("unsat"))
    assert out.status is SolveStatus.HARD_UNSAT


def test_external_killed_at_budget_is_unknown():
    inst = conjunctive_soft_instance()
    out = solve_external(inst, stub_cmd("sleep"), budget=0.5)
    assert out.status is SolveStatus.UNKNOWN


def test_external_bogus_model_rejected():
    b = InstanceBuilder()
    v = b.new_var()
    b.add_hard([v])
    with pytest.raises(SolverIntegrityError):
        solve_external(b.build(), stub_cmd("bogus"))


def test_external_silent_output_rejected():
    inst = conjunctive_soft_instance()
    with pytest.raises(SolverOutputError):
        solve_external(inst, stub_cmd("silent"))


def test_external_requires_placeholder():
    inst = conjunctive_soft_instance()
    with pytest.raises(SolverOutputError, match="placeholder"):
        solve_external(inst, "solver --fast")
