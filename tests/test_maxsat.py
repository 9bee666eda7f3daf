import itertools
import random
import sys
from pathlib import Path

import pytest

from swaproute.cnf import InstanceBuilder, MaxSatInstance, Model
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


def random_instance(rng: random.Random, num_vars: int) -> MaxSatInstance:
    b = InstanceBuilder()
    vs = b.new_vars(num_vars)
    for _ in range(rng.randint(1, 2 * num_vars)):
        size = rng.randint(1, min(3, num_vars))
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(vs, size)]
        b.add_hard(lits)
    for _ in range(rng.randint(1, num_vars)):
        size = rng.randint(1, min(2, num_vars))
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(vs, size)]
        b.add_soft(lits, rng.randint(1, 6))
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


def test_builtin_weighted_matches_exhaustive_enumeration():
    # Improving on a first incumbent is what drives bound conflicts, so
    # enough instances must get past their first model.
    rng = random.Random(2024)
    improved = 0
    for _ in range(400):
        inst = random_instance(rng, rng.randint(1, 12))
        expected = exhaustive_optimum(inst)
        out = solve_builtin(inst)
        if expected is None:
            assert out.status is SolveStatus.HARD_UNSAT
            continue
        assert out.status is SolveStatus.OPTIMAL
        assert out.falsified_weight == expected == inst.falsified_weight(out.model)
        assert inst.hard_satisfied(out.model)
        improved += len(out.incumbents) >= 2
    assert improved >= 40


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
        expected = all(any(model.holds(lit) for lit in clause) for clause in inst.hard)
        assert inst.hard_satisfied(model) is expected
        verdicts.add(expected)
    assert verdicts == {True, False}


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


def test_budget_with_incumbent_is_satisfiable_bound():
    # Every pigeonhole clause is weakened by an escape literal, so setting
    # the escape variable satisfies everything at soft cost 5; proving that
    # nothing cheaper exists would mean refuting the pigeonhole core, which
    # cannot happen within the budget.
    b = InstanceBuilder()
    e = b.new_var()
    x = [[b.new_var() for _ in range(11)] for _ in range(12)]
    for p in range(12):
        b.add_hard([e, *x[p]])
    for h in range(11):
        for p1 in range(12):
            for p2 in range(p1 + 1, 12):
                b.add_hard([e, -x[p1][h], -x[p2][h]])
    b.add_soft([-e], 5)
    b.add_soft([e], 1)
    inst = b.build()
    out = solve_builtin(inst, budget=0.3)
    assert out.status is SolveStatus.SATISFIABLE_BOUND
    assert inst.hard_satisfied(out.model)
    assert out.falsified_weight == 5  # the escape-hatch incumbent
    assert out.incumbents[-1][1] == 5


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
