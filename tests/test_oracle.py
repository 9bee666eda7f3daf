import pytest

from swaproute.arch import load_arch
from swaproute.circuit import Circuit, Gate
from swaproute.errors import OracleLimitError, UnroutableError
from swaproute.oracle import brute_force_oracle
from swaproute.solution import QubitMap
from swaproute.verifier import verify_solution

LINE2 = load_arch("line:2")
LINE3 = load_arch("line:3")
LINE4 = load_arch("line:4")


def test_single_gate_needs_nothing():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    count, witness = brute_force_oracle(c, LINE2, 1)
    assert count == 0
    assert witness.swap_count == 0
    assert verify_solution(c, witness, LINE2).ok


def test_three_gate_line4_golden_value():
    c = Circuit(4, (Gate("cx", (0, 1)), Gate("cx", (0, 2)), Gate("cx", (0, 3))))
    count, witness = brute_force_oracle(c, LINE4, 1)
    assert count == 1
    assert witness.swap_count == 1
    assert verify_solution(c, witness, LINE4).ok


def test_forced_initial_map():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    count, witness = brute_force_oracle(c, LINE3, 1, initial_map=QubitMap((0, 2)))
    assert count == 1
    assert witness.initial_map == QubitMap((0, 2))
    assert verify_solution(c, witness, LINE3).ok


def test_unroutable_under_swap_cap():
    c = Circuit(4, (Gate("cx", (0, 3)),))
    with pytest.raises(UnroutableError):
        brute_force_oracle(c, LINE4, 1, initial_map=QubitMap((0, 1, 2, 3)))


def test_more_active_than_physical():
    c = Circuit(4, (Gate("cx", (0, 1)), Gate("cx", (2, 3))))
    with pytest.raises(UnroutableError):
        brute_force_oracle(c, LINE3, 1)


@pytest.mark.parametrize(
    "gates",
    [(Gate("h", (0,)), Gate("x", (3,))), (Gate("cx", (0, 1)), Gate("cx", (2, 3)))],
    ids=["no-slots", "slots"],
)
def test_more_logical_than_physical_with_idle_qubits(gates):
    # qubit 4 is idle, but it still needs a place of its own
    with pytest.raises(UnroutableError, match="5 logical qubits but only 4 physical"):
        brute_force_oracle(Circuit(5, gates), LINE4, 1)


def test_search_space_ceiling():
    c = Circuit(8, tuple(Gate("cx", (i, i + 1)) for i in range(7)))
    with pytest.raises(OracleLimitError):
        brute_force_oracle(c, load_arch("tokyo"), 1)


def test_witness_is_deterministic():
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 2))))
    a = brute_force_oracle(c, LINE3, 1)
    b = brute_force_oracle(c, LINE3, 1)
    assert a[0] == b[0] == 1
    assert a[1] == b[1]


def test_no_slots_is_free():
    c = Circuit(3, (Gate("h", (0,)), Gate("t", (2,))))
    count, witness = brute_force_oracle(c, LINE3, 1)
    assert count == 0 and len(witness.swaps) == 0


def test_one_qubit_gates_do_not_change_cost():
    bare = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (0, 2))))
    dressed = Circuit(3, (Gate("h", (2,)), Gate("cx", (0, 1)), Gate("t", (0,)), Gate("cx", (0, 2))))
    assert brute_force_oracle(bare, LINE3, 2)[0] == brute_force_oracle(dressed, LINE3, 2)[0]
