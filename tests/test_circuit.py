import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swaproute.circuit import (
    Circuit,
    Gate,
    emit_qasm,
    generate_qaoa_maxcut,
    parse_qasm,
    random_regular_graph,
    slice_circuit,
)
from swaproute.errors import QasmError


def test_parse_minimal():
    c = parse_qasm("qreg q[2]; cx q[0],q[1];")
    assert c.num_logical == 2
    assert [g.name for g in c.gates] == ["cx"]
    assert c.gates[0].operands == (0, 1)
    assert c.slots == (0,)


def test_slots_are_two_qubit_positions():
    c = parse_qasm("qreg q[4]; cx q[0],q[1]; h q[2]; cx q[0],q[2]; cx q[0],q[3];")
    assert c.slots == (0, 2, 3)


def test_duplicate_operands_rejected():
    with pytest.raises(QasmError, match="duplicate"):
        parse_qasm("qreg q[2]; cx q[0],q[0];")


def test_three_operand_gate_rejected():
    with pytest.raises(QasmError, match="operands"):
        parse_qasm("qreg q[3]; ccx q[0],q[1],q[2];")


def test_operand_out_of_range():
    with pytest.raises(QasmError, match="out of range"):
        parse_qasm("qreg q[2]; h q[5];")


def test_unknown_register():
    with pytest.raises(QasmError, match="unknown quantum register"):
        parse_qasm("qreg q[2]; h r[0];")


def test_syntax_error_carries_position():
    with pytest.raises(QasmError) as err:
        parse_qasm("qreg q[2];\nh q[;\n")
    assert err.value.line == 2
    # a register size or an index that is not an integer
    for text, line, col in [("qreg q[2.5];\n", 1, 8), ("qreg q[2];\ncx q[0],q[1.0];\n", 2, 11)]:
        with pytest.raises(QasmError, match="expected an integer") as err:
            parse_qasm(text)
        assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize(
    "statement, col",
    [
        ("rz(1 2) q[0];", 6),  # leftover tokens
        ("rz(pi pi) q[0];", 7),
        ("rz(,) q[0];", 4),  # empty arguments
        ("rz(1,,2) q[0];", 6),
        ("cx q[0],q[1],;", 14),  # trailing comma
        ("rz(1e) q[0];", 4),  # malformed numbers
        ("rz(1.2.3) q[0];", 4),
        ("rz(-) q[0];", 5),
        ("rz(1/0) q[0];", 5),  # division by zero
        ("rz(1e400) q[0];", 4),  # values that are not finite
        ("rz(1e300*1e300) q[0];", 9),
        pytest.param("rz(" + "-" * 5000 + "1) q[0];", 1, id="nested-past-the-recursion-limit"),
    ],
)
def test_malformed_statement_is_a_positioned_error(statement, col):
    with pytest.raises(QasmError) as err:
        parse_qasm(f"qreg q[2];\n{statement}\n")
    assert (err.value.line, err.value.col) == (2, col)


def test_multiple_qregs_flatten_in_order():
    c = parse_qasm("qreg a[2]; qreg b[3]; cx a[1],b[0]; h b[2];")
    assert c.num_logical == 5
    assert c.gates[0].operands == (1, 2)
    assert c.gates[1].operands == (4,)


def test_classical_statements_dropped_with_warning(caplog):
    text = """
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[2];
    creg c[2];
    cx q[0],q[1];
    barrier q[0],q[1];
    measure q[0] -> c[0];
    """
    with caplog.at_level(logging.WARNING):
        c = parse_qasm(text)
    assert [g.name for g in c.gates] == ["cx"]
    joined = " ".join(rec.message for rec in caplog.records)
    assert "creg" in joined and "barrier" in joined and "measure" in joined


def test_parameter_expressions():
    c = parse_qasm("qreg q[1]; rz(pi/2) q[0]; u3(0.1,-0.2,3e-1) q[0]; rx(-pi) q[0]; rz() q[0];")
    assert c.gates[0].params == (math.pi / 2,)
    assert c.gates[1].params == (0.1, -0.2, 0.3)
    assert c.gates[2].params == (-math.pi,)
    assert c.gates[3].params == ()


def test_emit_passthrough_cx():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    assert "cx q[0],q[1];" in emit_qasm(c)


def test_emit_decomposes_swap_to_three_cnots():
    c = Circuit(2, (Gate("swap", (0, 1)),))
    text = emit_qasm(c, decompose_swaps=True)
    lines = [ln for ln in text.splitlines() if ln.startswith("cx")]
    assert lines == ["cx q[0],q[1];", "cx q[1],q[0];", "cx q[0],q[1];"]
    assert "swap" not in text


def test_round_trip_qaoa():
    c = generate_qaoa_maxcut(6, 2, 1)
    again = parse_qasm(emit_qasm(c))
    assert again.num_logical == c.num_logical
    assert len(again.gates) == len(c.gates)
    for a, b in zip(again.gates, c.gates):
        assert (a.name, a.operands) == (b.name, b.operands)
        assert a.params == pytest.approx(b.params)


def test_round_trip_preserves_counts():
    c = parse_qasm("qreg q[3]; h q[0]; cx q[0],q[1]; t q[2]; swap q[1],q[2];")
    again = parse_qasm(emit_qasm(c))
    assert [(g.name, g.operands) for g in again.gates] == [(g.name, g.operands) for g in c.gates]


gate_names_1q = st.sampled_from(["h", "t", "x", "rz", "u2"])
gate_names_2q = st.sampled_from(["cx", "cz", "swap", "rzz"])
# every finite float: negative, subnormal, large, and any repr (1e-05, 1.5e+300, -0.0)
finite_params = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3).map(tuple)


@st.composite
def circuits(draw):
    n = draw(st.integers(2, 6))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            gates.append(Gate(draw(gate_names_1q), (draw(st.integers(0, n - 1)),), draw(finite_params)))
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1).filter(lambda x: x != a))
            gates.append(Gate(draw(gate_names_2q), (a, b), draw(finite_params)))
    return Circuit(n, tuple(gates))


@given(c=circuits())
@settings(max_examples=80, deadline=None)
def test_qasm_round_trip_property(c):
    again = parse_qasm(emit_qasm(c))
    assert again == c
    # bit-equal, which == on floats is not (0.0 == -0.0)
    assert [[p.hex() for p in g.params] for g in again.gates] == [[p.hex() for p in g.params] for g in c.gates]


# -- slicing ---------------------------------------------------------------


def _slots_per_slice(slices):
    return [len(s.slots) for s in slices]


def test_slice_partition_sizes():
    gates = tuple(Gate("cx", ((i % 3), (i % 3 + 1))) for i in range(7))
    c = Circuit(4, gates)
    assert _slots_per_slice(slice_circuit(c, 3)) == [3, 3, 1]


def test_slice_empty_circuit():
    assert slice_circuit(Circuit(2, (Gate("h", (0,)),)), 5) == []
    assert slice_circuit(Circuit(0, ()), 1) == []


def test_one_qubit_gates_attach_forward():
    c = parse_qasm("qreg q[3]; cx q[0],q[1]; h q[2]; cx q[0],q[2]; cx q[1],q[2]; t q[0]; cx q[0],q[1];")
    s1, s2 = slice_circuit(c, 2)
    assert [g.name for g in s1.gates] == ["cx", "h", "cx"]
    assert [g.name for g in s2.gates] == ["cx", "t", "cx"]
    assert len(s1.slots) == len(s2.slots) == 2


def test_trailing_one_qubit_gates_attach_to_last_slice():
    c = parse_qasm("qreg q[2]; cx q[0],q[1]; h q[0]; h q[1];")
    (only,) = slice_circuit(c, 4)
    assert [g.name for g in only.gates] == ["cx", "h", "h"]


@given(
    num_logical=st.integers(2, 5),
    slice_size=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_slicing_concatenation_is_identity(num_logical, slice_size, seed):
    import random

    from conftest import random_circuit

    c = random_circuit(random.Random(seed), num_logical, random.Random(seed + 1).randint(1, 8))
    slices = slice_circuit(c, slice_size)
    rebuilt = tuple(g for s in slices for g in s.gates)
    assert rebuilt == c.gates
    for s in slices[:-1]:
        assert len(s.slots) == slice_size
    assert 1 <= len(slices[-1].slots) <= slice_size


def test_slots_strictly_increasing_two_qubit_only():
    c = parse_qasm("qreg q[3]; h q[0]; cx q[0],q[1]; t q[1]; cx q[1],q[2];")
    assert list(c.slots) == sorted(c.slots)
    assert all(c.gates[i].is_two_qubit for i in c.slots)
    assert all(not g.is_two_qubit for i, g in enumerate(c.gates) if i not in c.slots)


# -- QAOA generation -------------------------------------------------------


def test_qaoa_k4_has_twelve_slots():
    c = generate_qaoa_maxcut(4, 1, 0)
    assert len(c.slots) == 12  # K4: 6 edges, 2 CNOTs each


def test_qaoa_six_qubits_two_cycles():
    c = generate_qaoa_maxcut(6, 2, 5)
    assert len(c.slots) == 36  # 9 edges per block, 2 blocks


def test_qaoa_deterministic():
    a = generate_qaoa_maxcut(6, 2, 42)
    b = generate_qaoa_maxcut(6, 2, 42)
    assert a == b


def test_qaoa_cycles_repeat_the_block_pattern():
    one = generate_qaoa_maxcut(6, 1, 9)
    three = generate_qaoa_maxcut(6, 3, 9)
    pattern = [(g.name, g.operands) for g in one.gates]
    full = [(g.name, g.operands) for g in three.gates]
    assert full == pattern * 3


def test_qaoa_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_qaoa_maxcut(5, 1, 0)
    with pytest.raises(ValueError):
        generate_qaoa_maxcut(2, 1, 0)


def test_regular_graph_is_3_regular():
    for n, seed in [(4, 0), (6, 3), (8, 17)]:
        edges = random_regular_graph(n, seed)
        assert len(edges) == 3 * n // 2
        degree = [0] * n
        for u, v in edges:
            assert u != v
            degree[u] += 1
            degree[v] += 1
        assert all(d == 3 for d in degree)
