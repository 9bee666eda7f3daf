"""Quantum circuit representation at the level routing needs.

A circuit is an ordered list of one- and two-qubit gates over logical
qubits.  Routing only ever reasons about the two-qubit gates: their
positions are the circuit's "slots", the points where swaps may be
inserted and the logical-to-physical map may change.  One-qubit gates
ride along and are re-emitted on whatever physical qubit their logical
qubit occupies at the time.
"""

from __future__ import annotations

import logging
import math
import random
import re
from dataclasses import dataclass, field

from .errors import QasmError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Gate:
    """A single gate application: a name, optional real parameters, and
    one or two logical qubit operands."""

    name: str
    operands: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.operands) not in (1, 2):
            raise ValueError(f"gate {self.name!r} must have 1 or 2 operands, got {len(self.operands)}")
        if len(self.operands) == 2 and self.operands[0] == self.operands[1]:
            raise ValueError(f"gate {self.name!r} has duplicate operands {self.operands}")

    @property
    def is_two_qubit(self) -> bool:
        return len(self.operands) == 2


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence over ``num_logical`` logical qubits.

    ``slots`` is derived: the indices (into ``gates``) of the two-qubit
    gates, in order.  Slot k (1-based elsewhere in the pipeline) is the
    k-th two-qubit gate; swaps are only ever inserted before slots.
    """

    num_logical: int
    gates: tuple[Gate, ...]
    slots: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.num_logical < 0:
            raise ValueError("num_logical must be non-negative")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for q in g.operands:
                if not 0 <= q < self.num_logical:
                    raise ValueError(f"operand {q} out of range for {self.num_logical} logical qubits")
        slots = tuple(i for i, g in enumerate(self.gates) if g.is_two_qubit)
        object.__setattr__(self, "slots", slots)

    @property
    def slot_gates(self) -> tuple[Gate, ...]:
        """The two-qubit gates, in slot order."""
        return tuple(self.gates[i] for i in self.slots)


def slice_circuit(circuit: Circuit, slice_size: int) -> list[Circuit]:
    """Partition a circuit into slices of at most ``slice_size`` slots,
    each a circuit over the same logical qubits.

    Each one-qubit gate is attached to the slice of the nearest
    *following* two-qubit gate, so it executes under the map in force
    after the swaps preceding that slot; one-qubit gates after the last
    slot attach to the final slice.  Concatenating the slices in order
    reproduces the original gate sequence.  A circuit with no two-qubit
    gates yields no slices.
    """
    if slice_size < 1:
        raise ValueError("slice_size must be >= 1")
    num_slots = len(circuit.slots)
    if num_slots == 0:
        return []
    per_slice: list[list[Gate]] = [[] for _ in range(0, num_slots, slice_size)]
    slot_idx = 0
    pending: list[Gate] = []
    for g in circuit.gates:
        if g.is_two_qubit:
            dest = slot_idx // slice_size
            per_slice[dest].extend(pending)
            per_slice[dest].append(g)
            pending.clear()
            slot_idx += 1
        else:
            pending.append(g)
    per_slice[-1].extend(pending)
    return [Circuit(circuit.num_logical, tuple(gs)) for gs in per_slice]


# ---------------------------------------------------------------------------
# OpenQASM 2.0 subset
# ---------------------------------------------------------------------------

# A number takes every digit, '.' and exponent character in a row, so a
# malformed one such as 1.2.3 or 1e is one token that the parser rejects.
_TOKEN = re.compile(
    r"""(?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<num>\.?[0-9][0-9.]*(?:[eE][+-]?[0-9]*)?)
      | (?P<str>"[^"]*")
      | (?P<skip>[ \t\r]+|//.*)
      | (?P<sym>->|[\[\](),;{}+\-*/])
      | (?P<bad>.)""",
    re.VERBOSE,
)


def _tokenize(text: str):
    """Yield (kind, value, line, col) tokens; kind in {id, num, str, sym}."""
    for line, chars in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(chars):
            kind = m.lastgroup
            if kind != "skip":
                value, col = m.group(), m.start() + 1
                if kind == "bad":
                    raise QasmError("unterminated string" if value == '"' else f"unexpected character {value!r}", line, col)
                yield kind, value, line, col


class _Cursor:
    """Reads a program's tokens one statement at a time.

    Declarations, parameter lists and operand lists are all read through
    ``take``/``expect`` and the ``expr``/``term``/``factor`` descent over
    constant expressions, so every error names the token it stopped at.
    """

    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        """The next token's text, or None at the end of input."""
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) else None

    def take(self) -> tuple:
        if self.pos == len(self.tokens):
            raise QasmError("missing ';' at end of input", *self.tokens[-1][2:])
        self.pos += 1
        return self.tokens[self.pos - 1]

    def accept(self, value: str) -> bool:
        """Take the next token if it is ``value``."""
        if self.peek() != value:
            return False
        self.pos += 1
        return True

    def expect(self, value: str):
        tok = self.take()
        if tok[1] != value:
            raise QasmError(f"expected {value!r}, got {tok[1]!r}", tok[2], tok[3])

    def name(self, what: str) -> tuple:
        tok = self.take()
        if tok[0] != "id":
            raise QasmError(f"expected {what}, got {tok[1]!r}", tok[2], tok[3])
        return tok

    def integer(self) -> int:
        tok = self.take()
        if not tok[1].isdigit():
            raise QasmError(f"expected an integer, got {tok[1]!r}", tok[2], tok[3])
        return int(tok[1])

    def items(self, read, close: str) -> list:
        """Zero or more ``read()`` items separated by ',', through ``close``."""
        values = [] if self.peek() == close else [read()]
        while self.accept(","):
            values.append(read())
        self.expect(close)
        return values

    def skip(self):
        """Drop the rest of the statement, through its ';'."""
        while self.take()[1] != ";":
            pass

    def expr(self) -> float:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = _finite(value + rhs if op[1] == "+" else value - rhs, op)
        return value

    def term(self) -> float:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op[1] == "/" and rhs == 0:
                raise QasmError("division by zero", op[2], op[3])
            value = _finite(value * rhs if op[1] == "*" else value / rhs, op)
        return value

    def factor(self) -> float:
        tok = kind, value, ln, cl = self.take()
        if value == "-":
            return -self.factor()
        if value == "+":
            return self.factor()
        if value == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "num":
            try:
                number = float(value)
            except ValueError:
                raise QasmError(f"malformed number {value!r}", ln, cl) from None
            return _finite(number, tok)
        if value == "pi":
            return math.pi
        raise QasmError(f"bad parameter token {value!r}", ln, cl)


def _finite(value: float, tok: tuple) -> float:
    if not math.isfinite(value):
        raise QasmError("parameter value is not finite", tok[2], tok[3])
    return value


_DROPPED = {"barrier": "no effect on routing", "measure": "classical state is ignored", "reset": "no effect on routing"}


def parse_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 program into a :class:`Circuit`.

    The accepted subset is: the version header, ``include`` lines, one
    or more ``qreg`` declarations, and gate applications on indexed
    register operands.  ``creg``, ``measure``, ``barrier`` and ``reset``
    statements are accepted and dropped with a warning, since they do
    not affect mapping and routing.  Multiple quantum registers are
    flattened into one logical index space in declaration order.
    Gate parameters are comma-separated constant expressions over
    numbers, ``pi``, ``+ - * /`` and parentheses, and must be finite.
    """
    cur = _Cursor(list(_tokenize(text)))
    regs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
    total = 0
    gates: list[Gate] = []

    def operand() -> int:
        _, name, ln, cl = cur.name("register operand")
        if not cur.accept("["):
            raise QasmError(f"operand {name!r} must be indexed, e.g. {name}[0]", ln, cl)
        idx = cur.integer()
        cur.expect("]")
        if name not in regs:
            raise QasmError(f"unknown quantum register {name!r}", ln, cl)
        offset, size = regs[name]
        if idx >= size:
            raise QasmError(f"index {idx} out of range for {name}[{size}]", ln, cl)
        return offset + idx

    while cur.peek() is not None:
        kind, word, ln, cl = cur.take()
        if word == ";":
            continue
        if kind != "id":
            raise QasmError(f"unexpected token {word!r}", ln, cl)
        if word in ("OPENQASM", "include"):
            cur.skip()
        elif word in ("qreg", "creg"):
            name = cur.name("a register name")[1]
            cur.expect("[")
            size = cur.integer()
            cur.expect("]")
            cur.expect(";")
            if word == "creg":
                logger.warning("line %d: dropping creg %s[%d] (classical state is ignored)", ln, name, size)
                continue
            if name in regs:
                raise QasmError(f"duplicate register {name!r}", ln, cl)
            regs[name] = (total, size)
            total += size
        elif word in _DROPPED:
            logger.warning("line %d: dropping %s (%s)", ln, word, _DROPPED[word])
            cur.skip()
        elif word in ("gate", "opaque", "if"):
            raise QasmError(f"{word!r} statements are not supported", ln, cl)
        else:
            try:
                params = tuple(cur.items(cur.expr, ")")) if cur.accept("(") else ()
            except RecursionError:
                raise QasmError("parameter expression nested too deeply", ln, cl) from None
            operands = cur.items(operand, ";")
            if not operands:
                raise QasmError(f"gate {word!r} has no operands", ln, cl)
            if len(operands) > 2:
                raise QasmError(f"gate {word!r} has {len(operands)} operands; only 1- and 2-qubit gates are supported", ln, cl)
            if len(operands) == 2 and operands[0] == operands[1]:
                raise QasmError(f"gate {word!r} has duplicate operands", ln, cl)
            gates.append(Gate(word, tuple(operands), params))

    return Circuit(total, tuple(gates))


def emit_qasm(circuit: Circuit, decompose_swaps: bool = False, *, comments: list[str] | None = None) -> str:
    """Serialize a circuit to OpenQASM 2.0.

    With ``decompose_swaps`` every ``swap a,b`` is written as the
    equivalent three-CNOT sequence ``cx a,b; cx b,a; cx a,b``.
    """
    num = circuit.num_logical
    lines = []
    for c in comments or ():
        lines.append(f"// {c}")
    lines += ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num}];"]
    for g in circuit.gates:
        ops = ",".join(f"q[{q}]" for q in g.operands)
        if g.name == "swap" and decompose_swaps:
            a, b = g.operands
            lines.append(f"cx q[{a}],q[{b}];")
            lines.append(f"cx q[{b}],q[{a}];")
            lines.append(f"cx q[{a}],q[{b}];")
            continue
        if g.params:
            lines.append(f"{g.name}({','.join(map(repr, g.params))}) {ops};")
        else:
            lines.append(f"{g.name} {ops};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# QAOA max-cut generator
# ---------------------------------------------------------------------------


def random_regular_graph(num_vertices: int, seed: int) -> list[tuple[int, int]]:
    """Seeded 3-regular graph on ``num_vertices`` vertices (even, >= 4).

    Uses the pairing model: three stubs per vertex are shuffled and
    paired; pairings with self-loops or repeated edges are rejected and
    redrawn, so the result is always simple and reproducible.
    """
    if num_vertices < 4 or num_vertices % 2:
        raise ValueError("a 3-regular graph needs an even vertex count >= 4")
    rng = random.Random(seed)
    want = 3 * num_vertices // 2
    while True:
        stubs = [v for v in range(num_vertices) for _ in range(3)]
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        for a, b in zip(stubs[0::2], stubs[1::2]):
            if a == b:
                break
            e = (min(a, b), max(a, b))
            if e in edges:
                break
            edges.add(e)
        else:
            if len(edges) == want:
                return sorted(edges)


def generate_qaoa_maxcut(num_qubits: int, cycles: int, graph_seed: int) -> Circuit:
    """Build a QAOA max-cut circuit for a random 3-regular graph.

    The circuit is ``cycles`` copies of one cost-plus-mixer block: for
    each graph edge (i, j) the ZZ interaction ``cx(i,j); rz(gamma) j;
    cx(i,j)``, followed by one ``rx(beta)`` per qubit.  The two-qubit
    pattern is identical across cycles; only the rotation angles vary,
    and those are irrelevant to routing.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    edges = random_regular_graph(num_qubits, graph_seed)
    angles = random.Random(f"{graph_seed}-angles")
    gates: list[Gate] = []
    for _ in range(cycles):
        gamma = angles.uniform(0.0, 3.141592653589793)
        beta = angles.uniform(0.0, 3.141592653589793)
        for i, j in edges:
            gates.append(Gate("cx", (i, j)))
            gates.append(Gate("rz", (j,), (gamma,)))
            gates.append(Gate("cx", (i, j)))
        for q in range(num_qubits):
            gates.append(Gate("rx", (q,), (beta,)))
    return Circuit(num_qubits, tuple(gates))
