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

    def __len__(self) -> int:
        return len(self.gates)


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

_SYMBOLS = {"[", "]", "(", ")", ",", ";", "{", "}", "+", "-", "*", "/", "->"}


def _tokenize(text: str):
    """Yield (kind, value, line, col) tokens; kind in {id, num, str, sym}."""
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("id", text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                j += 1
                if j < n and text[j] in "+-":
                    j += 1
                while j < n and text[j].isdigit():
                    j += 1
            yield ("num", text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise QasmError("unterminated string", start_line, start_col)
            yield ("str", text[i : j + 1], start_line, start_col)
            col += j + 1 - i
            i = j + 1
            continue
        if text.startswith("->", i):
            yield ("sym", "->", start_line, start_col)
            i += 2
            col += 2
            continue
        if ch in _SYMBOLS:
            yield ("sym", ch, start_line, start_col)
            i += 1
            col += 1
            continue
        raise QasmError(f"unexpected character {ch!r}", start_line, start_col)


class _Params:
    """Recursive-descent evaluator for constant parameter expressions."""

    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise QasmError("unexpected end of parameter expression")
        self.pos += 1
        return tok

    def expr(self) -> float:
        value = self.term()
        while (tok := self._peek()) is not None and tok[1] in ("+", "-"):
            self._next()
            rhs = self.term()
            value = value + rhs if tok[1] == "+" else value - rhs
        return value

    def term(self) -> float:
        value = self.factor()
        while (tok := self._peek()) is not None and tok[1] in ("*", "/"):
            self._next()
            rhs = self.factor()
            value = value * rhs if tok[1] == "*" else value / rhs
        return value

    def factor(self) -> float:
        kind, value, ln, cl = self._next()
        if kind == "sym" and value == "-":
            return -self.factor()
        if kind == "sym" and value == "+":
            return self.factor()
        if kind == "sym" and value == "(":
            inner = self.expr()
            tok = self._next()
            if tok[1] != ")":
                raise QasmError("expected ')'", tok[2], tok[3])
            return inner
        if kind == "num":
            return float(value)
        if kind == "id" and value == "pi":
            return math.pi
        raise QasmError(f"bad parameter token {value!r}", ln, cl)


def parse_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 program into a :class:`Circuit`.

    The accepted subset is: the version header, ``include`` lines, one
    or more ``qreg`` declarations, and gate applications on indexed
    register operands.  ``creg``, ``measure``, ``barrier`` and ``reset``
    statements are accepted and dropped with a warning, since they do
    not affect mapping and routing.  Multiple quantum registers are
    flattened into one logical index space in declaration order.
    """
    tokens = list(_tokenize(text))
    regs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
    total = 0
    gates: list[Gate] = []
    pos = 0

    def statement_tokens():
        nonlocal pos
        stmt = []
        while pos < len(tokens):
            tok = tokens[pos]
            pos += 1
            if tok[:2] == ("sym", ";"):
                return stmt
            stmt.append(tok)
        if stmt:
            raise QasmError("missing ';' at end of input", stmt[0][2], stmt[0][3])
        return None

    def integer(tok) -> int:
        try:
            return int(tok[1])
        except ValueError:
            raise QasmError(f"expected an integer, got {tok[1]!r}", tok[2], tok[3]) from None

    def parse_operand(stmt, at):
        if at >= len(stmt) or stmt[at][0] != "id":
            tok = stmt[min(at, len(stmt) - 1)]
            raise QasmError("expected register operand", tok[2], tok[3])
        name = stmt[at][1]
        ln, cl = stmt[at][2], stmt[at][3]
        if at + 3 >= len(stmt) or stmt[at + 1][1] != "[" or stmt[at + 2][0] != "num" or stmt[at + 3][1] != "]":
            raise QasmError(f"operand {name!r} must be indexed, e.g. {name}[0]", ln, cl)
        idx = integer(stmt[at + 2])
        if name not in regs:
            raise QasmError(f"unknown quantum register {name!r}", ln, cl)
        offset, size = regs[name]
        if idx >= size:
            raise QasmError(f"index {idx} out of range for {name}[{size}]", ln, cl)
        return offset + idx, at + 4

    while (stmt := statement_tokens()) is not None:
        if not stmt:
            continue
        kind, word, ln, cl = stmt[0]
        if kind != "id":
            raise QasmError(f"unexpected token {word!r}", ln, cl)
        if word == "OPENQASM":
            continue
        if word == "include":
            continue
        if word in ("qreg", "creg"):
            if len(stmt) != 5 or stmt[1][0] != "id" or stmt[2][1] != "[" or stmt[3][0] != "num" or stmt[4][1] != "]":
                raise QasmError(f"malformed {word} declaration", ln, cl)
            name, size = stmt[1][1], integer(stmt[3])
            if word == "creg":
                logger.warning("line %d: dropping creg %s[%d] (classical state is ignored)", ln, name, size)
                continue
            if name in regs:
                raise QasmError(f"duplicate register {name!r}", ln, cl)
            regs[name] = (total, size)
            total += size
            continue
        if word == "barrier":
            logger.warning("line %d: dropping barrier (no effect on routing)", ln)
            continue
        if word == "measure":
            logger.warning("line %d: dropping measure (classical state is ignored)", ln)
            continue
        if word == "reset":
            logger.warning("line %d: dropping reset (no effect on routing)", ln)
            continue
        if word == "gate" or word == "opaque" or word == "if":
            raise QasmError(f"{word!r} statements are not supported", ln, cl)

        # Gate application: name [(params)] operand {, operand}
        at = 1
        params: tuple[float, ...] = ()
        if at < len(stmt) and stmt[at][1] == "(":
            depth, j = 1, at + 1
            while j < len(stmt) and depth:
                if stmt[j][1] == "(":
                    depth += 1
                elif stmt[j][1] == ")":
                    depth -= 1
                j += 1
            if depth:
                raise QasmError("unbalanced '(' in parameter list", ln, cl)
            inner = stmt[at + 1 : j - 1]
            groups: list[list[tuple]] = [[]]
            pdepth = 0
            for tok in inner:
                if tok[1] == "(":
                    pdepth += 1
                elif tok[1] == ")":
                    pdepth -= 1
                if tok[1] == "," and pdepth == 0:
                    groups.append([])
                else:
                    groups[-1].append(tok)
            params = tuple(_Params(g).expr() for g in groups if g)
            at = j
        operands = []
        while at < len(stmt):
            q, at = parse_operand(stmt, at)
            operands.append(q)
            if at < len(stmt):
                if stmt[at][1] != ",":
                    raise QasmError("expected ',' between operands", stmt[at][2], stmt[at][3])
                at += 1
        if not operands:
            raise QasmError(f"gate {word!r} has no operands", ln, cl)
        if len(operands) > 2:
            raise QasmError(f"gate {word!r} has {len(operands)} operands; only 1- and 2-qubit gates are supported", ln, cl)
        if len(operands) == 2 and operands[0] == operands[1]:
            raise QasmError(f"gate {word!r} has duplicate operands", ln, cl)
        gates.append(Gate(word, tuple(operands), params))

    return Circuit(total, tuple(gates))


def emit_qasm(circuit: Circuit, decompose_swaps: bool = False, *, register: str = "q", comments: list[str] | None = None) -> str:
    """Serialize a circuit to OpenQASM 2.0.

    With ``decompose_swaps`` every ``swap a,b`` is written as the
    equivalent three-CNOT sequence ``cx a,b; cx b,a; cx a,b``.
    """
    num = circuit.num_logical
    lines = []
    for c in comments or ():
        lines.append(f"// {c}")
    lines += ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg {register}[{num}];"]
    for g in circuit.gates:
        ops = ",".join(f"{register}[{q}]" for q in g.operands)
        if g.name == "swap" and decompose_swaps:
            a, b = g.operands
            lines.append(f"cx {register}[{a}],{register}[{b}];")
            lines.append(f"cx {register}[{b}],{register}[{a}];")
            lines.append(f"cx {register}[{a}],{register}[{b}];")
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
