"""CNF plumbing: clauses, weighted instances, and a small builder.

A clause is a tuple of non-zero signed integers in the usual DIMACS
convention (positive literal = variable true).  An instance keeps its
hard clauses in one int32 array of literals (``array('i')``), each clause
closed by a 0, as a DIMACS file writes them (one arena for every clause,
as in MiniSat; Eén & Sörensson, SAT 2003); a literal or variable count
beyond int32 is refused by name.  Its weighted soft clauses stay
(clause, weight) pairs.  An encoder's instance also carries its layout.

The passes over a whole arena -- :func:`stamp`, the check of every new
instance and the re-check of a model -- run in the compiled kernel
(``_kernel.c``, loaded by :mod:`swaproute.kernel`) on the array's buffer
when the process has one, else in Python here, with the same result; on
a fault the Python check names the first one in arena order.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, repeat
from operator import add, eq, index, not_
from typing import Iterable, Iterator, Sequence

from . import kernel

Clause = tuple[int, ...]
INT32_MAX = 2**31 - 1  # the largest variable an arena, and the compiled kernel, can hold


def make_clause(lits: Iterable[int]) -> Clause:
    """Normalize literals into a clause: dedupe, forbid empties and tautologies."""
    seen: dict[int, None] = {}
    for lit in lits:
        if lit == 0:
            raise ValueError("0 is not a literal")
        if -lit in seen:
            raise ValueError(f"tautological clause: contains both {lit} and {-lit}")
        seen.setdefault(lit, None)
    if not seen:
        raise ValueError("empty clause")
    return tuple(seen)


class HardClauses:
    """Hard clauses stored as one int32 array of literals, each clause closed by a 0.

    A read-only view of the clauses: ``len()`` is the clause count,
    iteration yields each clause as a tuple, and ``==`` compares clause by
    clause with any sequence of clauses.  ``lits`` is the arena itself, an
    ``array('i')`` made from any sequence of ints given, never changed once
    an instance holds it; ``count`` is the number of clauses its writer
    wrote, which an instance checks against the 0s.
    """

    __slots__ = ("lits", "count")

    def __init__(self, lits: "array | Sequence[int]", count: int):
        self.lits = lits if type(lits) is array and lits.typecode == "i" else _int32(lits)
        self.count = count

    @classmethod
    def of(cls, clauses: Iterable[Clause]) -> "HardClauses":
        clauses = tuple(clauses)
        return cls(list(chain.from_iterable(chain.from_iterable(zip(clauses, repeat((0,)))))), len(clauses))

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Clause]:
        lits = self.lits
        index = lits.index
        start = 0
        for _ in range(self.count):
            stop = index(0, start)
            yield tuple(lits[start:stop])
            start = stop + 1

    def __eq__(self, other) -> bool:
        if isinstance(other, HardClauses):
            return self.count == other.count and self.lits == other.lits
        try:
            return len(other) == self.count and all(map(eq, self, other))
        except TypeError:
            return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"HardClauses({tuple(self)!r})"


@dataclass(frozen=True)
class Model:
    """A total assignment; ``values[v]`` is variable v's value (index 0 unused)."""

    values: tuple[bool, ...]

    def __getitem__(self, var: int) -> bool:
        return self.values[var]

    def holds(self, lit: int) -> bool:
        return self.values[lit] if lit > 0 else not self.values[-lit]


@dataclass(frozen=True)
class MaxSatInstance:
    """Hard clauses plus weighted soft clauses over variables 1..num_vars.

    ``hard`` is a :class:`HardClauses`; any other sequence of clauses
    given for it is stored as one.  ``max_var`` is the largest variable
    that some clause uses (0 when none does); a parsed header may declare
    more than that.
    """

    num_vars: int
    hard: HardClauses
    soft: tuple[tuple[Clause, int], ...]
    layout: "object | None" = None  # encoder.Layout when built by the encoder; None when parsed
    max_var: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= (nv := self.num_vars) <= INT32_MAX:
            raise ValueError(f"num_vars must be >= 0, got {nv}" if nv < 0 else f"num_vars {nv} does not fit in int32")
        hard = self.hard
        if not isinstance(hard, HardClauses):
            clauses = tuple(hard)
            for clause in clauses:
                self._check(clause)
            hard = HardClauses.of(clauses)
            object.__setattr__(self, "hard", hard)
        object.__setattr__(self, "soft", tuple(self.soft))
        lits = hard.lits
        if type(lits) is not array or lits.typecode != "i":  # the kernel reads its buffer as C ints
            raise TypeError(f"the hard clause arena must be an array('i'), not {type(lits).__name__}")
        max_var = _arena_top(lits, hard.count, self.num_vars)
        for clause, weight in self.soft:
            max_var = max(max_var, self._check(clause))
            if weight < 1:
                raise ValueError(f"soft weight must be >= 1, got {weight}")
        object.__setattr__(self, "max_var", max_var)

    def _check(self, clause: Clause) -> int:
        """The largest variable ``clause`` uses; raises on an empty clause
        or a literal that is not an int in 1..num_vars or its negation."""
        if not clause:
            raise ValueError("empty clause")
        for lit in _int32(clause):
            if not 0 < abs(lit) <= self.num_vars:
                raise ValueError(f"literal {lit} out of range (num_vars={self.num_vars})")
        return max(map(abs, clause))

    @cached_property
    def soft_arrays(self) -> tuple[array, array]:
        """The soft clauses as the compiled search reads them, made once for
        its searches: literals as int32, each clause closed by a 0; weights as int64."""
        return array("i", [x for c, _ in self.soft for x in (*c, 0)]), array("q", [w for _, w in self.soft])

    @property
    def soft_weight_total(self) -> int:
        return sum(w for _, w in self.soft)

    def hard_satisfied(self, model: Model) -> bool:
        """True when every hard clause has a literal that holds under ``model``.

        Reads the arena one item at a time, compiled when this process can,
        else in the Python reference below: a clause's closing 0 before any
        of its literals held is falsified.  A variable the model does not
        cover holds in neither polarity."""
        lits, values = self.hard.lits, model.values
        lib = kernel.load()
        if lib is not None:
            return lib.sr_satisfied(lits.buffer_info()[0], len(lits), bytes(values), len(values)) == 1
        nv = self.num_vars
        vals = values[1 : nv + 1]
        pad = (False,) * (nv - len(vals))
        truth = [False, *vals, *pad, *pad, *map(not_, reversed(vals))]  # -v lands on the negative index
        held = False
        for lit in lits:
            if lit:
                held = held or truth[lit]
            elif held:
                held = False
            else:
                return False
        return True

    def falsified_weight(self, model: Model) -> int:
        return sum(w for clause, w in self.soft if not any(model.holds(lit) for lit in clause))


def _int32(items: Sequence) -> array:
    """``items`` as an int32 array; raises TypeError or ValueError naming
    the first item that is not an int or does not fit in int32."""
    try:
        return array("i", items)
    except (TypeError, OverflowError):
        for item in items:
            try:
                array("i", [index(item)])
            except TypeError:
                raise TypeError(f"literal {item!r} is not an int") from None
            except OverflowError:
                raise ValueError(f"literal {item} does not fit in int32") from None
        raise


def stamp(block: array, copies: int, stride: int) -> array:
    """``copies`` copies of the clause items ``block``, every literal of copy j
    moved ``j * stride`` away from 0, compiled when this process can, else in
    Python; ValueError for a negative stride or a literal out of int32."""
    lib = kernel.load()
    reach = max(copies - 1, 0) * stride
    if lib is not None and stride >= 0:
        out = block * copies
        if lib.sr_stamp(out.buffer_info()[0], len(block), copies, stride) == 0:
            return out
    elif stride >= 0 and -INT32_MAX - 1 <= min(block, default=0) - reach <= max(block, default=0) + reach <= INT32_MAX:
        # One int of 32-bit fields, each item's sign bit flipped (so >= 0),
        # moves the whole block by one addition, and no carry crosses a field.
        order, size, out = sys.byteorder, block.itemsize * len(block), array("i")
        fields = lambda items: int.from_bytes(array("I", items).tobytes(), order)
        flip = fields([2**31] * len(block))
        first = int.from_bytes(block.tobytes(), order) ^ flip
        move = stride * (fields([x > 0 for x in block]) - fields([x < 0 for x in block]))
        for j in range(copies):
            out.frombytes(((first + j * move) ^ flip).to_bytes(size, order))
        return out
    raise ValueError(f"{copies} copies {stride} apart move a literal out of int32")


def _arena_top(lits: array, count: int, nv: int) -> int:
    """The largest variable that the arena ``lits`` of ``count`` hard
    clauses over variables 1..nv uses (0 when there is no clause).

    Raises ValueError for the first fault in arena order: an item out of
    -nv..nv, or a clause that is empty; then, after the last item, a count
    that disagrees with the 0s or a last clause not closed by a 0.  The
    compiled kernel checks the buffer when this process has one; this
    Python loop runs otherwise and to name a fault the kernel found.
    """
    lib = kernel.load()
    if lib is not None and 0 <= count <= sys.maxsize:  # a C long
        top = lib.sr_check(lits.buffer_info()[0], len(lits), count, nv)
        if top >= 0:
            return top
    top = zeros = 0
    closed = True  # no clause is open
    for lit in lits:
        if lit > 0:
            if lit > top:
                if lit > nv:
                    raise ValueError(f"literal {lit} out of range (num_vars={nv})")
                top = lit
            closed = False
        elif lit:
            if -lit > top:
                if -lit > nv:
                    raise ValueError(f"literal {lit} out of range (num_vars={nv})")
                top = -lit
            closed = False
        elif closed:
            raise ValueError("empty clause")
        else:
            zeros += 1
            closed = True
    if zeros > count:
        raise ValueError(f"literal 0 out of range (num_vars={nv})")
    if not closed:
        raise ValueError("the last hard clause is not closed by a 0")
    if zeros != count:
        raise ValueError(f"{count} hard clauses, {zeros} closed by a 0")
    return top


class InstanceBuilder:
    """Incrementally builds a :class:`MaxSatInstance`."""

    def __init__(self):
        self._num_vars = 0
        # The hard clauses, each clause's literals and then a 0, in one
        # int32 array, and their number.  A caller may write pre-normalized
        # clauses into ``hard`` directly, each opening with a literal, and
        # add their number to ``hard_count``; ``build`` rejects a literal out
        # of range, an empty clause and a count that disagrees with the 0s
        # (a literal 0 is one 0 too many) and hands the array on, once.
        self.hard = array("i")
        self.hard_count = 0
        self._soft: list[tuple[Clause, int]] = []

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def new_var(self) -> int:
        self._num_vars += 1
        return self._num_vars

    def new_vars(self, count: int) -> list[int]:
        ids = list(range(self._num_vars + 1, self._num_vars + 1 + count))
        self._num_vars += len(ids)
        return ids

    def add_hard(self, lits: Iterable[int]):
        self.hard += _int32([*make_clause(lits), 0])
        self.hard_count += 1

    def add_soft(self, lits: Iterable[int], weight: int):
        if weight == 0:
            return  # zero-weight clauses carry no objective and are dropped
        if weight < 0:
            raise ValueError("soft weights must be positive")
        self._soft.append((make_clause(lits), weight))

    # -- exactly-one encodings ------------------------------------------------

    def at_most_one_pairwise(self, lits: Sequence[int]):
        """One clause (-a, -b) per pair, in pair order.  A repeated
        variable makes a pair's clause a unit or a tautology, so only
        literals over distinct variables skip :func:`make_clause`."""
        variables = set(map(abs, lits))
        if len(variables) == len(lits) and 0 not in variables:
            self.hard += _int32([*chain.from_iterable(map(add, combinations([-lit for lit in lits], 2), repeat((0,))))])
            self.hard_count += len(lits) * (len(lits) - 1) // 2
            return
        for a, b in combinations(lits, 2):
            self.add_hard([-a, -b])

    def exactly_one(self, lits: Sequence[int]):
        if not lits:
            raise ValueError("exactly_one over an empty set")
        self.add_hard(lits)
        self.at_most_one_pairwise(lits)

    def build(self, layout=None) -> MaxSatInstance:
        hard, self.hard = self.hard, None  # the instance owns the array now
        return MaxSatInstance(self._num_vars, HardClauses(hard, self.hard_count), tuple(self._soft), layout)
