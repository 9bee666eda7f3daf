"""CNF plumbing: clauses, weighted instances, and a small builder.

A clause is a tuple of non-zero signed integers in the usual DIMACS
convention (positive literal = variable true).  An instance keeps its
hard clauses in one flat list of literals, each clause closed by a 0,
as a DIMACS file writes them (one arena for every clause, as in MiniSat;
Eén & Sörensson, SAT 2003), so a device-scale instance is one object, not
one tuple per clause.  Its weighted soft clauses stay (clause, weight)
pairs.  An instance built by the encoder also carries the layout of its
variables: the rows of ids that say which placement or swap choice each
variable stands for.

Every new instance checks its arena in one pass: in the compiled kernel
(``_kernel.c``, loaded by :mod:`swaproute.kernel`) when the process has
one, else in Python here (:func:`_arena_top`).  Both read the list one
item at a time and give the same verdict, and on a fault the Python pass
names the first one in arena order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain, combinations, repeat
from operator import eq, index, not_
from typing import Iterable, Iterator, Sequence

from . import kernel

Clause = tuple[int, ...]


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
    """Hard clauses stored as one flat list of literals, each clause closed by a 0.

    A read-only view of the clauses: ``len()`` is the clause count,
    iteration yields each clause as a tuple, and ``==`` compares clause by
    clause with any sequence of clauses.  ``lits`` is the arena itself,
    never changed once an instance holds it; ``count`` is the number of
    clauses its writer wrote, which an instance checks against the 0s.
    """

    __slots__ = ("lits", "count")

    def __init__(self, lits: list[int], count: int):
        self.lits = lits
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
        if self.num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {self.num_vars}")
        hard = self.hard
        if not isinstance(hard, HardClauses):
            clauses = tuple(hard)
            for clause in clauses:
                self._check(clause)
            hard = HardClauses.of(clauses)
            object.__setattr__(self, "hard", hard)
        object.__setattr__(self, "soft", tuple(self.soft))
        lits = hard.lits
        if not isinstance(lits, list):
            raise TypeError(f"the hard clause arena must be a list, not {type(lits).__name__}")
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
        top = 0
        for item in clause:
            lit = _literal(item, self.num_vars)
            if not lit:
                raise ValueError(f"literal {item} out of range (num_vars={self.num_vars})")
            top = max(top, abs(lit))
        return top

    @property
    def soft_weight_total(self) -> int:
        return sum(w for _, w in self.soft)

    def hard_satisfied(self, model: Model) -> bool:
        """True when every hard clause has a literal that holds under ``model``.

        Reads the arena one item at a time, as the compiled kernel's passes
        do: a clause's closing 0 that comes before any of its literals held
        is a falsified clause.  A variable the model does not cover holds
        in neither polarity.
        """
        nv = self.num_vars
        vals = model.values[1 : nv + 1]
        pad = (False,) * (nv - len(vals))
        truth = [False, *vals, *pad, *pad, *map(not_, reversed(vals))]  # -v lands on the negative index
        held = False
        for lit in self.hard.lits:
            if lit:
                held = held or truth[lit]
            elif held:
                held = False
            else:
                return False
        return True

    def falsified_weight(self, model: Model) -> int:
        return sum(w for clause, w in self.soft if not any(model.holds(lit) for lit in clause))


def _literal(item, nv: int) -> int:
    """``item`` as an int in -nv..nv (0 included); raises TypeError or
    ValueError naming it otherwise."""
    try:
        lit = index(item)
    except TypeError:
        raise TypeError(f"literal {item!r} is not an int") from None
    if not -nv <= lit <= nv:
        raise ValueError(f"literal {item} out of range (num_vars={nv})")
    return lit


def _arena_top(lits: list, count: int, nv: int) -> int:
    """The largest variable that the arena ``lits`` of ``count`` hard
    clauses over variables 1..nv uses (0 when there is no clause).

    Raises TypeError or ValueError for the first fault in arena order: an
    item that is not an int in -nv..nv, or a clause that is empty; then,
    after the last item, a count that disagrees with the 0s or a last
    clause not closed by a 0.  The compiled kernel checks the list in place
    when this process has one; the Python pass below, the same loop, runs
    otherwise and to name a fault the kernel found.
    """
    lib = kernel.load()
    if lib is not None and 0 <= count <= sys.maxsize and 0 <= nv <= sys.maxsize:  # C longs
        top = lib.sr_check(lits, len(lits), count, nv)
        if top >= 0:
            return top
    top = zeros = 0
    closed = True  # no clause is open
    for lit in lits:
        if lit.__class__ is not int:
            lit = _literal(lit, nv)
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
        # The hard clauses, each clause's literals and then a 0, and their
        # number.  A caller may write pre-normalized clauses into ``hard``
        # directly, each opening with a literal, and add their number to
        # ``hard_count``; ``build`` rejects a literal out of range, an empty
        # clause and a count that disagrees with the 0s (a literal 0 is one
        # 0 too many), and hands the list to the instance, so a builder
        # builds once.
        self.hard: list[int] = []
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
        self.hard += make_clause(lits)
        self.hard.append(0)
        self.hard_count += 1

    def add_soft(self, lits: Iterable[int], weight: int):
        if weight == 0:
            return  # zero-weight clauses carry no objective and are dropped
        if weight < 0:
            raise ValueError("soft weights must be positive")
        self._soft.append((make_clause(lits), weight))

    def add_soft_formula(self, clauses: Sequence[Iterable[int]], weight: int) -> int:
        """Add a conjunction of clauses as one soft formula.

        A fresh selector variable s is constrained by hard clauses
        s -> clause for each clause, and {s} becomes the soft unit, so
        satisfying the soft unit is exactly satisfying the formula.
        Returns the selector.
        """
        s = self.new_var()
        for clause in clauses:
            self.add_hard([-s, *clause])
        self.add_soft([s], weight)
        return s

    # -- exactly-one encodings ------------------------------------------------

    def at_most_one_pairwise(self, lits: Sequence[int]):
        """One clause (-a, -b) per pair, in pair order.  A repeated
        variable makes a pair's clause a unit or a tautology, so only
        literals over distinct variables skip :func:`make_clause`."""
        variables = set(map(abs, lits))
        if len(variables) == len(lits) and 0 not in variables:
            hard = self.hard
            for a, b in combinations([-lit for lit in lits], 2):
                hard += (a, b, 0)
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
        hard, self.hard = self.hard, None  # the instance owns the list now
        return MaxSatInstance(self._num_vars, HardClauses(hard, self.hard_count), tuple(self._soft), layout)
