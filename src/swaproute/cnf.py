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
one, else in Python here (:func:`_arena_top`).  Both passes give the same
verdict, and on a fault the same Python clause-by-clause pass names it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain, combinations, repeat
from operator import eq, index, itemgetter, not_
from typing import Iterable, Iterator, Sequence

from . import kernel

Clause = tuple[int, ...]

PIECE = 4096  # about this many literals per piece of a pass over an arena


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

    def pieces(self) -> Iterator[list[int]]:
        """The arena in slices of whole clauses, each of at least
        :data:`PIECE` literals (the last may be shorter) and at most
        :data:`PIECE` plus the widest clause."""
        lits = self.lits
        index = lits.index
        start, end = 0, len(lits)
        while start < end:
            stop = index(0, min(start + PIECE, end) - 1) + 1
            yield lits[start:stop]
            start = stop


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
        hard = clauses = self.hard
        if not isinstance(hard, HardClauses):
            clauses = tuple(clauses)
            hard = HardClauses.of(clauses)
            object.__setattr__(self, "hard", hard)
        object.__setattr__(self, "soft", tuple(self.soft))
        # One pass over the arena (see _arena_top) and the set of soft
        # literals find whether anything is wrong.  Only on a fault does the
        # clause-by-clause check run, to name the first fault in clause order.
        nv = self.num_vars
        lits = hard.lits
        if not isinstance(lits, list):
            raise TypeError(f"the hard clause arena must be a list, not {type(lits).__name__}")
        top = _arena_top(lits, hard.count, nv)
        soft_lits = set(chain.from_iterable(c for c, _ in self.soft))
        max_var = max(top or 0, max(soft_lits), -min(soft_lits)) if soft_lits else top or 0
        object.__setattr__(self, "max_var", max_var)
        in_range = max_var <= nv and 0 not in soft_lits
        non_empty = all(c for c, _ in self.soft)
        if not (top is not None and in_range and non_empty and all(w >= 1 for _, w in self.soft)):
            for clause in clauses if clauses is not hard else _split(lits):
                self._check(clause)
            for clause, weight in self.soft:
                self._check(clause)
                if weight < 1:
                    raise ValueError(f"soft weight must be >= 1, got {weight}")
            # Every clause is sound, so the arena's 0s disagree with its
            # count, or its last clause is not closed.
            zeros = sum(1 for lit in lits if _is_zero(lit))
            if zeros > hard.count:
                raise ValueError(f"literal 0 out of range (num_vars={nv})")
            if lits and not _is_zero(lits[-1]):
                raise ValueError("the last hard clause is not closed by a 0")
            raise ValueError(f"{hard.count} hard clauses, {zeros} closed by a 0")

    def _check(self, clause: Clause):
        if not clause:
            raise ValueError("empty clause")
        for lit in clause:
            try:
                var = abs(index(lit))
            except TypeError:
                raise TypeError(f"literal {lit!r} is not an int") from None
            if not 1 <= var <= self.num_vars:
                raise ValueError(f"literal {lit} out of range (num_vars={self.num_vars})")

    @property
    def soft_weight_total(self) -> int:
        return sum(w for _, w in self.soft)

    def hard_satisfied(self, model: Model) -> bool:
        """True when every hard clause has a literal that holds under ``model``.

        Reads every clause, a piece of whole clauses at a time: each item
        becomes one byte, 1 for a literal that holds, 0 for one that does
        not, 2 for a clause's closing 0, after a 2 that opens the piece.
        With the 0 bytes deleted, a falsified clause leaves its 2 right
        after another 2.  A variable the model does not cover holds in
        neither polarity.
        """
        nv = self.num_vars
        vals = model.values[1 : nv + 1]
        pad = (0,) * (nv - len(vals))
        truth = [2, *vals, *pad, *pad, *map(not_, reversed(vals))]  # -v lands on the negative index
        for piece in self.hard.pieces():
            if b"\2\2" in bytes(itemgetter(0, *piece)(truth)).translate(None, b"\0"):
                return False
        return True

    def falsified_weight(self, model: Model) -> int:
        return sum(w for clause, w in self.soft if not any(model.holds(lit) for lit in clause))


def _arena_top(lits: list, count: int, nv: int) -> int | None:
    """The largest variable that the arena ``lits`` of ``count`` hard
    clauses over variables 1..nv uses (0 when there is no clause), or None
    when something is wrong: an item that is not an int in -nv..nv, a
    clause that is empty or not closed by a 0, or a count that disagrees
    with the 0s.

    The compiled kernel walks the list in place when this process has
    one; otherwise the set of items and one lookup per item give the
    same verdict.
    """
    lib = kernel.load()
    if lib is not None and 0 <= count <= sys.maxsize and 0 <= nv <= sys.maxsize:  # C longs
        top = lib.sr_check(lits, len(lits), count, nv)
        return None if top < 0 else top
    if not lits:
        return 0 if count == 0 else None
    try:
        used = set(lits)
        top = max(max(used), -min(used))
        if top > nv:
            return None
        # Each item becomes one byte, 0 for a closing 0 and 1 for a literal
        # (an item that is not an int fails the lookup).  A piece opens with
        # the byte of the item before it, a 0 before the first, so an empty
        # clause shows as a 0 right after a 0.
        ends = [0, *repeat(1, 2 * top)]
        zeros = 0
        for i in range(0, len(lits), PIECE):
            piece = bytes(itemgetter(*(lits[i - 1 : i + PIECE] if i else [0, *lits[:PIECE]]))(ends))
            if b"\0\0" in piece:
                return None
            zeros += piece.count(0, 1)
    except (TypeError, IndexError):
        return None
    return top if zeros == count and not piece[-1] else None


def _is_zero(item) -> bool:
    """True for an int item that is 0, a clause's closing 0."""
    try:
        return index(item) == 0
    except TypeError:
        return False


def _split(lits: list) -> Iterator[tuple]:
    """Each run of items closed by a 0, whatever the arena's count says,
    and the unclosed run at its end, if any."""
    start = 0
    for stop in [i for i, item in enumerate(lits) if _is_zero(item)]:
        yield tuple(lits[start:stop])
        start = stop + 1
    if start < len(lits):
        yield tuple(lits[start:])


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
