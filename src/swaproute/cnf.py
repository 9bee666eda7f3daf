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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, repeat
from operator import eq, itemgetter, not_
from typing import Iterable, Iterator, Sequence

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
        # Two passes over the arena at C speed, neither of which builds
        # anything per item, find whether anything is wrong: the set of
        # literals in use gives the range, and the 0s must number the
        # clauses, so a literal 0 shows as one 0 too many.  An empty clause
        # is refused where clauses come in as tuples; the arena's writers
        # (the builder's methods, the encoder, the parser) open every clause
        # with a literal.  Only on a fault does the clause-by-clause check
        # run, to name the first fault in clause order.
        nv = self.num_vars
        lits = hard.lits
        used = set(lits)
        zeros = lits.count(0)
        soft_lits = set(chain.from_iterable(c for c, _ in self.soft))
        used |= soft_lits
        max_var = max(max(used), -min(used)) if used else 0
        object.__setattr__(self, "max_var", max_var)
        arena_ok = zeros == hard.count and (not lits or lits[-1] == 0) and (clauses is hard or all(clauses))
        in_range = max_var <= nv and 0 not in soft_lits
        non_empty = all(c for c, _ in self.soft)
        if not (arena_ok and in_range and non_empty and all(w >= 1 for _, w in self.soft)):
            for clause in clauses if clauses is not hard else _split(lits):
                self._check(clause)
            for clause, weight in self.soft:
                self._check(clause)
                if weight < 1:
                    raise ValueError(f"soft weight must be >= 1, got {weight}")
            # Every clause is sound, so the arena's 0s disagree with its count.
            raise ValueError(f"literal 0 out of range (num_vars={nv})" if zeros > hard.count
                             else f"{hard.count} hard clauses, {zeros} closed by a 0")

    def _check(self, clause: Clause):
        if not clause:
            raise ValueError("empty clause")
        for lit in clause:
            if not 1 <= abs(lit) <= self.num_vars:
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


def _split(lits: list[int]) -> Iterator[Clause]:
    """Each run of literals closed by a 0, whatever the arena's count says."""
    start = 0
    for stop in [i for i, lit in enumerate(lits) if lit == 0]:
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
        # ``hard_count``; ``build`` rejects a literal out of range and a
        # count that disagrees with the 0s (a literal 0 is one 0 too many),
        # and hands the list to the instance, so a builder builds once.
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

    def extend_hard_raw(self, clauses: Iterable[Clause]):
        """Append pre-normalized clauses in order; the caller guarantees
        each is a tuple with no duplicate or complementary literals.
        ``build`` rejects an empty one."""
        hard = self.hard
        for clause in clauses:
            hard += clause or (0,)  # an empty clause as a literal 0, which ``build`` refuses
            hard.append(0)
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
