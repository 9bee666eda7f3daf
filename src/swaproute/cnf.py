"""CNF plumbing: clauses, weighted instances, and a small builder.

Clauses are tuples of non-zero signed integers in the usual DIMACS
convention (positive literal = variable true).  A weighted instance
keeps hard clauses, weighted soft clauses, and optionally the layout of
its variables: for an instance built by the encoder, the rows of ids
that say which placement or swap choice each variable stands for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Sequence

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

    ``max_var`` is the largest variable that some clause uses (0 when
    none does); a parsed header may declare more than that.
    """

    num_vars: int
    hard: tuple[Clause, ...]
    soft: tuple[tuple[Clause, int], ...]
    layout: "object | None" = None  # encoder.Layout when built by the encoder; None when parsed
    max_var: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "hard", tuple(self.hard))
        object.__setattr__(self, "soft", tuple(self.soft))
        # One pass over every literal at C speed finds whether anything is
        # wrong; only then does the clause-by-clause check run, to name the
        # first fault in clause order.
        nv = self.num_vars
        lits = set(chain.from_iterable(self.hard))
        lits.update(chain.from_iterable(c for c, _ in self.soft))
        max_var = max(max(lits), -min(lits)) if lits else 0
        object.__setattr__(self, "max_var", max_var)
        in_range = 0 not in lits and max_var <= nv
        non_empty = all(self.hard) and all(c for c, _ in self.soft)
        if not (in_range and non_empty and all(w >= 1 for _, w in self.soft)):
            for clause in self.hard:
                self._check(clause)
            for clause, weight in self.soft:
                self._check(clause)
                if weight < 1:
                    raise ValueError(f"soft weight must be >= 1, got {weight}")

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
        """True when every hard clause has a literal that holds under ``model``."""
        true = {v if value else -v for v, value in enumerate(model.values) if v}
        return not any(map(true.isdisjoint, self.hard))

    def falsified_weight(self, model: Model) -> int:
        return sum(w for clause, w in self.soft if not any(model.holds(lit) for lit in clause))


class InstanceBuilder:
    """Incrementally builds a :class:`MaxSatInstance`."""

    def __init__(self):
        self._num_vars = 0
        self._hard: list[Clause] = []
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
        self._hard.append(make_clause(lits))

    def extend_hard_raw(self, clauses: Iterable[Clause]):
        """Append pre-normalized clauses in order; the caller guarantees
        each is a tuple with no duplicate or complementary literals.
        ``build`` rejects an empty one."""
        self._hard.extend(clauses)

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
            self._hard.extend(combinations([-lit for lit in lits], 2))
            return
        for a, b in combinations(lits, 2):
            self.add_hard([-a, -b])

    def exactly_one(self, lits: Sequence[int]):
        if not lits:
            raise ValueError("exactly_one over an empty set")
        self.add_hard(lits)
        self.at_most_one_pairwise(lits)

    def build(self, layout=None) -> MaxSatInstance:
        return MaxSatInstance(self._num_vars, tuple(self._hard), tuple(self._soft), layout)
