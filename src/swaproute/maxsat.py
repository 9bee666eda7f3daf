"""MaxSAT solving: a built-in branch-and-bound reference solver, WCNF
interchange, and external solver invocation.

The built-in solver is conflict-driven branch and bound: clause-learning
search (first-UIP analysis, non-chronological backjumping) over the hard
clauses, with the objective enforced by *bound conflicts*.  Whenever the
falsified soft weight reaches the incumbent's, the falsified soft
clauses form a clause that every cheaper model must satisfy, and the
search learns from it exactly as from a violated hard clause.  The
same search with the bound set to the smallest soft weight first probes
for a model that falsifies nothing, the first step of an UNSAT-to-SAT
lower-bound search (Martins et al., SAT 2014).  Decisions follow a fixed
variable order; a variable in some soft clause always takes its
soft-preferred value, and every other variable takes the value it last
had (phase saving, Pipatsrisawat & Darwiche, SAT 2007), kept from the
probe into branch and bound.  Learned clauses are reduced by LBD
(Audemard & Simon, IJCAI 2009).  The solver is exact and anytime:
interrupting it at the time budget yields the best incumbent found so
far.

Each search runs in one kernel call, over its own set-up of the clauses:
in a compiled kernel (``_kernel.c``, built and loaded by
:mod:`swaproute.kernel`) when one can be built, and otherwise in Python,
decision for decision the same.  :func:`solve_builtin` alone decides
which searches run, with which bound, budget and saved values.  Scale
beyond desk size is the job of external solvers via the WCNF interface.
"""

from __future__ import annotations

import logging
import math
import shlex
import subprocess
import tempfile
import time
from array import array
from dataclasses import dataclass, replace
from enum import Enum
from operator import itemgetter, sub
from pathlib import Path
from typing import Iterator

from . import kernel
from .cnf import HardClauses, MaxSatInstance, Model
from .errors import SolverIntegrityError, SolverOutputError

logger = logging.getLogger(__name__)


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    SATISFIABLE_BOUND = "satisfiable_bound"
    HARD_UNSAT = "hard_unsat"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one solve call.

    ``falsified_weight`` is the total weight of falsified soft clauses
    under ``model`` (present whenever a model is).  The counters describe
    the search: ``propagations`` counts literals taken off the
    propagation queue, ``conflicts`` counts hard and bound conflicts, and
    ``incumbents`` lists every improving model as (seconds since the
    start, falsified weight).  ``lower_bound`` is a proven lower bound on
    the falsified weight of every model: it equals ``falsified_weight``
    when the status is optimal, and is 0 when nothing is proved.
    """

    status: SolveStatus
    model: Model | None
    falsified_weight: int | None
    elapsed: float
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    incumbents: tuple[tuple[float, int], ...] = ()
    lower_bound: int = 0

    def __post_init__(self):
        if self.status in (SolveStatus.OPTIMAL, SolveStatus.SATISFIABLE_BOUND) and self.model is None:
            raise ValueError(f"status {self.status} requires a model")


class _BudgetExpired(Exception):
    pass


PROBE_SHARE = 0.25  # share of a solve's budget the zero-cost probe may use
REDUCE_FIRST = 2000  # a search's conflicts before its first learned-clause reduction
REDUCE_GROWTH = 300  # each gap between reductions is this many conflicts longer than the one before
_EV_DONE, _EV_INCUMBENT = 0, 1  # sr_run's events (_kernel.c)
_ERR_EMPTY_CLAUSE, _ERR_NOMEM, _ERR_EXPIRED = 1, 2, 4  # sr_new's errors (_kernel.c)


def solve_builtin(instance: MaxSatInstance, budget: float | None = None) -> SolveOutcome:
    """Exact conflict-driven branch and bound, opened by a zero-cost probe.

    The probe asks whether some model falsifies no soft clause: it is the
    search below with its incumbent bound set to the smallest soft weight,
    and it stops once :data:`PROBE_SHARE` of the budget has passed.  A
    model it finds is optimal at once; a refutation proves that weight a
    lower bound.  Branch and bound then runs over a fresh clause set-up,
    so nothing the probe learned (it rests on the probe's bound) carries
    over, but it starts from the polarities the probe saved, and it stops
    as optimal as soon as its incumbent reaches the proven lower bound.
    The outcome counts the work of both searches.
    """
    t0 = time.monotonic()
    deadline = None if budget is None else t0 + budget
    upper = instance.soft_weight_total + 1  # branch and bound's: every model falsifies less
    polarity = bytearray(instance.num_vars + 1)
    if not instance.soft:
        return _search(instance, upper, deadline, 0, polarity, t0)
    least = min(w for _, w in instance.soft)
    probe = _search(instance, least, None if budget is None else t0 + PROBE_SHARE * budget, 0, polarity, t0)
    lower = least if probe.status is SolveStatus.HARD_UNSAT else 0
    if probe.model is not None:
        verdict = "found a zero-cost model"
    elif lower:
        verdict = f"refuted: lower bound {lower}"
    else:
        verdict = "stopped at its share of the budget"
    logger.info("probe %s (%d conflicts, %.3f s)", verdict, probe.conflicts, probe.elapsed)
    if probe.model is not None:
        return probe
    out = _search(instance, upper, deadline, lower, polarity, t0)
    return replace(out, decisions=probe.decisions + out.decisions, conflicts=probe.conflicts + out.conflicts,
                   propagations=probe.propagations + out.propagations)


def _search(instance: MaxSatInstance, upper: int, until: float | None, lower: int, polarity: bytearray,
            t0: float) -> SolveOutcome:
    """One search of :func:`_search_python`, run by the compiled kernel
    when this process has one (see :mod:`swaproute.kernel`), else by
    that Python reference."""
    search = _search_python if kernel.load() is None else _search_c
    return search(instance, upper, until, lower, polarity, t0)


def _outcome(model: Model | None, exhausted: bool, best: int, lower: int, t0: float, counters: tuple) -> SolveOutcome:
    """A search's outcome: the model it found, if any, and whether the
    search was exhausted (its incumbent proved optimal, or, with no
    incumbent, every model refuted below its bound)."""
    elapsed = time.monotonic() - t0
    if model is not None:
        if exhausted:
            return SolveOutcome(SolveStatus.OPTIMAL, model, best, elapsed, *counters, lower_bound=best)
        return SolveOutcome(SolveStatus.SATISFIABLE_BOUND, model, best, elapsed, *counters, lower_bound=lower)
    status = SolveStatus.HARD_UNSAT if exhausted else SolveStatus.UNKNOWN
    return SolveOutcome(status, None, None, elapsed, *counters, lower_bound=lower)


def _search_c(instance: MaxSatInstance, upper: int, until: float | None, lower: int, polarity: bytearray,
              t0: float) -> SolveOutcome:
    """The search of :func:`_search_python`, decision for decision, in the
    compiled kernel (``_kernel.c``, loaded by :mod:`swaproute.kernel`).

    The kernel reads the hard clauses where they lie, in the instance's
    list of DIMACS literals (``HardClauses.lits``), with the deadline
    read every 65,536 items, and refuses an empty clause as the Python
    set-up does.  It returns at each incumbent, which is timed and logged
    here, and is then called again.  Every 2,048 propagations it checks
    its deadline, lets other threads run, and checks the interpreter's
    pending signals, so Ctrl-C ends an uncapped solve with
    KeyboardInterrupt.
    """
    import ctypes

    lib = kernel.load()
    if len(polarity) != instance.num_vars + 1:  # the kernel reads and writes that many bytes
        raise ValueError(f"polarity holds {len(polarity)} values, not {instance.num_vars + 1}")
    if until is not None and time.monotonic() >= until:
        return SolveOutcome(SolveStatus.UNKNOWN, None, None, time.monotonic() - t0)
    lits = instance.hard.lits
    soft = array("i")
    for c, _ in instance.soft:
        soft.fromlist([*c, 0])
    weights = array("q", [w for _, w in instance.soft])
    saved = (ctypes.c_char * len(polarity)).from_buffer(polarity)
    err = ctypes.c_int()
    solver = lib.sr_new(
        instance.num_vars, lits, len(lits), soft.buffer_info()[0], weights.buffer_info()[0], len(instance.soft),
        upper, math.inf if until is None else until, lower, saved, REDUCE_FIRST, REDUCE_GROWTH, ctypes.byref(err),
    )
    if not solver:
        if err.value == _ERR_EXPIRED:
            return SolveOutcome(SolveStatus.UNKNOWN, None, None, time.monotonic() - t0)
        if err.value == _ERR_NOMEM:
            raise MemoryError("the compiled search kernel could not set up its clauses")
        raise ValueError("empty hard clause" if err.value == _ERR_EMPTY_CLAUSE else "malformed clause arena")
    out = (ctypes.c_longlong * 6)()  # decisions, conflicts, propagations, best, exhausted, model
    incumbents: list[tuple[float, int]] = []
    stage = "probe" if upper <= instance.soft_weight_total else "branch and bound"
    try:
        while (event := lib.sr_run(solver)) == _EV_INCUMBENT:
            lib.sr_result(solver, out, None, None)
            incumbents.append((time.monotonic() - t0, out[3]))
            logger.info("incumbent: cost %d at %.3f s (%s)", out[3], incumbents[-1][0], stage)
        if event != _EV_DONE:  # an interrupt raises its exception as the call returns
            raise MemoryError("the compiled search kernel ran out of memory")
        values = ctypes.create_string_buffer(instance.num_vars + 1)
        lib.sr_result(solver, out, values, saved)
    finally:
        lib.sr_free(solver)
    decisions, conflicts, props, best, exhausted, found = out
    model = Model(tuple(map(bool, values.raw))) if found else None
    return _outcome(model, bool(exhausted), best, lower, t0, (decisions, conflicts, props, tuple(incumbents)))


def _search_python(instance: MaxSatInstance, upper: int, until: float | None, lower: int, polarity: bytearray,
                   t0: float) -> SolveOutcome:
    """One branch-and-bound search over a fresh clause set-up: the reference kernel.

    The search looks for models that falsify less than ``upper`` and
    stops at the time ``until`` (None for never); the set-up reads it
    too, and a search whose time has passed does not start.  Every model
    is known to falsify at least ``lower``, so an incumbent that reaches
    it is optimal.  ``polarity[v]`` is 1 when variable v's saved value is
    true: the search starts from it and writes back the values it saved,
    so a later search can start where this one left off.  Refuting
    ``upper`` proves every model falsifies at least that much, and is
    reported as ``HARD_UNSAT``: hard unsatisfiability when ``upper`` is
    above the total soft weight.  A search that runs out of time returns its incumbent as a satisfiable
    bound, or unknown.  Times are seconds since ``t0``.

    Branching takes the lowest unassigned variable id.  A variable that
    occurs in a soft clause is set true if it occurs positively in one
    and false otherwise.  Any other variable takes its saved polarity:
    the value it had when a backjump last unassigned it.  So the first
    descent from an all-false ``polarity`` follows the soft preferences
    and the encoder's slot-by-slot id order, and later descents return to
    the values the search last reached for every variable no soft clause
    scores.  A violated clause -- a hard or learned clause, or the bound
    clause made of the earliest-falsified soft clauses whose weight
    reaches the incumbent's -- is analysed to its first unique
    implication point at the clause's highest level; the learned clause
    is kept, and the search jumps back to the level where it becomes
    unit.  Learned clauses stay valid because the incumbent only falls.
    They are reduced after :data:`REDUCE_FIRST` conflicts, and again after
    gaps that grow by :data:`REDUCE_GROWTH` each time (see
    :func:`_reduce`).  A conflict at level 0 proves the incumbent
    optimal, or, with no incumbent, refutes ``upper``.

    The search runs on literals in index form (MiniSat's encoding; Eén
    & Sörensson, SAT 2003): variable v is 2v and its negation 2v + 1, so
    negation is ``x ^ 1`` and every per-literal array is indexed by a
    non-negative int, the only kind CPython specialises list subscripts
    for.  The set-up translates each clause once; the instance, and the
    model returned, stay DIMACS.  The whole state lives in this
    function's own locals, and no closure or generator captures any of
    it, so the loop reads fast locals, not cell variables.
    """
    if until is not None and time.monotonic() >= until:
        return SolveOutcome(SolveStatus.UNKNOWN, None, None, time.monotonic() - t0)
    nv = instance.num_vars
    size = 2 * nv + 2
    # code[lit] is a DIMACS literal's index form; -v lands on Python's
    # negative index, and code[0] is 0.  The set-up is the only reader of
    # signed literals.
    code = [*range(0, size, 2), *range(size - 1, 2, -2)]

    # Per-literal arrays: one slot per index-form literal (slots 0 and 1,
    # variable 0's, stay unused).
    lv = [0] * size  # 1 true, -1 false, 0 unassigned
    lvl = [0] * size  # decision level, stored under the true literal
    rsn: list = [None] * size  # reason clause, stored under the true literal
    seen = [False] * size  # conflict analysis marks, under the true literal
    watches: list[list[list[int]]] = [[] for _ in range(size)]  # clauses to visit when the key turns true
    implied: list[list[int]] = [[] for _ in range(size)]  # binary clauses: literals the key forces
    trail: list[int] = []
    exhausted = False  # set by unit clauses that contradict each other

    # The hard clauses are read one item at a time, as the compiled
    # kernel's set-up reads them: each clause is gathered in index form up
    # to its closing 0, and the deadline is read before every 65,536 items
    # (the kernel's SETUP_MASK).  Unit clauses are asserted at level 0 as
    # they are read; an empty clause is refused.
    hard = instance.hard.lits
    cl: list[int] = []
    for start in range(0, len(hard), 65536):
        if until is not None and time.monotonic() >= until:
            return SolveOutcome(SolveStatus.UNKNOWN, None, None, time.monotonic() - t0)
        for lit in hard[start : start + 65536]:
            if lit:
                cl.append(code[lit])
                continue
            width = len(cl)
            if width > 2:
                watches[cl[0] ^ 1].append(cl)
                watches[cl[1] ^ 1].append(cl)
                cl = []
            elif width == 2:
                a, b = cl
                implied[a ^ 1].append(b)
                implied[b ^ 1].append(a)
                cl.clear()
            elif width:
                a = cl.pop()
                if not lv[a]:
                    lv[a] = 1
                    lv[a ^ 1] = -1
                    trail.append(a)
                elif lv[a] == -1:
                    exhausted = True
            else:
                raise ValueError("empty hard clause")
    implied = [x or () for x in implied]  # most literals force nothing; they share one ()

    # Soft clauses: count non-false literals; at zero the clause is
    # falsified, its weight joins the lower bound and its index is pushed
    # on ``falsified``.  Counting happens as propagation takes a literal
    # off the trail, so the stack is in trail order and undo pops it.
    soft: list[tuple[int, ...]] = []
    sweight: list[int] = []
    socc: list = [()] * size  # soft clauses containing the key literal
    preferred = [0] * (nv + 1)  # a soft clause's variable: the literal it is decided to
    for si, (c, w) in enumerate(instance.soft):
        c = tuple(map(code.__getitem__, c))
        soft.append(c)
        sweight.append(w)
        for lit in c:
            if not socc[lit]:
                socc[lit] = []
            socc[lit].append(si)
            if not lit & 1 or not preferred[lit >> 1]:
                preferred[lit >> 1] = lit
    del code
    saved = list(map(sub, range(1, size, 2), polarity))  # per variable: the literal it last had
    sfree = list(map(len, soft))
    falsified: list[int] = []
    lb = 0
    learned: list = []  # clauses of three literals or more learned, oldest first
    lbds: list[int] = []  # their LBDs
    gap = next_reduce = REDUCE_FIRST  # the conflict count at the next reduction
    trail_lim: list[int] = []  # trail length at each decision
    qhead = 0
    dl = 0  # current decision level
    nxt = 2  # every variable below this positive literal's is assigned
    best = upper
    best_vals: list[int] | None = None
    incumbents: list[tuple[float, int]] = []
    decisions = conflicts = props = 0
    stage = "probe" if upper <= instance.soft_weight_total else "branch and bound"

    append = trail.append
    try:
        if until is not None and time.monotonic() >= until:
            raise _BudgetExpired
        while not exhausted:
            # -- unit propagation: binary implications, then watched clauses
            confl = None
            while qhead < len(trail):
                p = trail[qhead]
                qhead += 1
                props += 1
                if until is not None and not props & 2047 and time.monotonic() > until:
                    raise _BudgetExpired
                np = p ^ 1
                for si in socc[np]:
                    sfree[si] -= 1
                    if not sfree[si]:
                        lb += sweight[si]
                        falsified.append(si)
                for q in implied[p]:
                    x = lv[q]
                    if x == 1:
                        continue
                    if x == -1:
                        confl = (q, np)
                        break
                    lv[q] = 1
                    lv[q ^ 1] = -1
                    lvl[q] = dl
                    rsn[q] = (q, np)
                    append(q)
                if confl is not None:
                    break
                ws = watches[p]
                i = j = 0
                end = len(ws)
                while i < end:
                    c = ws[i]
                    i += 1
                    f = c[0]
                    if f == np:
                        f = c[1]
                        if lv[f] == 1:
                            ws[j] = c
                            j += 1
                            continue
                        c[0] = f
                        c[1] = np
                    elif lv[f] == 1:
                        ws[j] = c
                        j += 1
                        continue
                    q = c[2]  # every watched clause has a third literal
                    if lv[q] != -1:
                        c[1] = q
                        c[2] = np
                        watches[q ^ 1].append(c)
                        continue
                    for k in range(3, len(c)):
                        q = c[k]
                        if lv[q] != -1:
                            c[1] = q
                            c[k] = np
                            watches[q ^ 1].append(c)
                            break
                    else:
                        ws[j] = c
                        j += 1
                        if lv[f]:
                            confl = c
                            break
                        lv[f] = 1
                        lv[f ^ 1] = -1
                        lvl[f] = dl
                        rsn[f] = c
                        append(f)
                del ws[j:i]  # drop the watches that moved; the unvisited tail stays
                if confl is not None:
                    break

            if confl is None:
                if lb < best:
                    v = nxt
                    while v < size and lv[v]:
                        v += 2
                    nxt = v
                    if v < size:
                        decisions += 1
                        trail_lim.append(len(trail))
                        dl += 1
                        u = preferred[v >> 1] or saved[v >> 1]
                        lv[u] = 1
                        lv[u ^ 1] = -1
                        lvl[u] = dl
                        rsn[u] = None
                        append(u)
                        continue
                    best = lb  # leaf: every variable assigned
                    best_vals = lv[2::2]
                    incumbents.append((time.monotonic() - t0, best))
                    logger.info("incumbent: cost %d at %.3f s (%s)", best, incumbents[-1][0], stage)
                    if best <= lower:
                        exhausted = True
                        break
                # Bound conflict: the earliest-falsified soft clauses whose
                # weight reaches the incumbent's cannot all stay falsified.
                acc = 0
                lits: dict[int, None] = {}
                for si in falsified:
                    lits.update(dict.fromkeys(soft[si]))
                    acc += sweight[si]
                    if acc >= best:
                        break
                confl = list(lits)

            # -- conflict analysis at the clause's highest level
            conflicts += 1
            top = 0
            for q in confl:
                if lvl[q ^ 1] > top:
                    top = lvl[q ^ 1]
            if top == 0:
                exhausted = True
                break
            learnt = [0]
            path = 0
            p = 0
            idx = len(trail) - 1 if top == dl else trail_lim[top] - 1  # the last literal of level top
            c = confl
            while True:
                for q in c:
                    if q == p:
                        continue
                    t = q ^ 1
                    if not seen[t] and lvl[t]:
                        seen[t] = True
                        if lvl[t] == top:
                            path += 1
                        else:
                            learnt.append(q)
                while not seen[trail[idx]]:
                    idx -= 1
                p = trail[idx]
                idx -= 1
                seen[p] = False
                path -= 1
                if not path:
                    break
                c = rsn[p]
            learnt[0] = u = p ^ 1

            # Local minimization: drop a literal whose reason is covered by
            # the rest of the clause (or by level-0 facts).
            kept = [u]
            for q in learnt[1:]:
                t = q ^ 1
                r = rsn[t]
                if r is None:
                    kept.append(q)
                    continue
                for x in r:
                    if x != t and not seen[x ^ 1] and lvl[x ^ 1]:
                        kept.append(q)
                        break
            for q in learnt[1:]:
                seen[q ^ 1] = False

            # Jump to the clause's second-highest level (its first literal
            # there becomes kept[1], the second watch) and assert the first
            # UIP there.  Undoing a literal the propagation already took
            # gives back its soft clauses' counts; every literal undone
            # saves its polarity.  The clause's LBD counts its levels:
            # the first UIP's, and those of the rest.
            level = at = 0
            levels = set()
            for k in range(1, len(kept)):
                x = lvl[kept[k] ^ 1]
                levels.add(x)
                if x > level:
                    level = x
                    at = k
            if at:
                kept[1], kept[at] = kept[at], kept[1]
            lim = trail_lim[level]
            nxt = trail[lim] & -2  # the first decision undone
            for q in trail[lim:qhead]:
                for si in socc[q ^ 1]:
                    if not sfree[si]:
                        lb -= sweight[si]
                        falsified.pop()
                    sfree[si] += 1
            for q in trail[lim:]:
                lv[q] = lv[q ^ 1] = 0
                saved[q >> 1] = q
            del trail[lim:]
            del trail_lim[level:]
            dl = level
            qhead = lim
            if len(kept) == 1:
                r = None
            elif len(kept) == 2:
                for a, b in ((u, kept[1]), (kept[1], u)):
                    if implied[a ^ 1]:
                        implied[a ^ 1].append(b)
                    else:
                        implied[a ^ 1] = [b]
                r = tuple(kept)
            else:
                watches[u ^ 1].append(kept)
                watches[kept[1] ^ 1].append(kept)
                learned.append(kept)
                lbds.append(len(levels) + 1)
                r = kept
            lv[u] = 1
            lv[u ^ 1] = -1
            lvl[u] = dl
            rsn[u] = r
            append(u)
            if conflicts >= next_reduce:
                learned, lbds = _reduce(learned, lbds, watches, lv, rsn)
                gap += REDUCE_GROWTH
                next_reduce += gap
    except _BudgetExpired:
        pass
    polarity[:] = bytes([~q & 1 for q in saved])
    model = None if best_vals is None else Model((False, *(x == 1 for x in best_vals)))
    return _outcome(model, exhausted, best, lower, t0, (decisions, conflicts, props, tuple(incumbents)))


def _reduce(learned: list[list[int]], lbds: list[int], watches: list, lv: list[int], rsn: list):
    """Learned-clause reduction (Audemard & Simon, IJCAI 2009).

    Ranks the learned long clauses by LBD, highest first, then oldest
    first, and deletes those in the first half of that ranking except the
    ones with LBD 2 or less and the ones that are the reason for an
    assigned literal (the first literal of a reason is the one it
    implied).  Returns the survivors and their LBDs, oldest first.
    """
    ranked = sorted(range(len(learned)), key=lambda i: (-lbds[i], i))
    dead = set()
    for i in ranked[: len(ranked) // 2]:
        c = learned[i]
        if lbds[i] > 2 and not (lv[c[0]] == 1 and rsn[c[0]] is c):
            dead.add(i)
    gone = {id(learned[i]) for i in dead}
    for key in {learned[i][k] ^ 1 for i in dead for k in (0, 1)}:
        watches[key] = [c for c in watches[key] if id(c) not in gone]
    keep = [i for i in range(len(learned)) if i not in dead]
    return [learned[i] for i in keep], [lbds[i] for i in keep]


# ---------------------------------------------------------------------------
# WCNF interchange
# ---------------------------------------------------------------------------


WCNF_CHUNK = 4096  # hard-clause items, or soft clause lines, per piece of :func:`wcnf_chunks`


def wcnf_chunks(instance: MaxSatInstance) -> Iterator[str]:
    """Classic weighted DIMACS, in pieces: hard clauses carry the top
    weight (1 + total soft weight), soft clauses their own weight.

    A hard piece is the text of :data:`WCNF_CHUNK` items of the clause
    arena, literals and closing 0s, so it may end inside a line (see
    :func:`_hard_text`); a soft piece is :data:`WCNF_CHUNK` whole lines.
    A writer that takes the pieces one at a time never holds the whole
    text.
    """
    nv, lits, soft = instance.num_vars, instance.hard.lits, instance.soft
    top = 1 + instance.soft_weight_total
    prefix = f"{top} "
    yield f"p wcnf {nv} {len(instance.hard) + len(soft)} {top}\n" + (prefix if lits else "")
    for i, piece in enumerate(_hard_text(lits, instance.max_var, prefix), 1):
        # the last hard line opens no next one
        yield piece if i * WCNF_CHUNK < len(lits) else piece[: -len(prefix)]
    for i in range(0, len(soft), WCNF_CHUNK):
        yield "".join([f"{w} {' '.join(map('%d'.__mod__, c))} 0\n" for c, w in soft[i : i + WCNF_CHUNK]])


def _hard_text(lits: list[int], max_var: int, prefix: str) -> Iterator[str]:
    """The text of each :data:`WCNF_CHUNK` items of the arena ``lits``
    over variables 1..max_var: each literal and a space, and each closing
    0 as ``0``, a newline and ``prefix``.

    The compiled kernel writes it when this process has one (see
    :mod:`swaproute.kernel`).  Otherwise every item is looked up in one
    table of ``2 * max_var + 1`` strings indexed by the signed literal, so
    the cost is linear in the literal count: the table covers only the
    variables the clauses use, whatever the header declares.  Both give
    the same text.
    """
    lib = kernel.load()
    if lib is None:
        # text[lit] is the literal and a space; -v lands on Python's negative
        # index.  Slot 0 ends a hard line and opens the next, so a piece of
        # the arena is one lookup and one join.
        text = [f"{v} " for v in range(max_var + 1)] + [f"{v} " for v in range(-max_var, 0)]
        text[0] = f"0\n{prefix}"
        for i in range(0, len(lits), WCNF_CHUNK):
            # A one-item piece looks up one string, and joining a string's
            # characters gives it back.
            yield "".join(itemgetter(*lits[i : i + WCNF_CHUNK])(text))
        return
    import ctypes

    head = prefix.encode()
    # per item, a long's digits, its sign and a space, or "0\n" and the prefix
    cap = min(WCNF_CHUNK, len(lits)) * (24 + len(head))
    buf = ctypes.create_string_buffer(cap)
    for i in range(0, len(lits), WCNF_CHUNK):
        yield lib.sr_wcnf(lits, i, min(i + WCNF_CHUNK, len(lits)), buf, cap, head, len(head))


def emit_wcnf(instance: MaxSatInstance) -> str:
    """The whole WCNF text of ``instance``: the pieces of :func:`wcnf_chunks`, joined."""
    return "".join(wcnf_chunks(instance))


def parse_wcnf(text: str) -> MaxSatInstance:
    """Parse classic ``p wcnf`` files and the newer headerless format
    whose hard clauses start with ``h``."""
    hard: list[int] = []  # the clause arena: each clause's literals, then a 0
    count = 0
    soft = []
    top = None
    max_var = 0
    declared = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 5 or parts[1] != "wcnf":
                raise SolverOutputError(f"malformed header {line!r}")
            try:
                declared = int(parts[2])
                top = int(parts[4])
            except ValueError as exc:
                raise SolverOutputError(f"malformed header {line!r}") from exc
            continue
        parts = line.split()
        is_hard = False
        if parts[0] == "h":
            is_hard = True
            weight = 0
            parts = parts[1:]
        else:
            try:
                weight = int(parts[0])
            except ValueError as exc:
                raise SolverOutputError(f"malformed clause line {line!r}") from exc
            parts = parts[1:]
            if top is not None and weight == top:
                is_hard = True
            elif weight < 1:
                raise SolverOutputError(f"soft weight must be >= 1: {line!r}")
        if not parts or parts[-1] != "0":
            raise SolverOutputError(f"clause line must end in 0: {line!r}")
        try:
            raw = [int(p) for p in parts[:-1]]
        except ValueError as exc:
            raise SolverOutputError(f"malformed clause line {line!r}") from exc
        if not raw or 0 in raw:
            raise SolverOutputError(f"empty clause line {line!r}")
        lits = tuple(dict.fromkeys(raw))
        max_var = max(max_var, *(abs(l) for l in lits))
        if any(-l in lits for l in lits):
            continue  # tautology: always satisfied, never falsified
        if is_hard:
            hard += lits
            hard.append(0)
            count += 1
        else:
            soft.append((lits, weight))
    return MaxSatInstance(max(declared, max_var), HardClauses(hard, count), tuple(soft), None)


# ---------------------------------------------------------------------------
# External solvers
# ---------------------------------------------------------------------------


def solve_external(instance: MaxSatInstance, solver_cmd: str, budget: float | None = None) -> SolveOutcome:
    """Run an external MaxSAT solver over a temporary WCNF file.

    ``solver_cmd`` is a shell-style command template containing the
    placeholder ``{wcnf}``.  Output is parsed per the MaxSAT-evaluation
    conventions: an ``s`` status line and ``v`` model lines in either
    signed-literal or 0/1-string form.  Any returned model is re-checked
    against the instance's hard clauses before being trusted, and the
    falsified weight is recomputed locally.
    """
    if "{wcnf}" not in solver_cmd:
        raise SolverOutputError("solver command must contain the placeholder {wcnf}")
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="swaproute-wcnf-") as tmp:
        path = Path(tmp) / "instance.wcnf"
        with path.open("w", encoding="utf-8") as f:
            f.writelines(wcnf_chunks(instance))
        argv = [arg.replace("{wcnf}", str(path)) for arg in shlex.split(solver_cmd)]
        timed_out = False
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=budget)
            stdout = proc.stdout or ""
        except subprocess.TimeoutExpired as exc:
            timed_out = True
            raw = exc.stdout or b""
            stdout = raw.decode("utf-8", "replace") if isinstance(raw, bytes) else raw
        except OSError as exc:
            raise SolverOutputError(f"failed to run {argv[0]!r}: {exc}") from exc
    elapsed = time.monotonic() - t0

    status_line = None
    model_tokens: list[str] = []
    for line in stdout.splitlines():
        if line.startswith("s "):
            status_line = line[2:].strip()
        elif line.startswith("v ") or line == "v":
            model_tokens.extend(line[2:].split())

    model = _model_from_tokens(model_tokens, instance.num_vars) if model_tokens else None
    if model is not None and not instance.hard_satisfied(model):
        raise SolverIntegrityError("external solver returned a model violating the hard clauses")
    weight = instance.falsified_weight(model) if model is not None else None
    # The process reports no search counters; its one model is the timeline.
    timeline = () if model is None else ((elapsed, weight),)

    if status_line == "OPTIMUM FOUND":
        if model is None:
            raise SolverOutputError("OPTIMUM FOUND without a model line")
        return SolveOutcome(SolveStatus.OPTIMAL, model, weight, elapsed, incumbents=timeline, lower_bound=weight)
    if status_line == "SATISFIABLE":
        if model is None:
            raise SolverOutputError("SATISFIABLE without a model line")
        return SolveOutcome(SolveStatus.SATISFIABLE_BOUND, model, weight, elapsed, incumbents=timeline)
    if status_line == "UNSATISFIABLE":
        return SolveOutcome(SolveStatus.HARD_UNSAT, None, None, elapsed)
    if status_line in (None, "UNKNOWN"):
        if model is not None:
            return SolveOutcome(SolveStatus.SATISFIABLE_BOUND, model, weight, elapsed, incumbents=timeline)
        if timed_out or status_line == "UNKNOWN":
            return SolveOutcome(SolveStatus.UNKNOWN, None, None, elapsed)
        raise SolverOutputError(f"no status line in solver output:\n{stdout[:2000]}")
    raise SolverOutputError(f"unrecognized status line {status_line!r}")


def _model_from_tokens(tokens: list[str], num_vars: int) -> Model:
    values = [False] * (num_vars + 1)
    if len(tokens) == 1 and set(tokens[0]) <= {"0", "1"} and len(tokens[0]) > 1:
        bits = tokens[0]
        for i, ch in enumerate(bits[:num_vars], start=1):
            values[i] = ch == "1"
        return Model(tuple(values))
    try:
        lits = [int(t) for t in tokens]
    except ValueError as exc:
        raise SolverOutputError(f"unparseable model tokens {tokens[:8]!r}...") from exc
    for lit in lits:
        if lit == 0:
            continue
        if abs(lit) <= num_vars:
            values[abs(lit)] = lit > 0
    return Model(tuple(values))
