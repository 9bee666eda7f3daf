"""In-memory spans around the calls into each swaproute layer.

Only the benchmark's traced run installs these wrappers.  Each wrapper
replaces a name that a caller looks up at call time (a module global or
a class attribute), records a span with its parent, and restores the
original on :meth:`Tracer.uninstall`.  Spans stay in memory; the
benchmark turns them into per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_time: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


def _solve_info(outcome) -> dict:
    return {"status": outcome.status.value}


def _encode_info(instance) -> dict:
    return {"vars": instance.num_vars, "hard": len(instance.hard), "soft": len(instance.soft)}


def _emit_info(text) -> dict:
    return {"bytes": len(text)}


class Tracer:
    """Records one span per wrapped call; spans nest through a stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, span_name: str, info=None):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(span_name, time.perf_counter(), parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = original(*args, **kwargs)
                if info is not None:
                    span.info = info(result)
                return result
            except Exception as exc:
                span.info = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
                span.end = time.perf_counter()
                if span.parent is not None:
                    spans[span.parent].child_time += span.end - span.start

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self):
        """Wrap the names the CLI and the driver call through."""
        from swaproute import cli, cnf, driver

        for attr, span_name, info in (
            ("main", "cli", None),
            ("parse_qasm", "circuit.parse", None),
            ("emit_qasm", "circuit.emit", None),
            ("load_arch", "arch.load", None),
            ("load_noise", "arch.load", None),
            ("encode", "encoder.encode", _encode_info),
            ("emit_wcnf", "maxsat.emit", _emit_info),
            ("solve_global", "driver.global", None),
            ("solve_best", "driver.best", None),
            ("solve_cyclic", "driver.cyclic", None),
            ("verify_solution", "verifier.verify", None),
            ("verify", "verifier.verify", None),
            ("apply_routing", "solution.apply", None),
        ):
            self.wrap(cli, attr, span_name, info)
        for attr, span_name, info in (
            ("encode", "encoder.encode", _encode_info),
            ("decode", "encoder.decode", None),
            ("solve_builtin", "maxsat.solve", _solve_info),
            ("solve_sliced", "driver.sliced", None),
            ("slice_circuit", "circuit.slice", None),
        ):
            self.wrap(driver, attr, span_name, info)
        self.wrap(cnf.InstanceBuilder, "build", "cnf.build")
        self.wrap(cnf.MaxSatInstance, "hard_satisfied", "cnf.hard_check")

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def clear(self):
        self.spans.clear()


_SELF_MS = {
    "circuit.parse": "circuit.parse_ms",
    "circuit.emit": "circuit.emit_ms",
    "circuit.slice": "circuit.slice_ms",
    "arch.load": "arch.load_ms",
    "encoder.encode": "encoder.encode_ms",
    "cnf.build": "cnf.build_ms",
    "encoder.decode": "encoder.decode_ms",
    "cnf.hard_check": "cnf.hard_check_ms",
    "verifier.verify": "verifier.verify_ms",
    "solution.apply": "solution.apply_ms",
    "maxsat.solve": "maxsat.solve_ms",
    "maxsat.emit": "maxsat.emit_ms",
    "cli": "cli.self_ms",
}
_SOLVE_STATUS = {
    "optimal": "maxsat.optimal_calls",
    "satisfiable_bound": "maxsat.bound_calls",
    "hard_unsat": "maxsat.unsat_calls",
    "unknown": "maxsat.unknown_calls",
}
COUNTS = (
    "encoder.encode_calls", "encoder.vars", "encoder.hard_clauses", "encoder.soft_clauses",
    "maxsat.solve_calls", *_SOLVE_STATUS.values(), "maxsat.wcnf_bytes",
    "driver.size_runs", "driver.size_timeouts", "driver.backtracks",
)
TIMES = (*_SELF_MS.values(), "driver.self_ms")


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time (ms) and counts over the spans of one pass."""
    out = dict.fromkeys(TIMES + COUNTS, 0)
    for s in spans:
        if s.name.startswith("driver."):
            out["driver.self_ms"] += s.self_time * 1000.0
        else:
            out[_SELF_MS[s.name]] += s.self_time * 1000.0
        if s.name == "encoder.encode":
            out["encoder.encode_calls"] += 1
            out["encoder.vars"] += s.info.get("vars", 0)
            out["encoder.hard_clauses"] += s.info.get("hard", 0)
            out["encoder.soft_clauses"] += s.info.get("soft", 0)
        elif s.name == "maxsat.solve":
            out["maxsat.solve_calls"] += 1
            status = s.info.get("status")
            if status in _SOLVE_STATUS:
                out[_SOLVE_STATUS[status]] += 1
            if status == "hard_unsat" and spans[s.parent].name == "driver.sliced":
                out["driver.backtracks"] += 1  # a refuted pinned slice backtracks ...
        elif s.name == "maxsat.emit":
            out["maxsat.wcnf_bytes"] += s.info.get("bytes", 0)
        elif s.name == "driver.sliced":
            if s.info.get("raised") == "UnroutableError":
                out["driver.backtracks"] -= 1  # ... unless it ended the size run
            if s.parent is not None and spans[s.parent].name == "driver.best":
                out["driver.size_runs"] += 1
                out["driver.size_timeouts"] += s.info.get("raised") == "SolveTimeoutError"
    return out
