"""Smoke test for the benchmark itself; runs in a few seconds.

    python3 bench/smoke.py

It runs one tiny row per workload, untraced and traced, and checks that
every metric named in ``BENCHMARK.json`` (and every report-only metric)
is emitted.  Then it plants two faults and checks that the correctness
gate trips on each: a swap in a routed QASM file moved onto a non-edge,
and a clause dropped from an emitted WCNF file.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys

import run

REPORT_ONLY = {
    "exact-small": ("routed_frac", "optimal_frac", "failed_frac", "cnot_overhead"),
    "tokyo-wcnf": ("failed_frac", "wcnf_mb"),
    "tokyo-map": ("routed_frac", "optimal_frac", "failed_frac", "cnot_overhead"),
}


def _tiny(workload):
    return lambda corpus, seed: corpus.smoke(seed)[workload]


def check_metric_names(spec: dict):
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                result = run.run_workload(workload, 1, 0.01, bool(trace), rows_of=_tiny(workload))
            assert result["correct"], f"{workload}: tiny row judged wrong\n{out.getvalue()}"
            got = set(result["metrics"])
            assert got == want[trace], f"{workload} trace={trace}: metrics {sorted(got ^ want[trace])} differ"
            printed = out.getvalue()
            for name in REPORT_ONLY[workload] if not trace else ("tracing_overhead_s",):
                assert re.search(rf"^{workload}\s+{name}\s", printed, re.M), f"{workload}: {name} not printed"
        print(f"ok   {workload}: every metric emitted")


def _plant(workload: str, patch) -> list:
    """Run the tiny row of ``workload`` with ``patch(cli)`` applied after set-up."""
    work = run.BENCH / "_work" / f"smoke-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cli, rows, inputs, _ = run.setup(workload, 1, work, _tiny(workload))
        patch(cli)
        oracle = run.references(rows) if workload == "exact-small" else {}
        results = run.measure(cli, rows, inputs, 0.01, False, oracle)[0]
        if workload == "tokyo-wcnf":
            for r in results:
                r.wrong = r.wrong or run.check_wcnf(rows[0], inputs)
        return results
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def check_planted_faults():
    def swap_to_non_edge(cli):
        emit = cli.emit_qasm

        def faulty(circuit, *args, **kwargs):
            text = emit(circuit, *args, **kwargs)
            moved, count = re.subn(r"^swap q\[\d+\],q\[\d+\];$", "swap q[0],q[3];", text, count=1, flags=re.M)
            if count == 0:  # no swap to move: add one before the first gate (q0-q3 is no line:4 edge)
                moved = re.sub(r"^(qreg q\[\d+\];)$", r"\1\nswap q[0],q[3];", text, count=1, flags=re.M)
            return moved

        cli.emit_qasm = faulty

    def drop_clause(cli):
        emit = cli.emit_wcnf
        cli.emit_wcnf = lambda instance: emit(instance).rsplit("\n", 2)[0] + "\n"

    for workload, patch, what in (
        ("exact-small", swap_to_non_edge, "swap moved onto a non-edge"),
        ("tokyo-wcnf", drop_clause, "clause dropped from the WCNF"),
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            results = _plant(workload, patch)
        assert results and all(r.wrong for r in results), f"gate missed: {what}"
        print(f"ok   {workload}: gate trips on a {what} ({results[0].wrong})")


def main() -> int:
    if not (run.SRC / "swaproute" / "cli.py").is_file():
        print(f"error: no swaproute sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metric_names(spec)
    check_planted_faults()
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
