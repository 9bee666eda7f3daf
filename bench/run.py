"""Routing benchmark: drives ``swaproute.cli.main`` in-process on seeded inputs.

Usage (from the repository root)::

    python3 bench/run.py --workload exact-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one process each

One run set-ups its workload's corpus, then repeats passes over the
corpus, one row at a time (closed loop, no threads), until the next pass
would not fit in ``--seconds``.  Every output is checked; a wrong output
makes the run print ``"correct": false`` and exit 1.  The last line of
standard output is the JSON result.  With ``--trace 1`` every pass is
traced and the result carries the per-layer metrics instead of the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# Median time of probe() on the reference host (a shared 2-core x86-64 VM,
# Python 3.11.7).  CPU-bound times are scaled to that host speed.
PROBE_REF_S = 0.020
EXIT_CLASS = {0: "ok", 1: "error", 2: "timeout", 3: "unroutable"}

WORKLOADS = ("exact-small", "tokyo-wcnf", "tokyo-map")


@dataclass
class RowResult:
    """What one ``cli.main`` call did, and how the checks judged it."""

    row: str
    pass_index: int
    exit: str
    wall_ms: float
    status: str | None = None
    gates_added: int | None = None
    backtracks: int | None = None
    per_slice: list | None = None
    size_runs: list | None = None
    output_bytes: int = 0
    success: bool = False
    wrong: str | None = None  # why the output is wrong, when it is
    reason: str | None = None  # the program's own message for a classified failure
    useful_solves: int = 0  # solves whose model is part of the returned routing
    probe_ms: float = 0.0  # probe() just before the row: the host's speed at the time


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _fresh_import():
    """Import the program and the corpus from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "corpus" or m.split(".")[0] == "swaproute"]:
        del sys.modules[name]
    cli = importlib.import_module("swaproute.cli")
    return cli, importlib.import_module("corpus")


def probe() -> float:
    """Seconds for a fixed pure-Python job of tuple, dict and sort work.

    The benchmark's host is shared, and its speed drifts by tens of
    percent over minutes.  A probe timed next to the measured work tracks
    that drift, so dividing by it leaves the program's own cost.
    """
    t0 = time.perf_counter()
    table = {(i % 97, i % 89, i): [i, i + 1] for i in range(14000)}
    ordered = sorted(table, key=lambda k: (k[2] % 13, k))
    sum(table[k][1] for k in ordered if k[0] & 1)
    return time.perf_counter() - t0


def setup(workload: str, seed: int, work: Path, rows_of=None):
    """Import, generate and write the corpus ``SETUP_REPEATS`` times.

    Returns the last copy, and each set-up's (seconds, probe seconds).
    """
    samples = []
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"
        probe_s = probe()
        t0 = time.perf_counter()
        cli, corpus = _fresh_import()
        rows = rows_of(corpus, seed) if rows_of else corpus.WORKLOADS[workload](seed)
        target.mkdir(parents=True)
        for row in rows:
            row.write(target)
        samples.append((time.perf_counter() - t0, probe_s))
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(target)
    return cli, rows, target, samples


# ---------------------------------------------------------------------------
# reference answers and checks (never timed)
# ---------------------------------------------------------------------------


def references(rows) -> dict[str, int]:
    """Lower bounds on each exact row's swap count from the brute-force oracle.

    For a global unweighted row the bound is the exact optimum.  A
    weighted row minimizes fidelity loss, so the swap optimum only bounds
    it from below.  A cyclic row repeats its block, and every copy costs
    at least the block's unconstrained optimum.
    """
    from swaproute.arch import load_arch
    from swaproute.driver import as_cyclic_blocks
    from swaproute.oracle import brute_force_oracle

    out = {}
    for row in rows:
        g = load_arch(row.arch)
        if row.block_slots is not None:
            block, cycles = as_cyclic_blocks(row.source, row.block_slots)
            out[row.name] = cycles * brute_force_oracle(block, g, row.n)[0]
        else:
            out[row.name] = brute_force_oracle(row.source, g, row.n)[0]
    return out


def check_map(row, res: RowResult, work: Path, oracle: int | None):
    """Re-verify an exit-0 ``map`` row from its files and compare with the oracle."""
    from swaproute.arch import load_arch
    from swaproute.circuit import parse_qasm
    from swaproute.verifier import verify

    try:
        stats = json.loads((work / f"{row.name}.stats.json").read_text(encoding="utf-8"))
        routed_text = (work / f"{row.name}.out.qasm").read_text(encoding="utf-8")
    except OSError as exc:
        res.wrong = f"exit 0 without its output: {exc}"
        return
    res.status = stats["status"]
    res.gates_added = stats["gates_added"]
    res.backtracks = stats["backtracks"]
    res.per_slice = stats["per_slice"]
    res.size_runs = [[r["slice_size"], r["status"], r["gates_added"], round(r["elapsed_ms"])]
                     for r in stats["size_runs"] or []]
    res.useful_solves = len(stats["per_slice"])

    res.output_bytes = len(routed_text)
    initial = None
    for line in routed_text.splitlines():
        if line.startswith("//") and "initial_map:" in line:
            initial = [int(p) for p in line.split("initial_map:", 1)[1].split()]
    if initial is None:
        res.wrong = "routed file carries no initial_map comment"
        return
    source = parse_qasm((work / f"{row.name}.qasm").read_text(encoding="utf-8"))
    routed = parse_qasm(routed_text)
    verdict = verify(source, routed, initial, load_arch(row.arch))
    if not verdict:
        res.wrong = f"verifier: [{verdict.violation.kind}] {verdict.violation.message}"
        return
    swaps = sum(1 for gate in routed.gates if gate.name == "swap")
    if 3 * swaps != res.gates_added:
        res.wrong = f"stats claim {res.gates_added} gates added, routed file has {swaps} swaps"
        return
    if oracle is None:
        res.success = True
        return
    if swaps < oracle:
        res.wrong = f"{swaps} swaps beats the oracle's lower bound {oracle}"
    elif row.noise is None and row.block_slots is None and res.status == "optimal" and swaps != oracle:
        res.wrong = f"claimed optimal with {swaps} swaps, oracle says {oracle}"
    else:
        block_proved = row.block_slots is not None and {s["status"] for s in res.per_slice} == {"optimal"}
        res.success = res.status == "optimal" or block_proved


def keep_wcnf(row, res: RowResult, work: Path, first: dict[str, str]):
    """Keep the first pass's WCNF for the round-trip; later passes must match it byte for byte."""
    path = work / f"{row.name}.wcnf"
    if not path.exists():
        res.wrong = "exit 0 without its WCNF file"
        return
    data = path.read_bytes()
    res.output_bytes = len(data)
    digest = hashlib.sha256(data).hexdigest()
    if row.name not in first:
        first[row.name] = digest
        path.rename(work / f"{row.name}.first.wcnf")
    elif first[row.name] != digest:
        res.wrong = "WCNF differs from the first pass's output for the same input"
    res.success = res.wrong is None


def check_wcnf(row, work: Path) -> str | None:
    """Round-trip a WCNF file; return why it is wrong, or None."""
    from swaproute.arch import load_arch
    from swaproute.circuit import parse_qasm
    from swaproute.encoder import EncodeOptions, encode
    from swaproute.maxsat import parse_wcnf

    source = parse_qasm((work / f"{row.name}.qasm").read_text(encoding="utf-8"))
    want = encode(source, load_arch(row.arch), EncodeOptions(n=row.n))
    got = parse_wcnf((work / f"{row.name}.first.wcnf").read_text(encoding="utf-8"))
    got_counts = (got.num_vars, len(got.hard), len(got.soft))
    want_counts = (want.num_vars, len(want.hard), len(want.soft))
    if got_counts != want_counts:
        return f"WCNF has (vars, hard, soft) = {got_counts}, encode gives {want_counts}"
    return None


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def run_row(cli, row, work: Path, pass_index: int) -> RowResult:
    probe_ms = probe() * 1000.0
    argv = row.argv(work)
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        exit_class = EXIT_CLASS.get(rc, f"exit-{rc}")
    except Exception as exc:  # a crash is a wrong output, reported with its type
        exit_class = f"exception {type(exc).__name__}: {exc}"
    wall_ms = (time.perf_counter() - t0) * 1000.0
    res = RowResult(row.name, pass_index, exit_class, wall_ms, probe_ms=probe_ms)
    if exit_class != "ok":
        res.reason = err.getvalue().strip()[-300:] or None
    return res


def measure(cli, rows, work: Path, seconds: float, trace: bool, oracle: dict):
    """Closed loop over the corpus.

    Returns the row results and, for traced runs, each pass's layer
    totals and span count.
    """
    from spans import Tracer, layer_totals

    tracer = Tracer()
    results: list[RowResult] = []
    pass_layers: list[dict] = []
    span_counts: list[int] = []
    first_wcnf: dict[str, str] = {}
    t_start = time.perf_counter()
    p = 0
    while True:
        if trace:
            tracer.install()
        for row in rows:
            res = run_row(cli, row, work, p)
            results.append(res)
            if res.exit.startswith("exception") or res.exit == "error":
                res.wrong = f"{res.exit}: {res.reason}"
            elif res.exit == "ok" and row.command == "map":
                check_map(row, res, work, oracle.get(row.name))
            elif res.exit == "ok":
                keep_wcnf(row, res, work, first_wcnf)
        if trace:
            tracer.uninstall()
            pass_layers.append(layer_totals(tracer.spans))
            span_counts.append(len(tracer.spans))
            tracer.clear()
        p += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / p > seconds:
            break
    return results, pass_layers, span_counts


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one span wrapper adds to a call, measured on a no-op."""
    import types

    from spans import Tracer

    holder = types.SimpleNamespace(f=lambda: None)
    plain = holder.f
    t0 = time.perf_counter()
    for _ in range(calls):
        plain()
    t_plain = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(holder, "f", "cli")
    wrapped = holder.f
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - t0 - t_plain, 0.0) / calls


def _percentile_with_ten_beyond(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile that leaves at least ten samples above it."""
    n = len(values)
    if n < 100:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def reference_ms(wall_ms: float, budget: float | None, scale: float) -> float:
    """A row's time on the reference host.

    CPU work scales with host speed; time spent up to a ``--budget`` that
    the row ran into is a deadline, which does not.  Only the overrun
    past such a budget is scaled.
    """
    if budget is not None and wall_ms >= 1000.0 * budget:
        return 1000.0 * budget + (wall_ms - 1000.0 * budget) * scale
    return wall_ms * scale


def end_to_end(rows, results: list[RowResult], setup_samples, peak_rss_mb: float) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the report-only ones.

    Times are in reference seconds (see :func:`probe`); each pass is
    scaled by the median probe of its rows.
    """
    by_name = {row.name: row for row in rows}
    passes = sorted({r.pass_index for r in results})
    in_pass = [[r for r in results if r.pass_index == p] for p in passes]
    walls = [r.wall_ms for r in results]
    row_ms = []
    pass_totals = []
    for rs in in_pass:
        scale = PROBE_REF_S * 1000.0 / statistics.median(r.probe_ms for r in rs)
        times = [reference_ms(r.wall_ms, by_name[r.row].budget, scale) for r in rs]
        row_ms += times
        pass_totals.append(sum(times) / 1000.0)
    attempted = len(results)
    gated = {
        "setup_s": (statistics.median(t * PROBE_REF_S / p for t, p in setup_samples), "s"),
        "compile_s": (statistics.median(pass_totals), "s"),
        "compile_ms_p50": (statistics.median(row_ms), "ms"),
        "success_frac": (sum(r.success for r in results) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {
        "compile_ms_samples": (attempted, "count"),
        "passes": (len(passes), "count"),
        "setup_wall_s": (statistics.median(t for t, _ in setup_samples), "s"),
        "compile_wall_s": (statistics.median(sum(r.wall_ms for r in rs) / 1000.0 for rs in in_pass), "s"),
        "compile_wall_ms_p50": (statistics.median(walls), "ms"),
        "probe_ms": (statistics.median(r.probe_ms for r in results), "ms"),
        "failed_frac": (sum(not r.success for r in results) / attempted, "ratio"),
    }
    tail = _percentile_with_ten_beyond(row_ms)
    if tail:
        report[f"compile_ms_p{tail[0]}"] = (tail[1], "ms")
    maps = [r for r in results if by_name[r.row].command == "map"]
    if maps:
        added = source = 0
        for r in maps:
            row = by_name[r.row]
            source += row.source_slots
            added += r.gates_added if r.gates_added is not None else 3 * row.n * row.source_slots
        report["routed_frac"] = (sum(r.exit == "ok" and r.wrong is None for r in maps) / len(maps), "ratio")
        report["optimal_frac"] = (sum(r.status == "optimal" for r in maps) / len(maps), "ratio")
        report["cnot_overhead"] = (added / source, "ratio")
    else:
        per_pass = [sum(r.output_bytes for r in results if r.pass_index == p) for p in passes]
        report["wcnf_mb"] = (statistics.median(per_pass) / 1e6, "MB")
    return gated, report


def per_layer(rows, results: list[RowResult], pass_layers: list[dict]) -> dict:
    """Median over passes of each layer's per-pass total."""
    by_name = {row.name: row for row in rows}
    for p, layers in enumerate(pass_layers):
        in_pass = [r for r in results if r.pass_index == p]
        useful = sum(r.useful_solves for r in in_pass)
        solves = layers["maxsat.solve_calls"]
        layers["driver.useful_solve_ratio"] = useful / solves if solves else 0.0
        budgeted = [(r.wall_ms, by_name[r.row].budget) for r in in_pass if by_name[r.row].budget is not None]
        layers["driver.overrun_ms"] = (
            statistics.fmean(max(0.0, wall - 1000.0 * b) for wall, b in budgeted) if budgeted else 0.0
        )
    return {key: statistics.median(layers[key] for layers in pass_layers) for key in pass_layers[0]}


LAYER_UNITS = {"maxsat.wcnf_bytes": "bytes", "driver.useful_solve_ratio": "ratio"}


def _unit(name: str) -> str:
    return LAYER_UNITS.get(name, "ms" if name.endswith("_ms") else "count")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, rows_of=None) -> dict:
    """Set up, measure and check one workload in this process; return the result."""
    logging.getLogger().addHandler(logging.NullHandler())  # keep solver warnings off the report
    work = BENCH / "_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cli, rows, inputs, setup_samples = setup(workload, seed, work, rows_of)
        oracle = references(rows) if workload == "exact-small" else {}
        results, pass_layers, span_counts = measure(cli, rows, inputs, seconds, trace, oracle)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for row in rows:
            if row.command == "emit-wcnf" and (inputs / f"{row.name}.first.wcnf").exists():
                why = check_wcnf(row, inputs)
                for r in results:
                    if why and r.row == row.name:
                        r.wrong, r.success = why, False
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    for r in results:
        print("row " + json.dumps({k: v for k, v in vars(r).items() if v not in (None, [])}))
    wrong = [r for r in results if r.wrong]
    for r in wrong:
        print(f"WRONG {workload} {r.row} pass {r.pass_index}: {r.wrong}")
    gated, report = end_to_end(rows, results, setup_samples, peak_rss_mb)
    for name, (value, unit) in {**gated, **report}.items():
        print(f"{workload:12s} {name:20s} {value:12.4f} {unit}")
    if trace:
        layers = per_layer(rows, results, pass_layers)
        overhead = statistics.median(span_counts) * wrapper_cost()
        for name, value in layers.items():
            print(f"{workload:12s} {name:28s} {value:14.4f} {_unit(name)}")
        print(f"{workload:12s} {'tracing_overhead_s':28s} {overhead:14.6f} s per pass "
              f"({statistics.median(span_counts):g} spans at the measured cost of one wrapper)")
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in gated.items()}
    return {
        "correct": not wrong,
        "attempted": len(results),
        "failed": len(wrong),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "swaproute" / "cli.py").is_file():
        print(f"error: no swaproute sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        worst = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            worst = max(worst, subprocess.run(cmd, check=False).returncode)
        return worst

    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
