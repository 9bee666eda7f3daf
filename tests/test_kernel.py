"""The compiled kernel's build cache, its fallback, Ctrl-C, and its
passes over the clause list against their Python references."""

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from swaproute import kernel, maxsat
from swaproute.arch import load_arch
from swaproute.cli import main as cli_main
from swaproute.circuit import Circuit, Gate, emit_qasm, generate_qaoa_maxcut
from swaproute.cnf import HardClauses, MaxSatInstance
from swaproute.encoder import EncodeOptions, encode
from test_encoder import GOLDEN_WCNF_SHA256, golden_cases

SRC = str(Path(__file__).resolve().parents[1] / "src")

needs_cc = pytest.mark.skipif(kernel._compiler() is None, reason="no C compiler (cc) on PATH")


@pytest.fixture
def without_kernel(monkeypatch):
    """Call it to run the rest of the test as a process with no compiled kernel."""
    if kernel.load() is None:
        pytest.skip("no compiled kernel: no C compiler, or no usable cache")
    return lambda: monkeypatch.setattr(kernel, "load", lambda: None)


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty build cache for this test; every later test loads its own kernel again."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    kernel.load.cache_clear()
    yield tmp_path / "cache" / "swaproute"
    kernel.load.cache_clear()


@pytest.fixture
def compiles(monkeypatch):
    """The compile commands run, recorded."""
    calls = []
    run = subprocess.run

    def recording(argv, *args, **kwargs):
        calls.append(argv)
        return run(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", recording)
    return calls


def five_gate_circuit() -> Circuit:
    pairs = [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)]
    return Circuit(4, tuple(Gate("cx", p) for p in pairs))


def outcome_key(out):
    return (out.status, out.decisions, out.conflicts, out.propagations, tuple(w for _, w in out.incumbents),
            out.lower_bound, out.model)


@needs_cc
def test_without_a_compiler_the_python_kernel_runs_the_same_search(cold_cache, monkeypatch, tmp_path):
    inst = encode(five_gate_circuit(), load_arch("line:4"), EncodeOptions(n=1))
    compiled = maxsat.solve_builtin(inst)
    assert kernel.name() == "c"
    kernel.load.cache_clear()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other"))  # cold: nothing to load
    monkeypatch.setattr(kernel, "_compiler", lambda: None)
    assert kernel.load() is None and kernel.name() == "python"
    assert outcome_key(maxsat.solve_builtin(inst)) == outcome_key(compiled)

    qasm, stats = tmp_path / "c.qasm", tmp_path / "stats.json"
    qasm.write_text(emit_qasm(five_gate_circuit()), encoding="utf-8")
    argv = ["map", "--input", str(qasm), "--arch", "line:4", "--output", str(tmp_path / "r.qasm"), "--stats", str(stats)]
    assert cli_main(argv) == 0
    assert json.loads(stats.read_text())["kernel"] == "python"


@needs_cc
def test_a_warm_cache_never_runs_the_compiler(cold_cache, compiles):
    assert kernel.load() is not None and len(compiles) == 1
    kernel.load.cache_clear()
    assert kernel.load() is not None and len(compiles) == 1  # a new process's first load
    builds = list(cold_cache.iterdir())
    assert len(builds) == 1 and builds[0].stat().st_mode & 0o777 == 0o700
    assert cold_cache.stat().st_mode & 0o777 == 0o700


@needs_cc
def test_partly_written_or_foreign_builds_are_never_loaded(cold_cache, compiles, monkeypatch):
    good = kernel.build(cold_cache)
    data = good.read_bytes()
    compiler = kernel._compiler
    monkeypatch.setattr(kernel, "_compiler", lambda: None)
    # Under the name of the whole build: its first half, then the whole
    # build open to others' writes.  A build still being written has a
    # temporary name that no load looks for.
    (cold_cache / ".build-x.so").write_bytes(data)
    for content, mode in ((data[: len(data) // 2], 0o700), (data, 0o722)):
        good.write_bytes(content)
        os.chmod(good, mode)
        assert not kernel._verified(good)
        with pytest.raises(OSError, match="no C compiler"):
            kernel.build(cold_cache)
        assert kernel.load() is None

    monkeypatch.setattr(kernel, "_compiler", compiler)
    compiles.clear()
    fresh = kernel.build(cold_cache)
    assert len(compiles) == 1 and fresh == good  # a fresh build replaced the foreign file
    assert fresh.read_bytes() == data and kernel._verified(fresh)


def test_ctrl_c_stops_an_uncapped_solve(tmp_path):
    # The whole-circuit QAOA-16 instance on Tokyo, with no budget, runs for
    # far longer than this test waits.  The child says which kernel it runs
    # once the kernel is loaded and the instance encoded, just before it
    # starts the solve.
    code = (
        "from swaproute import kernel, maxsat\n"
        "from swaproute.arch import load_arch\n"
        "from swaproute.circuit import generate_qaoa_maxcut\n"
        "from swaproute.encoder import EncodeOptions, encode\n"
        "inst = encode(generate_qaoa_maxcut(16, 1, 7), load_arch('tokyo'), EncodeOptions(n=1))\n"
        "print(kernel.name(), flush=True)\n"
        "maxsat.solve_builtin(inst)\n"
        "print('finished', flush=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env)
    try:
        name = proc.stdout.readline().strip()
        assert name == ("c" if kernel.load() is not None else "python")
        time.sleep(1.0)  # well into the search: its set-up takes tens of milliseconds
        assert proc.poll() is None
        sent = time.monotonic()
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        waited = time.monotonic() - sent
    finally:
        proc.kill()
        proc.wait()
    assert "finished" not in out
    assert proc.returncode != 0 and "KeyboardInterrupt" in err
    assert waited < 2.0


def test_other_threads_run_during_a_solve():
    # A thread that wakes every millisecond, beside a one-second solve of
    # the whole-circuit QAOA-16 instance on Tokyo.  The compiled kernel
    # searches without the interpreter lock, and the Python one lets go of
    # it every few milliseconds, so the thread keeps waking.
    inst = encode(generate_qaoa_maxcut(16, 1, 7), load_arch("tokyo"), EncodeOptions(n=1))
    ticks = []
    done = threading.Event()

    def tick():
        while not done.is_set():
            ticks.append(time.monotonic())
            time.sleep(0.001)

    ticker = threading.Thread(target=tick)
    ticker.start()
    try:
        start = time.monotonic()
        out = maxsat.solve_builtin(inst, budget=1.0)
    finally:
        done.set()
        ticker.join(timeout=10)
    assert not ticker.is_alive()
    assert sum(start < t < start + out.elapsed for t in ticks) > 50


# -- the passes over the clause list, compiled and in Python -----------------


FAULTS = ("out of range", "literal 0", "miscount", "unclosed", "empty clause", "not an int")


def random_arena(rng: random.Random, fault: str | None, nv: int | None = None) -> tuple[list, int, int]:
    """An arena of random clauses over 1..nv (nv random for None), its
    count and nv, with one fault of the given kind planted (none for
    None).  A faulty arena is sometimes followed by a second faulty one
    over the same variables, so that two faults compete."""
    nv = nv or rng.randint(1, 40)
    clauses = [[rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), rng.randint(1, min(nv, 5)))]
               for _ in range(rng.randint(1 if fault else 0, 12))]
    lits = [item for c in clauses for item in (*c, 0)]
    count = len(clauses)
    literals = [i for i, item in enumerate(lits) if item]
    if fault == "out of range":
        lits[rng.choice(literals)] = rng.choice((nv + 1, -nv - 1, nv + rng.randint(2, 10**6), 2**70, -(2**63)))
    elif fault == "literal 0":
        lits[rng.choice(literals)] = 0
    elif fault == "miscount":
        count += rng.choice((-1, 1, 2))
    elif fault == "unclosed":
        if rng.random() < 0.5:
            lits.pop()
        else:
            lits.append(rng.randint(1, nv))
    elif fault == "empty clause":
        at = rng.choice([0] + [i + 1 for i, item in enumerate(lits) if not item])
        lits.insert(at, 0)
        count += 1
    elif fault == "not an int":
        lits[rng.randrange(len(lits))] = rng.choice(("1", 1.0, 2.5, None, 0.0, b"\0", (1,)))
    elif rng.random() < 0.2 and lits:
        lits[rng.choice(literals)] = True  # an int subclass: literal 1
    if fault and rng.random() < 0.2:
        more, more_count, _ = random_arena(rng, rng.choice(FAULTS), nv)
        lits += more
        count += more_count
    return lits, count, nv


def first_fault(lits: list, count: int, nv: int):
    """The type and message of the arena's first fault, named clause by
    clause (each run of items up to an int 0), then by its 0s; None when
    it has none."""
    zeros = [i for i, item in enumerate(lits) if isinstance(item, int) and item == 0]
    start = 0
    for stop in [*zeros, len(lits)]:
        if stop < len(lits) and stop == start:
            return ValueError, "empty clause"
        for item in lits[start:stop]:
            if not isinstance(item, int):
                return TypeError, f"literal {item!r} is not an int"
            if not 0 < abs(item) <= nv:
                return ValueError, f"literal {item} out of range (num_vars={nv})"
        start = stop + 1
    if len(zeros) > count:
        return ValueError, f"literal 0 out of range (num_vars={nv})"
    if lits and len(lits) - 1 not in zeros[-1:]:
        return ValueError, "the last hard clause is not closed by a 0"
    if len(zeros) != count:
        return ValueError, f"{count} hard clauses, {len(zeros)} closed by a 0"
    return None


def verdict(lits: list, count: int, nv: int):
    """The instance's max_var, or the type and message of its refusal."""
    try:
        return MaxSatInstance(nv, HardClauses(list(lits), count), ()).max_var
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def test_the_compiled_and_python_arena_checks_agree(without_kernel):
    rng = random.Random("arena-check")
    arenas = [random_arena(rng, fault) for _ in range(100) for fault in (None, *FAULTS)]
    arenas.append(([True, -1, 0], 1, 3))  # literal 1 written as True, the largest item
    compiled = [verdict(*arena) for arena in arenas]
    without_kernel()
    python = [verdict(*arena) for arena in arenas]
    for arena, *got in zip(arenas, compiled, python):
        # the first fault in arena order, or the largest variable as an int;
        # two joined faults may cancel out (an unclosed last clause that the
        # next arena's empty clause closes) and leave a sound arena
        want = first_fault(*arena) or max(map(abs, arena[0]), default=0)
        assert got == [want, want] and [type(v) for v in got] == [type(want)] * 2, (arena, got)


def test_emit_wcnf_is_the_same_text_without_the_kernel(without_kernel, tmp_path):
    rng = random.Random("wcnf-text")
    instances = {name: encode(c, g, opt) for name, c, g, opt in golden_cases(tmp_path)}
    for i in range(50):
        lits, count, nv = random_arena(rng, None)
        nv = rng.choice((nv, 10**6))  # wide literals: the kernel's buffer holds them
        soft = tuple(((rng.choice((v, -v)),), rng.choice((1, 7, 10**12))) for v in range(1, rng.randint(1, 4)))
        instances[f"random-{i}"] = MaxSatInstance(nv, HardClauses(lits, count), soft)
    qasm, first, second = tmp_path / "qaoa8.qasm", tmp_path / "c.wcnf", tmp_path / "python.wcnf"
    argv = ["emit-wcnf", "--input", str(qasm), "--arch", "tokyo", "--n", "1", "--output"]
    assert cli_main(["gen-qaoa", "--qubits", "8", "--cycles", "1", "--seed", "7", "--output", str(qasm)]) == 0
    assert cli_main([*argv, str(first)]) == 0
    compiled = {name: maxsat.emit_wcnf(inst) for name, inst in instances.items()}
    without_kernel()
    assert cli_main([*argv, str(second)]) == 0
    assert {name: maxsat.emit_wcnf(inst) for name, inst in instances.items()} == compiled
    assert first.read_bytes() == second.read_bytes()
    assert hashlib.sha256(first.read_bytes()).hexdigest() == GOLDEN_WCNF_SHA256["qaoa8-tokyo-n1"]
    digests = {name: hashlib.sha256(compiled[name].encode()).hexdigest() for name in GOLDEN_WCNF_SHA256}
    assert digests == GOLDEN_WCNF_SHA256
