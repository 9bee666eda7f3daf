import dataclasses
import errno
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from swaproute import cli, driver
from swaproute.arch import ConnectivityGraph, load_arch
from swaproute.circuit import parse_qasm
from swaproute.cli import main
from swaproute.cnf import MaxSatInstance, Model
from swaproute.encoder import EncodeOptions, encode
from swaproute.errors import SolveTimeoutError, UnroutableError
from swaproute.maxsat import emit_wcnf
from test_encoder import GOLDEN_WCNF_SHA256

STUB = str(Path(__file__).parent / "external_stub.py")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(args):
    return main(args)


def write_three_gate(tmp_path) -> str:
    path = tmp_path / "in.qasm"
    path.write_text(
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[4];\n"
        "cx q[0],q[1];\n"
        "h q[2];\n"
        "cx q[0],q[2];\n"
        "cx q[0],q[3];\n"
    )
    return str(path)


def test_map_global_three_gate(tmp_path, capsys):
    src = write_three_gate(tmp_path)
    out = tmp_path / "routed.qasm"
    stats = tmp_path / "stats.json"
    code = run(["map", "--input", src, "--arch", "line:4", "--strategy", "global", "--n", "1",
                "--output", str(out), "--stats", str(stats)])
    assert code == 0
    record = json.loads(stats.read_text())
    assert record["swap_count"] == 1
    assert record["gates_added"] == 3
    assert record["status"] == "optimal"
    assert record["gates_added"] == 3 * record["swap_count"]
    assert out.read_text().startswith("// initial_map:")
    (slice_record,) = record["per_slice"]
    assert slice_record["decisions"] > 0 and slice_record["propagations"] > 0
    assert slice_record["incumbents"][-1][1] == record["swap_count"]


def test_map_stats_carry_phase_times(tmp_path):
    src = write_three_gate(tmp_path)
    stats = tmp_path / "stats.json"
    code = run(["map", "--input", src, "--arch", "line:4", "--strategy", "sliced", "--slice-size", "1,3",
                "--output", str(tmp_path / "r.qasm"), "--stats", str(stats)])
    assert code == 0
    record = json.loads(stats.read_text())
    phases = record["phase_ms"]
    assert set(phases) == {"parse", "route", "verify", "emit"}
    assert all(ms >= 0 for ms in phases.values()) and phases["route"] > 0
    assert sum(phases.values()) <= record["total_elapsed_ms"]
    for slice_record in record["per_slice"]:
        assert slice_record["encode_ms"] > 0 and slice_record["decode_ms"] > 0


def test_cli_import_leaves_heavy_libraries_out():
    # importing the CLI is part of every run's start-up
    code = "import sys, swaproute.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'networkx', 'numpy', 'scipy'}))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_verbose_logs_each_incumbent_and_slice(tmp_path):
    src = write_three_gate(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    args = ["map", "--input", src, "--arch", "line:4", "--slice-size", "1,3", "--output", str(tmp_path / "r.qasm")]
    for flags in ([], ["--verbose"]):
        cmd = [sys.executable, "-m", "swaproute.cli", *flags, *args]
        err = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True).stderr
        incumbents = re.findall(r"incumbent: cost (\d+) at \d+\.\d{3} s \((probe|branch and bound)\)", err)
        slices = re.findall(r"slice (\d+) of (\d+): (optimal|best_effort), (\d+) gates added, \d+ conflicts", err)
        if not flags:
            assert not incumbents and not slices
            continue
        # The whole circuit is one slice of three slots; size 1 runs first.
        assert ("0", "1", "optimal", "3") in slices and ("0", "3", "optimal", "0") in slices
        assert ("0", "probe") in incumbents and ("1", "branch and bound") in incumbents


def test_verbose_holds_for_each_in_process_call(tmp_path, caplog):
    # The first call installs the stderr handler; each later call must
    # still set its own level.
    src = write_three_gate(tmp_path)
    args = ["map", "--input", src, "--arch", "line:4", "--strategy", "global", "--output", str(tmp_path / "r.qasm")]
    for flags, logged in (([], False), (["--verbose"], True), ([], False)):
        caplog.clear()
        assert run([*flags, *args]) == 0
        assert any(r.getMessage().startswith("incumbent: cost") for r in caplog.records) == logged


def test_map_output_verifies_via_cli(tmp_path):
    src = write_three_gate(tmp_path)
    out = tmp_path / "routed.qasm"
    assert run(["map", "--input", src, "--arch", "line:4", "--strategy", "global", "--output", str(out)]) == 0
    assert run(["verify", "--source", src, "--routed", str(out), "--arch", "line:4"]) == 0


def test_verify_with_explicit_initial_map(tmp_path):
    src = write_three_gate(tmp_path)
    out = tmp_path / "routed.qasm"
    run(["map", "--input", src, "--arch", "line:4", "--strategy", "global", "--output", str(out)])
    comment = next(ln for ln in out.read_text().splitlines() if ln.startswith("// initial_map:"))
    placement = comment.split(":", 1)[1].strip()
    assert run(["verify", "--source", src, "--routed", str(out), "--arch", "line:4",
                "--initial-map", placement]) == 0
    # a wrong map must be rejected as a verdict, not a usage error
    assert run(["verify", "--source", src, "--routed", str(out), "--arch", "line:4",
                "--initial-map", "0 0 1 2"]) == 3


def test_verify_detects_tampering(tmp_path):
    src = write_three_gate(tmp_path)
    out = tmp_path / "routed.qasm"
    run(["map", "--input", src, "--arch", "line:4", "--strategy", "global", "--output", str(out)])
    routed = out.read_text()
    first_swap = next(ln for ln in routed.splitlines() if ln.startswith("swap "))
    text = routed.replace(first_swap, "swap q[0],q[3];", 1)  # q[0] and q[3] are never adjacent on line:4
    assert text != routed
    tampered = tmp_path / "tampered.qasm"
    tampered.write_text(text)
    assert run(["verify", "--source", src, "--routed", str(tampered), "--arch", "line:4"]) == 3


def test_map_sliced_stats_carry_size_runs(tmp_path):
    src = write_three_gate(tmp_path)
    stats = tmp_path / "stats.json"
    code = run(["map", "--input", src, "--arch", "line:4", "--strategy", "sliced",
                "--slice-size", "1,2,3", "--output", str(tmp_path / "r.qasm"), "--stats", str(stats)])
    assert code == 0
    record = json.loads(stats.read_text())
    assert record["selected_slice_size"] in (1, 2, 3)
    assert {r["slice_size"] for r in record["size_runs"]} == {1, 2, 3}
    assert all(r["weighted_objective"] is None for r in record["size_runs"])
    assert record["status"] == "best_effort"


def test_map_sliced_under_noise_keeps_the_least_objective(tmp_path):
    src = write_three_gate(tmp_path)
    noise = tmp_path / "noise.json"
    records = [{"edge": [u, v], "cx": f} for (u, v), f in zip([(0, 1), (1, 2), (2, 3)], [0.99, 0.9, 0.97])]
    noise.write_text(json.dumps(records))
    stats = tmp_path / "stats.json"
    code = run(["map", "--input", src, "--arch", "line:4", "--strategy", "sliced", "--slice-size", "1,2,3",
                "--noise", str(noise), "--output", str(tmp_path / "r.qasm"), "--stats", str(stats)])
    assert code == 0
    record = json.loads(stats.read_text())
    objectives = {r["slice_size"]: r["weighted_objective"] for r in record["size_runs"]}
    assert record["weighted_objective"] == objectives[record["selected_slice_size"]] == min(objectives.values())


def test_map_cyclic_strategy(tmp_path):
    qasm = tmp_path / "qaoa.qasm"
    assert run(["gen-qaoa", "--qubits", "4", "--cycles", "2", "--seed", "3", "--output", str(qasm)]) == 0
    stats = tmp_path / "stats.json"
    code = run(["map", "--input", str(qasm), "--arch", "line:4", "--strategy", "cyclic",
                "--cyclic-block-slots", "12", "--output", str(tmp_path / "r.qasm"), "--stats", str(stats)])
    assert code == 0
    record = json.loads(stats.read_text())
    assert record["swap_count"] % 2 == 0  # identical copies, identical cost
    assert record["slice_sizes"] is None  # the block was encoded whole


def test_map_cyclic_with_sliced_block(tmp_path):
    qasm = tmp_path / "qaoa6.qasm"
    assert run(["gen-qaoa", "--qubits", "6", "--cycles", "2", "--seed", "7", "--output", str(qasm)]) == 0
    out = tmp_path / "routed.qasm"
    stats = tmp_path / "stats.json"
    code = run(["map", "--input", str(qasm), "--arch", "grid:2x3", "--strategy", "cyclic",
                "--cyclic-block-slots", "18", "--slice-size", "3,6", "--budget", "60",
                "--output", str(out), "--stats", str(stats)])
    assert code == 0
    assert json.loads(stats.read_text())["slice_sizes"] == [6]  # the block is sliced at the largest size only
    assert run(["verify", "--source", str(qasm), "--routed", str(out), "--arch", "grid:2x3"]) == 0


@pytest.mark.parametrize("strategy", ["sliced", "global", "cyclic"])
def test_map_with_more_qubits_than_the_device_exits_3(tmp_path, capsys, strategy):
    path = tmp_path / "five.qasm"
    path.write_text(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[5];\n'
        "cx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\ncx q[3],q[4];\n"
    )
    argv = ["map", "--input", str(path), "--arch", "line:4", "--strategy", strategy]
    if strategy == "cyclic":
        argv += ["--cyclic-block-slots", "4"]
    assert run(argv) == 3
    assert "unroutable: 5 logical qubits but only 4 physical qubits" in capsys.readouterr().err


def test_map_cyclic_requires_block_flag(tmp_path):
    src = write_three_gate(tmp_path)
    assert run(["map", "--input", src, "--arch", "line:4", "--strategy", "cyclic"]) == 1


def test_map_rejects_non_cyclic_block_split(tmp_path):
    src = write_three_gate(tmp_path)
    code = run(["map", "--input", src, "--arch", "line:4", "--strategy", "cyclic", "--cyclic-block-slots", "1"])
    assert code == 1


def test_map_deterministic_output(tmp_path):
    src = write_three_gate(tmp_path)
    a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
    run(["map", "--input", src, "--arch", "line:4", "--strategy", "sliced", "--slice-size", "2", "--output", str(a)])
    run(["map", "--input", src, "--arch", "line:4", "--strategy", "sliced", "--slice-size", "2", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_map_decompose_swaps(tmp_path):
    src = write_three_gate(tmp_path)
    out = tmp_path / "routed.qasm"
    run(["map", "--input", src, "--arch", "line:4", "--strategy", "global", "--decompose-swaps", "--output", str(out)])
    text = out.read_text()
    assert "swap" not in text.replace("// initial_map:", "")
    assert text.count("cx") == 3 + 3  # three source CNOTs plus one decomposed swap


def test_map_external_solver(tmp_path):
    src = write_three_gate(tmp_path)
    stats = tmp_path / "stats.json"
    solver = f"cmd:{sys.executable} {STUB} ok {{wcnf}}"
    code = run(["map", "--input", src, "--arch", "line:4", "--strategy", "global",
                "--solver", solver, "--output", str(tmp_path / "r.qasm"), "--stats", str(stats)])
    assert code == 0
    assert json.loads(stats.read_text())["swap_count"] == 1


def test_map_external_unsat_exits_3(tmp_path):
    src = write_three_gate(tmp_path)
    solver = f"cmd:{sys.executable} {STUB} unsat {{wcnf}}"
    code = run(["map", "--input", src, "--arch", "line:4", "--strategy", "global", "--solver", solver])
    assert code == 3


def test_map_timeout_exits_2(tmp_path, capsys):
    # QAOA-16 on Tokyo as one instance: encoding it and setting up its
    # clauses take tens of milliseconds, so a 1 ms budget runs out before
    # the search starts, however fast the search is.
    qasm = tmp_path / "qaoa16.qasm"
    run(["gen-qaoa", "--qubits", "16", "--cycles", "1", "--seed", "7", "--output", str(qasm)])
    code = run(["map", "--input", qasm.as_posix(), "--arch", "tokyo", "--strategy", "global", "--budget", "0.001"])
    assert code == 2
    assert "slice 0," in capsys.readouterr().err


@pytest.mark.parametrize("whole, code", [("timeout", 2), ("unroutable", 3)])
def test_map_best_of_failure_exit_class(tmp_path, monkeypatch, capsys, whole, code):
    # Slice size 1 runs out of its share; what the whole circuit did
    # decides between "no solution within budget" and "unroutable".
    def failing(circuit, g, cfg, size):
        if size < len(circuit.slots):
            raise SolveTimeoutError("share spent")
        raise SolveTimeoutError("budget expired") if whole == "timeout" else UnroutableError("refuted")

    monkeypatch.setattr(driver, "solve_sliced", failing)
    src = write_three_gate(tmp_path)
    assert run(["map", "--input", src, "--arch", "line:4", "--slice-size", "1,3"]) == code
    err = capsys.readouterr().err
    if whole == "timeout":
        assert "no solution within budget: no slice size routed within the budget (size 1: share spent; size 3: budget expired)" in err
    else:
        assert "unroutable: refuted" in err


@pytest.mark.parametrize("check", ["structural", "replay"])
def test_a_routing_that_fails_verification_exits_4(tmp_path, monkeypatch, capsys, check):
    # The solver's routing, with slot 1 given a swap on a non-edge of the
    # line (0 and 2 are not neighbours); with the structural check passed
    # over, the replay of the routed circuit catches it.
    solve = cli.solve_global

    def faulty(circuit, g, cfg):
        solution = solve(circuit, g, cfg)
        return dataclasses.replace(solution, swaps=(((0, 2),), *solution.swaps[1:]))

    monkeypatch.setattr(cli, "solve_global", faulty)
    if check == "replay":
        monkeypatch.setattr(cli, "verify_solution", lambda *args: True)
    out = tmp_path / "routed.qasm"
    argv = ["map", "--input", write_three_gate(tmp_path), "--arch", "line:4", "--strategy", "global",
            "--output", str(out)]
    assert run(argv) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert re.search(r"^internal error: .*non-edge \(0,2\)", err, re.M)
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("check", ["hard clauses", "cross-check"])
def test_a_model_that_fails_decode_exits_4(tmp_path, monkeypatch, capsys, check):
    # The solver's model with two values flipped: the hard-clause re-check
    # refuses it, and with that check passed over, decode's cross-check of
    # the placements does.
    solve = driver.solve_builtin

    def faulty(instance, budget):
        out = solve(instance, budget)
        values = list(out.model.values)
        values[1] = not values[1]
        values[2] = not values[2]
        return dataclasses.replace(out, model=Model(tuple(values)))

    monkeypatch.setattr(driver, "solve_builtin", faulty)
    if check == "cross-check":
        monkeypatch.setattr(MaxSatInstance, "hard_satisfied", lambda self, model: True)
    qasm, out = tmp_path / "qaoa4.qasm", tmp_path / "routed.qasm"
    assert run(["gen-qaoa", "--qubits", "4", "--cycles", "1", "--seed", "0", "--output", str(qasm)]) == 0
    argv = ["map", "--input", str(qasm), "--arch", "line:4", "--strategy", "global", "--output", str(out)]
    assert run(argv) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    expected = "model does not satisfy the hard constraints" if check == "hard clauses" else "places at slot"
    assert re.search(rf"^internal error: .*{expected}", err, re.M)
    assert "Traceback" not in err
    assert not out.exists()


def test_a_cyclic_block_that_does_not_close_exits_4(tmp_path, monkeypatch, capsys):
    # One more swap in the block's last slot flips its permutation's
    # parity, so the block cannot end where it started.
    sliced = driver.solve_sliced

    def open_block(*args, **kwargs):
        solution = sliced(*args, **kwargs)
        return dataclasses.replace(solution, swaps=(*solution.swaps[:-1], (*solution.swaps[-1], (0, 1))))

    monkeypatch.setattr(driver, "solve_sliced", open_block)
    qasm, out = tmp_path / "qaoa.qasm", tmp_path / "routed.qasm"
    assert run(["gen-qaoa", "--qubits", "4", "--cycles", "2", "--seed", "3", "--output", str(qasm)]) == 0
    assert run(["map", "--input", str(qasm), "--arch", "line:4", "--strategy", "cyclic",
                "--cyclic-block-slots", "12", "--output", str(out)]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert re.search(r"^internal error: cyclic solve produced a block that does not return", err, re.M)
    assert "Traceback" not in err
    assert not out.exists()


def test_map_usage_error_exits_1(tmp_path):
    assert run(["map", "--input", "/nonexistent.qasm", "--arch", "line:4"]) == 1
    src = write_three_gate(tmp_path)
    assert run(["map", "--input", src, "--arch", "not_an_arch"]) == 1
    assert run(["map", "--input", src, "--arch", "line:4", "--solver", "magic"]) == 1


@pytest.mark.parametrize("budget", ["nan", "0", "-1"])
def test_map_rejects_a_budget_that_is_not_a_positive_number(tmp_path, capsys, budget):
    src = write_three_gate(tmp_path)
    assert run(["map", "--input", src, "--arch", "line:4", "--budget", budget]) == 1
    assert "budget must be a positive, finite number" in capsys.readouterr().err


def test_emit_wcnf(tmp_path):
    src = write_three_gate(tmp_path)
    out = tmp_path / "inst.wcnf"
    assert run(["emit-wcnf", "--input", src, "--arch", "line:2"]) == 3  # too few physical qubits
    assert run(["emit-wcnf", "--input", src, "--arch", "line:4", "--output", str(out)]) == 0
    assert out.read_text().startswith("p wcnf ")


@pytest.mark.parametrize("clauses", ["encoded", "no hard", "no soft"])
def test_emit_wcnf_writes_the_text_of_emit_wcnf(tmp_path, monkeypatch, capsys, clauses):
    src = write_three_gate(tmp_path)
    inst = encode(parse_qasm(Path(src).read_text()), load_arch("line:4"), EncodeOptions(n=2))
    if clauses != "encoded":
        inst = MaxSatInstance(inst.num_vars, () if clauses == "no hard" else inst.hard,
                              () if clauses == "no soft" else inst.soft)
        monkeypatch.setattr(cli, "encode", lambda *args: inst)
    want = emit_wcnf(inst)
    out = tmp_path / "inst.wcnf"
    argv = ["emit-wcnf", "--input", src, "--arch", "line:4", "--n", "2", "--output"]
    assert run([*argv, str(out)]) == 0
    assert out.read_bytes() == want.encode()
    capsys.readouterr()
    assert run([*argv, "-"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("caller_collects", [True, False])
@pytest.mark.parametrize("outcome, code", [("ok", 0), ("usage", 1), ("timeout", 2), ("unroutable", 3), ("crash", None)])
def test_a_command_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, caller_collects, outcome, code):
    solve = cli.solve_global
    seen = []

    def solve_and_fail(circuit, g, cfg):
        seen.append(gc.isenabled())
        if outcome == "timeout":
            raise SolveTimeoutError("budget expired")
        if outcome == "unroutable":
            raise UnroutableError("refuted")
        if outcome == "crash":
            raise RuntimeError("not a classified failure")
        return solve(circuit, g, cfg)

    monkeypatch.setattr(cli, "solve_global", solve_and_fail)
    arch = "not_an_arch" if outcome == "usage" else "line:4"
    argv = ["map", "--input", write_three_gate(tmp_path), "--arch", arch, "--strategy", "global",
            "--output", str(tmp_path / "r.qasm")]
    enabled = gc.isenabled()
    (gc.enable if caller_collects else gc.disable)()
    try:
        if code is None:
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert main(argv) == code
        after = gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()
    assert after is caller_collects
    assert seen == ([] if outcome == "usage" else [False])


def test_a_commands_cyclic_garbage_does_not_grow_with_the_instance(tmp_path):
    # A command runs with the collector paused, so whatever it leaves in
    # reference cycles waits for the next collection.  That must be a fixed
    # set of objects (json's encoder, for the stats file), the same for a
    # one-slot map on line:4 as for a Tokyo search over 66k clauses.  The
    # argument parser is kept for the process, built by the gen-qaoa call.
    qaoa8 = tmp_path / "qaoa8.qasm"
    run(["gen-qaoa", "--qubits", "8", "--cycles", "1", "--seed", "7", "--output", str(qaoa8)])
    stats = tmp_path / "stats.json"
    garbage = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for src, arch, budget in ((write_three_gate(tmp_path), "line:4", []), (str(qaoa8), "tokyo", ["--budget", "2"])):
            gc.collect()
            code = main(["map", "--input", src, "--arch", arch, "--strategy", "global", *budget,
                         "--output", str(tmp_path / "r.qasm"), "--stats", str(stats)])
            garbage.append(gc.collect())
            assert code == 0
    finally:
        if enabled:
            gc.enable()
    record = json.loads(stats.read_text())
    assert record["hard_clauses"] > 50_000 and record["per_slice"][0]["conflicts"] > 0
    assert garbage[0] == garbage[1]


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    build = cli.build_parser
    built = []

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_parser", None)
    src = write_three_gate(tmp_path)
    routed, wcnf = tmp_path / "r.qasm", tmp_path / "i.wcnf"
    commands = [
        ["map", "--input", src, "--arch", "line:4", "--strategy", "global", "--output", str(routed)],
        ["map", "--input", src, "--arch", "line:4", "--no-such-option"],
        ["emit-wcnf", "--input", src, "--arch", "line:4", "--output", str(wcnf)],
    ]
    codes = [main(argv) for argv in commands]
    assert len(built) == 1
    written = routed.read_bytes(), wcnf.read_bytes()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    fresh = [subprocess.run([sys.executable, "-m", "swaproute.cli", *argv], capture_output=True, env=env).returncode
             for argv in commands]
    assert codes == fresh == [0, 1, 0]
    assert (routed.read_bytes(), wcnf.read_bytes()) == written


def _capture_stats_records(monkeypatch) -> list:
    records = []
    record_type = cli.StatsRecord

    def capture(**fields):
        records.append(record_type(**fields))
        return records[-1]

    monkeypatch.setattr(cli, "StatsRecord", capture)
    return records


def line4_wcnf(src: str) -> bytes:
    instance = encode(parse_qasm(Path(src).read_text()), load_arch("line:4"), EncodeOptions(n=1))
    return emit_wcnf(instance).encode()


def test_outputs_overwrite_a_longer_file_with_exactly_the_new_bytes(tmp_path, monkeypatch, capsys):
    src = write_three_gate(tmp_path)
    records = _capture_stats_records(monkeypatch)
    out, stats, wcnf = tmp_path / "r.qasm", tmp_path / "stats.json", tmp_path / "i.wcnf"
    for path in (out, stats, wcnf):
        path.write_bytes(b"x" * 65536 + b"\n")
    assert run(["map", "--input", src, "--arch", "line:4", "--slice-size", "1,3", "--output", str(out),
                "--stats", str(stats)]) == 0
    assert run(["emit-wcnf", "--input", src, "--arch", "line:4", "--output", str(wcnf)]) == 0
    capsys.readouterr()
    assert run(["map", "--input", src, "--arch", "line:4", "--slice-size", "1,3"]) == 0
    assert out.read_text() == capsys.readouterr().out
    record = records[0]
    assert record.size_runs and record.per_slice
    assert stats.read_text() == json.dumps(dataclasses.asdict(record), indent=2) + "\n"
    assert wcnf.read_bytes() == line4_wcnf(src)
    fresh = tmp_path / "new.wcnf"
    assert run(["emit-wcnf", "--input", src, "--arch", "line:4", "--output", str(fresh)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert fresh.read_bytes() == wcnf.read_bytes() and fresh.stat().st_mode & 0o777 == 0o666 & ~umask


def test_output_to_dev_null_exits_0(tmp_path):
    src = write_three_gate(tmp_path)
    assert run(["map", "--input", src, "--arch", "line:4", "--output", os.devnull, "--stats", os.devnull]) == 0
    assert run(["emit-wcnf", "--input", src, "--arch", "line:4", "--output", os.devnull]) == 0


def test_a_symlinked_output_stays_a_link_and_its_target_gets_the_bytes(tmp_path):
    src = write_three_gate(tmp_path)
    target, link = tmp_path / "target.wcnf", tmp_path / "link.wcnf"
    target.write_bytes(b"x" * 65536)
    link.symlink_to(target)
    assert run(["emit-wcnf", "--input", src, "--arch", "line:4", "--output", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == line4_wcnf(src)


def test_a_failed_write_cuts_the_file_at_the_bytes_written(tmp_path, monkeypatch, capsys):
    src = write_three_gate(tmp_path)
    out = tmp_path / "i.wcnf"
    out.write_bytes(b"x" * 65536)
    write = os.write
    calls = []

    def write_a_piece_then_fail(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write(fd, data[:5])

    monkeypatch.setattr(os, "write", write_a_piece_then_fail)
    assert run(["emit-wcnf", "--input", src, "--arch", "line:4", "--output", str(out)]) == 1
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and os.strerror(errno.ENOSPC) in err and "Traceback" not in err
    assert len(calls) == 2
    assert out.read_bytes() == b"p wcn"


def test_an_output_in_a_missing_directory_exits_1(tmp_path, capsys):
    src = write_three_gate(tmp_path)
    missing = str(tmp_path / "missing" / "out")
    assert run(["map", "--input", src, "--arch", "line:4", "--output", missing]) == 1
    assert run(["map", "--input", src, "--arch", "line:4", "--output", str(tmp_path / "r.qasm"),
                "--stats", missing]) == 1
    assert run(["emit-wcnf", "--input", src, "--arch", "line:4", "--output", missing]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_arch_subcommand_round_trips(tmp_path):
    out = tmp_path / "tokyo.arch"
    assert run(["arch", "--name", "tokyo", "--output", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("n 20\n")
    from swaproute.arch import ConnectivityGraph, load_arch

    assert load_arch(str(out)) == load_arch("tokyo")


def test_gen_qaoa_stdout(capsys):
    assert run(["gen-qaoa", "--qubits", "4", "--cycles", "1", "--seed", "0"]) == 0
    assert "OPENQASM 2.0;" in capsys.readouterr().out


def test_noise_flag_weighted_mode(tmp_path):
    src = write_three_gate(tmp_path)
    noise = tmp_path / "noise.json"
    records = [{"edge": [u, v], "cx": 0.99} for u, v in [(0, 1), (1, 2), (2, 3)]]
    noise.write_text(json.dumps(records))
    stats = tmp_path / "stats.json"
    code = run(["map", "--input", src, "--arch", "line:4", "--strategy", "global",
                "--noise", str(noise), "--output", str(tmp_path / "r.qasm"), "--stats", str(stats)])
    assert code == 0
    record = json.loads(stats.read_text())
    assert record["weighted_objective"] is not None
    assert record["swap_count"] == 1


@pytest.mark.parametrize("command", ["map", "verify"])
def test_malformed_parameter_is_a_usage_error(tmp_path, capsys, command):
    src = tmp_path / "in.qasm"
    src.write_text("qreg q[2];\nrz(1/0) q[0];\ncx q[0],q[1];\n")
    args = ["--input", str(src)] if command == "map" else ["--source", str(src), "--routed", str(src)]
    assert run([command, *args, "--arch", "line:2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2, col 5: division by zero")


@pytest.mark.parametrize("swap", [None, "abc"])
def test_malformed_noise_record_is_a_usage_error(tmp_path, capsys, swap):
    src = write_three_gate(tmp_path)
    noise = tmp_path / "noise.json"
    records = [{"edge": [u, v], "cx": 0.99} for u, v in [(0, 1), (1, 2), (2, 3)]]
    records[0]["swap"] = swap
    noise.write_text(json.dumps(records))
    assert run(["map", "--input", src, "--arch", "line:4", "--noise", str(noise)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {noise}: malformed record {records[0]!r}")


@pytest.mark.parametrize(
    "record",
    [
        {"edge": [0.9, 1.7], "cx": 0.99},  # fractional edge ends
        {"edge": [0, True], "cx": 0.99},  # a boolean edge end
        {"edge": [0, 1], "cx": True},  # a boolean fidelity
        {"edge": [0, 1], "cx": "0.99"},  # a fidelity given as a string
        {"edge": [0, 1], "cx": 0.99, "swap": False},  # a boolean swap fidelity
    ],
)
def test_noise_record_of_the_wrong_json_type_is_a_usage_error(tmp_path, capsys, record):
    src = tmp_path / "in.qasm"
    src.write_text("qreg q[2];\ncx q[0],q[1];\n")
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps([record]))
    assert run(["map", "--input", str(src), "--arch", "line:2", "--noise", str(noise)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {noise}: malformed record {record!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["arch", "map"])
@pytest.mark.parametrize(
    "contents, message",
    [
        pytest.param("n -3\n", "negative qubit count -3", id="negative"),
        pytest.param("n 4\n0 1\n2 3\n", "connectivity graph is disconnected", id="disconnected"),
        pytest.param("n 3\n0 5\n", "edge (0,5) out of range for 3 qubits", id="out-of-range"),
    ],
)
def test_device_file_errors_name_the_file(tmp_path, capsys, command, contents, message):
    device = tmp_path / "device.txt"
    device.write_text(contents)
    src = tmp_path / "in.qasm"
    src.write_text("qreg q[2];\ncx q[0],q[1];\n")
    args = ["arch", "--name", str(device)] if command == "arch" else ["map", "--input", str(src), "--arch", str(device)]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {device}: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["map", "verify"])
def test_a_device_with_a_huge_count_and_one_edge_exits_1(tmp_path, capsys, monkeypatch, command):
    device = tmp_path / "device.txt"
    device.write_text("n 1000000000\n0 1\n")
    src = tmp_path / "in.qasm"
    src.write_text("qreg q[2];\ncx q[0],q[1];\n")

    def refuse(self):  # a regression fails here instead of allocating a billion lists
        raise AssertionError("adjacency lists built for a graph that cannot be connected")

    monkeypatch.setattr(ConnectivityGraph, "_adjacency", refuse)
    if command == "map":
        args = ["map", "--input", str(src), "--arch", str(device)]
    else:
        args = ["verify", "--source", str(src), "--routed", str(src), "--arch", str(device), "--initial-map", "0,1"]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {device}: connectivity graph is disconnected")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["map", "verify", "emit-wcnf", "arch"])
def test_a_parametric_device_above_the_cap_exits_1(tmp_path, capsys, monkeypatch, command):
    def refuse(*args):  # a regression fails here instead of building a billion edges
        raise AssertionError("edges built for a device above the size cap")

    monkeypatch.setattr("swaproute.arch._line", refuse)
    src = tmp_path / "in.qasm"
    src.write_text("qreg q[2];\ncx q[0],q[1];\n")
    device = "line:1000000000"
    args = {
        "map": ["map", "--input", str(src), "--arch", device],
        "verify": ["verify", "--source", str(src), "--routed", str(src), "--arch", device, "--initial-map", "0,1"],
        "emit-wcnf": ["emit-wcnf", "--input", str(src), "--arch", device],
        "arch": ["arch", "--name", device],
    }[command]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {device} has 1000000000 qubits, more than the 4096")
    assert "Traceback" not in err


def test_emit_wcnf_of_qaoa8_on_tokyo_has_the_golden_digest(tmp_path):
    # The whole command path: gen-qaoa, the clause arena through the
    # encoder and the writer, and the file written in place.
    src, out = tmp_path / "qaoa8.qasm", tmp_path / "qaoa8.wcnf"
    assert run(["gen-qaoa", "--qubits", "8", "--cycles", "1", "--seed", "7", "--output", str(src)]) == 0
    out.write_text("x" * 3_000_000)  # a longer file, overwritten in place
    assert run(["emit-wcnf", "--input", str(src), "--arch", "tokyo", "--n", "1", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_WCNF_SHA256["qaoa8-tokyo-n1"]
