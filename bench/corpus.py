"""Seeded inputs for the three benchmark workloads.

Every row is one ``swaproute`` command line over input files that the
benchmark writes itself.  The two-qubit structure of each row is a fixed
circuit (a QAOA block, or a random circuit seeded by the row's name), so
a row is equally hard under every seed; the workload seed draws the
one-qubit gates, their angles and the noise fidelities.  The built-in
solver's time on unrelated random circuits of one shape, or even on one
circuit with its qubits relabelled, varies by one to two orders of
magnitude, which would swamp the change between two program versions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from swaproute.arch import load_arch
from swaproute.circuit import Circuit, Gate, emit_qasm, generate_qaoa_maxcut

QAOA_GRAPH_SEED = 7  # the QAOA family of the ROADMAP baseline


@dataclass
class Row:
    """One command of a workload, with what its correctness check needs."""

    name: str
    command: str  # "map" or "emit-wcnf"
    arch: str
    source: Circuit
    n: int = 1
    strategy: str = "sliced"
    budget: float | None = None
    noise: list[dict] | None = None
    block_slots: int | None = None

    def argv(self, work: Path) -> list[str]:
        if self.command == "emit-wcnf":
            return ["emit-wcnf", "--input", str(work / f"{self.name}.qasm"), "--arch", self.arch,
                    "--n", str(self.n), "--output", str(work / f"{self.name}.wcnf")]
        argv = ["map", "--input", str(work / f"{self.name}.qasm"), "--arch", self.arch,
                "--strategy", self.strategy, "--n", str(self.n),
                "--output", str(work / f"{self.name}.out.qasm"),
                "--stats", str(work / f"{self.name}.stats.json")]
        if self.budget is not None:
            argv += ["--budget", str(self.budget)]
        if self.noise is not None:
            argv += ["--noise", str(work / f"{self.name}.noise.json")]
        if self.block_slots is not None:
            argv += ["--cyclic-block-slots", str(self.block_slots)]
        return argv

    @property
    def source_slots(self) -> int:
        return len(self.source.slots)

    def write(self, work: Path):
        (work / f"{self.name}.qasm").write_text(emit_qasm(self.source), encoding="utf-8")
        if self.noise is not None:
            (work / f"{self.name}.noise.json").write_text(json.dumps(self.noise), encoding="utf-8")


def base_circuit(num_qubits: int, slots: int, tag: str) -> Circuit:
    """Fixed two-qubit structure: every qubit is used, no pair twice in a row."""
    rng = random.Random(f"base/{tag}")
    order = list(range(num_qubits))
    rng.shuffle(order)
    pairs = [tuple(order[i : i + 2]) for i in range(0, num_qubits - 1, 2)]
    if num_qubits % 2:
        pairs.append((order[-1], order[0]))
    while len(pairs) < slots:
        a, b = rng.sample(range(num_qubits), 2)
        if {a, b} != set(pairs[-1]):
            pairs.append((a, b))
    return Circuit(num_qubits, tuple(Gate("cx", p) for p in pairs[:slots]))


def dress(circuit: Circuit, rng: random.Random) -> Circuit:
    """Draw one-qubit gates around the two-qubit gates of ``circuit`` from ``rng``."""
    gates = []
    for gate in circuit.gates:
        if gate.is_two_qubit:
            if rng.random() < 0.5:
                gates.append(Gate("h", (gate.operands[0],)))
            if rng.random() < 0.5:
                gates.append(Gate("rz", (gate.operands[1],), (round(rng.uniform(-3.0, 3.0), 6),)))
        gates.append(gate)
    gates.append(Gate("rx", (rng.randrange(circuit.num_logical),), (round(rng.uniform(-3.0, 3.0), 6),)))
    return Circuit(circuit.num_logical, tuple(gates))


def noise_records(arch: str, rng: random.Random) -> list[dict]:
    g = load_arch(arch)
    return [{"edge": [u, v], "cx": round(rng.uniform(0.95, 0.995), 4)} for u, v in g.sorted_edges()]


def exact_small(seed: int) -> list[Row]:
    """Whole-circuit solves that prove optimality on small devices."""
    rng = random.Random(f"exact-small/{seed}")
    rows = []
    for name, arch, q, k, n in (
        ("line4-8s", "line:4", 4, 8, 1),
        ("line4-10s", "line:4", 4, 10, 1),
        ("line4-n2", "line:4", 4, 6, 2),
        ("line4-ndiam", "line:4", 4, 4, 3),  # n = diameter: the paper's optimality setting
        ("line5-5s", "line:5", 5, 5, 1),
        ("line6-5s", "line:6", 5, 5, 1),
        ("cycle4-10s", "cycle:4", 4, 10, 1),
        ("cycle4-ndiam", "cycle:4", 4, 6, 2),  # n = diameter of cycle:4
        ("cycle6-5s", "cycle:6", 5, 5, 1),
        ("grid3x3-6s", "grid:3x3", 4, 6, 1),
    ):
        rows.append(Row(name, "map", arch, dress(base_circuit(q, k, name), rng), n=n, strategy="global", budget=30))
    for name, arch, q, k in (("line4-noise", "line:4", 4, 6), ("cycle4-noise", "cycle:4", 4, 6)):
        rows.append(Row(name, "map", arch, dress(base_circuit(q, k, name), rng), strategy="global", budget=30,
                        noise=noise_records(arch, rng)))
    qaoa4 = generate_qaoa_maxcut(4, 2, QAOA_GRAPH_SEED)
    rows.append(Row("qaoa4-cyclic", "map", "cycle:4", dress(qaoa4, rng), strategy="cyclic", budget=30,
                    block_slots=len(qaoa4.slots) // 2))
    return rows


def tokyo_wcnf(seed: int) -> list[Row]:
    """Device-scale encodings written for an external solver; no search."""
    rng = random.Random(f"tokyo-wcnf/{seed}")
    rows = []
    for arch, q in (("tokyo_minus", 8), ("tokyo_plus", 8), ("tokyo_minus", 12)):
        rows.append(Row(f"qaoa{q}-{arch}", "emit-wcnf", arch, dress(generate_qaoa_maxcut(q, 1, QAOA_GRAPH_SEED), rng)))
    for arch, q, k, n in (("tokyo", 16, 10, 1), ("tokyo", 8, 1, 2)):
        name = f"rand{q}x{k}-n{n}-{arch}"
        rows.append(Row(name, "emit-wcnf", arch, dress(base_circuit(q, k, name), rng), n=n))
    return rows


def tokyo_map(seed: int) -> list[Row]:
    """The default sliced best-of path on Tokyo under fixed budgets.

    QAOA-4, QAOA-8 and the two global rows route within their budgets;
    the QAOA-12/16 and random 8x20 rows do not and count as failures, so
    a solver that starts routing them shows in ``success_frac``.
    """
    rng = random.Random(f"tokyo-map/{seed}")
    rows = [Row("qaoa4", "map", "tokyo", dress(generate_qaoa_maxcut(4, 1, QAOA_GRAPH_SEED), rng), budget=2)]
    for q, budget in ((8, 8), (12, 3), (16, 3)):
        rows.append(Row(f"qaoa{q}", "map", "tokyo", dress(generate_qaoa_maxcut(q, 1, QAOA_GRAPH_SEED), rng), budget=budget))
    rows.append(Row("rand8x20", "map", "tokyo", dress(base_circuit(8, 20, "rand8x20"), rng), budget=2))
    rows.append(Row("rand6x8-global", "map", "tokyo", dress(base_circuit(6, 8, "rand6x8-global"), rng),
                    strategy="global", budget=3))
    rows.append(Row("rand8x10-global", "map", "tokyo", dress(base_circuit(8, 10, "rand8x10-global"), rng),
                    strategy="global", budget=4))
    return rows


WORKLOADS = {"exact-small": exact_small, "tokyo-wcnf": tokyo_wcnf, "tokyo-map": tokyo_map}


def smoke(seed: int) -> dict[str, list[Row]]:
    """One tiny row per workload, for the benchmark's own smoke test."""
    rng = random.Random(f"smoke/{seed}")
    return {
        "exact-small": [Row("line4-4s", "map", "line:4", dress(base_circuit(4, 4, "smoke"), rng), strategy="global", budget=30)],
        "tokyo-wcnf": [Row("rand8x2-tokyo", "emit-wcnf", "tokyo", dress(base_circuit(8, 2, "smoke"), rng))],
        "tokyo-map": [Row("rand4x3-tokyo", "map", "tokyo", dress(base_circuit(4, 3, "smoke"), rng), budget=10)],
    }
