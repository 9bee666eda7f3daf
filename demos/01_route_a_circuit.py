"""Route a small circuit onto a path-shaped device, start to finish.

The circuit applies CNOTs between q0 and three partners.  No placement
on a path of four qubits makes all three partners adjacent to q0 at
once, so at least one swap is unavoidable; the solver proves one is
also enough.
"""

from swaproute import (
    DriverConfig,
    apply_routing,
    emit_qasm,
    load_arch,
    parse_qasm,
    solve_global,
    verify,
    verify_solution,
)

SOURCE = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
cx q[0],q[1];
h q[2];
cx q[0],q[2];
cx q[0],q[3];
"""


def main():
    circuit = parse_qasm(SOURCE)
    device = load_arch("line:4")
    print(f"circuit: {len(circuit.gates)} gates, {len(circuit.slots)} two-qubit slots")
    print(f"device:  line:4 with edges {device.sorted_edges()}")

    solution = solve_global(circuit, device, DriverConfig(n=1))
    print(f"\nstatus:       {solution.status}")
    print(f"initial map:  q{{i}} -> physical {list(solution.initial_map.placement)}")
    print(f"swaps:        {solution.swaps}")
    print(f"cost:         {solution.swap_count} swap(s) = {solution.gates_added} CNOTs added")

    assert verify_solution(circuit, solution, device).ok
    routed = apply_routing(circuit, solution, device.num_physical)
    assert verify(circuit, routed, solution.initial_map, device).ok
    print("\nrouted circuit (verified):\n")
    print(emit_qasm(routed))


if __name__ == "__main__":
    main()
