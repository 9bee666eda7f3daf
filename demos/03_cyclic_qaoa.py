"""Cyclic circuits: route one block, stitch as many copies as you like.

QAOA circuits repeat the same cost-plus-mixer block every cycle.
Constraining the block's final placement to equal its initial one makes
copies chain without any glue swaps, so the whole circuit costs exactly
(cycles x per-block swaps) -- and a solution for two cycles extends to
two hundred for free.
"""

from swaproute import (
    Circuit,
    DriverConfig,
    apply_routing,
    generate_qaoa_maxcut,
    load_arch,
    solve_cyclic,
    verify,
    verify_solution,
)


def main():
    block = generate_qaoa_maxcut(6, 1, graph_seed=7)
    device = load_arch("grid:2x3")
    print(f"QAOA block: 6 qubits, {len(block.slots)} two-qubit gates (3-regular interactions)")

    # the block itself is solved sliced; its last slice is pinned back to
    # the block's starting placement, and if that is refuted the whole
    # block is encoded at once
    one = solve_cyclic(block, 1, device, DriverConfig(n=1, budget=60), slice_size=6)
    print(f"per-block cost: {one.swap_count} swaps; block returns to its initial placement: "
          f"{one.final_map == one.initial_map}")

    for cycles in (2, 4):
        sol = solve_cyclic(block, cycles, device, DriverConfig(n=1, budget=60), slice_size=6)
        full = Circuit(6, block.gates * cycles)
        assert verify_solution(full, sol, device).ok
        routed = apply_routing(full, sol, device.num_physical)
        assert verify(full, routed, sol.initial_map, device).ok
        print(f"{cycles} cycles: {sol.swap_count} swaps total "
              f"(= {cycles} x {sol.swap_count // cycles}), stitched output verified")


if __name__ == "__main__":
    main()
