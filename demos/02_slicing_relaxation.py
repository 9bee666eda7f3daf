"""Slicing: smaller solver calls, locally optimal answers.

Solving a circuit slice by slice pins each slice's starting placement
to where the previous slice ended.  Each slice is routed optimally in
isolation, but a placement that is perfect for one slice can be a trap
for the next -- the classic demonstration is a star-shaped device where
the first gate fits anywhere but only the hub placement serves both
gates.  A slice that becomes outright unsolvable is merged into the
slice before it, and the joined slice is solved again.
"""

from swaproute import (
    Circuit,
    DriverConfig,
    Gate,
    diameter,
    load_arch,
    solve_best,
    solve_global,
    solve_sliced,
)


def star_gap():
    device = load_arch("star:4")
    circuit = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (0, 2))))
    cfg = DriverConfig(n=diameter(device))
    whole = solve_global(circuit, device, cfg)
    sliced = solve_sliced(circuit, device, cfg, slice_size=1)
    print("star:4, gates cx(0,1) cx(0,2)")
    print(f"  whole-circuit optimum: {whole.swap_count} swaps")
    print(f"  slice-by-slice:        {sliced.swap_count} swap(s)  <- locally optimal only")


def merge():
    device = load_arch("line:4")
    gates = tuple(Gate("cx", p) for p in [(1, 0), (3, 0), (3, 1), (0, 2), (3, 1)])
    circuit = Circuit(4, gates)
    sol = solve_sliced(circuit, device, DriverConfig(n=1), slice_size=1)
    print("\nline:4, five gates, slice size 1, one swap allowed per slot")
    for s in sol.per_slice_stats:
        print(f"  slice {s.index}: {s.status}, {s.backtracks} refuted slice(s) merged in")
    print(f"  five slices merged down to {len(sol.per_slice_stats)}, {sol.swap_count} swaps")


def best_of_sizes():
    device = load_arch("line:4")
    gates = tuple(Gate("cx", p) for p in [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3)])
    circuit = Circuit(4, gates)
    out = solve_best(circuit, device, DriverConfig(n=1, slice_sizes=(1, 2, 3, 5)))
    print("\nbest-of slice sizes {1, 2, 3, 5}:")
    for run in out.runs:
        cost = "-" if run.gates_added is None else run.gates_added
        print(f"  size {run.slice_size}: {run.status:10s} cost {cost}")
    print(f"  selected size {out.selected_size} with {out.solution.gates_added} gates added")


if __name__ == "__main__":
    star_gap()
    merge()
    best_of_sizes()
