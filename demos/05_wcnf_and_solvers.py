"""The MaxSAT layer on its own: WCNF files and pluggable solvers.

Routing reduces to weighted MaxSAT, and that layer is usable directly:
build instances, write classic ``p wcnf`` files any off-the-shelf
MaxSAT solver understands, read them back, and solve with the built-in
branch-and-bound reference solver (exact, anytime, auditable).
"""

from swaproute import (
    Circuit,
    EncodeOptions,
    Gate,
    InstanceBuilder,
    decode,
    emit_wcnf,
    encode,
    load_arch,
    parse_wcnf,
    solve_builtin,
)


def tiny_maxsat():
    b = InstanceBuilder()
    x, y = b.new_var(), b.new_var()
    b.add_hard([x, y])
    b.add_soft([-x], 5)
    b.add_soft([-y], 1)
    inst = b.build()
    out = solve_builtin(inst)
    print("hard {x or y}, soft {not x: 5, not y: 1}")
    print(f"  model: x={out.model[x]}, y={out.model[y]}; "
          f"satisfied weight {inst.soft_weight_total - out.falsified_weight}")
    print("  wcnf:")
    for line in emit_wcnf(inst).splitlines():
        print(f"    {line}")


def routing_as_wcnf():
    circuit = Circuit(4, (Gate("cx", (0, 1)), Gate("cx", (0, 2)), Gate("cx", (0, 3))))
    device = load_arch("line:4")
    inst = encode(circuit, device, EncodeOptions(n=1))
    print(f"\nrouting instance: {inst.num_vars} vars, {len(inst.hard)} hard, {len(inst.soft)} soft")

    text = emit_wcnf(inst)
    reparsed = parse_wcnf(text)
    assert solve_builtin(reparsed).falsified_weight == solve_builtin(inst).falsified_weight
    print("  emit -> parse -> solve reproduces the optimum")

    out = solve_builtin(inst)
    solution = decode(out.model, inst, status="optimal")
    print(f"  decoded: {solution.swap_count} swap(s) at slots "
          f"{[k + 1 for k, s in enumerate(solution.swaps) if s]}")
    print("\nto use an external solver instead:")
    print('  swaproute map --input c.qasm --arch tokyo --solver "cmd:open-wbo-inc {wcnf}"')


if __name__ == "__main__":
    tiny_maxsat()
    routing_as_wcnf()
