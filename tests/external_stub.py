"""Stand-in external MaxSAT solver for subprocess tests.

Speaks the MaxSAT-evaluation stdout protocol.  Modes (first argument):
  ok      solve for real with the built-in solver, print the optimum
  copy    like ok, after copying the WCNF file to the path in the third argument
  binary  like ok, but print the model as a 0/1 string
  unsat   claim unsatisfiability
  bogus   print a deliberately wrong model (all variables false)
  silent  print nothing useful
  sleep   stall forever (for budget-kill tests)
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # run from a checkout, not an install

from swaproute.maxsat import SolveStatus, parse_wcnf, solve_builtin  # noqa: E402


def main() -> int:
    mode, path = sys.argv[1], sys.argv[2]
    if mode == "sleep":
        print("c thinking very hard", flush=True)
        time.sleep(3600)
        return 0
    if mode == "unsat":
        print("s UNSATISFIABLE")
        return 0
    if mode == "silent":
        print("c nothing to see here")
        return 0
    if mode == "copy":
        Path(sys.argv[3]).write_bytes(Path(path).read_bytes())
    instance = parse_wcnf(Path(path).read_text())
    if mode == "bogus":
        print("s OPTIMUM FOUND")
        print("o 0")
        print("v " + " ".join(str(-v) for v in range(1, instance.num_vars + 1)))
        return 0
    outcome = solve_builtin(instance)
    if outcome.status is SolveStatus.HARD_UNSAT:
        print("s UNSATISFIABLE")
        return 0
    assert outcome.status is SolveStatus.OPTIMAL
    print(f"o {outcome.falsified_weight}")
    print("s OPTIMUM FOUND")
    if mode == "binary":
        print("v " + "".join("1" if outcome.model[v] else "0" for v in range(1, instance.num_vars + 1)))
    else:
        lits = [v if outcome.model[v] else -v for v in range(1, instance.num_vars + 1)]
        print("v " + " ".join(map(str, lits)) + " 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
