"""Watching the solver reduce a CNF clause by clause.

Each clause becomes a symbolic factor.  The solver freezes the first
factor, builds a projection that keeps its ON-set and aims everything
else at the next factor's OFF-set, and in the paper rewrites the
remaining factors through that map.  The product of the remaining
factors never changes, so the last factor ends up canonically equal to
the whole conjunction: satisfiability, witnesses, and solution counts
drop out of it directly.  Each frozen factor printed below is the
conjunction of the clauses reduced so far.  The solver itself rewrites
nothing: it keeps each step's map, the frozen factor and the pinned
off-point, and builds the next target from its clause and those maps
only when it needs the target's OFF-set point.
"""

from projsat import parse_dimacs
from projsat.solver import SolveStatus, solve

SAT_TEXT = """\
p cnf 4 3
-1 2 4 0
-2 3 -4 0
1 3 -4 0
"""

UNSAT_TEXT = """\
p cnf 2 4
1 2 0
1 -2 0
-1 2 0
-1 -2 0
"""


def show(name, text):
    print(f"== {name} ==")
    formula = parse_dimacs(text)
    result = solve(formula)
    for i, step in enumerate(result.steps, start=1):
        line = f"f{i} = {step.func.format_expr(max_terms=12)}"
        if step.off_point is not None:
            off = "".join(str(b) for b in step.off_point)
            line += f"   (next projection lands on {off})"
        print(" ", line)
        print(f"      factor size {step.factor_size}, space holds "
              f"{step.remaining_before} -> {step.remaining_after} nodes")
    final = result.final
    print(f"  f{len(result.steps) + 1} = {final.format_expr(max_terms=12)}"
          "   (final factor: the whole conjunction)")
    print("  verdict:", result.status.value)
    if result.status is SolveStatus.SAT:
        print("  witness:", result.witness)
    print()


show("three clauses over four variables", SAT_TEXT)
show("all four clauses over two variables", UNSAT_TEXT)
