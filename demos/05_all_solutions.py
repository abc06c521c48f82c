"""Model enumeration, cross-checked against exhaustive evaluation.

Because the final factor of a solve is the conjunction itself in
canonical form, walking its ON-set enumerates every model with no
duplicates and no blocking clauses.  The exhaustive truth-table oracle
confirms the count and the set.
"""

import random

from projsat import Clause, CnfFormula, parse_dimacs
from projsat.oracle import tt_of_formula
from projsat.solver import solve

TEXT = """\
p cnf 5 6
1 -2 3 0
-1 4 0
2 -4 5 0
-3 -5 0
1 2 5 0
-2 -3 -4 0
"""

formula = parse_dimacs(TEXT)
models = solve(formula).final.enumerate_on_set()
print(f"{formula.var_count} variables, {len(formula.clauses)} clauses")
print("models found:", len(models))
for point in models:
    print("  ", "".join(str(b) for b in point))

table = tt_of_formula(formula)
oracle = set(table.satisfying_points())
print("oracle model count:", table.count())
print("sets agree exactly:", set(models) == oracle)

print()
print("== the same check over random formulas ==")
rng = random.Random(7)
agreements = 0
for _ in range(50):
    n = rng.randint(2, 8)
    clauses = []
    for _ in range(rng.randint(1, 12)):
        width = rng.randint(1, 3)
        chosen = rng.sample(range(1, n + 1), min(width, n))
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    f = CnfFormula(n, [Clause.from_ints(c) for c in clauses])
    got = solve(f).final.enumerate_on_set()
    want = set(tt_of_formula(f).satisfying_points())
    agreements += set(got) == want
print(f"agreement on {agreements}/50 random instances")
