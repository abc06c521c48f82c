"""SAT by chained projective-cofactor reduction.

The paper keeps one symbolic factor per clause.  At step i the current
factor f is frozen and a projection is chosen that pins f's ON-set and
sends every other point to one OFF-set point p of the next remaining
factor t (as it currently stands, after earlier reductions).  Every
remaining factor g is rewritten through that map.  For this
single-point map the rewrite has a closed form,

    g o pi == ite(f, g, g restricted to supp(t) = p),

so the substitution vector is never built.  Each step's record holds
the frozen factor and the pinned cube supp(t) = p, which together
determine the map; p itself is the cube with 0 everywhere else, since
the off-point walk sets a bit only on t's path, which lies inside
supp(t).  Because the product of the remaining factors is always
bounded by the chosen target, each step preserves that product
exactly; the final factor therefore equals the conjunction of the
whole formula.  solve() only decides: the solution set is
final.enumerate_on_set(), and oracle_check() compares the final factor
with a reference built without the solver.

The frozen factors are the prefixes of that conjunction.  With
C_0, ..., C_{k-1} the non-tautological clauses in solve order and
P_i = C_0 & ... & C_i, the record of step i holds func == P_i when it
has pins, and func == 1, a skipped step, when it has none.  Sketch, by
induction over the steps: at the start of step i every unfrozen factor
w_j agrees with its clause C_j on the ON-set of P_{i-1}, since each
map so far is the identity on the ON-set of its frozen factor, which
holds that of P_{i-1}.  A skipped w_i == 1 therefore means P_{i-1}
implies C_i, so P_i == P_{i-1}.  Otherwise either i == 0 and
w_0 == C_0 == P_0, or the last step not skipped froze f == P_{i-1}
(P did not change since) and aimed at w_i: a target becomes f & t,
never 1, so it is the next step not skipped.  Then w_i == f & t lies
below P_{i-1} and, agreeing with C_i there, is P_i.  A rewrite
ite(f, g, ...) keeps g on the ON-set of f == P_i, which carries the
agreement to step i + 1.

A corollary: on the ON-set of each frozen factor every unfrozen
factor equals its clause C, so with P_s and c_s the frozen factor and
the pins of the s-th step that has pins, one factor evolves as

    w^(0) == C,    w^(s+1) == ite(P_s, C, w^(s) restricted by c_s).

Restriction by a cube A distributes over ite, and restricting g|c
further by A is g restricted by c and A together, c winning on any
variable both pin, since g|c no longer tests c's variables.  Unrolled:

    w^(s+1)|A == ite(P_s|A, C|A, w^(s)|(c_s and A)),    w^(0)|A == C|A.

solve() therefore keeps no rewritten factors, only the clauses and the
step records, whose pinned ones are the maps (P_s, c_s), and builds a
factor when it is needed, by a walk over the records from the newest
back, skipped ones passed over, with A empty at the start.  The walk
stops at the first level whose P_s|A is 1, where the value is C|A; a
level whose P_s|A is 0 is the branch below it and is passed through;
every other level is an ite of the result.  The clause is restricted
only where its restriction is used: at each kept level and where the
walk ends, never at a level passed through.  A factor is needed only
as a candidate target: the search starts after the last target, and
the first candidate that is not 1 is the target.  Those before it are
1 and stay 1, since ite(P, C, 1) == 1 when C is 1 on the ON-set of P,
so their steps are skipped; and the target becomes

    ite(f, C_t, t restricted by its own pins) == f & C_t,

as t is 0 at the pinned point, which is the prefix rule again.  So
each factor is built at most once per solve.  The pins and the
off-point still come from the built target, never from its clause
(see the warning at the end).  Both are ints, bit v for variable v:
supp(t) is the support mask the space keeps for t's root, set when
that node was made, so reading it walks nothing, and the off-point
walk sets the bits of p, which all lie inside supp(t).  The walk that
builds a factor gathers its cube A as two such ints too, the mask of
the pinned variables and their bits, and adds the cube (support, p) of
a map with the map's pins winning: bits = (bits & ~support) | p and
mask |= support.  The walk is solve()'s inner loop, so it runs on
node handles: it hands the space's unchecked restriction the cube as
those two ints, which the space spells out per level only if they
meet the support, calls ite directly, compares handles with 0 and 1,
and returns a handle, which solve() wraps once it is the target.  It
stops after about two records on the random, pigeonhole and chain
instances of the benchmark, so the cost left in it is these calls.

Each step leaves the functions it built behind in the space's tables,
so solve() ends every step with a space.collect() whose roots are the
clauses, the frozen factors of the records and the next frozen factor:
solve()'s whole state, passed as one chained iterable that collect()
reads only when it sweeps.  They are roots enough: solve() builds the
space, and until it returns every function in use is among them, so no
reference counts are needed.  A sweep keeps each live handle, and the
records stay == to anything built later in the same space.

Any clause order gives a final factor == to the conjunction, so the
order moves only the steps.  The default, bottom-up, is the bucket
order of directional resolution: a clause's BDD is rooted at its
smallest variable, and the clauses are stable-sorted by
bottom_up_key(), minus that variable, so the deepest roots are
reduced first and ties keep input order.  input is the paper's order.

The loop counts no nodes.  A record's remaining_before and
remaining_after are the space's unique_nodes, the decision nodes in
its table, read when the step starts and once the next frozen factor
is built, before the sweep: the nodes of every function still in use
plus the garbage the next sweep may free.  A skipped step reads both
where the step before it read remaining_after.  factor_size, the
frozen factor's node count, is counted when it is read.

Targeting the factor as already reduced matters: aiming at the
original clause instead lets a later factor drift above its clause,
after which the product is no longer preserved and the verdict can be
wrong.  See tests/test_solver.py for a four-clause instance that
trips the original-clause variant.  The clause is safe only where the
prefix rule makes it equal to the factor: as the then-branch, on the
ON-set of a frozen factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
from typing import Optional

from .cnf import Clause, CnfFormula, clause_to_func, formula_to_func
from .engine import BoolFunc, BoolSpace, mask_levels, mask_point
from .oracle import MAX_TABLE_VARS, tt_equal, tt_of_formula, tt_of_func
# projection_for is unused here; bench/tracing.py wraps it under this name
from .projections import projection_for


class SolveStatus(str, Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"


@dataclass
class StepRecord:
    """One outer-loop step, at its factor's position in SolveResult.steps.

    ``func`` is the frozen factor, and ``support`` and ``bits`` are the
    cube supp(t) = p that the step's map pins off the frozen factor, p
    being the smallest OFF-set point of the step's target t: bit v of
    ``support`` is set for each v in supp(t), and bit v of ``bits`` is
    p[v], which is 0 outside supp(t).  Together they determine the
    projection, which takes each remaining factor g to ite(func, C, g
    restricted by the cube), C being g's clause.  solve() builds a
    factor from its clause and these maps only when it is a candidate
    target.  ``support`` and ``bits`` are None for a skipped step, whose
    factor was 1.  By the prefix rule of the module docstring, the
    record at position i holds the conjunction of the first i + 1
    clauses in solve order, or constant 1 when it has no pins.

    ``remaining_before`` and ``remaining_after`` are the decision nodes
    in the space's unique table when the step starts and once the next
    frozen factor is built, before the sweep.  They record the space's
    history, not the chain, so records compare equal without them.
    """

    remaining_before: int = field(compare=False)
    remaining_after: int = field(compare=False)
    func: BoolFunc
    support: Optional[int]
    bits: Optional[int]

    @property
    def off_point(self) -> Optional[tuple[int, ...]]:
        """The target's off-point p (None if no pins)."""
        if self.bits is None:
            return None
        return mask_point(self.bits, self.func.space.var_count)

    @property
    def pins(self) -> Optional[dict[int, int]]:
        """The cube as {v: p[v] for v in supp(t)} (None if no pins)."""
        if self.support is None:
            return None
        return {v: self.bits >> v & 1 for v in mask_levels(self.support)}

    @property
    def factor_size(self) -> int:
        """Decision nodes of the frozen factor (a constant: 0)."""
        return self.func.node_count()


@dataclass
class SolveResult:
    """Per-step records and the final factor.

    ``final`` is the last factor, canonically equal to the conjunction
    of the whole formula; ``status`` and ``witness`` are read from it.
    """

    steps: list[StepRecord]
    final: BoolFunc

    @property
    def status(self) -> SolveStatus:
        """SAT unless the final factor is constant 0."""
        return SolveStatus.SAT if self.final.is_sat() else SolveStatus.UNSAT

    @property
    def witness(self) -> Optional[tuple[int, ...]]:
        """The smallest solution, or None for UNSAT."""
        return self.final.any_on_point()


def bottom_up_key(clause: Clause) -> float:
    """Sort key of the bottom-up order: minus the clause's smallest variable.

    The smallest variable is the level of the clause BDD's root, so a
    stable sort on this key reduces the deepest-rooted clauses first.
    The empty clause is the constant 0, rooted below every variable, so
    its key, minus infinity, sorts it before every other clause.
    """
    return -min((lit.var for lit in clause.literals), default=float("inf"))


#: The factor orders by name, each with its sort key (None: input order).
FACTOR_ORDERS = {"bottom-up": bottom_up_key, "input": None}


def _built(clause: BoolFunc, steps: list[StepRecord]) -> int:
    """The handle of ``clause``'s factor after the maps of ``steps``.

    Each record with pins is one map: its frozen factor and its cube
    (support, bits); a skipped record, whose support is None, maps
    nothing and is passed over.  The walk runs from the newest record
    back and stops at the first frozen factor whose restriction by the
    pins gathered so far is 1; a restriction that is 0 passes the walk
    through, and each other one is a level of the result, in the
    unrolled recurrence of the module docstring.  The clause is
    restricted only at those kept levels and where the walk ends.

    The walk calls the space's unchecked cores on node handles, since
    every function it reads belongs to the space: it hands each
    restriction the cube gathered so far as the two ints, and compares
    the handles with the constants 0 and 1.  The caller wraps the
    handle it keeps.
    """
    restricted = clause.space._restricted
    handle = clause._handle
    mask = bits = 0
    levels = []
    for step in reversed(steps):
        support = step.support
        if support is None:
            continue
        cond = restricted(step.func._handle, mask, bits)
        if cond == 1:
            break
        if cond != 0:
            levels.append((cond, restricted(handle, mask, bits)))
        # the step's own pins win: its restriction no longer tests them
        bits = (bits & ~support) | step.bits
        mask |= support
    result = restricted(handle, mask, bits)
    ite = clause.space._ite
    for cond, then in reversed(levels):
        result = ite(cond, then, result)
    return result


def solve(formula: CnfFormula, factor_order: str = "bottom-up") -> SolveResult:
    """Decide a CNF by chained projective reduction.

    Tautological clauses are dropped up front; an empty clause is an
    immediate UNSAT.  The remaining factors are reduced left to right
    in ``factor_order``: ``"bottom-up"`` stable-sorts them by
    bottom_up_key(), descending smallest variable; ``"input"`` keeps
    input order, the paper's.  The final factor's on-set is the
    formula's full solution set, whatever the order.
    """
    if factor_order not in FACTOR_ORDERS:
        raise ValueError("factor_order must be 'bottom-up' or 'input'")
    space = BoolSpace(formula.var_count)

    live = [c for c in formula.clauses if not c.is_tautology]
    if any(not c.literals for c in live):
        return SolveResult([], space.false)
    key = FACTOR_ORDERS[factor_order]
    if key is not None:
        live = sorted(live, key=key)

    clauses = [clause_to_func(c, space) for c in live] or [space.true]
    k = len(clauses)
    steps: list[StepRecord] = []
    current, i = clauses[0], 0
    while current.is_sat() and i < k - 1:
        before = space.unique_nodes
        # the factors between a step and its target are 1, and stay 1
        for target in range(i + 1, k):
            t = _built(clauses[target], steps)
            if t != 1:
                break
        else:
            break
        t = BoolFunc(space, t)
        support, bits = t.support_mask(), t.off_bits()
        # by the prefix rule, t becomes the frozen factor & its clause
        frozen, current = current, current & clauses[target]
        after = space.unique_nodes
        steps.append(StepRecord(before, after, frozen, support, bits))
        steps += [StepRecord(after, after, space.true, None, None)
                  for _ in range(i + 1, target)]
        i = target
        # every function still in use: read only if the space sweeps
        space.collect(chain(clauses, (step.func for step in steps), (current,)))
    return SolveResult(steps, current)


def oracle_check(formula: CnfFormula, final: BoolFunc) -> str:
    """Compare a final factor with a reference built without the solver.

    Up to MAX_TABLE_VARS variables the reference is the exhaustive truth
    table.  Above that cap it is the direct conjunction of the clauses,
    built in a fresh space over the same variable order, so that it
    shares no node and no unique- or computed-table entry with the
    solver's.  The conjunction is taken in bottom_up_key() order, an
    empty clause first: the same function as in input order, built far
    faster.  The final factor is then rebuilt in the fresh space, node
    by node with its children first, and the two are compared by
    canonical equality there.  Returns the check made as one line of
    text and raises RuntimeError when the two disagree.
    """
    if formula.var_count <= MAX_TABLE_VARS:
        if not tt_equal(tt_of_formula(formula), tt_of_func(final)):
            raise RuntimeError("final factor disagrees with the exhaustive oracle")
        return "final factor agrees with the exhaustive truth table"
    clauses = sorted(formula.clauses, key=bottom_up_key)
    reference = formula_to_func(replace(formula, clauses=clauses),
                                BoolSpace(formula.var_count))
    space, nodes = reference.space, final.space._nodes
    copied = {0: 0, 1: 1}
    # ascending handles rebuild every child before its parent
    for handle in sorted(final._reachable()):
        level, lo, hi = nodes[handle]
        copied[handle] = space._mk(level, copied[lo], copied[hi])
    if copied[final._handle] != reference._handle:
        raise RuntimeError("final factor differs from the direct conjunction")
    return "final factor equals the direct conjunction of the clauses"
