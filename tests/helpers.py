"""Shared construction helpers for the test suite.

Random functions are built in tandem: every engine-side operation is
mirrored on a numpy truth table computed with plain index arithmetic.
Tests that compare the two sides therefore exercise two independent
code paths end to end.
"""

import os
import random
from operator import getitem
from pathlib import Path

import numpy as np

from projsat import BoolSpace, Clause, CnfFormula, Literal, clause_to_func
from projsat.projections import projection_for
from projsat.solver import StepRecord, bottom_up_key

TWO_VAR_UNSAT = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
FOUR_VAR_SAT = "p cnf 4 3\n-1 2 4 0\n-2 3 -4 0\n1 3 -4 0\n"


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parent.parent / "src"),
        env.get("PYTHONPATH")]))
    return env


def bit_columns(n):
    """Column i of the lexicographic point matrix (bit i weighs 2^(n-1-i))."""
    idx = np.arange(1 << n, dtype=np.uint32)
    return [((idx >> (n - 1 - i)) & 1).astype(bool) for i in range(n)]


def random_func(space: BoolSpace, rng: random.Random, depth: int = 4):
    """A random function as (engine value, independent numpy table)."""
    n = space.var_count
    cols = bit_columns(n)

    def build(d):
        if d == 0 or rng.random() < 0.25:
            roll = rng.random()
            if roll < 0.08:
                bit = rng.randint(0, 1)
                table = np.full(1 << n, bool(bit))
                return space.const(bit), table
            i = rng.randrange(n)
            return space.var(i), cols[i].copy()
        op = rng.choice("&&||^~")
        if op == "~":
            f, t = build(d - 1)
            return ~f, ~t
        f, tf = build(d - 1)
        g, tg = build(d - 1)
        if op == "&":
            return f & g, tf & tg
        if op == "|":
            return f | g, tf | tg
        return f ^ g, tf ^ tg

    return build(depth)


def random_clause(n: int, rng: random.Random, max_width: int = 3) -> Clause:
    """A random non-tautological clause without duplicate variables."""
    width = rng.randint(1, min(max_width, n))
    vars_ = rng.sample(range(n), width)
    return Clause(tuple(Literal(v, rng.random() < 0.5) for v in vars_))


def random_cnf(rng: random.Random, max_vars: int = 10, max_clauses: int = 25,
               min_vars: int = 2) -> CnfFormula:
    n = rng.randint(min_vars, max_vars)
    m = rng.randint(1, max_clauses)
    return CnfFormula(n, [random_clause(n, rng) for _ in range(m)])


def implication_chain(n: int, rng: random.Random):
    """x1, x1 -> x2, ..., x(n-1) -> xn with polarities renamed at random.

    The only model is the polarity vector: bit i is 1 where variable i
    kept its sign.  Returns the formula and that model.
    """
    sign = [1 if rng.random() < 0.5 else -1 for _ in range(n)]
    clauses = [Clause.from_ints([sign[0]])]
    clauses += [Clause.from_ints([-sign[i - 1] * i, sign[i] * (i + 1)])
                for i in range(1, n)]
    return CnfFormula(n, clauses), tuple(1 if v > 0 else 0 for v in sign)


def reference_v_lines(points, var_count: int) -> str:
    """The 'v' lines of the points, built literal by literal.

    The reference that the CLI's masked renderer must match byte for
    byte.
    """
    literals = [(f"-{i} ", f"{i} ") for i in range(1, var_count + 1)]
    return "".join("v " + "".join(map(getitem, literals, point)) + "0\n"
                   for point in points)


def reference_on_set(func) -> np.ndarray:
    """The on-set of a BoolFunc as packed rows, one descent per prefix.

    Before level L the rows hold, in lexicographic order, the L-bit
    prefixes that still reach a node other than constant 0; each row
    doubles into its low and high child, and children at constant 0 are
    dropped.  No prefix shares the rows of another, however many reach
    the same node: the reference that BoolFunc.enumerate_on_set, which
    descends each cofactor of the last byte once, must match.
    """
    n = func.space.var_count
    level, lo, hi, root = func._node_arrays()
    reached = np.array([root] if root != 0 else [], dtype=np.int32)
    rows = np.zeros((reached.size, (n + 7) // 8), dtype=np.uint8)
    for var in range(n):
        tests = level[reached] == var
        children = np.empty(2 * reached.size, dtype=np.int32)
        children[0::2] = np.where(tests, lo[reached], reached)
        children[1::2] = np.where(tests, hi[reached], reached)
        live = np.flatnonzero(children)
        rows = rows[live >> 1]
        rows[:, var >> 3] |= ((live & 1) << (7 - (var & 7))).astype(np.uint8)
        reached = children[live]
    return rows


def reference_table(func) -> np.ndarray:
    """A BoolFunc's value at each of the 2^n points, one descent per prefix.

    Before level L an array holds the node that each of the 2^L
    prefixes reaches; each entry doubles into its low and high child,
    or into itself twice when its node does not test variable L, so
    the last level reaches constants only.  The reference that
    oracle.tt_of_func, which descends each cofactor of the last eight
    levels once, must match.
    """
    n = func.space.var_count
    level, lo, hi, root = func._node_arrays()
    # uint16 node ids and two child maps per level keep n = 24 small
    index = np.uint16 if level.size < 1 << 16 else np.int32
    stay = np.arange(level.size, dtype=index)
    reached = np.array([root], dtype=index)
    for var in range(n):
        tests = level == var
        low = np.where(tests, lo, stay).astype(index)
        high = np.where(tests, hi, stay).astype(index)
        doubled = np.empty(2 * reached.size, dtype=index)
        doubled[0::2] = low[reached]
        doubled[1::2] = high[reached]
        reached = doubled
    return reached == 1


def clause_func(space: BoolSpace, clause: Clause):
    """Engine-side disjunction built literal by literal, bypassing cnf.py."""
    acc = space.false
    for lit in clause.literals:
        term = space.var(lit.var)
        acc = acc | (~term if lit.negated else term)
    return acc


def projection_pins(proj):
    """The cube a single-point projection pins off its fixed region.

    Read from the projection itself: the variables its target depends
    on, found by composing the target with both constants in place of
    each variable, set to the projection's off-point bits.
    """
    target = proj.target
    space = target.space
    pins = {}
    for v in range(space.var_count):
        cofactors = []
        for bit in (0, 1):
            subst = space.identity_subst()
            subst[v] = space.const(bit)
            cofactors.append(target.compose(subst))
        if cofactors[0] != cofactors[1]:
            pins[v] = proj.off_point[v]
    return pins


def reference_built(clause, steps):
    """solve()'s factor build through the public engine API, as a reference.

    Walks ``steps`` from the newest record back as solve() does, with
    BoolFunc.restrict and the checked ite, the cube gathered as a dict.
    Returns the built factor and the walk's levels: the frozen factor of
    each pinned record walked, as restricted by the pins gathered above
    it, where 1 ends the walk, 0 passes it through and any other
    function is a level of the factor.
    """
    space = clause.space
    cube = {}
    walk, levels = [], []
    for step in reversed(steps):
        if step.support is None:
            continue
        cond = step.func.restrict(cube)
        walk.append(cond)
        if cond == space.true:
            break
        if cond != space.false:
            levels.append((cond, clause.restrict(cube)))
        # the step's own pins win: its restriction no longer tests them
        cube.update(step.pins)
    value = clause.restrict(cube)
    for cond, then in reversed(levels):
        value = space.ite(cond, then, value)
    return value, walk


def record_from_pins(func, pins):
    """The step record whose cube is ``pins``, {v: bit} (None: skipped).

    Both table figures read 0, which record equality leaves out.
    """
    if pins is None:
        return StepRecord(0, 0, func, None, None)
    support = sum(1 << v for v in pins)
    bits = sum(1 << v for v, bit in pins.items() if bit)
    return StepRecord(0, 0, func, support, bits)


def _reference_path(formula: CnfFormula, space: BoolSpace, factor_order,
                    step):
    """The solver's loop over every remaining factor, as a reference.

    ``step(current, target, factors)`` returns the step's pins, as a
    dict, and every remaining factor rewritten through its map.  Returns
    the step records, each made from its pins by record_from_pins, and
    the final factor in the form solve() gives them, with 0 for the
    table figures remaining_before and remaining_after, which record
    equality leaves out; meant for formulas whose clauses are all
    non-empty.
    """
    live = [c for c in formula.clauses if not c.is_tautology]
    if factor_order == "bottom-up":
        live = sorted(live, key=bottom_up_key)
    working = [clause_to_func(c, space) for c in live] or [space.true]
    steps = []
    for i, current in enumerate(working):
        if not current.is_sat() or i == len(working) - 1:
            break
        if current == space.true:
            steps.append(record_from_pins(current, None))
            continue
        target = next((f for f in working[i + 1:] if f != space.true), None)
        if target is None:
            break
        pins, working[i + 1:] = step(current, target, working[i + 1:])
        steps.append(record_from_pins(current, pins))
    return steps, current


def compose_path(formula: CnfFormula, space: BoolSpace,
                 factor_order="bottom-up"):
    """The solver's loop with the general compose rewrite, as a reference.

    Every remaining factor is composed with the full substitution vector
    of the step's projection.  The factors come in solve()'s order of
    the same name, solve()'s default included.  Each record's off-point,
    which the record derives from its pins, is checked against the
    projection's own.
    """
    def step(current, target, factors):
        proj = projection_for(current, target)
        pins = projection_pins(proj)
        record = record_from_pins(current, pins)
        assert record.off_point == proj.off_point
        return pins, [f.compose(proj.subst) for f in factors]

    return _reference_path(formula, space, factor_order, step)


def eager_path(formula: CnfFormula, space: BoolSpace,
               factor_order="bottom-up"):
    """The solver's loop with every remaining factor rewritten eagerly.

    Each step rewrites every remaining factor g as ite(f, g, g|cube),
    the cube pinning the target's support to its smallest off-point:
    the closed form of compose_path's rewrite, with the factor itself as
    the then-branch and no factor skipped.  It reaches formulas too
    large for compose_path.
    """
    def step(current, target, factors):
        off = target.any_off_point()
        pins = {v: off[v] for v in target.support()}
        return pins, [space.ite(current, g, g.restrict(pins)) for g in factors]

    return _reference_path(formula, space, factor_order, step)


def pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    """PHP(p, h): every pigeon sits in a hole, no hole holds two.

    Variable q * h + i + 1 puts pigeon q in hole i; unsatisfiable
    exactly when p > h.
    """
    def var(q, i):
        return q * holes + i + 1

    clauses = [Clause.from_ints([var(q, i) for i in range(holes)])
               for q in range(pigeons)]
    clauses += [Clause.from_ints([-var(a, i), -var(b, i)])
                for i in range(holes)
                for a in range(pigeons) for b in range(a + 1, pigeons)]
    return CnfFormula(pigeons * holes, clauses)


def random_3sat(n: int, ratio: float, rng: random.Random) -> CnfFormula:
    """round(ratio * n) clauses of three distinct variables each."""
    return CnfFormula(n, [
        Clause(tuple(Literal(v, rng.random() < 0.5)
                     for v in rng.sample(range(n), 3)))
        for _ in range(round(ratio * n))])


def _assigned(clauses, literal):
    """The clauses left once ``literal`` is true; None if one is falsified."""
    left = []
    for clause in clauses:
        if literal in clause:
            continue
        if -literal in clause:
            clause = clause - {-literal}
            if not clause:
                return None
        left.append(clause)
    return left


def dpll_model_count(formula: CnfFormula) -> int:
    """The formula's model count by DPLL, in pure Python.

    Unit propagation and splitting (Davis, Logemann & Loveland, CACM
    1962) on sets of DIMACS integers, sharing no code with the engine:
    a unit clause is propagated, otherwise the search splits on a
    literal of a shortest clause, and a branch with every clause
    satisfied counts 2^k models for its k unassigned variables.
    """
    def count(clauses, free):
        if not clauses:
            return 1 << free
        shortest = min(clauses, key=len)
        literal = next(iter(shortest))
        choices = (literal,) if len(shortest) == 1 else (literal, -literal)
        return sum(count(left, free - 1) for choice in choices
                   if (left := _assigned(clauses, choice)) is not None)

    clauses = [frozenset(clause.to_ints()) for clause in formula.clauses]
    if not all(clauses):
        return 0
    return count(clauses, formula.var_count)
