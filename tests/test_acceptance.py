"""Acceptance suite: the seven end-to-end guarantees of the package.

Each test prints one PASS or FAIL line straight to the terminal (past
pytest's capture) so a full run always shows the per-criterion outcome:

  1. the four-clause two-variable contradiction reduces through the
     exact expected factor chain and returns UNSAT, in under a second;
  2. the three-clause four-variable instance returns SAT with the
     final factor canonically equal to the full conjunction;
  3. composing a formula with a projection aimed at it equals the
     region conjunction on 500 random clause/formula pairs;
  4. verdict, witness, and all-solutions sets match the exhaustive
     oracle on 500 random formulas;
  5. the cofactor interval laws hold on 500 random instances each;
  6. projection composition pins intersected regions and substitution
     distributes over the connectives, 500 random instances;
  7. the solver's closed-form rewrite gives the same step records
     (frozen factors, off-points, pinned cubes), final factor and
     witness as composing every remaining factor with the projection's
     substitution, on 100 formulas in each factor order; the solution
     set is read from that canonically equal final factor.

Criterion 2 pins the paper's worked example, which reduces the clauses
in input order, so it asks for that order.
"""

import random
from contextlib import contextmanager
from time import perf_counter

import pytest

from projsat import BoolSpace, parse_dimacs
from projsat.cnf import clause_to_func
from projsat.cofactors import cofactor_interval, general_cofactor, is_cofactor
from projsat.oracle import formula_satisfied, tt_of_formula
from projsat.projections import (compose_projections, projection_for,
                                 verify_projection)
from projsat.solver import FACTOR_ORDERS, SolveStatus, solve

from helpers import (FOUR_VAR_SAT, TWO_VAR_UNSAT, clause_func, compose_path,
                     random_clause, random_cnf, random_func)


@pytest.fixture
def report(capsys):
    @contextmanager
    def _report(label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"acceptance: {label}: FAIL")
            raise
        with capsys.disabled():
            print(f"acceptance: {label}: PASS")

    return _report


def test_01_contradiction_chain_regression(report):
    with report("1 contradiction chain regression"):
        formula = parse_dimacs(TWO_VAR_UNSAT)
        start = perf_counter()
        result = solve(formula)
        elapsed = perf_counter() - start
        assert result.status is SolveStatus.UNSAT
        assert result.witness is None

        steps = result.steps
        space = result.final.space
        x, y = space.var(0), space.var(1)
        assert [step.func for step in steps] == [x | y, x, x & y]
        assert result.final == space.false
        assert [step.off_point for step in steps] == [(0, 1), (1, 0), (1, 1)]
        # every target depends on both variables, so all of it is pinned
        assert [step.pins for step in steps] == [
            {0: 0, 1: 1}, {0: 1, 1: 0}, {0: 1, 1: 1}]
        assert elapsed < 1.0


def test_02_satisfiable_chain_regression(report):
    with report("2 satisfiable chain regression"):
        formula = parse_dimacs(FOUR_VAR_SAT)
        start = perf_counter()
        result = solve(formula, factor_order="input")
        everything = result.final.enumerate_on_set()
        elapsed = perf_counter() - start
        assert result.status is SolveStatus.SAT

        steps = result.steps
        space = result.final.space
        c1, c2, c3 = (clause_to_func(c, space) for c in formula.clauses)
        assert len(steps) == 2
        assert steps[0].func == c1
        assert steps[1].func == c1 & c2
        assert result.final == c1 & c2 & c3

        assert steps[0].off_point == (0, 1, 0, 1)
        assert steps[0].pins == {1: 1, 2: 0, 3: 1}
        # the first projection already leaves the third clause alone
        first = steps[0]
        assert space.ite(first.func, c3, c3.restrict(first.pins)) == c3
        assert steps[1].off_point == (0, 0, 0, 1)
        assert steps[1].pins == {0: 0, 2: 0, 3: 1}

        assert result.witness == (0, 0, 0, 0)
        assert formula_satisfied(formula, result.witness)
        oracle = set(tt_of_formula(formula).satisfying_points())
        assert set(everything) == oracle
        assert elapsed < 1.0


def test_03_region_conjunction_identity(report):
    with report("3 region conjunction identity, 500 pairs"):
        rng = random.Random(0xACC3)
        start = perf_counter()
        done = 0
        while done < 500:
            n = rng.randint(2, 10)
            space = BoolSpace(n)
            region = clause_func(space, random_clause(n, rng))
            target = space.true
            for _ in range(rng.randint(1, 8)):
                target = target & clause_func(space, random_clause(n, rng))
            if target == space.true:
                continue
            proj = projection_for(region, target)
            assert target.compose(proj.subst) == (region & target)
            done += 1
        assert perf_counter() - start < 60.0


def test_04_oracle_equivalence(report):
    with report("4 oracle equivalence, 500 formulas"):
        rng = random.Random(0xACC4)
        start = perf_counter()
        for _ in range(500):
            formula = random_cnf(rng, max_vars=10, max_clauses=25)
            result = solve(formula)
            table = tt_of_formula(formula)
            satisfiable = table.count() > 0
            assert (result.status is SolveStatus.SAT) == satisfiable
            if satisfiable:
                assert formula_satisfied(formula, result.witness)
            solutions = result.final.enumerate_on_set()
            assert set(solutions) == set(table.satisfying_points())
        assert perf_counter() - start < 300.0


def test_05_cofactor_interval_laws(report):
    with report("5 cofactor interval laws, 500 instances each"):
        space = BoolSpace(8)
        rng = random.Random(0xACC5)

        def pick():
            return random_func(space, rng)[0]

        for _ in range(500):
            f, g, h = pick(), pick(), pick()

            # interval extremes and the membership characterization
            interval = cofactor_interval(f, g)
            assert interval.lower == f & g
            assert interval.upper == f | ~g
            w = general_cofactor(f, g, pick())
            assert w in interval and is_cofactor(w, f, g)
            probe = pick()
            member = (probe & g) == (f & g)
            assert is_cofactor(probe, f, g) == member == (probe in interval)

            # members over a union of regions split per region
            w = general_cofactor(f, g | h, pick())
            u = (f & g) | (w & ~g)
            v = (f & h) | (w & ~h)
            assert is_cofactor(u, f, g) and is_cofactor(v, f, h)
            assert (u | v) == w

            # products of members pin the intersected region
            u = general_cofactor(f, g, pick())
            v = general_cofactor(f, h, pick())
            assert is_cofactor(u & v, f, g & h)

            # shrinking the region keeps membership
            wide = general_cofactor(f, g | h, pick())
            assert is_cofactor(wide, f, g)

            # sum, product, complement over one shared region
            u = general_cofactor(f, g, pick())
            w = general_cofactor(h, g, pick())
            assert is_cofactor(u | w, f | h, g)
            assert is_cofactor(u & w, f & h, g)
            assert is_cofactor(~u, ~f, g)

            # and over one region the splits run both ways
            w = general_cofactor(f | h, g, pick())
            u = (f & g) | (w & ~g)
            v = (h & g) | (w & ~g)
            assert is_cofactor(u, f, g) and is_cofactor(v, h, g)
            assert (u | v) == w
            w = general_cofactor(f & h, g, pick())
            u = (f & g) | (w & ~g)
            v = (h & g) | (w & ~g)
            assert is_cofactor(u, f, g) and is_cofactor(v, h, g)
            assert (u & v) == w

            # chaining regions composes
            u = general_cofactor(f, g, pick())
            v = general_cofactor(u, h, pick())
            assert is_cofactor(u & v, f, g & h)


def test_06_projection_composition_and_homomorphisms(report):
    with report("6 projection composition and homomorphisms, 500 instances"):
        rng = random.Random(0xACC6)
        done = 0
        while done < 500:
            n = rng.randint(2, 8)
            space = BoolSpace(n)
            target, _ = random_func(space, rng)
            if target == space.true:
                continue
            g1, _ = random_func(space, rng)
            g2, _ = random_func(space, rng)
            p1 = projection_for(g1, target)
            p2 = projection_for(g2, target)
            both = g1 & g2
            assert verify_projection(compose_projections(p1, p2), both, target)
            assert verify_projection(compose_projections(p2, p1), both, target)

            f1, _ = random_func(space, rng)
            f2, _ = random_func(space, rng)
            sub = p1.subst
            assert (f1 & f2).compose(sub) == f1.compose(sub) & f2.compose(sub)
            assert (f1 | f2).compose(sub) == f1.compose(sub) | f2.compose(sub)
            assert (~f1).compose(sub) == ~(f1.compose(sub))
            done += 1


def test_07_closed_form_equals_projection_composition(report):
    with report("7 closed-form rewrite equals the projection composition, "
                "100 formulas in each factor order"):
        rng = random.Random(0xACC7)
        for _ in range(100):
            formula = random_cnf(rng)
            for order in FACTOR_ORDERS:
                result = solve(formula, factor_order=order)
                steps, final = compose_path(formula, result.final.space, order)
                assert result.steps == steps
                assert result.final == final
                assert result.witness == final.any_on_point()
