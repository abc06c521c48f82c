"""The exhaustive truth-table oracle itself."""

import random

import numpy as np
import pytest

from projsat import BoolSpace, Clause, CnfFormula, formula_to_func
from projsat.oracle import (
    MAX_TABLE_VARS,
    TruthTable,
    formula_satisfied,
    index_to_point,
    point_to_index,
    tt_equal,
    tt_of_formula,
    tt_of_func,
)

from helpers import (FOUR_VAR_SAT, TWO_VAR_UNSAT, random_clause, random_cnf,
                     random_func)
from projsat import parse_dimacs


class TestIndexing:
    def test_round_trip(self):
        for n in (1, 3, 6):
            for idx in range(1 << n):
                assert point_to_index(index_to_point(idx, n)) == idx

    def test_lexicographic_order(self):
        pts = [index_to_point(i, 3) for i in range(8)]
        assert pts == sorted(pts)
        assert pts[0] == (0, 0, 0)
        assert pts[-1] == (1, 1, 1)


class TestTable:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            TruthTable(2, [0, 1, 0])

    def test_cap_checked(self):
        with pytest.raises(ValueError):
            TruthTable(MAX_TABLE_VARS + 1, [])

    def test_count_and_lookup(self):
        t = TruthTable(2, [1, 0, 0, 1])
        assert t.count() == 2
        assert t.value_at((0, 0)) == 1
        assert t.value_at((0, 1)) == 0
        assert t.satisfying_points() == [(0, 0), (1, 1)]

    def test_equality_requires_same_width(self):
        a = TruthTable(1, [0, 1])
        b = TruthTable(2, [0, 1, 0, 1])
        with pytest.raises(ValueError):
            tt_equal(a, b)

    def test_equality_reflexive_symmetric(self):
        rng = np.random.default_rng(41)
        bits = rng.integers(0, 2, size=16, dtype=np.uint8)
        a = TruthTable(4, bits)
        b = TruthTable(4, bits.copy())
        assert tt_equal(a, a)
        assert tt_equal(a, b) and tt_equal(b, a)


class TestFormulaTables:
    def test_two_var_example_all_zero(self):
        table = tt_of_formula(parse_dimacs(TWO_VAR_UNSAT))
        assert table.count() == 0

    def test_empty_formula_all_one(self):
        table = tt_of_formula(CnfFormula(3, []))
        assert table.count() == 8

    def test_four_var_example_nonzero(self):
        assert tt_of_formula(parse_dimacs(FOUR_VAR_SAT)).count() > 0

    def test_single_clause(self):
        table = tt_of_formula(CnfFormula(2, [Clause.from_ints([1, -2])]))
        assert [int(b) for b in table.bits] == [1, 0, 1, 1]

    def test_empty_clause_kills_everything(self):
        table = tt_of_formula(CnfFormula(2, [Clause.from_ints([])]))
        assert table.count() == 0

    def test_matches_clause_by_clause_evaluation(self):
        # every point, from the 0-variable space up; each formula holds a
        # tautology when n > 0, and the first of each n the empty clause
        rng = random.Random(69)
        for n in range(11):
            for trial in range(8):
                clauses = [random_clause(n, rng, max_width=4)
                           for _ in range(rng.randint(0, 2 * n))]
                if n:
                    clause = random_clause(n, rng).to_ints()
                    clauses.append(Clause.from_ints(clause + [-clause[0]]))
                if trial == 0:
                    clauses.append(Clause.from_ints([]))
                rng.shuffle(clauses)
                formula = CnfFormula(n, clauses)
                want = [formula_satisfied(formula, index_to_point(i, n))
                        for i in range(1 << n)]
                assert tt_of_formula(formula).bits.tolist() == want

    def test_random_3sat_at_the_cap(self):
        rng = random.Random(24)
        n = MAX_TABLE_VARS
        formula = CnfFormula(n, [
            Clause.from_ints(v * rng.choice((1, -1))
                             for v in rng.sample(range(1, n + 1), 3))
            for _ in range(40)])
        table = tt_of_formula(formula)
        assert 0 < table.count() < 1 << n
        models = np.flatnonzero(table.bits)
        points = [rng.getrandbits(n) for _ in range(200)]
        points += [int(models[rng.randrange(models.size)]) for _ in range(100)]
        for index in points:
            assert table.bits[index] == formula_satisfied(
                formula, index_to_point(index, n))
        assert tt_equal(table, tt_of_func(formula_to_func(formula, BoolSpace(n))))


class TestBridge:
    def test_constants(self):
        s = BoolSpace(3)
        assert tt_of_func(s.false).count() == 0
        assert tt_of_func(s.true).count() == 8

    def test_cross_implementation_agreement(self):
        rng = random.Random(42)
        for _ in range(60):
            formula = random_cnf(rng, max_vars=9, max_clauses=18)
            s = BoolSpace(formula.var_count)
            assert tt_equal(tt_of_func(formula_to_func(formula, s)),
                            tt_of_formula(formula))

    def test_func_table_matches_tandem_table(self):
        rng = random.Random(43)
        s = BoolSpace(7)
        for _ in range(40):
            f, table = random_func(s, rng)
            assert np.array_equal(tt_of_func(f).bits, table)

    def test_matches_pointwise_evaluation(self):
        # the level-by-level descent against the engine's own evaluator,
        # from the 0-variable space up, constants included
        rng = random.Random(44)
        for n in range(0, 11):
            s = BoolSpace(n)
            funcs = [s.false, s.true]
            funcs += [random_func(s, rng, depth=rng.randint(1, 6))[0]
                      for _ in range(12 if n else 0)]
            for f in funcs:
                want = [f(index_to_point(i, n)) for i in range(1 << n)]
                assert tt_of_func(f).bits.tolist() == [bool(b) for b in want]


class TestPointCheck:
    def test_formula_satisfied(self):
        formula = parse_dimacs(FOUR_VAR_SAT)
        table = tt_of_formula(formula)
        for idx in range(16):
            p = index_to_point(idx, 4)
            assert formula_satisfied(formula, p) == bool(table.value_at(p))

    def test_length_checked(self):
        formula = parse_dimacs(FOUR_VAR_SAT)
        with pytest.raises(ValueError):
            formula_satisfied(formula, (0, 0))
