"""Core function-algebra engine: canonicity, evaluation, structure."""

import gc
import random
import re
import threading
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projsat import (BoolFunc, BoolSpace, CnfFormula, EnumerationCapError,
                     PointRows, formula_to_func, solve)
from projsat import engine
from projsat.oracle import tt_of_formula, tt_of_func
from projsat.solver import FACTOR_ORDERS

from helpers import (bit_columns, implication_chain, random_3sat,
                     random_clause, random_func, reference_on_set)


def all_points(n):
    return list(product((0, 1), repeat=n))


class TestConstructors:
    def test_const_one_is_and_identity(self):
        s = BoolSpace(3)
        f = s.var(0) | s.var(2)
        assert (s.const(1) & f) == f

    def test_const_zero_is_or_identity(self):
        s = BoolSpace(3)
        f = s.var(1) & ~s.var(0)
        assert (s.const(0) | f) == f

    def test_const_eval(self):
        s = BoolSpace(2)
        for p in all_points(2):
            assert s.const(1)(p) == 1
            assert s.const(0)(p) == 0

    def test_true_false_properties(self):
        s = BoolSpace(1)
        assert s.true == s.const(1)
        assert s.false == s.const(0)
        assert s.true != s.false

    def test_var_eval(self):
        s = BoolSpace(3)
        assert s.var(0)((1, 0, 0)) == 1
        assert s.var(2)((1, 0, 0)) == 0

    def test_var_out_of_range(self):
        s = BoolSpace(3)
        with pytest.raises(ValueError):
            s.var(3)
        with pytest.raises(ValueError):
            s.var(-1)

    def test_named_variables(self):
        s = BoolSpace(["p", "q"])
        assert s.named("p") == s.var(0)
        assert s.named("q") == s.var(1)
        with pytest.raises(ValueError):
            s.named("r")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            BoolSpace(["a", "a"])

    def test_complement_law(self):
        s = BoolSpace(2)
        x = s.var(0)
        assert (x & ~x) == s.false
        assert (x | ~x) == s.true


class TestVariableNames:
    # a space built from a count makes its names x1..xn only when they
    # are first read, and reads them as a space given those names does

    @pytest.mark.parametrize("n", [0, 1, 3, 12])
    @pytest.mark.parametrize("given", [False, True])
    def test_names_read_alike(self, n, given):
        names = tuple(f"{'v' if given else 'x'}{i + 1}" for i in range(n))
        s = BoolSpace(list(names) if given else n)
        assert s.var_names == names
        assert repr(s) == f"BoolSpace({list(names)!r})"
        ident = s.identity_subst()
        assert ident == [s.var(i) for i in range(n)]
        assert [s.named(name) for name in names] == ident
        assert [f.format_expr() for f in ident] == list(names)
        for unknown in ("", "x0", f"x{n + 1}", "v1" if not given else "x1"):
            with pytest.raises(ValueError,
                               match=f"^unknown variable {re.escape(repr(unknown))}$"):
                s.named(unknown)
        if n:
            first, last = names[0], names[-1]
            want = "0" if n == 1 else f"~{first}&{last} | {first}&~{last}"
            f = s.var(0) ^ s.var(n - 1)
            assert f.format_expr() == want
            assert repr(f) == f"BoolFunc({want})"

    def test_a_duplicate_given_name_is_rejected(self):
        with pytest.raises(ValueError, match="^duplicate variable name$"):
            BoolSpace(["a", "b", "c", "b"])

    def test_a_wide_space_costs_nothing_per_variable(self):
        tracemalloc.start()
        try:
            s = BoolSpace(1_000_000)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.var_count == 1_000_000
        assert kept < 1 << 20

    def test_names_are_made_once(self):
        # the first rendering makes all 200,000 names; the next one
        # makes none
        s = BoolSpace(200_000)
        f = s.var(4) & ~s.var(199_999)
        assert f.format_expr() == "x5&~x200000"
        tracemalloc.start()
        try:
            assert f.format_expr() == "x5&~x200000"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestAlgebra:
    def test_idempotence(self):
        s = BoolSpace(3)
        f = s.var(0) ^ s.var(1)
        assert (f & f) == f
        assert (f | f) == f

    def test_double_negation(self):
        s = BoolSpace(3)
        f = (s.var(0) | s.var(1)) & ~s.var(2)
        assert ~~f == f

    def test_de_morgan(self):
        s = BoolSpace(4)
        rng = random.Random(11)
        for _ in range(20):
            f, _ = random_func(s, rng)
            g, _ = random_func(s, rng)
            assert ~(f & g) == (~f | ~g)
            assert ~(f | g) == (~f & ~g)

    def test_xor_definition(self):
        s = BoolSpace(3)
        rng = random.Random(12)
        for _ in range(20):
            f, _ = random_func(s, rng)
            g, _ = random_func(s, rng)
            assert (f ^ g) == ((f & ~g) | (~f & g))

    def test_connectives_match_table_oracle(self):
        # tandem build: every intermediate already mirrored on numpy
        s = BoolSpace(8)
        rng = random.Random(13)
        points = all_points(8)
        for _ in range(5):
            f, table = random_func(s, rng, depth=5)
            for idx, p in enumerate(points):
                assert f(p) == int(table[idx])

    def test_ite(self):
        s = BoolSpace(3)
        c, t, e = s.var(0), s.var(1), s.var(2)
        got = s.ite(c, t, e)
        assert got == ((c & t) | (~c & e))

    def test_space_mismatch_rejected(self):
        a, b = BoolSpace(2), BoolSpace(2)
        with pytest.raises(ValueError):
            a.var(0) & b.var(0)

    def test_non_func_operand_rejected(self):
        s = BoolSpace(2)
        with pytest.raises(TypeError):
            s.var(0) & 1

    def test_bool_coercion_refused(self):
        s = BoolSpace(2)
        with pytest.raises(TypeError):
            bool(s.var(0))

    def test_implication_order(self):
        s = BoolSpace(3)
        f = s.var(0) & s.var(1)
        g = s.var(0)
        assert f <= g
        assert g >= f
        assert not g <= f
        assert s.false <= f <= s.true

    def test_implication_matches_table_oracle(self):
        # f <= g exactly when f's table is 0 wherever g's is
        s = BoolSpace(5)
        rng = random.Random(14)
        seen = set()
        for _ in range(200):
            f, tf = random_func(s, rng)
            g, tg = random_func(s, rng)
            expected = not (tf & ~tg).any()
            assert f.implies(g) == (f <= g) == expected
            assert (g >= f) == expected
            seen.add(expected)
        assert seen == {True, False}


class TestEvaluation:
    def test_clause_literal_cases(self):
        s = BoolSpace(4)
        x, y, z, w = (s.var(i) for i in range(4))
        clause = ~x | y | w
        assert clause((1, 0, 0, 0)) == 0
        assert clause((0, 0, 0, 0)) == 1

    def test_point_length_checked(self):
        s = BoolSpace(3)
        with pytest.raises(ValueError):
            s.var(0)((1, 0))

    def test_eval_against_oracle_many_points(self):
        rng = random.Random(14)
        s = BoolSpace(10)
        checked = 0
        while checked < 1000:
            f, table = random_func(s, rng, depth=4)
            for _ in range(25):
                idx = rng.randrange(1 << 10)
                p = tuple((idx >> (9 - i)) & 1 for i in range(10))
                assert f(p) == int(table[idx])
                checked += 1


class TestSatAndPoints:
    def test_const_zero_unsat(self):
        s = BoolSpace(2)
        assert not s.false.is_sat()
        assert s.false.any_on_point() is None

    def test_contradiction_unsat(self):
        s = BoolSpace(2)
        x = s.var(0)
        assert not (x & ~x).is_sat()

    def test_on_point_self_check(self):
        rng = random.Random(15)
        s = BoolSpace(6)
        for _ in range(100):
            f, table = random_func(s, rng)
            p = f.any_on_point()
            if p is None:
                assert not table.any()
            else:
                assert f(p) == 1

    def test_off_point_of_clause_is_all_zero(self):
        s = BoolSpace(3)
        clause = s.var(0) | s.var(1) | s.var(2)
        assert clause.any_off_point() == (0, 0, 0)

    def test_off_point_of_tautology_absent(self):
        s = BoolSpace(2)
        assert s.true.any_off_point() is None
        x = s.var(0)
        assert (x | ~x).any_off_point() is None

    def test_off_point_of_zero_is_origin(self):
        s = BoolSpace(3)
        assert s.false.any_off_point() == (0, 0, 0)

    def test_off_point_is_lex_smallest(self):
        rng = random.Random(16)
        s = BoolSpace(7)
        for _ in range(200):
            f, table = random_func(s, rng)
            p = f.any_off_point()
            zeros = np.nonzero(~table)[0]
            if p is None:
                assert zeros.size == 0
            else:
                got = 0
                for bit in p:
                    got = (got << 1) | bit
                assert got == int(zeros[0])

    def test_on_point_is_lex_smallest(self):
        rng = random.Random(17)
        s = BoolSpace(7)
        for _ in range(200):
            f, table = random_func(s, rng)
            p = f.any_on_point()
            ones = np.nonzero(table)[0]
            if p is None:
                assert ones.size == 0
            else:
                got = 0
                for bit in p:
                    got = (got << 1) | bit
                assert got == int(ones[0])


class TestSupport:
    def test_constant_support_empty(self):
        s = BoolSpace(4)
        assert s.true.support() == frozenset()
        assert s.false.support() == frozenset()

    def test_cancelled_variable_dropped(self):
        s = BoolSpace(2)
        x, y = s.var(0), s.var(1)
        assert (x | (y & ~y)).support() == frozenset({0})

    def test_support_matches_dependence_oracle(self):
        rng = random.Random(18)
        s = BoolSpace(6)
        n = 6
        for _ in range(60):
            f, table = random_func(s, rng)
            got = f.support()
            for i in range(n):
                stride = 1 << (n - 1 - i)
                idx = np.arange(1 << n)
                flipped = table[idx ^ stride]
                depends = bool((table != flipped).any())
                assert (i in got) == depends


def robdd_node_count(table, n):
    """Nodes of the reduced ordered diagram, read from a truth table.

    The nodes testing variable i are the distinct subfunctions left by
    fixing x0..x(i-1) that still depend on x(i).
    """
    count = 0
    for i in range(n):
        blocks = table.reshape(1 << i, 1 << (n - i))
        half = 1 << (n - i - 1)
        count += len({block.tobytes() for block in blocks
                      if (block[:half] != block[half:]).any()})
    return count


class TestNodeCount:
    def test_constants_have_no_nodes(self):
        s = BoolSpace(4)
        for const in (s.true, s.false):
            assert const.node_count() == 0
            assert const.support() == frozenset()

    def test_shared_subgraphs_counted_once(self):
        # parity shares both nodes of every level below the top between
        # two parents; x0&x1 | x2&x3 shares its x2 node
        s = BoolSpace(4)
        x = [s.var(i) for i in range(4)]
        parity = x[0] ^ x[1] ^ x[2] ^ x[3]
        assert parity.node_count() == 7
        assert parity.support() == frozenset(range(4))
        pairs = (x[0] & x[1]) | (x[2] & x[3])
        assert pairs.node_count() == 4
        assert (~parity).node_count() == 7
        assert (parity & x[1]).support() == frozenset(range(4))

    def test_matches_the_truth_table_count(self):
        rng = random.Random(29)
        s = BoolSpace(6)
        for _ in range(100):
            f, table = random_func(s, rng, depth=5)
            assert f.node_count() == robdd_node_count(table, 6)
            levels = {s._nodes[h][0] for h in f._reachable()}
            assert f.support() == frozenset(levels)
            assert len(f._reachable()) == f.node_count()


class TestEnumeration:
    def test_empty_on_set(self):
        s = BoolSpace(3)
        assert s.false.enumerate_on_set() == []

    def test_conjunction_single_point(self):
        s = BoolSpace(2)
        assert (s.var(0) & s.var(1)).enumerate_on_set() == [(1, 1)]

    def test_sorted_and_complete(self):
        rng = random.Random(19)
        s = BoolSpace(6)
        for _ in range(40):
            f, table = random_func(s, rng)
            pts = f.enumerate_on_set()
            assert pts == sorted(pts)
            expect = [tuple((int(i) >> (5 - k)) & 1 for k in range(6))
                      for i in np.nonzero(table)[0]]
            assert pts == expect

    def test_cap_enforced(self):
        s = BoolSpace(5)
        with pytest.raises(EnumerationCapError):
            s.true.enumerate_on_set(cap=31)
        assert len(s.true.enumerate_on_set(cap=32)) == 32

    def test_cap_counts_models_not_points(self):
        # the cap bounds the models, not the 2^n points of the space;
        # the 0-variable space is checked before its first level
        small, wide = BoolSpace(12), BoolSpace(40)
        cube = wide.true
        for i in range(40):
            cube = cube & (wide.var(i) if i % 2 else ~wide.var(i))
        cases = (((small.var(0) ^ small.var(5)) & ~small.var(11), 1024),
                 (cube, 1), (BoolSpace(0).true, 1))
        for f, models in cases:
            assert len(f.enumerate_on_set(cap=models)) == models
            with pytest.raises(EnumerationCapError):
                f.enumerate_on_set(cap=models - 1)
        assert BoolSpace(0).false.enumerate_on_set(cap=0) == []

    def test_cap_raises_before_any_row(self):
        # the models are counted before the descent: 2^200 of them
        # against a cap of 2^20 cost no rows
        s = BoolSpace(200)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match=(
                    "^enumerating more than 1048576 models exceeds "
                    "the cap of 1048576$")):
                s.true.enumerate_on_set(cap=1 << 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_model_count_stays_within_the_cap_width(self):
        # one model on a path of 20,000 nodes: a count taken over the
        # whole space would give each node a level-wide int, about
        # 25 MB in all, where the node arrays take 2.5 MiB
        n = 20_000
        s = BoolSpace(n)
        cube = s.true
        for i in reversed(range(n)):
            cube = (s.var(i) if i % 2 else ~s.var(i)) & cube
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError):
                cube.enumerate_on_set(cap=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_matches_truth_table_points(self):
        # rows of 0 to 2 bytes up to n = 10, of 3 bytes from 17 to 20
        rng = random.Random(21)
        for n in (*range(11), *range(17, 21)):
            s = BoolSpace(n)
            columns = bit_columns(n)
            cases = [(s.false, np.zeros(1 << n, dtype=bool)),
                     (s.true, np.ones(1 << n, dtype=bool))]
            if n:
                cases += [random_func(s, rng) for _ in range(12 if n <= 10 else 3)]
            for f, table in cases:
                # the count before the descent is exact: cap == models
                # passes and cap == models - 1 raises
                models = int(table.sum())
                got = f.enumerate_on_set(cap=models)
                assert got.rows.shape == (models, (n + 7) // 8)
                if models:
                    with pytest.raises(EnumerationCapError):
                        f.enumerate_on_set(cap=models - 1)
                bits = np.unpackbits(got.rows, axis=1, count=n)
                for var, column in enumerate(columns):
                    assert np.array_equal(bits[:, var], column[table])
                # the pad bits of the last byte are 0
                assert np.array_equal(np.packbits(bits, axis=1), got.rows)

    def test_point_rows_sequence_protocol(self):
        s = BoolSpace(10)
        f = s.var(0) ^ s.var(9)
        points = f.enumerate_on_set()
        expect = [p for p in all_points(10) if p[0] != p[9]]
        assert len(points) == len(expect) == 512
        assert list(points) == expect
        assert points[0] == expect[0] and points[-1] == expect[-1]
        assert points[3:7] == expect[3:7]
        assert isinstance(points[3:7], PointRows)
        assert points == f.enumerate_on_set() and points == expect
        assert PointRows.from_points(expect, 10) == points
        assert points != expect[1:] and points != (~f).enumerate_on_set()
        assert points.tolist() == [list(p) for p in expect]
        with pytest.raises(IndexError):
            points[512]
        with pytest.raises(ValueError):
            points.rows[0, 0] = 0
        # x1 is the high bit of byte 0, x10 the second bit of byte 1
        assert points.rows[0].tolist() == [0b00000000, 0b01000000]
        assert repr(s.true.enumerate_on_set(cap=1 << 10)[:2]) == (
            "PointRows([(0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "
            "(0, 0, 0, 0, 0, 0, 0, 0, 0, 1)])")


def equal_halves(space, k):
    """x1..xk equal the last k variables, bit for bit."""
    n = space.var_count
    f = space.true
    for j in range(k):
        f = f & ~(space.var(j) ^ space.var(n - k + j))
    return f


def traced_peak(call):
    """(result, tracemalloc peak in bytes) of call()."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestCofactorBlocks:
    # enumerate_on_set descends each node reached at the first level of
    # the last byte once, and copies its block of tails under every
    # prefix that reaches it

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 17])
    def test_rows_match_the_references(self, n):
        # seeded random functions against the per-prefix descent, and
        # random CNFs against their clause-by-clause truth tables too
        rng = random.Random(f"cofactor-blocks-{n}")
        s = BoolSpace(n)
        cases = [(s.false, np.zeros(1 << n, dtype=bool)),
                 (s.true, np.ones(1 << n, dtype=bool))]
        if n:
            cases += [random_func(s, rng, depth=rng.randint(2, 7))
                      for _ in range(10)]
            for _ in range(6):
                formula = CnfFormula(n, [random_clause(n, rng)
                                         for _ in range(rng.randint(1, n))])
                cases.append((formula_to_func(formula, s),
                              tt_of_formula(formula).bits))
        for f, table in cases:
            rows = f.enumerate_on_set().rows
            assert np.array_equal(rows, reference_on_set(f))
            models = np.flatnonzero(table)
            bits = (models[:, None] >> np.arange(n - 1, -1, -1)) & 1
            assert np.array_equal(rows, np.packbits(bits.astype(np.uint8), axis=1))

    def test_one_cofactor_is_expanded_once(self):
        # every point of 22 variables: one node at the cut, whose block
        # of 64 tails is copied under each of the 2^16 prefixes; 33 MiB
        # measured, where the per-prefix descent peaked at 108 MiB
        points, peak = traced_peak(BoolSpace(22).true.enumerate_on_set)
        assert len(points) == 1 << 22
        assert peak < 48 << 20

    def test_one_row_blocks_cost_no_more(self):
        # x1..x8 equal x17..x24: each of the 2^16 prefixes reaches one
        # of 256 nodes at the cut, and each block is one row, so the
        # blocks share no work; the per-prefix descent peaked at 2.22 MiB
        f = equal_halves(BoolSpace(24), 8)
        points, peak = traced_peak(f.enumerate_on_set)
        assert np.array_equal(points.rows, reference_on_set(f))
        assert peak < 2.2 * (1 << 20)


class TestCompose:
    def test_identity_substitution(self):
        s = BoolSpace(4)
        rng = random.Random(20)
        ident = s.identity_subst()
        for _ in range(20):
            f, _ = random_func(s, rng)
            assert f.compose(ident) == f

    def test_swap_symmetric_function(self):
        s = BoolSpace(2)
        x, y = s.var(0), s.var(1)
        f = x | y
        assert f.compose([y, x]) == f

    def test_swap_asymmetric_function(self):
        s = BoolSpace(2)
        x, y = s.var(0), s.var(1)
        f = x & ~y
        assert f.compose([y, x]) == (y & ~x)

    def test_length_mismatch(self):
        s = BoolSpace(3)
        with pytest.raises(ValueError):
            s.var(0).compose([s.var(0), s.var(1)])

    def test_compose_matches_pointwise_definition(self):
        rng = random.Random(21)
        s = BoolSpace(5)
        points = all_points(5)
        for _ in range(25):
            f, _ = random_func(s, rng)
            subst = [random_func(s, rng, depth=2)[0] for _ in range(5)]
            composed = f.compose(subst)
            for p in points:
                inner = tuple(entry(p) for entry in subst)
                assert composed(p) == f(inner)

    def test_compose_constant_passthrough(self):
        s = BoolSpace(3)
        subst = [s.false, s.true, s.var(0)]
        assert s.true.compose(subst) == s.true
        assert s.false.compose(subst) == s.false



class TestRestrict:
    def test_empty_cube_is_identity(self):
        rng = random.Random(22)
        s = BoolSpace(4)
        funcs = [random_func(s, rng)[0] for _ in range(20)]
        funcs += [s.true, s.false]
        unique = dict(s._unique)
        # the same handles come back and no node is made
        out = [f.restrict({}) for f in funcs]
        assert [f._handle for f in out] == [f._handle for f in funcs]
        assert s._unique == unique

    def test_full_cube_is_the_value_at_the_point(self):
        rng = random.Random(23)
        s = BoolSpace(4)
        for _ in range(20):
            f, _ = random_func(s, rng)
            for p in all_points(4):
                cube = dict(enumerate(p))
                assert f.restrict(cube) == s.const(f(p))

    def test_matches_compose_with_constants(self):
        rng = random.Random(24)
        s = BoolSpace(6)
        for _ in range(100):
            f, _ = random_func(s, rng)
            pinned = rng.sample(range(6), rng.randint(1, 6))
            cube = {v: rng.randint(0, 1) for v in pinned}
            subst = [s.const(cube[i]) if i in cube else s.var(i)
                     for i in range(6)]
            assert f.restrict(cube) == f.compose(subst)

    def test_index_out_of_range(self):
        s = BoolSpace(3)
        with pytest.raises(ValueError):
            s.var(0).restrict({3: 1})
        with pytest.raises(ValueError):
            s.var(0).restrict({-1: 0})


class TestCollect:
    # collect() keeps what its roots reach under the same handles; a
    # floor of 0 makes it sweep whenever the table has doubled

    def build(self, s, count=40):
        """Random functions with their tables, each from its own seed."""
        return [random_func(s, random.Random(seed), depth=5)
                for seed in range(count)]

    def test_below_the_floor_nothing_changes(self):
        s = BoolSpace(6)
        built = self.build(s)
        nodes, unique, cache = list(s._nodes), dict(s._unique), dict(s._ite_cache)
        assert len(unique) < engine._COLLECT_FLOOR

        def unread():
            raise AssertionError("roots read below the floor")
            yield

        # the roots are not even read
        for roots in ([built[0][0]], unread()):
            s.collect(roots)
            assert s._nodes == nodes
            assert s._unique == unique
            assert s._ite_cache == cache

    def test_a_forced_sweep_keeps_the_roots(self, monkeypatch):
        monkeypatch.setattr(engine, "_COLLECT_FLOOR", 0)
        s = BoolSpace(6)
        built = self.build(s)
        roots = [f for f, _ in built[::4]]
        made = len(s._nodes)
        assert s.unique_nodes == made - 2
        s.collect(roots)
        live = set().union(*(f._reachable() for f in roots))
        assert set(s._unique.values()) == live
        assert s.unique_nodes == len(live)
        assert len(live) < made - 2
        assert s._ite_cache == {}
        for handle in range(2, made):
            assert (s._nodes[handle] is None) == (handle not in live)
        for handle in live:
            level, lo, hi = s._nodes[handle]
            assert lo < handle and hi < handle
            assert s._unique[level, lo, hi] == handle
        # no sweep again until the table doubles what the last one kept
        s.collect([])
        assert set(s._unique.values()) == live
        for f, table in built[::4]:
            assert np.array_equal(tt_of_func(f).bits, table)
        # a rebuilt root is the same handle; a rebuilt swept function is
        # made anew and still matches its table
        for seed, (rebuilt, _) in enumerate(self.build(s)):
            original, table = built[seed]
            assert np.array_equal(tt_of_func(rebuilt).bits, table)
            if seed % 4 == 0:
                assert rebuilt == original

    def test_a_sweep_leaves_the_kept_cube_valid(self, monkeypatch, spelled):
        # the space keeps the last cube spelled out and no handle with
        # it: after a sweep that frees the first result, the same cube
        # is not spelled again and its restriction still matches
        monkeypatch.setattr(engine, "_COLLECT_FLOOR", 0)
        s = BoolSpace(6)
        x = [s.var(i) for i in range(6)]
        f = (x[0] & x[1]) | (x[2] ^ x[4]) | (x[3] & ~x[5])
        cube = {1: 1, 4: 0}
        # the reference pins the table's index bits: x_i weighs 2^(5-i)
        index = np.arange(64)
        pinned = tt_of_func(f).bits[(index | 1 << 4) & ~(1 << 1)]
        first = f.restrict(cube)
        assert f.restrict(cube) == first
        assert np.array_equal(tt_of_func(first).bits, pinned)
        made = s.unique_nodes
        s.collect([f])
        assert s.unique_nodes < made
        assert s._nodes[first._handle] is None
        again = f.restrict(cube)
        assert np.array_equal(tt_of_func(again).bits, pinned)
        assert len(spelled) == 1

    def test_a_one_shot_generator_of_roots_keeps_every_root(self, monkeypatch):
        # the roots are read once: a generator is not spent before the
        # sweep marks what it reaches
        monkeypatch.setattr(engine, "_COLLECT_FLOOR", 0)
        s = BoolSpace(6)
        built = self.build(s)
        roots = [f for f, _ in built[::4]]
        s.collect(f for f in roots)
        live = set().union(*(f._reachable() for f in roots))
        assert live and set(s._unique.values()) == live
        for f, table in built[::4]:
            assert np.array_equal(tt_of_func(f).bits, table)
            assert (f & s.true) == f

    def test_roots_must_belong_to_the_space(self, monkeypatch):
        monkeypatch.setattr(engine, "_COLLECT_FLOOR", 0)
        s, other = BoolSpace(3), BoolSpace(3)
        s.var(0)
        with pytest.raises(ValueError):
            s.collect([other.var(0)])
        with pytest.raises(TypeError):
            s.collect([0])

    def test_a_space_never_collected_keeps_every_node(self, monkeypatch):
        # solve() sweeps only the space it builds
        monkeypatch.setattr(engine, "_COLLECT_FLOOR", 0)
        s = BoolSpace(6)
        built = self.build(s)
        formula, _ = implication_chain(40, random.Random(34))
        res = solve(formula)
        assert None in res.final.space._nodes
        assert None not in s._nodes
        assert len(s._unique) == len(s._nodes) - 2
        for f, table in built:
            assert np.array_equal(tt_of_func(f).bits, table)


class TestNodeTable:
    def test_every_node_is_made_by_mk(self, monkeypatch):
        # _mk is the table's one writer: each handle ever given out,
        # swept ones included, is one that a call of _mk added
        made = {}
        mk = BoolSpace._mk

        def recording_mk(space, level, lo, hi):
            size = len(space._nodes)
            handle = mk(space, level, lo, hi)
            if len(space._nodes) > size:
                made.setdefault(space, set()).add(handle)
            return handle

        monkeypatch.setattr(BoolSpace, "_mk", recording_mk)
        # sweeps rebuild the unique table; let them run often
        monkeypatch.setattr(engine, "_COLLECT_FLOOR", 0)
        chain, _ = implication_chain(300, random.Random(41))
        rng = random.Random(42)
        rng.shuffle(chain.clauses)
        spaces = []
        for formula in (random_3sat(20, 4.26, rng), chain):
            for order in FACTOR_ORDERS:
                spaces.append(solve(formula, order).final.space)
        s = BoolSpace(6)
        funcs = [random_func(s, random.Random(seed))[0] for seed in range(10)]
        derived = [h for f, g in zip(funcs, funcs[1:])
                   for h in ((f & g) | (f ^ ~g),
                             f.compose([g, f, s.var(2), ~g, s.var(4), f]),
                             f.restrict({0: 1, 3: 0, 5: 1}))]
        spaces.append(s)
        for space in spaces:
            assert made[space] == set(range(2, len(space._nodes)))
            assert set(space._unique.values()) <= made[space]
        assert {h._handle for h in derived} - {0, 1} <= made[s]

    def test_no_terminal_triple_is_cached(self, monkeypatch):
        # _ite settles a constant condition, equal branches and
        # ite(c, 1, 0) before its cache, so no such key is ever stored
        def terminal(cond, yes, no):
            return cond in (0, 1) or yes == no or (yes, no) == (1, 0)

        # no sweep: the computed table keeps every key it was given
        monkeypatch.setattr(engine, "_COLLECT_FLOOR", 1 << 62)
        chain, _ = implication_chain(300, random.Random(43))
        rng = random.Random(44)
        rng.shuffle(chain.clauses)
        caches = []
        for formula in (random_3sat(20, 4.26, rng), chain):
            for order in FACTOR_ORDERS:
                caches.append(solve(formula, order).final.space._ite_cache)
        s = BoolSpace(6)
        funcs = [random_func(s, random.Random(seed))[0] for seed in range(10)]
        for f, g in zip(funcs, funcs[1:]):
            assert (f & g) | (f ^ g) == f | g
            assert (f & g).implies(~f | g)
        caches.append(s._ite_cache)
        for cache in caches:
            assert cache
            assert not [key for key in cache if terminal(*key)]

    def test_a_space_costs_no_memory_per_pair_of_levels(self):
        # a new space holds its names and their index, linear in n,
        # and no table whose size grows with n**2
        tracemalloc.start()
        try:
            BoolSpace(50_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20


def walked_mask(space, handle):
    """The support of a handle as a bit mask, read by a full walk."""
    nodes = space._nodes
    reached = engine._decision_nodes(nodes, [handle])
    return sum({1 << nodes[h][0] for h in reached})


class TestSupportMasks:
    # every node gets its support mask when it is made, from its
    # children's; a sweep drops the masks of the nodes it drops

    def test_masks_match_a_walk_and_survive_a_sweep(self, monkeypatch):
        monkeypatch.setattr(engine, "_COLLECT_FLOOR", 0)
        swept = 0
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(1, 8)
            s = BoolSpace(n)
            pool = [s.var(i) for i in range(n)] + [s.true, s.false]
            for _ in range(rng.randint(1, 40)):
                f, g, h = (rng.choice(pool) for _ in range(3))
                op = rng.choice(("&", "|", "^", "~", "ite", "restrict"))
                if op == "&":
                    pool.append(f & g)
                elif op == "|":
                    pool.append(f | g)
                elif op == "^":
                    pool.append(f ^ g)
                elif op == "~":
                    pool.append(~f)
                elif op == "ite":
                    pool.append(s.ite(f, g, h))
                else:
                    pinned = rng.sample(range(n), rng.randint(0, n))
                    cube = {v: rng.randint(0, 1) for v in pinned}
                    pool += [f.restrict(cube), g.restrict(cube)]
            nodes, masks = s._nodes, s._masks
            assert len(masks) == len(nodes)
            assert masks[:2] == [0, 0]
            for handle in s._unique.values():
                assert masks[handle] == walked_mask(s, handle)
            for f in pool:
                assert f.support() == frozenset(
                    v for v in range(n)
                    if f.restrict({v: 0}) != f.restrict({v: 1}))
            roots = rng.sample(pool, len(pool) // 3)
            kept = set().union(*(f._reachable() for f in roots))
            before = {handle: masks[handle] for handle in kept}
            made = len(nodes)
            s.collect(roots)
            assert set(s._unique.values()) == kept
            assert {handle: masks[handle] for handle in kept} == before
            for handle in range(2, made):
                if handle not in kept:
                    assert nodes[handle] is None and masks[handle] is None
                    swept += 1
        assert swept > 0


class TestReferenceCycles:
    def test_walks_free_the_space_without_the_cycle_collector(self):
        gc.collect()
        gc.disable()
        try:
            s = BoolSpace(4)
            alive = weakref.ref(s)
            f = (s.var(0) & ~s.var(2)) | s.var(3)
            f.compose(s.identity_subst())
            f.restrict({0: 1, 3: 0})
            f.enumerate_on_set()
            f.format_expr()
            del s, f
            assert alive() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_solve_and_a_step_rewrite_free_their_spaces(self):
        formula, _ = implication_chain(12, random.Random(30))
        gc.collect()
        gc.disable()
        try:
            res = solve(formula)
            alive = weakref.ref(res.final.space)
            del res
            assert alive() is None
            s = BoolSpace(4)
            alive = weakref.ref(s)
            f = s.var(0) | s.var(2)
            s.ite(f, s.var(1), (s.var(1) ^ s.var(3)).restrict({1: 0, 3: 1}))
            f.restrict({2: 0})
            s.var(3).restrict({2: 0})
            del s, f
            assert alive() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_solution_rows_hold_no_space(self):
        gc.collect()
        gc.disable()
        try:
            s = BoolSpace(4)
            alive = weakref.ref(s)
            points = (s.var(1) | s.var(3)).enumerate_on_set()
            del s
            assert alive() is None
            assert len(points) == 12
        finally:
            gc.enable()


ast_strategy = st.recursive(
    st.one_of(
        st.tuples(st.just("var"), st.integers(0, 4)),
        st.tuples(st.just("const"), st.integers(0, 1)),
    ),
    lambda inner: st.one_of(
        st.tuples(st.just("not"), inner),
        st.tuples(st.just("and"), inner, inner),
        st.tuples(st.just("or"), inner, inner),
        st.tuples(st.just("xor"), inner, inner),
    ),
    max_leaves=24,
)


def interpret(space, cols, node):
    kind = node[0]
    if kind == "var":
        return space.var(node[1]), cols[node[1]].copy()
    if kind == "const":
        return space.const(node[1]), np.full(1 << 5, bool(node[1]))
    if kind == "not":
        f, t = interpret(space, cols, node[1])
        return ~f, ~t
    f, tf = interpret(space, cols, node[1])
    g, tg = interpret(space, cols, node[2])
    if kind == "and":
        return f & g, tf & tg
    if kind == "or":
        return f | g, tf | tg
    return f ^ g, tf ^ tg


class TestCanonicity:
    @settings(max_examples=300, deadline=None)
    @given(ast_strategy, ast_strategy)
    def test_equal_handles_iff_equal_tables(self, left, right):
        s = BoolSpace(5)
        cols = bit_columns(5)
        f, tf = interpret(s, cols, left)
        g, tg = interpret(s, cols, right)
        assert (f == g) == bool(np.array_equal(tf, tg))

    @settings(max_examples=200, deadline=None)
    @given(ast_strategy)
    def test_function_matches_its_table(self, tree):
        s = BoolSpace(5)
        cols = bit_columns(5)
        f, table = interpret(s, cols, tree)
        idx = random.Random(0).randrange(32)
        p = tuple((idx >> (4 - i)) & 1 for i in range(5))
        assert f(p) == int(table[idx])

    def test_hash_consistent_with_equality(self):
        s = BoolSpace(3)
        x, y = s.var(0), s.var(1)
        a = ~(x & y)
        b = ~x | ~y
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestConcurrency:
    def test_parallel_construction_agrees_with_sequential(self):
        # a space is for one thread, so each thread builds in its own;
        # handles of different spaces never compare equal, so each
        # result is compared as a truth table
        seeds = list(range(16))
        sequential = {
            seed: random_func(BoolSpace(8), random.Random(1000 + seed), depth=5)[1]
            for seed in seeds}

        results = {}
        errors = []

        def worker(seed):
            try:
                f, _ = random_func(BoolSpace(8), random.Random(1000 + seed),
                                   depth=5)
                results[seed] = f
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for seed in seeds:
            assert np.array_equal(tt_of_func(results[seed]).bits,
                                  sequential[seed])


class TestDeepGraphs:
    @pytest.mark.xfail(raises=RecursionError, strict=True,
                       reason="_ite recurses once per variable level")
    def test_ite_below_a_5000_level_conjunction(self):
        s = BoolSpace(5000)
        f = s.true
        for i in reversed(range(5000)):
            f = s.var(i) & f
        assert (f & ~s.var(4999)) == s.false


    def test_restrict_a_900_level_function(self):
        # the restriction walk recurses once per unpinned level above
        # the deepest pin: 899 here, the depth solve() meets on the
        # 900-variable chain of tests/test_solver.py
        s = BoolSpace(900)
        literals = [s.var(i) if i % 2 else ~s.var(i) for i in range(900)]
        above = s.true
        for literal in reversed(literals[:899]):
            above = literal & above
        f = above & literals[899]
        assert f.restrict({899: 0}) == s.false
        assert f.restrict({899: 1}) == above
        assert s.false.restrict({899: 1}) == s.false


class TestRepr:
    def test_format_expr_round_trip_cases(self):
        s = BoolSpace(["x", "y"])
        x, y = s.named("x"), s.named("y")
        assert s.false.format_expr() == "0"
        assert s.true.format_expr() == "1"
        assert "x" in (x & ~y).format_expr()

    @staticmethod
    def reference_terms(f):
        """The literal lists of f's 1-paths, low branch first.

        Built through the public API alone: the root tests the lowest
        variable of the support, and its branches are the restrictions.
        """
        space = f.space
        if f == space.false:
            return []
        if f == space.true:
            return [[]]
        top = min(f.support())
        name = space.var_names[top]
        return ([["~" + name] + t for t in TestRepr.reference_terms(f.restrict({top: 0}))]
                + [[name] + t for t in TestRepr.reference_terms(f.restrict({top: 1}))])

    @pytest.mark.parametrize("max_terms", [None, 0, 1, 3, 16, 17])
    def test_format_expr_matches_the_literal_reference(self, max_terms):
        s = BoolSpace(6)
        rng = random.Random(0xE4)
        parity = s.false
        for i in range(5):
            parity = parity ^ s.var(i)
        chain = s.var(0)
        for i in range(5):
            chain = chain & (~s.var(i) | s.var(i + 1))
        funcs = [parity, chain, s.var(5), ~s.var(2)]
        funcs += [random_func(s, rng, depth=5)[0] for _ in range(8)]
        for f in funcs:
            if f in (s.false, s.true):
                continue
            terms = ["&".join(t) for t in self.reference_terms(f)]
            want = " | ".join(terms[:max_terms])
            if max_terms is not None and len(terms) > max_terms:
                want += " | ..."
            assert f.format_expr(max_terms) == want

    def test_format_expr_holds_one_path(self):
        # x1 | x2 | ... | x2000: the low-first walk reaches its first term
        # 2000 levels down, with a pending high branch at every level;
        # a copy of the path per pending entry would hold 16 MB
        n = 2000
        s = BoolSpace(n)
        f = s.var(n - 1)
        for i in reversed(range(n - 1)):
            f = s.var(i) | f
        tracemalloc.start()
        try:
            text = f.format_expr(max_terms=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        term, rest = text.split(" | ")
        assert term.split("&") == [f"~x{v}" for v in range(1, n)] + [f"x{n}"]
        assert rest == "..."
        assert peak < 2 << 20

    def test_repr_mentions_size(self):
        s = BoolSpace(2)
        text = repr(s.var(0) & s.var(1))
        assert "BoolFunc" in text
