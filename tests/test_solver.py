"""Projective-cofactor composition laws and the chained solver."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from projsat import (
    BoolFunc,
    BoolSpace,
    Clause,
    CnfFormula,
    EnumerationCapError,
    SolveStatus,
    clause_to_func,
    formula_to_func,
    oracle_check,
    parse_dimacs,
    projection_for,
    solve,
    verify_projection,
)
from projsat import engine, solver
from projsat.cnf import emit_dimacs
from projsat.oracle import MAX_TABLE_VARS, tt_of_formula
from projsat.solver import FACTOR_ORDERS, bottom_up_key

from helpers import (
    FOUR_VAR_SAT,
    TWO_VAR_UNSAT,
    compose_path,
    dpll_model_count,
    eager_path,
    implication_chain,
    pigeonhole,
    random_3sat,
    random_clause,
    random_cnf,
    random_func,
    reference_built,
)


ROOT = Path(__file__).resolve().parent.parent


def fresh_pair(s, rng):
    """A (fixed, target) pair with a usable target."""
    while True:
        fixed, _ = random_func(s, rng)
        target, _ = random_func(s, rng)
        if target != s.true:
            return fixed, target


@pytest.fixture
def builds(monkeypatch):
    """Each factor solve() builds: its clause and the walk's levels.

    solve()'s build works on raw handles, so the levels come from
    reference_built, the same walk through the public engine API, run on
    a snapshot of the records at each build; the build itself must
    return the reference's factor and leave the records as they were.
    A level is the frozen factor of one pinned record walked, as
    restricted by the pins gathered above it: 1 ends the walk, 0 passes
    it through and any other function is a level of the built factor.
    Every test that uses the fixture must see at least one walk that
    is not empty, so that no check on the levels holds vacuously.
    """
    log = []
    walked = []
    built = solver._built

    def checked_built(clause, steps):
        snapshot = list(steps)
        expected, walk = reference_built(clause, snapshot)
        log.append((clause, walk))
        if walk:
            walked.append(walk)
        handle = built(clause, steps)
        assert steps == snapshot
        assert BoolFunc(clause.space, handle) == expected
        return handle

    monkeypatch.setattr(solver, "_built", checked_built)
    yield log
    assert walked, "no build walked a record"


class TestProjectiveCofactor:
    def test_is_composition(self):
        rng = random.Random(101)
        s = BoolSpace(5)
        for _ in range(50):
            fixed, target = fresh_pair(s, rng)
            proj = projection_for(fixed, target)
            f, _ = random_func(s, rng)
            assert proj.apply_to(f) == f.compose(proj.subst)

    def test_verify_flag_accepts_valid(self):
        s = BoolSpace(3)
        fixed, target = s.var(0), s.var(1)
        proj = projection_for(fixed, target)
        assert verify_projection(proj, fixed, target)
        assert proj.apply_to(target) == (fixed & target)

    def test_verify_flag_rejects_mismatched_region(self):
        s = BoolSpace(3)
        proj = projection_for(s.var(0), s.var(1))
        assert not verify_projection(proj, s.var(2), proj.target)

    def test_result_is_cofactor_of_composed_function(self):
        # any function composed with the map agrees with itself on the
        # pinned region, hence stays inside its own cofactor interval
        from projsat import cofactor_interval, is_cofactor
        rng = random.Random(102)
        s = BoolSpace(6)
        for _ in range(100):
            fixed, target = fresh_pair(s, rng)
            proj = projection_for(fixed, target)
            w, _ = random_func(s, rng)
            image = proj.apply_to(w)
            assert is_cofactor(image, w, fixed)
            assert image in cofactor_interval(w, fixed)

    def test_matches_region_conjunction(self):
        # composing the target itself collapses to fixed & target
        rng = random.Random(103)
        s = BoolSpace(6)
        for _ in range(200):
            fixed, target = fresh_pair(s, rng)
            proj = projection_for(fixed, target)
            assert proj.apply_to(target) == (fixed & target)

    def test_bounded_function_unchanged(self):
        # when the map's target is the composed function itself, a
        # function below the pinned region passes through untouched
        rng = random.Random(104)
        s = BoolSpace(6)
        done = 0
        while done < 100:
            fixed, _ = random_func(s, rng)
            f, _ = random_func(s, rng)
            under = f & fixed  # under <= fixed by construction
            if under == s.true:
                continue
            proj = projection_for(fixed, under)
            assert proj.apply_to(under) == under
            done += 1

    def test_disjoint_function_vanishes(self):
        rng = random.Random(105)
        s = BoolSpace(6)
        done = 0
        while done < 100:
            fixed, _ = random_func(s, rng)
            f, _ = random_func(s, rng)
            apart = f & ~fixed  # apart & fixed == 0
            if apart == s.true:
                continue
            proj = projection_for(fixed, apart)
            assert proj.apply_to(apart) == s.false
            done += 1

    def test_target_image_below_target(self):
        rng = random.Random(106)
        s = BoolSpace(6)
        for _ in range(100):
            fixed, target = fresh_pair(s, rng)
            proj = projection_for(fixed, target)
            assert proj.apply_to(target) <= target

    def test_homomorphism_laws(self):
        rng = random.Random(107)
        s = BoolSpace(6)
        for _ in range(150):
            fixed, target = fresh_pair(s, rng)
            proj = projection_for(fixed, target)
            a, _ = random_func(s, rng)
            b, _ = random_func(s, rng)
            za = proj.apply_to(a)
            zb = proj.apply_to(b)
            assert proj.apply_to(a & b) == (za & zb)
            assert proj.apply_to(a | b) == (za | zb)
            assert proj.apply_to(~a) == ~za


class TestSatPreservation:
    def test_holds_for_built_projections(self):
        rng = random.Random(108)
        for _ in range(200):
            n = rng.randint(2, 9)
            s = BoolSpace(n)
            fixed = clause_to_func(random_clause(n, rng), s)
            target, _ = random_func(s, rng)
            if target == s.true:
                continue
            proj = projection_for(fixed, target)
            assert (fixed & target) == proj.apply_to(target)

    def test_full_region_identity(self):
        s = BoolSpace(3)
        h = s.var(0) | s.var(1)
        proj = projection_for(s.true, h)
        assert (s.true & h) == proj.apply_to(h)


def sat_points(formula):
    return tt_of_formula(formula).satisfying_points()


class TestSolveBasics:
    def test_two_var_contradiction(self):
        res = solve(parse_dimacs(TWO_VAR_UNSAT))
        assert res.status is SolveStatus.UNSAT
        assert res.witness is None

    def test_four_var_satisfiable(self):
        formula = parse_dimacs(FOUR_VAR_SAT)
        res = solve(formula)
        assert res.status is SolveStatus.SAT
        assert res.witness is not None
        assert all(c.satisfied_by(res.witness) for c in formula.clauses)

    def test_empty_formula(self):
        res = solve(CnfFormula(3, []))
        assert res.status is SolveStatus.SAT
        assert res.witness == (0, 0, 0)
        assert len(res.final.enumerate_on_set()) == 8

    def test_empty_clause_immediate_unsat(self):
        res = solve(CnfFormula(2, [Clause.from_ints([1]), Clause.from_ints([])]))
        assert res.status is SolveStatus.UNSAT
        assert res.steps == []
        assert res.final == res.final.space.false

    def test_tautologies_only(self):
        res = solve(CnfFormula(2, [Clause.from_ints([1, -1])]))
        assert res.status is SolveStatus.SAT
        assert res.steps == []
        assert res.final == res.final.space.true

    def test_single_clause(self):
        formula = CnfFormula(3, [Clause.from_ints([1, -3])])
        res = solve(formula)
        assert res.steps == []
        assert res.final == clause_to_func(formula.clauses[0], res.final.space)

    def test_witness_is_lex_smallest_solution(self):
        formula = parse_dimacs(FOUR_VAR_SAT)
        res = solve(formula)
        assert res.witness == sat_points(formula)[0]

    def test_all_solutions_exact(self):
        formula = parse_dimacs(FOUR_VAR_SAT)
        res = solve(formula)
        assert res.final.enumerate_on_set() == sat_points(formula)

    def test_enumeration_cap_respected(self):
        formula = CnfFormula(4, [Clause.from_ints([1, 2])])
        with pytest.raises(EnumerationCapError):
            solve(formula).final.enumerate_on_set(3)

    def test_config_validation(self):
        with pytest.raises(ValueError,
                           match="factor_order must be 'bottom-up' or 'input'"):
            solve(parse_dimacs(FOUR_VAR_SAT), factor_order="widest")


class TestSoundnessRegression:
    def brittle_formula(self):
        # four clauses whose second factor escapes above its clause when
        # the projection aims at the original clause instead of the
        # factor as already reduced; the formula is unsatisfiable
        return CnfFormula(2, [
            Clause.from_ints([1]),
            Clause.from_ints([2]),
            Clause.from_ints([1, -2]),
            Clause.from_ints([-1]),
        ])

    def test_escaped_factor_instance_is_unsat(self):
        # the trap lies in input order; every order must answer UNSAT
        formula = self.brittle_formula()
        assert tt_of_formula(formula).count() == 0
        for order in FACTOR_ORDERS:
            res = solve(formula, factor_order=order)
            assert res.status is SolveStatus.UNSAT
            oracle_check(formula, res.final)

    def test_mid_run_tautology_is_skipped_and_harmless(self):
        # in the same instance, in input order, the third factor reduces
        # to constant 1: it must be passed over both as a frozen factor
        # and as a projection target
        formula = self.brittle_formula()
        res = solve(formula, factor_order="input")
        s = res.final.space
        skipped = [step for step in res.steps if step.func == s.true]
        assert skipped
        assert all(step.off_point is None and step.pins is None
                   for step in skipped)
        assert res.final == s.false

    def test_all_remaining_factors_tautological(self):
        # after one step only a constant-1 factor is left, so the run
        # finishes with the frozen factor as the final answer
        formula = CnfFormula(2, [
            Clause.from_ints([1]),
            Clause.from_ints([2]),
            Clause.from_ints([1, -2]),
        ])
        res = solve(formula)
        oracle_check(formula, res.final)
        assert res.status is SolveStatus.SAT
        assert res.final.enumerate_on_set() == [(1, 1)]

    def test_random_instances_with_oracle_check(self):
        rng = random.Random(109)
        for _ in range(60):
            formula = random_cnf(rng, max_vars=8, max_clauses=16)
            res = solve(formula)
            oracle_check(formula, res.final)
            want = tt_of_formula(formula).count() > 0
            assert (res.status is SolveStatus.SAT) == want


class TestSolveAgainstOracle:
    def test_verdict_witness_and_solutions(self):
        rng = random.Random(110)
        for _ in range(80):
            formula = random_cnf(rng, max_vars=9, max_clauses=20)
            res = solve(formula)
            points = sat_points(formula)
            if points:
                assert res.status is SolveStatus.SAT
                assert res.witness in points
                assert all(c.satisfied_by(res.witness)
                           for c in formula.clauses)
            else:
                assert res.status is SolveStatus.UNSAT
                assert res.witness is None
            assert res.final.enumerate_on_set() == points

    def test_final_factor_equals_conjunction(self):
        rng = random.Random(111)
        for _ in range(60):
            formula = random_cnf(rng, max_vars=8, max_clauses=14)
            final = solve(formula).final
            direct = formula_to_func(formula, final.space)
            assert final == direct


class TestClosedFormRewrite:
    def test_restriction_matches_composition_with_the_projection(self):
        # g o pi == ite(f, g, g restricted to supp(t) = p) for the
        # single-point map pi built from fixed f, target t, off-point p
        rng = random.Random(114)
        for _ in range(300):
            s = BoolSpace(rng.randint(1, 6))
            fixed, target = fresh_pair(s, rng)
            g, _ = random_func(s, rng)
            off = target.any_off_point()
            cube = {v: off[v] for v in target.support()}
            proj = projection_for(fixed, target)
            assert g.compose(proj.subst) == s.ite(fixed, g, g.restrict(cube))

    def test_steps_match_compose_path(self):
        # mid-run tautologies, which criterion 7 leaves out, and wider
        # formulas, in every factor order
        rng = random.Random(115)
        formulas = [TestSoundnessRegression().brittle_formula()]
        for _ in range(30):
            formulas.append(random_cnf(rng, max_vars=9, max_clauses=30,
                                       min_vars=6))
        for formula in formulas:
            for order in FACTOR_ORDERS:
                res = solve(formula, factor_order=order)
                steps, final = compose_path(formula, res.final.space, order)
                assert res.steps == steps
                assert res.final == final

    def test_long_chain_final_factor_equals_conjunction(self):
        # 300 variables, above the oracle's cap: checked against direct
        # conjunction instead; polarities renamed by a fixed seed
        formula, model = implication_chain(300, random.Random(116))
        res = solve(formula)
        assert res.status is SolveStatus.SAT
        assert res.witness == model
        assert res.final == formula_to_func(formula, res.final.space)


class TestUntouchedFactorsSkipped:
    # solve() rewrites no factor: it builds each candidate target once,
    # from its clause and the maps of the steps so far, and a factor it
    # never aims at is never built

    def test_each_factor_is_built_at_most_once(self, builds):
        # the 100 formulas of acceptance criterion 7 in every order, and
        # a 300-variable chain, where each build walks at most 3 maps
        rng = random.Random(0xACC7)
        formulas = [random_cnf(rng) for _ in range(100)]
        chain, model = implication_chain(300, random.Random(117))
        formulas.append(chain)
        for formula in formulas:
            for order in FACTOR_ORDERS:
                del builds[:]
                res = solve(formula, factor_order=order)
                clauses = [id(clause) for clause, _ in builds]
                assert len(set(clauses)) == len(clauses)
                # every target is built, once
                pinned = sum(step.pins is not None for step in res.steps)
                assert len(builds) >= pinned
                if formula is chain:
                    assert res.witness == model
                    assert len(res.steps) == 299
                    assert 1 <= max(len(walk) for _, walk in builds) <= 3

    def test_shuffled_chains_match_compose_path(self):
        # with the clauses shuffled and reduced in input order, frozen
        # factors spread over many variables, and the walk that builds a
        # target passes many maps; the default order undoes the shuffle
        for n, seed in ((48, 118), (60, 119)):
            formula, model = implication_chain(n, random.Random(seed))
            random.Random(seed).shuffle(formula.clauses)
            for order in ("input", "bottom-up"):
                res = solve(formula, factor_order=order)
                assert res.witness == model
                steps, final = compose_path(formula, res.final.space, order)
                assert res.steps == steps
                assert res.final == final


class TestEagerReference:
    # eager_path rewrites every remaining factor at every step, as
    # ite(f, g, g|cube), and reaches formulas beyond compose_path

    def test_steps_match_the_eager_loop(self, builds):
        # random 3-SAT at n = 12 to 24 and PHP(4,3) to PHP(6,5), in every
        # order; the walks meet levels where a restricted frozen factor
        # is 0 and builds with two or more non-constant levels
        rng = random.Random(127)
        formulas = [random_3sat(n, ratio, rng) for n, ratio in (
            (12, 5), (15, 4.5), (18, 4), (21, 3.5), (24, 3))]
        formulas += [pigeonhole(p, p - 1) for p in (4, 5, 6)]
        for formula in formulas:
            for order in FACTOR_ORDERS:
                res = solve(formula, factor_order=order)
                steps, final = eager_path(formula, res.final.space, order)
                assert res.steps == steps
                assert res.final == final
        levels = [[cond for cond in walk if cond.is_sat()
                   and cond != cond.space.true] for _, walk in builds]
        assert any(len(found) >= 2 for found in levels)
        assert any(not cond.is_sat() for _, walk in builds for cond in walk)


class TestDeepChains:
    # _ite and the restriction walk recurse once per level they descend;
    # in bottom-up order the frozen factors of a chain span every level
    # below the step's clause

    def test_shuffled_900_variable_chain(self):
        formula, model = implication_chain(900, random.Random(124))
        random.Random(124).shuffle(formula.clauses)
        res = solve(formula)
        assert res.witness == model
        assert len(res.steps) == 899

    def test_shuffled_1200_variable_chain(self, tmp_path):
        # run as python -m projsat, from the shallow stack a user's run
        # has: once a sweep empties the computed table, one _ite of this
        # chain nests about 970 deep, which fits below Python's default
        # limit of 1000 frames, but not on top of pytest's own frames
        formula, model = implication_chain(1200, random.Random(128))
        random.Random(128).shuffle(formula.clauses)
        path = tmp_path / "chain.cnf"
        path.write_text(emit_dimacs(formula))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "projsat", "--input", str(path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 10, proc.stderr
        literals = [v + 1 if bit else -(v + 1) for v, bit in enumerate(model)]
        assert proc.stdout.splitlines()[-1] == "v " + " ".join(
            map(str, literals + [0]))


class TestFactorOrders:
    # any clause order gives a final factor == to the conjunction, so
    # the order moves only the steps

    def test_orders_agree_on_every_clause_kind(self):
        # tautologies, unit clauses and the odd empty clause mixed in
        rng = random.Random(121)
        for _ in range(80):
            formula = random_cnf(rng, max_vars=8, max_clauses=14)
            n = formula.var_count
            clauses = formula.clauses
            for _ in range(rng.randint(0, 2)):
                v = rng.randint(1, n)
                clauses.append(Clause.from_ints([v, -v]))
            for _ in range(rng.randint(0, 3)):
                v = rng.randint(1, n)
                clauses.append(Clause.from_ints([rng.choice((v, -v))]))
            if rng.random() < 0.1:
                clauses.append(Clause.from_ints([]))
            rng.shuffle(clauses)
            answers = []
            for order in FACTOR_ORDERS:
                res = solve(formula, factor_order=order)
                assert res.final == formula_to_func(formula, res.final.space)
                answers.append((res.status, res.witness,
                                res.final.enumerate_on_set()))
            assert all(answer == answers[0] for answer in answers)

    def test_bottom_up_keeps_a_shuffled_chain_small(self):
        # in input order the clause-shuffled 300-variable chain starts a
        # step with up to 59,476 nodes in its table (198 per variable);
        # bottom-up undoes the shuffle and stays within ten per variable
        # (2,383 here), below the sweep floor, so no sweep blurs it
        n = 300
        formula, model = implication_chain(n, random.Random(122))
        random.Random(122).shuffle(formula.clauses)
        res = solve(formula)
        assert res.witness == model
        assert max(step.remaining_before for step in res.steps) <= 10 * n

    def test_bottom_up_reduces_the_deepest_roots_first(self):
        # roots at x1, x2, x1, x3 and x2: x3 first, ties in input order
        clauses = [Clause.from_ints(c) for c in (
            [1, -2], [2, 3], [-1, 3], [-3], [-2, -3])]
        assert sorted(clauses, key=bottom_up_key) == [
            clauses[i] for i in (3, 1, 4, 0, 2)]
        # the empty clause, the constant 0, is rooted below them all
        assert bottom_up_key(Clause.from_ints([])) < bottom_up_key(clauses[3])
        formula = CnfFormula(3, clauses)
        res = solve(formula)
        s = res.final.space
        assert res.steps[0].func == clause_to_func(clauses[3], s)
        assert res.final == formula_to_func(formula, s)


class TestSweeps:
    # solve() ends each step with space.collect() on its whole state; a
    # sweep keeps every live handle, so the records stay == to anything
    # built later

    def test_forced_sweeps_keep_the_records_exact(self, monkeypatch):
        # a floor of 0 sweeps whenever the table has doubled; the 100
        # formulas of acceptance criterion 7 and two shuffled chains
        monkeypatch.setattr(engine, "_COLLECT_FLOOR", 0)
        rng = random.Random(0xACC7)
        formulas = [random_cnf(rng) for _ in range(100)]
        for n, seed in ((48, 118), (60, 119)):
            formula, _ = implication_chain(n, random.Random(seed))
            random.Random(seed).shuffle(formula.clauses)
            formulas.append(formula)
        swept = 0
        for formula in formulas:
            res = solve(formula)
            swept += res.final.space._nodes.count(None)
            assert (res.steps, res.final) == compose_path(formula, res.final.space)
        assert swept > 0

    def test_chain_tables_name_only_kept_nodes(self):
        # in input order the chain's tables outgrow the sweep floor; in
        # the default order they stay below it
        formula, model = implication_chain(300, random.Random(120))
        res = solve(formula, factor_order="input")
        assert res.witness == model
        space = res.final.space
        nodes, unique = space._nodes, space._unique
        kept = set(unique.values())
        # the sweeps freed nodes, and left no row, child or cache entry
        # naming one of them
        assert len(kept) < len(nodes) - 2
        for handle in range(2, len(nodes)):
            assert (nodes[handle] is None) == (handle not in kept)
        named = {0, 1} | kept
        for (level, lo, hi), handle in unique.items():
            assert nodes[handle] == (level, lo, hi)
            assert lo in named and hi in named
        for key, result in space._ite_cache.items():
            assert set(key) <= named and result in named
        roots = [step.func for step in res.steps] + [res.final]
        assert set().union(*(f._reachable() for f in roots)) <= kept
        assert res.final == formula_to_func(formula, space)


class TestStepFigures:
    # the loop counts no nodes: remaining_* are read off the space's
    # unique table, and factor_size is counted when it is read

    def test_solve_counts_no_nodes(self, monkeypatch):
        # the 100 formulas of acceptance criterion 7 in every order, and
        # a 300-variable chain
        rng = random.Random(0xACC7)
        formulas = [random_cnf(rng) for _ in range(100)]
        formulas.append(implication_chain(300, random.Random(123))[0])
        node_count = BoolFunc.node_count

        def refuse(func):
            raise AssertionError("solve() counted a factor's nodes")

        results = []
        for formula in formulas:
            for order in FACTOR_ORDERS:
                monkeypatch.setattr(BoolFunc, "node_count", refuse)
                res = solve(formula, factor_order=order)
                monkeypatch.setattr(BoolFunc, "node_count", node_count)
                results.append(res)
        assert sum(len(res.steps) for res in results) > 0
        for res in results:
            for step in res.steps:
                assert step.factor_size == step.func.node_count()
                assert step.remaining_before <= step.remaining_after
            if res.steps:
                assert res.steps[-1].remaining_after >= res.final.node_count()

    def test_solve_walks_no_graph_for_a_support(self, monkeypatch):
        # a target's support is its root's mask: outside collect()'s
        # marking, solve() walks no graph; the 100 formulas of acceptance
        # criterion 7 in every order, and the shuffled 900-variable chain
        rng = random.Random(0xACC7)
        formulas = [random_cnf(rng) for _ in range(100)]
        chain, model = implication_chain(900, random.Random(124))
        random.Random(124).shuffle(chain.clauses)
        formulas.append(chain)
        walk, collect = engine._decision_nodes, BoolSpace.collect
        walks = {"collect": 0, "other": 0}
        sweeping = []

        def counted_walk(nodes, roots):
            walks["collect" if sweeping else "other"] += 1
            return walk(nodes, roots)

        def counted_collect(space, roots):
            sweeping.append(space)
            try:
                return collect(space, roots)
            finally:
                sweeping.pop()

        monkeypatch.setattr(engine, "_decision_nodes", counted_walk)
        monkeypatch.setattr(BoolSpace, "collect", counted_collect)
        for formula in formulas:
            for order in FACTOR_ORDERS:
                res = solve(formula, factor_order=order)
                assert walks["other"] == 0
        assert res.witness == model
        # the hook sees a walk made outside collect()
        res.final.node_count()
        assert walks["other"] == 1

    def test_table_figures_stay_out_of_record_equality(self):
        formula = parse_dimacs(FOUR_VAR_SAT)
        step = solve(formula).steps[0]
        moved = replace(step, remaining_before=step.remaining_before + 5,
                        remaining_after=step.remaining_after + 7)
        assert moved == step
        # the cube is two ints, and one bit of either tells records
        # apart: the support is {x1, x2, x4} here, and x3 is unpinned
        assert step.pins == {0: 1, 1: 0, 3: 0}
        for flipped in (replace(step, bits=step.bits ^ 1),
                        replace(step, support=step.support ^ 1),
                        replace(step, support=step.support ^ 1 << 2)):
            assert flipped != step


class TestDeterminism:
    def test_repeat_runs_identical(self):
        formula = parse_dimacs(FOUR_VAR_SAT)
        first = solve(formula)
        second = solve(formula)
        assert first.witness == second.witness
        assert ([s.factor_size for s in first.steps]
                == [s.factor_size for s in second.steps])
        assert first.final.node_count() == second.final.node_count()


class TestRecords:
    def test_steps_reference_frozen_factors(self):
        formula = parse_dimacs(TWO_VAR_UNSAT)
        res = solve(formula)
        # one record per frozen factor, the last factor being final
        assert len(res.steps) < len(formula.clauses)
        for step in res.steps:
            if step.off_point is not None:
                assert len(step.off_point) == formula.var_count

    def test_chain_records_off_points_and_pins(self):
        formula = parse_dimacs(FOUR_VAR_SAT)
        res = solve(formula)
        assert all(step.off_point is not None for step in res.steps)
        funcs = [step.func for step in res.steps] + [res.final]
        for step, after in zip(res.steps, funcs[1:]):
            assert step.pins == {v: step.off_point[v] for v in step.pins}
            # here each target is the next factor, whose reduced form
            # vanishes on the pinned cube
            assert after.restrict(step.pins) == res.final.space.false

    def test_frozen_factors_are_prefix_conjunctions(self):
        # record i freezes the conjunction of the first i + 1 clauses in
        # solve order, or constant 1 when it has no pins: the 100
        # formulas of acceptance criterion 7 in every order, and a
        # 300-variable chain
        rng = random.Random(0xACC7)
        formulas = [random_cnf(rng) for _ in range(100)]
        formulas.append(implication_chain(300, random.Random(126))[0])
        kinds = {"pinned": 0, "skipped": 0}
        for formula in formulas:
            for order, key in FACTOR_ORDERS.items():
                res = solve(formula, factor_order=order)
                s = res.final.space
                clauses = [c for c in formula.clauses if not c.is_tautology]
                if key is not None:
                    clauses.sort(key=key)
                prefix = s.true
                for step, clause in zip(res.steps, clauses):
                    prefix &= clause_to_func(clause, s)
                    if step.pins is None:
                        kinds["skipped"] += 1
                        assert step.func == s.true
                    else:
                        kinds["pinned"] += 1
                        assert step.func == prefix
        assert kinds["pinned"] > 0 and kinds["skipped"] > 0

    def test_every_solve_returns_the_chain(self):
        # the chain is the step records plus the final factor, from
        # which the verdict and the witness are read
        for text in (TWO_VAR_UNSAT, FOUR_VAR_SAT):
            for order in FACTOR_ORDERS:
                res = solve(parse_dimacs(text), factor_order=order)
                assert (res.status is SolveStatus.SAT) == res.final.is_sat()
                assert res.witness == res.final.any_on_point()


class TestOracleCheck:
    def test_names_the_table_check_up_to_the_cap(self):
        formula = parse_dimacs(FOUR_VAR_SAT)
        checked = oracle_check(formula, solve(formula).final)
        assert "truth table" in checked

    def test_canonical_equality_above_the_cap(self):
        for n in (30, 300):
            formula, _ = implication_chain(n, random.Random(n))
            checked = oracle_check(formula, solve(formula).final)
            assert "direct conjunction" in checked

    def test_random_3sat_above_the_cap(self):
        # the reference conjoins in bottom-up order, which keeps it to a
        # fraction of the solve; dropping a clause that counts makes a
        # wrong final the check refuses
        n = MAX_TABLE_VARS + 2
        formula = random_3sat(n, 4.26, random.Random(124))
        final = solve(formula).final
        assert "direct conjunction" in oracle_check(formula, final)
        for dropped in range(len(formula.clauses)):
            rest = formula.clauses[:dropped] + formula.clauses[dropped + 1:]
            wrong = formula_to_func(
                CnfFormula(n, sorted(rest, key=bottom_up_key)), final.space)
            if wrong != final:
                break
        assert wrong != final
        with pytest.raises(RuntimeError):
            oracle_check(formula, wrong)

    def test_empty_clause_above_the_cap(self):
        formula, _ = implication_chain(30, random.Random(125))
        formula.clauses.insert(7, Clause.from_ints([]))
        final = solve(formula).final
        assert final == final.space.false
        assert "direct conjunction" in oracle_check(formula, final)
        with pytest.raises(RuntimeError):
            oracle_check(formula, final.space.true)

    def test_wrong_final_raises_below_and_above_the_cap(self):
        for n in (12, 30):
            formula, _ = implication_chain(n, random.Random(n))
            final = solve(formula).final
            wrong = final | final.space.var(0)
            assert wrong != final
            with pytest.raises(RuntimeError):
                oracle_check(formula, wrong)
            with pytest.raises(RuntimeError):
                oracle_check(formula, final.space.false)


class TestAboveCapModelCount:
    # a pure-Python DPLL counter is the reference above the truth
    # table's cap: it shares no code with the engine

    def test_counter_matches_the_truth_table(self):
        rng = random.Random(0xD9A9)
        for _ in range(60):
            formula = random_cnf(rng, max_vars=8, max_clauses=30)
            assert dpll_model_count(formula) == int(tt_of_formula(formula).bits.sum())

    @pytest.mark.parametrize("order, n, seed", [
        ("bottom-up", 30, 0xD9A0), ("bottom-up", 34, 0xD9A3),
        ("bottom-up", 40, 0xD9A1), ("input", 26, 0xD9A1),
        ("input", 28, 0xD9A1)])
    def test_verdict_and_model_count(self, order, n, seed):
        # random 3-SAT at ratio 4.26; the first and the fourth are UNSAT
        formula = random_3sat(n, 4.26, random.Random(seed))
        final = solve(formula, order).final
        models = dpll_model_count(formula)
        assert final.is_sat() == (models > 0)
        assert len(final.enumerate_on_set()) == models


class TestCubeSpelling:
    def test_disjoint_unit_clauses_spell_no_cube(self, spelled):
        # every frozen factor's support misses the cubes of the records
        # after it, so no restriction of a build walks and no cube is
        # spelled out, in either order
        n = 300
        formula = CnfFormula(n, [Clause.from_ints([-v]) for v in range(15, n + 1)])
        for order in FACTOR_ORDERS:
            res = solve(formula, order)
            assert res.witness == (0,) * n
            assert sum(step.support is not None for step in res.steps) == n - 15
        assert spelled == []
