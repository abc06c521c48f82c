"""Point projections: construction recipe, requirements, composition."""

import random
import warnings
from itertools import product

import pytest

from projsat import (
    BoolSpace,
    Projection,
    compose_projections,
    identity_projection,
    point_projection,
    projection_for,
    verify_projection,
)

from helpers import random_clause, random_func
from projsat import clause_to_func


def points(n):
    return list(product((0, 1), repeat=n))


class TestPointProjection:
    def test_two_var_recipe_bit_one(self):
        s = BoolSpace(["x", "y"])
        x, y = s.named("x"), s.named("y")
        proj = point_projection(x | y, x | ~y, (0, 1))
        assert proj.subst[0] == x
        assert proj.subst[1] == (~(x | y) | y)

    def test_two_var_recipe_bit_zero(self):
        s = BoolSpace(["x", "y"])
        x, y = s.named("x"), s.named("y")
        proj = point_projection(x, ~x | y, (1, 0))
        assert proj.subst[0] == s.true
        assert proj.subst[1] == (x & y)

    def test_off_support_variables_ride_along(self):
        s = BoolSpace(4)
        fixed = s.var(0) | s.var(1)
        target = s.var(2) | s.var(3)  # support excludes 0 and 1
        proj = point_projection(fixed, target, (1, 1, 0, 0))
        assert proj.subst[0] == s.var(0)
        assert proj.subst[1] == s.var(1)

    def test_tautological_fixed_gives_identity(self):
        s = BoolSpace(3)
        target = s.var(0)
        proj = point_projection(s.true, target, (0, 1, 1))
        assert list(proj.subst) == s.identity_subst()

    def test_tautological_target_rejected(self):
        s = BoolSpace(2)
        with pytest.raises(ValueError, match="tautological"):
            point_projection(s.var(0), s.true, (0, 0))

    def test_point_outside_off_set_rejected(self):
        s = BoolSpace(2)
        with pytest.raises(ValueError, match="off-set"):
            point_projection(s.var(0), s.var(1), (0, 1))

    def test_point_length_checked(self):
        s = BoolSpace(3)
        with pytest.raises(ValueError, match="length"):
            point_projection(s.var(0), s.var(1), (0,))

    def test_simplified_entries_match_raw_recipe(self):
        rng = random.Random(81)
        for _ in range(100):
            n = rng.randint(2, 6)
            s = BoolSpace(n)
            fixed, _ = random_func(s, rng)
            target, _ = random_func(s, rng)
            if fixed == s.true or target == s.true:
                continue
            off = target.any_off_point()
            proj = point_projection(fixed, target, off)
            for i in range(n):
                raw_bit = s.true if off[i] else s.false
                raw = (fixed & s.var(i)) | (~fixed & raw_bit)
                if i in target.support():
                    assert proj.subst[i] == raw
                else:
                    # off-support entries keep the variable, which agrees
                    # with the raw recipe when the off-point bit is read
                    # as the variable itself
                    alt = (fixed & s.var(i)) | (~fixed & s.var(i))
                    assert proj.subst[i] == alt

    def test_requirements_hold_for_random_clause_pairs(self):
        rng = random.Random(82)
        for _ in range(150):
            n = rng.randint(2, 8)
            s = BoolSpace(n)
            fixed = clause_to_func(random_clause(n, rng), s)
            target = clause_to_func(random_clause(n, rng), s)
            proj = projection_for(fixed, target)
            assert verify_projection(proj, fixed, target)

    def test_requirements_hold_for_random_functions(self):
        rng = random.Random(83)
        done = 0
        while done < 150:
            n = rng.randint(2, 7)
            s = BoolSpace(n)
            fixed, _ = random_func(s, rng)
            target, _ = random_func(s, rng)
            if target == s.true:
                continue
            proj = projection_for(fixed, target)
            assert verify_projection(proj, fixed, target)
            done += 1

    def test_on_set_fixed_pointwise(self):
        rng = random.Random(84)
        s = BoolSpace(6)
        done = 0
        while done < 60:
            fixed, _ = random_func(s, rng)
            target, _ = random_func(s, rng)
            if target == s.true:
                continue
            proj = projection_for(fixed, target)
            for p in points(6):
                if fixed(p) == 1:
                    assert proj.apply_to_point(p) == p
            done += 1

    def test_image_lands_in_off_union_on(self):
        rng = random.Random(85)
        s = BoolSpace(6)
        done = 0
        while done < 60:
            fixed, _ = random_func(s, rng)
            target, _ = random_func(s, rng)
            if target == s.true:
                continue
            proj = projection_for(fixed, target)
            for p in points(6):
                q = proj.apply_to_point(p)
                assert target(q) == 0 or fixed(q) == 1
            done += 1

    def test_off_points_map_to_the_chosen_pattern(self):
        s = BoolSpace(3)
        fixed = s.var(0)
        target = s.var(1) | s.var(2)
        proj = point_projection(fixed, target, (0, 0, 0))
        for p in points(3):
            if fixed(p) == 0:
                q = proj.apply_to_point(p)
                assert (q[1], q[2]) == (0, 0)


class TestProjectionFor:
    def test_uses_lexicographic_off_point(self):
        s = BoolSpace(["x", "y", "z", "w"])
        c1 = ~s.named("x") | s.named("y") | s.named("w")
        c2 = ~s.named("y") | s.named("z") | ~s.named("w")
        proj = projection_for(c1, c2)
        assert proj.off_point == (0, 1, 0, 1)

    def test_four_var_images(self):
        s = BoolSpace(["x", "y", "z", "w"])
        x, y, z, w = (s.named(v) for v in "xyzw")
        c1 = ~x | y | w
        c2 = ~y | z | ~w
        proj = projection_for(c1, c2)
        assert proj.subst[0] == x
        assert proj.subst[1] == (y | ~c1)
        assert proj.subst[1] == (y | (x & ~w))
        assert proj.subst[2] == (z & c1)
        assert proj.subst[3] == (w | ~c1)

    def test_identity_for_tautological_fixed_any_target(self):
        s = BoolSpace(2)
        proj = projection_for(s.true, s.true)
        assert list(proj.subst) == s.identity_subst()

    def test_tautological_target_rejected(self):
        s = BoolSpace(2)
        with pytest.raises(ValueError, match="tautological"):
            projection_for(s.var(0), s.var(1) | ~s.var(1))

    def test_zero_target_accepted(self):
        s = BoolSpace(2)
        proj = projection_for(s.var(0), s.false)
        assert proj.off_point == (0, 0)
        assert verify_projection(proj, s.var(0), s.false)


class TestVerify:
    def test_identity_valid_for_full_fixed(self):
        s = BoolSpace(2)
        ident = identity_projection(s)
        assert verify_projection(ident, s.true, s.true)

    def test_identity_invalid_when_off_set_misses_target(self):
        s = BoolSpace(2)
        ident = identity_projection(s)
        # some point off var(0) satisfies var(1), so identity fails
        assert not verify_projection(ident, s.var(0), s.var(1))

    def test_wrong_length_is_false(self):
        s = BoolSpace(3)
        bad = Projection(tuple(s.identity_subst()[:2]))
        assert not verify_projection(bad, s.var(0), s.var(1))

    def test_agrees_with_pointwise_definition(self):
        rng = random.Random(86)
        s = BoolSpace(5)
        pts = points(5)
        for _ in range(100):
            fixed, _ = random_func(s, rng)
            target, _ = random_func(s, rng)
            subst = tuple(random_func(s, rng, depth=2)[0] for _ in range(5))
            proj = Projection(subst)
            fixes = all(proj.apply_to_point(p) == p
                        for p in pts if fixed(p) == 1)
            lands = all(target(proj.apply_to_point(p)) == 0
                        for p in pts if fixed(p) == 0)
            assert verify_projection(proj, fixed, target) == (fixes and lands)


class TestCompose:
    def test_identity_neutral(self):
        rng = random.Random(87)
        s = BoolSpace(4)
        fixed = clause_to_func(random_clause(4, rng), s)
        target = clause_to_func(random_clause(4, rng), s)
        proj = projection_for(fixed, target)
        ident = identity_projection(s)
        assert compose_projections(proj, ident).subst == proj.subst
        assert compose_projections(ident, proj).subst == proj.subst

    def test_point_map_is_sequential_application(self):
        rng = random.Random(88)
        s = BoolSpace(5)
        done = 0
        while done < 40:
            g1, _ = random_func(s, rng)
            g2, _ = random_func(s, rng)
            h, _ = random_func(s, rng)
            if h == s.true:
                continue
            p1 = projection_for(g1, h)
            p2 = projection_for(g2, h)
            both = compose_projections(p1, p2)
            for p in points(5):
                assert both.apply_to_point(p) == \
                    p1.apply_to_point(p2.apply_to_point(p))
            done += 1

    def test_composite_pins_intersection_both_orders(self):
        rng = random.Random(89)
        done = 0
        while done < 100:
            n = rng.randint(2, 8)
            s = BoolSpace(n)
            g1 = clause_to_func(random_clause(n, rng), s)
            g2 = clause_to_func(random_clause(n, rng), s)
            h = clause_to_func(random_clause(n, rng), s)
            p1 = projection_for(g1, h)
            p2 = projection_for(g2, h)
            for combo in (compose_projections(p1, p2),
                          compose_projections(p2, p1)):
                assert verify_projection(combo, g1 & g2, h)
            done += 1

    def test_composite_verify_flag(self):
        s = BoolSpace(3)
        g1, g2 = s.var(0), s.var(1)
        h = s.var(2)
        p1 = projection_for(g1, h)
        p2 = projection_for(g2, h)
        combo = compose_projections(p1, p2)
        assert combo.fixed == (g1 & g2)
        assert combo.target == h
        assert verify_projection(combo, g1 & g2, h)

    def test_associativity(self):
        rng = random.Random(90)
        s = BoolSpace(6)
        h = clause_to_func(random_clause(6, rng), s)
        ps = [projection_for(clause_to_func(random_clause(6, rng), s), h)
              for _ in range(3)]
        left = compose_projections(compose_projections(ps[0], ps[1]), ps[2])
        right = compose_projections(ps[0], compose_projections(ps[1], ps[2]))
        assert left.subst == right.subst

    def test_target_mismatch_warns(self):
        s = BoolSpace(3)
        p1 = projection_for(s.var(0), s.var(1))
        p2 = projection_for(s.var(0), s.var(2))
        with pytest.warns(UserWarning, match="different targets"):
            combo = compose_projections(p1, p2)
        assert combo.target is None

    def test_length_mismatch_rejected(self):
        a = identity_projection(BoolSpace(2))
        b = identity_projection(BoolSpace(3))
        with pytest.raises(ValueError, match="length"):
            compose_projections(a, b)


class TestDiagnostics:
    def test_apply_to_is_composition(self):
        rng = random.Random(91)
        s = BoolSpace(4)
        fixed = clause_to_func(random_clause(4, rng), s)
        target = clause_to_func(random_clause(4, rng), s)
        proj = projection_for(fixed, target)
        f, _ = random_func(s, rng)
        assert proj.apply_to(f) == f.compose(proj.subst)

    def test_dump_lines(self):
        s = BoolSpace(["x", "y"])
        proj = projection_for(s.named("x"), s.named("y"))
        lines = proj.dump()
        assert len(lines) == 2
        assert lines[0].startswith("x -> ")
        assert all("->" in line for line in lines)

    def test_dump_of_empty_projection(self):
        assert Projection(()).dump() == []

    def test_provenance_recorded(self):
        s = BoolSpace(2)
        proj = projection_for(s.var(0), s.var(1))
        assert proj.fixed == s.var(0)
        assert proj.target == s.var(1)
        assert proj.off_point == (0, 0)

    def test_frozen(self):
        s = BoolSpace(2)
        proj = identity_projection(s)
        with pytest.raises(Exception):
            proj.subst = ()
