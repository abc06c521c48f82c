"""Cube self-maps that pin one region and retarget everything else.

A projection here is a substitution vector acting on the Boolean cube:
it fixes every point of one function's ON-set (the "fixed" function)
and sends every other point into another function's OFF-set (the
"target").  Built from a single off-point of the target, the map has a
one-line formula per variable, and composing a function with it yields
that function's projective cofactor (see the solver module).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from .engine import BoolFunc, BoolSpace


@dataclass(frozen=True)
class Projection:
    """Substitution vector with optional provenance for diagnostics.

    ``fixed`` is the function whose ON-set the map leaves untouched and
    ``target`` the function whose OFF-set absorbs every other point.
    Both are advisory metadata; apply_to works from the substitution
    alone.
    """

    subst: tuple[BoolFunc, ...]
    fixed: Optional[BoolFunc] = None
    target: Optional[BoolFunc] = None
    off_point: Optional[tuple[int, ...]] = None

    def apply_to(self, func: BoolFunc) -> BoolFunc:
        """Compose a function with this substitution."""
        return func.compose(self.subst)

    def apply_to_point(self, point: Sequence[int]) -> tuple[int, ...]:
        """Where the map sends one point."""
        return tuple(entry(point) for entry in self.subst)

    def dump(self) -> list[str]:
        """Human-readable 'variable -> formula' lines."""
        if not self.subst:
            return []
        names = self.subst[0].space.var_names
        return [f"{name} -> {entry.format_expr(max_terms=16)}"
                for name, entry in zip(names, self.subst)]


def identity_projection(space: BoolSpace) -> Projection:
    """The do-nothing projection; a valid choice whenever fixed is 1."""
    return Projection(tuple(space.identity_subst()), fixed=space.true)


def point_projection(fixed: BoolFunc, target: BoolFunc,
                     off_point: Sequence[int]) -> Projection:
    """Build the single-point projection for (fixed, target).

    Per variable: stays put outside the target's support, becomes
    fixed & x_i where the off-point bit is 0, and ~fixed | x_i where it
    is 1.  Points in fixed's ON-set are untouched; every other point
    lands on the off-point pattern in the target's support, hence in
    the target's OFF-set.  When fixed is constant 1 the identity map is
    returned and the off-point is not consulted.
    """
    space = fixed.space
    space._check(target)
    if len(off_point) != space.var_count:
        raise ValueError("off-point length does not match variable count")
    if fixed == space.true:
        return identity_projection(space)
    if target == space.true:
        raise ValueError("a tautological target has no off-set to map into")
    if target(off_point) != 0:
        raise ValueError("off_point does not lie in the target's off-set")
    support = target.support()
    escape = ~fixed
    subst = []
    for i in range(space.var_count):
        var = space.var(i)
        if i not in support:
            subst.append(var)
        elif off_point[i]:
            subst.append(escape | var)
        else:
            subst.append(fixed & var)
    return Projection(tuple(subst), fixed, target,
                      tuple(1 if bit else 0 for bit in off_point))


def projection_for(fixed: BoolFunc, target: BoolFunc) -> Projection:
    """Deterministic projection using the target's smallest off-point."""
    space = fixed.space
    space._check(target)
    if fixed == space.true:
        return identity_projection(space)
    off = target.any_off_point()
    if off is None:
        raise ValueError("a tautological target has no off-set to map into")
    return point_projection(fixed, target, off)


def verify_projection(proj: Projection, fixed: BoolFunc,
                      target: BoolFunc) -> bool:
    """Exact symbolic check of both projection requirements.

    The map must agree with the identity on fixed's ON-set, and the
    target composed with the map must vanish on fixed's OFF-set.
    """
    space = fixed.space
    space._check(target)
    if len(proj.subst) != space.var_count:
        return False
    for i, entry in enumerate(proj.subst):
        if ((entry ^ space.var(i)) & fixed).is_sat():
            return False
    if (target.compose(proj.subst) & ~fixed).is_sat():
        return False
    return True


def compose_projections(outer: Projection, inner: Projection) -> Projection:
    """The map that applies ``inner`` first, then ``outer``.

    When both inputs pin regions for the same target, the result pins
    the intersection of the regions for that target.  A provenance
    target mismatch only raises a warning, since the requirements are
    about behavior; verify_projection re-checks the invariants of the
    result symbolically (quadratic in representation size).
    """
    if len(outer.subst) != len(inner.subst):
        raise ValueError("substitution lengths differ")
    subst = tuple(entry.compose(inner.subst) for entry in outer.subst)
    fixed = None
    if outer.fixed is not None and inner.fixed is not None:
        fixed = outer.fixed & inner.fixed
    if (outer.target is not None and inner.target is not None
            and outer.target != inner.target):
        warnings.warn("composed projections were built for different targets",
                      stacklevel=2)
        target = None
    elif outer.target is None:
        target = inner.target
    else:
        target = outer.target
    return Projection(subst, fixed, target, None)
