"""Cofactor intervals and the covered-sum expansion.

A cofactor of f with respect to a region g is any function that agrees
with f everywhere g is 1.  Those functions form the interval
[f & g, f | ~g]; this module exposes the bounds, the membership test,
the general member construction, and the expansion identity that
rebuilds f from cofactors over a covering family of regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .engine import BoolFunc


@dataclass(frozen=True)
class CofactorInterval:
    """Bounds of a cofactor interval: lower = f & g, upper = f | ~g."""

    lower: BoolFunc
    upper: BoolFunc

    def __contains__(self, func: BoolFunc) -> bool:
        return self.lower <= func and func <= self.upper


def cofactor_interval(func: BoolFunc, region: BoolFunc) -> CofactorInterval:
    """The interval of all functions agreeing with func on region's ON-set."""
    # f | ~g is ite(g, f, 1): one ite, with no complement built
    space = func.space
    return CofactorInterval(func & region, space.ite(region, func, space.true))


def is_cofactor(candidate: BoolFunc, func: BoolFunc, region: BoolFunc) -> bool:
    """True when candidate agrees with func everywhere region is 1."""
    return (candidate & region) == (func & region)


def general_cofactor(func: BoolFunc, region: BoolFunc,
                     filler: BoolFunc) -> BoolFunc:
    """The interval member that behaves like filler off the region.

    Returns func & region | filler & ~region, built as the one
    ite(region, func, filler); sweeping filler over all functions sweeps
    the whole cofactor interval.
    """
    return func.space.ite(region, func, filler)


def expand(func: BoolFunc, regions: Sequence[BoolFunc],
           cofactors: Sequence[BoolFunc]) -> BoolFunc:
    """Rebuild func as the union of cofactors masked by their regions.

    Requires the regions to jointly cover func and each entry to be a
    genuine cofactor on its region; both preconditions are checked
    eagerly and reported separately.
    """
    if len(regions) != len(cofactors):
        raise ValueError("regions and cofactors must pair up one to one")
    if not regions:
        raise ValueError("at least one region is required")
    space = func.space
    cover = space.false
    for region in regions:
        cover = cover | region
    if not func <= cover:
        raise ValueError("cover violation: the regions do not cover the function")
    for i, (region, member) in enumerate(zip(regions, cofactors)):
        if not is_cofactor(member, func, region):
            raise ValueError(f"entry {i} is not a cofactor on its region")
    total = space.false
    for region, member in zip(regions, cofactors):
        total = total | (member & region)
    assert total == func
    return total
