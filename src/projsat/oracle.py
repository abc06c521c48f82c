"""Exhaustive truth-table oracle.

Tables are filled straight from clause data, each clause clearing
the subcube of points it rules out, touching none of the engine's
code, so agreement between the two paths is evidence rather than
tautology.  The only bridge back is tt_of_func, which reads an engine
function's graph level by level into a table, each distinct cofactor
of the last eight levels once.  It takes the graph as the compact node
arrays the engine's on-set enumeration also descends, but shares no
descent code with it; tt_of_formula reads none of them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cnf import CnfFormula

#: Largest variable count an exhaustive table will be built for.
MAX_TABLE_VARS = 24


def index_to_point(index: int, var_count: int) -> tuple[int, ...]:
    """Decode a table index into its point (bit i weighs 2^(n-1-i))."""
    return tuple((index >> (var_count - 1 - i)) & 1 for i in range(var_count))


def point_to_index(point: Sequence[int]) -> int:
    """Lexicographic rank of a point; inverse of index_to_point."""
    index = 0
    for bit in point:
        index = (index << 1) | (1 if bit else 0)
    return index


class TruthTable:
    """Bit vector over all 2**n points, in lexicographic point order."""

    __slots__ = ("var_count", "bits")

    def __init__(self, var_count: int, bits):
        if var_count > MAX_TABLE_VARS:
            raise ValueError(
                f"{var_count} variables exceed the table cap of {MAX_TABLE_VARS}")
        array = np.asarray(bits, dtype=bool)
        if array.shape != (1 << var_count,):
            raise ValueError("bit vector length must be exactly 2**var_count")
        self.var_count = var_count
        self.bits = array

    def count(self) -> int:
        """Number of satisfying points."""
        return int(self.bits.sum())

    def value_at(self, point: Sequence[int]) -> int:
        return int(self.bits[point_to_index(point)])

    def satisfying_points(self) -> list[tuple[int, ...]]:
        """All points mapped to 1, in lexicographic order."""
        return [index_to_point(int(i), self.var_count)
                for i in np.nonzero(self.bits)[0]]

    def __repr__(self) -> str:
        return f"TruthTable(vars={self.var_count}, on={self.count()})"


def tt_of_formula(formula: CnfFormula) -> TruthTable:
    """Evaluate a CNF by clearing each clause's falsifying subcube.

    Reshaped to n axes of length 2, the table holds variable i on axis
    i, the index bit of weight 2^(n-1-i).  A clause is 0 exactly where
    each of its literals is 0, a subcube that fixes its variables and
    leaves every other axis whole; the empty clause clears everything
    and a tautology nothing.
    """
    n = formula.var_count
    if n > MAX_TABLE_VARS:
        raise ValueError(f"{n} variables exceed the table cap of {MAX_TABLE_VARS}")
    acc = np.ones(1 << n, dtype=bool)
    cube = acc.reshape((2,) * n)
    for clause in formula.clauses:
        if clause.is_tautology:
            continue
        where = [slice(None)] * n
        for lit in clause.literals:
            where[lit.var] = int(lit.negated)
        cube[tuple(where)] = False
    return TruthTable(n, acc)


def tt_of_func(func) -> TruthTable:
    """Bridge from the engine: a BoolFunc's value at every point.

    Before level L an array holds, in lexicographic order, the node
    that each of the 2^L prefixes reaches; each entry then doubles into
    its low and high child, or into itself twice when its node does not
    test variable L.  The node arrays are the engine's compact ones,
    which its on-set enumeration descends too, in the table convention
    of BoolSpace.

    Prefixes are descended this way only down to the cut, the first
    of the last eight levels (level 0 when n <= 8).  Each distinct node
    reached there is one cofactor: it is descended alone into its block
    of the last 2^(n - cut) entries, and one gather lays out every
    prefix's block in turn.

    Each level gathers through two child maps made over the node
    arrays, which are small, so no full-size temporary is made besides
    the gathered halves.  The entries are uint16 node ids when the graph
    has fewer than 2^16 rows.  The last level reaches constants only,
    row 0 the constant 0 and row 1 the constant 1, so its maps and the
    blocks it fills are bools.
    """
    n = func.space.var_count
    if n > MAX_TABLE_VARS:
        raise ValueError(f"{n} variables exceed the table cap of {MAX_TABLE_VARS}")
    level, lo, hi, root = func._node_arrays()
    index = np.uint16 if level.size < 1 << 16 else np.int32
    stay = np.arange(level.size, dtype=index)

    def descend(reached, var):
        tests = level == var
        low = np.where(tests, lo, stay).astype(index)
        high = np.where(tests, hi, stay).astype(index)
        if var == n - 1:
            low, high = low == 1, high == 1
        doubled = np.empty(2 * reached.size, dtype=low.dtype)
        doubled[0::2] = low[reached]
        doubled[1::2] = high[reached]
        return doubled

    cut = max(n - 8, 0)
    reached = np.array([root], dtype=index)
    for var in range(cut):
        reached = descend(reached, var)
    nodes, inverse = np.unique(reached, return_inverse=True)
    blocks = nodes
    for var in range(cut, n):
        blocks = descend(blocks, var)
    # with n == 0 the one entry is the root, the constant 0 or 1 itself
    return TruthTable(n, blocks.reshape(nodes.size, -1)[inverse].reshape(-1))


def tt_equal(first: TruthTable, second: TruthTable) -> bool:
    """Exact comparison of two tables of the same width."""
    if first.var_count != second.var_count:
        raise ValueError("tables have different variable counts")
    return bool(np.array_equal(first.bits, second.bits))


def formula_satisfied(formula: CnfFormula, point: Sequence[int]) -> bool:
    """Direct clause-by-clause check that a point satisfies the formula."""
    if len(point) != formula.var_count:
        raise ValueError("point length does not match variable count")
    return all(clause.satisfied_by(point) for clause in formula.clauses)
