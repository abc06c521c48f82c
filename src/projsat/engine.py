"""Canonical Boolean function engine.

Functions live in a :class:`BoolSpace`, which stores them as reduced
ordered binary decision diagrams with hash-consed nodes.  Within one
space two functions are pointwise equal exactly when they carry the
same node handle, so every algebraic identity in this package reduces
to an ``==`` check.

Solution sets come back as :class:`PointRows`, packed bit rows filled
by one numpy descent over the function's nodes, level by level.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from operator import eq
from typing import Optional, Union

import numpy as np

#: Default ceiling on the number of models an enumeration may return.
DEFAULT_ENUM_CAP = 1 << 24

_FALSE = 0
_TRUE = 1

#: Smallest unique table that BoolSpace.collect sweeps.  Below it a
#: sweep frees little and empties a computed table still worth hitting.
_COLLECT_FLOOR = 1 << 13


class EnumerationCapError(ValueError):
    """An on-set enumeration would exceed the configured model cap."""


#: Rows unpacked at a time when a PointRows view is iterated.
_UNPACK_ROWS = 1 << 14


class PointRows(Sequence):
    """Read-only sequence of n-bit points stored as packed bit rows.

    ``rows`` is a (points x ceil(n/8)) uint8 array in the np.packbits
    layout: variable i is bit 7 - i % 8 of byte i // 8, so x1 is the
    high bit of byte 0.  Items are n-bit tuples, and a view compares
    equal to another view or to any sequence of the same tuples.
    """

    __slots__ = ("rows", "var_count")

    def __init__(self, rows: np.ndarray, var_count: int):
        rows = np.asarray(rows, dtype=np.uint8).view()
        if rows.ndim != 2 or rows.shape[1] != (var_count + 7) // 8:
            raise ValueError("rows must be a 2-D array of ceil(n/8) bytes each")
        rows.flags.writeable = False
        self.rows = rows
        self.var_count = var_count

    @classmethod
    def from_points(cls, points: Sequence[Sequence[int]],
                    var_count: int) -> "PointRows":
        """Pack a sequence of n-bit points, in the order given."""
        bits = np.array(points, dtype=np.uint8).reshape(len(points), var_count)
        return cls(np.packbits(bits, axis=1), var_count)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PointRows(self.rows[index], self.var_count)
        return tuple(np.unpackbits(self.rows[index], count=self.var_count).tolist())

    def __iter__(self):
        for start in range(0, len(self), _UNPACK_ROWS):
            yield from map(tuple, self[start:start + _UNPACK_ROWS].tolist())

    def tolist(self) -> list[list[int]]:
        """Every point as a list of bits, unpacked in one call."""
        return np.unpackbits(self.rows, axis=1, count=self.var_count).tolist()

    def __eq__(self, other) -> bool:
        if isinstance(other, PointRows):
            return (self.var_count == other.var_count
                    and np.array_equal(self.rows, other.rows))
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(map(repr, self[:8]))
        more = f", ... {len(self)} points" if len(self) > 8 else ""
        return f"PointRows([{shown}{more}])"


def mask_levels(mask: int) -> list[int]:
    """The indices of the bits set in ``mask``, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def mask_point(bits: int, var_count: int) -> tuple[int, ...]:
    """The n-bit point whose variable i is bit i of ``bits``."""
    point = [0] * var_count
    for i in mask_levels(bits):
        point[i] = 1
    return tuple(point)


def _decision_nodes(nodes: list, roots: Iterable[int]) -> set[int]:
    """The decision nodes reachable from the root handles."""
    # only decision nodes are pushed, each once: marked when pushed
    seen = {root for root in roots if root >= 2}
    mark = seen.add
    stack = list(seen)
    push = stack.append
    pop = stack.pop
    while stack:
        _, lo, hi = nodes[pop()]
        if lo >= 2 and lo not in seen:
            mark(lo)
            push(lo)
        if hi >= 2 and hi not in seen:
            mark(hi)
            push(hi)
    return seen


class BoolSpace:
    """Manages all Boolean functions over one ordered variable set.

    The variable order is fixed at construction, either as a count
    (names default to x1..xn, made when var_names is first read) or as
    an explicit name sequence.  A space is for one thread: nothing in
    it is locked, and separate spaces share no state.  The functions
    themselves are immutable.

    Table convention: ``_nodes[h]`` is the row ``(level, lo, hi)`` of
    handle h.  The constants 0 and 1 are rows 0 and 1, ``(n, 0, 0)``
    and ``(n, 1, 1)``: each is its own child at level n, below every
    variable.  Decision nodes follow from handle 2 on, each numbered
    after its children, so ascending handles list children first.
    ``_masks[h]`` is the support of handle h as a bit mask, bit i for
    variable i: 0 for the constants, and ``_masks[lo] | _masks[hi] |
    1 << level`` for a decision node, set once when the node is made,
    since a node never changes.  :meth:`collect` sets the row and the
    mask of each node it sweeps to None, and a handle is never reused,
    so that order holds after a sweep too.
    """

    def __init__(self, variables: Union[int, Sequence[str]]):
        if isinstance(variables, int):
            if variables < 0:
                raise ValueError("variable count must be >= 0")
            n, names = variables, None
        else:
            names = tuple(variables)
            n = len(names)
            if len(set(names)) != n:
                raise ValueError("duplicate variable name")
        self.var_count = n
        self._names: Optional[tuple[str, ...]] = names
        self._nodes: list[Optional[tuple[int, int, int]]] = [
            (n, _FALSE, _FALSE), (n, _TRUE, _TRUE)]
        self._masks: list[Optional[int]] = [0, 0]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        # the last cube _restricted walked by, kept by _spelled
        self._kept_cube: Optional[tuple] = None
        # decision nodes left by the last sweep
        self._live_after_sweep = 0

    @property
    def var_names(self) -> tuple[str, ...]:
        if self._names is None:
            self._names = tuple(f"x{i + 1}" for i in range(self.var_count))
        return self._names

    @property
    def unique_nodes(self) -> int:
        """Decision nodes in the unique table: every node not yet swept."""
        return len(self._unique)

    # -- function constructors ----------------------------------------

    def const(self, value) -> "BoolFunc":
        """The constant-0 or constant-1 function."""
        return BoolFunc(self, _TRUE if value else _FALSE)

    @property
    def true(self) -> "BoolFunc":
        return BoolFunc(self, _TRUE)

    @property
    def false(self) -> "BoolFunc":
        return BoolFunc(self, _FALSE)

    def var(self, index: int) -> "BoolFunc":
        """The projection function of the variable at ``index``."""
        if not 0 <= index < self.var_count:
            raise ValueError(f"variable index {index} out of range")
        return BoolFunc(self, self._mk(index, _FALSE, _TRUE))

    def named(self, name: str) -> "BoolFunc":
        """Like :meth:`var`, addressed by variable name."""
        try:
            index = self.var_names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None
        return self.var(index)

    def identity_subst(self) -> list["BoolFunc"]:
        """The substitution mapping every variable to itself."""
        return [self.var(i) for i in range(self.var_count)]

    def ite(self, cond: "BoolFunc", when_true: "BoolFunc",
            when_false: "BoolFunc") -> "BoolFunc":
        """Pointwise if-then-else of three functions."""
        self._check(cond)
        self._check(when_true)
        self._check(when_false)
        return BoolFunc(self, self._ite(cond._handle, when_true._handle,
                                        when_false._handle))

    def collect(self, roots: Iterable["BoolFunc"]) -> None:
        """Sweep the nodes that no root reaches, once the table has grown.

        The roots must reach every function of this space still in use:
        a function whose nodes are swept may not be used again.  Nothing
        happens until the unique table holds at least twice the nodes
        the last sweep kept, and at least ``_COLLECT_FLOOR``.  ``roots``
        may be any iterable, a one-shot generator included: it is
        iterated once, and only when a sweep runs.  A sweep keeps every
        node reachable from a root under its handle, sets the rows and
        masks of the others to None and empties the computed table,
        whose entries may name them.
        """
        if len(self._unique) < max(_COLLECT_FLOOR, 2 * self._live_after_sweep):
            return
        handles = []
        for func in roots:
            self._check(func)
            handles.append(func._handle)
        nodes, masks = self._nodes, self._masks
        marked = _decision_nodes(nodes, handles)
        for handle in self._unique.values():
            if handle not in marked:
                nodes[handle] = None
                masks[handle] = None
        self._unique = {nodes[handle]: handle for handle in marked}
        self._ite_cache = {}
        self._live_after_sweep = len(marked)

    # -- internals ------------------------------------------------------

    def _check(self, func) -> None:
        if not isinstance(func, BoolFunc):
            raise TypeError(f"expected BoolFunc, got {type(func).__name__}")
        if func.space is not self:
            raise ValueError("functions belong to different spaces")

    def _mk(self, level: int, lo: int, hi: int) -> int:
        """The handle of the node (level, lo, hi), reduced and hash-consed.

        This is the only place a node is made: its row, its support mask
        and its unique-table entry are written here and nowhere else.
        """
        if lo == hi:
            return lo
        key = (level, lo, hi)
        handle = self._unique.get(key)
        if handle is None:
            handle = len(self._nodes)
            self._nodes.append(key)
            masks = self._masks
            masks.append(masks[lo] | masks[hi] | 1 << level)
            self._unique[key] = handle
        return handle

    def _restricted(self, handle: int, mask: int, bits: int) -> int:
        """The handle with each variable in ``mask`` pinned to its bit in ``bits``.

        A handle whose support misses ``mask`` comes back unwalked.  The
        walk reads the cube spelled out per level by :meth:`_spelled`,
        which the space keeps until another cube arrives, and a memo of
        its own.  Pinned levels are followed as a path, without
        recursion, so the depth is bounded by the unpinned levels above
        the deepest pin.
        """
        if not self._masks[handle] & mask:
            return handle
        kept = self._kept_cube
        if kept is None or kept[0] != mask or kept[1] != bits:
            kept = self._spelled(mask, bits)
        return self._restricted_walk(handle, mask, kept[2], kept[3], {})

    def _spelled(self, mask: int, bits: int) -> tuple:
        """Keep the cube as (mask, bits, pinned, value).

        ``pinned`` reads "1" at each pinned level and ``value`` its bit,
        one character per level, the constants' level n included.  It
        names no node, so a sweep leaves it valid.
        """
        width = self.var_count + 1
        self._kept_cube = kept = (mask, bits, f"{mask:0{width}b}"[::-1],
                                  f"{bits:0{width}b}"[::-1])
        return kept

    def _restricted_walk(self, handle: int, mask: int, pinned: str,
                         value: str, memo: dict[int, int]) -> int:
        masks = self._masks
        nodes = self._nodes
        level, lo, hi = nodes[handle]
        while pinned[level] == "1":
            handle = hi if value[level] == "1" else lo
            level, lo, hi = nodes[handle]
        if not masks[handle] & mask:
            return handle
        result = memo.get(handle)
        if result is None:
            walk = self._restricted_walk
            result = self._mk(level, walk(lo, mask, pinned, value, memo),
                              walk(hi, mask, pinned, value, memo))
            memo[handle] = result
        return result

    def _ite(self, cond: int, yes: int, no: int) -> int:
        # the constants are written as the literals 0 and 1 here, which
        # this hot path loads faster than the module's _FALSE and _TRUE
        if cond == 1:
            return yes
        if cond == 0:
            return no
        if yes == no:
            return yes
        if yes == 1 and no == 0:
            return cond
        key = (cond, yes, no)
        cache = self._ite_cache
        hit = cache.get(key)
        if hit is not None:
            return hit
        nodes = self._nodes
        c_var, c_lo, c_hi = nodes[cond]
        y_var, y_lo, y_hi = nodes[yes]
        n_var, n_lo, n_hi = nodes[no]
        # an operand that does not test the top variable is its own
        # branch; two comparisons find the top level faster than min()
        level = c_var
        if y_var < level:
            level = y_var
        if n_var < level:
            level = n_var
        if c_var != level:
            c_lo = c_hi = cond
        if y_var != level:
            y_lo = y_hi = yes
        if n_var != level:
            n_lo = n_hi = no
        result = self._mk(level, self._ite(c_lo, y_lo, n_lo),
                          self._ite(c_hi, y_hi, n_hi))
        cache[key] = result
        return result

    def __repr__(self) -> str:
        return f"BoolSpace({list(self.var_names)!r})"


class BoolFunc:
    """One Boolean function, immutable and canonical within its space.

    Supports ``&``, ``|``, ``^``, ``~`` for the pointwise connectives,
    ``<=`` for implication, and calling with a point for evaluation.
    Instances are created through a :class:`BoolSpace`, never directly.
    """

    __slots__ = ("space", "_handle")

    def __init__(self, space: BoolSpace, handle: int):
        self.space = space
        self._handle = handle

    # -- algebra ---------------------------------------------------------

    def __and__(self, other: "BoolFunc") -> "BoolFunc":
        space = self.space
        space._check(other)
        return BoolFunc(space, space._ite(self._handle, other._handle, _FALSE))

    def __or__(self, other: "BoolFunc") -> "BoolFunc":
        space = self.space
        space._check(other)
        return BoolFunc(space, space._ite(self._handle, _TRUE, other._handle))

    def __xor__(self, other: "BoolFunc") -> "BoolFunc":
        space = self.space
        space._check(other)
        flipped = space._ite(other._handle, _FALSE, _TRUE)
        return BoolFunc(space, space._ite(self._handle, flipped, other._handle))

    def __invert__(self) -> "BoolFunc":
        space = self.space
        return BoolFunc(space, space._ite(self._handle, _FALSE, _TRUE))

    def implies(self, other: "BoolFunc") -> bool:
        """True when this function is pointwise at most ``other``."""
        space = self.space
        space._check(other)
        # f <= g exactly when ite(f, g, 1), that is ~f | g, is 1
        return space._ite(self._handle, other._handle, _TRUE) == _TRUE

    def __le__(self, other: "BoolFunc") -> bool:
        return self.implies(other)

    def __ge__(self, other: "BoolFunc") -> bool:
        self.space._check(other)
        return other.implies(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoolFunc):
            return NotImplemented
        return self.space is other.space and self._handle == other._handle

    def __hash__(self) -> int:
        return hash((id(self.space), self._handle))

    def __bool__(self):
        raise TypeError("truth value of a BoolFunc is ambiguous; "
                        "use is_sat() or an explicit comparison")

    # -- evaluation and structure -----------------------------------------

    def __call__(self, point: Sequence[int]) -> int:
        """Evaluate at a point (sequence of n bits)."""
        if len(point) != self.space.var_count:
            raise ValueError("point length does not match variable count")
        nodes = self.space._nodes
        handle = self._handle
        while handle >= 2:
            level, lo, hi = nodes[handle]
            handle = hi if point[level] else lo
        return handle

    def is_sat(self) -> bool:
        """True unless the function is constant 0."""
        return self._handle != _FALSE

    def any_on_point(self) -> Optional[tuple[int, ...]]:
        """Lexicographically smallest point mapped to 1, or None if none."""
        bits = self._first_bits_avoiding(_FALSE)
        return None if bits is None else mask_point(bits, self.space.var_count)

    def any_off_point(self) -> Optional[tuple[int, ...]]:
        """Lexicographically smallest point mapped to 0, or None if none."""
        bits = self.off_bits()
        return None if bits is None else mask_point(bits, self.space.var_count)

    def off_bits(self) -> Optional[int]:
        """:meth:`any_off_point` as an int, bit i for variable i."""
        return self._first_bits_avoiding(_TRUE)

    def _first_bits_avoiding(self, away: int) -> Optional[int]:
        # every decision node reaches both constants, so the low branch
        # leads to the other constant unless it is ``away`` itself
        if self._handle == away:
            return None
        nodes = self.space._nodes
        # bit i of the point is bit i % 8 of byte i // 8
        point = bytearray((self.space.var_count + 7) // 8)
        handle = self._handle
        while handle >= 2:
            level, lo, hi = nodes[handle]
            if lo == away:
                point[level >> 3] |= 1 << (level & 7)
                handle = hi
            else:
                handle = lo
        return int.from_bytes(point, "little")

    def _reachable(self) -> set[int]:
        """Handles of the decision nodes this function's graph contains."""
        return _decision_nodes(self.space._nodes, (self._handle,))

    def support_mask(self) -> int:
        """The variables the function depends on, bit i for variable i."""
        return self.space._masks[self._handle]

    def support(self) -> frozenset[int]:
        """Indices of the variables the function actually depends on."""
        return frozenset(mask_levels(self.support_mask()))

    def node_count(self) -> int:
        """Number of decision nodes in the representation (constants: 0)."""
        return len(self._reachable())

    def _node_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The reachable graph as compact int32 arrays for numpy descents.

        Returns ``(level, lo, hi, root)``: the rows of the constants and
        of the reachable nodes, in the table convention of
        :class:`BoolSpace`, renumbered by sorted handle.
        """
        nodes = self.space._nodes
        handles = np.array([_FALSE, _TRUE] + sorted(self._reachable()),
                           dtype=np.int32)
        level, lo, hi = np.array([nodes[h] for h in handles.tolist()],
                                 dtype=np.int32).T.copy()
        # a node's compact id is its position in the sorted handle array
        lo, hi = np.searchsorted(handles, (lo, hi)).astype(np.int32)
        root = int(np.searchsorted(handles, self._handle))
        return level, lo, hi, root

    def enumerate_on_set(self, cap: int = DEFAULT_ENUM_CAP) -> PointRows:
        """All points mapped to 1, in lexicographic order, as packed rows.

        Before level L the rows hold, in lexicographic order, the L-bit
        prefixes that still reach a node other than constant 0, and
        ``reached`` that node; each row then doubles into its low and
        high child, and children at constant 0 are dropped.  Every
        surviving prefix extends to a model, so no level holds more rows
        than the result.

        Raises EnumerationCapError, before any row is made, when the
        function has more than ``cap`` models.  They are counted first,
        children first, over the levels at and below each node: constant
        1 counts 1, a child's count doubles per level it skips, and no
        count is kept above cap + 1, so none outgrows the cap's width.
        """
        n = self.space.var_count
        level, lo, hi, root = self._node_arrays()
        # each child index is made a Python int only while it is read
        depth, counts = level.tolist(), [0, 1]
        for at, low, high in zip(depth[2:], map(int, lo[2:]), map(int, hi[2:])):
            counts.append(min(cap + 1, (counts[low] << depth[low] - at - 1)
                              + (counts[high] << depth[high] - at - 1)))
        if counts[root] << depth[root] > cap:
            raise EnumerationCapError(
                f"enumerating more than {cap} models exceeds the cap of {cap}")
        reached = np.array([root] if root != _FALSE else [], dtype=np.int32)
        rows = np.zeros((reached.size, (n + 7) // 8), dtype=np.uint8)
        for var in range(n):
            tests = level[reached] == var
            children = np.empty(2 * reached.size, dtype=np.int32)
            children[0::2] = np.where(tests, lo[reached], reached)
            children[1::2] = np.where(tests, hi[reached], reached)
            live = np.flatnonzero(children)
            # take gathers whole rows several times faster than rows[live >> 1]
            rows = rows.take(live >> 1, axis=0)
            rows[:, var >> 3] |= ((live & 1) << (7 - (var & 7))).astype(np.uint8)
            reached = children[live]
        return PointRows(rows, n)

    def compose(self, subst: Sequence["BoolFunc"]) -> "BoolFunc":
        """Substitute one function per variable and renormalize.

        Entry i replaces variable i; the result is the canonical form
        of f(subst[0](x), ..., subst[n-1](x)).
        """
        space = self.space
        if len(subst) != space.var_count:
            raise ValueError("substitution length does not match variable count")
        for entry in subst:
            space._check(entry)
        nodes = space._nodes
        memo = {_FALSE: _FALSE, _TRUE: _TRUE}
        # ascending handles rebuild every child before its parent
        for handle in sorted(self._reachable()):
            level, lo, hi = nodes[handle]
            memo[handle] = space._ite(subst[level]._handle, memo[hi], memo[lo])
        return BoolFunc(space, memo[self._handle])

    def restrict(self, assignment: Mapping[int, int]) -> "BoolFunc":
        """Cofactor by a cube: pin each variable index in ``assignment``.

        The result is f with x_i replaced by the constant assignment[i]
        for every listed i, in one walk linear in the size of f.  An
        empty assignment returns f unchanged.
        """
        space = self.space
        n = space.var_count
        mask = bits = 0
        for index, bit in assignment.items():
            if not 0 <= index < n:
                raise ValueError("variable index out of range")
            mask |= 1 << index
            if bit:
                bits |= 1 << index
        return BoolFunc(space, space._restricted(self._handle, mask, bits))

    def format_expr(self, max_terms: Optional[int] = None) -> str:
        """Sum-of-products rendering built from the 1-paths.

        Intended for diagnostics; the term count can grow exponentially
        with the variable count, so pass ``max_terms`` to truncate.
        """
        if self._handle == _FALSE:
            return "0"
        if self._handle == _TRUE:
            return "1"
        names = self.space.var_names
        nodes = self.space._nodes
        terms: list[str] = []
        truncated = False
        # depth-first, low branch first: path holds the literal of each
        # edge from the root (the root's own is ""), and an entry holds
        # its parent's length of path and the literal of its own edge
        path: list[str] = []
        stack: list[tuple[int, int, str]] = [(self._handle, 0, "")]
        while stack:
            handle, depth, literal = stack.pop()
            del path[depth:]
            if handle == _FALSE:
                continue
            path.append(literal)
            if handle == _TRUE:
                if max_terms is not None and len(terms) >= max_terms:
                    truncated = True
                    break
                terms.append("&".join(path[1:]))
                continue
            level, lo, hi = nodes[handle]
            depth = len(path)
            stack.append((hi, depth, names[level]))
            stack.append((lo, depth, "~" + names[level]))
        rendered = " | ".join(terms)
        return rendered + " | ..." if truncated else rendered

    def __repr__(self) -> str:
        return f"BoolFunc({self.format_expr(max_terms=4)})"
