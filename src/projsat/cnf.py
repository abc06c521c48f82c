"""DIMACS CNF parsing, emission, and clause-to-function construction."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from operator import attrgetter
from typing import IO, Iterable, Sequence, Union

from .engine import BoolFunc, BoolSpace


class DimacsParseError(ValueError):
    """Malformed DIMACS input; the message carries the offending line."""


@dataclass(frozen=True)
class Literal:
    """One signed variable occurrence inside a clause."""

    var: int
    negated: bool = False

    @classmethod
    def from_dimacs(cls, token: int) -> "Literal":
        """Build from a DIMACS integer: k means variable k-1, sign means polarity."""
        if token == 0:
            raise ValueError("0 is a clause terminator, not a literal")
        return cls(abs(token) - 1, token < 0)

    def to_dimacs(self) -> int:
        return -(self.var + 1) if self.negated else self.var + 1

    def satisfied_by(self, point: Sequence[int]) -> bool:
        return bool(point[self.var]) != self.negated

    def __repr__(self) -> str:
        sign = "~" if self.negated else ""
        return f"{sign}x{self.var + 1}"


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals; duplicates are dropped at construction.

    A clause holding some variable in both polarities is kept but
    reports is_tautology, so consumers can decide to skip it.  The
    empty clause is permitted and denotes constant 0.
    """

    literals: tuple[Literal, ...]

    def __post_init__(self):
        object.__setattr__(self, "literals", tuple(dict.fromkeys(self.literals)))

    @classmethod
    def from_ints(cls, tokens: Iterable[int]) -> "Clause":
        return cls(tuple(Literal.from_dimacs(t) for t in tokens))

    @property
    def is_tautology(self) -> bool:
        positive = {lit.var for lit in self.literals if not lit.negated}
        negative = {lit.var for lit in self.literals if lit.negated}
        return bool(positive & negative)

    def to_ints(self) -> list[int]:
        return [lit.to_dimacs() for lit in self.literals]

    def satisfied_by(self, point: Sequence[int]) -> bool:
        return any(lit.satisfied_by(point) for lit in self.literals)

    def __len__(self) -> int:
        return len(self.literals)


@dataclass
class CnfFormula:
    """Clause list over a fixed variable count, with comments preserved."""

    var_count: int
    clauses: list[Clause]
    comments: list[str] = field(default_factory=list)

    def __post_init__(self):
        for clause in self.clauses:
            for lit in clause.literals:
                if not 0 <= lit.var < self.var_count:
                    raise ValueError(
                        f"literal {lit!r} out of range for {self.var_count} variables")


def parse_dimacs(source: Union[str, bytes, IO]) -> CnfFormula:
    """Parse DIMACS CNF text into a CnfFormula.

    Accepts a string, bytes, or a file-like object; UTF-8 or ASCII,
    LF or CRLF.  Comment lines start with 'c', the single header line
    is 'p cnf <vars> <clauses>', and clauses are 0-terminated integer
    runs that may span lines.  A line that is exactly '%' ends the
    clause section and whatever follows it is ignored, so the '%' / '0'
    trailer of the SATLIB uf* files parses.  A clause count differing
    from the header is reported as a warning, not an error; input that
    is not UTF-8 raises DimacsParseError.

    Each distinct literal token is checked and made into a Literal once
    per parse, at its first occurrence, where any error it has is
    raised; its later occurrences reuse that Literal.
    """
    try:
        data = source.read() if hasattr(source, "read") else source
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DimacsParseError(
            f"byte {exc.object[exc.start]:#04x} at offset {exc.start} "
            "is not UTF-8") from None

    header: tuple[int, int] | None = None
    clauses: list[Clause] = []
    comments: list[str] = []
    pending: list[Literal] = []
    # each distinct literal token's Literal, made once per parse
    literals: dict[str, Literal] = {}

    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            comments.append(line[1:].lstrip())
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsParseError(f"line {lineno}: second 'p cnf' header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsParseError(f"line {lineno}: malformed header {line!r}")
            try:
                var_count, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsParseError(
                    f"line {lineno}: malformed header {line!r}") from None
            if var_count < 0 or declared < 0:
                raise DimacsParseError(f"line {lineno}: negative header counts")
            header = (var_count, declared)
            continue
        if line == "%":
            break
        if header is None:
            raise DimacsParseError(
                f"line {lineno}: clause data before the 'p cnf' header")
        for token in line.split():
            lit = literals.get(token)
            if lit is not None:
                pending.append(lit)
                continue
            try:
                value = int(token)
            except ValueError:
                raise DimacsParseError(
                    f"line {lineno}: non-integer token {token!r}") from None
            if value == 0:
                clauses.append(Clause(tuple(pending)))
                pending = []
            else:
                if abs(value) > header[0]:
                    raise DimacsParseError(
                        f"line {lineno}: literal {value} out of range "
                        f"for {header[0]} variables")
                lit = literals[token] = Literal.from_dimacs(value)
                pending.append(lit)

    if header is None:
        raise DimacsParseError("missing 'p cnf' header")
    if pending:
        raise DimacsParseError("last clause is not 0-terminated")
    if len(clauses) != header[1]:
        warnings.warn(
            f"header declares {header[1]} clauses but {len(clauses)} were read",
            stacklevel=2)
    return CnfFormula(header[0], clauses, comments)


def emit_dimacs(formula: CnfFormula) -> str:
    """Render a CnfFormula back to DIMACS text (comments first)."""
    lines = [f"c {text}".rstrip() for text in formula.comments]
    lines.append(f"p cnf {formula.var_count} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(str(t) for t in clause.to_ints() + [0]))
    return "\n".join(lines) + "\n"


def clause_to_func(clause: Clause, space: BoolSpace) -> BoolFunc:
    """Disjunction of the clause's literals; the empty clause is constant 0.

    The diagram is one chain, one node per literal, built bottom-up: a
    literal's node leads to 1 on the bit that satisfies it and to the
    chain of the deeper literals otherwise.  A tautology is constant 1.
    """
    literals = sorted(clause.literals, key=attrgetter("var"), reverse=True)
    if literals and not (literals[-1].var >= 0
                         and literals[0].var < space.var_count):
        raise ValueError("variable index out of range")
    handle = 0  # the constant 0, below every literal
    below = None
    for lit in literals:
        # duplicates were dropped, so a repeated variable is a tautology
        if lit.var == below:
            return space.true
        below = lit.var
        if lit.negated:
            handle = space._mk(lit.var, 1, handle)
        else:
            handle = space._mk(lit.var, handle, 1)
    return BoolFunc(space, handle)


def formula_to_func(formula: CnfFormula, space: BoolSpace) -> BoolFunc:
    """Conjunction of all clause functions; an empty list is constant 1."""
    out = space.true
    for clause in formula.clauses:
        out = out & clause_to_func(clause, space)
    return out
