"""SAT by chained projective-cofactor reduction.

The solver keeps one symbolic factor per clause.  At step i the
current factor f is frozen and a projection is chosen that pins f's
ON-set and sends every other point to one OFF-set point p of the next
remaining factor t (as it currently stands, after earlier
reductions).  Every remaining factor g is rewritten through that map.
For this single-point map the rewrite has a closed form,

    g o pi == ite(f, g, g restricted to supp(t) = p),

so a step costs one cube restriction and one ite per factor, and the
substitution vector is never built.  The chain records each step as
the frozen factor, the off-point p and the pinned cube supp(t) = p,
which together determine the map.  Because the product of the
remaining factors is always bounded by the chosen target, each step
preserves that product exactly; the final factor therefore equals the
conjunction of the whole formula and hands out witnesses and solution
sets directly.

Targeting the factor as already reduced matters: aiming at the
original clause instead lets a later factor drift above its clause,
after which the product is no longer preserved and the verdict can be
wrong.  See tests/test_solver.py for a four-clause instance that
trips the original-clause variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .cnf import CnfFormula, clause_to_func
from .engine import DEFAULT_ENUM_CAP, BoolFunc, BoolSpace, PointRows
from .oracle import tt_equal, tt_of_formula, tt_of_func
# projection_for is unused here; bench/tracing.py wraps it under this name
from .projections import Projection, projection_for, verify_projection


class SolveStatus(str, Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"


@dataclass
class SolveConfig:
    """Solver knobs; the defaults give the sequential input-order run."""

    factor_order: str = "input"  # "input" or "size" (ascending clause width)
    enumerate_all: bool = False
    oracle_check: bool = False
    enum_cap: int = DEFAULT_ENUM_CAP

    def __post_init__(self):
        if self.factor_order not in ("input", "size"):
            raise ValueError("factor_order must be 'input' or 'size'")


@dataclass
class StepRecord:
    """Statistics for one outer-loop step (indices are 0-based)."""

    factor_index: int
    factor_size: int
    remaining_before: int
    remaining_after: int
    off_point: Optional[tuple[int, ...]]


@dataclass
class ChainStep:
    """One frozen factor plus the projective step taken from it.

    ``off_point`` is the smallest OFF-set point p of the step's target t
    and ``pins`` the cube {v: p[v] for v in supp(t)} that the remaining
    factors were restricted by off the frozen factor; with ``func`` they
    determine the projection.  Both are None for the last factor and for
    skipped tautologies.
    """

    func: BoolFunc
    size: int
    off_point: Optional[tuple[int, ...]] = None
    pins: Optional[dict[int, int]] = None


@dataclass
class SolveResult:
    """Verdict, witness, optional solution set, and per-step records.

    ``all_solutions`` is the final factor's on-set as packed bit rows
    (None unless enumeration was asked for), ``chain`` holds one entry
    per frozen factor, and ``final`` is the last factor, canonically
    equal to the conjunction of the whole formula.
    """

    status: SolveStatus
    witness: Optional[tuple[int, ...]]
    all_solutions: Optional[PointRows]
    steps: list[StepRecord]
    chain: list[ChainStep]
    var_count: int
    final: Optional[BoolFunc]

    def to_json_dict(self) -> dict:
        """Plain-data mirror, chain aside, used by the CLI's JSON output."""
        return {
            "status": self.status.value,
            "var_count": self.var_count,
            "witness": list(self.witness) if self.witness is not None else None,
            "all_solutions": (self.all_solutions.tolist()
                              if self.all_solutions is not None else None),
            "steps": [
                {
                    "factor_index": s.factor_index,
                    "factor_size": s.factor_size,
                    "remaining_before": s.remaining_before,
                    "remaining_after": s.remaining_after,
                    "off_point": list(s.off_point) if s.off_point is not None else None,
                }
                for s in self.steps
            ],
        }


def projective_cofactor(func: BoolFunc, fixed: BoolFunc, proj: Projection, *,
                        verify: bool = False) -> BoolFunc:
    """Compose func with the projection's substitution.

    The result agrees with func everywhere fixed is 1 (so it is a
    cofactor of func on that region) and lies between func & fixed and
    func | ~fixed.  With verify=True the projection's requirements are
    re-checked first, against its recorded provenance target when
    present, else against func itself.
    """
    if verify:
        reference = proj.target if proj.target is not None else func
        if not verify_projection(proj, fixed, reference):
            raise ValueError("projection does not pin the given region")
    return func.compose(proj.subst)


def solve(formula: CnfFormula, config: Optional[SolveConfig] = None) -> SolveResult:
    """Decide a CNF by chained projective reduction.

    Tautological clauses are dropped up front; an empty clause is an
    immediate UNSAT.  The remaining factors are reduced left to right,
    and the final factor's on-set is the formula's full solution set.
    The result's chain records every step the loop took.
    """
    cfg = config if config is not None else SolveConfig()
    n = formula.var_count
    space = BoolSpace(n)

    live = [c for c in formula.clauses if not c.is_tautology]
    if any(not c.literals for c in live):
        tail = [ChainStep(space.false, space.false.node_count())]
        return _finalize(formula, cfg, SolveStatus.UNSAT, space.false, [], tail, n)
    if cfg.factor_order == "size":
        live = sorted(live, key=len)

    working = [clause_to_func(c, space) for c in live]
    k = len(working)
    if k == 0:
        tail = [ChainStep(space.true, space.true.node_count())]
        return _finalize(formula, cfg, SolveStatus.SAT, space.true, [], tail, n)

    # node counts of the factors, refreshed only for rewritten ones
    sizes = [func.node_count() for func in working]
    steps: list[StepRecord] = []
    chain: list[ChainStep] = []
    status = SolveStatus.SAT
    final: Optional[BoolFunc] = None
    for i in range(k):
        current = working[i]
        entry = ChainStep(current, sizes[i])
        chain.append(entry)
        if not current.is_sat():
            status = SolveStatus.UNSAT
            final = current
            break
        if i == k - 1:
            final = current
            break
        before = sum(sizes[i + 1:])
        if current == space.true:
            steps.append(StepRecord(i, 0, before, before, None))
            continue
        target = next((working[j] for j in range(i + 1, k)
                       if working[j] != space.true), None)
        if target is None:
            final = current
            break
        off = target.any_off_point()
        cube = {v: off[v] for v in target.support()}
        entry.off_point, entry.pins = off, cube
        for j in range(i + 1, k):
            func = working[j]
            rewritten = space.ite(current, func, func.restrict(cube))
            if rewritten != func:
                working[j] = rewritten
                sizes[j] = rewritten.node_count()
        steps.append(StepRecord(i, sizes[i], before, sum(sizes[i + 1:]), off))

    return _finalize(formula, cfg, status, final, steps, chain, n)


def _finalize(formula: CnfFormula, cfg: SolveConfig, status: SolveStatus,
              final: Optional[BoolFunc], steps: list[StepRecord],
              chain: list[ChainStep], var_count: int) -> SolveResult:
    if final is not None and not final.is_sat():
        status = SolveStatus.UNSAT
    witness = None
    if status is SolveStatus.SAT and final is not None:
        witness = final.any_on_point()
    solutions = None
    if cfg.enumerate_all:
        if status is SolveStatus.SAT and final is not None:
            solutions = final.enumerate_on_set(cfg.enum_cap)
        else:
            solutions = PointRows.from_points([], var_count)
    if cfg.oracle_check:
        _oracle_check(formula, status, final)
    return SolveResult(status, witness, solutions, steps, chain, var_count,
                       final)


def _oracle_check(formula: CnfFormula, status: SolveStatus,
                  final: Optional[BoolFunc]) -> None:
    table = tt_of_formula(formula)
    if final is not None:
        ok = tt_equal(table, tt_of_func(final))
    else:
        ok = table.count() == 0
    if not ok:
        raise RuntimeError("final factor disagrees with the exhaustive oracle")

