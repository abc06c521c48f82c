"""Command-line front end: solve, enumerate, trace, and self-verify.

Exit codes follow the SAT-competition convention: 10 for SAT, 20 for
UNSAT, 0 for a successful --mode verify run, 1 for usage, parse, or
runtime errors.  Human output uses 's' and 'v' lines; --json prints one
object mirroring the SolveResult on a single line instead.  The solver
only decides; the solution set of --mode all and the oracle check are
both read from its final factor here.  Every 'v' line, the single
witness included, starts as the all-negative line 'v -1 -2 ... -n 0'
laid out in fixed-width slots padded with NUL; the '-' of each true
variable becomes NUL too, and the NULs are deleted, a block of packed
rows at a time.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .cnf import DimacsParseError, parse_dimacs
from .engine import DEFAULT_ENUM_CAP, EnumerationCapError, PointRows
from .oracle import MAX_TABLE_VARS, formula_satisfied
from .solver import (FACTOR_ORDERS, SolveResult, SolveStatus, oracle_check,
                     solve)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SAT = 10
EXIT_UNSAT = 20


def _model_cap(text: str) -> int:
    """A --max-enum value: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projsat",
        description="Decide CNF satisfiability by chained projective reduction.")
    parser.add_argument("--input", metavar="PATH",
                        help="DIMACS CNF file (default: read stdin)")
    parser.add_argument("--mode", choices=("solve", "all", "trace", "verify"),
                        default="solve",
                        help="solve: one witness; all: every solution; "
                             "trace: per-step chain dump; verify: solve plus "
                             "oracle cross-checks, exit 0 on success")
    parser.add_argument("--order", choices=tuple(FACTOR_ORDERS),
                        default="bottom-up",
                        help="factor order: bottom-up (the default) reduces "
                             "clauses by descending smallest variable, input "
                             "is the paper's order (input sequence)")
    parser.add_argument("--oracle-check", action="store_true",
                        help="cross-check the final factor against the "
                             f"truth table up to {MAX_TABLE_VARS} variables, "
                             "above that the direct conjunction of the "
                             "clauses (implied by --mode verify)")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object instead of s/v lines")
    parser.add_argument("--max-enum", type=_model_cap, default=DEFAULT_ENUM_CAP,
                        metavar="COUNT",
                        help="model cap for --mode all (default 2^24)")
    return parser


#: The parser of every run() call, built once.
_PARSER = _build_parser()


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse flags, solve, print, and return the process exit code.

    The flags are parsed by the module's one parser, built at import:
    each parse_args call starts from a fresh namespace, so a call reads
    nothing of the calls before it.
    """
    try:
        opts = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own message; --help exits 0, usage errors 1
        return EXIT_OK if exc.code == 0 else EXIT_ERROR

    try:
        if opts.input:
            with open(opts.input, "rb") as handle:
                formula = parse_dimacs(handle)
        else:
            formula = parse_dimacs(sys.stdin.buffer.read())
    except (OSError, DimacsParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        result = solve(formula, opts.order)
        sat = result.status is SolveStatus.SAT
        solutions = (result.final.enumerate_on_set(opts.max_enum)
                     if opts.mode == "all" else None)
        checks = None
        if opts.oracle_check or opts.mode == "verify":
            checks = [oracle_check(formula, result.final)]
    except RecursionError:
        # a RuntimeError too, named here rather than passed on as one
        print(f"error: the decision diagrams of this {formula.var_count}-variable "
              "formula nest deeper than the Python recursion limit "
              f"({sys.getrecursionlimit()})", file=sys.stderr)
        return EXIT_ERROR
    except (EnumerationCapError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if opts.mode != "verify":
        _emit(result, solutions, None, opts)
        return EXIT_SAT if sat else EXIT_UNSAT
    if sat and not formula_satisfied(formula, result.witness):
        print("error: witness fails clause-by-clause evaluation",
              file=sys.stderr)
        return EXIT_ERROR
    checks.append("witness satisfies every clause" if sat
                  else "oracle confirms unsatisfiability")
    _emit(result, solutions, checks, opts)
    return EXIT_OK


#: Rows rendered per block of 'v' lines.
_BLOCK_ROWS = 1 << 14


def _write_witnesses(points: PointRows) -> None:
    """One 'v' line per point, in fixed slots with the NULs deleted.

    Variable v gets a slot of len(str(n)) + 2 bytes holding '-v '
    padded with NUL, so the all-negative line is one fixed-width row.
    Each row of a block starts as that template; the '-' of every
    variable its point sets to 1 becomes NUL too, and deleting every
    NUL leaves the lines.
    """
    var_count = points.var_count
    width = len(str(var_count)) + 2
    slots = b"".join(f"-{var} ".encode("ascii").ljust(width, b"\0")
                     for var in range(1, var_count + 1))
    template = np.frombuffer(b"v " + slots + b"0\n", dtype=np.uint8)
    for start in range(0, len(points), _BLOCK_ROWS):
        bits = np.unpackbits(points.rows[start:start + _BLOCK_ROWS], axis=1,
                             count=var_count)
        lines = np.tile(template, (len(bits), 1))
        # the '-' of each slot, one column per variable
        lines[:, 2:-2:width] *= 1 - bits
        sys.stdout.write(lines.tobytes().translate(None, b"\0").decode("ascii"))


def _pin_literals(pins: dict[int, int]) -> list[int]:
    """A pinned cube as signed DIMACS literals, sorted by variable."""
    return [v + 1 if bit else -(v + 1) for v, bit in sorted(pins.items())]


def _chain(result: SolveResult) -> list[tuple]:
    """(factor, size, off-point, pins) per frozen factor, the final one last."""
    final = result.final
    return [(s.func, s.factor_size, s.off_point, s.pins) for s in result.steps] + [
        (final, final.node_count(), None, None)]


#: The StepRecord fields --json prints for each step, after its position.
_STEP_KEYS = ("factor_size", "remaining_before", "remaining_after",
              "off_point")


def _json_object(result: SolveResult, solutions: Optional[PointRows],
                 opts) -> dict:
    """The SolveResult as plain data (json writes tuples as lists).

    "chain" is filled in --mode trace only.
    """
    chain = None
    if opts.mode == "trace":
        chain = [
            {
                "size": size,
                "formula": func.format_expr(max_terms=32),
                "off_point": off,
                "pins": _pin_literals(pins) if pins is not None else None,
            }
            for func, size, off, pins in _chain(result)
        ]
    return {
        "status": result.status.value,
        "var_count": result.final.space.var_count,
        "witness": result.witness,
        "all_solutions": solutions.tolist() if solutions is not None else None,
        "steps": [dict(factor_index=i, **{k: getattr(s, k) for k in _STEP_KEYS})
                  for i, s in enumerate(result.steps)],
        "chain": chain,
    }


def _emit(result: SolveResult, solutions: Optional[PointRows],
          checks: Optional[list[str]], opts) -> None:
    """Print the answer; checks are the --mode verify checks that passed."""
    if opts.json:
        payload = _json_object(result, solutions, opts)
        if checks is not None:
            payload["verified"] = checks
        print(json.dumps(payload, sort_keys=True))
        return
    for line in checks or ():
        print(f"c verified: {line}")
    if opts.mode == "trace":
        for lineno, (_, size, off, pins) in enumerate(_chain(result), start=1):
            off_text = "-" if off is None else "".join(map(str, off))
            print(f"c step {lineno}: factor size {size}, off-point {off_text}")
            if pins is not None:
                literals = "".join(f"{lit} " for lit in _pin_literals(pins))
                print(f"c   pins {literals}0")
    if result.status is SolveStatus.SAT:
        print("s SATISFIABLE")
        if solutions is None:
            solutions = PointRows.from_points([result.witness],
                                              result.final.space.var_count)
        _write_witnesses(solutions)
    else:
        print("s UNSATISFIABLE")


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
