"""Command-line front end: solve, enumerate, trace, and self-verify.

Exit codes follow the SAT-competition convention: 10 for SAT, 20 for
UNSAT, 0 for a successful --mode verify run, 1 for usage, parse, or
runtime errors.  Human output uses 's' and 'v' lines; --json prints one
object mirroring the SolveResult on a single line instead.  The solver
only decides; the solution set of --mode all and the oracle check are
both read from its final factor here.  The 'v' lines, the single
witness included, are rendered from the packed rows in fixed-width
slots padded with NUL, which are then deleted.  Points that share their
first packed byte, the head of 8 variables, are rendered as runs: the
head once, and each distinct block of tails once, joined under every
head that reaches it.
"""

from __future__ import annotations

import argparse
import json
import os
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
                             "trace: per-step chain dump; verify: solve, then "
                             "check the final factor against the truth table "
                             f"up to {MAX_TABLE_VARS} variables (above that, "
                             "the direct conjunction of the clauses) and a "
                             "witness against every clause, exit 0 on success")
    parser.add_argument("--order", choices=tuple(FACTOR_ORDERS),
                        default="bottom-up",
                        help="factor order: bottom-up (the default) reduces "
                             "clauses by descending smallest variable, input "
                             "is the paper's order (input sequence)")
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
        checks = ([oracle_check(formula, result.final)]
                  if opts.mode == "verify" else None)
    except RecursionError:
        # a RuntimeError too, named here rather than passed on as one
        print(f"error: the decision diagrams of this {formula.var_count}-variable "
              "formula nest deeper than the Python recursion limit "
              f"({sys.getrecursionlimit()})", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        return _out_of_memory(exc)
    except (EnumerationCapError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if opts.mode == "verify" and sat:
        if not formula_satisfied(formula, result.witness):
            print("error: witness fails clause-by-clause evaluation",
                  file=sys.stderr)
            return EXIT_ERROR
        checks.append("witness satisfies every clause")
    try:
        _emit(result, solutions, checks, opts)
    except MemoryError as exc:
        return _out_of_memory(exc)
    if opts.mode == "verify":
        return EXIT_OK
    return EXIT_SAT if sat else EXIT_UNSAT


def _out_of_memory(exc: MemoryError) -> int:
    """One 'error:' line for a MemoryError, naming the array if numpy did."""
    detail = f": {exc}" if str(exc) else ""
    print(f"error: out of memory{detail}", file=sys.stderr)
    return EXIT_ERROR


#: Bytes of 'v' lines rendered per block, whatever the line width.
_BLOCK_BYTES = 1 << 20


def _write(data: bytes) -> None:
    """Write ASCII bytes to stdout after the text written before them.

    The text layer is flushed first, then the bytes go to its binary
    buffer undecoded; a stream without one, such as io.StringIO, takes
    them as text.
    """
    sys.stdout.flush()
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(data.decode("ascii"))
    else:
        buffer.write(data)


def _tiled(rows: np.ndarray, count: int, template: np.ndarray):
    """(bits, lines) for a block of packed rows.

    ``bits`` holds the first ``count`` bits of each row, one column per
    variable, and ``lines`` one copy of the uint8 ``template`` per row,
    for the caller to write the bits into.
    """
    bits = np.unpackbits(rows, axis=1, count=count)
    return bits, np.tile(template, (len(bits), 1))


def _ascii(text: str) -> np.ndarray:
    """The ASCII text as a uint8 array."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def _slots(start: int, stop: int, width: int) -> np.ndarray:
    """The negative literals of variables start + 1 to stop, as uint8.

    Variable v gets a slot of ``width`` bytes: '-', the digits of v
    right-aligned in NUL padding, and ' '.
    """
    var = np.arange(start + 1, stop + 1)
    slots = np.zeros((var.size, width), dtype=np.uint8)
    slots[:, 0] = ord("-")
    slots[:, -1] = ord(" ")
    for place in range(width - 2):
        power = 10 ** place
        slots[:, -2 - place] = np.where(var >= power, var // power % 10 + ord("0"), 0)
    return slots.reshape(-1)


class _Literals:
    """The 'v'-line literals of a range of variables, one row each.

    The all-negative text of the range, its _slots of ``width`` bytes
    between ``prefix`` and ``suffix``, is one fixed-width template.
    Each row starts as that template; the '-' of every variable its
    point sets to 1 becomes NUL too, and deleting every NUL leaves the
    text.
    """

    def __init__(self, slots: np.ndarray, width: int,
                 prefix: str = "", suffix: str = ""):
        self.template = np.concatenate([_ascii(prefix), slots, _ascii(suffix)])
        self.count = slots.size // width
        # the '-' of each slot, one column per variable
        self.signs = slice(len(prefix), len(prefix) + slots.size, width)

    def render(self, rows: np.ndarray) -> bytes:
        """The text of each row; ``rows`` holds the range's packed bytes."""
        bits, lines = _tiled(rows, self.count, self.template)
        lines[:, self.signs] *= 1 - bits
        return lines.tobytes().translate(None, b"\0")


def _write_witnesses(points: PointRows) -> None:
    """One 'v' line per point, each distinct tail block rendered once.

    The head is a line's first packed byte, its first 8 variables; a
    line of at most 8 variables has none, and all its points are one
    run under the lead 'v '.  Consecutive points with the same head
    form a run, and each run is cut into blocks of at most _BLOCK_BYTES
    of lines.  The head's literals are rendered once per run; the rest
    of a block's lines, its tail block, once per distinct tail bytes.
    Models come in lexicographic order, so there are at most 256 runs,
    and each head's tails are the models of one cofactor, shared by
    every head that reaches it: the block's text is its tail lines
    joined under the head.  Rows in any other order are rendered
    correctly too, with one run per change of the first byte.  Rendered
    tail blocks are kept until they hold more than 4 * _BLOCK_BYTES,
    then all dropped: on the 20-variable sets of the models benchmark
    (seeds 1, 5, 9, 13) they hold 0.3 to 3.2 MiB.  Each block is written
    as it is made; a line wider than _BLOCK_BYTES is written in column
    blocks.
    """
    n = points.var_count
    width = len(str(n)) + 2
    line = width * n + 4
    if line > _BLOCK_BYTES:
        _write_wide_witnesses(points, width)
        return
    rows = points.rows
    block = _BLOCK_BYTES // line
    head = int(rows.shape[1] > 1)
    changed = (rows[1:, :head] != rows[:-1, :head]).any(axis=1)
    starts = (np.flatnonzero(changed) + 1).tolist()
    bounds = [0, *starts, len(rows)] if len(rows) else [0]
    # the head's slots are split off the line's, made once
    slots = _slots(0, n, width)
    heads = _Literals(slots[:8 * head * width], width, "v ", "\n")
    tails = _Literals(slots[8 * head * width:], width, suffix="0\n")
    leads = heads.render(rows[bounds[:-1], :head]).splitlines()
    known: dict[bytes, bytes] = {}
    kept = 0
    for start, stop, lead in zip(bounds, bounds[1:], leads):
        joint = b"\n" + lead
        for first in range(start, stop, block):
            tail = rows[first:min(first + block, stop), head:]
            key = tail.tobytes()
            text = known.get(key)
            if text is None:
                # the tail lines without their last newline
                text = tails.render(tail)[:-1]
                kept += len(key) + len(text)
                if kept > 4 * _BLOCK_BYTES:
                    known.clear()
                    kept = len(key) + len(text)
                known[key] = text
            _write(b"".join((lead, text.replace(b"\n", joint), b"\n")))


def _write_wide_witnesses(points: PointRows, width: int) -> None:
    """One 'v' line per point, in column blocks of about _BLOCK_BYTES."""
    n = points.var_count
    # whole bytes of packed variables per column block
    step = max(8, _BLOCK_BYTES // width // 8 * 8)
    for row in points.rows:
        for start in range(0, n, step):
            stop = min(start + step, n)
            literals = _Literals(_slots(start, stop, width), width,
                                 "" if start else "v ",
                                 "0\n" if stop == n else "")
            _write(literals.render(row[None, start // 8:(stop + 7) // 8]))


def _write_json_rows(points: PointRows) -> None:
    """The points as one JSON list of bit lists, spelled as json.dumps does.

    Each point is the fixed-width text ', [b, b, ..., b]', its bits
    added to the '0's of an all-zero template; the first point drops
    its ', '.
    """
    n = points.var_count
    template = _ascii(", [" + ", ".join("0" * n) + "]")
    block = max(1, _BLOCK_BYTES // template.size)
    sys.stdout.write("[")
    lead = 2
    for start in range(0, len(points), block):
        bits, lines = _tiled(points.rows[start:start + block], n, template)
        lines[:, 3:3 * n + 1:3] += bits
        _write(lines.tobytes()[lead:])
        lead = 0
    sys.stdout.write("]")


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


def _json_object(result: SolveResult, opts) -> dict:
    """The SolveResult as plain data (json writes tuples as lists).

    "chain" is filled in --mode trace only.  "all_solutions" is not
    here: _emit writes it from the packed rows.
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
        "steps": [dict(factor_index=i, **{k: getattr(s, k) for k in _STEP_KEYS})
                  for i, s in enumerate(result.steps)],
        "chain": chain,
    }


def _emit(result: SolveResult, solutions: Optional[PointRows],
          checks: Optional[list[str]], opts) -> None:
    """Print the answer; checks are the --mode verify checks that passed."""
    if opts.json:
        payload = _json_object(result, opts)
        if checks is not None:
            payload["verified"] = checks
        # "all_solutions" sorts before every other key, so its rows are
        # written first, a block at a time, and the rest after them
        sys.stdout.write('{"all_solutions": ')
        if solutions is None:
            sys.stdout.write("null")
        else:
            _write_json_rows(solutions)
        print(", " + json.dumps(payload, sort_keys=True)[1:])
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
    """The console script: run() on sys.argv, ending cleanly on a closed pipe.

    When the reader of stdout goes away (``projsat ... | head -1``),
    the output left unwritten is dropped and the exit code is
    EXIT_ERROR, with nothing on stderr.  stdout is pointed at devnull
    first, so the flush at interpreter exit cannot fail again.
    """
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_ERROR
    raise SystemExit(code)


if __name__ == "__main__":
    main()
