"""Check one CLI call's exit code and s/v output against the reference.

An operation fails on an unexpected exit code, a wrong verdict, a v line
that violates a clause, a model list that differs from the reference,
or an exception.  Nothing here imports projsat.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Optional

import numpy as np

from instances import Instance

# exit code the CLI must return, by mode and by the reference verdict
EXPECTED_EXIT = {
    "solve": {True: 10, False: 20},
    "all": {True: 10, False: 20},
    "verify": {True: 0, False: 0},
}
# v lines parsed at once; bounds the checker's memory on long model lists
CHUNK_LINES = 1 << 15


def parse_models(v_text: str, var_count: int) -> np.ndarray:
    """Rows of 0/1 bits, one per 0-terminated model in the v lines.

    Raises ValueError on a token that is not an integer, a model that
    does not name every variable exactly once, or a missing terminator.
    """
    with warnings.catch_warnings():
        # numpy warns, rather than raises, on a token it cannot read
        warnings.simplefilter("error")
        try:
            lits = np.fromstring(v_text, dtype=np.int32, sep=" ")
        except (DeprecationWarning, ValueError):
            raise ValueError("v lines hold a token that is not an integer") from None
    if lits.size == 0:
        return np.zeros((0, var_count), dtype=bool)
    if lits[-1] != 0:
        raise ValueError("last model is not 0-terminated")
    ends = np.flatnonzero(lits == 0)
    if np.any(np.diff(ends, prepend=-1) != var_count + 1):
        raise ValueError(f"a model does not list all {var_count} variables")
    rows = lits.reshape(-1, var_count + 1)[:, :var_count]
    names = np.arange(1, var_count + 1, dtype=np.int32)
    if not (np.abs(rows) == names).all():
        # literals may come in any order within a line
        rows = np.take_along_axis(rows, np.argsort(np.abs(rows), axis=1), axis=1)
        if not (np.abs(rows) == names).all():
            raise ValueError("a model repeats or omits a variable")
    return rows > 0


def clauses_hold(clauses: list[tuple[int, ...]], bits: np.ndarray) -> np.ndarray:
    """Per row of bits: does it satisfy every clause (clause by clause)."""
    ok = np.ones(bits.shape[0], dtype=bool)
    for clause in clauses:
        sat = np.zeros(bits.shape[0], dtype=bool)
        for lit in clause:
            column = bits[:, abs(lit) - 1]
            sat |= column if lit > 0 else ~column
        ok &= sat
    return ok


def model_indices(bits: np.ndarray) -> np.ndarray:
    """Lexicographic index of each row, x1 as the high bit."""
    index = np.zeros(bits.shape[0], dtype=np.int64)
    for column in bits.T:
        index = (index << 1) | column
    return index


def _models(lines: Iterable[str], status: list[str], var_count: int):
    """Bit rows of the v-line models, a chunk at a time; gathers s lines.

    Chunks end only on a line that closes a model, so a model that
    wraps over several v lines is still read whole.
    """
    pending: list[str] = []
    for line in lines:
        if line.startswith("v"):
            pending.append(line[1:])
            if len(pending) >= CHUNK_LINES and line.rstrip().endswith(" 0"):
                yield parse_models(" ".join(pending), var_count)
                pending = []
        elif line.startswith("s "):
            status.append(line.rstrip())
    if pending:
        yield parse_models(" ".join(pending), var_count)


def check(inst: Instance, mode: str, exit_code: int,
          lines: Iterable[str]) -> Optional[str]:
    """None when one CLI call answered right, else why it is wrong."""
    expected = EXPECTED_EXIT[mode][inst.sat]
    if exit_code != expected:
        return f"exit code {exit_code}, expected {expected}"
    status: list[str] = []
    count, first, violation, indices = 0, None, None, []
    try:
        for bits in _models(lines, status, inst.var_count):
            if count == 0 and bits.shape[0]:
                first = tuple(int(b) for b in bits[0])
            bad = np.flatnonzero(~clauses_hold(inst.clauses, bits))
            if bad.size and violation is None:
                violation = f"v-line model {count + int(bad[0]) + 1} violates a clause"
            if mode == "all":
                indices.append(model_indices(bits))
            count += bits.shape[0]
    except ValueError as exc:
        return str(exc)
    want = "s SATISFIABLE" if inst.sat else "s UNSATISFIABLE"
    if status != [want]:
        return f"status lines {status[:3]}, expected [{want!r}]"
    if not inst.sat:
        return None if count == 0 else "v lines after an UNSAT verdict"
    if mode != "all" and count != 1:
        return f"{count} witnesses, expected 1"
    if violation is not None:
        return violation
    if inst.unique_model is not None and first != inst.unique_model:
        return "witness differs from the only model"
    if mode == "all" and inst.models is not None:
        found = np.sort(np.concatenate(indices)) if indices else np.zeros(0, np.int64)
        if np.any(found[1:] == found[:-1]):
            return "model list repeats a model"
        if not np.array_equal(found, inst.models):
            return (f"model list has {found.size} models, the reference "
                    f"{inst.models.size}, and they differ")
    return None
