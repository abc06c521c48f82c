"""End-to-end tests for the command-line front end.

Nearly everything goes through projsat.cli.run(argv) so exit codes and
the exact s/v line protocol are pinned down without spawning
subprocesses; a few tests compare with, or need, a real process.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from projsat import BoolSpace, Clause, CnfFormula, formula_to_func, parse_dimacs
from projsat import cli
from projsat.cli import EXIT_ERROR, EXIT_OK, EXIT_SAT, EXIT_UNSAT, run
from projsat.cnf import emit_dimacs
from projsat.engine import PointRows
from projsat.oracle import MAX_TABLE_VARS, formula_satisfied, tt_of_formula
from projsat.solver import FACTOR_ORDERS, bottom_up_key, solve

from helpers import (FOUR_VAR_SAT, TWO_VAR_UNSAT, implication_chain,
                     random_3sat, random_clause, random_cnf, reference_v_lines,
                     src_env)


def parse_witness_line(line):
    """'v 1 -2 3 0' -> (1, 0, 1)."""
    tokens = line.split()
    assert tokens[0] == "v"
    assert tokens[-1] == "0"
    lits = [int(t) for t in tokens[1:-1]]
    assert [abs(v) for v in lits] == list(range(1, len(lits) + 1))
    return tuple(1 if v > 0 else 0 for v in lits)


def run_cli(args, stdin_text=None, tmp_path=None, cnf=None, capsys=None,
            monkeypatch=None):
    """Invoke the CLI with a CNF via file or stdin; return (code, out, err)."""
    argv = list(args)
    if cnf is not None and tmp_path is not None:
        path = tmp_path / "input.cnf"
        path.write_text(cnf)
        argv = ["--input", str(path)] + argv
    elif stdin_text is not None:
        fake = types.SimpleNamespace(buffer=io.BytesIO(stdin_text.encode()))
        monkeypatch.setattr("sys.stdin", fake)
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_satisfiable_file(self, tmp_path, capsys):
        code, out, _ = run_cli([], cnf=FOUR_VAR_SAT, tmp_path=tmp_path,
                               capsys=capsys)
        assert code == EXIT_SAT
        lines = out.splitlines()
        assert lines[0] == "s SATISFIABLE"
        point = parse_witness_line(lines[1])
        assert formula_satisfied(parse_dimacs(FOUR_VAR_SAT), point)

    def test_unsatisfiable_file(self, tmp_path, capsys):
        code, out, _ = run_cli([], cnf=TWO_VAR_UNSAT, tmp_path=tmp_path,
                               capsys=capsys)
        assert code == EXIT_UNSAT
        assert out.splitlines() == ["s UNSATISFIABLE"]

    def test_verify_mode_exits_zero(self, tmp_path, capsys):
        for text in (FOUR_VAR_SAT, TWO_VAR_UNSAT):
            code, out, _ = run_cli(["--mode", "verify"], cnf=text,
                                   tmp_path=tmp_path, capsys=capsys)
            assert code == EXIT_OK
            assert any(line.startswith("c verified:")
                       for line in out.splitlines())

    def test_verify_above_the_table_cap(self, tmp_path, capsys):
        # above 24 variables the final factor is compared with the
        # direct conjunction of the clauses instead of a truth table
        for n in (30, 300):
            formula, model = implication_chain(n, random.Random(n))
            code, out, err = run_cli(["--mode", "verify"],
                                     cnf=emit_dimacs(formula),
                                     tmp_path=tmp_path, capsys=capsys)
            assert (code, err) == (EXIT_OK, "")
            lines = out.splitlines()
            assert lines[0] == ("c verified: final factor equals the direct "
                                "conjunction of the clauses")
            assert lines[-2] == "s SATISFIABLE"
            assert parse_witness_line(lines[-1]) == model
            # a plain run prints the same answer without the checks
            code, plain, _ = run_cli([], cnf=emit_dimacs(formula),
                                     tmp_path=tmp_path, capsys=capsys)
            assert code == EXIT_SAT
            assert plain.splitlines() == lines[-2:]

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["--input", "/no/such/file.cnf"],
                               capsys=capsys)
        assert code == EXIT_ERROR
        assert err.startswith("error:")

    def test_recursion_limit_is_named(self, tmp_path, capsys, monkeypatch):
        def too_deep(formula, order):
            raise RecursionError("maximum recursion depth exceeded in comparison")

        monkeypatch.setattr("projsat.cli.solve", too_deep)
        code, out, err = run_cli([], cnf=FOUR_VAR_SAT, tmp_path=tmp_path,
                                 capsys=capsys)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: the decision diagrams of this 4-variable "
                              "formula nest deeper than the Python recursion limit")
        assert "maximum recursion depth" not in err

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys,
                                             monkeypatch):
        # raised while solving, then while writing the answer; numpy's
        # names the array, a bare one nothing
        numpy_style = "Unable to allocate 160. MiB for an array"
        for name, message, want in [
                ("solve", numpy_style, f"error: out of memory: {numpy_style}\n"),
                ("_write_witnesses", numpy_style,
                 f"error: out of memory: {numpy_style}\n"),
                ("solve", "", "error: out of memory\n")]:
            def exhausted(*args):
                raise MemoryError(message)

            with monkeypatch.context() as patch:
                patch.setattr(cli, name, exhausted)
                code, _, err = run_cli([], cnf=FOUR_VAR_SAT, tmp_path=tmp_path,
                                       capsys=capsys)
            assert (code, err) == (EXIT_ERROR, want), name

    def test_parse_error(self, tmp_path, capsys):
        code, _, err = run_cli([], cnf="p cnf 2 1\n1 worm 0\n",
                               tmp_path=tmp_path, capsys=capsys)
        assert code == EXIT_ERROR
        assert "error:" in err

    def test_non_utf8_input(self, tmp_path, capsys, monkeypatch):
        data = b"c caf\xff\np cnf 2 1\n1 -2 0\n"
        path = tmp_path / "input.cnf"
        path.write_bytes(data)
        fake = types.SimpleNamespace(buffer=io.BytesIO(data))
        monkeypatch.setattr("sys.stdin", fake)
        for argv in (["--input", str(path)], []):
            code = run(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_ERROR, "")
            assert captured.err == ("error: byte 0xff at offset 5 "
                                    "is not UTF-8\n")

    def test_satlib_trailer(self, tmp_path, capsys):
        code, out, err = run_cli([], cnf="p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n",
                                 tmp_path=tmp_path, capsys=capsys)
        assert (code, out, err) == (EXIT_SAT, "s SATISFIABLE\nv -1 -2 3 0\n", "")

    def test_unknown_flag(self, capsys):
        assert run(["--frobnicate"]) == EXIT_ERROR
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == EXIT_OK
        assert "--mode" in capsys.readouterr().out


class TestParserReuse:
    # run() parses every call's flags with one parser built at import

    def test_each_call_prints_what_it_prints_alone(self, tmp_path, capsys):
        # three in-process calls in a row, each against the same flags in
        # a fresh python -m projsat process
        path = tmp_path / "input.cnf"
        path.write_text(FOUR_VAR_SAT)
        flag_sets = (["--json", "--mode", "all"], [],
                     ["--mode", "trace", "--order", "input"])
        env = src_env()
        outputs = []
        for flags in flag_sets:
            argv = ["--input", str(path)] + flags
            code = run(argv)
            outputs.append((code, capsys.readouterr().out))
        for flags, output in zip(flag_sets, outputs):
            alone = subprocess.run(
                [sys.executable, "-m", "projsat", "--input", str(path)] + flags,
                env=env, capture_output=True, text=True, timeout=120)
            assert output == (alone.returncode, alone.stdout), flags
        assert len({out for _, out in outputs}) == len(flag_sets)


class TestStdin:
    def test_reads_stdin_by_default(self, capsys, monkeypatch):
        code, out, _ = run_cli([], stdin_text=TWO_VAR_UNSAT, capsys=capsys,
                               monkeypatch=monkeypatch)
        assert code == EXIT_UNSAT
        assert "s UNSATISFIABLE" in out

    def test_stdin_sat_with_witness(self, capsys, monkeypatch):
        code, out, _ = run_cli([], stdin_text=FOUR_VAR_SAT, capsys=capsys,
                               monkeypatch=monkeypatch)
        assert code == EXIT_SAT
        point = parse_witness_line(out.splitlines()[1])
        assert formula_satisfied(parse_dimacs(FOUR_VAR_SAT), point)


class TestJsonOutput:
    def test_shape_and_exit_code(self, tmp_path, capsys):
        code, out, _ = run_cli(["--json"], cnf=FOUR_VAR_SAT,
                               tmp_path=tmp_path, capsys=capsys)
        assert code == EXIT_SAT
        data = json.loads(out)
        assert data["status"] == "SAT"
        assert data["var_count"] == 4
        assert formula_satisfied(parse_dimacs(FOUR_VAR_SAT), data["witness"])
        assert data["all_solutions"] is None
        assert all(step["remaining_after"] >= 1 for step in data["steps"])
        assert data["chain"] is None

    def test_unsat_shape(self, tmp_path, capsys):
        code, out, _ = run_cli(["--json"], cnf=TWO_VAR_UNSAT,
                               tmp_path=tmp_path, capsys=capsys)
        assert code == EXIT_UNSAT
        data = json.loads(out)
        assert data["status"] == "UNSAT"
        assert data["witness"] is None

    def test_round_trips_through_json_module(self, tmp_path, capsys):
        # the chain pinned below is the paper's, in input order
        _, out, _ = run_cli(["--json", "--mode", "trace", "--order", "input"],
                            cnf=FOUR_VAR_SAT, tmp_path=tmp_path, capsys=capsys)
        data = json.loads(out)
        again = json.dumps(data, sort_keys=True)
        assert again == out.rstrip("\n")
        chain = data["chain"]
        assert chain[-1]["size"] >= 1
        assert [entry["off_point"] for entry in chain] == [
            [0, 1, 0, 1], [0, 0, 0, 1], None]
        assert [entry["pins"] for entry in chain] == [
            [2, -3, 4], [-1, -3, 4], None]

    def test_long_chain_prints_one_line(self, tmp_path, capsys):
        formula, model = implication_chain(300, random.Random(117))
        code, out, _ = run_cli(["--json"], cnf=emit_dimacs(formula),
                               tmp_path=tmp_path, capsys=capsys)
        assert code == EXIT_SAT
        assert len(out.splitlines()) == 1
        assert json.loads(out)["witness"] == list(model)

    def test_all_solutions_are_bit_lists(self, tmp_path, capsys):
        code, out, _ = run_cli(["--json", "--mode", "all"], cnf=FOUR_VAR_SAT,
                               tmp_path=tmp_path, capsys=capsys)
        assert code == EXIT_SAT
        assert len(out.splitlines()) == 1
        points = tt_of_formula(parse_dimacs(FOUR_VAR_SAT)).satisfying_points()
        assert json.loads(out)["all_solutions"] == [list(p) for p in points]

    def test_json_dict_shape(self, tmp_path, capsys):
        code, out, _ = run_cli(["--json", "--mode", "all"], cnf=FOUR_VAR_SAT,
                               tmp_path=tmp_path, capsys=capsys)
        assert code == EXIT_SAT
        data = json.loads(out)
        assert set(data) == {"status", "var_count", "witness",
                             "all_solutions", "steps", "chain"}
        assert data["status"] == "SAT"
        assert data["var_count"] == 4
        assert isinstance(data["witness"], list)
        assert isinstance(data["all_solutions"], list)
        assert data["chain"] is None
        assert data["steps"]
        for step in data["steps"]:
            assert set(step) == {"factor_index", "factor_size",
                                 "remaining_before", "remaining_after",
                                 "off_point"}

    def test_json_dict_unsat(self, tmp_path, capsys):
        code, out, _ = run_cli(["--json", "--mode", "all"], cnf=TWO_VAR_UNSAT,
                               tmp_path=tmp_path, capsys=capsys)
        assert code == EXIT_UNSAT
        data = json.loads(out)
        assert data["status"] == "UNSAT"
        assert data["witness"] is None
        assert data["all_solutions"] == []
        assert data["chain"] is None

    def test_verify_json_lists_checks(self, tmp_path, capsys):
        code, out, _ = run_cli(["--json", "--mode", "verify"],
                               cnf=TWO_VAR_UNSAT, tmp_path=tmp_path,
                               capsys=capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["status"] == "UNSAT"
        assert data["verified"] == [
            "final factor agrees with the exhaustive truth table"]


class TestJsonRows:
    # --mode all --json writes "all_solutions" from the packed rows, a
    # block at a time, and the rest of the object after it; the line is
    # json.dumps of the object --mode solve --json prints, with the
    # solutions added

    @pytest.mark.parametrize("cnf, block_bytes, code", [
        (TWO_VAR_UNSAT, None, EXIT_UNSAT),
        ("p cnf 0 0\n", None, EXIT_SAT),
        ("p cnf 5 5\n1 0\n-2 0\n3 0\n4 0\n-5 0\n", None, EXIT_SAT),
        (FOUR_VAR_SAT, 1, EXIT_SAT),
        # rows of 3 * 16 + 2 bytes: 65,536 of them fill four blocks
        ("p cnf 16 0\n", None, EXIT_SAT),
    ], ids=["unsat", "no-variables", "one-model", "one-row-blocks", "four-blocks"])
    def test_the_line_is_json_dumps(self, cnf, block_bytes, code, tmp_path,
                                    capsys, monkeypatch):
        if block_bytes is not None:
            monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
        want = [list(p) for p in tt_of_formula(parse_dimacs(cnf)).satisfying_points()]
        got, out, err = run_cli(["--json", "--mode", "all"], cnf=cnf,
                                tmp_path=tmp_path, capsys=capsys)
        assert (got, err) == (code, "")
        _, solved, _ = run_cli(["--json"], cnf=cnf, tmp_path=tmp_path,
                               capsys=capsys)
        assert out == json.dumps(dict(json.loads(solved), all_solutions=want),
                                 sort_keys=True) + "\n"

    def test_peak_memory_is_bounded_by_the_block(self, tmp_path, monkeypatch):
        # 262,144 models: a Python list of bits per model took 80 MiB
        path = tmp_path / "free18.cnf"
        path.write_text("p cnf 18 0\n")
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = run(["--input", str(path), "--mode", "all", "--json"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == EXIT_SAT
        assert peak < 16 << 20


class TestTraceMode:
    def test_step_lines_and_pin_lines(self, tmp_path, capsys):
        # the chain pinned below is the paper's, in input order
        code, out, _ = run_cli(["--mode", "trace", "--order", "input"],
                               cnf=FOUR_VAR_SAT, tmp_path=tmp_path,
                               capsys=capsys)
        assert code == EXIT_SAT
        lines = out.splitlines()
        assert lines[:5] == [
            "c step 1: factor size 3, off-point 0101",
            "c   pins 2 -3 4 0",
            "c step 2: factor size 6, off-point 0001",
            "c   pins -1 -3 4 0",
            "c step 3: factor size 5, off-point -",
        ]
        assert lines[-2] == "s SATISFIABLE"
        parse_witness_line(lines[-1])

    def test_long_chain_prints_two_lines_per_step(self, tmp_path, capsys):
        formula, model = implication_chain(300, random.Random(116))
        code, out, _ = run_cli(["--mode", "trace"], cnf=emit_dimacs(formula),
                               tmp_path=tmp_path, capsys=capsys)
        assert code == EXIT_SAT
        lines = out.splitlines()
        comments = [l for l in lines if l.startswith("c ")]
        assert sum(l.startswith("c step ") for l in comments) == 300
        assert len(comments) <= 2 * 300
        assert parse_witness_line(lines[-1]) == model

    def test_trace_on_unsat_ends_with_status(self, tmp_path, capsys):
        code, out, _ = run_cli(["--mode", "trace"], cnf=TWO_VAR_UNSAT,
                               tmp_path=tmp_path, capsys=capsys)
        assert code == EXIT_UNSAT
        assert out.splitlines()[-1] == "s UNSATISFIABLE"


GOLDEN = Path(__file__).parent / "data" / "golden"


class TestGoldenTraces:
    # tests/data/golden holds seeded instances (random 3-SAT at n = 10
    # and 12, an UNSAT draw, PHP(4, 3), a clause-shuffled 40-variable
    # chain and a mix with tautologies) and their --mode trace output in
    # each factor order, as written before the step rewrite became one
    # engine call; the chain records must not move by a byte

    @pytest.mark.parametrize("order", FACTOR_ORDERS)
    @pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.cnf")))
    def test_trace_matches_golden(self, name, order, capsys):
        code = run(["--input", str(GOLDEN / f"{name}.cnf"), "--mode", "trace",
                    "--order", order])
        expected = (GOLDEN / f"{name}.{order}.trace").read_text()
        assert capsys.readouterr().out == expected
        assert code == (EXIT_SAT if "s SATISFIABLE" in expected else EXIT_UNSAT)

    def test_every_golden_instance_is_pinned(self):
        assert len(list(GOLDEN.glob("*.cnf"))) == 6
        assert len(list(GOLDEN.glob("*.trace"))) == 6 * len(FACTOR_ORDERS)


class TestAllMode:
    def test_enumerates_exactly_the_oracle_set(self, tmp_path, capsys):
        code, out, _ = run_cli(["--mode", "all"], cnf=FOUR_VAR_SAT,
                               tmp_path=tmp_path, capsys=capsys)
        assert code == EXIT_SAT
        lines = out.splitlines()
        assert lines[0] == "s SATISFIABLE"
        points = {parse_witness_line(l) for l in lines[1:]}
        oracle = set(tt_of_formula(parse_dimacs(FOUR_VAR_SAT))
                     .satisfying_points())
        assert points == oracle

    def test_enum_cap_overflow_is_an_error(self, tmp_path, capsys):
        code, _, err = run_cli(["--mode", "all", "--max-enum", "2"],
                               cnf=FOUR_VAR_SAT, tmp_path=tmp_path,
                               capsys=capsys)
        assert code == EXIT_ERROR
        assert "error:" in err

    def test_enum_cap_message(self, tmp_path, capsys):
        code, out, err = run_cli(["--mode", "all", "--max-enum", "2"],
                                 cnf=FOUR_VAR_SAT, tmp_path=tmp_path,
                                 capsys=capsys)
        assert code == EXIT_ERROR
        assert out == ""
        assert err == "error: enumerating more than 2 models exceeds the cap of 2\n"

    def test_cap_counts_models_not_points(self, tmp_path, capsys):
        # 2^30 points, one model: the default cap of 2^24 lets it through
        formula, model = implication_chain(30, random.Random(30))
        code, out, _ = run_cli(["--mode", "all"], cnf=emit_dimacs(formula),
                               tmp_path=tmp_path, capsys=capsys)
        assert code == EXIT_SAT
        assert out == "s SATISFIABLE\n" + reference_v_lines([model], 30)

    def test_cap_beyond_any_fixed_width_rank(self, tmp_path, capsys):
        formula, model = implication_chain(80, random.Random(118))
        code, out, _ = run_cli(["--mode", "all", "--max-enum", str(1 << 81)],
                               cnf=emit_dimacs(formula), tmp_path=tmp_path,
                               capsys=capsys)
        assert code == EXIT_SAT
        assert out == "s SATISFIABLE\n" + reference_v_lines([model], 80)

    def test_negative_cap_is_a_usage_error(self, tmp_path, capsys):
        code, out, err = run_cli(["--mode", "all", "--max-enum", "-1"],
                                 cnf=FOUR_VAR_SAT, tmp_path=tmp_path,
                                 capsys=capsys)
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("usage: projsat")
        assert err.endswith("error: argument --max-enum: must be at least 0, "
                            "got -1\n")

    def test_zero_cap_is_valid(self, tmp_path, capsys):
        code, out, _ = run_cli(["--mode", "all", "--max-enum", "0"],
                               cnf=TWO_VAR_UNSAT, tmp_path=tmp_path,
                               capsys=capsys)
        assert (code, out) == (EXIT_UNSAT, "s UNSATISFIABLE\n")
        code, _, err = run_cli(["--mode", "all", "--max-enum", "0"],
                               cnf=FOUR_VAR_SAT, tmp_path=tmp_path,
                               capsys=capsys)
        assert code == EXIT_ERROR
        assert err == "error: enumerating more than 0 models exceeds the cap of 0\n"

    def test_enum_cap_large_enough(self, tmp_path, capsys):
        code, out, _ = run_cli(["--mode", "all", "--max-enum", "16"],
                               cnf=FOUR_VAR_SAT, tmp_path=tmp_path,
                               capsys=capsys)
        assert code == EXIT_SAT
        assert len(out.splitlines()) >= 2


class TestInvariantsOnRandomInstances:
    def test_verdict_and_witness_against_oracle(self, tmp_path, capsys):
        rng = random.Random(0xC11)
        for trial in range(25):
            formula = random_cnf(rng, max_vars=8, max_clauses=14)
            text = emit_dimacs(formula)
            code, out, _ = run_cli(["--mode", "verify"], cnf=text,
                                   tmp_path=tmp_path, capsys=capsys)
            assert code == EXIT_OK
            lines = out.splitlines()
            satisfiable = tt_of_formula(formula).count() > 0
            if satisfiable:
                assert lines[-2] == "s SATISFIABLE"
                point = parse_witness_line(lines[-1])
                assert formula_satisfied(formula, point)
            else:
                assert lines == ["c verified: final factor agrees with the "
                                 "exhaustive truth table", "s UNSATISFIABLE"]

    def test_order_leaves_answers_unchanged(self, tmp_path, capsys):
        rng = random.Random(0xC12)
        for trial in range(10):
            formula = random_cnf(rng, max_vars=7, max_clauses=12)
            text = emit_dimacs(formula)
            outputs = []
            for extra in [[]] + [["--order", o] for o in FACTOR_ORDERS]:
                code, out, _ = run_cli(extra, cnf=text,
                                       tmp_path=tmp_path, capsys=capsys)
                outputs.append((code, out))
            assert all(output == outputs[0] for output in outputs)


def sweep_formulas(n, rng):
    """Clause-free, satisfiable and unsatisfiable formulas over n variables.

    The satisfiable one keeps 3n random clauses that a planted point
    satisfies, 4n above the truth table's cap, where 3n can leave
    hundreds of thousands of models.  Clause-free formulas stop at
    n = 17 (131,072 lines), so the test stays small.
    """
    if n == 0:
        return [CnfFormula(0, []), CnfFormula(0, [Clause.from_ints([])])]
    formulas = [CnfFormula(n, [])] if n <= 17 else []
    planted = [rng.randint(0, 1) for _ in range(n)]
    clauses = []
    while len(clauses) < (3 if n <= MAX_TABLE_VARS else 4) * n:
        clause = random_clause(n, rng)
        if clause.satisfied_by(planted):
            clauses.append(clause)
    formulas.append(CnfFormula(n, clauses))
    formulas.append(CnfFormula(n, clauses + [Clause.from_ints([1]),
                                             Clause.from_ints([-1])]))
    return formulas


def sorted_models(formula):
    """Every model of the formula, in lexicographic order.

    Up to the truth table's cap they are read from the table; above it
    from the direct conjunction of the clauses in bottom-up order, the
    reference --mode verify checks against there.
    """
    n = formula.var_count
    if n <= MAX_TABLE_VARS:
        return tt_of_formula(formula).satisfying_points()
    clauses = sorted(formula.clauses, key=bottom_up_key)
    return formula_to_func(CnfFormula(n, clauses), BoolSpace(n)).enumerate_on_set()


class TestVLines:
    """Byte identity of the 'v' lines with the reference."""

    # 'v' line slots of 3 bytes up to n = 9, 4 bytes at 15 to 99 and
    # 5 bytes, with 3-digit variables, at 100 and 101
    SIZES = (0, 1, 7, 8, 9, 15, 16, 17, 20, 99, 100, 101)

    def test_all_mode_matches_reference(self, tmp_path, capsys):
        rng = random.Random(0xB17E)
        for n in self.SIZES:
            for formula in sweep_formulas(n, rng):
                points = sorted_models(formula)
                code, out, _ = run_cli(["--mode", "all"],
                                       cnf=emit_dimacs(formula),
                                       tmp_path=tmp_path, capsys=capsys)
                if points:
                    assert code == EXIT_SAT
                    want = "s SATISFIABLE\n" + reference_v_lines(points, n)
                    # as lines with their ends, equal exactly when the
                    # strings are, so that a failure names the first wrong
                    # line instead of diffing two long strings
                    assert (out.splitlines(keepends=True)
                            == want.splitlines(keepends=True))
                else:
                    assert code == EXIT_UNSAT
                    assert out == "s UNSATISFIABLE\n"

    def test_single_witness_matches_reference(self, tmp_path, capsys):
        rng = random.Random(0xB17F)
        cases = [implication_chain(100, rng)]
        for n in self.SIZES:
            for formula in sweep_formulas(n, rng):
                points = sorted_models(formula)
                if points:
                    cases.append((formula, points[0]))
        for formula, witness in cases:
            line = reference_v_lines([witness], formula.var_count)
            for mode in ("solve", "verify"):
                code, out, _ = run_cli(["--mode", mode],
                                       cnf=emit_dimacs(formula),
                                       tmp_path=tmp_path, capsys=capsys)
                assert code == (EXIT_SAT if mode == "solve" else EXIT_OK)
                assert (out.splitlines(keepends=True)[-2:]
                        == ["s SATISFIABLE\n", line])


class TestClosedPipe:
    # the console script's main(), as `projsat ... | head -1` meets it

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_exits_1_without_a_traceback(self, tmp_path, flags):
        # the 32768 models of the clause-free 15-variable formula fill
        # far more than a pipe holds; the reader takes the first bytes
        # and goes away while the writer is still blocked on the rest
        path = tmp_path / "free15.cnf"
        path.write_text("p cnf 15 0\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "projsat", "--input", str(path),
             "--mode", "all"] + flags,
            env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline(8)
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait(timeout=120) == EXIT_ERROR
        assert err == b""


class TestWideFormula:
    def test_a_million_variables_cost_no_names(self, tmp_path, monkeypatch):
        # the space makes no name per variable, and the v line's slot
        # template is one string
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 1000000 1\n1 0\n")
        out = tmp_path / "wide.out"
        with open(out, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = run(["--input", str(path)])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == EXIT_SAT
        with open(out) as lines:
            assert lines.readline() == "s SATISFIABLE\n"
            assert lines.read(12) == "v 1 -2 -3 -4"
        assert peak < 120 << 20


class TestVLineBlocks:
    # _write_witnesses renders a block of at most _BLOCK_BYTES of lines
    # at a time, so a wide line means fewer rows per block

    N = 1000
    # 'v ', 1000 slots of 6 bytes, '0\n'
    LINE = 2 + 6 * N + 2

    def test_peak_memory_is_bounded_by_the_block(self, monkeypatch):
        # 16384 lines of 1000 variables fill 94 MiB of slots
        rows = np.random.default_rng(0xB10C).integers(
            0, 256, size=(1 << 14, self.N // 8), dtype=np.uint8)
        points = PointRows(rows, self.N)
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                cli._write_witnesses(points)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 16 << 20

    def test_lines_across_blocks_match_the_reference(self, capsys):
        block = cli._BLOCK_BYTES // self.LINE
        rng = random.Random(0xB10D)
        points = [tuple(rng.getrandbits(1) for _ in range(self.N))
                  for _ in range(3 * block + 5)]
        cli._write_witnesses(PointRows.from_points(points, self.N))
        assert capsys.readouterr().out == reference_v_lines(points, self.N)


def bit_points(values, n):
    """The n-bit points of the integers, x1 the highest bit."""
    return [tuple((value >> (n - 1 - i)) & 1 for i in range(n)) for value in values]


def write_counted(points, monkeypatch):
    """Run _write_witnesses on the points with stdout at devnull.

    Returns the rows each tail rendering was given, one entry per call:
    the tail renderer is the one whose text ends the line.
    """
    counts = []
    render = cli._Literals.render

    def counted(self, rows):
        if self.template[-2:].tobytes() == b"0\n":
            counts.append(len(rows))
        return render(self, rows)

    monkeypatch.setattr(cli._Literals, "render", counted)
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        cli._write_witnesses(points)
    return counts


class TestTailBlocks:
    # _write_witnesses renders the head of each run of equal leading
    # bytes once and each distinct tail block once, and joins them

    @staticmethod
    def point_sets(n, rng):
        """(name, points) pairs over n variables, the empty set included."""
        sample = sorted(rng.sample(range(1 << n), min(1 << n, 3000)))
        shuffled = list(sample)
        rng.shuffle(shuffled)
        sets = [("none", []), ("lexicographic", sample), ("shuffled", shuffled)]
        if n > 8:
            tail_bits = n - 8
            heads = sorted(rng.sample(range(256), 40))
            shared = sorted(rng.sample(range(1 << tail_bits), min(1 << tail_bits, 70)))
            sets.append(("repeated-tails",
                         [head << tail_bits | tail for head in heads for tail in shared]))
            distinct = []
            for head in heads:
                own = rng.sample(range(1 << tail_bits), min(1 << tail_bits, 70))
                distinct += [head << tail_bits | tail for tail in sorted(own)]
            sets.append(("distinct-tails", distinct))
        return [(name, bit_points(values, n)) for name, values in sets]

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17])
    @pytest.mark.parametrize("block_lines", [None, 3, 5],
                             ids=["defaults", "3-line-blocks", "5-line-blocks"])
    def test_lines_match_the_reference(self, n, block_lines, capsys,
                                       monkeypatch):
        # with 3- and 5-line blocks the runs are cut short, and the tail
        # cache, four blocks of text, is dropped many times over
        if block_lines is not None:
            width = len(str(n)) + 2
            monkeypatch.setattr(cli, "_BLOCK_BYTES", block_lines * (width * n + 4))
        rng = random.Random(f"tail-blocks-{n}")
        for name, points in self.point_sets(n, rng):
            cli._write_witnesses(PointRows.from_points(points, n))
            out = capsys.readouterr().out
            # lines first, so that a failure names the first wrong line
            want = reference_v_lines(points, n)
            assert out.splitlines() == want.splitlines(), name
            assert out == want, name

    def test_sparse_models_render_a_quarter_of_their_tails(self, tmp_path,
                                                           monkeypatch):
        # seven clauses over 20 variables leave about 400,000 models;
        # the cofactors of the first 8 variables share their tails
        formula = random_3sat(20, 7 / 20, random.Random(0x7A11))
        solved = solve(formula)
        points = solved.final.enumerate_on_set()
        assert len(points) > 100_000
        counts = write_counted(points, monkeypatch)
        assert sum(counts) <= len(points) // 4

    def test_distinct_tails_render_each_row_once(self, monkeypatch):
        # 2^16 of the 2^24 points: no two runs share their tails
        values = np.sort(np.random.default_rng(0x7A12).choice(
            1 << 24, size=1 << 16, replace=False))
        bits = (values[:, None] >> np.arange(23, -1, -1)) & 1
        points = PointRows(np.packbits(bits.astype(np.uint8), axis=1), 24)
        counts = write_counted(points, monkeypatch)
        assert sum(counts) == 1 << 16

    def test_one_write_per_block_of_each_head(self, tmp_path, capsys,
                                              monkeypatch):
        # the 2^22 models of 22 free variables: 256 heads, each with
        # 2^14 tail lines of 92 bytes, cut into two blocks of at most
        # _BLOCK_BYTES
        writes = []
        monkeypatch.setattr(cli, "_write", writes.append)
        code, out, _ = run_cli(["--mode", "all"], cnf="p cnf 22 0\n",
                               tmp_path=tmp_path, capsys=capsys)
        assert (code, out) == (EXIT_SAT, "s SATISFIABLE\n")
        assert len(writes) <= 512
        assert sum(block.count(b"\n") for block in writes) == 1 << 22


class TestTextOnlyStdout:
    def test_a_stream_without_a_buffer_gets_the_same_text(self, tmp_path,
                                                          capsys):
        # io.StringIO has no binary buffer, so the blocks that go to
        # the buffer of a real stdout are written to it as text
        path = tmp_path / "sparse.cnf"
        path.write_text("p cnf 12 2\n1 -5 9 0\n-2 7 0\n")
        for flags in ([], ["--json"]):
            argv = ["--input", str(path), "--mode", "all"] + flags
            code = run(argv)
            want = capsys.readouterr().out
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                assert run(argv) == code == EXIT_SAT
            assert (sink.getvalue().splitlines(keepends=True)
                    == want.splitlines(keepends=True))


class TestWideLine:
    # a line wider than _BLOCK_BYTES is rendered in column blocks

    def test_a_million_variable_row_in_bounded_memory(self, tmp_path,
                                                      monkeypatch):
        n = 1_000_000
        point = [int(i % 3 == 0) for i in range(n)]
        points = PointRows.from_points([point], n)
        out = tmp_path / "wide.out"
        with open(out, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                cli._write_witnesses(points)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 16 << 20
        text = out.read_text()
        assert text.startswith("v 1 -2 -3 4 -5 -6 7 ")
        assert text.endswith(" 999997 -999998 -999999 1000000 0\n")
        assert len(text) == 4 + sum(len(str(i + 1)) + 2 - bit
                                    for i, bit in enumerate(point))

    @pytest.mark.parametrize("n", [9, 100, 1000])
    def test_column_blocks_match_the_reference(self, n, capsys, monkeypatch):
        # blocks of 64 bytes: 8 variables each at n = 9 and 100, 16 at 1000
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 64)
        rng = random.Random(f"wide-{n}")
        points = [tuple(rng.getrandbits(1) for _ in range(n)) for _ in range(5)]
        cli._write_witnesses(PointRows.from_points(points, n))
        assert capsys.readouterr().out == reference_v_lines(points, n)
