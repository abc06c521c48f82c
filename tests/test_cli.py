"""End-to-end tests for the command-line front end.

Everything goes through projsat.cli.run(argv) so exit codes and the
exact s/v line protocol are pinned down without spawning subprocesses.
"""

import io
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

from projsat import BoolSpace, Clause, CnfFormula, formula_to_func, parse_dimacs
from projsat.cli import EXIT_ERROR, EXIT_OK, EXIT_SAT, EXIT_UNSAT, run
from projsat.cnf import emit_dimacs
from projsat.oracle import MAX_TABLE_VARS, formula_satisfied, tt_of_formula
from projsat.solver import FACTOR_ORDERS, bottom_up_key

from helpers import (FOUR_VAR_SAT, TWO_VAR_UNSAT, implication_chain,
                     random_clause, random_cnf, reference_v_lines)


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
            code, _, _ = run_cli(["--oracle-check"], cnf=emit_dimacs(formula),
                                 tmp_path=tmp_path, capsys=capsys)
            assert code == EXIT_SAT

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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parent.parent / "src"),
            env.get("PYTHONPATH")]))
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
        assert any("unsatisfiability" in check for check in data["verified"])


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
            code, out, _ = run_cli(["--oracle-check"], cnf=text,
                                   tmp_path=tmp_path, capsys=capsys)
            satisfiable = tt_of_formula(formula).count() > 0
            if satisfiable:
                assert code == EXIT_SAT
                point = parse_witness_line(out.splitlines()[1])
                assert formula_satisfied(formula, point)
            else:
                assert code == EXIT_UNSAT

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
                    assert out == ("s SATISFIABLE\n"
                                   + reference_v_lines(points, n))
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
                assert out.endswith("s SATISFIABLE\n" + line)
