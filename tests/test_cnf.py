"""DIMACS parsing, emission, and the bridge into engine functions."""

import io
import random
import warnings

import pytest

from projsat import (
    BoolSpace,
    Clause,
    CnfFormula,
    DimacsParseError,
    Literal,
    clause_to_func,
    emit_dimacs,
    formula_to_func,
    parse_dimacs,
)
from projsat.oracle import tt_equal, tt_of_formula, tt_of_func

from helpers import (FOUR_VAR_SAT, TWO_VAR_UNSAT, clause_func, random_clause,
                     random_cnf)


class TestLiteral:
    def test_dimacs_round_trip(self):
        for token in (1, -1, 7, -13):
            assert Literal.from_dimacs(token).to_dimacs() == token

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Literal.from_dimacs(0)

    def test_satisfied_by(self):
        assert Literal(0, False).satisfied_by((1, 0))
        assert not Literal(0, True).satisfied_by((1, 0))
        assert Literal(1, True).satisfied_by((1, 0))


class TestClause:
    def test_duplicates_dropped(self):
        clause = Clause.from_ints([1, 1, -2, 1])
        assert clause.to_ints() == [1, -2]

    def test_tautology_flag(self):
        assert Clause.from_ints([1, -1]).is_tautology
        assert not Clause.from_ints([1, -2]).is_tautology

    def test_empty_clause_allowed(self):
        clause = Clause.from_ints([])
        assert len(clause) == 0
        assert not clause.satisfied_by((0, 1))

    def test_satisfied_by(self):
        clause = Clause.from_ints([1, -2])
        assert clause.satisfied_by((1, 1))
        assert clause.satisfied_by((0, 0))
        assert not clause.satisfied_by((0, 1))


class TestParse:
    def test_minimal(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
        assert f.var_count == 2
        assert len(f.clauses) == 1
        assert f.clauses[0].to_ints() == [1, -2]

    def test_four_var_example(self):
        f = parse_dimacs(FOUR_VAR_SAT)
        assert f.var_count == 4
        assert [c.to_ints() for c in f.clauses] == [[-1, 2, 4], [-2, 3, -4], [1, 3, -4]]

    def test_two_var_example(self):
        f = parse_dimacs(TWO_VAR_UNSAT)
        assert f.var_count == 2
        assert len(f.clauses) == 4

    def test_bytes_and_stream_input(self):
        text = "p cnf 1 1\n1 0\n"
        assert parse_dimacs(text.encode()).var_count == 1
        assert parse_dimacs(io.StringIO(text)).var_count == 1
        assert parse_dimacs(io.BytesIO(text.encode())).var_count == 1

    def test_crlf_and_blank_lines(self):
        f = parse_dimacs("c hello\r\n\r\np cnf 2 1\r\n1 2 0\r\n")
        assert f.comments == ["hello"]
        assert f.clauses[0].to_ints() == [1, 2]

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1\n-2\n3 0\n")
        assert f.clauses[0].to_ints() == [1, -2, 3]

    def test_several_clauses_on_one_line(self):
        f = parse_dimacs("p cnf 2 2\n1 0 -2 0\n")
        assert [c.to_ints() for c in f.clauses] == [[1], [-2]]

    def test_empty_clause_token(self):
        f = parse_dimacs("p cnf 2 1\n0\n")
        assert len(f.clauses[0]) == 0

    def test_non_utf8_input(self):
        data = b"c caf\xff\np cnf 1 1\n1 0\n"
        for source in (data, io.BytesIO(data),
                       io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")):
            with pytest.raises(DimacsParseError, match="byte 0xff at offset 5"):
                parse_dimacs(source)

    def test_missing_header(self):
        with pytest.raises(DimacsParseError, match="header"):
            parse_dimacs("1 -2 0\n")

    def test_double_header(self):
        with pytest.raises(DimacsParseError, match="second"):
            parse_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n")

    def test_malformed_header(self):
        with pytest.raises(DimacsParseError, match="malformed"):
            parse_dimacs("p cnf one 1\n1 0\n")
        with pytest.raises(DimacsParseError, match="malformed"):
            parse_dimacs("p sat 2 1\n1 0\n")

    def test_non_integer_token_reports_line(self):
        with pytest.raises(DimacsParseError, match="line 3"):
            parse_dimacs("c x\np cnf 2 1\n1 x 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsParseError, match="out of range"):
            parse_dimacs("p cnf 2 1\n3 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(DimacsParseError, match="0-terminated"):
            parse_dimacs("p cnf 2 1\n1 -2\n")

    def test_satlib_trailer_ends_the_clauses(self):
        # the SATLIB uf* files end in a '%' line and a lone '0'
        text = "c uf\np cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = parse_dimacs(text)
        assert [c.to_ints() for c in f.clauses] == [[1, -2], [2, 3]]
        assert parse_dimacs("p cnf 1 1\n1 0\n %\ngarbage 9 x\n").clauses == [
            Clause.from_ints([1])]

    def test_percent_is_not_a_token_inside_a_line(self):
        with pytest.raises(DimacsParseError, match="line 2"):
            parse_dimacs("p cnf 2 1\n1 % 0\n")
        with pytest.raises(DimacsParseError, match="0-terminated"):
            parse_dimacs("p cnf 2 1\n1 -2\n%\n0\n")

    def test_matches_clauses_built_from_ints(self):
        # seeded random DIMACS text with repeated literals, tautologies,
        # empty clauses, clauses that span lines, literals spelled more
        # than one way and sometimes a '%' trailer: the parse is the
        # formula built with Clause.from_ints clause by clause
        rng = random.Random(0xD1AC)
        repeats = tautologies = spanning = 0
        for _ in range(120):
            n = rng.randint(1, 12)
            rows = []
            for _ in range(rng.randint(0, 20)):
                ints = [rng.choice((1, -1)) * rng.randint(1, n)
                        for _ in range(rng.randint(0, 5))]
                if ints and rng.random() < 0.3:
                    ints.insert(rng.randrange(len(ints) + 1), rng.choice(ints))
                if ints and rng.random() < 0.2:
                    ints.append(-rng.choice(ints))
                rows.append(ints)
                repeats += len(set(ints)) < len(ints)
                tautologies += Clause.from_ints(ints).is_tautology
            tokens = []
            for ints in rows:
                tokens += [("-" if t < 0 else rng.choice(("", "+")))
                           + rng.choice(("", "", "0")) + str(abs(t))
                           for t in ints]
                tokens.append(rng.choice(("0", "0", "00", "-0")))
            lines = [f"p cnf {n} {len(rows)}", "c random"]
            while tokens:
                cut = rng.randint(1, 6)
                lines.append(" ".join(tokens[:cut]))
                tokens = tokens[cut:]
            spanning += any(not line.endswith("0") for line in lines[2:])
            if rng.random() < 0.5:
                lines += ["%", "0"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                parsed = parse_dimacs("\n".join(lines) + "\n")
            assert parsed == CnfFormula(
                n, [Clause.from_ints(ints) for ints in rows], ["random"])
        assert repeats and tautologies and spanning

    def test_count_mismatch_is_warning(self):
        with pytest.warns(UserWarning, match="declares 3"):
            f = parse_dimacs("p cnf 2 3\n1 0\n")
        assert len(f.clauses) == 1


class TestEmit:
    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(50):
            formula = random_cnf(rng, max_vars=8, max_clauses=12)
            back = parse_dimacs(emit_dimacs(formula))
            assert back.var_count == formula.var_count
            assert [c.to_ints() for c in back.clauses] == \
                [c.to_ints() for c in formula.clauses]

    def test_comments_preserved(self):
        f = parse_dimacs("c one\nc two\np cnf 1 1\n1 0\n")
        again = parse_dimacs(emit_dimacs(f))
        assert again.comments == ["one", "two"]


class TestFormulaType:
    def test_out_of_range_literal_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CnfFormula(1, [Clause.from_ints([2])])


class TestToFunc:
    def test_clause_disjunction(self):
        s = BoolSpace(2)
        f = clause_to_func(Clause.from_ints([1, -2]), s)
        assert f((0, 0)) == 1
        assert f((0, 1)) == 0

    def test_tautological_clause_is_one(self):
        s = BoolSpace(1)
        assert clause_to_func(Clause.from_ints([1, -1]), s) == s.true

    def test_empty_clause_is_zero(self):
        s = BoolSpace(2)
        assert clause_to_func(Clause.from_ints([]), s) == s.false

    def test_clause_matches_oracle(self):
        rng = random.Random(32)
        s = BoolSpace(8)
        for _ in range(100):
            formula = random_cnf(rng, max_vars=8, min_vars=8, max_clauses=1)
            built = clause_to_func(formula.clauses[0], s)
            direct = clause_func(s, formula.clauses[0])
            assert built == direct
            assert tt_equal(tt_of_func(built), tt_of_formula(formula))

    def test_clause_is_one_chain_of_its_literals(self):
        # equal to the OR-fold of the literal functions, one node per
        # literal, whatever order the literals come in
        rng = random.Random(34)
        s = BoolSpace(8)
        for _ in range(100):
            clause = random_clause(8, rng, max_width=8)
            built = clause_to_func(clause, s)
            assert built == clause_func(s, clause)
            assert built.node_count() == len(clause)

    def test_constant_clauses(self):
        s = BoolSpace(4)
        for tokens in ([1, -1], [3, 2, -3], [-4, 1, 2, 4], [2, -1, 1, 3]):
            assert clause_to_func(Clause.from_ints(tokens), s) == s.true
        assert clause_to_func(Clause.from_ints([]), s).node_count() == 0

    def test_clause_out_of_range_rejected(self):
        s = BoolSpace(2)
        with pytest.raises(ValueError):
            clause_to_func(Clause.from_ints([1, 3]), s)
        with pytest.raises(ValueError):
            clause_to_func(Clause((Literal(-1),)), s)

    def test_empty_formula_is_one(self):
        s = BoolSpace(3)
        assert formula_to_func(CnfFormula(3, []), s) == s.true

    def test_two_var_example_is_zero(self):
        formula = parse_dimacs(TWO_VAR_UNSAT)
        s = BoolSpace(formula.var_count)
        assert formula_to_func(formula, s) == s.false

    def test_four_var_example_is_sat(self):
        formula = parse_dimacs(FOUR_VAR_SAT)
        s = BoolSpace(formula.var_count)
        assert formula_to_func(formula, s).is_sat()

    def test_formula_matches_oracle(self):
        rng = random.Random(33)
        for _ in range(60):
            formula = random_cnf(rng, max_vars=10, max_clauses=20)
            s = BoolSpace(formula.var_count)
            assert tt_equal(tt_of_func(formula_to_func(formula, s)),
                            tt_of_formula(formula))
