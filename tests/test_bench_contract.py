"""The names and results the benchmark's tracer relies on.

bench/tracing.py times the layers by replacing names that projsat.cli
and projsat.solver look up, and reads its counters from what solve()
and enumerate_on_set() return.  A traced benchmark run takes minutes;
this test runs the same tracer on one small instance, so a renamed or
dropped name, or a changed result shape, fails here first.
"""

from pathlib import Path

import projsat.cli
from projsat import parse_dimacs
from projsat.oracle import tt_of_formula

from helpers import FOUR_VAR_SAT

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_reads_steps_and_models(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    path = tmp_path / "input.cnf"
    path.write_text(FOUR_VAR_SAT)
    models = tt_of_formula(parse_dimacs(FOUR_VAR_SAT)).count()

    tracer = tracing.Tracer()
    with tracer.installed():
        run = tracer.root(projsat.cli.run)
        assert run(["--input", str(path), "--mode", "all"]) == 10
        assert run(["--input", str(path), "--mode", "verify"]) == 0
    capsys.readouterr()

    assert tracer.counts["solver.steps"] > 0
    assert tracer.counts["engine.models"] == models
    assert tracer.calls["solver.rewrite"] == 2
    # each run parses once and builds each non-tautological clause once,
    # through the names the tracer wraps: a solve path that bypassed
    # one would read 0 here, and in the traced benchmark
    clauses = parse_dimacs(FOUR_VAR_SAT).clauses
    assert tracer.calls["cnf.parse"] == 2
    assert tracer.calls["cnf.build"] == 2 * sum(
        not clause.is_tautology for clause in clauses)
    # the witness is read from the final factor only where it is used:
    # never by --mode all, and by --mode verify for its clause check
    # and its v line; one enumeration, one oracle pass
    assert tracer.calls["engine.witness"] == 2
    assert tracer.calls["engine.enumerate"] == 1
    assert tracer.calls["oracle.tt_formula"] == tracer.calls["oracle.tt_func"] == 1
