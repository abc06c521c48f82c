"""The program as its own process: what reaches a real stdout.

Each test runs ``python -m projsat`` in a subprocess, so the output
passes through the interpreter's own stdout, text layer and binary
buffer, as it does for the installed console script.
"""

import json
import subprocess
import sys
from itertools import product

from projsat.cli import EXIT_SAT

from helpers import reference_v_lines, src_env


def run_module(args, tmp_path, cnf):
    """(exit code, stdout bytes, stderr bytes) of python -m projsat."""
    path = tmp_path / "input.cnf"
    path.write_text(cnf)
    proc = subprocess.run(
        [sys.executable, "-m", "projsat", "--input", str(path), *args],
        env=src_env(), capture_output=True, timeout=120, check=False)
    return proc.returncode, proc.stdout, proc.stderr


class TestAllModeBytes:
    # the 32768 models of the clause-free 15-variable formula: the text
    # layer's 's' line, then the v lines as bytes, or for --json the
    # rows as bytes between text on both sides

    def test_v_lines_are_the_reference_bytes(self, tmp_path):
        code, out, err = run_module(["--mode", "all"], tmp_path, "p cnf 15 0\n")
        assert (code, err) == (EXIT_SAT, b"")
        want = ("s SATISFIABLE\n"
                + reference_v_lines(product((0, 1), repeat=15), 15)).encode("ascii")
        # as lines with their ends, equal exactly when the outputs are,
        # so that a failure names the first wrong line
        assert out.splitlines(keepends=True) == want.splitlines(keepends=True)

    def test_json_rows_sit_inside_the_object(self, tmp_path):
        code, out, err = run_module(["--mode", "all", "--json"], tmp_path,
                                    "p cnf 15 0\n")
        assert (code, err) == (EXIT_SAT, b"")
        assert out.count(b"\n") == 1 and out.endswith(b"}\n")
        payload = json.loads(out)
        assert payload["all_solutions"] == [list(p) for p in product((0, 1), repeat=15)]
        assert payload["status"] == "SAT" and payload["var_count"] == 15
