"""The program as its own process: what reaches a real stdout.

Each test runs ``python -m projsat`` in a subprocess, so the output
passes through the interpreter's own stdout, text layer and binary
buffer, as it does for the installed console script.
"""

import json
import random
import resource
import subprocess
import sys
from itertools import product

from projsat.cli import EXIT_ERROR, EXIT_OK, EXIT_SAT
from projsat.cnf import emit_dimacs

from helpers import pigeonhole, reference_v_lines, src_env


def run_module(args, tmp_path, cnf):
    """(exit code, stdout bytes, stderr bytes) of python -m projsat."""
    path = tmp_path / "input.cnf"
    path.write_text(cnf)
    proc = subprocess.run(
        [sys.executable, "-m", "projsat", "--input", str(path), *args],
        env=src_env(), capture_output=True, timeout=120, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def seeded_3sat(n, m):
    """DIMACS text of m random 3-clauses over n variables, seeded with n."""
    rng = random.Random(n)
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        lits = [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), 3)]
        lines.append(" ".join(map(str, lits + [0])))
    return "\n".join(lines) + "\n"


CONJUNCTION = b"c verified: final factor equals the direct conjunction of the clauses\n"


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


class TestVerify:
    # --mode verify checks the final factor against the truth table up
    # to its cap and against the direct conjunction above it, and exits 0

    def test_pigeonhole_prints_the_check_and_the_status(self, tmp_path):
        # PHP(6, 5), 30 variables: unsatisfiable
        code, out, err = run_module(["--mode", "verify"], tmp_path,
                                    emit_dimacs(pigeonhole(6, 5)))
        assert (code, err) == (EXIT_OK, b"")
        assert out == CONJUNCTION + b"s UNSATISFIABLE\n"

    def test_random_at_the_table_cap(self, tmp_path):
        code, out, err = run_module(["--mode", "verify"], tmp_path,
                                    seeded_3sat(24, 40))
        assert (code, err) == (EXIT_OK, b"")
        assert (b"c verified: final factor agrees with the exhaustive truth "
                b"table\n") in out.splitlines(keepends=True)

    def test_random_above_the_cap_in_input_order(self, tmp_path):
        code, out, err = run_module(["--mode", "verify", "--order", "input"],
                                    tmp_path, seeded_3sat(26, 111))
        assert (code, err) == (EXIT_OK, b"")
        assert CONJUNCTION in out.splitlines(keepends=True)


class TestOutOfMemory:
    def test_one_error_line_and_no_traceback(self):
        # 2^40 models under the cap, in a 1 GiB address space: the
        # enumeration's arrays outgrow it long before any row is printed
        def limited():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "projsat", "--mode", "all",
             "--max-enum", str(1 << 41)],
            input=b"p cnf 40 0\n", env=src_env(), capture_output=True,
            timeout=120, check=False, preexec_fn=limited)
        assert (proc.returncode, proc.stdout) == (EXIT_ERROR, b"")
        assert proc.stderr.startswith(b"error: out of memory")
        assert proc.stderr.count(b"\n") == 1
        assert b"Traceback" not in proc.stderr
