"""Self-test of the answer checks: wrong answers must count as failed.

    python3 bench/selftest.py

Runs a small set of instances through the benchmark's own operation loop
(bench/run.py Workload.round), once with the real projsat.cli.run and
once per tampering that wraps it: a flipped verdict, a bad witness, a
missing model, a repeated model, a wrong exit code and an exception.
Each tampering must be counted as failed on exactly the operations it
touches, and the honest run on none.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

from run import BENCH, Workload, _import_program


def _instances(workdir: Path) -> list:
    import random

    from instances import (Instance, implication_chain, pigeonhole, random_3sat,
                           truth_table, write_dimacs)
    rng = random.Random("selftest")
    polarity = [1] + [rng.choice((1, -1)) for _ in range(11)]
    sparse = random_3sat(rng, 8, 3)
    models = truth_table(8, sparse).nonzero()[0]
    instances = [
        Instance("chain-12", 12, implication_chain(polarity), ("solve",), True,
                 unique_model=tuple(int(s > 0) for s in polarity)),
        Instance("php-3-2", 6, pigeonhole(3, 2), ("solve",), False),
        Instance("sparse-n8", 8, sparse, ("all", "verify"), True, models=models),
    ]
    workdir.mkdir(parents=True, exist_ok=True)
    for k, inst in enumerate(instances):
        inst.path = str(workdir / f"{k}-{inst.name}.cnf")
        write_dimacs(Path(inst.path), inst)
    return instances


def _flip_verdict(inst, mode, code, lines):
    swap = {"s SATISFIABLE": "s UNSATISFIABLE", "s UNSATISFIABLE": "s SATISFIABLE"}
    code = {10: 20, 20: 10}.get(code, code)  # keep the exit code consistent
    return code, [swap.get(line, line) for line in lines if not line.startswith("v")]


def _bad_witness(inst, mode, code, lines):
    # the first v line becomes a point that falsifies the first clause
    first = {abs(lit): lit < 0 for lit in inst.clauses[0]}
    for k, line in enumerate(lines):
        if line.startswith("v"):
            lits = [abs(int(t)) for t in line.split()[1:-1]]
            point = [first.get(v, True) for v in lits]
            lines[k] = "v " + " ".join(str(v if bit else -v)
                                       for v, bit in zip(lits, point)) + " 0"
            break
    return code, lines


def _drop_model(inst, mode, code, lines):
    if mode == "all":
        last = max(k for k, line in enumerate(lines) if line.startswith("v"))
        del lines[last]
    return code, lines


def _repeat_model(inst, mode, code, lines):
    if mode == "all":
        first = next(line for line in lines if line.startswith("v"))
        lines.append(first)
    return code, lines


def _exit_one(inst, mode, code, lines):
    return 1, lines


def _raise(inst, mode, code, lines):
    raise RuntimeError("tampered call raised")


# tampering, and which (instance, mode) operations it must make fail
CASES = (
    ("honest", None, set()),
    ("flipped verdict", _flip_verdict,
     {("chain-12", "solve"), ("php-3-2", "solve"), ("sparse-n8", "all"),
      ("sparse-n8", "verify")}),
    ("bad witness", _bad_witness,
     {("chain-12", "solve"), ("sparse-n8", "all"), ("sparse-n8", "verify")}),
    ("missing model", _drop_model, {("sparse-n8", "all")}),
    ("repeated model", _repeat_model, {("sparse-n8", "all")}),
    ("exit code 1", _exit_one,
     {("chain-12", "solve"), ("php-3-2", "solve"), ("sparse-n8", "all"),
      ("sparse-n8", "verify")}),
    ("exception", _raise,
     {("chain-12", "solve"), ("php-3-2", "solve"), ("sparse-n8", "all"),
      ("sparse-n8", "verify")}),
)


def _tampered(real_run, by_path, mutate):
    def run(argv):
        inst = by_path[argv[argv.index("--input") + 1]]
        mode = argv[argv.index("--mode") + 1]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = real_run(argv)
        code, lines = mutate(inst, mode, code, buf.getvalue().splitlines())
        print("\n".join(lines))
        return code
    return run


def main() -> int:
    cli = _import_program()
    workdir = BENCH / ".work" / "selftest"
    ok = True
    try:
        instances = _instances(workdir)
        by_path = {inst.path: inst for inst in instances}
        for label, mutate, expected in CASES:
            work = Workload(instances, workdir / "stdout.txt")
            work.round(cli.run if mutate is None
                       else _tampered(cli.run, by_path, mutate))
            failed_ops = {(name, mode) for name, mode, _ in work.failures}
            good = failed_ops == expected
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} {label:16} failed {work.failed}"
                  f"/{work.attempted}, expected {len(expected)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
