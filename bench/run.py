"""Solver benchmark: time to verdict and peak memory, with a traced layer split.

    python3 bench/run.py --workload solve --seed 1 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are setup_s, solve_s and peak_rss_mb; with
--trace 1 they are the per-layer metrics of bench/README.md.  Without
--workload, every workload runs in a fresh process, untraced and
traced, and the metrics are printed as one table.  A run measures for
--seconds, which defaults to run_seconds of BENCHMARK.json.

Each operation calls projsat.cli.run in this process with --input and
--mode only, and checks its exit code and s/v output against an answer
the benchmark computed itself.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

from checks import check
from instances import GENERATORS, build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = tuple(GENERATORS)
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
# set-up is repeated at least SETUP_REPEATS times and for SETUP_SECONDS
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0


def _import_program():
    """Import projsat from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "projsat" / "cli.py").is_file():
        sys.exit(f"error: no program source at {src / 'projsat'}")
    sys.path.insert(0, str(src))
    import projsat.cli
    if Path(projsat.cli.__file__).resolve().parent != src / "projsat":
        sys.exit(f"error: projsat imported from {projsat.cli.__file__}, not {src}")
    return projsat.cli


def call_cli(run, path: str, mode: str, out_path: Path) -> tuple[float, int]:
    """One operation, its s/v output written to out_path: seconds, exit code."""
    with open(out_path, "w", encoding="ascii", newline="\n") as out, \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        code = run(["--input", path, "--mode", mode])
        took = perf_counter() - start
    return took, code


class Workload:
    """A workload's instances, its round of operations and their tally."""

    def __init__(self, instances: list, out_path: Path, setup_s: float = 0.0):
        self.instances = instances
        self.ops = [(inst, mode) for inst in instances for mode in inst.modes]
        self.out_path = out_path
        self.setup_s = setup_s
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []  # instance, mode, why

    @classmethod
    def set_up(cls, name: str, seed: int, workdir: Path) -> "Workload":
        """Build the instances repeatedly; setup_s is the median time."""
        times: list[float] = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            shutil.rmtree(workdir, ignore_errors=True)
            start = perf_counter()
            instances = build(name, seed, workdir)
            times.append(perf_counter() - start)
        return cls(instances, workdir / "stdout.txt", statistics.median(times))

    def round(self, run) -> list[Optional[float]]:
        """Run every operation once; return each call's wall time, or
        None for an operation that failed."""
        times = []
        for inst, mode in self.ops:
            self.attempted += 1
            try:
                took, code = call_cli(run, inst.path, mode, self.out_path)
                with open(self.out_path, encoding="ascii") as lines:
                    problem = check(inst, mode, code, lines)
            except Exception as exc:  # an exception is a failed operation
                took, problem = None, f"{type(exc).__name__}: {exc}"
            times.append(took if problem is None else None)
            # start each call from a collected heap, as a fresh CLI process
            # would: reference cycles in the engine otherwise carry one
            # call's tables and model lists into the next
            gc.collect()
            if problem is not None:
                self.failures.append((inst.name, mode, problem))
                if self.failed <= 5:
                    print(f"FAILED {inst.name} --mode {mode}: {problem}",
                          file=sys.stderr)
        return times

    @property
    def failed(self) -> int:
        return len(self.failures)


def per_round_mean(rounds: list[list[Optional[float]]]) -> float:
    """Wall time of the calls that did not fail, summed over a round and
    averaged over the rounds."""
    return sum(took for times in rounds for took in times
               if took is not None) / len(rounds)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = _import_program()
    workdir = BENCH / ".work" / f"{name}-{seed}-{os.getpid()}"
    try:
        work = Workload.set_up(name, seed, workdir)
        if trace:
            metrics = _traced(work, cli, seconds)
        else:
            rounds = []
            start = perf_counter()
            while True:
                begin = perf_counter()
                rounds.append(work.round(cli.run))
                now = perf_counter()
                if now - start + (now - begin) > seconds:
                    break
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": {"value": work.setup_s, "unit": "s"},
                "solve_s": {"value": per_round_mean(rounds), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": work.failed == 0, "attempted": work.attempted,
            "failed": work.failed, "metrics": metrics}


def _traced(work: Workload, cli, seconds: float) -> dict:
    """Alternate untraced and traced rounds; per-layer means per round."""
    from tracing import LAYERS, Tracer
    from projsat.cnf import formula_to_func, parse_dimacs
    from projsat.engine import BoolSpace

    tracer = Tracer()
    plain, traced, conjoin = [], [], 0.0
    start = perf_counter()
    while True:
        pair = perf_counter()
        plain.append(work.round(cli.run))
        with tracer.installed():
            traced.append(work.round(tracer.root(cli.run)))
        for inst in work.instances:
            with open(inst.path, "rb") as handle:
                formula = parse_dimacs(handle)
            begin = perf_counter()
            formula_to_func(formula, BoolSpace(formula.var_count))
            conjoin += perf_counter() - begin
        if perf_counter() - start + (perf_counter() - pair) > seconds:
            break
    rounds = len(traced)
    seconds_metrics = {f"{layer}_s": tracer.self_s[layer] / rounds for layer in LAYERS}
    seconds_metrics["engine.compose_s"] = tracer.compose_s / rounds
    seconds_metrics["ref.conjoin_s"] = conjoin / rounds
    traced_s = per_round_mean(traced)
    seconds_metrics["trace.solve_s"] = traced_s
    seconds_metrics["trace.overhead_s"] = traced_s - per_round_mean(plain)
    seconds_metrics["trace.unaccounted_s"] = traced_s - sum(
        tracer.self_s[layer] for layer in LAYERS) / rounds
    counts = dict(tracer.counts)
    counts["projections.calls"] = tracer.calls["projections.build"]
    metrics = {key: {"value": value, "unit": "s"}
               for key, value in seconds_metrics.items()}
    for key in ("projections.calls", "engine.compose_calls", "solver.steps",
                "solver.peak_factor_nodes", "engine.unique_nodes",
                "engine.ite_cache_entries", "engine.models"):
        metrics[key] = {"value": counts.get(key, 0) / rounds, "unit": "count"}
    return metrics


def run_workload(name: str, seed: int, trace: int) -> Optional[dict]:
    """One workload in a fresh process: its result, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        print(f"error: {name} --trace {trace} exited {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def _run_all(seed: int) -> int:
    """Every workload in a fresh process, untraced then traced; one table."""
    merged = {}
    for name in WORKLOADS:
        merged[name] = {"attempted": 0, "failed": 0, "correct": True, "metrics": {}}
        for trace in (0, 1):
            result = run_workload(name, seed, trace)
            if result is None:
                return 1
            for key in ("attempted", "failed"):
                merged[name][key] += result[key]
            merged[name]["correct"] &= result["correct"]
            merged[name]["metrics"].update(result["metrics"])
    print(f"{'metric':28} {'unit':6}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for key in ("attempted", "failed"):
        print(f"{key:28} {'ops':6}" + "".join(f"{merged[w][key]:14d}" for w in WORKLOADS))
    for key, metric in merged[WORKLOADS[0]]["metrics"].items():
        print(f"{key:28} {metric['unit']:6}" + "".join(
            f"{merged[w]['metrics'][key]['value']:14.6g}" for w in WORKLOADS))
    ok = all(result["correct"] for result in merged.values())
    print(json.dumps({"correct": ok, "workloads": merged}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return _run_all(args.seed)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
