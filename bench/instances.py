"""Seeded workload instances and the benchmark's own reference answers.

Every answer the benchmark checks the solver against is computed here,
without importing projsat: a numpy truth table for random formulas, the
closed form for implication chains, and the pigeonhole principle for
PHP(p, h) with p > h.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

#: Clause-to-variable ratio of the random 3-SAT draws of the solve workload.
THRESHOLD_RATIO = 4.26

#: solve: (variable count, random 3-SAT draws per round); PHP(5, 4) and
#: one implication chain per base length are added.
THRESHOLD_MIX = ((10, 28), (11, 4))
PIGEONHOLE = (5, 4)

#: solve: chain base lengths; each is lengthened by a seeded 0..CHAIN_JITTER.
CHAIN_BASES = (100, 140, 180)
CHAIN_JITTER = 4

#: models: (variable count, clause count, model count aimed at), each run
#: in two modes.  Of MODELS_DRAWS seeded draws the one whose model count
#: is nearest the aim is kept, so the v-line output is nearly the same
#: size under every seed and set-up does the same work.
MODELS_MIX = ((18, 5, 137_000), (19, 6, 241_000), (20, 7, 406_000))
MODELS_DRAWS = 8


@dataclass
class Instance:
    """One CNF instance, the CLI modes it runs in, and its reference answer."""

    name: str
    var_count: int
    clauses: list[tuple[int, ...]]  # DIMACS literals, one tuple per clause
    modes: tuple[str, ...]
    sat: bool
    # sorted lexicographic indices of every model (x1 is the high bit);
    # kept only where the workload checks full model lists
    models: Optional[np.ndarray] = None
    # the only model, where it is known in closed form
    unique_model: Optional[tuple[int, ...]] = None
    path: str = ""


def truth_table(var_count: int, clauses: list[tuple[int, ...]]) -> np.ndarray:
    """Value of the CNF at every point, indexed lexicographically."""
    index = np.arange(1 << var_count, dtype=np.uint32)
    table = np.ones(1 << var_count, dtype=bool)
    for clause in clauses:
        value = np.zeros(1 << var_count, dtype=bool)
        for lit in clause:
            bit = (index >> (var_count - abs(lit))) & 1
            value |= bit.astype(bool) if lit > 0 else bit == 0
        table &= value
    return table


def random_3sat(rng: random.Random, var_count: int,
                clause_count: int) -> list[tuple[int, ...]]:
    """Uniform random 3-CNF: three distinct variables, random signs."""
    return [tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, var_count + 1), 3))
            for _ in range(clause_count)]


def pigeonhole(pigeons: int, holes: int) -> list[tuple[int, ...]]:
    """PHP(p, h): every pigeon sits in a hole, no hole holds two."""
    def var(p: int, h: int) -> int:
        return p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append((-var(a, h), -var(b, h)))
    return clauses


def implication_chain(polarity: list[int]) -> list[tuple[int, ...]]:
    """x1, x1 -> x2, ..., with variable i read as its literal polarity[i-1].

    With all polarities +1 this is the chain whose only model is all
    ones; a negative polarity relabels that variable, so the only model
    sets variable i to 1 exactly where polarity[i-1] is +1.
    """
    lits = [sign * (i + 1) for i, sign in enumerate(polarity)]
    return [(lits[0],)] + [(-lits[i], lits[i + 1]) for i in range(len(lits) - 1)]


def _threshold(rng: random.Random) -> list[Instance]:
    out = []
    for n, count in THRESHOLD_MIX:
        for k in range(count):
            clauses = random_3sat(rng, n, round(THRESHOLD_RATIO * n))
            out.append(Instance(f"rand-n{n}-{k}", n, clauses, ("solve",),
                                bool(truth_table(n, clauses).any())))
    p, h = PIGEONHOLE
    out.append(Instance(f"php-{p}-{h}", p * h, pigeonhole(p, h), ("solve",),
                        sat=False))
    return out


def _chain(rng: random.Random) -> list[Instance]:
    out = []
    for base in CHAIN_BASES:
        n = base + rng.randint(0, CHAIN_JITTER)
        polarity = [1] + [rng.choice((1, -1)) for _ in range(n - 1)]
        out.append(Instance(f"chain-{n}", n, implication_chain(polarity),
                            ("solve",), sat=True,
                            unique_model=tuple(int(s > 0) for s in polarity)))
    return out


def _models(rng: random.Random) -> list[Instance]:
    out = []
    for n, m, aim in MODELS_MIX:
        draws = [random_3sat(rng, n, m) for _ in range(MODELS_DRAWS)]
        tables = [truth_table(n, clauses) for clauses in draws]
        best = min(range(MODELS_DRAWS), key=lambda k: abs(int(tables[k].sum()) - aim))
        clauses, models = draws[best], np.flatnonzero(tables[best])
        out.append(Instance(f"sparse-n{n}", n, clauses, ("all", "verify"),
                            sat=models.size > 0, models=models))
    return out


def _solve(rng: random.Random) -> list[Instance]:
    # one workload for both --mode solve families: within the benchmark's
    # fixed total time, every further workload shortens each run, and
    # shorter runs spread more between seeds on a shared host
    return _threshold(rng) + _chain(rng)


GENERATORS = {"solve": _solve, "models": _models}


def write_dimacs(path: Path, inst: Instance) -> None:
    lines = [f"c {inst.name}", f"p cnf {inst.var_count} {len(inst.clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in inst.clauses]
    path.write_text("\n".join(lines) + "\n")


def build(workload: str, seed: int, workdir: Path) -> list[Instance]:
    """Generate the workload's instances, their answers and DIMACS files."""
    rng = random.Random(f"{workload}-{seed}")
    instances = GENERATORS[workload](rng)
    workdir.mkdir(parents=True, exist_ok=True)
    for k, inst in enumerate(instances):
        inst.path = str(workdir / f"{k:03d}-{inst.name}.cnf")
        write_dimacs(Path(inst.path), inst)
    return instances
