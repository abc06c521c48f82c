"""Per-layer spans set from outside the program.

The tracer replaces the names the callers look up (module globals of
projsat.cli and projsat.solver, methods of BoolFunc) with wrappers that
time each call.  A span's self time is its duration minus its child
spans, so the self times of all layers add up to the root span, the
cli.run call.  BoolFunc.compose is timed but kept transparent: its time
stays in the solver's self time, which is the rewrite layer whatever
primitive a later solver uses for the rewrite.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

import projsat.cli
import projsat.solver
from projsat.engine import BoolFunc

# (owner, attribute, layer); layers whose self times add up to cli.run
SPANS = (
    (projsat.cli, "parse_dimacs", "cnf.parse"),
    (projsat.cli, "solve", "solver.rewrite"),
    (projsat.cli, "formula_satisfied", "oracle.witness_check"),
    (projsat.solver, "clause_to_func", "cnf.build"),
    (projsat.solver, "projection_for", "projections.build"),
    (projsat.solver, "tt_of_formula", "oracle.tt_formula"),
    (projsat.solver, "tt_of_func", "oracle.tt_func"),
    (BoolFunc, "any_on_point", "engine.witness"),
    (BoolFunc, "enumerate_on_set", "engine.enumerate"),
)
ROOT = "cli.self"
LAYERS = (ROOT,) + tuple(layer for _, _, layer in SPANS)


class Tracer:
    """Self time and call count per layer, plus engine counters."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.compose_s = 0.0
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._spaces: list = []

    def _span(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self._stack.pop()
                self.self_s[layer] += took - frame[0]
                self.calls[layer] += 1
                if self._stack:
                    self._stack[-1][0] += took
        return wrapper

    def _compose(self, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.compose_s += perf_counter() - start
                self.counts["engine.compose_calls"] += 1
        return wrapper

    def _solve(self, fn):
        # read the step records and the table sizes of every space that
        # solve() built, then drop the spaces so their tables can go
        def wrapper(*args, **kwargs):
            del self._spaces[:]
            result = fn(*args, **kwargs)
            self.counts["solver.steps"] += len(result.steps)
            self.counts["solver.peak_factor_nodes"] += max(
                (s.remaining_before for s in result.steps), default=0)
            for space in self._spaces:
                self.counts["engine.unique_nodes"] += len(space._unique)
                self.counts["engine.ite_cache_entries"] += len(space._ite_cache)
            del self._spaces[:]
            return result
        return wrapper

    def _enumerate(self, fn):
        def wrapper(*args, **kwargs):
            models = fn(*args, **kwargs)
            self.counts["engine.models"] += len(models)
            return models
        return wrapper

    def root(self, fn):
        """Wrap the entry point the benchmark calls (cli.run)."""
        return self._span(ROOT, fn)

    @contextlib.contextmanager
    def installed(self):
        """Set every wrapper for the duration of the block."""
        saved = []

        def put(owner, name, value):
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

        tracer = self
        space_class = projsat.solver.BoolSpace

        class TrackedSpace(space_class):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer._spaces.append(self)

        try:
            # a name the program no longer has raises AttributeError here,
            # so a lost layer fails the traced run instead of reading 0
            for owner, name, layer in SPANS:
                put(owner, name, self._span(layer, getattr(owner, name)))
            put(projsat.cli, "solve", self._solve(projsat.cli.solve))
            put(projsat.solver, "BoolSpace", TrackedSpace)
            put(BoolFunc, "compose", self._compose(BoolFunc.compose))
            put(BoolFunc, "enumerate_on_set", self._enumerate(BoolFunc.enumerate_on_set))
            yield self
        finally:
            for owner, name, value in reversed(saved):
                setattr(owner, name, value)
