"""In-memory span tracer for the benchmark's traced runs.

Spans (name, start, end, parent) are kept in flat arrays and written out
when the run ends.  :func:`instrument` wraps the public entry points of each
metabox layer for the duration of a ``with`` block.  A function is replaced
in every metabox module that holds it, so names imported by value (such as
``cache_key`` in ``bayesian`` and ``gp``, or the neighborhood functions in
``direct_search``) are traced where they are called.  Methods are wrapped on
their class.  Nothing here is imported by the package.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        #: Counters that hooks bump inside spans; read per solve as deltas.
        self.counts: Counter = Counter()
        #: (point key, surrogate-feasible) of every acquisition winner.
        self.proposals: list = []

    def __len__(self):
        return len(self.start)

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def wrap(self, label: str, fn, before=None, after=None):
        """``fn`` recording one span per call; hooks run outside the span."""
        name_id = self._id(label)
        names, starts, ends, parents, stack = (self.name, self.start, self.end,
                                               self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, token, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, label: str):
        index = len(self.start)
        self.name.append(self._id(label))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            yield index
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def aggregate(self, lo: int, hi: int) -> dict:
        """label -> (calls, inclusive seconds, self seconds) over spans [lo, hi).

        Self time is a span's duration minus the durations of its children.
        The range must hold whole subtrees (one root span and its descendants).
        """
        if hi <= lo:
            return {}
        names = np.frombuffer(self.name, dtype=np.int64)[lo:hi]
        start = np.frombuffer(self.start)[lo:hi]
        end = np.frombuffer(self.end)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        duration = end - start
        inner = parent >= lo
        child_time = np.bincount(parent[inner] - lo, weights=duration[inner],
                                 minlength=hi - lo)
        own = duration - child_time
        size = len(self.labels)
        calls = np.bincount(names, minlength=size)
        inclusive = np.bincount(names, weights=duration, minlength=size)
        self_time = np.bincount(names, weights=own, minlength=size)
        return {label: (int(calls[i]), float(inclusive[i]), float(self_time[i]))
                for i, label in enumerate(self.labels) if calls[i]}

    def durations(self, label: str) -> list:
        """Inclusive duration of every span with this label."""
        mask = np.frombuffer(self.name, dtype=np.int64) == self._ids[label]
        return (np.frombuffer(self.end)[mask] - np.frombuffer(self.start)[mask]).tolist()

    def save(self, path):
        """Write every span as columns plus the label table (numpy .npz)."""
        np.savez(path, labels=np.array(self.labels),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64))


class _Incumbent:
    """Running minimum barrier value over one evaluator's history."""

    def __init__(self):
        self.history = None
        self.seen = 0
        self.best = math.inf

    def __call__(self, history) -> float:
        if history is not self.history:
            self.history, self.seen, self.best = history, 0, math.inf
        for record in history[self.seen:]:
            if record.error is None and record.feasible:
                self.best = min(self.best, record.objective)
        self.seen = len(history)
        return self.best


def _replace_everywhere(original, replacement, restore: list):
    """Point every metabox module attribute bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "metabox"
                                  or module_name.startswith("metabox.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                restore.append((module, attr, original))
                setattr(module, attr, replacement)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every layer's public entry points until the block exits."""
    from metabox import (bayesian, blackbox, constraints, direct_search, domain, gp,
                         neighborhoods, problem_file)
    from checks import point_key

    incumbent = _Incumbent()
    counts = tracer.counts

    def subproblem_before(args):
        return incumbent(args[0].history)

    def subproblem_after(args, before, result):
        counts["direct_search.improving"] += result.barrier < before

    def predict_after(args, _, result):
        points = args[1]
        counts["gp.predict_points"] += getattr(points, "n", None) or len(points)

    def model_after(args, _, result):
        model = args[0]
        base = model.config.jitter
        if model.jitter > base * (1 + 1e-9):
            counts["gp.jitter_escalations"] += round(math.log10(model.jitter / base))

    def acquisition_after(args, _, candidate):
        if candidate is not None:
            tracer.proposals.append((point_key(candidate.point()),
                                     candidate.surrogate_feasible))

    functions = [
        ("problem_file.parse", problem_file.parse_problem_file, {}),
        ("blackbox.cache_key", blackbox.cache_key, {}),
        ("neighborhoods", neighborhoods.meta_neighbors, {}),
        ("neighborhoods", neighborhoods.categorical_neighbors, {}),
        ("neighborhoods", neighborhoods.carried_categorical, {}),
        ("neighborhoods", neighborhoods.realize_neighbor, {}),
        ("neighborhoods", neighborhoods.default_meta_mapping, {}),
        ("direct_search.subproblem", direct_search.solve_standard_subproblem,
         {"before": subproblem_before, "after": subproblem_after}),
        ("gp.fit", gp.fit_hyperparameters, {}),
        ("gp.correlation_matrix", gp.correlation_matrix, {}),
        ("bayesian.acquisition", bayesian.maximize_acquisition,
         {"after": acquisition_after}),
    ]
    methods = [
        ("blackbox.evaluate", blackbox.Evaluator, "evaluate", {}),
        # The builtin objective is wrapped by the caller (it lives on the Problem).
        ("blackbox.backend", blackbox.Evaluator, "_run_subprocess", {}),
        ("domain.membership", domain.Domain, "membership_issues", {}),
        ("domain.acting_index_set", domain.Domain, "acting_index_set", {}),
        ("constraints.acting", constraints.ConstraintSystem, "acting_constraints", {}),
        ("constraints.acting", constraints.ConstraintSystem,
         "acting_decreed_constraints", {}),
        ("constraints.feasibility", constraints.ConstraintSystem, "is_feasible", {}),
        ("constraints.feasibility", constraints.ConstraintSystem, "evaluate_analytic", {}),
        ("gp.model_build", gp.GPModel, "__init__", {"after": model_after}),
        ("gp.features", gp.SampleFeatures, "__init__", {}),
        ("gp.pair_tensors", gp.PairTensors, "__init__", {}),
        ("gp.predict", gp.GPModel, "predict_batch", {"after": predict_after}),
        ("gp.mean", gp.GPModel, "mean_batch", {}),
    ]
    restore: list = []
    try:
        for label, fn, hooks in functions:
            _replace_everywhere(fn, tracer.wrap(label, fn, **hooks), restore)
        for label, cls, attr, hooks in methods:
            original = cls.__dict__[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(label, original, **hooks))
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
