"""Solve summaries, the toy oracle, the per-solve checks and their self-test.

A solve is reduced to a :class:`SolveSummary` (budget, charged evaluations,
one :class:`Record` per history entry and the reported best).  The checks
read only summaries, so the self-test can corrupt a copy of a finished
summary and show that each corruption trips the check written for it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass


def point_key(point) -> tuple:
    """Identity of a point built from its components (not the package's cache key)."""
    return (tuple(sorted(point.meta.items())), tuple(sorted(point.categorical.items())),
            tuple(sorted(point.standard.items())))


@dataclass(frozen=True)
class Record:
    key: tuple
    objective: float
    feasible: bool
    error: str | None
    cached: bool

    @property
    def barrier(self) -> float:
        if self.error is not None or not self.feasible:
            return math.inf
        return self.objective

    @property
    def meta(self) -> dict:
        return dict(self.key[0])

    @property
    def categorical(self) -> dict:
        return dict(self.key[1])

    @property
    def standard(self) -> dict:
        return dict(self.key[2])


@dataclass(frozen=True)
class SolveSummary:
    budget: int
    charged: int
    records: tuple
    best: Record | None

    @property
    def fresh(self):
        return [r for r in self.records if not r.cached]


def _record(evaluation) -> Record:
    return Record(point_key(evaluation.point), float(evaluation.objective),
                  bool(evaluation.feasible), evaluation.error, bool(evaluation.cached))


def summarize(result, budget: int) -> SolveSummary:
    """Reduce a DirectSearchResult or BOResult to what the checks read."""
    best = None if result.best is None else _record(result.best)
    return SolveSummary(budget, result.evaluator.budget.used,
                        tuple(_record(r) for r in result.history), best)


def evals_to_target(summary: SolveSummary, target: float) -> int:
    """Charged evaluations until the best barrier value so far is <= target;
    the full budget when it never is."""
    best, charged = math.inf, 0
    for record in summary.records:
        if record.cached:
            continue
        charged += 1
        best = min(best, record.barrier)
        if best <= target:
            return charged
    return summary.budget


# ---------------------------------------------------------------------------
# Toy oracle
# ---------------------------------------------------------------------------

class ToyOracle:
    """Exhaustive sweep of a fully finite problem file.

    Enumerates the points from the file's variables and decrees itself,
    calls the objective on each and applies its own feasibility rule: an
    acting blackbox-bodied constraint (``branch_cap`` under ``m=B``) must be
    <= 0.
    """

    def __init__(self, document: dict, objective):
        from metabox.domain import MetaComponent, Point

        variables = document["variables"]
        meta_vars = [v for v in variables if v["role"] == "meta"]
        others = [v for v in variables if v["role"] != "meta"]
        self.table = {}
        for labels in itertools.product(*(v["scope"]["categories"] for v in meta_vars)):
            meta = dict(zip((v["id"] for v in meta_vars), labels))
            acting = [v for v in others if _acting(v, meta)]
            axes = [range(1, len(v["scope"]["categories"]) + 1) if "categories" in v["scope"]
                    else range(v["scope"]["lo"], v["scope"]["hi"] + 1) for v in acting]
            for values in itertools.product(*axes):
                categorical = {v["id"]: x for v, x in zip(acting, values)
                               if "categories" in v["scope"]}
                standard = {v["id"]: x for v, x in zip(acting, values)
                            if "categories" not in v["scope"]}
                point = Point(MetaComponent(meta), categorical, standard)
                value, outputs = objective(point)
                feasible = all(outputs[c["id"]] <= 0.0 for c in document["constraints"]
                               if _acting(c, meta))
                self.table[point_key(point)] = (float(value), feasible)
        self.argmin_key = min((k for k, (_, ok) in self.table.items() if ok),
                              key=lambda k: self.table[k][0])
        self.argmin_value = self.table[self.argmin_key][0]

    @classmethod
    def from_file(cls, path, objective) -> "ToyOracle":
        with open(path) as fh:
            return cls(json.load(fh), objective)


def _acting(entry: dict, meta: dict) -> bool:
    return all(meta[atom["meta"]] in atom["allowed"] for atom in entry.get("decree", []))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

RELATIVE_TOLERANCE = 1e-12


def check_budget(s: SolveSummary):
    if s.charged > s.budget:
        yield f"charged {s.charged} evaluations over a budget of {s.budget}"
    if s.charged != len(s.fresh):
        yield f"charged {s.charged} evaluations but history holds {len(s.fresh)} fresh records"


def check_best(s: SolveSummary):
    if s.best is None or not s.records:
        yield "no best record reported"
        return
    smallest = min(r.barrier for r in s.records)
    if s.best.barrier != smallest:
        yield f"best barrier {s.best.barrier!r} differs from the history minimum {smallest!r}"


def check_mlp_oracle(s: SolveSummary, oracle):
    """Every fresh record matches the stdlib proxy; the best is >= 0, the optimum."""
    for r in s.fresh:
        if r.error is not None:
            yield f"evaluation failed: {r.error}"
            continue
        labels = {vid: oracle.scopes[vid]["categories"][index - 1]
                  for vid, index in r.categorical.items()}
        expected = oracle.objective(r.meta, labels, r.standard)
        if abs(r.objective - expected) > RELATIVE_TOLERANCE * abs(expected):
            yield f"objective {r.objective!r} != oracle {expected!r} at {r.key}"
        if r.feasible != oracle.feasible(r.meta, r.standard):
            yield f"feasible flag {r.feasible} disagrees with the oracle at {r.key}"
    if s.best is not None and not s.best.objective >= 0.0:
        yield f"best value {s.best.objective!r} below the known optimum 0"


def check_toy_oracle(s: SolveSummary, oracle: ToyOracle):
    for r in s.fresh:
        expected = oracle.table.get(r.key)
        if expected is None or r.error is not None:
            yield f"record {r.key} is not a clean domain point ({r.error})"
        elif (r.objective, r.feasible) != expected:
            yield f"record {r.key} gives {(r.objective, r.feasible)}, oracle {expected}"


def check_toy_sweep(s: SolveSummary, oracle: ToyOracle):
    keys = [r.key for r in s.fresh]
    if s.charged != len(oracle.table) or set(keys) != set(oracle.table) \
            or len(keys) != len(set(keys)):
        yield (f"charged {s.charged} evaluations over {len(set(keys))} distinct points; "
               f"the domain has {len(oracle.table)}")


def check_toy_argmin(s: SolveSummary, oracle: ToyOracle):
    if s.best is None or s.best.key != oracle.argmin_key \
            or s.best.objective != oracle.argmin_value:
        yield f"best {s.best} is not the exhaustive argmin {oracle.argmin_key}"


def run_checks(s: SolveSummary, mlp_oracle=None, toy_oracle=None) -> dict:
    """Failure messages by check name; an empty dict means every check held."""
    checks = {"budget": check_budget(s), "best": check_best(s)}
    if mlp_oracle is not None:
        checks["oracle"] = check_mlp_oracle(s, mlp_oracle)
    if toy_oracle is not None:
        checks["oracle"] = check_toy_oracle(s, toy_oracle)
        checks["sweep"] = check_toy_sweep(s, toy_oracle)
        checks["argmin"] = check_toy_argmin(s, toy_oracle)
    failures = {name: list(messages) for name, messages in checks.items()}
    return {name: messages for name, messages in failures.items() if messages}


# ---------------------------------------------------------------------------
# Self-test: each corruption of a finished summary must trip its check
# ---------------------------------------------------------------------------

def _shift_best(s: SolveSummary) -> SolveSummary:
    best = dataclasses.replace(s.best, objective=s.best.objective + 1e-6)
    return dataclasses.replace(s, best=best)


def _flip_feasible(s: SolveSummary) -> SolveSummary:
    records = list(s.records)
    i = next(i for i, r in enumerate(records) if not r.cached and r.error is None)
    records[i] = dataclasses.replace(records[i], feasible=not records[i].feasible)
    return dataclasses.replace(s, records=tuple(records))


def _drop_point(s: SolveSummary) -> SolveSummary:
    records = list(s.records)
    del records[next(i for i, r in enumerate(records) if not r.cached)]
    return dataclasses.replace(s, records=tuple(records))


def self_test(s: SolveSummary, mlp_oracle=None, toy_oracle=None) -> dict:
    """Corruption name -> whether the check it targets failed on it."""
    corruptions = [("shift-best", _shift_best, "best"),
                   ("flip-feasible", _flip_feasible, "oracle")]
    if toy_oracle is not None:
        corruptions.append(("drop-toy-point", _drop_point, "sweep"))
    return {name: target in run_checks(corrupt(s), mlp_oracle, toy_oracle)
            for name, corrupt, target in corruptions}
