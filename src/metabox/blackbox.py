"""Evaluation runtime: caching, budget accounting, history and subprocess blackboxes.

A Problem bundles a domain, a constraint system and one evaluation backend
(an in-process callable or an external command).  An Evaluator wraps a
Problem with a budget, a result cache keyed by Point equality, and an
append-only history.  Cached hits append to the history but never spend
budget.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

from .constraints import ConstraintSystem
from .domain import Domain, GROUPS, Point, _is_real, render_value
from .errors import (BudgetExhaustedError, ConfigurationError, DomainError,
                     EvaluationError)

TIMEOUT_ENV_VAR = "METABOX_BLACKBOX_TIMEOUT"
DEFAULT_TIMEOUT = 60.0


def valid_timeout(value) -> bool:
    """True for a positive, finite number of seconds (bool is not a number here)."""
    return _is_real(value) and math.isfinite(value) and value > 0


def _check_timeout(value, source: str):
    if not valid_timeout(value):
        raise ConfigurationError(
            f"{source} must be a positive number of seconds, got {value!r}")


def cache_key(point: Point) -> str:
    """Canonical string identity of a point.

    Meta ids sorted lexicographically with their values, then acting variable
    ids sorted with theirs; nonacting variables never appear.
    """
    acting = {**point.categorical, **point.standard}
    rest = ";".join(f"{k}={render_value(v)}" for k, v in sorted(acting.items()))
    return f"{point.meta.rendered}|{rest}"


def _identity(point: Point) -> tuple:
    """The evaluator's key of a point: its rendered meta component and its
    sorted categorical and standard items, all memoized on the point.

    Two valid points share it when they are equal as Points (``0.0`` equals
    ``-0.0``), except that meta values compare as rendered.
    """
    return (point.meta.rendered, point._key[1], point._key[2])


@dataclass
class EvaluationRecord:
    point: Point
    objective: float
    constraints: dict
    feasible: bool
    index: int
    cached: bool
    wall_ms: float
    error: str | None = None


@dataclass
class BudgetState:
    max_evaluations: int
    used: int = 0

    @property
    def remaining(self) -> int:
        return self.max_evaluations - self.used


def barrier_value(record: EvaluationRecord) -> float:
    """Extreme-barrier objective: +inf for infeasible or failed evaluations."""
    if record.error is not None or not record.feasible:
        return math.inf
    return record.objective


@dataclass(frozen=True)
class Problem:
    """Immutable problem description: domain, constraints and a backend.

    ``objective`` is a callable ``point -> (objective, blackbox_constraint_values)``
    for in-process problems; ``command`` launches one external process per
    evaluation using the JSON line protocol described in the README.
    """

    domain: Domain
    constraints: ConstraintSystem
    objective: object = None
    command: tuple = ()
    timeout: float = DEFAULT_TIMEOUT
    name: str = ""

    def __post_init__(self):
        if (self.objective is None) == (not self.command):
            raise ValueError("exactly one of objective/command must be provided")
        _check_timeout(self.timeout, "Problem timeout")
        command = self.command
        object.__setattr__(self, "command", tuple(command))
        if isinstance(command, str) or not all(isinstance(part, str) for part in self.command):
            raise ConfigurationError(f"command must be a sequence of strings, got {command!r}")


def subprocess_payload(domain: Domain, point: Point) -> dict:
    """JSON object written to an external blackbox (labels at the boundary)."""
    categorical = {vid: domain.spec(vid).scope.label(idx)
                   for vid, idx in point.categorical.items()}
    return {"meta": dict(point.meta), "categorical": categorical,
            "standard": dict(point.standard)}


def _env_timeout(default: float) -> float:
    """The timeout set by the environment variable, else ``default``."""
    text = os.environ.get(TIMEOUT_ENV_VAR)
    if not text:
        return default
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not valid_timeout(value):
        raise ConfigurationError(
            f"{TIMEOUT_ENV_VAR} must be a positive number of seconds, got {text!r}")
    return value


class Evaluator:
    """Stateful evaluation session: budget + cache + history as one synchronized unit.

    Points are identified by Point equality: the same meta component (as
    rendered) and equal categorical and standard maps, so ``0.0`` and
    ``-0.0`` are one evaluation although :func:`cache_key` renders them
    apart.  Concurrent evaluate() calls are permitted; the budget check and
    increment are atomic, and duplicates in flight coalesce onto one backend
    call.
    A failed evaluation is remembered too: requesting its point again records
    a cached failure and raises the same EvaluationError, free of budget.
    """

    def __init__(self, problem: Problem, max_evaluations: int, timeout: float | None = None):
        self.problem = problem
        self.budget = BudgetState(int(max_evaluations))
        self.history: list[EvaluationRecord] = []
        # identity -> the fresh record, failed (``error`` set) or not
        self._records: dict[tuple, EvaluationRecord] = {}
        self._inflight: set[tuple] = set()
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)
        if timeout is None:
            timeout = _env_timeout(problem.timeout)
        else:
            _check_timeout(timeout, "Evaluator timeout")
        self.timeout = timeout

    # -- public API -------------------------------------------------------------

    @property
    def evaluated_keys(self):
        with self._lock:
            points = [r.point for r in self._records.values() if r.error is None]
        return {cache_key(p) for p in points}

    def is_evaluated(self, point: Point) -> bool:
        with self._lock:
            record = self._records.get(_identity(point))
        return record is not None and record.error is None

    def evaluate(self, point: Point) -> EvaluationRecord:
        # Membership first: a float twin of an integer value is an equal
        # Point, and must be refused rather than served the cached record.
        issues = self.problem.domain.membership_issues(point)
        if issues:
            raise DomainError(
                f"point outside domain: {'; '.join(map(str, issues))}", issues)
        key = _identity(point)
        with self._lock:
            while key in self._inflight:
                self._settled.wait()
            hit = self._records.get(key)
            if hit is not None:
                record = EvaluationRecord(
                    point=point, objective=hit.objective,
                    constraints=dict(hit.constraints), feasible=hit.feasible,
                    index=len(self.history), cached=True, wall_ms=0.0, error=hit.error)
                self.history.append(record)
                if record.error is not None:
                    raise EvaluationError(record.error)
                return record
            if self.budget.used >= self.budget.max_evaluations:
                raise BudgetExhaustedError(
                    f"budget of {self.budget.max_evaluations} evaluations exhausted")
            self.budget.used += 1
            self._inflight.add(key)
        record = None
        try:
            record = self._run_backend(point)
        except EvaluationError as exc:
            record = EvaluationRecord(
                point=point, objective=math.inf, constraints={}, feasible=False,
                index=-1, cached=False, wall_ms=0.0, error=str(exc))
            raise
        finally:
            with self._lock:
                # Any other exception records nothing; a waiter then runs
                # the point itself.
                if record is not None:
                    record.index = len(self.history)
                    self.history.append(record)
                    self._records[key] = record
                self._inflight.discard(key)
                self._settled.notify_all()
        return record

    # -- backend dispatch ----------------------------------------------------------

    def _run_backend(self, point: Point) -> EvaluationRecord:
        start = time.perf_counter()
        if self.problem.objective is not None:
            try:
                objective, blackbox_values = self.problem.objective(point)
            except EvaluationError:
                raise
            except Exception as exc:  # backend bugs surface as evaluation errors
                raise EvaluationError(f"builtin backend failed: {exc}") from exc
        else:
            objective, blackbox_values = self._run_subprocess(point)
        constraints = {}
        system = self.problem.constraints
        for spec in system.acting_constraints(point.meta):
            if spec.analytic:
                constraints[spec.id] = system.evaluate_analytic(spec, point)
            else:
                if spec.id not in blackbox_values:
                    raise EvaluationError(
                        f"backend returned no value for acting constraint {spec.id!r}")
                constraints[spec.id] = float(blackbox_values[spec.id])
        objective = float(objective)
        if not math.isfinite(objective):
            raise EvaluationError(f"backend returned a non-finite objective {objective!r}")
        for cid, value in constraints.items():
            if not math.isfinite(value):
                raise EvaluationError(f"constraint {cid!r} has the non-finite value {value!r}")
        feasible = system.is_feasible(point, constraints)
        wall_ms = (time.perf_counter() - start) * 1e3
        return EvaluationRecord(point=point, objective=objective,
                                constraints=constraints, feasible=feasible,
                                index=-1, cached=False, wall_ms=wall_ms)

    def _run_subprocess(self, point: Point):
        payload = json.dumps(subprocess_payload(self.problem.domain, point))
        try:
            # The child leads its own session, so a timeout kills every
            # process it started, not just the child.
            proc = subprocess.Popen(
                list(self.problem.command), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
        except OSError as exc:
            raise EvaluationError(f"blackbox could not be launched: {exc}") from exc
        with proc:
            try:
                stdout, stderr = proc.communicate(payload.encode(), timeout=self.timeout)
            except BaseException as exc:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise EvaluationError(
                        f"blackbox timed out after {self.timeout} s") from None
                raise
        if proc.returncode != 0:
            raise EvaluationError(
                f"blackbox exited with code {proc.returncode}: "
                f"{stderr.decode(errors='replace')[:500]}")
        try:
            output = json.loads(stdout.decode())
            objective = float(output["objective"])
            constraint_values = {str(k): float(v)
                                 for k, v in output.get("constraints", {}).items()}
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise EvaluationError(f"blackbox output malformed: {exc}") from exc
        return objective, constraint_values


# ---------------------------------------------------------------------------
# History file
# ---------------------------------------------------------------------------

def history_header(domain: Domain, system: ConstraintSystem) -> list[str]:
    return (["eval_index", "cached", "feasible", "objective"]
            + [v.id for v in domain.variables]
            + [c.id for c in system.constraints])


def _cell(domain: Domain, vid: str, record: EvaluationRecord) -> str:
    spec = domain.spec(vid)
    point = record.point
    if spec.type.is_meta:
        return render_value(point.meta[vid])
    if spec.type in GROUPS["categorical"]:
        if vid not in point.categorical:
            return ""
        return render_value(spec.scope.label(point.categorical[vid]))
    if vid not in point.standard:
        return ""
    return render_value(point.standard[vid])


def write_history(domain: Domain, system: ConstraintSystem, records, path):
    """Write evaluation records as CSV; nonacting cells are empty.

    Deterministic column order: variables then constraints, declaration order.
    """
    lines = [",".join(history_header(domain, system))]
    for record in records:
        row = [str(record.index),
               "true" if record.cached else "false",
               "true" if record.feasible else "false",
               render_value(record.objective)]
        row += [_cell(domain, v.id, record) for v in domain.variables]
        row += [render_value(record.constraints[c.id]) if c.id in record.constraints else ""
                for c in system.constraints]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
