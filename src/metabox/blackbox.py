"""Evaluation runtime: caching, budget accounting, history and subprocess blackboxes.

A Problem bundles a domain, a constraint system and one evaluation backend
(an in-process callable or an external command).  An Evaluator wraps a
Problem with a budget, a result cache keyed by Point equality, and an
append-only history.  Cached hits append to the history but never spend
budget.
:meth:`Evaluator.lookahead` settles a sequence of points in order while
running the next few command children at once; a ``None`` among them is a
placeholder it passes through.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass

from .constraints import ConstraintSystem
from .domain import Domain, GROUPS, Point, _is_int, _is_real, render_value
from .errors import (BudgetExhaustedError, ConfigurationError, DomainError,
                     EvaluationError)

TIMEOUT_ENV_VAR = "METABOX_BLACKBOX_TIMEOUT"
DEFAULT_TIMEOUT = 60.0
#: Most command children one lookahead runs at once, whatever the CPU count.
MAX_LOOKAHEAD = 4


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
    """The evaluator's key of a point: its sorted meta, categorical and
    standard items, all memoized on the point.

    Two valid points share it exactly when they are equal as Points
    (``0.0`` equals ``-0.0``).  Plain tuples: hashing one calls no Python
    method.
    """
    return (point.meta._key, point._key[1], point._key[2])


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
            raise ConfigurationError("exactly one of objective/command must be provided")
        if self.objective is not None and not callable(self.objective):
            raise ConfigurationError(f"objective must be callable, got {self.objective!r}")
        _check_timeout(self.timeout, "Problem timeout")
        command = self.command
        if not (isinstance(command, (list, tuple))
                and all(isinstance(part, str) for part in command)):
            raise ConfigurationError(f"command must be a sequence of strings, got {command!r}")
        object.__setattr__(self, "command", tuple(command))


def subprocess_payload(domain: Domain, point: Point) -> dict:
    """JSON object written to an external blackbox (labels at the boundary)."""
    categorical = {vid: domain.spec(vid).scope.label(idx)
                   for vid, idx in point.categorical.items()}
    return {"meta": dict(point.meta), "categorical": categorical,
            "standard": dict(point.standard)}


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _kill_group(proc):
    """SIGKILL the process group a child leads (it was started in its own session)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


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
    """Stateful evaluation session: budget, cache and history, used from one
    thread.

    Points are identified by Point equality: equal meta, categorical and
    standard maps, so ``0.0`` and ``-0.0`` are one evaluation although
    :func:`cache_key` renders them apart.
    A failed evaluation is remembered too: requesting its point again records
    a cached failure and raises the same EvaluationError, free of budget.

    A request is settled in this order: membership (a non-member raises
    DomainError; a point moved from a checked member, :meth:`Point.moved`,
    is re-checked only at its moved value), the cache, the budget, then the
    backend, whose output passes one check for both backends.

    ``screened`` counts the points that direct search settled without
    requesting them, as they break an acting analytic constraint; the
    evaluator itself never changes it.

    ``discarded`` counts the command children a :meth:`lookahead` started
    whose results were dropped unsettled: never charged, never recorded.
    """

    def __init__(self, problem: Problem, max_evaluations: int, timeout: float | None = None):
        if not (_is_int(max_evaluations) and max_evaluations >= 0):
            raise ConfigurationError(
                f"max_evaluations must be an integer >= 0, got {max_evaluations!r}")
        self.problem = problem
        self.budget = BudgetState(int(max_evaluations))
        self.history: list[EvaluationRecord] = []
        # identity -> the fresh record, failed (``error`` set) or not
        self._records: dict[tuple, EvaluationRecord] = {}
        # identity -> a lookahead's child not yet taken by the evaluate()
        # that charges its point
        self._ahead: dict[tuple, _Child] = {}
        self.discarded = 0
        self.screened = 0
        # In-process callables run inline; command children may overlap.
        self._width = 1 if problem.objective is not None else min(MAX_LOOKAHEAD, _cpus())
        if timeout is None:
            timeout = _env_timeout(problem.timeout)
        else:
            _check_timeout(timeout, "Evaluator timeout")
        self.timeout = timeout

    # -- public API -------------------------------------------------------------

    def evaluate(self, point: Point) -> EvaluationRecord:
        # Membership first: a float twin of an integer value is an equal
        # Point, and must be refused rather than served the cached record.
        issues = self.problem.domain.membership_issues(point)
        if issues:
            raise DomainError(
                f"point outside domain: {'; '.join(map(str, issues))}", issues)
        key = _identity(point)
        hit = self._records.get(key)
        if hit is not None:
            record = EvaluationRecord(
                point=point, objective=hit.objective,
                constraints=dict(hit.constraints), feasible=hit.feasible,
                index=len(self.history), cached=True, wall_ms=0.0, error=hit.error)
            self.history.append(record)
            if record.error is not None:
                error = EvaluationError(record.error)
                error.record = record
                raise error
            return record
        if self.budget.used >= self.budget.max_evaluations:
            raise BudgetExhaustedError(
                f"budget of {self.budget.max_evaluations} evaluations exhausted")
        self.budget.used += 1
        record = None
        try:
            record = self._run_backend(point)
        except EvaluationError as exc:
            record = exc.record = EvaluationRecord(
                point=point, objective=math.inf, constraints={}, feasible=False,
                index=-1, cached=False, wall_ms=0.0, error=str(exc))
            raise
        finally:
            # Any other exception records nothing: the point's next request
            # runs it again.
            if record is not None:
                record.index = len(self.history)
                self.history.append(record)
                self._records[key] = record
        return record

    @contextlib.contextmanager
    def lookahead(self, points):
        """Settle ``points`` (any iterable, read lazily) in order; a context
        manager whose value iterates the settled records.

        Every point is settled by :meth:`evaluate`, so membership, cache,
        budget and history are exactly as for a loop over
        ``evaluate``; a failed evaluation yields its failure record instead
        of raising, and any other error ends the iteration.  A ``None``
        among the points is a placeholder, passed through in its place: it
        is never evaluated, charged or recorded, and it starts no child.
        With a command backend the children of the next few points (at most
        the usable CPUs, capped at MAX_LOOKAHEAD) run while earlier ones
        settle, and never more than the budget left.  No
        thread is started: each child runs as its own process and is settled
        in the caller's thread.  Children of points the caller never settles
        are killed with their process group on exit and counted in
        ``discarded``.  In-process callables run inline, one at a time.
        """
        children: list[_Child] = []
        try:
            yield self._settle_each(points if self._width == 1
                                    else self._launched(points, children))
        finally:
            for child in children:
                key = _identity(child.point)
                if self._ahead.get(key) is child:
                    del self._ahead[key]
                    self.discarded += 1
                    child.discard()

    def _settle_each(self, points):
        for point in points:
            try:
                yield None if point is None else self.evaluate(point)
            except EvaluationError as exc:
                yield exc.record

    def _launched(self, points, children: list):
        """``points`` in order; each is pulled, and its child started (and
        appended to ``children``), while the ``width - 1`` points before it
        are still to be settled.  A ``None`` takes no place among those, and
        one at the head of the window passes on at once."""
        window, waiting = [], 0  # waiting: the entries of window that are not None
        for point in points:
            if point is not None:
                child = self._launch(point)
                if child is not None:
                    children.append(child)
                waiting += 1
            window.append(point)
            while window and (window[0] is None or waiting == self._width):
                head = window.pop(0)
                waiting -= head is not None
                yield head
        yield from window

    def _launch(self, point: Point) -> "_Child | None":
        """Start ``point``'s child unless evaluate() would refuse or serve it
        from the records, or the budget left is already spoken for."""
        if self.problem.domain.membership_issues(point):
            return None
        key = _identity(point)
        if (key in self._records or key in self._ahead
                or len(self._ahead) >= self.budget.remaining):
            return None
        try:
            child = self._ahead[key] = _Child(self, point)
        except EvaluationError:  # its settle launches it again and records why
            return None
        return child

    # -- backend dispatch ----------------------------------------------------------

    def _run_backend(self, point: Point) -> EvaluationRecord:
        start = time.perf_counter()
        if self.problem.objective is not None:
            try:
                output = self.problem.objective(point)
            except EvaluationError:
                raise
            except Exception as exc:  # backend bugs surface as evaluation errors
                raise EvaluationError(f"builtin backend failed: {exc}") from exc
        else:
            child = self._ahead.pop(_identity(point), None)
            if child is not None:
                start = child.start
            output = self._run_subprocess(point, child)
        try:  # one check of both backends' (objective, blackbox constraint values)
            objective, blackbox_values = output
            if not isinstance(blackbox_values, dict):
                raise TypeError(f"constraints must be a mapping, got {blackbox_values!r}")
            objective = _real(objective, "objective")
            blackbox_values = {str(k): _real(v, f"constraint {k!r}")
                               for k, v in blackbox_values.items()}
        except (ValueError, TypeError, OverflowError) as exc:
            raise EvaluationError(f"blackbox output malformed: {exc}") from exc
        constraints, feasible = self.problem.constraints.evaluate_acting(
            point, blackbox_values)
        if not math.isfinite(objective):
            raise EvaluationError(f"backend returned a non-finite objective {objective!r}")
        for cid, value in constraints.items():
            if not math.isfinite(value):
                raise EvaluationError(f"constraint {cid!r} has the non-finite value {value!r}")
        wall_ms = (time.perf_counter() - start) * 1e3
        return EvaluationRecord(point=point, objective=objective,
                                constraints=constraints, feasible=feasible,
                                index=-1, cached=False, wall_ms=wall_ms)

    def _run_subprocess(self, point: Point, child: "_Child | None" = None):
        """Settle ``point``'s command child: the one a lookahead started, else
        one started now.  Returns (objective, blackbox constraint values)."""
        if child is None:
            child = _Child(self, point)
        proc = child.proc
        # The timeout counts from the child's start; a child that has exited
        # has only its output left to read.
        timeout = self.timeout
        if proc.poll() is None:
            timeout -= time.perf_counter() - child.start
        with proc, child.stderr:
            try:
                stdout, _ = proc.communicate(timeout=timeout)
            except BaseException as exc:
                _kill_group(proc)
                proc.wait()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise EvaluationError(
                        f"blackbox timed out after {self.timeout} s") from None
                raise
            if proc.returncode != 0:
                child.stderr.seek(0)
                # 500 characters take at most 2000 bytes.
                detail = child.stderr.read(2000).decode(errors="replace")[:500]
                raise EvaluationError(f"blackbox exited with code {proc.returncode}: {detail}")
        try:
            output = json.loads(stdout.decode())
            return output["objective"], output.get("constraints", {})
        except (ValueError, KeyError, TypeError) as exc:
            raise EvaluationError(f"blackbox output malformed: {exc}") from exc


def _real(value, what: str) -> float:
    """``value`` as a float when it is a real number (an int, a float or a
    numpy real, but not a bool or a string); TypeError otherwise."""
    if not _is_real(value):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


class _Child:
    """A command child, started at construction.

    Its stdin is read from a file that holds the payload and its stderr is
    written to a file, so the child never blocks on this process; stdout
    stays a pipe, so a settle wakes as soon as the child exits.
    """

    def __init__(self, evaluator: Evaluator, point: Point):
        self.point = point
        payload = json.dumps(subprocess_payload(evaluator.problem.domain, point)).encode()
        self.stderr = tempfile.TemporaryFile()
        with tempfile.TemporaryFile() as stdin:
            stdin.write(payload)
            stdin.seek(0)
            try:
                # The child leads its own session, so a kill reaches every
                # process it started, not just the child.
                self.proc = subprocess.Popen(
                    evaluator.problem.command, stdin=stdin, stdout=subprocess.PIPE,
                    stderr=self.stderr, start_new_session=True)
            except OSError as exc:
                self.stderr.close()
                raise EvaluationError(f"blackbox could not be launched: {exc}") from exc
        self.start = time.perf_counter()

    def discard(self):
        """Kill the child's process group if the child still runs, then reap it."""
        # A reaped child's group id may be reused: poll() reaps an exited
        # child instead of signalling it.
        if self.proc.poll() is None:
            _kill_group(self.proc)
        with self.proc, self.stderr:
            pass


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
    """Write evaluation records as CSV; nonacting cells are empty, and a cell
    is quoted only when it holds a comma, a quote or a line break.

    Deterministic column order: variables then constraints, declaration order.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(history_header(domain, system))
        for record in records:
            row = [str(record.index),
                   "true" if record.cached else "false",
                   "true" if record.feasible else "false",
                   render_value(record.objective)]
            row += [_cell(domain, v.id, record) for v in domain.variables]
            row += [render_value(record.constraints[c.id]) if c.id in record.constraints
                    else "" for c in system.constraints]
            writer.writerow(row)
