"""Direct search over meta/categorical neighborhoods with standard subproblems.

The outer loop alternates an optional global search (uniform seeded draws of
meta and categorical components) with a poll over the user-defined
neighborhoods.  Every candidate pair of fixed components is resolved by a
coordinate pattern search over the acting standard variables under the
extreme barrier: infeasible or failed points count as +inf.  Acceptance is
strict decrease only.  The step sizes are a :class:`MeshState`, the same
mesh the BO acquisition's pattern searches refine.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .blackbox import EvaluationRecord, Evaluator, Problem, barrier_value
from .domain import Domain, IntegerScope, MetaComponent, Point, _is_int
from .errors import (BudgetExhaustedError, ConfigurationError, EvaluationError,
                     NotEnumerableError)
from .neighborhoods import (carried_categorical, categorical_neighbors,
                            default_meta_mapping, meta_neighbors, realize_neighbor)

INITIAL_FRACTION = 0.25
REFINE_FACTOR = 0.5
MIN_FRACTION = 1e-6


class MeshState:
    """Step sizes of ``count`` coordinate pattern searches over one list of
    standard variables: row r of ``scale`` belongs to search r, columns in
    the order of ``scopes``.

    Continuous entries are fractions of the scope width, from
    INITIAL_FRACTION down to ``floor``; integer entries are absolute steps,
    from a quarter of the width down to 1.  A refinement halves a row and
    stops at exactly these per-column floors.  Direct search uses one row
    and MIN_FRACTION; the BO acquisition one row per lockstep search and its
    own floor.
    """

    def __init__(self, scopes, count: int = 1, floor: float = MIN_FRACTION):
        self.integer = np.array([isinstance(s, IntegerScope) for s in scopes], dtype=bool)
        self.width = np.array([s.width for s in scopes], dtype=float)
        self.floor = np.where(self.integer, 1.0, floor)
        initial = np.where(self.integer, np.maximum(1, self.width // 4), INITIAL_FRACTION)
        self.scale = np.tile(initial, (count, 1))

    def steps(self, rows=0) -> np.ndarray:
        """Absolute step of each variable for the searches ``rows``."""
        scale = self.scale[rows]
        return np.where(self.integer, scale, scale * self.width)

    def refine(self, row: int = 0):
        scale = self.scale[row]
        self.scale[row] = np.maximum(
            self.floor, np.where(self.integer, scale // 2, scale * REFINE_FACTOR))

    def at_minimum(self, row: int = 0) -> bool:
        return bool((self.scale[row] <= self.floor).all())


def check_counts(config, counts, positive):
    """Raise ConfigurationError unless each option of ``config`` named in
    ``counts`` is an integer (a bool is not one), and each in ``positive`` is
    at least 1."""
    for name in counts:
        value = getattr(config, name)
        if not _is_int(value):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if name in positive and value < 1:
            raise ConfigurationError(f"{name} must be positive")


@dataclass
class SearchConfig:
    budget: int = 100
    subproblem_budget: int = 50
    max_iterations: int = 1000
    seed: int = 0
    opportunistic: bool = True
    global_search: str = "random"  # "random" | "none"

    def __post_init__(self):
        counts = ("budget", "subproblem_budget", "max_iterations")
        check_counts(self, counts, positive=counts)
        if not isinstance(self.opportunistic, bool):
            raise ConfigurationError("opportunistic must be true or false, "
                                     f"got {self.opportunistic!r}")
        if self.global_search not in ("random", "none"):
            raise ConfigurationError(f"unknown global search strategy {self.global_search!r}")


@dataclass
class SubproblemResult:
    point: Point
    record: EvaluationRecord | None
    barrier: float
    evaluations: int
    reason: str          # "min_mesh" | "subproblem_budget" | "global_budget" | "start_only"
    mesh: MeshState | None = None

    @property
    def truncated(self) -> bool:
        """The overall budget ran out mid-solve."""
        return self.reason == "global_budget"


@dataclass
class IterationStats:
    iteration: int
    evaluations_used: int
    incumbent: float     # barrier value of the incumbent
    improved: bool


@dataclass
class DirectSearchResult:
    best: EvaluationRecord
    history: list
    iterations: list
    stop_reason: str
    evaluator: Evaluator


def _evaluate_barrier(evaluator: Evaluator, point: Point):
    """Evaluate under the extreme barrier; failed runs yield +inf."""
    try:
        record = evaluator.evaluate(point)
    except EvaluationError:
        return evaluator.history[-1], math.inf
    return record, barrier_value(record)


def solve_standard_subproblem(evaluator: Evaluator, tm: MetaComponent, tq: dict,
                              start: dict, cfg: SearchConfig,
                              mesh: MeshState | None = None) -> SubproblemResult:
    """Coordinate pattern search over the acting standard variables.

    Meta and categorical components stay fixed.  Each sweep polls +/- one
    step along every coordinate, recentering on the first strict improvement;
    a fully failed poll refines the mesh.  Stops at the per-subproblem budget
    or once a poll fails with every step at its minimum.  Passing a mesh
    resumes refinement where a previous solve left off.
    """
    domain = evaluator.problem.domain
    ids = domain.acting_index_set(tm, "standard")
    scopes = [domain.spec(vid).scope for vid in ids]
    if mesh is None:
        mesh = MeshState(scopes)
    evaluations = 0

    start_point = Point(tm, tq, start)
    try:
        best_record, best_barrier = _evaluate_barrier(evaluator, start_point)
        evaluations += 1
    except BudgetExhaustedError:
        return SubproblemResult(start_point, None, math.inf, 0, "global_budget", mesh)
    best_point = start_point

    if not ids:
        return SubproblemResult(best_point, best_record, best_barrier, evaluations,
                                "start_only", mesh)
    while True:
        improved = False
        # Converted once per sweep: polls add Python floats, and scope.clamp
        # returns ints for integer variables.
        steps = mesh.steps().tolist()
        for vid, scope, step in zip(ids, scopes, steps):
            for sign in (1, -1):
                if evaluations >= cfg.subproblem_budget:
                    return SubproblemResult(best_point, best_record, best_barrier,
                                            evaluations, "subproblem_budget", mesh)
                value = scope.clamp(best_point.standard[vid] + sign * step)
                if value == best_point.standard[vid]:
                    continue
                candidate = Point(tm, tq, {**best_point.standard, vid: value})
                try:
                    record, barrier = _evaluate_barrier(evaluator, candidate)
                    evaluations += 1
                except BudgetExhaustedError:
                    return SubproblemResult(best_point, best_record, best_barrier,
                                            evaluations, "global_budget", mesh)
                if barrier < best_barrier:
                    best_point, best_record, best_barrier = candidate, record, barrier
                    improved = True
                    break
            if improved:
                break
        if improved:
            continue
        if mesh.at_minimum():
            return SubproblemResult(best_point, best_record, best_barrier,
                                    evaluations, "min_mesh", mesh)
        mesh.refine()


def global_search_step(domain: Domain, rng: np.random.Generator, metas=None):
    """Uniform seeded draw of a meta component and a categorical component."""
    if metas is None:
        try:
            metas = domain.enumerate_meta_set()
        except NotEnumerableError as exc:
            raise ConfigurationError(
                "the random global search needs an enumerable meta set") from exc
    tm = metas[int(rng.integers(len(metas)))]
    tq = {vid: int(rng.integers(1, domain.spec(vid).scope.size + 1))
          for vid in domain.acting_index_set(tm, "categorical")}
    return tm, tq


def run_direct_search(problem: Problem, cfg: SearchConfig, meta_mapping=None,
                      categorical_mapping=None, progress=False) -> DirectSearchResult:
    """Global search + poll on user-defined neighborhoods (strict decrease).

    The first incumbent is the completed point of the first enumerated meta
    component.  With the opportunistic flag the poll stops at the first
    improving neighbor; otherwise all neighbors are evaluated and the best
    improving one is accepted.  Stops on budget, iteration limit, or a fully
    failed poll with the incumbent's own subproblem at the minimum mesh.
    """
    domain = problem.domain
    if meta_mapping is None:
        meta_mapping = default_meta_mapping(domain)
    try:
        metas = domain.enumerate_meta_set()
    except NotEnumerableError as exc:
        raise ConfigurationError("direct search needs an enumerable meta set") from exc
    evaluator = Evaluator(problem, cfg.budget)
    rng = np.random.default_rng(cfg.seed)

    start = domain.complete_point(metas[0], {})
    record, barrier = _evaluate_barrier(evaluator, start)
    incumbent_point, incumbent_record, incumbent = start, record, barrier

    def solve(tm, tq, warm_standard):
        return solve_standard_subproblem(evaluator, tm, tq, warm_standard, cfg)

    def accept(result):
        nonlocal incumbent_point, incumbent_record, incumbent
        incumbent_point, incumbent_record, incumbent = (
            result.point, result.record, result.barrier)

    iterations = []
    stop_reason = "max_iterations"
    # The incumbent's own refinement resumes its mesh across iterations so a
    # small per-subproblem budget still reaches the minimum mesh eventually.
    refine_mesh: MeshState | None = None
    refine_key: Point | None = None
    for k in range(1, cfg.max_iterations + 1):
        if evaluator.budget.remaining <= 0:
            stop_reason = "budget"
            break
        improved = False
        truncated = False
        converged = False

        if cfg.global_search == "random":
            tm, tq = global_search_step(domain, rng, metas)
            warm = realize_neighbor(domain, incumbent_point, tm, tq)
            result = solve(tm, tq, warm.standard)
            truncated |= result.truncated
            if result.barrier < incumbent:
                accept(result)
                improved = True

        if not improved and not truncated:
            polled = []
            for tm in meta_neighbors(domain, meta_mapping, incumbent_point):
                tqs = categorical_neighbors(domain, categorical_mapping,
                                            incumbent_point, tm)
                if not tqs:
                    # No categorical neighbors under tm: poll the carried
                    # categorical component so pure meta moves are still tried.
                    tqs = [carried_categorical(domain, incumbent_point, tm)]
                for tq in tqs:
                    warm = realize_neighbor(domain, incumbent_point, tm, tq)
                    result = solve(tm, tq, warm.standard)
                    truncated |= result.truncated
                    if cfg.opportunistic:
                        if result.barrier < incumbent:
                            accept(result)
                            improved = True
                            break
                    else:
                        polled.append(result)
                    if truncated:
                        break
                if improved or truncated:
                    break
            if not cfg.opportunistic and polled:
                best = min(polled, key=lambda r: r.barrier)
                if best.barrier < incumbent:
                    accept(best)
                    improved = True

        if not improved and not truncated:
            # Refine the incumbent's own subproblem; a failed poll with the
            # incumbent already at the minimum mesh means convergence.
            if refine_key != incumbent_point:
                refine_mesh, refine_key = None, incumbent_point
            result = solve_standard_subproblem(
                evaluator, incumbent_point.meta, incumbent_point.categorical,
                incumbent_point.standard, cfg, mesh=refine_mesh)
            truncated |= result.truncated
            if result.barrier < incumbent:
                accept(result)
                improved = True
                refine_mesh, refine_key = result.mesh, incumbent_point
            else:
                refine_mesh = result.mesh
                if result.reason in ("min_mesh", "start_only"):
                    converged = True

        iterations.append(IterationStats(k, evaluator.budget.used, incumbent, improved))
        if progress:
            print(f"iteration {k} evaluations {evaluator.budget.used} "
                  f"incumbent {incumbent:.6g}", file=sys.stderr)
        if truncated:
            stop_reason = "budget"
            break
        if converged:
            stop_reason = "converged"
            break

    return DirectSearchResult(best=incumbent_record, history=evaluator.history,
                              iterations=iterations, stop_reason=stop_reason,
                              evaluator=evaluator)
