"""Direct search over meta/categorical neighborhoods with standard subproblems.

The outer loop alternates an optional global search (uniform seeded draws of
meta and categorical components) with a poll over the user-defined
neighborhoods.  Every candidate pair of fixed components is resolved by a
coordinate pattern search over the acting standard variables under the
extreme barrier: infeasible or failed points count as +inf.  Acceptance is
strict decrease only.  A point that breaks an acting analytic constraint
is screened: it scores +inf, as an evaluated infeasible point would, but is
never requested from the evaluator, so never run, charged, recorded or
cached.  A start point is screened once it is known to be a domain member,
a poll move from the constraint plan of its meta component before its point
is built (:meth:`ConstraintSystem.move_breaks`); both count in
``Evaluator.screened`` and in the subproblem's evaluations.  A screened
move stays among the candidates as a ``None`` placeholder, which the
evaluator passes through unevaluated, and counts only once the search
reaches its place.  The step sizes are a :class:`MeshState`, the same mesh
the BO acquisition's pattern searches refine.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .blackbox import EvaluationRecord, Evaluator, Problem, barrier_value
from .domain import Domain, IntegerScope, MetaComponent, Point, check_counts
from .errors import (BudgetExhaustedError, ConfigurationError, EvaluationError,
                     NotEnumerableError)
from .neighborhoods import (carried_categorical, categorical_neighbors,
                            default_meta_mapping, meta_neighbors, realize_neighbor)

INITIAL_FRACTION = 0.25
REFINE_FACTOR = 0.5
MIN_FRACTION = 1e-6


class MeshState:
    """Step sizes of coordinate pattern searches, one per entry of ``rows``:
    row r of every array belongs to search r, its columns in the order of
    the scopes ``rows[r]``.

    Continuous entries are fractions of the scope width, from
    INITIAL_FRACTION down to ``floor``; integer entries are absolute steps,
    from a quarter of the width down to 1.  A refinement halves a row and
    stops at exactly these per-column floors.  A row shorter than the
    longest is padded with still columns: zero width, step and floor, so
    a still column never polls and is always at its floor.  Direct search
    uses one row and MIN_FRACTION.  The BO acquisition passes each meta
    component's scopes once per search, so that every search of every meta
    component runs in one lockstep search.
    """

    def __init__(self, rows, floor: float = MIN_FRACTION):
        columns = max(map(len, rows), default=0)
        # (integer, width, floor, scale) of every column; a still column is all 0.
        cells = np.array([[(1, s.width, 1, max(1, s.width // 4)) if isinstance(s, IntegerScope)
                           else (0, s.width, floor, INITIAL_FRACTION) for s in scopes]
                          + [(0, 0, 0, 0)] * (columns - len(scopes)) for scopes in rows],
                         dtype=float).reshape(len(rows), columns, 4).transpose(2, 0, 1).copy()
        integer, self.width, self.floor, self.scale = cells
        self.integer = integer == 1

    def steps(self, rows=0) -> np.ndarray:
        """Absolute step of each variable for the searches ``rows``."""
        scale = self.scale[rows]
        return np.where(self.integer[rows], scale, scale * self.width[rows])

    def refine(self, rows=0):
        """Refine the searches ``rows``: one row index or an array of them."""
        scale = self.scale[rows]
        self.scale[rows] = np.maximum(
            self.floor[rows], np.where(self.integer[rows], scale // 2, scale * REFINE_FACTOR))

    def at_minimum(self, rows=0):
        """Whether a search is at its floors: a bool for one row index, a
        bool array for an array of them."""
        minimal = (self.scale[rows] <= self.floor[rows]).all(axis=-1)
        return minimal if np.ndim(rows) else bool(minimal)


@dataclass
class SearchConfig:
    budget: int = 100
    subproblem_budget: int = 50
    max_iterations: int = 1000
    seed: int = 0
    opportunistic: bool = True
    global_search: str = "random"  # "random" | "none"

    def __post_init__(self):
        positive = ("budget", "subproblem_budget", "max_iterations")
        check_counts({name: getattr(self, name) for name in (*positive, "seed")}, positive)
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
    best: EvaluationRecord | None  # None when the history is empty
    history: list
    iterations: list
    stop_reason: str
    evaluator: Evaluator


def _evaluate_barrier(evaluator: Evaluator, point: Point):
    """(record, barrier value) of ``point``; failed runs yield +inf.  A
    member that breaks an acting analytic constraint is screened, even once
    the budget is spent: ``(None, inf)``, counted in ``evaluator.screened``.
    Any other point, a non-member too, goes to ``evaluator.evaluate``."""
    problem = evaluator.problem
    if (not problem.domain.membership_issues(point)
            and not problem.constraints.screen(point)[1]):
        evaluator.screened += 1
        return None, math.inf
    try:
        record = evaluator.evaluate(point)
    except EvaluationError as exc:
        return exc.record, math.inf
    return record, barrier_value(record)


def solve_standard_subproblem(evaluator: Evaluator, tm: MetaComponent, tq: dict,
                              start: dict, cfg: SearchConfig,
                              mesh: MeshState | None = None) -> SubproblemResult:
    """Coordinate pattern search over the acting standard variables.

    Meta and categorical components stay fixed.  Each sweep polls +/- one
    step along every coordinate, recentering on the first strict improvement;
    a fully failed poll refines the mesh.  Stops at the per-subproblem budget
    or once a poll fails with every step at its minimum.  Passing a mesh
    resumes refinement where a previous solve left off.  The start point and
    every poll move are always screened, as the module docstring says.
    """
    domain = evaluator.problem.domain
    ids = domain.acting_index_set(tm, "standard")
    scopes = [domain.spec(vid).scope for vid in ids]
    if mesh is None:
        mesh = MeshState([scopes])
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

    breaks = evaluator.problem.constraints.move_breaks

    def sweep(center: Point, steps, room: int):
        """The poll candidates around ``center``: +/- one step along each
        coordinate in order, skipping steps the scope clamps away.  Takes at
        most ``room`` of them, and sets ``cut`` if the room ran out before
        the last step.  Yields the moved point of each candidate that
        ``breaks`` passes and ``None`` in place of each one it screens."""
        nonlocal cut
        for vid, scope, step in zip(ids, scopes, steps):
            for sign in (1, -1):
                if room <= 0:
                    cut = True
                    return
                value = scope.clamp(center.standard[vid] + sign * step)
                if value != center.standard[vid]:
                    room -= 1
                    yield None if breaks(center, vid, value) else center.moved(vid, value)

    while True:
        improved = False
        cut = False
        # Converted once per sweep: polls add Python floats, and scope.clamp
        # returns ints for integer variables.  The candidates are fixed until
        # the first improvement, so command children may run ahead.  A
        # screened candidate is settled when the loop reaches its place: one
        # the generator pulled past an improving record never counts.
        candidates = sweep(best_point, mesh.steps().tolist(),
                           cfg.subproblem_budget - evaluations)
        try:
            with evaluator.lookahead(candidates) as records:
                for record in records:
                    evaluations += 1
                    if record is None:
                        evaluator.screened += 1
                        continue
                    barrier = barrier_value(record)
                    if barrier < best_barrier:
                        best_point, best_record, best_barrier = record.point, record, barrier
                        improved = True
                        break
        except BudgetExhaustedError:
            return SubproblemResult(best_point, best_record, best_barrier,
                                    evaluations, "global_budget", mesh)
        if improved:
            continue
        if cut:
            return SubproblemResult(best_point, best_record, best_barrier,
                                    evaluations, "subproblem_budget", mesh)
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


def _poll_pairs(domain: Domain, meta_mapping, categorical_mapping, point: Point):
    """(tm, tq) of every poll neighbor of ``point``, in neighborhood order.
    A tm without categorical neighbors polls the carried categorical
    component, so pure meta moves are still tried."""
    for tm in meta_neighbors(domain, meta_mapping, point):
        tqs = categorical_neighbors(domain, categorical_mapping, point, tm)
        for tq in tqs or [carried_categorical(domain, point, tm)]:
            yield tm, tq


def run_direct_search(problem: Problem, cfg: SearchConfig, meta_mapping=None,
                      categorical_mapping=None, progress=False) -> DirectSearchResult:
    """Global search + poll on user-defined neighborhoods (strict decrease).

    The first incumbent is the completed point of the first enumerated meta
    component.  With the opportunistic flag the poll stops at the first
    improving neighbor; otherwise all neighbors are evaluated and the best
    improving one is accepted.  Stops on budget, iteration limit, or a fully
    failed poll with the incumbent's own subproblem at the minimum mesh.
    Stop reasons: "budget", "max_iterations" or "converged".  ``best`` is
    always a history record, or None when the history is empty.
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
    incumbent = SubproblemResult(start, *_evaluate_barrier(evaluator, start), 1, "start_only")

    def solve(tm, tq):
        """Solve (tm, tq) warm-started from the incumbent's realized neighbor."""
        warm = realize_neighbor(domain, incumbent.point, tm, tq)
        return solve_standard_subproblem(evaluator, tm, tq, warm.standard, cfg)

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
            result = solve(*global_search_step(domain, rng, metas))
            truncated |= result.truncated
            if result.barrier < incumbent.barrier:
                incumbent, improved = result, True

        if not improved and not truncated:
            # The opportunistic poll stops at its first improvement, which is
            # then the minimum of what it polled.
            polled = []
            for tm, tq in _poll_pairs(domain, meta_mapping, categorical_mapping,
                                      incumbent.point):
                result = solve(tm, tq)
                polled.append(result)
                truncated |= result.truncated
                if truncated or cfg.opportunistic and result.barrier < incumbent.barrier:
                    break
            best = min(polled, key=lambda r: r.barrier, default=incumbent)
            if best.barrier < incumbent.barrier:
                incumbent, improved = best, True

        if not improved and not truncated:
            # Refine the incumbent's own subproblem; a failed poll with the
            # incumbent already at the minimum mesh means convergence.
            if refine_key != incumbent.point:
                refine_mesh = None
            result = solve_standard_subproblem(
                evaluator, incumbent.point.meta, incumbent.point.categorical,
                incumbent.point.standard, cfg, mesh=refine_mesh)
            truncated |= result.truncated
            if result.barrier < incumbent.barrier:
                incumbent, improved = result, True
            elif result.reason in ("min_mesh", "start_only"):
                converged = True
            refine_mesh, refine_key = result.mesh, incumbent.point

        iterations.append(IterationStats(k, evaluator.budget.used, incumbent.barrier, improved))
        if progress:
            print(f"iteration {k} evaluations {evaluator.budget.used} "
                  f"incumbent {incumbent.barrier:.6g}", file=sys.stderr)
        if truncated:
            stop_reason = "budget"
            break
        if converged:
            stop_reason = "converged"
            break

    # A screened start (no record) is still the incumbent only when no record
    # scored below +inf: report the first lowest-barrier record instead.
    best = incumbent.record or min(evaluator.history, key=barrier_value, default=None)
    return DirectSearchResult(best=best, history=evaluator.history,
                              iterations=iterations, stop_reason=stop_reason,
                              evaluator=evaluator)
