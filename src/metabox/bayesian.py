"""Bayesian optimization: expected improvement over the mixed GP surrogate.

Each iteration maximizes expected improvement over the auxiliary domain,
subject to surrogate constraint means being nonpositive, then evaluates the
chosen point on the true problem.  Previously evaluated or failed points are
excluded, so on fully finite domains the loop sweeps the whole space.

The acquisition search works on arrays of candidate rows.  Every run of
rows under one meta component is predicted by one
:class:`~metabox.gp.CrossFactors` of that component.  A fully finite
domain is scored in one batch per meta component.
Otherwise every categorical component (enumerated, or sampled past a cap) is
paired with several starts, and each pair runs a coordinate pattern search
on the standard variables, with the step rule of direct search: each
search's steps are one row of one :class:`MeshState`, built from each
search's acting scopes and refined down to a coarser floor.  The starts of
a meta component are its default start, built once per run, then random
ones, drawn for the whole meta component in one call; every meta component
draws, in meta order, before any search runs.  Then all searches of every
meta component run in one lockstep search, their rows padded to the widest
acting sets (a pad column has zero-width bounds and is a still column of
the mesh, so it never polls).  Each step scores the poll points of
every active search in one batch, predicted per meta component on that
component's run of rows, then settles every search with array operations:
each search takes the first best poll of its own (np.argmax's rule), and
moves, shrinks or stops on its own.  GP predictions do not depend on the
batch, so every search takes the same path it would take alone, and its
k-th step is the lockstep search's k-th step.  The constraint surrogates
are row views of the objective model, so one prediction per run of rows
serves the objective and every constraint acting there.

A row's prediction needs only the samples under its meta component xm.
The kernel correlates a row with every other training sample through the
meta factors alone, so that part of its cross-covariance is one column
shared by all rows.  ``CrossFactors`` (one per meta component and
acquisition) folds that column into constants once: a share of each mean,
and, from the model's Gram matrix factorized with the samples under xm
last, a variance offset and a shift.  A run of rows under xm then costs
a triangular solve of the size of the samples under xm, never one of the
whole training set.  The searches keep the kernel factors of their centers
against the samples under xm.  A poll row differs from its center in one
standard column, so it copies the center's factors, recomputes that
column's factor, and multiplies the factors in the kernel's own order: its
cross-covariance with those samples is bit-identical to
:meth:`~metabox.gp.GPModel.cross_covariance` of the row there.  A poll
row's factors live only for its prediction; a search that moves recomputes
the winning column's factor into its center's factors.

The pick is the highest-EI new candidate (surrogate-feasible ones first),
with ties broken by the order of a sequential search.  Newness is checked
only there: the pick walks the rows from the best down and takes the first
one missing from its meta component's set of evaluated rows.  Only the
winner becomes a Point.
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from .blackbox import EvaluationRecord, Evaluator, Problem, barrier_value
from .direct_search import MeshState
from .domain import (Domain, IntegerScope, MetaComponent, Point, check_counts, denormalize,
                     enumerate_domain_points)
from .errors import (BudgetExhaustedError, ConfigurationError, EvaluationError,
                     FactorizationError, FittingError, NotEnumerableError)
from .gp import (CrossFactors, GPModel, KernelConfig, TrainingSet, default_kernel_config,
                 fit_hyperparameters, round_half_away_array)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: The acquisition's pattern searches stop halving a continuous step at this
#: fraction of its scope width, a floor they reach only at a large acq_budget.
ACQ_MIN_FRACTION = 0.02


def expected_improvement(mean, sigma, f_star):
    """(f* - mean) Phi(z) + sigma phi(z) with z = (f* - mean) / sigma.

    At sigma = 0 this is the pointwise limit max(f* - mean, 0).  Accepts
    scalars or arrays.
    """
    mean_arr = np.asarray(mean, dtype=float)
    sigma_arr = np.asarray(sigma, dtype=float)
    improvement = f_star - mean_arr
    positive = sigma_arr > 0
    safe_sigma = np.where(positive, sigma_arr, 1.0)
    z = improvement / safe_sigma
    smooth = improvement * ndtr(z) + sigma_arr * np.exp(-0.5 * z * z) / _SQRT_2PI
    out = np.where(positive, smooth, np.maximum(improvement, 0.0))
    if np.ndim(mean) == 0 and np.ndim(sigma) == 0:
        return float(out)
    return out


@dataclass
class BOConfig:
    budget: int = 100
    seed: int = 0
    max_iterations: int = 100000
    acq_starts: int = 5
    acq_budget: int = 48               # acquisition evaluations per inner search
    categorical_cap: int = 256         # full enumeration of X^q(xm) up to this size
    enumeration_cap: int = 4096        # finite-domain full enumeration path
    refit_full_until: int = 50         # refit every iteration up to this many samples
    refit_every: int = 5               # afterwards refit every this many new samples
    fit_sweeps: int = 8
    kernel: dict | None = None         # serialized KernelConfig overriding the defaults

    def __post_init__(self):
        positive = ("budget", "max_iterations", "acq_starts", "acq_budget", "categorical_cap")
        check_counts({name: getattr(self, name) for name in (
            *positive, "seed", "enumeration_cap", "refit_full_until", "refit_every",
            "fit_sweeps")}, positive)

    def kernel_setup(self, domain: Domain) -> KernelConfig:
        """The base kernel config: the defaults, with ``kernel``'s overrides."""
        return default_kernel_config(domain, overrides=self.kernel)


@dataclass
class AuxiliaryCandidate:
    """Maximizer of the acquisition over the auxiliary domain."""

    meta: MetaComponent
    categorical: dict
    standard: dict
    acquisition: float
    surrogate_feasible: bool

    def point(self) -> Point:
        return Point(self.meta, self.categorical, self.standard)


@dataclass
class AcquisitionLogRow:
    iteration: int
    meta: MetaComponent
    acquisition: float
    surrogate_feasible: bool


@dataclass
class BOResult:
    best: EvaluationRecord | None
    history: list
    acquisition_log: list
    evaluator: Evaluator
    stop_reason: str


# ---------------------------------------------------------------------------
# Acquisition maximization
# ---------------------------------------------------------------------------

class _Batch(NamedTuple):
    """Candidates scored together.  Row j is under the meta component of
    index ``order[j, 0]``; its acting columns come first, then padding."""

    categorical: np.ndarray     # (n, q) category indices, acting-set order
    standard: np.ndarray        # (n, d) raw standard values, acting-set order
    ei: np.ndarray
    feasible: np.ndarray        # every surrogate constraint mean <= 0 (0 without a view)
    order: np.ndarray           # (n, 4) sequential-order keys


class _Candidates:
    """Every candidate scored during one acquisition search, and the pick.

    Each row carries the key (meta, search, step, position) of its place in
    a sequential search over metas, then categorical components and starts,
    then steps and poll positions.  The pick breaks ties by that key, so it
    does not depend on how rows were batched.
    """

    def __init__(self, model: GPModel, system, constraint_views, evaluated, f_star):
        self.model = model
        self.system = system
        self.constraint_views = constraint_views
        self.f_star = f_star
        self.metas = model.domain.enumerate_meta_set()
        self._evaluated = {}
        for point in evaluated:
            self._evaluated.setdefault(point.meta, []).append(point)
        self._rows_done = {}        # meta index -> (q, d, evaluated rows), at first lookup
        self._batches: list[_Batch] = []

    def _is_new(self, batch: _Batch, row: int) -> bool:
        """Whether a row is missing from the evaluated rows under its meta
        component: tuples of categorical indices then standard values, whose
        equality is Point equality (``0.0`` matches ``-0.0``)."""
        meta = int(batch.order[row, 0])
        if meta not in self._rows_done:
            domain, xm = self.model.domain, self.metas[meta]
            cat_ids = domain.acting_index_set(xm, "categorical")
            std_ids = domain.acting_index_set(xm, "standard")
            self._rows_done[meta] = (len(cat_ids), len(std_ids), {
                (*(p.categorical[v] for v in cat_ids), *(p.standard[v] for v in std_ids))
                for p in self._evaluated.get(xm, ())})
        q, d, done = self._rows_done[meta]
        return (*batch.categorical[row, :q].tolist(),
                *batch.standard[row, :d].tolist()) not in done

    def cross_factors(self, xm: MetaComponent, categorical: np.ndarray,
                      standard: np.ndarray) -> CrossFactors:
        """The :class:`CrossFactors` of rows under xm, predicting the objective
        and the views of the constraints acting under xm."""
        views = [self.constraint_views[c.id] for c in self.system.acting_constraints(xm)
                 if c.id in self.constraint_views]
        return CrossFactors(self.model, xm, categorical, standard, views)

    def score(self, meta, categorical: np.ndarray, standard: np.ndarray, search, step,
              position, predicted) -> np.ndarray:
        """Expected improvement of each row; the rows are kept for the pick.

        ``meta``, ``search``, ``step`` and ``position`` give each row's order
        key (arrays or scalars); ``meta`` indexes :attr:`metas`.
        ``predicted`` covers the rows in order with one
        :meth:`CrossFactors.predict` result per run of rows under one meta
        component, from that component's :meth:`cross_factors`: the means,
        variances and view means of the objective and of every constraint
        view acting there.
        """
        mean, variance = (np.concatenate([p[k] for p in predicted]) for k in (0, 1))
        feasible = np.concatenate([np.all(p[2] <= 0.0, axis=0) for p in predicted])
        ei = expected_improvement(mean, np.sqrt(variance), self.f_star)
        order = np.empty((len(ei), 4), dtype=int)
        order[:, 0], order[:, 1], order[:, 2], order[:, 3] = meta, search, step, position
        self._batches.append(_Batch(categorical, standard, ei, feasible, order))
        return ei

    def pick(self) -> AuxiliaryCandidate | None:
        """Highest-EI new candidate among the surrogate-feasible ones, else
        among all; ties go to the earliest in sequential order.  None when no
        new candidate was scored."""
        if not self._batches:
            return None
        ei, feasible, order = (np.concatenate([getattr(b, name) for b in self._batches])
                               for name in ("ei", "feasible", "order"))
        which = np.concatenate([np.full(len(b.ei), i) for i, b in enumerate(self._batches)])
        row = np.concatenate([np.arange(len(b.ei)) for b in self._batches])
        offered = np.flatnonzero(ei > -math.inf)  # NaN never wins
        # Best first: surrogate-feasible, then highest EI, then sequential order.
        ranked = offered[np.lexsort((*order[offered].T[::-1], -ei[offered],
                                     ~feasible[offered]))]
        for i in ranked:
            batch = self._batches[which[i]]
            if self._is_new(batch, row[i]):
                return self._candidate(batch, row[i])
        return None

    def _candidate(self, batch: _Batch, row: int) -> AuxiliaryCandidate:
        """Build the point-level candidate (the only Point built) for one row."""
        domain, xm = self.model.domain, self.metas[batch.order[row, 0]]
        xq = {vid: int(v) for vid, v in
              zip(domain.acting_index_set(xm, "categorical"), batch.categorical[row])}
        xs = {vid: (int(v) if isinstance(domain.spec(vid).scope, IntegerScope) else float(v))
              for vid, v in zip(domain.acting_index_set(xm, "standard"), batch.standard[row])}
        return AuxiliaryCandidate(
            meta=xm, categorical=xq, standard=xs,
            acquisition=float(batch.ei[row]),
            surrogate_feasible=bool(batch.feasible[row]))


def _enumerate_categorical(domain: Domain, xm, cap: int, rng) -> np.ndarray:
    """All categorical components under xm as (count, q) index rows, or
    uniform samples past the cap."""
    ids = domain.acting_index_set(xm, "categorical")
    sizes = [domain.spec(v).scope.size for v in ids]
    if math.prod(sizes) <= cap:
        rows = list(itertools.product(*(range(1, s + 1) for s in sizes)))
    else:
        rows = [[int(rng.integers(1, size + 1)) for size in sizes] for _ in range(cap)]
    return np.array(rows, dtype=int).reshape(len(rows), len(ids))


def _pattern_search(candidates: _Candidates, components, cfg: BOConfig):
    """Coordinate pattern searches maximizing EI over the standard variables,
    every search of every meta component in one lockstep search.

    ``components`` holds (meta index, combos, centers) per meta component,
    in meta order: that component's search s polls from centers[s] with the
    categorical component combos[s].  The searches are stacked in that
    order, their rows padded to the widest acting sets.  A pad column has
    zero-width bounds and is a still column of the :class:`MeshState`, so
    it never polls and never keeps a search off its floors.

    Each search keeps its own center, step sizes and evaluation count; one
    step scores the poll points of every active search as one batch, and
    settles every search with array operations.  Only the predictions run
    per meta component, each from that component's :class:`CrossFactors`
    (see the module docstring) on its run of the batch's rows.  Each search
    moves exactly as it would alone, because predictions do not depend on
    the batch, and its k-th step is the batch's k-th step.
    """
    domain = candidates.model.domain
    metas = [candidates.metas[m] for m, _, _ in components]
    scopes = [[domain.spec(v).scope for v in domain.acting_index_set(xm, "standard")]
              for xm in metas]
    counts = [len(combos) for _, combos, _ in components]
    first = np.cumsum([0, *counts])  # component k's searches are first[k]:first[k + 1]
    total, columns = first[-1], max(map(len, scopes))
    combos = np.zeros((total, max(c.shape[1] for _, c, _ in components)), dtype=int)
    center = np.zeros((total, columns))
    lo, hi = np.zeros((2, total, columns))
    for (_, cats, centers), scope, a, b in zip(components, scopes, first, first[1:]):
        bounds = np.array([s.clamp_bounds for s in scope], dtype=float).reshape(-1, 2)
        combos[a:b, :cats.shape[1]], center[a:b, :len(scope)] = cats, centers
        lo[a:b, :len(scope)], hi[a:b, :len(scope)] = bounds[:, 0], bounds[:, 1]
    mesh = MeshState([scope for scope, count in zip(scopes, counts) for _ in range(count)],
                     ACQ_MIN_FRACTION)
    crosses = [candidates.cross_factors(xm, cats, centers)
               for xm, (_, cats, centers) in zip(metas, components)]
    meta = np.repeat([m for m, _, _ in components], counts)
    local = np.arange(total) - np.repeat(first[:-1], counts)  # index in its component
    # score() keeps the arrays it is given and returns, so the search state
    # lives in copies.
    center_ei = candidates.score(meta, combos, center.copy(), local, 0, 0,
                                 [cross.predict(cross.factors) for cross in crosses]).copy()
    used = np.ones(total, dtype=int)
    active = used < cfg.acq_budget
    step = 0
    while active.any():
        step += 1
        owners = np.flatnonzero(active)
        delta = mesh.steps(owners)
        base = center[owners]
        polls = np.clip(np.stack([base + delta, base - delta], axis=2),
                        lo[owners, :, None], hi[owners, :, None])
        owner, column, sign = np.nonzero(polls != base[:, :, None])  # search, column, +/-
        if not len(owner):
            break
        rows, searches, values = base[owner], owners[owner], polls[owner, column, sign]
        rows[np.arange(len(owner)), column] = values
        # Component k's polls are the run cut[k]:cut[k + 1] of the rows.
        cut, within = np.searchsorted(searches, first), local[searches]
        predicted = []
        for k in np.flatnonzero(cut[1:] > cut[:-1]):
            run = slice(cut[k], cut[k + 1])
            predicted.append(crosses[k].predict(
                crosses[k].polled(within[run], column[run], values[run])))
        ei = candidates.score(meta[searches], combos[searches], rows, within, step,
                              2 * column + sign, predicted)
        # Each owner's polls are one segment of ei; an owner without any stops.
        polled = np.bincount(owner, minlength=len(owners))
        active[owners[polled == 0]] = False
        s, polled = owners[polled > 0], polled[polled > 0]
        start = np.cumsum(polled) - polled
        used[s] += polled
        # The first maximum of each segment, as np.argmax finds it: a NaN
        # comes first.
        top = np.repeat(np.maximum.reduceat(ei, start), polled)
        hits = np.flatnonzero((ei == top) | np.isnan(ei))
        best = hits[np.searchsorted(hits, start)]
        moved = ei[best] > center_ei[s]
        movers, wins = s[moved], best[moved]
        center[movers], center_ei[movers] = rows[wins], ei[wins]
        # Component k's movers are the run split[k]:split[k + 1].
        split = np.searchsorted(movers, first)
        for k in np.flatnonzero(split[1:] > split[:-1]):
            run = wins[split[k]:split[k + 1]]
            crosses[k].move(local[movers[split[k]:split[k + 1]]], column[run], values[run])
        stay = s[~moved]
        stopped = mesh.at_minimum(stay)
        mesh.refine(stay[~stopped])
        active[s] = used[s] < cfg.acq_budget
        active[stay[stopped]] = False


def _denormalized(scopes, unit: np.ndarray) -> np.ndarray:
    """:func:`~metabox.domain.denormalize` of each column of ``unit`` by its
    scope in ``scopes``, elementwise."""
    lo, width = (np.array([getattr(s, name) for s in scopes], dtype=float)
                 for name in ("lo", "width"))
    low, high = np.array([s.clamp_bounds for s in scopes], dtype=float).reshape(-1, 2).T
    integer = np.array([isinstance(s, IntegerScope) for s in scopes], dtype=bool)
    raw = lo + unit * width
    return np.clip(np.where(integer, round_half_away_array(raw), raw), low, high)


def acquisition_starts(domain: Domain, cap: int) -> dict:
    """What every acquisition over ``domain`` searches, per meta component.

    On a finite domain of at most ``cap`` points, every point as
    (categorical, standard) arrays, columns in acting-set order and rows in
    enumeration order.  Otherwise (None, the default start): the standard
    row of ``domain.complete_point(xm, {})``, the first start of every
    pattern search under xm.
    """
    try:
        points = enumerate_domain_points(domain, cap)
    except NotEnumerableError:
        points = None
    out = {}
    for xm in domain.enumerate_meta_set():
        std_ids = domain.acting_index_set(xm, "standard")
        if points is None:
            default = domain.complete_point(xm, {}).standard
            out[xm] = (None, np.array([default[v] for v in std_ids], dtype=float))
            continue
        cat_ids = domain.acting_index_set(xm, "categorical")
        under = [p for p in points if p.meta == xm]
        out[xm] = (np.array([[p.categorical[v] for v in cat_ids] for p in under],
                            dtype=int).reshape(len(under), len(cat_ids)),
                   np.array([[p.standard[v] for v in std_ids] for p in under],
                            dtype=float).reshape(len(under), len(std_ids)))
        for array in out[xm]:
            array.flags.writeable = False  # shared by every search of the run
    return out


def maximize_acquisition(model: GPModel, system, constraint_views, evaluated, f_star,
                         cfg: BOConfig, rng, starts: dict | None = None
                         ) -> AuxiliaryCandidate | None:
    """Best expected-improvement candidate over the auxiliary domain.

    ``constraint_views`` maps constraint ids to row views of ``model``
    (:meth:`GPModel.row_view`); a constraint without one has mean 0.
    Candidates whose surrogate constraint means exceed zero are rejected;
    when no surrogate-feasible candidate exists anywhere the global EI
    maximizer is returned flagged infeasible.  Points in ``evaluated`` (the
    points already evaluated or failed) are excluded; None signals an
    exhausted finite domain.  ``starts`` is :func:`acquisition_starts` of
    the domain at ``cfg.enumeration_cap``, which a caller searching one
    domain many times builds once; it is built here when not given.

    A meta component whose entry holds its finite points is scored in one
    batch.  Otherwise each of its categorical components gets
    ``cfg.acq_starts`` pattern searches: the default start, then random
    ones, drawn for the whole meta component at once.  Every meta
    component's draws come first, in meta order, then one lockstep
    :func:`_pattern_search` runs all of their searches.
    """
    domain = model.domain
    try:
        candidates = _Candidates(model, system, constraint_views, evaluated, f_star)
    except NotEnumerableError as exc:
        raise ConfigurationError("acquisition needs an enumerable meta set") from exc
    if starts is None:
        starts = acquisition_starts(domain, cfg.enumeration_cap)
    components = []
    for meta_index, xm in enumerate(candidates.metas):
        categorical, standard = starts[xm]
        if categorical is not None:
            cross = candidates.cross_factors(xm, categorical, standard)
            candidates.score(meta_index, categorical, standard, 0, 0,
                             np.arange(len(categorical)), [cross.predict(cross.factors)])
            continue
        scopes = [domain.spec(v).scope for v in domain.acting_index_set(xm, "standard")]
        combos = _enumerate_categorical(domain, xm, cfg.categorical_cap, rng)
        centers = np.empty((len(combos), cfg.acq_starts, len(scopes)))
        centers[:, 0] = standard
        centers[:, 1:] = _denormalized(
            scopes, rng.random((len(combos), cfg.acq_starts - 1, len(scopes))))
        components.append((meta_index, np.repeat(combos, cfg.acq_starts, axis=0),
                           centers.reshape(len(combos) * cfg.acq_starts, len(scopes))))
    if components:
        _pattern_search(candidates, components, cfg)
    return candidates.pick()


# ---------------------------------------------------------------------------
# Initial design and the outer loop
# ---------------------------------------------------------------------------

def latin_hypercube(rng, samples: int, dims: int) -> np.ndarray:
    """Jittered Latin hypercube in [0, 1)^dims."""
    out = np.empty((samples, dims))
    for j in range(dims):
        out[:, j] = (rng.permutation(samples) + rng.random(samples)) / samples
    return out


def initial_design(domain: Domain, rng, metas) -> list:
    """Stratified design: per meta component, d + 1 points (d acting non-meta
    variables) by Latin hypercube on the standard part and uniform categorical draws."""
    points = []
    for xm in metas:
        cat_ids = domain.acting_index_set(xm, "categorical")
        std_ids = domain.acting_index_set(xm, "standard")
        count = len(cat_ids) + len(std_ids) + 1
        cube = latin_hypercube(rng, count, len(std_ids))
        for i in range(count):
            categorical = {vid: int(rng.integers(1, domain.spec(vid).scope.size + 1))
                           for vid in cat_ids}
            standard = {vid: denormalize(domain.spec(vid).scope, float(cube[i, j]))
                        for j, vid in enumerate(std_ids)}
            points.append(Point(xm, categorical, standard))
    return points


def run_bo(problem: Problem, cfg: BOConfig, progress: bool = False) -> BOResult:
    """Initial design, then fit-maximize-evaluate until the budget is spent.

    Constraint surrogates are GP means fit on all acting observations of each
    constraint, sharing the objective kernel's correlation hyperparameters
    (the mean prediction is scale-invariant).  Every observation of a
    constraint is also an objective training point, so each surrogate is a
    row view of the objective model (:meth:`GPModel.row_view`): its training
    set is a list of the model's rows, and the acquisition computes one
    cross-covariance per batch for the objective and every constraint.
    Each iteration trains on the evaluator's history: its records that are
    neither cached nor failed, kept in one :class:`~metabox.gp.TrainingSet`
    that each new record is appended to.  Failed points are excluded from the
    acquisition, like evaluated ones, so they are never proposed again.  A
    config reused from an earlier fit that no longer factorizes on the
    current samples is refitted at once; when the refitted config does not
    factorize either, the run ends with stop reason "factorization"; the
    others are "budget", "max_iterations", "no_data" (under two records to
    train on) and "exhausted" (no candidate left).
    """
    domain = problem.domain
    system = problem.constraints
    try:
        metas = domain.enumerate_meta_set()
    except NotEnumerableError as exc:
        raise ConfigurationError("Bayesian optimization needs an enumerable meta set") from exc
    evaluator = Evaluator(problem, cfg.budget)
    rng = np.random.default_rng(cfg.seed)
    base_config = cfg.kernel_setup(domain)

    stop_reason = "budget"
    try:
        with evaluator.lookahead(initial_design(domain, rng, metas)) as records:
            for _ in records:
                pass
    except BudgetExhaustedError:
        pass

    acquisition_log = []
    starts = acquisition_starts(domain, cfg.enumeration_cap)
    config: KernelConfig | None = None
    samples_at_refit = -1
    training = TrainingSet(domain)
    iteration = 0
    while evaluator.budget.remaining > 0 and iteration < cfg.max_iterations:
        iteration += 1
        fresh = [r for r in evaluator.history if not r.cached]
        train = [r for r in fresh if r.error is None]
        if len(train) < 2:
            stop_reason = "no_data"
            break
        training.extend(r.point for r in train[len(training):])
        train_values = [r.objective for r in train]
        model = None
        if (config is not None and len(train) > cfg.refit_full_until
                and len(train) - samples_at_refit < cfg.refit_every):
            try:
                model = GPModel(domain, training, train_values, config)
            except FactorizationError:
                pass  # fitted on fewer samples, it need not factorize on these
        if model is None:
            try:
                config = fit_hyperparameters(
                    domain, training, train_values, seed=cfg.seed,
                    sweeps=cfg.fit_sweeps, base=base_config)
            except FittingError:
                config = base_config
            samples_at_refit = len(train)
            try:
                model = GPModel(domain, training, train_values, config)
            except FactorizationError:
                stop_reason = "factorization"
                break
        rows = {c.id: [i for i, r in enumerate(train) if c.id in r.constraints]
                for c in system.constraints}
        constraint_views = {cid: model.row_view(ids, [train[i].constraints[cid] for i in ids])
                            for cid, ids in rows.items() if ids}
        f_star = min((r.objective for r in train if r.feasible), default=min(train_values))
        candidate = maximize_acquisition(model, system, constraint_views,
                                         [r.point for r in fresh], f_star, cfg, rng, starts)
        if candidate is None:
            stop_reason = "exhausted"
            break
        acquisition_log.append(AcquisitionLogRow(
            iteration, candidate.meta, candidate.acquisition,
            candidate.surrogate_feasible))
        if progress:
            print(f"iteration {iteration} evaluations {evaluator.budget.used} "
                  f"acquisition {candidate.acquisition:.6g}", file=sys.stderr)
        try:
            evaluator.evaluate(candidate.point())
        except EvaluationError:
            pass
        except BudgetExhaustedError:
            stop_reason = "budget"
            break
    else:
        if evaluator.budget.remaining > 0:
            stop_reason = "max_iterations"
    best = min((r for r in evaluator.history if not r.cached),
               key=lambda r: (barrier_value(r), r.objective), default=None)
    return BOResult(best=best, history=evaluator.history, acquisition_log=acquisition_log,
                    evaluator=evaluator, stop_reason=stop_reason)


def write_acquisition_log(rows, path):
    """Sidecar CSV: iteration, chosen meta component, EI value, surrogate-feasible flag.
    A cell is quoted only when it holds a comma, a quote or a line break."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "meta", "acquisition", "surrogate_feasible"])
        for row in rows:
            writer.writerow([row.iteration, row.meta.rendered, f"{row.acquisition:.17g}",
                             "true" if row.surrogate_feasible else "false"])
