"""Bayesian optimization: expected improvement over the mixed GP surrogate.

Each iteration maximizes expected improvement over the auxiliary domain,
subject to surrogate constraint means being nonpositive, then evaluates the
chosen point on the true problem.  Previously evaluated or failed points are
excluded, so on fully finite domains the loop sweeps the whole space.

The acquisition search works on arrays of candidate rows, one meta component
at a time.  A fully finite domain is scored in one batch per meta component.
Otherwise every categorical component (enumerated, or sampled past a cap) is
paired with several starts, and each pair runs a coordinate pattern search
on the standard variables, with the step rule of direct search: each
search's steps are one row of a shared :class:`MeshState`, refined down to
a coarser floor.  All searches of a meta component run in lockstep: each
step scores the poll points of every active search in one prediction
batch, and each search then moves, shrinks or stops on its own.
GP predictions do not depend on the batch, so every search takes the same
path it would take alone.  The constraint surrogates are row views of the
objective model, so one cross-covariance per batch serves the objective and
every constraint.

A poll's cross-covariance is not built afresh.  The searches of one meta
component keep the kernel factors of their centers against the training
samples (:class:`~metabox.gp.CrossFactors`, one pair-tensor build per meta
component and acquisition).  A poll row differs from its center in one
standard column, so it copies the center's factors, recomputes that
column's factor, and multiplies the factors in the kernel's own order: its
cross-covariance is bit-identical to one built from the row's features.  A
search that moves keeps the winning row's factors.

The pick is the highest-EI candidate (surrogate-feasible ones first), with
ties broken by the order of a sequential search.  Only the winner becomes a
Point.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from .blackbox import EvaluationRecord, Evaluator, Problem, barrier_value
from .direct_search import MeshState, check_counts
from .domain import (Domain, IntegerScope, MetaComponent, Point, denormalize,
                     enumerate_domain_points)
from .encoders import Encoder
from .errors import (BudgetExhaustedError, ConfigurationError, EvaluationError,
                     FactorizationError, FittingError, NotEnumerableError)
from .gp import (CrossCovariance, CrossFactors, GPModel, KernelConfig, SampleFeatures,
                 default_kernel_config, fit_hyperparameters)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: The acquisition's pattern searches stop refining continuous steps at this
#: fraction of the scope width, far coarser than direct search's floor.
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
    categorical_mode: str = "matrix"   # kernel mode: "matrix" | "encoded"
    encoder_kind: str = "identity"     # categorical encoding, read in "encoded" mode only
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
        check_counts(self, (*positive, "enumeration_cap", "refit_full_until", "refit_every",
                            "fit_sweeps"), positive)
        if self.categorical_mode not in ("matrix", "encoded"):
            raise ConfigurationError('categorical_mode must be "matrix" or "encoded", '
                                     f"got {self.categorical_mode!r}")

    def kernel_setup(self, domain: Domain):
        """The encoder the kernel's features are built with (None in matrix
        mode) and the base kernel config: the defaults, with ``kernel``'s
        overrides.  The encoder kind is checked in either mode."""
        encoder = Encoder(domain, self.encoder_kind)
        if self.categorical_mode == "matrix":
            encoder = None
        return encoder, default_kernel_config(domain, encoder=encoder, overrides=self.kernel)


@dataclass
class AuxiliaryCandidate:
    """Maximizer of the acquisition over the auxiliary domain."""

    meta: MetaComponent
    categorical: dict
    standard: dict
    acquisition: float
    constraint_means: dict
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
    """Candidates scored together: rows under one meta component."""

    xm: MetaComponent
    categorical: np.ndarray     # (n, q) category indices, acting-set order
    standard: np.ndarray        # (n, d) raw standard values, acting-set order
    ei: np.ndarray
    acting: list                # ids of the constraints acting under xm
    means: np.ndarray           # (len(acting), n) surrogate constraint means
    feasible: np.ndarray        # every surrogate constraint mean <= 0
    fresh: np.ndarray           # not evaluated yet
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
        self._evaluated = {}
        for point in evaluated:
            self._evaluated.setdefault(point.meta, []).append(point)
        self._under = {}
        self._batches: list[_Batch] = []

    def _meta_state(self, xm: MetaComponent):
        """(acting constraint ids, positions in that list of the constraints
        with a row view, those views, evaluated points under xm) for one meta
        component.

        Evaluated points are the rows of a (count, q + d) float array,
        categorical indices then standard values.  Row equality under xm is
        Point equality, the evaluator's identity: ``0.0`` matches ``-0.0``.
        """
        if xm not in self._under:
            domain = self.model.domain
            cat_ids = domain.acting_index_set(xm, "categorical")
            std_ids = domain.acting_index_set(xm, "standard")
            acting = [c.id for c in self.system.acting_constraints(xm)]
            points = self._evaluated.get(xm, ())
            done = np.array([[*(p.categorical[v] for v in cat_ids),
                              *(p.standard[v] for v in std_ids)] for p in points],
                            dtype=float).reshape(len(points), len(cat_ids) + len(std_ids))
            modeled = [row for row, cid in enumerate(acting) if cid in self.constraint_views]
            views = [self.constraint_views[acting[row]] for row in modeled]
            self._under[xm] = acting, modeled, views, done
        return self._under[xm]

    def score(self, meta_index: int, xm: MetaComponent, categorical: np.ndarray,
              standard: np.ndarray, search, step, position,
              kappa: CrossCovariance | None = None) -> np.ndarray:
        """Expected improvement of each row; the rows are kept for the pick.

        ``search``, ``step`` and ``position`` give each row's order key
        (arrays or scalars).  ``kappa`` is the rows' cross-covariance with the
        training samples, built here from their features when not given.  The
        objective and every constraint view share it.
        """
        acting, modeled, views, done = self._meta_state(xm)
        points = kappa if kappa is not None else SampleFeatures.from_arrays(
            self.model.domain, xm, categorical, standard, self.model.encoder)
        mean, variance, view_means = self.model.predict_batch(points, views)
        ei = expected_improvement(mean, np.sqrt(variance), self.f_star)
        means = np.zeros((len(acting), len(ei)))
        means[modeled] = view_means
        rows = np.hstack([categorical, standard])
        fresh = ~(rows[:, None, :] == done[None, :, :]).all(axis=2).any(axis=1)
        order = np.empty((len(ei), 4), dtype=int)
        order[:, 0], order[:, 1], order[:, 2], order[:, 3] = meta_index, search, step, position
        self._batches.append(_Batch(xm, categorical, standard, ei, acting, means,
                                    np.all(means <= 0.0, axis=0), fresh, order))
        return ei

    def pick(self) -> AuxiliaryCandidate | None:
        """Highest-EI fresh candidate among the surrogate-feasible ones, else
        among all; ties go to the earliest in sequential order.  None when no
        fresh candidate was scored."""
        if not self._batches:
            return None
        ei, feasible, fresh, order = (np.concatenate([getattr(b, name) for b in self._batches])
                                      for name in ("ei", "feasible", "fresh", "order"))
        which = np.concatenate([np.full(len(b.ei), i) for i, b in enumerate(self._batches)])
        row = np.concatenate([np.arange(len(b.ei)) for b in self._batches])
        offered = fresh & (ei > -math.inf)  # NaN never wins
        for pool in (offered & feasible, offered):
            if pool.any():
                tied = np.flatnonzero(pool & (ei == ei[pool].max()))
                first = tied[np.lexsort(order[tied].T[::-1])[0]]
                return self._candidate(self._batches[which[first]], row[first])
        return None

    def _candidate(self, batch: _Batch, row: int) -> AuxiliaryCandidate:
        """Build the point-level candidate (the only Point built) for one row."""
        domain, xm = self.model.domain, batch.xm
        xq = {vid: int(v) for vid, v in
              zip(domain.acting_index_set(xm, "categorical"), batch.categorical[row])}
        xs = {vid: (int(v) if isinstance(domain.spec(vid).scope, IntegerScope) else float(v))
              for vid, v in zip(domain.acting_index_set(xm, "standard"), batch.standard[row])}
        return AuxiliaryCandidate(
            meta=xm, categorical=xq, standard=xs,
            acquisition=float(batch.ei[row]),
            constraint_means={cid: float(m[row]) for cid, m in zip(batch.acting, batch.means)},
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


def _pattern_search(candidates: _Candidates, meta_index: int, xm: MetaComponent,
                    combos: np.ndarray, centers: np.ndarray, cfg: BOConfig):
    """Coordinate pattern searches maximizing EI over the standard variables,
    run in lockstep: search s polls from centers[s] with the categorical
    component combos[s].

    Each search keeps its own center, step sizes and evaluation count; one
    step scores the poll points of every active search as one batch.  Each
    search moves exactly as it would alone, because predictions do not
    depend on the batch.  Poll cross-covariances come from the centers'
    :class:`CrossFactors` (see the module docstring).
    """
    model = candidates.model
    domain = model.domain
    scopes = [domain.spec(v).scope for v in domain.acting_index_set(xm, "standard")]
    lo, hi = np.array([s.clamp_bounds for s in scopes], dtype=float).reshape(-1, 2).T
    count = len(centers)
    mesh = MeshState(scopes, count, ACQ_MIN_FRACTION)
    cross = CrossFactors(model, xm, combos, centers)
    # score() keeps the arrays it is given and returns, so the search state
    # lives in copies.
    center = centers.copy()
    center_ei = candidates.score(meta_index, xm, combos, centers, np.arange(count), 0, 0,
                                 cross.kappa(cross.factors)).copy()
    used = np.ones(count, dtype=int)
    active = used < cfg.acq_budget
    step = 0
    while active.any():
        step += 1
        owners = np.flatnonzero(active)
        delta = mesh.steps(owners)
        base = center[owners]
        polls = np.clip(np.stack([base + delta, base - delta], axis=2),
                        lo[:, None], hi[:, None])
        owner, column, sign = np.nonzero(polls != base[:, :, None])  # search, column, +/-
        if not len(owner):
            break
        rows, searches, values = base[owner], owners[owner], polls[owner, column, sign]
        rows[np.arange(len(owner)), column] = values
        factors = cross.polled(searches, column, values)
        ei = candidates.score(meta_index, xm, combos[searches], rows,
                              searches, step, 2 * column + sign, cross.kappa(factors))
        bounds = np.searchsorted(owner, np.arange(len(owners) + 1))
        for i, s in enumerate(owners):
            polled = ei[bounds[i]:bounds[i + 1]]
            if not polled.size:
                active[s] = False
                continue
            used[s] += polled.size
            best = bounds[i] + int(np.argmax(polled))
            if ei[best] > center_ei[s]:
                center[s], center_ei[s] = rows[best], ei[best]
                cross.factors[:, s] = factors[:, best]
            elif mesh.at_minimum(s):
                active[s] = False
                continue
            else:
                mesh.refine(s)
            active[s] = used[s] < cfg.acq_budget


def finite_candidates(domain: Domain, cap: int) -> dict:
    """Every point of a finite domain as (categorical, standard) arrays per
    meta component, columns in acting-set order and rows in enumeration
    order; an empty dict when the domain is not finite or has more than
    ``cap`` points."""
    try:
        points = enumerate_domain_points(domain, cap)
    except NotEnumerableError:
        return {}
    out = {}
    for xm in domain.enumerate_meta_set():
        cat_ids = domain.acting_index_set(xm, "categorical")
        std_ids = domain.acting_index_set(xm, "standard")
        under = [p for p in points if p.meta == xm]
        out[xm] = (np.array([[p.categorical[v] for v in cat_ids] for p in under],
                            dtype=int).reshape(len(under), len(cat_ids)),
                   np.array([[p.standard[v] for v in std_ids] for p in under],
                            dtype=float).reshape(len(under), len(std_ids)))
        for array in out[xm]:
            array.flags.writeable = False  # shared by every search of the run
    return out


def maximize_acquisition(model: GPModel, system, constraint_views, evaluated, f_star,
                         cfg: BOConfig, rng, finite: dict | None = None
                         ) -> AuxiliaryCandidate | None:
    """Best expected-improvement candidate over the auxiliary domain.

    ``constraint_views`` maps constraint ids to row views of ``model``
    (:meth:`GPModel.row_view`); a constraint without one has mean 0.
    Candidates whose surrogate constraint means exceed zero are rejected;
    when no surrogate-feasible candidate exists anywhere the global EI
    maximizer is returned flagged infeasible.  Points in ``evaluated`` (the
    points already evaluated or failed) are excluded; None signals an
    exhausted finite domain.  ``finite`` is :func:`finite_candidates` of the
    domain at ``cfg.enumeration_cap``, which a caller searching one domain
    many times builds once; it is built here when not given.
    """
    domain = model.domain
    try:
        metas = domain.enumerate_meta_set()
    except NotEnumerableError as exc:
        raise ConfigurationError("acquisition needs an enumerable meta set") from exc
    if finite is None:
        finite = finite_candidates(domain, cfg.enumeration_cap)
    candidates = _Candidates(model, system, constraint_views, evaluated, f_star)
    for meta_index, xm in enumerate(metas):
        if xm in finite:
            categorical, standard = finite[xm]
            candidates.score(meta_index, xm, categorical, standard,
                             0, 0, np.arange(len(categorical)))
            continue
        std_ids = domain.acting_index_set(xm, "standard")
        combos = _enumerate_categorical(domain, xm, cfg.categorical_cap, rng)
        default = domain.complete_point(xm, {}).standard
        centers = []
        for _ in combos:
            for start in range(cfg.acq_starts):
                if start == 0:
                    centers.append([default[v] for v in std_ids])
                else:
                    centers.append([denormalize(domain.spec(v).scope, float(rng.random()))
                                    for v in std_ids])
        _pattern_search(candidates, meta_index, xm,
                        np.repeat(combos, cfg.acq_starts, axis=0),
                        np.array(centers, dtype=float).reshape(len(centers), len(std_ids)),
                        cfg)
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


def _best_record(history):
    best = None
    for record in history:
        if record.cached:
            continue
        key = (barrier_value(record), record.objective)
        if best is None or key < best[0]:
            best = (key, record)
    return best[1] if best else None


def run_bo(problem: Problem, cfg: BOConfig, progress: bool = False) -> BOResult:
    """Initial design, then fit-maximize-evaluate until the budget is spent.

    Constraint surrogates are GP means fit on all acting observations of each
    constraint, sharing the objective kernel's correlation hyperparameters
    (the mean prediction is scale-invariant).  Every observation of a
    constraint is also an objective training point, so each surrogate is a
    row view of the objective model (:meth:`GPModel.row_view`): its training
    set is a list of the model's rows, and the acquisition computes one
    cross-covariance per batch for the objective and every constraint.
    Failed evaluations are excluded from the acquisition, like evaluated
    points, so they are never proposed again.  A config reused from an
    earlier fit that no longer factorizes on the current samples is refitted
    at once; when the refitted config does not factorize either, the run
    ends with stop reason "factorization".
    """
    domain = problem.domain
    system = problem.constraints
    try:
        metas = domain.enumerate_meta_set()
    except NotEnumerableError as exc:
        raise ConfigurationError("Bayesian optimization needs an enumerable meta set") from exc
    evaluator = Evaluator(problem, cfg.budget)
    rng = np.random.default_rng(cfg.seed)
    encoder, base_config = cfg.kernel_setup(domain)

    train_points, train_values = [], []
    constraint_data = {c.id: ([], []) for c in system.constraints}  # (rows, values)

    def absorb(record):
        if record.cached:  # repeats a sample absorbed at the key's first evaluation
            return
        for cid, value in record.constraints.items():
            constraint_data[cid][0].append(len(train_points))
            constraint_data[cid][1].append(value)
        train_points.append(record.point)
        train_values.append(record.objective)

    stop_reason = "budget"
    for point in initial_design(domain, rng, metas):
        try:
            absorb(evaluator.evaluate(point))
        except EvaluationError:
            continue
        except BudgetExhaustedError:
            stop_reason = "budget"
            break

    acquisition_log = []
    finite = finite_candidates(domain, cfg.enumeration_cap)
    config: KernelConfig | None = None
    samples_at_refit = -1
    iteration = 0
    while evaluator.budget.remaining > 0 and iteration < cfg.max_iterations:
        iteration += 1
        if len(train_points) < 2:
            stop_reason = "no_data"
            break
        model = None
        if (config is not None and len(train_points) > cfg.refit_full_until
                and len(train_points) - samples_at_refit < cfg.refit_every):
            try:
                model = GPModel(domain, train_points, train_values, config, encoder)
            except FactorizationError:
                pass  # fitted on fewer samples, it need not factorize on these
        if model is None:
            try:
                config = fit_hyperparameters(
                    domain, train_points, train_values, seed=cfg.seed, encoder=encoder,
                    sweeps=cfg.fit_sweeps, base=base_config)
            except FittingError:
                config = base_config
            samples_at_refit = len(train_points)
            try:
                model = GPModel(domain, train_points, train_values, config, encoder)
            except FactorizationError:
                stop_reason = "factorization"
                break
        constraint_views = {cid: model.row_view(rows, vals)
                            for cid, (rows, vals) in constraint_data.items() if rows}
        feasible_values = [r.objective for r in evaluator.history
                           if not r.cached and r.feasible and r.error is None]
        if feasible_values:
            f_star = min(feasible_values)
        else:
            f_star = min(train_values)
        evaluated = [r.point for r in evaluator.history if not r.cached]
        candidate = maximize_acquisition(model, system, constraint_views, evaluated,
                                         f_star, cfg, rng, finite)
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
            absorb(evaluator.evaluate(candidate.point()))
        except EvaluationError:
            continue
        except BudgetExhaustedError:
            stop_reason = "budget"
            break
    return BOResult(best=_best_record(evaluator.history), history=evaluator.history,
                    acquisition_log=acquisition_log, evaluator=evaluator,
                    stop_reason=stop_reason)


def write_acquisition_log(rows, path):
    """Sidecar CSV: iteration, chosen meta component, EI value, surrogate-feasible flag."""
    lines = ["iteration,meta,acquisition,surrogate_feasible"]
    for row in rows:
        lines.append(f"{row.iteration},{row.meta.rendered},{row.acquisition:.17g},"
                     f"{'true' if row.surrogate_feasible else 'false'}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
