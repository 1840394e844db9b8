import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

import metabox as mb
from metabox import bayesian
from metabox.bayesian import _Candidates, initial_design, write_acquisition_log
from metabox.gp import CrossFactors, PairTensors, SampleFeatures
from metabox.blackbox import barrier_value
from metabox.domain import denormalize
from conftest import (charged_failures, nan_objective_at_k2, parse_bundled, random_point,
                      row_arrays)

ADAM2 = mb.MetaComponent({"l": 2, "o": "Adam"})


# -- expected improvement -------------------------------------------------------------

def test_ei_at_incumbent_mean_unit_sigma():
    assert abs(mb.expected_improvement(0.0, 1.0, 0.0) - 0.3989423) <= 1e-6


def test_ei_one_sigma_improvement():
    assert abs(mb.expected_improvement(0.0, 1.0, 1.0) - 1.0833154) <= 1e-6


def test_ei_zero_sigma_limits():
    assert mb.expected_improvement(5.0, 0.0, 0.0) == 0.0
    assert mb.expected_improvement(-2.0, 0.0, 0.0) == 2.0


def test_ei_is_nonnegative_and_vectorized():
    means = np.linspace(-3, 3, 25)
    values = mb.expected_improvement(means, np.full(25, 0.7), 0.0)
    assert values.shape == (25,)
    assert np.all(values >= 0.0)


def test_ei_vanishes_at_training_points(toy_problem):
    points = mb.enumerate_domain_points(toy_problem.domain)[:12]
    evaluator = mb.Evaluator(toy_problem, 20)
    values = [evaluator.evaluate(p).objective for p in points]
    model = bo_pieces(toy_problem, points, values)
    mean, variance = model.predict_batch(points)
    ei = mb.expected_improvement(mean, np.sqrt(variance), min(values))
    # sigma at samples is bounded by the jitter, so EI is jitter-scale small
    bound = 0.5 * math.sqrt(1e-8 * model.config.signal_variance) + 1e-12
    assert np.all(ei <= bound)


def test_ei_monotone_in_sigma():
    rng = np.random.default_rng(17)
    h = 1e-4
    for _ in range(10):
        mean = float(rng.uniform(-1, 1))
        f_star = float(rng.uniform(-1, 1))
        sigma = float(rng.uniform(0.3, 2.0))
        assert (mb.expected_improvement(mean, sigma + h, f_star)
                > mb.expected_improvement(mean, sigma, f_star))


# -- acquisition maximization -----------------------------------------------------------

def bo_pieces(problem, points, values):
    config = mb.default_kernel_config(problem.domain)
    return mb.GPModel(problem.domain, points, values, config)


def scored_by(candidates, xm, categorical, standard):
    """The prediction of the rows from their CrossFactors, as the
    acquisition scores them."""
    cross = candidates.cross_factors(xm, categorical, standard)
    return cross.predict(cross.factors)


def row_points(domain, xm, categorical, standard):
    """The rows of a scored batch as Points."""
    cat_ids = domain.acting_index_set(xm, "categorical")
    std_ids = domain.acting_index_set(xm, "standard")
    return [mb.Point(xm, {v: int(c) for v, c in zip(cat_ids, cats)},
                     {v: (int(x) if isinstance(domain.spec(v).scope, mb.IntegerScope)
                          else float(x)) for v, x in zip(std_ids, stds)})
            for cats, stds in zip(categorical, standard)]


def test_pick_keeps_earlier_candidate_on_ties(toy_problem):
    # Trained under m=A only, the model correlates every m=B point with the
    # samples through the meta factor alone, so all m=B points tie on EI.
    domain = toy_problem.domain
    under_a = [p for p in mb.enumerate_domain_points(domain) if p.meta["m"] == "A"][:4]
    model = bo_pieces(toy_problem, under_a, [1.0, 2.0, 3.0, 4.0])
    candidates = _Candidates(model, toy_problem.constraints, {}, [], 1.0)
    xm = mb.MetaComponent({"m": "B"})

    def score(categorical, standard, *order):
        categorical, standard = np.array(categorical), np.array(standard)
        return candidates.score(1, categorical, standard, *order,
                                [scored_by(candidates, xm, categorical, standard)])

    late = score([[2, 3]], [[4.0]], 0, 2, 0)
    early = score([[1, 1], [2, 2]], [[0.0], [1.0]], 0, 1, np.array([1, 0]))
    assert late[0] == early[0] == early[1] > 0.0
    pick = candidates.pick()
    assert (pick.categorical, pick.standard) == ({"pB": 2, "s": 2}, {"k": 1})
    later = score([[1, 3]], [[3.0]], 9, 9, 9)
    assert later[0] == late[0]
    assert candidates.pick().point() == pick.point()


def test_single_sample_gives_positive_ei_elsewhere(toy_problem):
    domain = toy_problem.domain
    sample = domain.complete_point(mb.MetaComponent({"m": "A"}), {})
    model = bo_pieces(toy_problem, [sample], [1.0])
    candidate = mb.maximize_acquisition(
        model, toy_problem.constraints, {},
        [sample], 1.0, mb.BOConfig(budget=10), np.random.default_rng(0))
    assert candidate is not None
    assert candidate.acquisition > 0.0
    assert candidate.point() != sample


def test_exhausted_finite_domain_returns_none(toy_problem):
    points = mb.enumerate_domain_points(toy_problem.domain)
    evaluator = mb.Evaluator(toy_problem, 100)
    values = [evaluator.evaluate(p).objective for p in points]
    model = bo_pieces(toy_problem, points[:10], values[:10])
    candidate = mb.maximize_acquisition(
        model, toy_problem.constraints, {},
        points, min(values), mb.BOConfig(budget=10),
        np.random.default_rng(0))
    assert candidate is None


def test_acquisition_is_deterministic(toy_problem):
    domain = toy_problem.domain
    samples = [domain.complete_point(mb.MetaComponent({"m": "A"}), {"k": 0}),
               domain.complete_point(mb.MetaComponent({"m": "B"}), {"k": 4})]
    model = bo_pieces(toy_problem, samples, [2.0, 1.0])
    excluded = samples
    picks = [mb.maximize_acquisition(model, toy_problem.constraints, {},
                                     excluded, 1.0, mb.BOConfig(budget=10),
                                     np.random.default_rng(0)) for _ in range(2)]
    assert picks[0].point() == picks[1].point()
    assert picks[0].acquisition == picks[1].acquisition


def test_candidates_decode_into_the_domain(mlp_problem):
    domain = mlp_problem.domain
    rng = np.random.default_rng(3)
    evaluator = mb.Evaluator(mlp_problem, 10)
    points = [domain.complete_point(ADAM2, {"u1": u}) for u in (120, 220, 280)]
    values = [evaluator.evaluate(p).objective for p in points]
    model = bo_pieces(mlp_problem, points, values)
    candidate = mb.maximize_acquisition(
        model, mlp_problem.constraints, {}, points,
        min(values), mb.BOConfig(budget=10, acq_budget=20, acq_starts=2), rng)
    assert domain.contains(candidate.point())


def sequential_acquisition(model, system, constraint_views, evaluated, f_star, cfg, rng):
    """Reference acquisition: one pattern search at a time over Point objects.

    Every candidate is scored in a batch of its own search step, built
    afresh from its Points, offered in sequential order (meta, categorical
    component, start, step, position), and kept only when its EI strictly
    beats the best so far.  Returns the pick as (point, EI,
    surrogate-feasible), or None, and every scored candidate as (point, EI,
    surrogate-feasible, fresh) in sequential order.
    """
    domain = model.domain
    excluded = {mb.cache_key(p) for p in evaluated}
    best = {"feasible": (-math.inf, None), "any": (-math.inf, None)}
    scored = []

    def offer(points):
        xm = points[0].meta
        views = [constraint_views[c.id] for c in system.acting_constraints(xm)
                 if c.id in constraint_views]
        cross = CrossFactors(model, xm, *row_arrays(domain, xm, points), views)
        mean, variance, view_means = cross.predict(cross.factors)
        ei = mb.expected_improvement(mean, np.sqrt(variance), f_star)
        for point, value, means in zip(points, ei, view_means.T):
            feasible = all(m <= 0.0 for m in means)
            fresh = mb.cache_key(point) not in excluded
            scored.append((point, float(value), feasible, fresh))
            if not fresh:
                continue
            for kind in ("feasible", "any") if feasible else ("any",):
                if value > best[kind][0]:
                    best[kind] = (value, (point, float(value), feasible))
        return ei

    try:
        points = mb.enumerate_domain_points(domain, cfg.enumeration_cap)
    except mb.NotEnumerableError:
        points = None
    for xm in domain.enumerate_meta_set():
        if points is not None:
            offer([p for p in points if p.meta == xm])
            continue
        ids = domain.acting_index_set(xm, "standard")
        cat_ids = domain.acting_index_set(xm, "categorical")
        axes = [range(1, domain.spec(v).scope.size + 1) for v in cat_ids]
        for combo in itertools.product(*axes):
            xq = dict(zip(cat_ids, combo))
            for start in range(cfg.acq_starts):
                if start == 0:
                    center = domain.complete_point(xm, {}).standard
                else:
                    center = {v: denormalize(domain.spec(v).scope, float(rng.random()))
                              for v in ids}
                center_ei = offer([mb.Point(xm, xq, center)])[0]
                fractions = {v: 0.25 for v in ids
                             if isinstance(domain.spec(v).scope, mb.ContinuousScope)}
                steps = {v: max(1, domain.spec(v).scope.width // 4) for v in ids
                         if v not in fractions}
                used = 1
                while used < cfg.acq_budget:
                    polls = []
                    for v in ids:
                        scope = domain.spec(v).scope
                        for sign in (1, -1):
                            if v in fractions:
                                value = scope.clamp(
                                    center[v] + sign * fractions[v] * scope.width)
                            else:
                                value = scope.clamp(center[v] + sign * steps[v])
                            if value != center[v]:
                                polls.append(mb.Point(xm, xq, {**center, v: value}))
                    if not polls:
                        break
                    ei = offer(polls)
                    used += len(polls)
                    top = int(np.argmax(ei))
                    if ei[top] > center_ei:
                        center, center_ei = dict(polls[top].standard), ei[top]
                    elif (all(f <= 0.02 for f in fractions.values())
                          and all(s == 1 for s in steps.values())):
                        break
                    else:
                        fractions = {v: max(0.02, f * 0.5) for v, f in fractions.items()}
                        steps = {v: max(1, s // 2) for v, s in steps.items()}
    return best["feasible"][1] or best["any"][1], scored


def acquisition_case(problem, samples, seed):
    """Model and constraint surrogates fit on ``samples`` random points;
    each constraint surrogate is a row view of the model, the way run_bo
    builds it."""
    domain = problem.domain
    rng = np.random.default_rng(seed)
    evaluator = mb.Evaluator(problem, samples)
    while evaluator.budget.remaining:
        evaluator.evaluate(random_point(domain, rng))
    records = [r for r in evaluator.history if not r.cached]
    points = [r.point for r in records]
    values = [r.objective for r in records]
    config = mb.fit_hyperparameters(domain, points, values, seed=seed)
    model = mb.GPModel(domain, points, values, config)
    views = {}
    for spec in problem.constraints.constraints:
        rows = [i for i, r in enumerate(records) if spec.id in r.constraints]
        if rows:
            views[spec.id] = model.row_view(rows,
                                            [records[i].constraints[spec.id] for i in rows])
    return model, views, points, min(values)


@pytest.mark.parametrize("name, samples, seed", [
    ("mlp", 20, 0), ("mlp", 30, 4), ("toy", 12, 1),
    pytest.param("mlp-staggered", 20, 1, id="mlp-staggered-20-1"),
    pytest.param("bare", 3, 0, id="bare-pattern")])
def test_lockstep_acquisition_matches_sequential_searches(monkeypatch, name, samples, seed):
    # One lockstep search runs every meta component's searches.  Under
    # "mlp-staggered" searches stop at their floors, not only at the
    # budget, and each meta component's searches end at a step of their
    # own; under "bare" (pattern path) m=B and m=C have no standard
    # variable, so their rows are padding alone and never poll.
    if name == "bare":
        _, system, model, views, points, f_star = kappa_case("bare")
    else:
        problem = parse_bundled(name.split("-")[0]).problem
        system = problem.constraints
        model, views, points, f_star = acquisition_case(problem, samples, seed)
    cfg = mb.BOConfig(budget=10, acq_budget=240 if name == "mlp-staggered" else 24,
                      acq_starts=3, enumeration_cap=1 if name == "bare" else 4096)
    pools = []
    pick = _Candidates.pick
    monkeypatch.setattr(_Candidates, "pick", lambda self: pools.append(self) or pick(self))
    got = mb.maximize_acquisition(model, system, views,
                                  points, f_star, cfg, np.random.default_rng(seed))
    want, scored = sequential_acquisition(model, system, views,
                                          points, f_star, cfg, np.random.default_rng(seed))
    assert (got.point(), got.acquisition, got.surrogate_feasible) == want
    # Every candidate of every search, in sequential order, scores the same,
    # and the pick's newness check agrees on it.
    candidates = pools[0]
    rows = [(b.order[i], b, i) for b in candidates._batches for i in range(len(b.ei))]
    rows.sort(key=lambda r: tuple(r[0]))
    lockstep = []
    for _, batch, i in rows:
        candidate = candidates._candidate(batch, i)
        lockstep.append((candidate.point(), candidate.acquisition,
                         candidate.surrogate_feasible, candidates._is_new(batch, i)))
    assert lockstep == scored
    for batch in candidates._batches:
        assert is_new(candidates, batch) == tuple_fresh(candidates, points, batch)
    assert any(not s[2] for s in scored) or name in ("toy", "bare")
    order = np.vstack([batch.order for batch in candidates._batches])
    last = [order[order[:, 0] == m, 2].max() for m in range(len(candidates.metas))]
    if name == "mlp-staggered":
        assert last == [30, 26, 23, 24]
    if name == "bare":
        assert last[0] > 0 and last[1:] == [0, 0]


@pytest.mark.parametrize("name", ["mlp", "toy"])
def test_each_scored_batch_comes_from_one_cross_factors(monkeypatch, name):
    # On the finite-domain (toy) path each scored batch comes from its own
    # CrossFactors.  On mlp one lockstep pattern search runs every meta
    # component's searches: it builds one CrossFactors per meta component,
    # at its centers, before the first scored batch, and every poll batch
    # reuses them.  Neither builds a PairTensors or a SampleFeatures (P, F),
    # and the objective and every constraint view share each
    # cross-covariance.
    events = []

    def counting(cls, attr, event):
        original = getattr(cls, attr)

        def counted(*args, **kwargs):
            events.append(event)
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, attr, counted)

    counting(CrossFactors, "__init__", "C")
    counting(PairTensors, "__init__", "P")
    counting(SampleFeatures, "__init__", "F")
    counting(_Candidates, "score", "S")
    search = bayesian._pattern_search

    def counting_search(*args):
        events.append("[")
        search(*args)
        events.append("]")

    monkeypatch.setattr(bayesian, "_pattern_search", counting_search)
    problem = parse_bundled(name).problem
    metas = len(problem.domain.enumerate_meta_set())
    pattern = {"mlp": rf"\[C{{{metas}}}SS+\]", "toy": r"(CS)+"}[name]
    model, views, points, f_star = acquisition_case(problem, 20, 2)
    assert len(views) == len(problem.constraints.constraints)
    events.clear()
    mb.maximize_acquisition(model, problem.constraints, views, points, f_star,
                            mb.BOConfig(budget=10, acq_budget=12, acq_starts=2),
                            np.random.default_rng(0))
    assert re.fullmatch(pattern, "".join(events))


def adam_only_case(problem, samples, seed):
    """A model trained only under o=Adam: no ASGD-only variable acts in any
    training sample, so polling one leaves its search's kappa as it was."""
    domain = problem.domain
    rng = np.random.default_rng(seed)
    metas = [xm for xm in domain.enumerate_meta_set() if xm["o"] == "Adam"]
    points = [random_point(domain, rng, metas) for _ in range(samples)]
    values = [problem.objective(p)[0] for p in points]
    model = mb.GPModel(domain, points, values, mb.default_kernel_config(domain))
    return model, points, min(values)


def kappa_case(case):
    """(domain, constraint system, model, row views, training points, f*)
    of one scoring case.  "matrix" and "mixed" train on mlp under every meta
    component, and "toy-fitted" on toy under both, with a fitted config and
    the constraints' row views.  "adam-only" trains under o=Adam only, and
    "toy" under m=A only, so some meta components have no training sample,
    and m=A holds every one.  BARE's metas B and C have no acting non-meta
    variable, and C no training sample either."""
    if case in ("matrix", "mixed", "toy-fitted"):
        problem = parse_bundled("toy" if case == "toy-fitted" else "mlp").problem
        model, views, points, f_star = acquisition_case(problem, 20, 3)
        return problem.domain, problem.constraints, model, views, points, f_star
    if case == "adam-only":
        problem = parse_bundled("mlp").problem
        model, points, f_star = adam_only_case(problem, 12, 5)
        return problem.domain, problem.constraints, model, {}, points, f_star
    if case == "toy":
        problem = parse_bundled("toy").problem
        domain, system = problem.domain, problem.constraints
        points = [p for p in mb.enumerate_domain_points(domain) if p.meta["m"] == "A"][::4]
        values = [problem.objective(p)[0] for p in points]
    else:
        domain = mb.parse_problem(BARE).domain
        system = mb.ConstraintSystem(domain)
        a, b = (mb.MetaComponent({"m": m}) for m in "AB")
        points = [mb.Point(a, {}, {"x": 0}), mb.Point(a, {}, {"x": 1}), mb.Point(b, {}, {})]
        values = [0.0, 1.0, -1.0]
    model = mb.GPModel(domain, points, values, mb.default_kernel_config(domain))
    return domain, system, model, {}, points, min(values)


def scored_batches(monkeypatch, case, cfg, seed):
    """The model of a :func:`kappa_case`, and (xm, categorical, standard, D)
    of every batch one acquisition on it scores, each D (the rows'
    cross-covariance with the training samples under xm) checked bit for
    bit against the cross-covariance of the rows as Points there."""
    domain, system, model, views, points, f_star = kappa_case(case)
    scored, predicted = [], []
    score, predict = _Candidates.score, CrossFactors.predict

    def recording_predict(self, factors):
        predicted.append((self._under, self.cross_covariance(factors)))
        return predict(self, factors)

    def recording_score(self, meta, categorical, standard, *order):
        # Each run of rows is predicted by one CrossFactors, under one meta
        # component, just before the rows are scored.
        metas, start = np.broadcast_to(meta, len(standard)), 0
        assert len(predicted) == len(order[-1])
        for under, cross in predicted:
            rows = slice(start, start + cross.shape[1])
            assert len(set(metas[rows])) == 1
            scored.append((self.metas[metas[start]], categorical[rows], standard[rows],
                           under, cross))
            start = rows.stop
        assert start == len(standard)
        predicted.clear()
        return score(self, meta, categorical, standard, *order)

    monkeypatch.setattr(CrossFactors, "predict", recording_predict)
    monkeypatch.setattr(_Candidates, "score", recording_score)
    mb.maximize_acquisition(model, system, views, points, f_star, cfg,
                            np.random.default_rng(seed))
    for xm, categorical, standard, under, cross in scored:
        fresh = model.cross_covariance(row_points(domain, xm, categorical, standard))
        assert np.array_equal(cross, fresh[under])
    return model, [(xm, categorical, standard) for xm, categorical, standard, _, _ in scored]


@pytest.mark.parametrize("case", ["matrix", "adam-only"])
def test_poll_kappa_equals_a_fresh_cross_covariance(monkeypatch, case):
    model, scored = scored_batches(monkeypatch, case,
                                   mb.BOConfig(budget=10, acq_budget=24, acq_starts=2), 1)
    domain = model.domain
    assert {xm["o"] for xm, _, _ in scored} == {"Adam", "ASGD"}
    # Integer columns (u1..u3) and continuous ones were both polled.
    std = np.vstack([standard for xm, _, standard in scored if xm == ADAM2])
    assert len(np.unique(std[:, 1])) > 2 and len(np.unique(std[:, 0])) > 2
    if case == "adam-only":
        ids = domain.acting_index_set(mb.MetaComponent({"l": 2, "o": "ASGD"}), "standard")
        lam = ids.index("lam")
        asgd = [s for xm, _, s in scored if xm["o"] == "ASGD"]
        assert any(len(np.unique(s[:, lam])) > 1 for s in asgd)


@pytest.mark.parametrize("case, enumeration_cap", [
    ("toy", 4096), ("bare", 4096), ("bare", 1)], ids=["toy", "bare-finite", "bare-pattern"])
def test_scored_kappa_equals_a_fresh_cross_covariance(monkeypatch, case, enumeration_cap):
    # The finite path, a meta component without training samples, and ones
    # without an acting non-meta variable score bit-identical
    # cross-covariances too.
    model, scored = scored_batches(
        monkeypatch, case, mb.BOConfig(budget=10, acq_budget=12, acq_starts=2,
                                       enumeration_cap=enumeration_cap), 0)
    metas = {p.meta for p in model.points}
    assert {xm for xm, _, _ in scored} > metas


@pytest.mark.parametrize("case", ["mixed", "adam-only", "toy", "bare"])
def test_cross_factors_span_the_training_samples_under_the_meta(case):
    # Per-row factors cover exactly the training samples under the rows'
    # meta component, one per acting non-meta variable.  Every other
    # sample's cross-covariance with the rows is one column, shared by all
    # rows, which the scorer folds into constants.
    domain, _, model, _, points, _ = kappa_case(case)
    rng = np.random.default_rng(0)
    for xm in domain.enumerate_meta_set():
        rows = [random_point(domain, rng, [xm]) for _ in range(3)]
        categorical, standard = row_arrays(domain, xm, rows)
        cross = CrossFactors(model, xm, categorical, standard)
        under = [i for i, p in enumerate(points) if p.meta == xm]
        assert cross._under.tolist() == under
        assert cross.factors.shape == (categorical.shape[1] + standard.shape[1], len(under),
                                       len(rows))
        fresh = model.cross_covariance(rows)
        assert np.array_equal(cross.cross_covariance(cross.factors), fresh[under])
        others = np.setdiff1d(np.arange(len(points)), under)
        assert np.array_equal(fresh[others], np.repeat(fresh[others, :1], 3, axis=1))
    # Some cases have meta components without a training sample.
    assert len({p.meta for p in points}) == {"mixed": 4, "adam-only": 2, "toy": 1,
                                            "bare": 2}[case]


@pytest.mark.parametrize("case", ["mixed", "toy-fitted", "adam-only", "toy", "bare"])
def test_cross_factors_predict_as_predict_batch(case):
    # The partitioned posterior equals predict_batch of the same Points up to
    # rounding: means and view means within 1e-9 of the batch's scale, and
    # variances within 1e-12 of the signal variance.  Rows are fresh draws
    # and the training samples, under meta components holding some, all
    # ("toy": m=A) or none ("adam-only", "toy", "bare") of them.
    domain, _, model, views, points, _ = kappa_case(case)
    views = list(views.values())
    rng = np.random.default_rng(1)
    s2 = model.config.signal_variance
    for xm in domain.enumerate_meta_set():
        rows = [random_point(domain, rng, [xm]) for _ in range(20)]
        rows += [p for p in points if p.meta == xm]
        cross = CrossFactors(model, xm, *row_arrays(domain, xm, rows), views)
        got = cross.predict(cross.factors)
        want = model.predict_batch(rows, views)
        assert got[2].shape == want[2].shape == (len(views), len(rows))
        for got_values, want_values in ((got[0], want[0]), (got[2], want[2])):
            scale = np.abs(want_values).max(initial=0.0) + math.sqrt(s2)
            assert np.abs(got_values - want_values).max(initial=0.0) <= 1e-9 * scale
        assert np.abs(got[1] - want[1]).max() <= 1e-12 * s2


@pytest.mark.parametrize("name", ["mlp", "toy"])
def test_acquisition_runs_no_solve_against_the_full_factor(monkeypatch, name):
    # Every scored batch is predicted from the factor of the samples under
    # its meta component: no n-row cross-covariance, no n-row solve.
    from metabox import gp
    problem = parse_bundled(name).problem
    model, views, points, f_star = acquisition_case(problem, 20, 2)
    assert all(any(p.meta == xm for p in points)
               for xm in problem.domain.enumerate_meta_set())
    solved = []
    forward = gp._forward_solve
    monkeypatch.setattr(gp, "_forward_solve",
                        lambda factor, b, **kw: solved.append(factor) or forward(factor, b, **kw))

    def forbidden(*args):
        raise AssertionError("the acquisition built an n-row cross-covariance")

    monkeypatch.setattr(mb.GPModel, "cross_covariance", forbidden)
    mb.maximize_acquisition(model, problem.constraints, views, points, f_star,
                            mb.BOConfig(budget=10, acq_budget=12, acq_starts=2),
                            np.random.default_rng(0))
    assert solved
    assert all(factor is not model._factor and len(factor) < len(model) for factor in solved)


BARE = {
    "name": "bare",
    "variables": [
        {"id": "m", "type": "meta-categorical", "role": "meta",
         "scope": {"categories": ["A", "B", "C"]}},
        {"id": "x", "type": "integer", "role": "decreed", "scope": {"lo": -2, "hi": 2},
         "decree": [{"kind": "membership", "meta": "m", "allowed": ["A"]}]},
    ],
    "blackbox": {"command": ["true"]},
}


def tuple_fresh(candidates, evaluated, batch):
    """Reference newness of each row of a batch: its tuple, padding cut off,
    is missing from the set of evaluated row tuples under its meta
    component."""
    domain, fresh = candidates.model.domain, []
    for meta, categorical, standard in zip(batch.order[:, 0], batch.categorical,
                                           batch.standard):
        xm = candidates.metas[meta]
        cat_ids = domain.acting_index_set(xm, "categorical")
        std_ids = domain.acting_index_set(xm, "standard")
        done = {tuple(p.categorical[v] for v in cat_ids)
                + tuple(p.standard[v] for v in std_ids) for p in evaluated if p.meta == xm}
        row = (*categorical[:len(cat_ids)].tolist(), *standard[:len(std_ids)].tolist())
        fresh.append(row not in done)
    return fresh


def is_new(candidates, batch):
    """The pick-time newness check of each row of a batch."""
    return [candidates._is_new(batch, i) for i in range(len(batch.ei))]


@pytest.mark.parametrize("enumeration_cap", [4096, 1], ids=["finite", "pattern"])
def test_evaluated_points_are_never_offered_again(monkeypatch, enumeration_cap):
    # Meta B has no acting non-meta variable and one evaluated point; meta C
    # has none.  x = 0 was evaluated as an int.
    domain = mb.parse_problem(BARE).domain
    system = mb.ConstraintSystem(domain)
    a, b, c = (mb.MetaComponent({"m": m}) for m in "ABC")
    evaluated = [mb.Point(a, {}, {"x": 0}), mb.Point(a, {}, {"x": 1}), mb.Point(b, {}, {})]
    model = mb.GPModel(domain, evaluated, [0.0, 1.0, -1.0], mb.default_kernel_config(domain))
    pools = []
    pick = _Candidates.pick
    monkeypatch.setattr(_Candidates, "pick", lambda self: pools.append(self) or pick(self))
    got = mb.maximize_acquisition(model, system, {}, evaluated, -1.0,
                                  mb.BOConfig(budget=10, enumeration_cap=enumeration_cap),
                                  np.random.default_rng(0))
    assert got is not None and got.point() not in evaluated
    candidates = pools[0]
    # Floats stand for the int, and -0.0 equals 0.0, as in a cache key.
    for meta_index, xm, standard, position in ((0, a, [[-0.0], [0.0], [1.0], [2.0]],
                                                np.arange(4)),
                                               (1, b, [[]], 0), (2, c, [[]], 0)):
        categorical, standard = np.zeros((len(standard), 0), dtype=int), np.array(standard)
        candidates.score(meta_index, categorical, standard, 9, 9, position,
                         [scored_by(candidates, xm, categorical, standard)])
    assert [is_new(candidates, batch) for batch in candidates._batches[-3:]] == [
        [False, False, False, True], [False], [True]]
    for batch in candidates._batches:
        assert is_new(candidates, batch) == tuple_fresh(candidates, evaluated, batch)
    assert {candidates.metas[m] for batch in candidates._batches
            for m in batch.order[:, 0]} == {a, b, c}


def test_run_enumerates_a_finite_domain_once(monkeypatch, toy_problem):
    calls = []
    enumerate_points = bayesian.enumerate_domain_points
    monkeypatch.setattr(bayesian, "enumerate_domain_points",
                        lambda *args: calls.append(args) or enumerate_points(*args))
    result = mb.run_bo(toy_problem, mb.BOConfig(budget=20, seed=1))
    assert len(result.acquisition_log) > 1
    assert len(calls) == 1


# -- initial design and the loop -----------------------------------------------------------

def test_initial_design_counts_and_membership(mlp_domain):
    rng = np.random.default_rng(0)
    metas = mlp_domain.enumerate_meta_set()
    design = initial_design(mlp_domain, rng, metas)
    # one point per acting variable plus one, per meta component
    expected = sum(len(mlp_domain.acting_index_set(xm, "categorical"))
                   + len(mlp_domain.acting_index_set(xm, "standard")) + 1
                   for xm in metas)
    assert len(design) == expected
    assert all(mlp_domain.contains(p) for p in design)


def test_latin_hypercube_stratifies_each_dimension():
    rng = np.random.default_rng(1)
    cube = mb.latin_hypercube(rng, 8, 3)
    assert cube.shape == (8, 3)
    for j in range(3):
        strata = np.floor(cube[:, j] * 8).astype(int)
        assert sorted(strata) == list(range(8))


def test_bo_budget_below_design_returns_best_design_point(toy_problem):
    result = mb.run_bo(toy_problem, mb.BOConfig(budget=5, seed=0), progress=False)
    assert len([r for r in result.history if not r.cached]) == 5
    best = min((barrier_value(r) for r in result.history), default=math.inf)
    assert barrier_value(result.best) == best


@pytest.mark.parametrize("solver", ["direct", "bo"])
def test_an_iteration_cap_is_reported_as_the_stop_reason(toy_problem, solver):
    # BO once reported "budget" here, with 31 of its 40 evaluations left.
    if solver == "direct":
        result = mb.run_direct_search(toy_problem, mb.SearchConfig(
            budget=40, max_iterations=1, subproblem_budget=5, global_search="none"))
    else:
        result = mb.run_bo(toy_problem, mb.BOConfig(budget=40, max_iterations=2))
    assert result.stop_reason == "max_iterations"
    assert result.evaluator.budget.remaining > 0


def test_bo_sweeps_finite_domain_to_the_minimum(toy_problem, toy_brute_force):
    result = mb.run_bo(toy_problem, mb.BOConfig(budget=70, seed=0), progress=False)
    assert result.best.objective == toy_brute_force[0]
    assert result.best.feasible
    assert result.stop_reason == "exhausted"
    fresh = [r for r in result.history if not r.cached]
    assert len(fresh) == 60  # exclusion forces full coverage


def test_bo_is_deterministic(tmp_path, toy_problem):
    blobs = []
    for name in ("a.csv", "b.csv"):
        result = mb.run_bo(toy_problem, mb.BOConfig(budget=25, seed=2), progress=False)
        path = tmp_path / name
        mb.write_history(toy_problem.domain, toy_problem.constraints,
                         result.history, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_bo_acquisition_log_schema(tmp_path, toy_problem):
    result = mb.run_bo(toy_problem, mb.BOConfig(budget=15, seed=0), progress=False)
    path = tmp_path / "aux.csv"
    write_acquisition_log(result.acquisition_log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,meta,acquisition,surrogate_feasible"
    assert len(lines) == len(result.acquisition_log) + 1
    first = lines[1].split(",")
    assert first[1].startswith("m=")
    assert first[3] in ("true", "false")


def test_acquisition_log_renders_meta_like_the_history(tmp_path):
    # Float and bool labels once read "lr=0.1;warm=True" in the acquisition
    # log but "0.10000000000000001" and "true" in the history of one run.
    domain = mb.Domain([
        mb.VariableSpec("lr", mb.VariableType.META_CATEGORICAL, mb.Role.META,
                        mb.CategoricalScope((0.1, 0.25))),
        mb.VariableSpec("warm", mb.VariableType.META_CATEGORICAL, mb.Role.META,
                        mb.CategoricalScope((True, False))),
        mb.VariableSpec("x", mb.VariableType.INTEGER, mb.Role.GLOBAL,
                        mb.IntegerScope(0, 3)),
    ])
    problem = mb.Problem(domain=domain, constraints=mb.ConstraintSystem(domain, []),
                         objective=lambda p: (p.standard["x"] + p.meta["lr"], {}))
    result = mb.run_bo(problem, mb.BOConfig(budget=14, seed=0))
    history, log = tmp_path / "history.csv", tmp_path / "aux.csv"
    mb.write_history(domain, problem.constraints, result.history, history)
    write_acquisition_log(result.acquisition_log, log)
    rows = [line.split(",") for line in history.read_text().splitlines()]
    lr, warm = rows[0].index("lr"), rows[0].index("warm")
    history_metas = {f"lr={cells[lr]};warm={cells[warm]}" for cells in rows[1:]}
    logged = {line.split(",")[1] for line in log.read_text().splitlines()[1:]}
    assert logged and logged <= history_metas
    assert "lr=0.10000000000000001;warm=true" in history_metas


def test_bo_surrogate_feasibility_flags_recorded(toy_problem):
    result = mb.run_bo(toy_problem, mb.BOConfig(budget=40, seed=1), progress=False)
    assert result.acquisition_log
    assert all(isinstance(row.surrogate_feasible, bool)
               for row in result.acquisition_log)


def test_bo_kernel_overrides_from_run_config(toy_problem):
    cfg = mb.BOConfig(budget=12, seed=0,
                      kernel={"meta_correlations": {"m": 0.25},
                              "ordinal_lengthscales": {"s": 2.0}})
    result = mb.run_bo(toy_problem, cfg, progress=False)
    assert len(result.history) >= 12


def test_kernel_overrides_are_validated(toy_problem):
    domain = toy_problem.domain
    merged = mb.default_kernel_config(domain, overrides={"meta_correlations": {"m": 0.3}})
    assert merged.meta_correlations["m"] == 0.3
    # run_bo checks the overrides (see test_bad_kernel_overrides_are_rejected)
    # before its first evaluation.
    calls = []
    problem = dataclasses.replace(toy_problem,
                                  objective=lambda p: calls.append(p) or (0.0, {}))
    with pytest.raises(mb.KernelDomainError):
        mb.run_bo(problem, mb.BOConfig(budget=5, kernel={"nominal_correlations": {"x": 0.2}}))
    assert calls == []


def test_bo_requires_enumerable_meta_set():
    domain = mb.Domain([
        mb.VariableSpec("freq", mb.VariableType.META_CONTINUOUS, mb.Role.META,
                        mb.ContinuousScope(0.0, 1.0)),
        mb.VariableSpec("x", mb.VariableType.INTEGER, mb.Role.GLOBAL,
                        mb.IntegerScope(0, 3)),
    ])
    system = mb.ConstraintSystem(domain, [])
    problem = mb.Problem(domain=domain, constraints=system,
                         objective=lambda p: (float(p.standard["x"]), {}))
    with pytest.raises(mb.ConfigurationError):
        mb.run_bo(problem, mb.BOConfig(budget=5, seed=0), progress=False)
    with pytest.raises(mb.ConfigurationError):
        mb.run_direct_search(problem, mb.SearchConfig(budget=5), progress=False)


POSITIVE_BO_COUNTS = ["budget", "max_iterations", "acq_starts", "acq_budget",
                      "categorical_cap"]
BO_COUNTS = POSITIVE_BO_COUNTS + ["enumeration_cap", "refit_full_until", "refit_every",
                                  "fit_sweeps"]


@pytest.mark.parametrize("value, field", [
    *itertools.product([0, -1], POSITIVE_BO_COUNTS),
    *itertools.product([-1], BO_COUNTS[len(POSITIVE_BO_COUNTS):]),
    *itertools.product([2.5, True], BO_COUNTS)])
def test_bo_config_rejects_values_that_would_end_the_run(field, value):
    # acq_starts=0 once ended BO on mlp after its initial design, stop reason
    # "exhausted", though the domain is continuous.  A fractional count once
    # raised a raw TypeError mid-run, and max_iterations=True ran one
    # iteration.
    with pytest.raises(mb.ConfigurationError, match=field):
        mb.BOConfig(**{"budget": 40, field: value})


def test_bo_never_reports_a_nan_best(toy_problem):
    result = mb.run_bo(nan_objective_at_k2(toy_problem), mb.BOConfig(budget=60, seed=0))
    assert math.isfinite(result.best.objective)
    assert any(r.error is not None for r in result.history)


def test_bo_charges_each_failing_point_once(toy_problem, toy_brute_force):
    # The iteration cap only ends a run that proposes failed points forever.
    cfg = mb.BOConfig(budget=60, seed=0, max_iterations=120)
    result = mb.run_bo(nan_objective_at_k2(toy_problem), cfg)
    charged = charged_failures(result.history)
    assert charged and max(charged.values()) == 1
    # Every proposal is a point neither evaluated nor failed, so each costs budget.
    assert len(result.acquisition_log) < 60
    assert barrier_value(result.best) == toy_brute_force[0]


def test_every_model_trains_on_the_fresh_successful_records(monkeypatch, toy_problem):
    # Failures (k == 2) and cache hits train no model: each GPModel of the run
    # holds the fresh records without errors so far, in history order.
    evaluators, trained = [], []

    class RecordingEvaluator(mb.Evaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            evaluators.append(self)

    build = bayesian.GPModel

    def recording_model(domain, points, values, *args):
        want = [(r.point, r.objective) for r in evaluators[0].history
                if not r.cached and r.error is None]
        trained.append((list(zip(points, values)), want,
                        any(r.error is not None for r in evaluators[0].history)))
        return build(domain, points, values, *args)

    monkeypatch.setattr(bayesian, "Evaluator", RecordingEvaluator)
    monkeypatch.setattr(bayesian, "GPModel", recording_model)
    result = mb.run_bo(nan_objective_at_k2(toy_problem), mb.BOConfig(budget=40, seed=0))
    assert len(trained) >= len(result.acquisition_log) > 1
    assert any(failed for _, _, failed in trained) and any(r.cached for r in result.history)
    for got, want, _ in trained:
        assert got == want


def test_bo_refits_a_kernel_config_that_stops_factorizing(monkeypatch, mlp_problem):
    # Past refit_full_until the config is reused between refits.  When a
    # reused config does not factorize on the current samples, the run
    # refits at that sample count instead of raising or stopping.
    cfg = mb.BOConfig(budget=60, seed=1)
    fits, failed = [], []
    fit, build = bayesian.fit_hyperparameters, bayesian.GPModel

    def recording_fit(domain, points, *args, **kwargs):
        fits.append(len(points))
        return fit(domain, points, *args, **kwargs)

    def failing_once_model(domain, points, values, config):
        reused = bool(fits) and fits[-1] < len(points)
        if reused and len(points) > cfg.refit_full_until and not failed:
            failed.append(len(points))
            raise mb.FactorizationError("kernel matrix stayed indefinite")
        return build(domain, points, values, config)

    monkeypatch.setattr(bayesian, "fit_hyperparameters", recording_fit)
    monkeypatch.setattr(bayesian, "GPModel", failing_once_model)
    result = mb.run_bo(mlp_problem, cfg)
    assert failed and failed[0] in fits
    assert result.stop_reason == "budget"
    assert result.evaluator.budget.used == cfg.budget
    assert math.isfinite(result.best.objective)


def test_bo_ends_when_no_model_factorizes(toy_problem, monkeypatch):
    def unfactorizable(*args, **kwargs):
        raise mb.FactorizationError("kernel matrix stayed indefinite")

    monkeypatch.setattr("metabox.bayesian.GPModel", unfactorizable)
    result = mb.run_bo(toy_problem, mb.BOConfig(budget=20, seed=0))
    assert result.stop_reason == "factorization"
    assert not result.acquisition_log
    assert math.isfinite(result.best.objective)


# sha256 of the history CSV and the acquisition log of run_bo (budget 60),
# per (problem, solver seed).
BO_RUN_SHA256 = {
    ("mlp", 0): ("106161aeddeb9d8bc8628b03030196974989f14ab0e19b6f6cf98309fd4fecfe",
                 "4ebfef1785bd774a85ca2ab946cd5d7a14fb2ea406c09fc1c604a429a689b826"),
    ("mlp", 1): ("72f88ba836052e549291dba4c89bbf089d47888219320cd35d2126b643e5d1a3",
                 "83a7a270bdad52e83b7e48571fd930c650ac630fde9c2662718f121883a8360e"),
    ("mlp", 2): ("7713ea64744b637815e5ba23a6b2d0ab8d5de9c868e909b31aef02d44367b07e",
                 "3f0cc9b6f1feab82c963b5c30217c65fa7b14a900caaf555b73c0f87b08ebcec"),
    ("mlp", 3): ("149e2b0f660147d9535b7889aaf29b01f556e527289555261e4dfba00c268ede",
                 "38a07662cf379fe4403bb503feda5f14df32bca439c93257bfb8617c1b096de9"),
    ("toy", 1): ("da20513d57759da8bd87fac9ef254dfa4dab640331a092f0d08603e44b4922ac",
                 "5c0961491eb562d8f031c0c1a9be189aea67a0f68b944ceeb88e83f912f80573"),
}


def bo_run_digests(tmp_path, problem, cfg):
    """sha256 of the history CSV and the acquisition log of one run_bo."""
    result = mb.run_bo(problem, cfg)
    history, log = tmp_path / "history.csv", tmp_path / "acquisition.csv"
    mb.write_history(problem.domain, problem.constraints, result.history, history)
    write_acquisition_log(result.acquisition_log, log)
    return (hashlib.sha256(history.read_bytes()).hexdigest(),
            hashlib.sha256(log.read_bytes()).hexdigest())


@pytest.mark.parametrize("name, seed", sorted(BO_RUN_SHA256))
def test_bo_run_matches_golden_digest(tmp_path, mlp_problem, toy_problem, name, seed):
    """Fixed-seed BO histories and acquisition logs stay byte-identical.

    Performance work and refactors must not change which points are
    proposed or how they are recorded.  A change that alters a digest on
    purpose updates ``BO_RUN_SHA256`` and explains the change in CHANGES.md.
    """
    problem = mlp_problem if name == "mlp" else toy_problem
    assert (bo_run_digests(tmp_path, problem, mb.BOConfig(budget=60, seed=seed))
            == BO_RUN_SHA256[name, seed])
