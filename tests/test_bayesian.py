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
from metabox.gp import PairTensors, SampleFeatures
from metabox.blackbox import barrier_value
from metabox.domain import denormalize
from conftest import charged_failures, nan_objective_at_k2, parse_bundled, random_point

ADAM2 = mb.MetaComponent({"l": 2, "o": "Adam"})


# -- encoders ---------------------------------------------------------------------

def test_one_hot_encodes_nominal_as_basis_vector(mlp_domain):
    encoder = mb.Encoder(mlp_domain, "one-hot")
    assert np.array_equal(encoder.encode({"a": 1}, ADAM2), [1.0, 0.0])
    assert np.array_equal(encoder.encode({"a": 2}, ADAM2), [0.0, 1.0])


def test_identity_encoder_passes_indices_through(mlp_domain):
    encoder = mb.Encoder(mlp_domain, "identity")
    assert np.array_equal(encoder.encode({"a": 2}, ADAM2), [2.0])


def test_ordinal_index_encoder_on_three_level_scope(toy_problem):
    encoder = mb.Encoder(toy_problem.domain, "ordinal-index")
    xm = mb.MetaComponent({"m": "A"})
    encoded = encoder.encode({"pA": 1, "s": 3}, xm)
    assert np.array_equal(encoded, [1.0, 3.0])


def test_decode_one_hot_argmax_and_ties(mlp_domain):
    encoder = mb.Encoder(mlp_domain, "one-hot")
    assert encoder.decode([1.0, 0.0], ADAM2) == {"a": 1}
    assert encoder.decode([0.6, 0.4], ADAM2) == {"a": 1}
    assert encoder.decode([0.4, 0.6], ADAM2) == {"a": 2}
    assert encoder.decode([0.5, 0.5], ADAM2) == {"a": 1}  # tie -> lowest index


def test_decode_index_rounds_and_clamps(toy_problem):
    encoder = mb.Encoder(toy_problem.domain, "ordinal-index")
    xm = mb.MetaComponent({"m": "A"})
    assert encoder.decode([1.2, 2.6], xm) == {"pA": 1, "s": 3}
    assert encoder.decode([0.0, 9.0], xm) == {"pA": 1, "s": 3}


def test_decode_rejects_wrong_length(mlp_domain):
    encoder = mb.Encoder(mlp_domain, "one-hot")
    with pytest.raises(mb.ShapeError):
        encoder.decode([1.0], ADAM2)


def test_encode_rejects_nonacting_variables(toy_problem):
    encoder = mb.Encoder(toy_problem.domain, "identity")
    with pytest.raises(mb.DecreeViolationError):
        encoder.encode({"pA": 1, "pB": 1, "s": 1}, mb.MetaComponent({"m": "A"}))


def test_decode_encode_identity_exhaustive(mlp_domain, toy_problem):
    cases = [(mlp_domain, mlp_domain.enumerate_meta_set()),
             (toy_problem.domain, toy_problem.domain.enumerate_meta_set())]
    for kind in ("identity", "one-hot", "ordinal-index"):
        for domain, metas in cases:
            for xm in metas:
                ids = domain.acting_index_set(xm, "categorical")
                axes = [range(1, domain.spec(v).scope.size + 1) for v in ids]
                for combo in itertools.product(*axes):
                    xq = dict(zip(ids, combo))
                    encoder = mb.Encoder(domain, kind)
                    assert encoder.decode(encoder.encode(xq, xm), xm) == xq


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

def bo_pieces(problem, points, values, encoder=None):
    config = mb.default_kernel_config(problem.domain, encoder=encoder)
    return mb.GPModel(problem.domain, points, values, config, encoder)


def test_pick_keeps_earlier_candidate_on_ties(toy_problem):
    # Trained under m=A only, the model correlates every m=B point with the
    # samples through the meta factor alone, so all m=B points tie on EI.
    domain = toy_problem.domain
    under_a = [p for p in mb.enumerate_domain_points(domain) if p.meta["m"] == "A"][:4]
    model = bo_pieces(toy_problem, under_a, [1.0, 2.0, 3.0, 4.0])
    candidates = _Candidates(model, toy_problem.constraints, {}, [], 1.0)
    xm = mb.MetaComponent({"m": "B"})
    late = candidates.score(1, xm, np.array([[2, 3]]), np.array([[4.0]]), 0, 2, 0)
    early = candidates.score(1, xm, np.array([[1, 1], [2, 2]]), np.array([[0.0], [1.0]]),
                             0, 1, np.array([1, 0]))
    assert late[0] == early[0] == early[1] > 0.0
    pick = candidates.pick()
    assert (pick.categorical, pick.standard) == ({"pB": 2, "s": 2}, {"k": 1})
    later = candidates.score(1, xm, np.array([[1, 3]]), np.array([[3.0]]), 9, 9, 9)
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


def sequential_acquisition(model, system, constraint_models, evaluated, f_star, cfg, rng):
    """Reference acquisition: one pattern search at a time over Point objects.

    Every candidate is scored in a batch of its own search step, offered in
    sequential order (meta, categorical component, start, step, position),
    and kept only when its EI strictly beats the best so far.  Returns the
    pick as (point, EI, surrogate-feasible), or None, and every scored
    candidate as (point, EI, surrogate-feasible, fresh) in sequential order.
    """
    domain = model.domain
    excluded = {mb.cache_key(p) for p in evaluated}
    best = {"feasible": (-math.inf, None), "any": (-math.inf, None)}
    scored = []

    def offer(points):
        mean, variance = model.predict_batch(points)
        ei = mb.expected_improvement(mean, np.sqrt(variance), f_star)
        for point, value in zip(points, ei):
            means = [float(constraint_models[c.id].mean_batch([point])[0])
                     if c.id in constraint_models else 0.0
                     for c in system.acting_constraints(point.meta)]
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
    """Model and constraint surrogates fit on ``samples`` random points.

    Each constraint surrogate comes twice: as a row view of the model, the
    way run_bo builds it, and as a standalone GPModel on its own samples.
    """
    domain = problem.domain
    rng = np.random.default_rng(seed)
    evaluator = mb.Evaluator(problem, samples)
    while evaluator.budget.remaining:
        evaluator.evaluate(random_point(domain, rng))
    records = [r for r in evaluator.history if not r.cached]
    points = [r.point for r in records]
    values = [r.objective for r in records]
    encoder = None  # matrix mode
    config = mb.fit_hyperparameters(domain, points, values, seed=seed, encoder=encoder)
    model = mb.GPModel(domain, points, values, config, encoder)
    views, standalone = {}, {}
    for spec in problem.constraints.constraints:
        rows = [i for i, r in enumerate(records) if spec.id in r.constraints]
        if rows:
            vals = [records[i].constraints[spec.id] for i in rows]
            views[spec.id] = model.row_view(rows, vals)
            standalone[spec.id] = mb.GPModel(domain, [points[i] for i in rows], vals,
                                             config, encoder)
    return model, views, standalone, points, min(values)


@pytest.mark.parametrize("name, samples, seed",
                         [("mlp", 20, 0), ("mlp", 30, 4), ("toy", 12, 1)])
def test_lockstep_acquisition_matches_sequential_searches(monkeypatch, name, samples, seed):
    problem = parse_bundled(name).problem
    model, views, standalone, points, f_star = acquisition_case(problem, samples, seed)
    cfg = mb.BOConfig(budget=10, acq_budget=24, acq_starts=3)
    pools = []
    pick = _Candidates.pick
    monkeypatch.setattr(_Candidates, "pick", lambda self: pools.append(self) or pick(self))
    got = mb.maximize_acquisition(model, problem.constraints, views,
                                  points, f_star, cfg, np.random.default_rng(seed))
    want, scored = sequential_acquisition(model, problem.constraints, standalone,
                                          points, f_star, cfg, np.random.default_rng(seed))
    assert (got.point(), got.acquisition, got.surrogate_feasible) == want
    # Every candidate of every search, in sequential order, scores the same.
    rows = [(b.order[i], b, i) for b in pools[0]._batches for i in range(len(b.ei))]
    rows.sort(key=lambda r: tuple(r[0]))
    lockstep = []
    for _, batch, i in rows:
        candidate = pools[0]._candidate(batch, i)
        lockstep.append((candidate.point(), candidate.acquisition,
                         candidate.surrogate_feasible, bool(batch.fresh[i])))
    assert lockstep == scored
    assert any(not s[2] for s in scored) or name == "toy"


@pytest.mark.parametrize("name", ["mlp", "toy"])
def test_each_scored_batch_builds_one_pair_tensor(monkeypatch, name):
    # On the finite-domain (toy) path each scored batch builds one PairTensors.
    # A pattern search (mlp) builds one, at its centers, and its polls reuse
    # it.  The objective and every constraint view share each cross-covariance.
    events = []
    init, score, search = PairTensors.__init__, _Candidates.score, bayesian._pattern_search

    def counting_init(self, *args):
        events.append("P")
        init(self, *args)

    def counting_score(self, *args, **kwargs):
        events.append("S")
        return score(self, *args, **kwargs)

    def counting_search(*args):
        events.append("[")
        search(*args)
        events.append("]")

    monkeypatch.setattr(PairTensors, "__init__", counting_init)
    monkeypatch.setattr(_Candidates, "score", counting_score)
    monkeypatch.setattr(bayesian, "_pattern_search", counting_search)
    pattern = {"mlp": r"(\[PSS+\])+", "toy": r"(SP)+"}[name]
    problem = parse_bundled(name).problem
    model, views, _, points, f_star = acquisition_case(problem, 20, 2)
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
    model = mb.GPModel(domain, points, values, mb.default_kernel_config(domain),
                       encoder=None)
    return model, points, min(values)


@pytest.mark.parametrize("case", ["matrix", "encoded", "adam-only"])
def test_poll_kappa_equals_a_fresh_cross_covariance(monkeypatch, mlp_problem, case):
    domain = mlp_problem.domain
    if case == "adam-only":
        model, points, f_star = adam_only_case(mlp_problem, 12, 5)
    else:
        model, _, _, points, f_star = acquisition_case(mlp_problem, 20, 3)
        if case == "encoded":
            encoder = mb.Encoder(domain, "one-hot")
            model = mb.GPModel(domain, points, model.values,
                               mb.default_kernel_config(domain, encoder=encoder), encoder)
    scored = []
    score = _Candidates.score

    def recording_score(self, meta_index, xm, categorical, standard, search, step, position,
                        kappa=None):
        scored.append((xm, categorical, standard, kappa))
        return score(self, meta_index, xm, categorical, standard, search, step, position,
                     kappa)

    monkeypatch.setattr(_Candidates, "score", recording_score)
    mb.maximize_acquisition(model, mlp_problem.constraints, {}, points, f_star,
                            mb.BOConfig(budget=10, acq_budget=24, acq_starts=2),
                            np.random.default_rng(1))
    for xm, categorical, standard, kappa in scored:
        assert kappa.kappa.flags.c_contiguous
        fresh = model.cross_covariance(SampleFeatures.from_arrays(
            domain, xm, categorical, standard, model.encoder))
        assert np.array_equal(kappa.kappa, fresh)
    assert {xm["o"] for xm, _, _, _ in scored} == {"Adam", "ASGD"}
    # Integer columns (u1..u3) and continuous ones were both polled.
    std = np.vstack([standard for xm, _, standard, _ in scored if xm == ADAM2])
    assert len(np.unique(std[:, 1])) > 2 and len(np.unique(std[:, 0])) > 2
    if case == "adam-only":
        ids = domain.acting_index_set(mb.MetaComponent({"l": 2, "o": "ASGD"}), "standard")
        lam = ids.index("lam")
        asgd = [s for xm, _, s, _ in scored if xm["o"] == "ASGD"]
        assert any(len(np.unique(s[:, lam])) > 1 for s in asgd)


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


def tuple_fresh(domain, evaluated, batch):
    """The per-row tuple-set check that the array comparison replaced."""
    cat_ids = domain.acting_index_set(batch.xm, "categorical")
    std_ids = domain.acting_index_set(batch.xm, "standard")
    done = {tuple(p.categorical[v] for v in cat_ids) + tuple(p.standard[v] for v in std_ids)
            for p in evaluated if p.meta == batch.xm}
    rows = np.hstack([batch.categorical, batch.standard]).tolist()
    return [tuple(row) not in done for row in rows]


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
    candidates.score(0, a, np.zeros((4, 0), dtype=int),
                     np.array([[-0.0], [0.0], [1.0], [2.0]]), 9, 9, np.arange(4))
    candidates.score(1, b, np.zeros((1, 0), dtype=int), np.zeros((1, 0)), 9, 9, 0)
    candidates.score(2, c, np.zeros((1, 0), dtype=int), np.zeros((1, 0)), 9, 9, 0)
    assert [list(batch.fresh) for batch in candidates._batches[-3:]] == [
        [False, False, False, True], [False], [True]]
    for batch in candidates._batches:
        assert list(batch.fresh) == tuple_fresh(domain, evaluated, batch)
    assert {batch.xm for batch in candidates._batches} == {a, b, c}


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


def test_bo_encoded_mode_end_to_end(toy_problem, toy_brute_force):
    cfg = mb.BOConfig(budget=70, seed=0, categorical_mode="encoded",
                      encoder_kind="one-hot")
    result = mb.run_bo(toy_problem, cfg, progress=False)
    assert result.best.objective == toy_brute_force[0]


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
    *itertools.product([2.5, True], BO_COUNTS),
    ("x", "categorical_mode")])
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


def test_bo_refits_a_kernel_config_that_stops_factorizing(mlp_problem):
    # Past refit_full_until the config is reused; the one fitted at 55
    # samples does not factorize at 59, so the run refits instead of raising.
    cfg = mb.BOConfig(budget=60, seed=1, categorical_mode="encoded",
                      encoder_kind="one-hot")
    result = mb.run_bo(mlp_problem, cfg)
    assert result.stop_reason == "budget"
    assert result.evaluator.budget.used == 60
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
                 "3f47d66ed7364695b912cd73350b90e6ea0c4db752429bbd90dea08f45504a87"),
    ("toy", 1): ("da20513d57759da8bd87fac9ef254dfa4dab640331a092f0d08603e44b4922ac",
                 "8fae0168e278528e04fe584fccf43c02c2054a14f7b0c90753ed9b32fa340b0d"),
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


# The same digests of run_bo in encoded mode with the one-hot encoder
# (budget 40), per (problem, solver seed).
ENCODED_BO_RUN_SHA256 = {
    ("mlp", 1): ("8ef6f313d284a1512fe90ed04fa1d4ae1ecd6cb46b340ea920054033e7ac9956",
                 "1a36ed4b2a0aff2673eb49ecb23533533871a2f50c421bf61e5b0fb0e752d185"),
    ("toy", 0): ("ab46960276374764a503031c781dffd8060744b8e053a0c8b944405ad668b64a",
                 "06b1b8325798a59cebfaa631ee08ce5201fa6f9891c19ef6c251199110cc458a"),
}


@pytest.mark.parametrize("name, seed", sorted(ENCODED_BO_RUN_SHA256))
def test_encoded_bo_run_matches_golden_digest(tmp_path, mlp_problem, toy_problem,
                                              name, seed):
    problem = mlp_problem if name == "mlp" else toy_problem
    cfg = mb.BOConfig(budget=40, seed=seed, categorical_mode="encoded",
                      encoder_kind="one-hot")
    assert bo_run_digests(tmp_path, problem, cfg) == ENCODED_BO_RUN_SHA256[name, seed]
