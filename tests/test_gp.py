import math

import numpy as np
import pytest

import metabox as mb
from scipy import linalg

from metabox import gp
from metabox.domain import normalize, round_half_away
from metabox.gp import (JITTER_FRACTION, CrossFactors, PairTensors, SampleFeatures,
                        correlation_matrix, log_marginal_likelihood)
from conftest import ScalarKernel, parse_bundled, random_point, row_arrays

ADAM2 = mb.MetaComponent({"l": 2, "o": "Adam"})
ADAM3 = mb.MetaComponent({"l": 3, "o": "Adam"})
ASGD2 = mb.MetaComponent({"l": 2, "o": "ASGD"})


@pytest.fixture(scope="module")
def small_domain():
    # Scopes chosen so range normalization is the identity on every variable.
    return mb.Domain([
        mb.VariableSpec("g", mb.VariableType.META_INTEGER, mb.Role.META,
                        mb.IntegerScope(0, 1)),
        mb.VariableSpec("c1", mb.VariableType.CONTINUOUS, mb.Role.GLOBAL,
                        mb.ContinuousScope(0.0, 1.0)),
        mb.VariableSpec("c2", mb.VariableType.CONTINUOUS, mb.Role.GLOBAL,
                        mb.ContinuousScope(0.0, 1.0)),
        mb.VariableSpec("z1", mb.VariableType.INTEGER, mb.Role.GLOBAL,
                        mb.IntegerScope(1, 2)),
        mb.VariableSpec("n1", mb.VariableType.NOMINAL, mb.Role.GLOBAL,
                        mb.CategoricalScope(("p", "q"))),
        mb.VariableSpec("o1", mb.VariableType.ORDINAL, mb.Role.GLOBAL,
                        mb.CategoricalScope(("s", "m", "l"))),
    ])


@pytest.fixture(scope="module")
def small_kernel(small_domain):
    config = mb.default_kernel_config(small_domain)
    return ScalarKernel(small_domain, config)


G0 = mb.MetaComponent({"g": 0})


# -- continuous kernel -------------------------------------------------------------

def test_continuous_kernel_identical_inputs(small_kernel):
    x = {"c1": 0.3, "c2": 0.8}
    assert small_kernel.k_continuous(x, dict(x), G0) == 1.0


def test_continuous_kernel_unit_distance(small_kernel):
    k = small_kernel.k_continuous({"c1": 0.0, "c2": 0.5},
                                  {"c1": 1.0, "c2": 0.5}, G0)
    assert np.isclose(k, math.exp(-1.0))


def test_continuous_kernel_weighted_sum(small_domain):
    config = mb.default_kernel_config(small_domain)
    config.continuous_weights["c2"] = 2.0
    kernel = ScalarKernel(small_domain, config)
    k = kernel.k_continuous({"c1": 0.0, "c2": 0.0}, {"c1": 1.0, "c2": 1.0}, G0)
    assert np.isclose(k, math.exp(-3.0))


def test_continuous_kernel_dimension_mismatch(small_kernel):
    with pytest.raises(mb.KernelDomainError):
        small_kernel.k_continuous({"c1": 0.0}, {"c1": 0.0, "c2": 1.0}, G0)


# -- integer kernel -----------------------------------------------------------------

def test_integer_kernel_rounding_plateau(mlp_domain):
    kernel = ScalarKernel(mlp_domain, mb.default_kernel_config(mlp_domain))
    x = {"u1": 200.4, "u2": 150}
    y = {"u1": 200.49, "u2": 150}
    assert kernel.k_integer(x, y, ADAM2) == 1.0


def test_integer_kernel_adjacent_values(small_kernel):
    # scope width 1, so normalization leaves the unit gap intact
    assert np.isclose(small_kernel.k_integer({"z1": 1}, {"z1": 2}, G0), math.exp(-1.0))


def test_integer_kernel_exact_equality(small_kernel):
    assert small_kernel.k_integer({"z1": 2}, {"z1": 2}, G0) == 1.0


def test_integer_rounding_is_half_away_from_zero():
    assert mb.domain.round_half_away(2.5) == 3
    assert mb.domain.round_half_away(-2.5) == -3
    assert mb.domain.round_half_away(2.49) == 2


# -- standard kernel -----------------------------------------------------------------

def test_standard_kernel_is_product(small_kernel):
    x = {"c1": 0.0, "c2": 0.5, "z1": 1}
    y = {"c1": 1.0, "c2": 0.5, "z1": 2}
    expected = (small_kernel.k_integer({"z1": 1}, {"z1": 2}, G0)
                * small_kernel.k_continuous({"c1": 0.0, "c2": 0.5},
                                            {"c1": 1.0, "c2": 0.5}, G0))
    assert np.isclose(small_kernel.k_standard(x, y, G0), expected)
    assert np.isclose(small_kernel.k_standard(x, y, G0), math.exp(-2.0))


def test_standard_kernel_identity(small_kernel):
    x = {"c1": 0.25, "c2": 0.5, "z1": 1}
    assert small_kernel.k_standard(x, dict(x), G0) == 1.0


# -- categorical kernel ----------------------------------------------------------------

def test_matrix_mode_identical_components(small_kernel):
    x = {"n1": 1, "o1": 2}
    assert small_kernel.k_categorical(x, dict(x), G0) == 1.0


def test_matrix_mode_nominal_offdiagonal(small_kernel):
    k = small_kernel.k_categorical({"n1": 1, "o1": 2}, {"n1": 2, "o1": 2}, G0)
    assert k == 0.5  # compound symmetry off-diagonal


def test_matrix_mode_ordinal_squared_exponential(small_kernel):
    k = small_kernel.k_categorical({"n1": 1, "o1": 1}, {"n1": 1, "o1": 3}, G0)
    assert np.isclose(k, math.exp(-2.0))  # (1-3)^2 / (2 * 1^2)


def test_config_of_another_domain_is_a_kernel_domain_error(mlp_domain, small_domain):
    points = [small_domain.complete_point(G0, {"c1": c}) for c in (0.2, 0.7)]
    with pytest.raises(mb.KernelDomainError, match="no .* entry for"):
        mb.GPModel(small_domain, points, [0.0, 1.0], mb.default_kernel_config(mlp_domain))
    with pytest.raises(mb.KernelDomainError):
        mb.fit_hyperparameters(small_domain, points, [0.0, 1.0],
                               base=mb.default_kernel_config(mlp_domain))


@pytest.mark.parametrize("overrides, match", [
    ({"meta_correlations": {"o": 1.5}}, "must be a number in"),
    ({"meta_correlations": {"oo": 0.2}}, "meta_correlations"),
    ({"meta_correlation": {"o": 0.2}}, "meta_correlation"),
    ({"categorical_weights": {"a": 2.0}}, "categorical_weights"),
    ({"meta_correlations": 0.3}, "meta_correlations"),
    ({"meta_correlations": {"o": "x"}}, "must be a number"),
    ({"meta_weights": {"l": True}}, "must be a positive number"),
    ({"signal_variance": "x"}, "signal variance"),
    ({"signal_variance": False}, "signal variance"),
    (3, "must be an object"),
], ids=["out-of-bounds", "unknown-id", "unknown-table", "other-mode-table", "table-not-object",
        "string-value", "bool-value", "string-variance", "bool-variance", "not-object"])
def test_bad_kernel_overrides_are_rejected(mlp_domain, overrides, match):
    with pytest.raises(mb.KernelDomainError, match=match):
        mb.default_kernel_config(mlp_domain, overrides=overrides)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0])
def test_kernel_config_requires_finite_positive_values(mlp_domain, value):
    # An infinite weight once made the kernel factors NaN without an error.
    for table in ("continuous_weights", "integer_weights", "meta_weights",
                  "ordinal_lengthscales"):
        with pytest.raises(mb.KernelDomainError, match=rf"{table}\['v'\] must be a positive"):
            mb.KernelConfig(**{table: {"v": value}})
    with pytest.raises(mb.KernelDomainError, match="signal variance"):
        mb.KernelConfig(signal_variance=value)
    with pytest.raises(mb.KernelDomainError, match="signal variance"):
        mb.default_kernel_config(mlp_domain, overrides={"signal_variance": value})


def test_default_kernel_config_takes_no_positional_mode(mlp_domain):
    with pytest.raises(TypeError):
        mb.default_kernel_config(mlp_domain, "encoded")


# -- mixed kernel ----------------------------------------------------------------------

def test_mixed_kernel_on_itself_is_signal_variance(mlp_domain):
    config = mb.default_kernel_config(mlp_domain)
    config.signal_variance = 2.5
    kernel = ScalarKernel(mlp_domain, config)
    point = mlp_domain.complete_point(ADAM2, {})
    assert np.isclose(kernel.k_mixed(point, point), 2.5)


def test_mixed_kernel_different_meta_uses_meta_factors_only(mlp_domain):
    config = mb.default_kernel_config(mlp_domain)
    config.meta_correlations["o"] = 0.3
    config.signal_variance = 2.0
    kernel = ScalarKernel(mlp_domain, config)
    x = mlp_domain.complete_point(ADAM2, {"r": 0.9})
    y = mlp_domain.complete_point(ASGD2, {"r": 0.1})  # same l, other optimizer
    assert np.isclose(kernel.k_mixed(x, y), 0.3 * 2.0)


def test_mixed_kernel_same_meta_multiplies_standard_factor(mlp_domain):
    config = mb.default_kernel_config(mlp_domain)
    config.continuous_weights["r"] = 4.0
    kernel = ScalarKernel(mlp_domain, config)
    x = mlp_domain.complete_point(ADAM2, {"r": 0.9})
    y = mlp_domain.complete_point(ADAM2, {"r": 0.4})
    assert np.isclose(kernel.k_mixed(x, y), math.exp(-1.0))  # 4 * 0.5^2


# -- property suite ------------------------------------------------------------------------

def test_kernel_symmetry_bounds_and_diagonal(mlp_domain):
    config = mb.default_kernel_config(mlp_domain)
    config.signal_variance = 1.7
    kernel = ScalarKernel(mlp_domain, config)
    rng = np.random.default_rng(123)
    for _ in range(200):
        x = random_point(mlp_domain, rng)
        y = random_point(mlp_domain, rng)
        kxy = kernel.k_mixed(x, y)
        assert abs(kxy - kernel.k_mixed(y, x)) <= 1e-12
        assert 0.0 <= kxy <= config.signal_variance + 1e-15
        assert np.isclose(kernel.k_mixed(x, x), config.signal_variance)


def test_gram_is_psd_after_jitter(mlp_domain):
    config = mb.default_kernel_config(mlp_domain)
    rng = np.random.default_rng(7)
    points = [random_point(mlp_domain, rng) for _ in range(20)]
    features = SampleFeatures(mlp_domain, points)
    gram = config.signal_variance * correlation_matrix(
        PairTensors(mlp_domain, features, features), config)
    pre = float(np.linalg.eigvalsh(gram).min())
    assert pre >= -1e-8 * config.signal_variance
    post = gram + config.jitter * np.eye(20)
    assert float(np.linalg.eigvalsh(post).min()) >= 0.0


def scalar_kernel(domain, config, x, y):
    """Independent scalar formulas of the mixed kernel, the oracle for the
    vectorized one: meta factors always, categorical and standard factors
    only between points sharing a meta component."""
    def unit(vid, value):
        return normalize(domain.spec(vid).scope, value)

    def squared_exponential(weights, a, b):
        return math.exp(-float(np.sum(np.asarray(weights) * (np.asarray(a) - np.asarray(b)) ** 2)))

    value = config.signal_variance
    for mid in domain.meta_ids:
        a, b = x.meta[mid], y.meta[mid]
        if domain.spec(mid).type == mb.VariableType.META_CATEGORICAL:
            value *= config.meta_correlations[mid] if a != b else 1.0
        else:
            value *= squared_exponential([config.meta_weights[mid]],
                                         [unit(mid, a)], [unit(mid, b)])
    if x.meta != y.meta:
        return value
    xm = x.meta
    ids = domain.acting_index_set(xm, "continuous")
    value *= squared_exponential([config.continuous_weights[v] for v in ids],
                                 [unit(v, x.standard[v]) for v in ids],
                                 [unit(v, y.standard[v]) for v in ids])
    ids = domain.acting_index_set(xm, "integer")
    value *= squared_exponential([config.integer_weights[v] for v in ids],
                                 [unit(v, round_half_away(x.standard[v])) for v in ids],
                                 [unit(v, round_half_away(y.standard[v])) for v in ids])
    for vid in domain.acting_index_set(xm, "categorical"):
        a, b = x.categorical[vid], y.categorical[vid]
        if domain.spec(vid).type == mb.VariableType.ORDINAL:
            value *= math.exp(-((a - b) ** 2) / (2.0 * config.ordinal_lengthscales[vid] ** 2))
        elif a != b:
            value *= config.nominal_correlations[vid]
    return value


def test_vectorized_matches_scalar_kernel(mlp_domain):
    config = mb.default_kernel_config(mlp_domain)
    config.signal_variance = 1.3
    kernel = ScalarKernel(mlp_domain, config)
    rng = np.random.default_rng(11)
    points = [random_point(mlp_domain, rng) for _ in range(12)]
    features = SampleFeatures(mlp_domain, points)
    gram = config.signal_variance * correlation_matrix(
        PairTensors(mlp_domain, features, features), config)
    for i in range(12):
        for j in range(12):
            expected = scalar_kernel(mlp_domain, config, points[i], points[j])
            assert abs(gram[i, j] - expected) < 1e-12
            assert abs(kernel.k_mixed(points[i], points[j]) - expected) < 1e-12


# -- prediction -------------------------------------------------------------------------------

def proxy_samples(mlp_problem, count, seed=5):
    rng = np.random.default_rng(seed)
    evaluator = mb.Evaluator(mlp_problem, count)
    points, values = [], []
    while len(points) < count:
        point = random_point(mlp_problem.domain, rng)
        if point in points:
            continue
        record = evaluator.evaluate(point)
        points.append(point)
        values.append(record.objective)
    return points, values


def test_interpolation_at_sample_points(mlp_problem):
    points, values = proxy_samples(mlp_problem, 15)
    config = mb.fit_hyperparameters(mlp_problem.domain, points, values, seed=0)
    model = mb.GPModel(mlp_problem.domain, points, values, config)
    mean, variance = model.predict_batch(points)
    for m, v, f in zip(mean, variance, values):
        assert abs(m - f) <= 1e-6 * (1 + abs(f))
        assert v <= 1e-8 * config.signal_variance


def test_prior_recovered_far_from_samples(mlp_domain):
    config = mb.default_kernel_config(mlp_domain)
    config.meta_correlations["o"] = 0.0
    config.signal_variance = 3.0
    points = [mlp_domain.complete_point(ADAM2, {"u1": u}) for u in (150, 250)]
    model = mb.GPModel(mlp_domain, points, [1.0, 2.0], config)
    far = mlp_domain.complete_point(mb.MetaComponent({"l": 3, "o": "ASGD"}), {})
    (mean,), (variance,) = model.predict_batch([far])
    assert abs(mean) <= 1e-12
    assert np.isclose(variance, 3.0)


def test_two_sample_prediction_matches_direct_solve(mlp_domain):
    config = mb.default_kernel_config(mlp_domain)
    kernel = ScalarKernel(mlp_domain, config)
    a = mlp_domain.complete_point(ADAM2, {"u1": 120, "r": 0.2})
    b = mlp_domain.complete_point(ADAM2, {"u1": 280, "r": 0.8})
    x = mlp_domain.complete_point(ADAM2, {"u1": 200, "r": 0.5})
    y = np.array([1.5, -0.5])
    K = np.array([[kernel.k_mixed(p, q) for q in (a, b)] for p in (a, b)])
    K += config.jitter * np.eye(2)
    kappa = np.array([kernel.k_mixed(x, a), kernel.k_mixed(x, b)])
    expected_mean = kappa @ np.linalg.solve(K, y)
    expected_var = kernel.k_mixed(x, x) - kappa @ np.linalg.solve(K, kappa)
    model = mb.GPModel(mlp_domain, [a, b], y, config)
    (mean,), (variance,) = model.predict_batch([x])
    assert np.isclose(mean, expected_mean, atol=1e-10)
    assert np.isclose(variance, expected_var, atol=1e-10)


def test_variance_clamp_never_hides_large_negatives(mlp_problem):
    points, values = proxy_samples(mlp_problem, 12, seed=9)
    config = mb.fit_hyperparameters(mlp_problem.domain, points, values, seed=1)
    model = mb.GPModel(mlp_problem.domain, points, values, config)
    kappa = model.cross_covariance(points)
    # The raw variance as predict_batch takes it: s^2 - |L^-1 kappa|^2.
    solved = linalg.solve_triangular(model._factor, kappa, lower=True)
    raw = config.signal_variance - np.sum(solved * solved, axis=0)
    assert raw.min() >= -1e-8 * config.signal_variance


@pytest.mark.parametrize("name, count, seed", [("mlp", 30, 0), ("mlp", 50, 1), ("toy", 24, 2)])
def test_one_solve_variance_matches_the_two_solve_formula(name, count, seed):
    # s^2 - |L^-1 kappa|^2 against s^2 - kappa^T K^-1 kappa, at the training
    # samples (variance near 0) and at fresh points.
    problem = parse_bundled(name).problem
    model, records = surrogate_case(problem, count, seed)
    rng = np.random.default_rng(seed)
    batch = [r.point for r in records] + [random_point(problem.domain, rng)
                                          for _ in range(40)]
    kappa = model.cross_covariance(batch)
    two_solve = model.config.signal_variance - np.sum(
        kappa * linalg.cho_solve((model._factor, True), kappa), axis=0)
    _, variance = model.predict_batch(batch)
    assert np.abs(variance - np.maximum(two_solve, 0.0)).max() <= (
        1e-10 * model.config.signal_variance)


def test_prediction_is_batch_invariant(mlp_problem):
    points, values = proxy_samples(mlp_problem, 40, seed=9)
    domain = mlp_problem.domain
    config = mb.fit_hyperparameters(domain, points[:25], values[:25], seed=0)
    model = mb.GPModel(domain, points[:25], values[:25], config)
    batch = points[25:] + points[:5]
    mean, variance = model.predict_batch(batch)
    assert np.array_equal(model.mean_batch(batch), mean)
    for i, point in enumerate(batch):
        alone_mean, alone_variance = model.predict_batch([point])
        assert (alone_mean[0], alone_variance[0]) == (mean[i], variance[i])
        assert model.mean_batch([point])[0] == mean[i]
    part_mean, part_variance = model.predict_batch(batch[1::3])
    assert np.array_equal(part_mean, mean[1::3])
    assert np.array_equal(part_variance, variance[1::3])
    # The acquisition's scorer, rows under one meta component at a time.
    view = model.row_view([0, 3, 4], values[:1] + values[3:5])
    for xm in {p.meta for p in batch}:
        rows = [p for p in batch if p.meta == xm]
        cross = CrossFactors(model, xm, *row_arrays(domain, xm, rows), [view])
        scores = cross.predict(cross.factors)
        for i in range(len(rows)):
            alone = cross.predict(cross.factors[:, :, i:i + 1])
            assert all(np.array_equal(a[..., 0], s[..., i]) for a, s in zip(alone, scores))
        if len(rows) > 1:
            part = cross.predict(cross.factors[:, :, 1::2])
            assert all(np.array_equal(p, s[..., 1::2]) for p, s in zip(part, scores))


def test_pair_tensors_build_one_tensor_per_factor(mlp_domain):
    # One slot per meta variable, meta-numeric first, then one per variable
    # acting in both sets, declaration order, keyed by its config table.
    rng = np.random.default_rng(4)
    points = [random_point(mlp_domain, rng, [ADAM2]) for _ in range(5)]
    others = [random_point(mlp_domain, rng, [ASGD2, ADAM3]) for _ in range(4)]
    pairs = PairTensors(mlp_domain, SampleFeatures(mlp_domain, points),
                        SampleFeatures(mlp_domain, others))
    config = mb.default_kernel_config(mlp_domain)
    table_of = {key: table for table, entries in config.to_dict().items()
                if isinstance(entries, dict) for key in entries}
    shared = ({v for p in points for v in [*p.categorical, *p.standard]}
              & {v for p in others for v in [*p.categorical, *p.standard]})
    assert [(table, key) for table, key, _, _ in pairs.slots] == (
        [("meta_weights", "l"), ("meta_correlations", "o")]
        + [(table_of[v.id], v.id) for v in mlp_domain.variables if v.id in shared])
    for table, key, tensor, mask in pairs.slots:
        assert tensor.shape == (5, 4)
        assert (mask is None) == mlp_domain.spec(key).type.is_meta


# -- hyperparameter fitting ----------------------------------------------------------------------

def test_fit_never_worse_than_default(mlp_problem):
    points, values = proxy_samples(mlp_problem, 10, seed=2)
    domain = mlp_problem.domain
    fitted = mb.fit_hyperparameters(domain, points, values, seed=0)
    assert (log_marginal_likelihood(domain, points, values, fitted)
            >= log_marginal_likelihood(domain, points, values,
                                       mb.default_kernel_config(domain)))


def test_fit_dominates_generating_config(mlp_domain):
    generator = mb.default_kernel_config(mlp_domain)
    generator.continuous_weights["r"] = 25.0
    generator.integer_weights["u1"] = 9.0
    generator.signal_variance = 2.0
    rng = np.random.default_rng(31)
    points = [random_point(mlp_domain, rng) for _ in range(14)]
    features = SampleFeatures(mlp_domain, points)
    gram = generator.signal_variance * correlation_matrix(
        PairTensors(mlp_domain, features, features), generator)
    gram += generator.jitter * np.eye(len(points))
    values = np.linalg.cholesky(gram) @ rng.standard_normal(len(points))
    fitted = mb.fit_hyperparameters(mlp_domain, points, list(values), seed=0)
    assert (log_marginal_likelihood(mlp_domain, points, values, fitted)
            >= log_marginal_likelihood(mlp_domain, points, values, generator))


def reference_starts(base, seed, starts):
    """The fit's start parameter vectors: ``base``, then random draws."""
    from metabox.gp import _config_slots
    rng = np.random.default_rng(seed)
    slots = _config_slots(base)
    drawn = [[getattr(base, t)[k] for t, k, _, _ in slots]]
    for _ in range(starts - 1):
        drawn.append([float(np.exp(rng.uniform(math.log(lo), math.log(hi)))) if kind == "log"
                      else float(rng.uniform(lo, hi)) for _, _, kind, (lo, hi) in slots])
    return slots, drawn


def start_config(domain, slots, params):
    config = mb.default_kernel_config(domain)
    for (table, key, _, _), value in zip(slots, params):
        getattr(config, table)[key] = value
    return config


def reference_fit(domain, points, values, seed=0, starts=8, sweeps=8, base=None):
    """Reference compass search: rebuilds correlation_matrix on every trial.

    ``base`` sets the first start (default: the default config).  The search runs from the starts whose own kernel
    matrix factorizes, or from all starts when none does.
    """
    slots, drawn = reference_starts(base or mb.default_kernel_config(domain), seed, starts)
    features = SampleFeatures(domain, points)
    pairs = PairTensors(domain, features, features)
    y = np.asarray(values, dtype=float)
    n = len(y)

    def build(params):
        return start_config(domain, slots, params)

    def profiled(config):
        matrix = correlation_matrix(pairs, config) + JITTER_FRACTION * np.eye(n)
        try:
            factor = linalg.cho_factor(matrix, lower=True)
        except linalg.LinAlgError:
            return -math.inf, None
        sigma2 = max(float(y @ linalg.cho_solve(factor, y)) / n, 1e-12)
        logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
        return (float(-0.5 * n * math.log(sigma2) - 0.5 * logdet
                      - 0.5 * n * (1 + math.log(2 * math.pi))), sigma2)

    # Only starts whose own matrix factorizes are searched, unless none does.
    live = [params for params in drawn if profiled(build(params))[0] > -math.inf]
    best_params, best_value = None, -math.inf
    for params in live or drawn:
        value = profiled(build(params))[0]
        step = 1.0
        for _ in range(sweeps):
            moved = False
            for i, (_, _, kind, (lo, hi)) in enumerate(slots):
                for direction in (1.0, -1.0):
                    trial = list(params)
                    if kind == "log":
                        trial[i] = float(np.clip(params[i] * math.exp(direction * step),
                                                 lo, hi))
                    else:
                        trial[i] = float(np.clip(params[i] + direction * 0.2 * step, lo, hi))
                    if trial[i] == params[i]:
                        continue
                    trial_value = profiled(build(trial))[0]
                    if trial_value > value:
                        params, value, moved = trial, trial_value, True
                        break
            if not moved:
                step *= 0.5
                if step < 0.05:
                    break
        if value > best_value:
            best_params, best_value = params, value
    if best_value == -math.inf:
        raise mb.FittingError("no start factorized")
    config = build(best_params)
    config.signal_variance = profiled(config)[1]
    return config


def no_meta_domain():
    return mb.Domain([
        mb.VariableSpec("c1", mb.VariableType.CONTINUOUS, mb.Role.GLOBAL,
                        mb.ContinuousScope(0.0, 1.0)),
        mb.VariableSpec("z1", mb.VariableType.INTEGER, mb.Role.GLOBAL,
                        mb.IntegerScope(0, 9)),
        mb.VariableSpec("n1", mb.VariableType.NOMINAL, mb.Role.GLOBAL,
                        mb.CategoricalScope(("p", "q", "r"))),
        mb.VariableSpec("o1", mb.VariableType.ORDINAL, mb.Role.GLOBAL,
                        mb.CategoricalScope(("s", "m", "l"))),
    ])


def fit_samples(name, count, seed):
    """Domain, points and values of ``count`` distinct random samples.

    ``mlp`` and ``toy`` evaluate their problem; ``mlp-adam2`` keeps every
    sample under one meta component; ``no-meta`` draws random values on a
    domain without meta variables.
    """
    rng = np.random.default_rng(seed)
    if name == "no-meta":
        domain = no_meta_domain()
        points = [random_point(domain, rng) for _ in range(count)]
        return domain, points, list(rng.standard_normal(count))
    problem = parse_bundled("toy" if name == "toy" else "mlp").problem
    metas = [ADAM2] if name == "mlp-adam2" else None
    evaluator = mb.Evaluator(problem, count)
    while evaluator.budget.remaining:
        evaluator.evaluate(random_point(problem.domain, rng, metas))
    records = [r for r in evaluator.history if not r.cached]
    return problem.domain, [r.point for r in records], [r.objective for r in records]


def test_acquisition_on_a_config_missing_an_entry_is_a_kernel_domain_error(mlp_problem):
    # beta1 acts in no ASGD sample, so the model builds without its weight;
    # scoring rows under o=Adam needs it.
    domain, points, values = fit_samples("mlp", 12, 0)
    keep = [i for i, p in enumerate(points) if p.meta["o"] == "ASGD"]
    config = mb.default_kernel_config(domain)
    del config.continuous_weights["beta1"]
    model = mb.GPModel(domain, [points[i] for i in keep], [values[i] for i in keep], config)
    with pytest.raises(mb.KernelDomainError,
                       match="no continuous_weights entry for 'beta1'"):
        mb.maximize_acquisition(model, mlp_problem.constraints, {}, model.points,
                                min(model.values),
                                mb.BOConfig(budget=10, acq_budget=6, acq_starts=1),
                                np.random.default_rng(0))


@pytest.mark.parametrize("name, count, seed",
                         [("mlp", 12, 0), ("mlp", 24, 3), ("toy", 10, 1), ("toy", 16, 2),
                          ("no-meta", 10, 4), ("no-meta", 12, 5), ("mlp-adam2", 12, 6),
                          ("toy", 2, 7), ("mlp", 2, 8), ("mlp", 20, 9), ("toy", 14, 10),
                          ("toy", 14, 11), ("mlp", 16, 12), ("toy", 48, 13), ("mlp", 50, 14),
                          ("mlp", 40, 15)])
def test_cached_factor_fit_matches_reference(name, count, seed, monkeypatch):
    from metabox import gp
    domain, points, values = fit_samples(name, count, seed)
    factorized, terms_of = [], gp._likelihood_terms

    def recorded(*args, **kwargs):
        terms = terms_of(*args, **kwargs)
        factorized.append(terms is not None)
        return terms

    monkeypatch.setattr(gp, "_likelihood_terms", recorded)
    got = mb.fit_hyperparameters(domain, points, values, seed=seed)
    want = reference_fit(domain, points, values, seed=seed)
    assert got.to_dict() == want.to_dict()
    if count >= 40:
        # At the sizes BO fits reach, some trials fail to factorize between
        # trials that do, so the search goes on after potrf has overwritten
        # its matrix.
        first, last = factorized.index(True), len(factorized) - factorized[::-1].index(True)
        assert not all(factorized[first:last])


def test_cached_factor_fit_fails_where_reference_fails(toy_problem):
    # Samples pairwise far apart within each meta component, coupled strongly
    # across the two: no trial of the first two starts factorizes.
    domain = toy_problem.domain
    points = [domain.complete_point(mb.MetaComponent({"m": m}), {"k": k, "s": s, p: c})
              for m, p in (("A", "pA"), ("B", "pB"))
              for k in (0, 4) for s in (1, 3) for c in (1, 2)]
    values = list(np.random.default_rng(0).standard_normal(len(points)))
    base = mb.default_kernel_config(domain)
    base.meta_correlations["m"] = 0.98
    with pytest.raises(mb.FittingError):
        mb.fit_hyperparameters(domain, points, values, seed=0, starts=2, base=base)
    with pytest.raises(mb.FittingError):
        reference_fit(domain, points, values, seed=0, starts=2, base=base)


def test_dead_fit_start_costs_one_factorization(monkeypatch):
    from metabox import gp
    domain, points, values = fit_samples("mlp", 12, 0)
    slots, drawn = reference_starts(mb.default_kernel_config(domain), 0, 8)
    configs = [start_config(domain, slots, params) for params in drawn]
    live = [log_marginal_likelihood(domain, points, values, c) > -math.inf for c in configs]
    assert live[0] and not all(live)
    calls, terms_of = [], gp._likelihood_terms
    monkeypatch.setattr(gp, "_likelihood_terms",
                        lambda *args, **kwargs: calls.append(None) or terms_of(*args, **kwargs))
    # A search from one start alone factorizes its start, its trials and the
    # final config.
    trials = []
    for config in (c for c, alive in zip(configs, live) if alive):
        calls.clear()
        mb.fit_hyperparameters(domain, points, values, starts=1, base=config)
        trials.append(len(calls) - 2)
    calls.clear()
    mb.fit_hyperparameters(domain, points, values, seed=0)
    assert len(calls) == len(drawn) + sum(trials) + 1


# The fit of fit_samples("toy", 16, 2) before trials a start had already
# evaluated were skipped: it took 291 factorizations.
TOY_FIT = {
    "continuous_weights": {}, "integer_weights": {"k": 0.5335875850040741},
    "nominal_correlations": {"pA": 0.9400000000000001, "pB": 0.9178083030479626},
    "ordinal_lengthscales": {"s": 0.6716092257666484},
    "meta_correlations": {"m": 0.3149651346092206}, "meta_weights": {},
    "signal_variance": 476.13921658535037}


def test_fit_skips_trials_its_start_already_evaluated(monkeypatch):
    # A start's value only rises, so a parameter vector it has evaluated
    # (its own, or an earlier trial's) is never accepted again: skipping it
    # saves factorizations and leaves the fitted config as it was.
    from metabox import gp
    domain, points, values = fit_samples("toy", 16, 2)
    calls, terms_of = [], gp._likelihood_terms
    monkeypatch.setattr(gp, "_likelihood_terms",
                        lambda *args, **kwargs: calls.append(None) or terms_of(*args, **kwargs))
    got = mb.fit_hyperparameters(domain, points, values, seed=2)
    assert got.to_dict() == TOY_FIT
    assert len(calls) == 248


def test_all_dead_fit_starts_are_searched():
    # Strong cross-meta coupling: no start's own matrix factorizes, and only
    # the third start's search reaches one that does.
    domain, points, values = fit_samples("mlp", 12, 0)
    base = mb.default_kernel_config(domain)
    for key in base.meta_correlations:
        base.meta_correlations[key] = 0.98
    slots, drawn = reference_starts(base, 0, 4)
    configs = [start_config(domain, slots, params) for params in drawn]
    assert all(log_marginal_likelihood(domain, points, values, c) == -math.inf
               for c in configs)
    alone = []
    for config in configs:
        try:
            alone.append(mb.fit_hyperparameters(domain, points, values, starts=1, base=config))
        except mb.FittingError:
            alone.append(None)
    assert [c is not None for c in alone] == [False, False, True, False]
    got = mb.fit_hyperparameters(domain, points, values, seed=0, starts=4, base=base)
    assert got == alone[2]
    assert got == reference_fit(domain, points, values, seed=0, starts=4, base=base)


def test_fit_handles_two_identical_values(mlp_domain):
    points = [mlp_domain.complete_point(ADAM2, {"u1": 150}),
              mlp_domain.complete_point(ADAM2, {"u1": 250})]
    config = mb.fit_hyperparameters(mlp_domain, points, [1.0, 1.0], seed=0)
    model = mb.GPModel(mlp_domain, points, [1.0, 1.0], config)
    (mean,), _ = model.predict_batch([points[0]])
    assert np.isclose(mean, 1.0, atol=1e-5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_training_values_are_rejected(mlp_problem, bad):
    points, values = proxy_samples(mlp_problem, 6, seed=2)
    values[3] = bad
    domain = mlp_problem.domain
    with pytest.raises(ValueError):
        mb.fit_hyperparameters(domain, points, values, seed=0)
    config = mb.default_kernel_config(domain)
    with pytest.raises(ValueError):
        log_marginal_likelihood(domain, points, values, config)
    with pytest.raises(ValueError):
        mb.GPModel(domain, points, values, config)
    finite = list(values)
    finite[3] = 0.0
    model = mb.GPModel(domain, points, finite, config)
    with pytest.raises(ValueError):
        model.row_view([0, 1], [1.0, bad])


@pytest.mark.parametrize("name, value", [("starts", 0), ("starts", -2), ("starts", True),
                                         ("starts", 1.5), ("sweeps", -1), ("sweeps", 2.0),
                                         ("sweeps", False)])
def test_fit_refuses_bad_counts(mlp_problem, name, value):
    points, values = proxy_samples(mlp_problem, 6, seed=2)
    with pytest.raises(mb.ConfigurationError, match=name):
        mb.fit_hyperparameters(mlp_problem.domain, points, values, seed=0, **{name: value})


def test_fit_requires_two_samples(mlp_domain):
    point = mlp_domain.complete_point(ADAM2, {})
    with pytest.raises(mb.FittingError):
        mb.fit_hyperparameters(mlp_domain, [point], [1.0], seed=0)


def test_fit_is_deterministic_under_seed(mlp_problem):
    points, values = proxy_samples(mlp_problem, 8, seed=4)
    a = mb.fit_hyperparameters(mlp_problem.domain, points, values, seed=3)
    b = mb.fit_hyperparameters(mlp_problem.domain, points, values, seed=3)
    assert a == b


def test_irreparably_indefinite_kernel_raises(mlp_domain):
    # Strong cross-meta coupling without damping makes the piecewise kernel
    # indefinite beyond what the jitter ceiling can repair.
    config = mb.default_kernel_config(mlp_domain)
    for key in config.meta_correlations:
        config.meta_correlations[key] = 0.98
    for key in config.meta_weights:
        config.meta_weights[key] = 1e-3
    rng = np.random.default_rng(0)
    points = [random_point(mlp_domain, rng) for _ in range(24)]
    with pytest.raises(mb.FactorizationError):
        mb.GPModel(mlp_domain, points, list(rng.standard_normal(24)), config)


# -- row views ---------------------------------------------------------------------------------

def surrogate_case(problem, count, seed):
    """Objective model on ``count`` random samples, plus every sample record."""
    rng = np.random.default_rng(seed)
    evaluator = mb.Evaluator(problem, count)
    while evaluator.budget.remaining:
        evaluator.evaluate(random_point(problem.domain, rng))
    records = [r for r in evaluator.history if not r.cached]
    points = [r.point for r in records]
    values = [r.objective for r in records]
    config = mb.fit_hyperparameters(problem.domain, points, values, seed=seed)
    return mb.GPModel(problem.domain, points, values, config), records


@pytest.mark.parametrize("name, constraint, full",
                         [("mlp", "units_total", True), ("mlp", "units_mono_3", False),
                          ("toy", "branch_cap", False)])
def test_row_view_means_match_standalone_model(name, constraint, full):
    problem = parse_bundled(name).problem
    model, records = surrogate_case(problem, 24, seed=3)
    rows = [i for i, r in enumerate(records) if constraint in r.constraints]
    assert (len(rows) == len(records)) == full
    values = [records[i].constraints[constraint] for i in rows]
    view = model.row_view(rows, values)
    alone = mb.GPModel(problem.domain, [records[i].point for i in rows], values,
                       model.config)
    rng = np.random.default_rng(7)
    batch = [random_point(problem.domain, rng) for _ in range(30)]
    mean, variance, means = model.predict_batch(batch, [view, view])
    assert means.shape == (2, len(batch))
    assert np.array_equal(means[0], alone.mean_batch(batch))
    assert np.array_equal(means[1], means[0])
    assert all(np.array_equal(a, b) for a, b in zip((mean, variance),
                                                      model.predict_batch(batch)))
    for i in (0, 17):
        assert model.predict_batch(batch[i:i + 1], [view])[2][0, 0] == means[0, i]


def test_row_view_predicts_only_through_its_model(toy_problem):
    model, records = surrogate_case(toy_problem, 8, seed=1)
    other, _ = surrogate_case(toy_problem, 8, seed=2)
    view = other.row_view([0, 1], [1.0, 2.0])
    with pytest.raises(ValueError):
        model.predict_batch([records[0].point], [view])
    point = records[0].point
    with pytest.raises(ValueError):
        CrossFactors(model, point.meta, *row_arrays(toy_problem.domain, point.meta, [point]),
                     [view])


# -- training set ----------------------------------------------------------------------------

def set_samples(name):
    """Domain, points and values of a training set in an order where some
    variable acts for the first time after the first sample: on mlp the
    ASGD samples (beta1 does not act) come first, on toy the m=A ones (pB
    does not act)."""
    if name == "no-meta":
        return fit_samples(name, 14, 3)
    domain, points, values = fit_samples(name, 24, 4)
    first = {"mlp": lambda p: p.meta["o"] == "ASGD", "toy": lambda p: p.meta["m"] == "A"}[name]
    order = sorted(range(len(points)), key=lambda i: not first(points[i]))
    return domain, [points[i] for i in order], [values[i] for i in order]


def reference_groups(domain, points):
    """Each group's (rows, cols, tensors, support) from PairTensors of the
    points with themselves, as the fit once laid them out."""
    features = SampleFeatures(domain, points)
    pairs = PairTensors(domain, features, features)
    slots = {key: (tensor, mask) for _, key, tensor, mask in pairs.slots}
    rows, cols = np.tril_indices(len(points), -1)
    same = pairs.same_meta[rows, cols]
    order = np.argsort(same, kind="stable")
    rows, cols, same = rows[order], cols[order], same[order]
    groups = []
    for part, keys in ((~same, [mid for _, mid in gp._meta_slots(domain)]),
                       (same, [v.id for v in domain.variables if not v.type.is_meta])):
        tensors, support = np.zeros((len(keys), part.sum())), []
        for k, key in enumerate(keys):
            if key in slots:
                tensor, mask = slots[key]
                entries = tensor[rows[part], cols[part]].astype(float)
                on = np.ones(len(entries), bool) if mask is None else mask[rows[part], cols[part]]
                tensors[k] = np.where(on, entries, 0.0)
                support.append(bool(on.any()))
            else:
                support.append(False)
        groups.append((rows[part], cols[part], tensors, support))
    return groups


@pytest.mark.parametrize("name", ["mlp", "toy", "no-meta"])
def test_training_set_by_appends_equals_a_fresh_build(name):
    domain, points, values = set_samples(name)
    config = mb.default_kernel_config(domain)
    config.signal_variance = 1.7
    train = gp.TrainingSet(domain)
    acted = set()
    for n in range(1, len(points) + 1):
        train.extend(points[n - 1:n])
        prefix = points[:n]
        assert list(train) == prefix and len(train) == n
        got, want = train.features, SampleFeatures(domain, prefix)
        assert (got.n, got.codes) == (want.n, want.codes) and got.n == n
        assert got.meta.dtype == got.values.dtype == np.float64
        for rows in ("which_meta", "meta", "acting", "values"):
            a, b = getattr(got, rows), getattr(want, rows)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        acted.add(tuple(spec.id for spec, act in zip(want.specs, want.acting) if act.any()))
        for group, (rows, cols, tensors, support) in zip(train.groups,
                                                          reference_groups(domain, prefix)):
            assert np.array_equal(group.rows, rows) and np.array_equal(group.cols, cols)
            assert np.array_equal(group.tensors, tensors)
            assert list(group.support) == support
        gram = train.gram(config)
        features = SampleFeatures(domain, prefix)
        assert np.array_equal(gram, config.signal_variance * correlation_matrix(
            PairTensors(domain, features, features), config))
        by_set = mb.GPModel(domain, train, values[:n], config)
        by_list = mb.GPModel(domain, prefix, values[:n], config)
        assert np.array_equal(by_set._gram, gram)
        for attr in ("_gram", "_factor", "alpha"):
            assert np.array_equal(getattr(by_set, attr), getattr(by_list, attr))
        assert (log_marginal_likelihood(domain, train, values[:n], config)
                == log_marginal_likelihood(domain, prefix, values[:n], config))
    # Some variable acted in none of the first samples and in a later one.
    assert name == "no-meta" or len(acted) > 1


@pytest.mark.parametrize("name", ["mlp", "toy"])
def test_a_model_keeps_its_samples_while_its_set_grows(name):
    domain, points, values = set_samples(name)
    config = mb.default_kernel_config(domain)
    batch = points[12:]
    train = gp.TrainingSet(domain, points[:6])
    model = mb.GPModel(domain, train, values[:6], config)
    views = [model.row_view([0, 2, 4], values[0:6:2])]

    def results():
        crosses = []
        for xm in {p.meta for p in batch}:
            rows = [p for p in batch if p.meta == xm]
            cross = CrossFactors(model, xm, *row_arrays(domain, xm, rows), views)
            crosses += [cross.factors, *cross.predict(cross.factors)]
        return [model.cross_covariance(batch), *model.predict_batch(batch, views),
                *crosses]

    before = results()
    # Appends within the arrays' room write past the model's samples; later
    # ones move the set to new arrays.  Later samples bring meta components
    # and acting variables the first six lack.
    for k in range(6, len(points)):
        train.extend(points[k:k + 1])
        assert len(model) == model._features.n == 6
        assert all(np.array_equal(a, b) for a, b in zip(results(), before, strict=True))
    assert len(train.features.codes) > len(model._features.codes)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_query_point_is_rejected(mlp_problem, bad):
    points, values = proxy_samples(mlp_problem, 6, seed=2)
    domain = mlp_problem.domain
    model = mb.GPModel(domain, points, values, mb.default_kernel_config(domain))
    point = points[0]
    query = mb.Point(point.meta, point.categorical, {**point.standard, "r": bad})
    for predict in (model.cross_covariance, model.predict_batch, model.mean_batch):
        with pytest.raises(ValueError):
            predict([points[1], query])
    with pytest.raises(ValueError):
        gp.TrainingSet(domain, [query])
    # The store is left as it was.
    features = SampleFeatures(domain, points[:2])
    with pytest.raises(ValueError):
        features.append(query)
    assert features.n == 2 and features.codes == SampleFeatures(domain, points[:2]).codes


def test_training_set_masks_a_variable_acting_in_one_sample_of_a_pair(toy_problem):
    # Points built outside the domain's decrees: under m=A, pA and k act in
    # some samples only, and pB acts in one.  Each factor stays 1 on a pair
    # unless its variable acts in both samples, as in correlation_matrix.
    domain = toy_problem.domain
    xa = mb.MetaComponent({"m": "A"})
    points = [mb.Point(xa, {"pA": 2, "s": 1}, {"k": 1}), mb.Point(xa, {"s": 3}, {"k": 4}),
              mb.Point(xa, {"pA": 1, "pB": 2, "s": 2}, {}),
              mb.Point(mb.MetaComponent({"m": "B"}), {"pB": 1, "s": 2}, {"k": 3})]
    train = gp.TrainingSet(domain, points)
    for group, (rows, cols, tensors, support) in zip(train.groups,
                                                      reference_groups(domain, points)):
        assert np.array_equal(group.tensors, tensors) and list(group.support) == support
    config = mb.default_kernel_config(domain)
    features = SampleFeatures(domain, points)
    assert np.array_equal(train.gram(config), correlation_matrix(
        PairTensors(domain, features, features), config))


def run_training(name):
    problem = parse_bundled(name).problem
    result = mb.run_bo(problem, mb.BOConfig(budget=60, seed=0))
    records = [r for r in result.history if not r.cached and r.error is None]
    return problem.domain, [r.point for r in records], [r.objective for r in records]


@pytest.mark.parametrize("name", ["toy", "mlp"])
def test_fit_through_a_grown_set_equals_fit_through_the_list(name, monkeypatch):
    domain, points, values = run_training(name)
    calls, terms_of = [], gp._likelihood_terms
    monkeypatch.setattr(gp, "_likelihood_terms",
                        lambda *args, **kwargs: calls.append(None) or terms_of(*args, **kwargs))
    train = gp.TrainingSet(domain, points[:1])
    base = mb.default_kernel_config(domain)
    for n in range(2, len(points) + 1):
        train.extend(points[n - 1:n])
        calls.clear()
        by_set = mb.fit_hyperparameters(domain, train, values[:n], seed=0, base=base)
        count = len(calls)
        calls.clear()
        by_list = mb.fit_hyperparameters(domain, points[:n], values[:n], seed=0, base=base)
        assert by_set.to_dict() == by_list.to_dict()
        assert count == len(calls)


def test_a_runs_fits_draw_their_starts_once(monkeypatch, toy_problem):
    from metabox import bayesian
    draws, fits = [], []
    fit, draw = bayesian.fit_hyperparameters, gp._fit_starts

    def counted_fit(*args, **kwargs):
        fits.append(None)
        return fit(*args, **kwargs)

    monkeypatch.setattr(bayesian, "fit_hyperparameters", counted_fit)
    monkeypatch.setattr(gp, "_fit_starts", lambda *args: draws.append(args) or draw(*args))
    mb.run_bo(toy_problem, mb.BOConfig(budget=60, seed=3))
    assert len(fits) > 10 and len(draws) == 1
    # A plain list gets a fresh set, so each fit through one draws again;
    # other arguments draw again too.
    domain, points, values = fit_samples("toy", 10, 1)
    draws.clear()
    mb.fit_hyperparameters(domain, points, values, seed=0)
    mb.fit_hyperparameters(domain, points, values, seed=0)
    train = gp.TrainingSet(domain, points)
    for seed in (0, 0, 1, 1, 0):
        mb.fit_hyperparameters(domain, train, values, seed=seed)
    assert [args[2] for args in draws] == [0, 0, 0, 1, 0]


def test_cross_factors_of_a_column_without_width_match_a_fresh_cross_covariance():
    # z0's scope holds one value, so its unit value is 0, not 0 / 0.
    domain = mb.Domain([
        mb.VariableSpec("c1", mb.VariableType.CONTINUOUS, mb.Role.GLOBAL,
                        mb.ContinuousScope(0.0, 1.0)),
        mb.VariableSpec("z0", mb.VariableType.INTEGER, mb.Role.GLOBAL, mb.IntegerScope(3, 3)),
    ])
    rng = np.random.default_rng(0)
    xm = mb.MetaComponent({})
    points = [domain.complete_point(xm, {"c1": float(rng.random())}) for _ in range(6)]
    model = mb.GPModel(domain, points, list(rng.standard_normal(6)),
                       mb.default_kernel_config(domain))
    rows = [domain.complete_point(xm, {"c1": float(rng.random())}) for _ in range(4)]
    factors = CrossFactors(model, xm, *row_arrays(domain, xm, rows))
    assert np.array_equal(factors.cross_covariance(factors.factors),
                          model.cross_covariance(rows))
