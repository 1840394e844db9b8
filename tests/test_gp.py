import math
from dataclasses import dataclass

import numpy as np
import pytest

import metabox as mb
from scipy import linalg

from metabox.domain import normalize, round_half_away
from metabox.gp import (JITTER_FRACTION, PairTensors, SampleFeatures, correlation_matrix,
                        log_marginal_likelihood)
from conftest import parse_bundled, random_point

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
    return mb.MixedKernel(small_domain, config)


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
    kernel = mb.MixedKernel(small_domain, config)
    k = kernel.k_continuous({"c1": 0.0, "c2": 0.0}, {"c1": 1.0, "c2": 1.0}, G0)
    assert np.isclose(k, math.exp(-3.0))


def test_continuous_kernel_dimension_mismatch(small_kernel):
    with pytest.raises(mb.KernelDomainError):
        small_kernel.k_continuous({"c1": 0.0}, {"c1": 0.0, "c2": 1.0}, G0)


# -- integer kernel -----------------------------------------------------------------

def test_integer_kernel_rounding_plateau(mlp_domain):
    kernel = mb.MixedKernel(mlp_domain, mb.default_kernel_config(mlp_domain))
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


def test_encoded_mode_one_hot_distance(small_domain):
    encoder = mb.Encoder(small_domain, "one-hot")
    config = mb.default_kernel_config(small_domain, encoder=encoder)
    kernel = mb.MixedKernel(small_domain, config, encoder)
    k = kernel.k_categorical({"n1": 1, "o1": 2}, {"n1": 2, "o1": 2}, G0)
    assert np.isclose(k, math.exp(-2.0))  # two one-hot lanes flip


def test_encoded_mode_requires_encoder(small_domain):
    # The encoder is the mode: an encoded config on features built without
    # one lacks their categorical tables' entries.
    config = mb.default_kernel_config(small_domain, encoder=mb.Encoder(small_domain, "one-hot"))
    points = [small_domain.complete_point(G0, {"c1": c}) for c in (0.2, 0.7)]
    values = [0.0, 1.0]
    kernel = mb.MixedKernel(small_domain, config)
    for build in (lambda: kernel.k_mixed(points[0], points[1]),
                  lambda: mb.GPModel(small_domain, points, values, config),
                  lambda: log_marginal_likelihood(small_domain, points, values, config)):
        with pytest.raises(mb.KernelDomainError, match="no nominal_correlations entry for 'n1'"):
            build()
    with pytest.raises(mb.KernelDomainError, match="categorical_weights"):
        mb.fit_hyperparameters(small_domain, points, values, base=config)


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


def test_default_kernel_config_takes_no_positional_mode(mlp_domain):
    with pytest.raises(TypeError):
        mb.default_kernel_config(mlp_domain, "encoded")


# -- mixed kernel ----------------------------------------------------------------------

def test_mixed_kernel_on_itself_is_signal_variance(mlp_domain):
    config = mb.default_kernel_config(mlp_domain)
    config.signal_variance = 2.5
    kernel = mb.MixedKernel(mlp_domain, config)
    point = mlp_domain.complete_point(ADAM2, {})
    assert np.isclose(kernel.k_mixed(point, point), 2.5)


def test_mixed_kernel_different_meta_uses_meta_factors_only(mlp_domain):
    config = mb.default_kernel_config(mlp_domain)
    config.meta_correlations["o"] = 0.3
    config.signal_variance = 2.0
    kernel = mb.MixedKernel(mlp_domain, config)
    x = mlp_domain.complete_point(ADAM2, {"r": 0.9})
    y = mlp_domain.complete_point(ASGD2, {"r": 0.1})  # same l, other optimizer
    assert np.isclose(kernel.k_mixed(x, y), 0.3 * 2.0)


def test_mixed_kernel_same_meta_multiplies_standard_factor(mlp_domain):
    config = mb.default_kernel_config(mlp_domain)
    config.continuous_weights["r"] = 4.0
    kernel = mb.MixedKernel(mlp_domain, config)
    x = mlp_domain.complete_point(ADAM2, {"r": 0.9})
    y = mlp_domain.complete_point(ADAM2, {"r": 0.4})
    assert np.isclose(kernel.k_mixed(x, y), math.exp(-1.0))  # 4 * 0.5^2


# -- property suite ------------------------------------------------------------------------

def test_kernel_symmetry_bounds_and_diagonal(mlp_domain):
    config = mb.default_kernel_config(mlp_domain)
    config.signal_variance = 1.7
    kernel = mb.MixedKernel(mlp_domain, config)
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


def scalar_kernel(domain, config, encoder, x, y):
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
    ids = domain.acting_index_set(xm, "categorical")
    if encoder is not None:
        weights = [w for v in ids for w in [config.categorical_weights[v]] * encoder.width(v)]
        return value * squared_exponential(weights, encoder.encode(x.categorical, xm),
                                           encoder.encode(y.categorical, xm))
    for vid in ids:
        a, b = x.categorical[vid], y.categorical[vid]
        if domain.spec(vid).type == mb.VariableType.ORDINAL:
            value *= math.exp(-((a - b) ** 2) / (2.0 * config.ordinal_lengthscales[vid] ** 2))
        elif a != b:
            value *= config.nominal_correlations[vid]
    return value


def test_vectorized_matches_scalar_kernel(mlp_domain):
    encoded = mb.Encoder(parse_bundled("mlp").domain, "one-hot")
    for mode, encoder in (("matrix", None), ("encoded", encoded)):
        config = mb.default_kernel_config(mlp_domain, encoder=encoder)
        config.signal_variance = 1.3
        kernel = mb.MixedKernel(mlp_domain, config, encoder)
        rng = np.random.default_rng(11)
        points = [random_point(mlp_domain, rng) for _ in range(12)]
        features = SampleFeatures(mlp_domain, points, encoder)
        gram = config.signal_variance * correlation_matrix(
            PairTensors(mlp_domain, features, features), config)
        for i in range(12):
            for j in range(12):
                expected = scalar_kernel(mlp_domain, config, encoder, points[i], points[j])
                assert abs(gram[i, j] - expected) < 1e-12
                assert abs(kernel.k_mixed(points[i], points[j]) - expected) < 1e-12


# -- prediction -------------------------------------------------------------------------------

def proxy_samples(mlp_problem, count, seed=5):
    rng = np.random.default_rng(seed)
    evaluator = mb.Evaluator(mlp_problem, count)
    points, values = [], []
    while len(points) < count:
        point = random_point(mlp_problem.domain, rng)
        if evaluator.is_evaluated(point):
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
    mean, variance = model.predict(far)
    assert abs(mean) <= 1e-12
    assert np.isclose(variance, 3.0)


def test_two_sample_prediction_matches_direct_solve(mlp_domain):
    config = mb.default_kernel_config(mlp_domain)
    kernel = mb.MixedKernel(mlp_domain, config)
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
    mean, variance = model.predict(x)
    assert np.isclose(mean, expected_mean, atol=1e-10)
    assert np.isclose(variance, expected_var, atol=1e-10)


def test_variance_clamp_never_hides_large_negatives(mlp_problem):
    points, values = proxy_samples(mlp_problem, 12, seed=9)
    config = mb.fit_hyperparameters(mlp_problem.domain, points, values, seed=1)
    model = mb.GPModel(mlp_problem.domain, points, values, config)
    kappa = model.cross_covariance(points)
    from scipy.linalg import cho_solve
    solved = cho_solve(model._factor, kappa)
    raw = config.signal_variance - np.sum(kappa * solved, axis=0)
    assert raw.min() >= -1e-8 * config.signal_variance


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


@pytest.mark.parametrize("kind", [None, "one-hot"])
def test_features_from_arrays_match_features_from_points(mlp_domain, kind):
    encoder = mb.Encoder(mlp_domain, kind) if kind else None
    rng = np.random.default_rng(13)
    for xm in mlp_domain.enumerate_meta_set():
        cat_ids = mlp_domain.acting_index_set(xm, "categorical")
        std_ids = mlp_domain.acting_index_set(xm, "standard")
        points = [random_point(mlp_domain, rng, [xm]) for _ in range(6)]
        categorical = np.array([[p.categorical[v] for v in cat_ids] for p in points])
        standard = np.array([[p.standard[v] for v in std_ids] for p in points], dtype=float)
        got = SampleFeatures.from_arrays(mlp_domain, xm, categorical, standard, encoder)
        want = SampleFeatures(mlp_domain, points, encoder)
        assert got.n == want.n and got.metas == want.metas
        assert got.encoded == want.encoded == (encoder is not None)
        assert np.array_equal(got.which_meta, want.which_meta)
        for name in ("meta", "acting", "values"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.keys() == b.keys(), name
            for key in a:
                assert np.array_equal(a[key], b[key]), (name, key)


def test_matrix_mode_features_hold_no_encodings(mlp_problem):
    points, values = proxy_samples(mlp_problem, 6)
    domain = mlp_problem.domain
    encoder = mb.Encoder(domain, "one-hot")
    model = mb.GPModel(domain, points, values, mb.default_kernel_config(domain), encoder=None)
    assert model.encoder is None and not model.features(points).encoded
    encoded = mb.GPModel(domain, points, values,
                         mb.default_kernel_config(domain, encoder=encoder), encoder)
    assert encoded.encoder is encoder and encoded.features(points).encoded
    assert encoded.features(points).values["a"].shape == (6, 2)
    assert model.features(points).values["a"].shape == (6,)


@pytest.mark.parametrize("mode", ["matrix", "encoded"])
def test_pair_tensors_build_one_tensor_per_factor(mlp_domain, mode):
    # One slot per meta variable, meta-numeric first, then one per variable
    # acting in both sets, declaration order, keyed by its config table.
    rng = np.random.default_rng(4)
    points = [random_point(mlp_domain, rng, [ADAM2]) for _ in range(5)]
    others = [random_point(mlp_domain, rng, [ASGD2, ADAM3]) for _ in range(4)]
    encoder = mb.Encoder(mlp_domain, "one-hot") if mode == "encoded" else None
    pairs = PairTensors(mlp_domain, SampleFeatures(mlp_domain, points, encoder),
                        SampleFeatures(mlp_domain, others, encoder))
    config = mb.default_kernel_config(mlp_domain, encoder=encoder)
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


def test_encoded_and_plain_features_do_not_mix(mlp_domain):
    rng = np.random.default_rng(2)
    points = [random_point(mlp_domain, rng) for _ in range(3)]
    plain = SampleFeatures(mlp_domain, points)
    encoded = SampleFeatures(mlp_domain, points, mb.Encoder(mlp_domain, "one-hot"))
    with pytest.raises(mb.KernelDomainError):
        PairTensors(mlp_domain, plain, encoded)
    with pytest.raises(mb.KernelDomainError):
        correlation_matrix(PairTensors(mlp_domain, plain, plain), mb.default_kernel_config(
            mlp_domain, encoder=mb.Encoder(mlp_domain, "one-hot")))


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


def start_config(domain, encoder, slots, params):
    config = mb.default_kernel_config(domain, encoder=encoder)
    for (table, key, _, _), value in zip(slots, params):
        getattr(config, table)[key] = value
    return config


def reference_fit(domain, points, values, seed=0, encoder=None,
                  starts=8, sweeps=8, base=None):
    """Reference compass search: rebuilds correlation_matrix on every trial.

    ``base``, a config for ``encoder``, sets the first start (default: the
    default config).  The search runs from the starts whose own kernel
    matrix factorizes, or from all starts when none does.
    """
    slots, drawn = reference_starts(base or mb.default_kernel_config(domain, encoder=encoder),
                                    seed, starts)
    features = SampleFeatures(domain, points, encoder)
    pairs = PairTensors(domain, features, features)
    y = np.asarray(values, dtype=float)
    n = len(y)

    def build(params):
        return start_config(domain, encoder, slots, params)

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


@dataclass(frozen=True)
class EmbeddingEncoder(mb.Encoder):
    """Every category becomes a fixed real vector of width 4.

    Rounding in PairTensors' |a|^2 + |b|^2 - 2 a.b leaves some diagonal
    squared distances off 0, so the correlation diagonal is not exactly 1.
    """

    def width(self, var_id):
        return 4

    def encode_variable(self, var_id, index):
        seed = [index] + [ord(c) for c in var_id]
        return 10.0 * np.random.default_rng(seed).standard_normal(4)


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


def fit_encoding(domain, name):
    """The encoder of a test encoding name: None in matrix mode, and one-hot
    for "encoded"."""
    if name == "matrix":
        return None
    if name == "embedding":
        return EmbeddingEncoder(domain)
    return mb.Encoder(domain, "one-hot" if name == "encoded" else name)


@pytest.mark.parametrize("name, count, seed, mode",
                         [("mlp", 12, 0, "matrix"), ("mlp", 24, 3, "matrix"),
                          ("toy", 10, 1, "matrix"), ("toy", 16, 2, "encoded"),
                          ("no-meta", 10, 4, "matrix"), ("no-meta", 12, 5, "ordinal-index"),
                          ("mlp-adam2", 12, 6, "matrix"), ("toy", 2, 7, "matrix"),
                          ("mlp", 2, 8, "matrix"), ("mlp", 20, 9, "encoded"),
                          ("toy", 14, 10, "ordinal-index"), ("toy", 14, 11, "embedding"),
                          ("mlp", 16, 12, "embedding")])
def test_cached_factor_fit_matches_reference(name, count, seed, mode):
    domain, points, values = fit_samples(name, count, seed)
    encoder = fit_encoding(domain, mode)
    got = mb.fit_hyperparameters(domain, points, values, seed=seed, encoder=encoder)
    want = reference_fit(domain, points, values, seed=seed, encoder=encoder)
    assert got.to_dict() == want.to_dict()


def test_embedding_encoder_moves_the_correlation_diagonal():
    domain, points, _ = fit_samples("toy", 14, 11)
    encoder = fit_encoding(domain, "embedding")
    features = SampleFeatures(domain, points, encoder)
    config = mb.default_kernel_config(domain, encoder=encoder)
    diagonal = np.diag(correlation_matrix(PairTensors(domain, features, features), config))
    assert np.any(diagonal != 1.0)


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
    configs = [start_config(domain, None, slots, params) for params in drawn]
    live = [log_marginal_likelihood(domain, points, values, c) > -math.inf for c in configs]
    assert live[0] and not all(live)
    calls, cholesky = [], gp._cholesky
    monkeypatch.setattr(gp, "_cholesky",
                        lambda *args, **kwargs: calls.append(None) or cholesky(*args, **kwargs))
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


def test_all_dead_fit_starts_are_searched():
    # Strong cross-meta coupling: no start's own matrix factorizes, and only
    # the third start's search reaches one that does.
    domain, points, values = fit_samples("mlp", 12, 0)
    base = mb.default_kernel_config(domain)
    for key in base.meta_correlations:
        base.meta_correlations[key] = 0.98
    slots, drawn = reference_starts(base, 0, 4)
    configs = [start_config(domain, None, slots, params) for params in drawn]
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
    mean, _ = model.predict(points[0])
    assert np.isclose(mean, 1.0, atol=1e-5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_training_values_are_rejected(mlp_problem, bad):
    points, values = proxy_samples(mlp_problem, 6, seed=2)
    values[3] = bad
    domain = mlp_problem.domain
    with pytest.raises(ValueError):
        mb.fit_hyperparameters(domain, points, values, seed=0)
    with pytest.raises(ValueError):
        log_marginal_likelihood(domain, points, values, mb.default_kernel_config(domain))


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


def test_model_dump_round_trips_config(tmp_path, mlp_problem):
    import json
    points, values = proxy_samples(mlp_problem, 5, seed=6)
    config = mb.default_kernel_config(mlp_problem.domain)
    model = mb.GPModel(mlp_problem.domain, points, values, config)
    path = tmp_path / "model.json"
    model.dump(path)
    payload = json.loads(path.read_text())
    assert mb.KernelConfig.from_dict(payload["config"]) == config
    assert len(payload["samples"]) == 5


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
