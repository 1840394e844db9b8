"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a failed assertion marks the criterion FAIL through pytest itself.
"""

import time

import numpy as np
import pytest

import metabox as mb
from metabox.blackbox import barrier_value
from metabox.cli import cli_main
from metabox.gp import PairTensors, SampleFeatures, correlation_matrix
from metabox.problem_file import bundled_problem_path
from conftest import ScalarKernel, parse_wide_mlp, random_point, uniform_random_search


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_mlp_structural_fidelity():
    start = time.perf_counter()
    parsed = mb.parse_problem_file(bundled_problem_path("mlp"))
    domain, system = parsed.domain, parsed.system
    metas = domain.enumerate_meta_set()
    assert len(metas) == 4
    assert {(m["o"], m["l"]) for m in metas} == {
        ("Adam", 2), ("Adam", 3), ("ASGD", 2), ("ASGD", 3)}
    for xm in metas:
        assert domain.dimension(xm, "continuous") == 4
        assert domain.dimension(xm, "integer") == xm["l"]
        assert len(system.acting_decreed_constraints(xm)) == xm["l"] - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"|X^m|=4 with n^c=4, n^z=l, |C^m|=l-1 ({elapsed:.3f}s)")


def test_criterion_2_neighborhood_fidelity():
    start = time.perf_counter()
    wide_mlp = parse_wide_mlp()
    domain, mapping = wide_mlp.domain, wide_mlp.meta_mapping
    expected = {
        0: {(1, "Adam"), (0, "ASGD"), (1, "ASGD")},          # lower boundary
        3: {(2, "Adam"), (3, "ASGD"), (2, "ASGD")},          # upper boundary
        2: {(3, "Adam"), (1, "Adam"), (2, "ASGD"), (3, "ASGD"), (1, "ASGD")},
    }
    for l, wanted in expected.items():
        point = domain.complete_point(mb.MetaComponent({"l": l, "o": "Adam"}), {})
        got = {(m["l"], m["o"]) for m in mb.meta_neighbors(domain, mapping, point)}
        assert got == wanted, f"l={l}: {got} != {wanted}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"meta neighborhood sizes 3/3/5 match element-by-element ({elapsed:.3f}s)")


def test_criterion_3_brute_force_oracle_equivalence(toy_problem, toy_brute_force):
    start = time.perf_counter()
    target = toy_brute_force[0]
    direct = mb.run_direct_search(
        toy_problem, mb.SearchConfig(budget=200, seed=0, subproblem_budget=20),
        progress=False)
    assert direct.best.objective == target
    bo = mb.run_bo(toy_problem, mb.BOConfig(budget=70, seed=0), progress=False)
    assert bo.best.objective == target
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"direct search and BO both return the exhaustive argmin ({elapsed:.1f}s)")


def test_criterion_4_kernel_property_suite(mlp_domain):
    start = time.perf_counter()
    config = mb.default_kernel_config(mlp_domain)
    config.signal_variance = 1.9
    kernel = ScalarKernel(mlp_domain, config)
    rng = np.random.default_rng(2024)
    for _ in range(200):
        x, y = random_point(mlp_domain, rng), random_point(mlp_domain, rng)
        kxy, kyx = kernel.k_mixed(x, y), kernel.k_mixed(y, x)
        assert abs(kxy - kyx) <= 1e-12
        assert 0.0 <= kxy <= config.signal_variance + 1e-15
        assert abs(kernel.k_mixed(x, x) - config.signal_variance) <= 1e-15
    points = [random_point(mlp_domain, rng) for _ in range(20)]
    features = SampleFeatures(mlp_domain, points)
    gram = config.signal_variance * correlation_matrix(
        PairTensors(mlp_domain, features, features), config)
    pre_jitter = float(np.linalg.eigvalsh(gram).min())
    # Reported, not failed: the piecewise mixed kernel has no PSD proof.
    print(f"criterion 4 report: Gram min eigenvalue before jitter = {pre_jitter:.3e} "
          f"(threshold -1e-8 sigma^2 = {-1e-8 * config.signal_variance:.3e})")
    post = gram + config.jitter * np.eye(len(points))
    assert float(np.linalg.eigvalsh(post).min()) >= 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, f"symmetry/bounds/diagonal on 200 pairs, Gram PSD after jitter ({elapsed:.1f}s)")


def test_criterion_5_gp_interpolation(mlp_problem):
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    evaluator = mb.Evaluator(mlp_problem, 40)
    points, values = [], []
    while len(points) < 15:
        point = random_point(mlp_problem.domain, rng)
        if point in points:
            continue
        points.append(point)
        values.append(evaluator.evaluate(point).objective)
    config = mb.fit_hyperparameters(mlp_problem.domain, points, values, seed=0)
    model = mb.GPModel(mlp_problem.domain, points, values, config)
    mean, variance = model.predict_batch(points)
    for m, v, f in zip(mean, variance, values):
        assert abs(m - f) <= 1e-6 * (1 + abs(f))
        assert v <= 1e-8 * config.signal_variance
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, f"noise-free interpolation on 15 samples within tolerances ({elapsed:.1f}s)")


def test_criterion_6_expected_improvement_values():
    assert abs(mb.expected_improvement(0.0, 1.0, 0.0) - 0.3989423) <= 1e-6
    assert abs(mb.expected_improvement(0.0, 1.0, 1.0) - 1.0833154) <= 1e-6
    assert mb.expected_improvement(5.0, 0.0, 0.0) == max(0.0 - 5.0, 0.0)
    assert mb.expected_improvement(-3.0, 0.0, 0.0) == 3.0
    rng = np.random.default_rng(6)
    for _ in range(10):
        mean = float(rng.uniform(-1, 1))
        f_star = float(rng.uniform(-1, 1))
        sigma = float(rng.uniform(0.3, 2.0))
        assert (mb.expected_improvement(mean, sigma + 1e-4, f_star)
                > mb.expected_improvement(mean, sigma, f_star))
    report(6, "EI analytic values within 1e-6 and monotone in sigma")


def test_criterion_7_proxy_convergence_regressions(mlp_problem):
    start = time.perf_counter()
    direct = mb.run_direct_search(mlp_problem, mb.SearchConfig(budget=2000, seed=0),
                                  progress=False)
    direct_elapsed = time.perf_counter() - start
    assert direct_elapsed < 120.0
    assert barrier_value(direct.best) <= 0.05, barrier_value(direct.best)

    start = time.perf_counter()
    baseline = uniform_random_search(mlp_problem, 150, 0)
    bo = mb.run_bo(mlp_problem, mb.BOConfig(budget=150, seed=0), progress=False)
    bo_value = barrier_value(bo.best)
    bo_elapsed = time.perf_counter() - start
    assert bo_elapsed < 120.0
    assert bo_value <= baseline, (bo_value, baseline)
    report(7, f"direct {barrier_value(direct.best):.3g} <= 0.05 in {direct_elapsed:.0f}s; "
              f"BO {bo_value:.3g} <= random baseline {baseline:.3g} in {bo_elapsed:.0f}s")


def test_criterion_8_solver_determinism(tmp_path):
    toy = str(bundled_problem_path("toy"))
    for solver, budget in (("direct", 60), ("bo", 25)):
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{solver}_{attempt}.csv"
            code = cli_main(["solve", toy, "--solver", solver, "--budget",
                             str(budget), "--seed", "1", "--out", str(out),
                             "--quiet"])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{solver} runs differ"
    report(8, "repeated solve commands produce byte-identical history CSVs")


def test_criterion_9_cache_and_budget_accounting(toy_problem):
    start = time.perf_counter()
    evaluator = mb.Evaluator(toy_problem, 2)
    point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {})
    first = evaluator.evaluate(point)
    second = evaluator.evaluate(point)
    assert not first.cached and second.cached
    assert len(evaluator.history) == 2
    assert evaluator.budget.used == 1
    other = toy_problem.domain.complete_point(mb.MetaComponent({"m": "B"}), {})
    evaluator.evaluate(other)
    assert evaluator.budget.used == 2
    with pytest.raises(mb.BudgetExhaustedError):
        evaluator.evaluate(
            toy_problem.domain.complete_point(mb.MetaComponent({"m": "B"}), {"k": 0}))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(9, f"duplicates hit the cache, exhaustion raises ({elapsed:.3f}s)")
