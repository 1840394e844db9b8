import hashlib
import math

import numpy as np
import pytest

import metabox as mb
from metabox.bayesian import ACQ_MIN_FRACTION
from metabox.blackbox import barrier_value
from metabox.builtin_problems import MLP_CONTINUOUS_TARGETS, mlp_normalized
from metabox.direct_search import MIN_FRACTION, MeshState
from conftest import charged_failures, nan_objective_at_k2

ADAM2 = mb.MetaComponent({"l": 2, "o": "Adam"})


# -- mesh ------------------------------------------------------------------------------

def test_mesh_steps_refinement_and_floors():
    scopes = [mb.ContinuousScope(0.0, 2.0), mb.IntegerScope(0, 13), mb.IntegerScope(0, 2)]
    for floor in (MIN_FRACTION, ACQ_MIN_FRACTION):
        mesh = MeshState(scopes, count=2, floor=floor)
        assert mesh.scale.shape == (2, 3)
        assert mesh.steps(0).tolist() == [0.5, 3.0, 1.0]  # 0.25 of 2.0, 13 // 4, at least 1
        mesh.refine(1)
        assert mesh.steps(0).tolist() == [0.5, 3.0, 1.0]  # rows refine on their own
        assert mesh.steps([0, 1]).tolist() == [[0.5, 3.0, 1.0], [0.25, 1.0, 1.0]]
        refinements = 0
        while not mesh.at_minimum(1):
            mesh.refine(1)
            refinements += 1
        # Halving reaches exactly the floor and stops there; integers stop at 1.
        assert mesh.scale[1].tolist() == [floor, 1.0, 1.0]
        assert refinements == math.ceil(math.log2(0.125 / floor))
        mesh.refine(1)
        assert mesh.scale[1].tolist() == [floor, 1.0, 1.0]
        assert not mesh.at_minimum(0)
    # A continuous step at its floor does not stop a search whose integer step is above 1.
    wide = MeshState([mb.ContinuousScope(0.0, 1.0), mb.IntegerScope(0, 400)],
                     floor=ACQ_MIN_FRACTION)
    for _ in range(4):
        wide.refine()
    assert wide.scale[0].tolist() == [ACQ_MIN_FRACTION, 6.0]  # 100, 50, 25, 12, 6
    assert not wide.at_minimum()


# -- standard subproblem -------------------------------------------------------------

def test_subproblem_descends_to_proxy_center(mlp_problem):
    evaluator = mb.Evaluator(mlp_problem, 5000)
    cfg = mb.SearchConfig(budget=5000, subproblem_budget=2000)
    start = mlp_problem.domain.complete_point(ADAM2, {}).standard
    result = mb.solve_standard_subproblem(evaluator, ADAM2, {"a": 1}, start, cfg)
    assert result.barrier <= 1e-3
    assert result.point.standard["u1"] == 150
    assert result.point.standard["u2"] == 120
    for vid, target in MLP_CONTINUOUS_TARGETS["Adam"].items():
        z = mlp_normalized(mlp_problem.domain, result.point, vid)
        assert abs(z - target) <= 0.05


def test_subproblem_budget_one_returns_start(mlp_problem):
    evaluator = mb.Evaluator(mlp_problem, 50)
    cfg = mb.SearchConfig(budget=50, subproblem_budget=1)
    start = mlp_problem.domain.complete_point(ADAM2, {}).standard
    result = mb.solve_standard_subproblem(evaluator, ADAM2, {"a": 1}, start, cfg)
    assert result.reason == "subproblem_budget"
    assert result.point.standard == start
    assert result.evaluations == 1


def test_subproblem_all_infeasible_keeps_start_with_infinite_barrier(toy_problem):
    evaluator = mb.Evaluator(toy_problem, 50)
    cfg = mb.SearchConfig(budget=50, subproblem_budget=20)
    tm = mb.MetaComponent({"m": "B"})
    result = mb.solve_standard_subproblem(evaluator, tm, {"pB": 1, "s": 1}, {"k": 4}, cfg)
    assert result.barrier == math.inf
    assert result.point.standard["k"] == 4
    assert result.record is not None and not result.record.feasible


def test_subproblem_never_returns_worse_than_start(toy_problem):
    evaluator = mb.Evaluator(toy_problem, 200)
    cfg = mb.SearchConfig(budget=200, subproblem_budget=30)
    tm = mb.MetaComponent({"m": "A"})
    start_record = evaluator.evaluate(
        toy_problem.domain.complete_point(tm, {"pA": 1, "s": 1, "k": 0}))
    result = mb.solve_standard_subproblem(evaluator, tm, {"pA": 1, "s": 1}, {"k": 0}, cfg)
    assert result.barrier <= barrier_value(start_record)


def test_subproblem_truncated_by_global_budget(mlp_problem):
    evaluator = mb.Evaluator(mlp_problem, 3)
    cfg = mb.SearchConfig(budget=3, subproblem_budget=500)
    start = mlp_problem.domain.complete_point(ADAM2, {}).standard
    result = mb.solve_standard_subproblem(evaluator, ADAM2, {"a": 1}, start, cfg)
    assert result.truncated and result.reason == "global_budget"
    assert result.record is not None


# -- global search step ------------------------------------------------------------------

def test_global_search_step_is_seeded(mlp_domain):
    draws_a = [mb.global_search_step(mlp_domain, np.random.default_rng(42))
               for _ in range(5)]
    draws_b = [mb.global_search_step(mlp_domain, np.random.default_rng(42))
               for _ in range(5)]
    assert draws_a == draws_b


def test_global_search_step_single_meta():
    domain = mb.Domain([
        mb.VariableSpec("n", mb.VariableType.META_INTEGER, mb.Role.META,
                        mb.IntegerScope(2, 2)),
        mb.VariableSpec("x", mb.VariableType.INTEGER, mb.Role.GLOBAL,
                        mb.IntegerScope(0, 5)),
    ])
    rng = np.random.default_rng(0)
    for _ in range(3):
        tm, tq = mb.global_search_step(domain, rng)
        assert dict(tm) == {"n": 2} and tq == {}


def test_global_search_requires_enumerable_meta_set():
    domain = mb.Domain([
        mb.VariableSpec("freq", mb.VariableType.META_CONTINUOUS, mb.Role.META,
                        mb.ContinuousScope(0.0, 1.0)),
        mb.VariableSpec("x", mb.VariableType.INTEGER, mb.Role.GLOBAL,
                        mb.IntegerScope(0, 5)),
    ])
    with pytest.raises(mb.ConfigurationError):
        mb.global_search_step(domain, np.random.default_rng(0))


# -- full runs ----------------------------------------------------------------------------

def test_direct_search_matches_brute_force_on_toy(toy_problem, toy_brute_force):
    cfg = mb.SearchConfig(budget=200, seed=0, subproblem_budget=20)
    result = mb.run_direct_search(toy_problem, cfg, progress=False)
    assert result.best.objective == toy_brute_force[0]
    assert result.best.feasible


def test_budget_one_returns_initial_point(toy_problem):
    cfg = mb.SearchConfig(budget=1, seed=0)
    result = mb.run_direct_search(toy_problem, cfg, progress=False)
    assert result.best is not None
    assert result.evaluator.budget.used == 1
    first_meta = toy_problem.domain.enumerate_meta_set()[0]
    assert result.best.point == toy_problem.domain.complete_point(first_meta, {})


def test_direct_search_never_reports_a_nan_best(toy_problem):
    problem = nan_objective_at_k2(toy_problem)
    result = mb.run_direct_search(problem, mb.SearchConfig(budget=60, seed=0), progress=False)
    assert math.isfinite(result.best.objective)
    assert any(r.error is not None for r in result.history)


def test_direct_search_charges_each_failing_point_once(toy_problem, toy_brute_force):
    problem = nan_objective_at_k2(toy_problem)
    result = mb.run_direct_search(problem, mb.SearchConfig(budget=60, seed=0), progress=False)
    charged = charged_failures(result.history)
    assert charged and max(charged.values()) == 1
    assert any(r.error is not None and r.cached for r in result.history)
    assert result.stop_reason == "converged"
    assert barrier_value(result.best) == toy_brute_force[0]


def test_incumbent_is_nonincreasing(toy_problem):
    cfg = mb.SearchConfig(budget=150, seed=3, subproblem_budget=15)
    result = mb.run_direct_search(toy_problem, cfg, progress=False)
    values = [stats.incumbent for stats in result.iterations]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_every_evaluated_point_is_in_domain(toy_problem):
    cfg = mb.SearchConfig(budget=120, seed=1, subproblem_budget=15)
    result = mb.run_direct_search(toy_problem, cfg, progress=False)
    for record in result.history:
        assert toy_problem.domain.contains(record.point)


def test_identical_runs_produce_identical_history(tmp_path, toy_problem):
    cfg = mb.SearchConfig(budget=120, seed=5, subproblem_budget=15)
    paths = []
    for name in ("one.csv", "two.csv"):
        result = mb.run_direct_search(toy_problem, cfg, progress=False)
        path = tmp_path / name
        mb.write_history(toy_problem.domain, toy_problem.constraints,
                         result.history, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


# sha256 of the mlp direct-search history CSV (budget 2000) per solver seed.
MLP_HISTORY_SHA256 = {
    0: "0d788960048a99f6f5118db69c581d28fb79917fd474101745a3e8b127e97ab5",
    1: "e7eb55625b7c663b49880df01882c0cd369f1e5d54eaddf45ccb4decb5ff7b95",
    2: "a6da6cb8c15d65c4b16b3f32f9be1319af240392972a8ae0c7611f0e0cc7df06",
}


@pytest.mark.parametrize("seed", sorted(MLP_HISTORY_SHA256))
def test_mlp_history_matches_golden_digest(tmp_path, mlp_problem, seed):
    """Fixed-seed direct-search histories on mlp stay byte-identical.

    Performance work and refactors must not change which points are
    evaluated or how they are recorded.  A change that alters a digest on
    purpose updates ``MLP_HISTORY_SHA256`` and explains the change in
    CHANGES.md.
    """
    result = mb.run_direct_search(mlp_problem, mb.SearchConfig(budget=2000, seed=seed))
    path = tmp_path / "history.csv"
    mb.write_history(mlp_problem.domain, mlp_problem.constraints, result.history, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MLP_HISTORY_SHA256[seed]


def test_without_global_search_runs_are_seed_independent(toy_problem):
    results = [mb.run_direct_search(
        toy_problem,
        mb.SearchConfig(budget=150, seed=seed, subproblem_budget=20,
                        global_search="none"),
        progress=False) for seed in (0, 11)]
    objectives = [[r.objective for r in res.history] for res in results]
    assert objectives[0] == objectives[1]
    assert results[0].stop_reason == "converged"


def test_non_opportunistic_poll_still_finds_toy_minimum(toy_problem, toy_brute_force):
    cfg = mb.SearchConfig(budget=250, seed=0, subproblem_budget=20, opportunistic=False)
    result = mb.run_direct_search(toy_problem, cfg, progress=False)
    assert result.best.objective == toy_brute_force[0]


def test_mlp_proxy_descends_quickly(mlp_problem):
    cfg = mb.SearchConfig(budget=400, seed=0)
    result = mb.run_direct_search(mlp_problem, cfg, progress=False)
    assert barrier_value(result.best) <= 0.5
    assert result.best.feasible


def test_progress_lines_on_stderr(capsys, toy_problem):
    mb.run_direct_search(toy_problem, mb.SearchConfig(budget=30, seed=0,
                                                      subproblem_budget=10),
                         progress=True)
    err = capsys.readouterr().err
    assert err.startswith("iteration 1 ")
    assert "incumbent" in err


def test_default_library_calls_write_nothing_to_stderr(capfd, toy_problem):
    mb.run_direct_search(toy_problem, mb.SearchConfig(budget=30, seed=0,
                                                      subproblem_budget=10))
    mb.run_bo(toy_problem, mb.BOConfig(budget=12, seed=0))
    assert capfd.readouterr().err == ""


def test_invalid_config_rejected():
    # A fractional count once raised a raw TypeError mid-run, a bool was read
    # as a count, and opportunistic="no" ran opportunistic.
    for field, value in (("budget", 0), ("global_search", "annealing"),
                         ("subproblem_budget", 2.5), ("max_iterations", True),
                         ("budget", "3"), ("opportunistic", "no"), ("opportunistic", 1)):
        with pytest.raises(mb.ConfigurationError):
            mb.SearchConfig(**{field: value})
