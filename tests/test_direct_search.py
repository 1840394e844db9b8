import dataclasses
import hashlib
import math

import numpy as np
import pytest

import metabox as mb
from metabox.bayesian import ACQ_MIN_FRACTION
from metabox import direct_search
from metabox.blackbox import barrier_value, cache_key
from metabox.builtin_problems import MLP_CONTINUOUS_TARGETS, mlp_normalized
from metabox.direct_search import MIN_FRACTION, MeshState
from conftest import charged_failures, nan_objective_at_k2, toy_with_k_cap

ADAM2 = mb.MetaComponent({"l": 2, "o": "Adam"})


# -- mesh ------------------------------------------------------------------------------

def test_mesh_steps_refinement_and_floors():
    scopes = [mb.ContinuousScope(0.0, 2.0), mb.IntegerScope(0, 13), mb.IntegerScope(0, 2)]
    for floor in (MIN_FRACTION, ACQ_MIN_FRACTION):
        mesh = MeshState([scopes, scopes], floor=floor)
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
    wide = MeshState([[mb.ContinuousScope(0.0, 1.0), mb.IntegerScope(0, 400)]],
                     floor=ACQ_MIN_FRACTION)
    for _ in range(4):
        wide.refine()
    assert wide.scale[0].tolist() == [ACQ_MIN_FRACTION, 6.0]  # 100, 50, 25, 12, 6
    assert not wide.at_minimum()


def test_stacked_mesh_pads_rows_with_still_columns():
    # Rows of mixed widths, padded to the widest: a still column's step is 0
    # and it is always at its floor, so only real columns decide.
    narrow = [mb.IntegerScope(0, 13)]
    wide = [mb.ContinuousScope(0.0, 2.0), mb.IntegerScope(0, 2)]
    mesh = MeshState([narrow, narrow, wide, []], floor=ACQ_MIN_FRACTION)
    assert mesh.scale.shape == (4, 2)
    assert mesh.width[[0, 3]].tolist() == [[13.0, 0.0], [0.0, 0.0]]
    assert mesh.steps([0, 1, 2, 3]).tolist() == [[3.0, 0.0], [3.0, 0.0], [0.5, 1.0],
                                                 [0.0, 0.0]]
    assert mesh.at_minimum([0, 2, 3]).tolist() == [False, False, True]
    mesh.refine([0, 3])
    mesh.refine(0)
    assert mesh.steps([0, 1, 3]).tolist() == [[1.0, 0.0], [3.0, 0.0], [0.0, 0.0]]
    assert mesh.at_minimum(0) and not mesh.at_minimum(1)


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
    0: "eba688f87b966ecb53fd235849a67ac0ef1d6b66a6c61f99700449504dbfefa0",
    1: "7e2121588586ae9616bfaad791604aaccd3e37d038ab8b760344d88b13c962e7",
    2: "2a9a610f105567054623cd207d4c5d668f0622e1d8b9d664b9315daecb226766",
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


# sha256 of the mlp direct-search history CSV (budget 2000) per solver seed,
# polled on the file's own meta mapping, as the bench's direct-mlp solves.
# The two mappings differ only in points that the screen keeps from the history.
MLP_FILE_MAPPING_HISTORY_SHA256 = {
    0: "eba688f87b966ecb53fd235849a67ac0ef1d6b66a6c61f99700449504dbfefa0",
    1: "7e2121588586ae9616bfaad791604aaccd3e37d038ab8b760344d88b13c962e7",
    2: "2a9a610f105567054623cd207d4c5d668f0622e1d8b9d664b9315daecb226766",
}


@pytest.mark.parametrize("seed", sorted(MLP_FILE_MAPPING_HISTORY_SHA256))
def test_mlp_file_mapping_history_matches_golden_digest(tmp_path, mlp_parsed, seed):
    """As ``test_mlp_history_matches_golden_digest``, with the meta mapping
    that mlp.json declares."""
    problem = mlp_parsed.problem
    result = mb.run_direct_search(problem, mb.SearchConfig(budget=2000, seed=seed),
                                  meta_mapping=mlp_parsed.meta_mapping)
    path = tmp_path / "history.csv"
    mb.write_history(problem.domain, problem.constraints, result.history, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == MLP_FILE_MAPPING_HISTORY_SHA256[seed])


def test_a_screened_start_is_never_run_charged_recorded_or_cached(mlp_problem, mlp_domain):
    calls = []

    def objective(point):
        calls.append(point)
        return mlp_problem.objective(point)

    problem = dataclasses.replace(mlp_problem, objective=objective)
    evaluator = mb.Evaluator(problem, 1)
    broken = mlp_domain.complete_point(ADAM2, {"u1": 100, "u2": 300})  # u2 > u1
    for _ in range(2):
        assert direct_search._evaluate_barrier(evaluator, broken) == (None, math.inf)
    assert calls == [] and evaluator.history == [] and evaluator.budget.used == 0
    assert evaluator.screened == 2
    # Screened before the budget: once the one evaluation is spent, a broken
    # start still settles and a new feasible one is refused.
    kept, barrier = direct_search._evaluate_barrier(evaluator, mlp_domain.complete_point(ADAM2, {}))
    assert kept.feasible and kept.index == 0 and barrier == kept.objective
    assert direct_search._evaluate_barrier(evaluator, broken) == (None, math.inf)
    assert evaluator.screened == 3
    with pytest.raises(mb.BudgetExhaustedError):
        direct_search._evaluate_barrier(evaluator, mlp_domain.complete_point(ADAM2, {"u1": 250}))
    # Never cached: asked of the evaluator itself, the broken point is refused
    # for want of budget rather than served a record.
    with pytest.raises(mb.BudgetExhaustedError):
        evaluator.evaluate(broken)
    cfg = mb.SearchConfig(budget=1, subproblem_budget=1)
    result = mb.solve_standard_subproblem(evaluator, ADAM2, broken.categorical,
                                          broken.standard, cfg)
    assert result.record is None and result.barrier == math.inf
    assert result.reason == "subproblem_budget" and result.evaluations == 1
    assert evaluator.screened == 4
    assert len(calls) == 1 and evaluator.history == [kept] and evaluator.budget.used == 1


def test_a_non_member_start_is_refused_before_the_screen(mlp_problem, mlp_domain):
    # The float twin of a broken integer point is an equal Point outside the domain.
    evaluator = mb.Evaluator(mlp_problem, 5)
    broken = mlp_domain.complete_point(ADAM2, {"u1": 100, "u2": 300})
    twin = mb.Point(ADAM2, broken.categorical, {**broken.standard, "u2": 300.0})
    assert twin == broken and not mlp_problem.constraints.screen(twin)[1]
    with pytest.raises(mb.DomainError):
        direct_search._evaluate_barrier(evaluator, twin)
    assert evaluator.screened == 0 and evaluator.history == []


def settled(records):
    """What a history says of each record, its index aside."""
    return [(cache_key(r.point), r.objective, r.feasible, r.cached, r.error, r.constraints)
            for r in records]


# Points screened (``Evaluator.screened``) and evaluations charged by the mlp
# direct-search solves (budget 2000) of seeds 0, 1 and 2, per meta mapping.
MLP_SCREENED = {"default": (1076, 990, 884), "file": (1576, 1490, 1384)}
MLP_CHARGED = (653, 666, 663)


@pytest.mark.parametrize("mapping", ["default", "file"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_screening_only_drops_the_infeasible_records(monkeypatch, mlp_parsed, seed, mapping):
    """Every mlp constraint is analytic, and under the extreme barrier a
    screened point scores what an evaluated infeasible one does: screening
    changes no decision of the search, only what is charged and recorded.

    The unscreened reference runs on constraint systems that screen
    nothing: ``move_breaks`` passes every move and ``screen`` calls every
    point feasible, with its real values, which the evaluator records."""
    meta_mapping = mlp_parsed.meta_mapping if mapping == "file" else None
    runs = {}
    for screen in (True, False):
        if not screen:
            real = mb.ConstraintSystem.screen
            monkeypatch.setattr(mb.ConstraintSystem, "move_breaks", lambda *move: False)
            monkeypatch.setattr(mb.ConstraintSystem, "screen",
                                lambda system, point: (real(system, point)[0], True))
        runs[screen] = mb.run_direct_search(mlp_parsed.problem,
                                            mb.SearchConfig(budget=2000, seed=seed),
                                            meta_mapping=meta_mapping)
    plain, screened = runs[False], runs[True]
    assert settled(screened.history) == settled(r for r in plain.history if r.feasible)
    assert [r.index for r in screened.history] == list(range(len(screened.history)))
    assert settled([screened.best]) == settled([plain.best])
    assert screened.stop_reason == plain.stop_reason == "converged"
    assert plain.evaluator.screened == 0 < screened.evaluator.screened
    assert screened.evaluator.screened == MLP_SCREENED[mapping][seed]
    assert screened.evaluator.budget.used == MLP_CHARGED[seed] < plain.evaluator.budget.used


@pytest.mark.parametrize("case", ["all-screened", "rest-failing"])
def test_best_is_never_a_screened_start(case):
    # The start point (k = 2) breaks the cap.  With k <= -1 every point is
    # screened; with k <= 1 the blackbox fails on every point it runs.
    problem = mb.parse_problem(toy_with_k_cap(1 if case == "all-screened" else -1)).problem
    if case == "rest-failing":
        problem = dataclasses.replace(problem, objective=lambda point: (math.nan, {}))
    result = mb.run_direct_search(problem, mb.SearchConfig(budget=30, seed=0))
    assert result.evaluator.screened > 0
    if case == "all-screened":
        assert result.history == [] and result.best is None
    else:
        assert result.history and all(r.error is not None for r in result.history)
        assert result.best is result.history[0]


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


@pytest.mark.parametrize("config", [mb.SearchConfig, mb.BOConfig])
@pytest.mark.parametrize("seed", [2.5, -1, True, "0"])
def test_seed_must_be_a_nonnegative_integer(config, seed):
    # seed=2.5 once raised a raw TypeError from np.random.default_rng, and
    # seed=-1 a raw ValueError, both mid-run.
    with pytest.raises(mb.ConfigurationError, match="seed"):
        config(seed=seed)
