import copy
import csv
import dataclasses
import itertools
import json
import math
import os
import pickle
import signal
import sys
import threading
import time

import pytest

import metabox as mb
from metabox import blackbox, direct_search
from metabox.bayesian import AcquisitionLogRow, write_acquisition_log
from metabox.blackbox import barrier_value, cache_key, history_header, render_value
from metabox.builtin_problems import (MLP_ACTIVATION_GAP, MLP_CONTINUOUS_TARGETS,
                                      MLP_OPTIMIZER_BASE, MLP_UNIT_TARGETS, toy_table)
from conftest import toy_with_k_cap

ADAM2 = mb.MetaComponent({"l": 2, "o": "Adam"})


def is_evaluated(evaluator, point):
    """Whether ``evaluator``'s history holds a successful record of ``point``."""
    return any(r.point == point and r.error is None for r in evaluator.history)


# -- cache keys ------------------------------------------------------------------

def test_cache_key_sorted_and_17_digits(mlp_domain):
    point = mlp_domain.complete_point(ADAM2, {"r": 1 / 3})
    key = cache_key(point)
    assert key.startswith("l=2;o=Adam|")
    assert f"r={1 / 3:.17g}" in key
    assert "lam" not in key  # nonacting variables never appear


def test_cache_key_invariant_to_map_order(mlp_domain):
    a = mb.Point({"l": 2, "o": "Adam"}, {"a": 1},
                 {"u1": 200, "u2": 150, "r": 0.5, "beta1": 0.5, "beta2": 0.5, "eps": 0.5})
    b = mb.Point({"o": "Adam", "l": 2}, {"a": 1},
                 {"eps": 0.5, "beta2": 0.5, "beta1": 0.5, "r": 0.5, "u2": 150, "u1": 200})
    assert cache_key(a) == cache_key(b)
    assert a == b and hash(a) == hash(b)


def test_cache_key_of_plain_dict_meta_is_unchanged():
    # The meta part is rendered once per MetaComponent; the key reads as it
    # did when every call rendered it, for a meta given as a plain dict too.
    standard = {"u1": 200, "r": 0.1, "t": True}
    meta = {"o": "Adam", "w": 0.25, "l": 2, "b": False}
    for point in (mb.Point(meta, {"a": 1}, standard),
                  mb.Point(mb.MetaComponent(meta), {"a": 1}, standard)):
        for _ in range(2):
            assert cache_key(point) == ("b=false;l=2;o=Adam;w=0.25|"
                                        "a=1;r=0.10000000000000001;t=true;u1=200")


# -- evaluation, cache, budget ------------------------------------------------------

def test_duplicate_evaluation_hits_cache(mlp_problem, mlp_domain):
    evaluator = mb.Evaluator(mlp_problem, 5)
    point = mlp_domain.complete_point(ADAM2, {})
    first = evaluator.evaluate(point)
    second = evaluator.evaluate(point)
    assert not first.cached and second.cached
    assert second.objective == first.objective
    assert second.constraints == first.constraints
    assert evaluator.budget.used == 1
    assert [r.index for r in evaluator.history] == [0, 1]


def test_budget_exhaustion_raises(mlp_problem, mlp_domain):
    evaluator = mb.Evaluator(mlp_problem, 1)
    evaluator.evaluate(mlp_domain.complete_point(ADAM2, {}))
    with pytest.raises(mb.BudgetExhaustedError):
        evaluator.evaluate(mlp_domain.complete_point(ADAM2, {"u1": 150}))
    # cached points stay available after exhaustion
    assert evaluator.evaluate(mlp_domain.complete_point(ADAM2, {})).cached


@pytest.mark.parametrize("budget", [2.7, "3", True, -1, math.nan],
                         ids=["float", "str", "bool", "negative", "nan"])
def test_a_budget_that_is_not_an_integer_at_least_zero_is_refused(mlp_problem, budget):
    with pytest.raises(mb.ConfigurationError, match="max_evaluations"):
        mb.Evaluator(mlp_problem, budget)


def test_a_zero_budget_is_accepted_and_already_exhausted(mlp_problem, mlp_domain):
    evaluator = mb.Evaluator(mlp_problem, 0)
    assert evaluator.budget.remaining == 0
    with pytest.raises(mb.BudgetExhaustedError):
        evaluator.evaluate(mlp_domain.complete_point(ADAM2, {}))


def test_used_counts_only_fresh_records(mlp_problem, mlp_domain):
    evaluator = mb.Evaluator(mlp_problem, 10)
    for u1 in (150, 150, 200, 200, 150):
        evaluator.evaluate(mlp_domain.complete_point(ADAM2, {"u1": u1}))
    assert evaluator.budget.used == sum(1 for r in evaluator.history if not r.cached) == 2


def test_without_screening_a_broken_point_is_run_and_charged(mlp_problem, mlp_domain):
    evaluator = mb.Evaluator(mlp_problem, 5)
    record = evaluator.evaluate(mlp_domain.complete_point(ADAM2, {"u1": 100, "u2": 300}))
    assert not record.feasible and math.isfinite(record.objective)
    assert evaluator.history == [record] and evaluator.budget.used == 1
    assert evaluator.screened == 0


def test_out_of_domain_point_refused(mlp_problem, mlp_domain):
    evaluator = mb.Evaluator(mlp_problem, 5)
    bad = mb.Point(ADAM2, {"a": 1}, {"u1": 200, "u2": 150, "r": 0.5, "beta1": 0.5,
                                     "beta2": 0.5, "eps": 0.5, "lam": 0.5})
    with pytest.raises(mb.DomainError) as err:
        evaluator.evaluate(bad)
    assert any(issue.subject == "lam" for issue in err.value.reasons)


def test_float_twin_of_an_evaluated_integer_point_is_refused(mlp_problem, mlp_domain):
    # cache_key renders 200 and 200.0 alike, so membership must be checked
    # before the cache lookup or the twin would be served the cached record.
    evaluator = mb.Evaluator(mlp_problem, 5)
    point = mlp_domain.complete_point(ADAM2, {"u1": 200})
    evaluator.evaluate(point)
    twin = mb.Point(ADAM2, point.categorical, {**point.standard, "u1": 200.0})
    assert cache_key(twin) == cache_key(point)
    with pytest.raises(mb.DomainError):
        evaluator.evaluate(twin)
    assert evaluator.budget.used == 1
    assert len(evaluator.history) == 1


def test_moved_twins_of_an_integer_point_are_refused(mlp_problem, mlp_domain):
    evaluator = mb.Evaluator(mlp_problem, 5)
    center = mlp_domain.complete_point(ADAM2, {"u1": 150})
    evaluator.evaluate(center)
    member = center.moved("u1", 200)
    evaluator.evaluate(member)
    twins = [mb.Point(ADAM2, member.categorical, {**member.standard, "u1": 200.0}),
             center.moved("u1", 200.0), member.moved("u1", 200.0),
             center.moved("u1", 200.0).moved("u2", 200)]
    for twin in twins:
        assert twin == member
        with pytest.raises(mb.DomainError):
            evaluator.evaluate(twin)
    assert evaluator.budget.used == len(evaluator.history) == 2


def test_the_membership_witness_does_not_cross_domains(mlp_problem, mlp_domain):
    # u2 is carried unchanged by the move, and the narrower domain refuses it.
    narrow = mb.Domain([dataclasses.replace(v, scope=mb.IntegerScope(100, 120))
                        if v.id == "u2" else v for v in mlp_domain.variables])
    problem = dataclasses.replace(
        mlp_problem, domain=narrow,
        constraints=mb.ConstraintSystem(narrow, mlp_problem.constraints.constraints))
    center = mlp_domain.complete_point(ADAM2, {"u2": 200})
    mb.Evaluator(mlp_problem, 5).evaluate(center)
    moved = center.moved("u1", 250)
    evaluator = mb.Evaluator(problem, 5)
    with pytest.raises(mb.DomainError) as err:
        evaluator.evaluate(moved)
    assert [(i.code, i.subject) for i in err.value.reasons] == [("scope", "u2")]
    assert mlp_domain.contains(moved) and not narrow.contains(moved)
    assert evaluator.budget.used == len(evaluator.history) == 0


def test_a_moved_point_is_the_point_built_from_scratch(mlp_problem, mlp_domain):
    center = mlp_domain.complete_point(ADAM2, {"u1": 150})
    evaluator = mb.Evaluator(mlp_problem, 5)
    evaluator.evaluate(center)
    moved = center.moved("r", 0.25)
    scratch = mb.Point(ADAM2, dict(center.categorical), {**center.standard, "r": 0.25})
    assert moved == scratch and hash(moved) == hash(scratch)
    assert cache_key(moved) == cache_key(scratch)
    assert not evaluator.evaluate(scratch).cached
    assert evaluator.evaluate(moved).cached
    assert evaluator.budget.used == 2
    # Copies are rebuilt from the values, without the witness.
    for copied in (copy.deepcopy(moved), pickle.loads(pickle.dumps(moved))):
        assert copied == moved and mlp_domain.contains(copied)


def test_waiters_run_the_point_when_the_backend_aborts(toy_problem):
    # An exception that is not an EvaluationError is charged but records
    # nothing, so the point's next request runs it again.
    class Abort(BaseException):
        pass

    calls = []

    def objective(point):
        calls.append(point)
        if len(calls) == 1:
            raise Abort()
        return 1.0, {}

    problem = mb.Problem(domain=toy_problem.domain,
                         constraints=mb.ConstraintSystem(toy_problem.domain, []),
                         objective=objective)
    evaluator = mb.Evaluator(problem, 10)
    point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {"k": 3})
    with pytest.raises(Abort):
        evaluator.evaluate(point)
    assert evaluator.budget.used == 1 and evaluator.history == []
    assert evaluator.evaluate(point).objective == 1.0
    assert len(calls) == 2 and evaluator.budget.used == 2
    assert [r.cached for r in evaluator.history] == [False]


def test_signed_zero_twins_are_one_evaluation():
    # Point equality is the evaluator's identity: 0.0 == -0.0, although the
    # two render differently in cache_key.
    domain = mb.Domain([
        mb.VariableSpec("m", mb.VariableType.META_CATEGORICAL, mb.Role.META,
                        mb.CategoricalScope(("A", "B"))),
        mb.VariableSpec("x", mb.VariableType.CONTINUOUS, mb.Role.GLOBAL,
                        mb.ContinuousScope(-1.0, 1.0)),
    ])
    problem = mb.Problem(domain=domain, constraints=mb.ConstraintSystem(domain, []),
                         objective=lambda point: (point.standard["x"] ** 2, {}))
    evaluator = mb.Evaluator(problem, 5)
    zero, negative_zero = (mb.Point({"m": "A"}, {}, {"x": x}) for x in (0.0, -0.0))
    assert cache_key(zero) != cache_key(negative_zero)
    assert not is_evaluated(evaluator, negative_zero)
    assert not evaluator.evaluate(zero).cached
    assert is_evaluated(evaluator, negative_zero)
    assert evaluator.evaluate(negative_zero).cached
    assert evaluator.budget.used == 1
    assert [cache_key(r.point) for r in evaluator.history if not r.cached] == [cache_key(zero)]


def test_timeout_env_var_override(monkeypatch, toy_problem):
    monkeypatch.setenv("METABOX_BLACKBOX_TIMEOUT", "7.5")
    evaluator = mb.Evaluator(toy_problem, 1)
    assert evaluator.timeout == 7.5
    monkeypatch.delenv("METABOX_BLACKBOX_TIMEOUT")
    assert mb.Evaluator(toy_problem, 1).timeout == toy_problem.timeout


@pytest.mark.parametrize("text", ["abc", "-1", "0", "nan", "inf"])
def test_invalid_timeout_env_var_is_a_configuration_error(monkeypatch, toy_problem, text):
    monkeypatch.setenv("METABOX_BLACKBOX_TIMEOUT", text)
    with pytest.raises(mb.ConfigurationError, match="METABOX_BLACKBOX_TIMEOUT"):
        mb.Evaluator(toy_problem, 1)


@pytest.mark.parametrize("timeout", [-1.0, 0, math.nan, math.inf, True])
def test_invalid_timeout_in_code_is_a_configuration_error(toy_problem, timeout):
    with pytest.raises(mb.ConfigurationError, match="timeout"):
        mb.Problem(domain=toy_problem.domain, constraints=toy_problem.constraints,
                   command=("true",), timeout=timeout)
    with pytest.raises(mb.ConfigurationError, match="timeout"):
        mb.Evaluator(toy_problem, 1, timeout=timeout)


@pytest.mark.parametrize("command", [("python3", 3), "python3 blackbox.py", 5, None])
def test_command_that_is_not_a_sequence_of_strings_is_a_configuration_error(toy_problem,
                                                                             command):
    # A non-string entry once made Popen raise a TypeError out of evaluate,
    # which catches only OSError; a string was split into one-letter arguments.
    # A number, or None beside an objective, once failed in tuple(command).
    objective = (lambda point: (0.0, {})) if command is None else None
    with pytest.raises(mb.ConfigurationError, match="command"):
        mb.Problem(domain=toy_problem.domain, constraints=toy_problem.constraints,
                   objective=objective, command=command)


@pytest.mark.parametrize("backend", [{}, {"objective": lambda point: (0.0, {}),
                                         "command": ("true",)}, {"objective": 5}])
def test_a_problem_needs_exactly_one_callable_or_command(toy_problem, backend):
    # Neither or both once raised a bare ValueError; objective=5 was accepted,
    # and then every evaluation failed and was charged.
    with pytest.raises(mb.ConfigurationError, match="objective"):
        mb.Problem(domain=toy_problem.domain, constraints=toy_problem.constraints, **backend)


# -- the proxy problem ----------------------------------------------------------------

def test_proxy_minimum_is_zero(mlp_problem):
    evaluator = mb.Evaluator(mlp_problem, 5)
    record = evaluator.evaluate(mb.mlp_minimizer(mlp_problem.domain))
    assert record.objective == 0.0
    assert record.feasible


def test_proxy_sigmoid_gap(mlp_problem, mlp_domain):
    evaluator = mb.Evaluator(mlp_problem, 5)
    record = evaluator.evaluate(mlp_domain.complete_point(ADAM2, {"a": "Sigmoid"}))
    assert record.objective >= MLP_ACTIVATION_GAP["Sigmoid"]


def test_proxy_monotonicity_violation_infeasible(mlp_problem, mlp_domain):
    evaluator = mb.Evaluator(mlp_problem, 5)
    record = evaluator.evaluate(
        mlp_domain.complete_point(ADAM2, {"u1": 100, "u2": 300}))
    assert record.constraints["units_mono_2"] == 200.0
    assert not record.feasible


def test_proxy_constants_match_bundled_metadata(mlp_parsed):
    # bench/mlp_oracle.py scores the proxy from this metadata block alone.
    metadata = mlp_parsed.metadata
    assert tuple(metadata["unit_targets"]) == MLP_UNIT_TARGETS
    assert metadata["optimizer_base"] == MLP_OPTIMIZER_BASE
    assert metadata["activation_gap"] == MLP_ACTIVATION_GAP
    assert metadata["normalized_continuous_targets"] == MLP_CONTINUOUS_TARGETS


def test_proxy_continuous_targets_lie_inside_unit_interval():
    for targets in MLP_CONTINUOUS_TARGETS.values():
        assert all(0.0 < z < 1.0 for z in targets.values())


def test_replay_reproduces_values_bit_for_bit(mlp_problem, mlp_domain):
    first = mb.Evaluator(mlp_problem, 20)
    points = [mlp_domain.complete_point(ADAM2, {"u1": u}) for u in (100, 137, 291)]
    originals = [first.evaluate(p) for p in points]
    replay = mb.Evaluator(mlp_problem, 20)
    for point, original in zip(points, originals):
        again = replay.evaluate(point)
        assert again.objective == original.objective
        assert again.constraints == original.constraints


# -- the toy problem --------------------------------------------------------------------

def test_toy_table_is_distinct_and_small(toy_problem):
    table = toy_table(toy_problem.domain)
    assert len(table) == 60 <= 120
    assert len(set(table.values())) == 60


def test_toy_unique_minimum(toy_problem, toy_brute_force):
    value, point = toy_brute_force
    assert math.isfinite(value)
    table = toy_table(toy_problem.domain)
    feasible_values = [v for p, v in table.items()
                       if p.meta["m"] == "A" or p.standard["k"] <= 2]
    assert value == min(feasible_values)


def test_toy_blackbox_constraint_emitted_only_when_acting(toy_problem):
    evaluator = mb.Evaluator(toy_problem, 10)
    a_rec = evaluator.evaluate(
        toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {}))
    b_rec = evaluator.evaluate(
        toy_problem.domain.complete_point(mb.MetaComponent({"m": "B"}), {"k": 4}))
    assert a_rec.constraints == {}
    assert b_rec.constraints == {"branch_cap": 2.0}
    assert not b_rec.feasible


@pytest.mark.parametrize("objective, branch_cap", [(math.nan, 1.0), (math.inf, 1.0),
                                                 (1.0, math.nan), (1.0, -math.inf)])
def test_non_finite_outputs_are_evaluation_failures(toy_problem, objective, branch_cap):
    problem = mb.Problem(domain=toy_problem.domain, constraints=toy_problem.constraints,
                         objective=lambda p: (objective, {"branch_cap": branch_cap}))
    evaluator = mb.Evaluator(problem, 5)
    point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "B"}), {})
    with pytest.raises(mb.EvaluationError, match="non-finite"):
        evaluator.evaluate(point)
    (record,) = evaluator.history
    assert record.error is not None and record.objective == math.inf
    assert not record.feasible and not is_evaluated(evaluator, point)


def test_failed_evaluation_is_not_rerun(toy_problem):
    calls = []

    def objective(point):
        calls.append(point)
        raise RuntimeError("boom")

    problem = mb.Problem(domain=toy_problem.domain, constraints=toy_problem.constraints,
                         objective=objective)
    evaluator = mb.Evaluator(problem, 1)
    point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {})
    for _ in range(3):  # the repeats raise even with the budget spent
        with pytest.raises(mb.EvaluationError, match="boom"):
            evaluator.evaluate(point)
    assert len(calls) == 1 and evaluator.budget.used == 1
    assert [(r.index, r.cached) for r in evaluator.history] == [(0, False), (1, True),
                                                                (2, True)]
    for record in evaluator.history:
        assert "boom" in record.error and record.objective == math.inf
        assert not record.feasible and record.point == point
    assert not is_evaluated(evaluator, point)


# -- external subprocess blackboxes --------------------------------------------------------

def quadratic_child(tmp_path, body):
    script = tmp_path / "bb.py"
    script.write_text(body)
    return script


CHILD_OK = """\
import json, sys
data = json.load(sys.stdin)
k = data["standard"]["k"]
level = data["categorical"]["s"]
value = (k - 1) ** 2 + {"low": 0, "mid": 1, "high": 2}[level]
out = {"objective": value}
if data["meta"]["m"] == "B":
    out["constraints"] = {"branch_cap": k - 2}
json.dump(out, sys.stdout)
"""


def subprocess_problem(toy_problem, script):
    return mb.Problem(domain=toy_problem.domain, constraints=toy_problem.constraints,
                      command=(sys.executable, str(script)), timeout=20.0)


def test_subprocess_protocol_round_trip(tmp_path, toy_problem):
    script = quadratic_child(tmp_path, CHILD_OK)
    problem = subprocess_problem(toy_problem, script)
    evaluator = mb.Evaluator(problem, 5)
    point = toy_problem.domain.complete_point(
        mb.MetaComponent({"m": "B"}), {"k": 3, "s": "high", "pB": "short"})
    record = evaluator.evaluate(point)
    assert record.objective == (3 - 1) ** 2 + 2
    assert record.constraints["branch_cap"] == 1.0
    assert not record.feasible


def test_subprocess_failure_recorded_and_raised(tmp_path, toy_problem):
    script = quadratic_child(tmp_path, "import sys; sys.exit(3)\n")
    problem = subprocess_problem(toy_problem, script)
    evaluator = mb.Evaluator(problem, 5)
    point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {})
    with pytest.raises(mb.EvaluationError):
        evaluator.evaluate(point)
    record = evaluator.history[-1]
    assert record.error is not None
    assert record.objective == math.inf and not record.feasible
    assert evaluator.budget.used == 1  # failures consume budget


def test_subprocess_malformed_output_is_an_evaluation_error(tmp_path, toy_problem):
    point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {})
    for output in ("not json", '{"objective": 1, "constraints": null}',
                   '{"objective": 1, "constraints": [1]}'):
        script = quadratic_child(tmp_path, f"print({output!r})\n")
        evaluator = mb.Evaluator(subprocess_problem(toy_problem, script), 5)
        with pytest.raises(mb.EvaluationError, match="malformed"):
            evaluator.evaluate(point)
        (record,) = evaluator.history
        assert record.error.startswith("blackbox output malformed")
        assert evaluator.budget.used == 1


@pytest.mark.parametrize("output", [(1.0, None), (1.0, {"branch_cap": "high"}),
                                    ("low", {"branch_cap": -1.0}), 1.0])
def test_malformed_in_process_output_is_an_evaluation_error(toy_problem, output):
    # The first three once escaped evaluate as a raw TypeError or ValueError,
    # charged but recorded nowhere.
    evaluator = mb.Evaluator(dataclasses.replace(toy_problem, objective=lambda point: output), 5)
    point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "B"}), {})
    for cached in (False, True):
        with pytest.raises(mb.EvaluationError, match="^blackbox output malformed") as err:
            evaluator.evaluate(point)
        assert err.value.record is evaluator.history[-1]
        assert err.value.record.cached == cached
    assert evaluator.budget.used == 1


@pytest.mark.parametrize("output", [(True, {}), ("1.5", {}), (1.0, {"branch_cap": False}),
                                    (1.0, {"branch_cap": "-1"}), (None, {})])
def test_outputs_that_are_not_numbers_are_malformed(toy_problem, output):
    # float() once read True as 1.0, "1.5" as 1.5 and False as 0.0.
    evaluator = mb.Evaluator(dataclasses.replace(toy_problem, objective=lambda point: output), 5)
    point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "B"}), {})
    for cached in (False, True):
        with pytest.raises(mb.EvaluationError, match="^blackbox output malformed: .*must be "
                                                     "a number") as err:
            evaluator.evaluate(point)
        assert err.value.record is evaluator.history[-1]
        assert err.value.record.cached == cached
    assert evaluator.budget.used == 1


def test_numpy_reals_are_numbers(toy_problem):
    import numpy as np
    output = (np.float32(1.5), {"branch_cap": np.int64(-2)})
    evaluator = mb.Evaluator(dataclasses.replace(toy_problem, objective=lambda point: output), 5)
    record = evaluator.evaluate(
        toy_problem.domain.complete_point(mb.MetaComponent({"m": "B"}), {}))
    assert (record.objective, record.constraints["branch_cap"]) == (1.5, -2.0)
    assert type(record.objective) is float and record.feasible


@pytest.mark.parametrize("output", ['{"objective": true}', '{"objective": "1.5"}',
                                    '{"objective": 1, "constraints": {"branch_cap": false}}'])
def test_subprocess_output_that_is_not_a_number_is_malformed(tmp_path, toy_problem, output):
    script = quadratic_child(tmp_path, f"print({output!r})\n")
    evaluator = mb.Evaluator(subprocess_problem(toy_problem, script), 5)
    point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "B"}), {})
    for cached in (False, True):
        with pytest.raises(mb.EvaluationError, match="^blackbox output malformed: .*must be "
                                                     "a number"):
            evaluator.evaluate(point)
        assert evaluator.history[-1].cached == cached
    assert evaluator.budget.used == 1


@pytest.mark.parametrize("solver", ["direct", "bo"])
def test_solvers_survive_malformed_in_process_output(toy_problem, solver):
    # Under m = B the blackbox returns None for its constraint values, which
    # once crashed both solvers mid-run.
    def objective(point):
        value, constraints = toy_problem.objective(point)
        return value, (None if point.meta["m"] == "B" else constraints)

    problem = dataclasses.replace(toy_problem, objective=objective)
    if solver == "direct":
        result = mb.run_direct_search(problem, mb.SearchConfig(budget=40, seed=0))
    else:
        result = mb.run_bo(problem, mb.BOConfig(budget=20, seed=0))
    failed = [r for r in result.history if r.error is not None]
    assert failed and all(r.point.meta["m"] == "B" for r in failed)
    assert all(r.error.startswith("blackbox output malformed") for r in failed)
    assert result.best.error is None and result.best.point.meta["m"] == "A"


def test_subprocess_missing_constraint_value_is_an_error(tmp_path, toy_problem):
    script = quadratic_child(tmp_path, 'import json,sys; json.dump({"objective": 1.0}, sys.stdout)\n')
    problem = subprocess_problem(toy_problem, script)
    evaluator = mb.Evaluator(problem, 5)
    point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "B"}), {})
    with pytest.raises(mb.EvaluationError):
        evaluator.evaluate(point)


def test_subprocess_timeout(tmp_path, toy_problem):
    script = quadratic_child(tmp_path, "import time; time.sleep(60)\n")
    problem = mb.Problem(domain=toy_problem.domain, constraints=toy_problem.constraints,
                         command=(sys.executable, str(script)), timeout=0.5)
    evaluator = mb.Evaluator(problem, 5)
    with pytest.raises(mb.EvaluationError, match="timed out"):
        evaluator.evaluate(
            toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {}))



def process_running(pid):
    """True while ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_subprocess_timeout_kills_grandchildren(tmp_path, toy_problem):
    # The blackbox starts one grandchild, then both outlive the timeout.
    pid_file = tmp_path / "grandchild.pid"
    script = quadratic_child(tmp_path, (
        "import subprocess, sys, time\n"
        "grandchild = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(20)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(grandchild.pid))\n"
        "time.sleep(20)\n"))
    problem = mb.Problem(domain=toy_problem.domain, constraints=toy_problem.constraints,
                         command=(sys.executable, str(script)), timeout=2.0)
    evaluator = mb.Evaluator(problem, 5)
    with pytest.raises(mb.EvaluationError, match="timed out"):
        evaluator.evaluate(
            toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {}))
    pid = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 5.0
        while process_running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not process_running(pid)
    finally:
        if process_running(pid):
            os.kill(pid, signal.SIGKILL)


# -- lookahead: command children run ahead of their settle -------------------------------

def lookahead_width(monkeypatch, width):
    """Evaluators built from now on run ``width`` command children at once."""
    monkeypatch.setattr(blackbox, "_cpus", lambda: width)


@pytest.fixture
def launches(monkeypatch):
    """(evaluator, started ahead of its settle) for every command child started."""
    started = []
    settling = threading.local()  # set while a settle starts its own child
    start, settle = blackbox._Child.__init__, mb.Evaluator._run_subprocess

    def recorded_start(self, evaluator, point):
        started.append((evaluator, not getattr(settling, "now", False)))
        start(self, evaluator, point)

    def recorded_settle(self, point, child=None):
        settling.now = child is None
        try:
            return settle(self, point, child)
        finally:
            settling.now = False

    monkeypatch.setattr(blackbox._Child, "__init__", recorded_start)
    monkeypatch.setattr(mb.Evaluator, "_run_subprocess", recorded_settle)
    return started


def command_problem(toy_problem, script, *args, timeout=20.0):
    """The toy problem with a stdlib command blackbox (no site import, so it starts fast)."""
    return mb.Problem(domain=toy_problem.domain, constraints=toy_problem.constraints,
                      command=(sys.executable, "-I", "-S", str(script), *map(str, args)),
                      timeout=timeout)


def lookahead_threads():
    return [t for t in threading.enumerate() if t.name.startswith("metabox-lookahead")]


def kill_recorded(pid_dir):
    """SIGKILL every process whose pid a blackbox published in ``pid_dir``."""
    for path in pid_dir.glob("[0-9]*"):
        pid = int(path.read_text())
        if process_running(pid):
            os.kill(pid, signal.SIGKILL)


def wait_until_gone(pids, seconds=5.0):
    deadline = time.monotonic() + seconds
    while any(map(process_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if process_running(pid)]


@pytest.mark.parametrize("seed", [0, 3])
def test_lookahead_width_leaves_command_histories_unchanged(tmp_path, monkeypatch, launches,
                                                            toy_problem, seed):
    problem = command_problem(toy_problem, quadratic_child(tmp_path, CHILD_OK))
    outputs = {}
    for width in (1, 2):
        lookahead_width(monkeypatch, width)
        direct = mb.run_direct_search(problem, mb.SearchConfig(budget=12, seed=seed,
                                                               subproblem_budget=5))
        bo = mb.run_bo(problem, mb.BOConfig(budget=12, seed=seed))
        written = []
        for name, result in (("direct", direct), ("bo", bo)):
            path = tmp_path / f"{name}-{width}.csv"
            mb.write_history(problem.domain, problem.constraints, result.history, path)
            written.append(path.read_bytes())
        path = tmp_path / f"acquisition-{width}.csv"
        write_acquisition_log(bo.acquisition_log, path)
        written.append(path.read_bytes())
        outputs[width] = written
        assert any(ahead for _, ahead in launches) == (width == 2)
        launches.clear()
    assert outputs[1] == outputs[2]


def test_lookahead_passes_placeholders_through_in_place(tmp_path, monkeypatch, toy_problem):
    # A None takes no lookahead slot and starts no child: the children of
    # P1, P2 and P3 start and settle around the records exactly as they do
    # without the placeholders, two at a time.
    lookahead_width(monkeypatch, 2)
    problem = command_problem(toy_problem, quadratic_child(tmp_path, CHILD_OK))
    p1, p2, p3 = (toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {"k": k})
                  for k in (1, 2, 3))
    events = []
    start, settle = blackbox._Child.__init__, mb.Evaluator._run_subprocess

    def recorded_start(self, evaluator, point):
        events.append(("start", point.standard["k"]))
        start(self, evaluator, point)

    def recorded_settle(self, point, child=None):
        events.append(("settle", point.standard["k"], child is not None))
        return settle(self, point, child)

    monkeypatch.setattr(blackbox._Child, "__init__", recorded_start)
    monkeypatch.setattr(mb.Evaluator, "_run_subprocess", recorded_settle)
    runs = {}
    for points in ([p1, None, p2, None, None, p3], [p1, p2, p3]):
        events.clear()
        evaluator = mb.Evaluator(problem, 10)
        with evaluator.lookahead(points) as records:
            got = []
            for record in records:
                got.append(record)
                events.append(("got", None if record is None else record.point.standard["k"]))
        assert [None if r is None else r.point for r in got] == points
        assert evaluator.history == [r for r in got if r is not None]
        assert [r.index for r in evaluator.history] == [0, 1, 2]
        assert evaluator.budget.used == 3 and evaluator.discarded == 0
        runs[len(points)] = [event for event in events if event != ("got", None)]
    assert runs[6] == runs[3]
    assert runs[3] == [("start", 1), ("start", 2), ("settle", 1, True), ("got", 1),
                       ("start", 3), ("settle", 2, True), ("got", 2), ("settle", 3, True),
                       ("got", 3)]


# Every child leaves a grandchild in its own process group and publishes its
# pid (by rename, so a pid file is never read half written); the k == 2
# child then outlives any timeout.
SLOW_AT_K2 = """\
import json, os, subprocess, sys, time
data = json.load(sys.stdin)
k = data["standard"]["k"]
grandchild = subprocess.Popen(
    [sys.executable, "-c", "import time; time.sleep(30)"], stdin=subprocess.DEVNULL,
    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
path = os.path.join(sys.argv[1], str(k))
with open(path + ".part", "w") as fh:
    fh.write(str(grandchild.pid))
os.replace(path + ".part", path)
if k == 2:
    time.sleep(30)
json.dump({"objective": k}, sys.stdout)
"""


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_lookahead_timeout_kills_only_its_own_child(tmp_path, monkeypatch, launches,
                                                   toy_problem):
    script = quadratic_child(tmp_path, SLOW_AT_K2)
    points = [toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {"k": k})
              for k in (1, 2, 3)]
    histories = {}
    for width in (1, 2):
        lookahead_width(monkeypatch, width)
        pid_dir = tmp_path / f"width-{width}"
        pid_dir.mkdir()
        problem = command_problem(toy_problem, script, pid_dir, timeout=1.0)
        evaluator = mb.Evaluator(problem, 5)
        try:
            with evaluator.lookahead(points) as records:
                settled = list(records)
            grandchildren = {int(path.name): int(path.read_text())
                             for path in pid_dir.glob("[0-9]*")}
            # The k == 3 child ran while the k == 2 child timed out.
            assert [ahead for _, ahead in launches] == [width == 2] * 3
            assert wait_until_gone([grandchildren[2]]) == []
            assert process_running(grandchildren[1]) and process_running(grandchildren[3])
        finally:
            kill_recorded(pid_dir)
        assert settled == evaluator.history
        histories[width] = [(r.index, cache_key(r.point), r.objective, r.error)
                            for r in evaluator.history]
        launches.clear()
    assert histories[1] == histories[2]
    assert [objective for _, _, objective, _ in histories[2]] == [1.0, math.inf, 3.0]
    assert "timed out" in histories[2][1][3]


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_lookahead_kills_the_child_of_a_point_never_settled(tmp_path, monkeypatch,
                                                            toy_problem):
    lookahead_width(monkeypatch, 2)
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    problem = command_problem(toy_problem, quadratic_child(tmp_path, SLOW_AT_K2), pid_dir)
    points = [toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {"k": k})
              for k in (1, 2)]
    evaluator = mb.Evaluator(problem, 5)
    start = time.monotonic()
    with evaluator.lookahead(points) as records:
        first = next(records)
        deadline = time.monotonic() + 5.0
        while not (pid_dir / "2").exists() and time.monotonic() < deadline:
            time.sleep(0.02)
    grandchild = int((pid_dir / "2").read_text())
    try:
        # Killed, not awaited: the k == 2 child sleeps for 30 s.
        assert time.monotonic() - start < 15.0
        assert wait_until_gone([grandchild]) == []
    finally:
        kill_recorded(pid_dir)
    assert evaluator.history == [first] and evaluator.budget.used == 1
    assert evaluator.discarded == 1
    assert lookahead_threads() == []


# The k == 2 child writes 1 MiB to stderr and then creates a marker, which
# the k == 1 child waits up to 5 s for: a stderr nobody reads would block it.
STDERR_THEN_MARKER = """\
import json, os, sys, time
k = json.load(sys.stdin)["standard"]["k"]
marker = os.path.join(sys.argv[1], "marker")
if k == 2:
    sys.stderr.write("x" * 2 ** 20)
    sys.stderr.flush()
    open(marker, "w").close()
deadline = time.monotonic() + 5.0
while not os.path.exists(marker) and time.monotonic() < deadline:
    time.sleep(0.01)
json.dump({"objective": float(os.path.exists(marker))}, sys.stdout)
"""


def test_lookahead_child_never_blocks_on_its_stderr(tmp_path, monkeypatch, launches,
                                                    toy_problem):
    lookahead_width(monkeypatch, 2)
    problem = command_problem(toy_problem, quadratic_child(tmp_path, STDERR_THEN_MARKER),
                              tmp_path)
    points = [toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {"k": k})
              for k in (1, 2)]
    evaluator = mb.Evaluator(problem, 5)
    with evaluator.lookahead(points) as records:
        assert [r.objective for r in records] == [1.0, 1.0]
    assert [ahead for _, ahead in launches] == [True, True]


def test_lookahead_records_a_child_that_cannot_be_launched(tmp_path, monkeypatch,
                                                          toy_problem):
    lookahead_width(monkeypatch, 2)
    problem = mb.Problem(domain=toy_problem.domain, constraints=toy_problem.constraints,
                         command=(str(tmp_path / "missing"),))
    points = [toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {"k": k})
              for k in (1, 2)]
    evaluator = mb.Evaluator(problem, 5)
    with evaluator.lookahead(points) as records:
        settled = list(records)
    assert settled == evaluator.history and len(settled) == 2
    assert all("could not be launched" in r.error for r in settled)
    assert evaluator.budget.used == 2 and evaluator.discarded == 0


class InterleavedHistory(list):
    """A history whose first ``[-1]`` read first lets another thread run
    ``interleave`` to completion, as a preempted reader would."""

    def __init__(self, interleave):
        super().__init__()
        self.interleave = interleave

    def __getitem__(self, index):
        if index == -1 and self.interleave is not None:
            thread = threading.Thread(target=self.interleave)
            self.interleave = None
            thread.start()
            thread.join()
        return super().__getitem__(index)


@pytest.mark.parametrize("settle", ["lookahead", "direct-search"])
def test_failure_record_belongs_to_the_failed_point(toy_problem, settle):
    def objective(point):
        raise RuntimeError(f"k={point.standard['k']}")

    problem = mb.Problem(domain=toy_problem.domain, constraints=toy_problem.constraints,
                         objective=objective)
    evaluator = mb.Evaluator(problem, 5)
    mine, other = [toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {"k": k})
                   for k in (1, 2)]

    def evaluate_other():
        with pytest.raises(mb.EvaluationError):
            evaluator.evaluate(other)

    # Another thread's failure may be appended between this point's failure
    # and a read of the history's last entry.
    evaluator.history = InterleavedHistory(evaluate_other)
    if settle == "lookahead":
        with evaluator.lookahead([mine]) as records:
            (record,) = records
    else:
        record, barrier = direct_search._evaluate_barrier(evaluator, mine)
        assert barrier == math.inf
    assert record.point == mine and "k=1" in record.error
    with pytest.raises(mb.EvaluationError) as raised:
        evaluator.evaluate(mine)
    assert raised.value.record.cached and raised.value.record.point == mine


PID_CHILD = """\
import json, os, sys
open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
data = json.load(sys.stdin)
out = {"objective": -data["standard"]["k"]}
if data["meta"]["m"] == "B":
    out["constraints"] = {"branch_cap": -1.0}
json.dump(out, sys.stdout)
"""


class Interrupted(Exception):
    pass


def interrupt_third_barrier(monkeypatch):
    """The direct search's third barrier_value call raises: the first poll
    record of its first subproblem, with the next candidate's child running."""
    calls = itertools.count(1)
    original = direct_search.barrier_value

    def barrier(record):
        if next(calls) == 3:
            raise Interrupted
        return original(record)

    monkeypatch.setattr(direct_search, "barrier_value", barrier)


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.parametrize("case", ["improving-first-candidate", "budget-mid-design",
                                  "consumer-raises"])
def test_lookahead_leaves_no_child_or_thread_behind(tmp_path, monkeypatch, launches,
                                                    toy_problem, case):
    lookahead_width(monkeypatch, 2)
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    problem = command_problem(toy_problem, quadratic_child(tmp_path, PID_CHILD), pid_dir)
    if case == "improving-first-candidate":
        # Objective -k: each sweep's first candidate (k + 1) improves while
        # the second (k - 1) runs.
        mb.run_direct_search(problem, mb.SearchConfig(budget=12, seed=0))
    elif case == "budget-mid-design":
        # Eight design points, five evaluations: the budget ends with the
        # lookahead full.
        result = mb.run_bo(problem, mb.BOConfig(budget=5, seed=0))
        assert result.evaluator.budget.used == 5
    else:
        interrupt_third_barrier(monkeypatch)
        with pytest.raises(Interrupted):
            mb.run_direct_search(problem, mb.SearchConfig(budget=12, seed=0))
    assert lookahead_threads() == []
    assert wait_until_gone([int(path.name) for path in pid_dir.iterdir()]) == []
    (evaluator,) = {id(e): e for e, _ in launches}.values()
    assert evaluator.discarded == len(launches) - evaluator.budget.used
    if case == "budget-mid-design":
        assert evaluator.discarded == 0  # no child starts beyond the budget
    else:
        assert evaluator.discarded >= 1


# Each child logs its payload to a fresh file; the objective falls towards
# k = 4, which the k <= 2 cap of ``toy_with_k_cap(-2)`` screens.
LOGGING_CHILD = """\
import json, os, sys, tempfile
data = json.load(sys.stdin)
fd, _ = tempfile.mkstemp(dir=sys.argv[1])
with os.fdopen(fd, "w") as fh:
    json.dump(data, fh)
out = {"objective": -data["standard"]["k"]}
if data["meta"]["m"] == "B":
    out["constraints"] = {"branch_cap": -1.0}
json.dump(out, sys.stdout)
"""


def test_no_command_child_runs_a_screened_point(tmp_path, monkeypatch, launches):
    lookahead_width(monkeypatch, 3)
    log_dir = tmp_path / "payloads"
    log_dir.mkdir()
    capped = mb.parse_problem(toy_with_k_cap(-2)).problem
    problem = command_problem(capped, quadratic_child(tmp_path, LOGGING_CHILD), log_dir)
    result = mb.run_direct_search(problem, mb.SearchConfig(budget=20, seed=0))
    evaluator = result.evaluator
    payloads = [json.loads(path.read_text()) for path in log_dir.iterdir()]
    assert any(ahead for _, ahead in launches)  # children did run ahead
    assert len(payloads) == len(launches) == evaluator.budget.used + evaluator.discarded
    assert payloads and all(p["standard"]["k"] <= 2 for p in payloads)
    assert evaluator.screened > 0
    assert all(r.feasible for r in result.history)
    broken = problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {"k": 3})
    assert not is_evaluated(evaluator, broken)
    assert direct_search._evaluate_barrier(evaluator, broken) == (None, math.inf)
    assert len(list(log_dir.iterdir())) == len(payloads)
    twin = mb.Point(broken.meta, broken.categorical, {"k": 3.0})
    with pytest.raises(mb.DomainError):
        direct_search._evaluate_barrier(evaluator, twin)


@pytest.mark.parametrize("bound", ["cap", "floor"])
def test_screened_poll_moves_count_alike_at_every_lookahead_width(tmp_path, monkeypatch,
                                                                   bound):
    # The objective falls with k.  Under the cap k <= 2 a sweep from k = 2
    # screens k = 3 before it evaluates k = 1; under the floor k >= 2 it
    # improves at k = 3 while a wider lookahead has already pulled the
    # screened k = 1 past it, which must not count.
    document = toy_with_k_cap(-2)
    if bound == "floor":
        document["constraints"][-1]["analytic"] = {"terms": [[-1, "k"]], "constant": 2}
    log_dir = tmp_path / "payloads"
    log_dir.mkdir()
    problem = command_problem(mb.parse_problem(document).problem,
                              quadratic_child(tmp_path, LOGGING_CHILD), log_dir)
    solve, breaks = direct_search.solve_standard_subproblem, mb.ConstraintSystem.move_breaks
    runs = {}
    for width in (1, 2, 3):
        lookahead_width(monkeypatch, width)
        subproblems, broken = [], []
        monkeypatch.setattr(direct_search, "solve_standard_subproblem",
                            lambda *args, **kw: subproblems.append(solve(*args, **kw))
                            or subproblems[-1])
        monkeypatch.setattr(mb.ConstraintSystem, "move_breaks",
                            lambda *move: broken.append(breaks(*move)) or broken[-1])
        result = mb.run_direct_search(problem, mb.SearchConfig(budget=16, seed=0))
        path = tmp_path / f"history-{width}.csv"
        mb.write_history(problem.domain, problem.constraints, result.history, path)
        evaluator = result.evaluator
        runs[width] = (path.read_bytes(), evaluator.screened, evaluator.budget.used,
                       [r.evaluations for r in subproblems])
        if width == 1:  # nothing is pulled ahead of its settle
            assert sum(broken) == evaluator.screened
        elif bound == "floor":
            assert sum(broken) > evaluator.screened
    assert runs[1] == runs[2] == runs[3]
    assert (runs[1][1] > 0) == (bound == "cap")


def test_subprocess_payload_uses_labels(toy_problem):
    from metabox.blackbox import subprocess_payload
    point = toy_problem.domain.complete_point(
        mb.MetaComponent({"m": "B"}), {"pB": 2, "s": 3, "k": 1})
    payload = subprocess_payload(toy_problem.domain, point)
    assert payload == {"meta": {"m": "B"},
                       "categorical": {"pB": "short", "s": "high"},
                       "standard": {"k": 1}}


def test_meta_components_are_told_apart_by_value():
    # Rendered, {a: "x", b: "y;b=z"} and {a: "x;b=y", b: "z"} both read
    # "a=x;b=y;b=z", and 0.0 and -0.0 read apart; as values, the first two
    # differ and the last two are equal.
    domain = mb.Domain([
        mb.VariableSpec("a", mb.VariableType.META_CATEGORICAL, mb.Role.META,
                        mb.CategoricalScope(("x", "x;b=y"))),
        mb.VariableSpec("b", mb.VariableType.META_CATEGORICAL, mb.Role.META,
                        mb.CategoricalScope(("z", "y;b=z", "y"))),
        mb.VariableSpec("w", mb.VariableType.META_CONTINUOUS, mb.Role.META,
                        mb.ContinuousScope(-1.0, 1.0)),
    ])
    calls = []
    problem = mb.Problem(domain=domain, constraints=mb.ConstraintSystem(domain, []),
                         objective=lambda p: calls.append(p) or (float(p.meta["a"] == "x"), {}))
    evaluator = mb.Evaluator(problem, 5)
    first, second = mb.Point({"a": "x;b=y", "b": "z", "w": 0.0}), mb.Point(
        {"a": "x", "b": "y;b=z", "w": 0.0})
    assert first.meta.rendered == second.meta.rendered
    assert evaluator.evaluate(first).objective == 0.0
    record = evaluator.evaluate(second)
    assert not record.cached and record.objective == 1.0
    assert evaluator.evaluate(mb.Point({"a": "x", "b": "y;b=z", "w": -0.0})).cached
    assert calls == [first, second] and evaluator.budget.used == 2


# -- history files ----------------------------------------------------------------------------

def test_history_columns_and_empty_nonacting_cells(tmp_path, mlp_problem, mlp_domain):
    evaluator = mb.Evaluator(mlp_problem, 5)
    evaluator.evaluate(mlp_domain.complete_point(ADAM2, {}))
    path = tmp_path / "history.csv"
    mb.write_history(mlp_domain, mlp_problem.constraints, evaluator.history, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == history_header(mlp_domain, mlp_problem.constraints)
    row = dict(zip(header, lines[1].split(",")))
    assert row["u3"] == ""            # nonacting at l=2
    assert row["units_mono_3"] == ""  # nonacting constraint
    assert row["a"] == "ReLU"         # labels at the I/O boundary
    assert row["cached"] == "false"
    assert float(row["objective"]) == evaluator.history[0].objective


def test_history_and_acquisition_log_quote_cells_that_hold_commas(tmp_path):
    domain = mb.Domain([
        mb.VariableSpec("m", mb.VariableType.META_CATEGORICAL, mb.Role.META,
                        mb.CategoricalScope(("red, dark", "blue"))),
        mb.VariableSpec("c", mb.VariableType.NOMINAL, mb.Role.GLOBAL,
                        mb.CategoricalScope(('say "hi"', "plain"))),
        mb.VariableSpec("x", mb.VariableType.CONTINUOUS, mb.Role.GLOBAL,
                        mb.ContinuousScope(0.0, 1.0)),
    ])
    problem = mb.Problem(domain=domain, constraints=mb.ConstraintSystem(domain, []),
                         objective=lambda p: (p.standard["x"], {}))
    evaluator = mb.Evaluator(problem, 5)
    evaluator.evaluate(mb.Point({"m": "red, dark"}, {"c": 1}, {"x": 0.5}))
    path = tmp_path / "history.csv"
    mb.write_history(domain, problem.constraints, evaluator.history, path)
    with open(path, newline="") as fh:
        header, row = csv.reader(fh)
    assert header == history_header(domain, problem.constraints)
    assert dict(zip(header, row)) == {"eval_index": "0", "cached": "false",
                                      "feasible": "true", "objective": "0.5",
                                      "m": "red, dark", "c": 'say "hi"', "x": "0.5"}
    log = tmp_path / "acquisition.csv"
    write_acquisition_log([AcquisitionLogRow(1, mb.MetaComponent({"m": "red, dark"}),
                                             0.25, True)], log)
    with open(log, newline="") as fh:
        assert list(csv.reader(fh)) == [
            ["iteration", "meta", "acquisition", "surrogate_feasible"],
            ["1", "m=red, dark", "0.25", "true"]]


def test_history_zero_records_is_header_only(tmp_path, mlp_problem, mlp_domain):
    path = tmp_path / "empty.csv"
    mb.write_history(mlp_domain, mlp_problem.constraints, [], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("eval_index,")


def test_render_value_round_trips_floats():
    for value in (1 / 3, 1e-17, 123456.789012345678, 5e7 + 0.123):
        assert float(render_value(value)) == value
