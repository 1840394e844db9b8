import math

import numpy as np
import pytest

import metabox as mb
from conftest import random_point
from metabox.domain import denormalize

ADAM2 = mb.MetaComponent({"l": 2, "o": "Adam"})
ADAM3 = mb.MetaComponent({"l": 3, "o": "Adam"})


@pytest.fixture(scope="module")
def mlp_system(mlp_problem):
    return mlp_problem.constraints


@pytest.fixture(scope="module")
def wide_system(wide_mlp_parsed):
    return wide_mlp_parsed.system


def units_point(domain, l, **units):
    values = {f"u{i}": units.get(f"u{i}", 200) for i in range(1, l + 1)}
    return domain.complete_point(mb.MetaComponent({"l": l, "o": "Adam"}), values)


# -- acting decreed constraints ---------------------------------------------------

def test_acting_decreed_constraints_per_layer_count(mlp_system, wide_system,
                                                    wide_mlp_domain):
    assert [c.id for c in mlp_system.acting_decreed_constraints(ADAM2)] == ["units_mono_2"]
    assert [c.id for c in mlp_system.acting_decreed_constraints(ADAM3)] == [
        "units_mono_2", "units_mono_3"]
    for l in (0, 1):
        xm = mb.MetaComponent({"l": l, "o": "Adam"})
        assert wide_system.acting_decreed_constraints(xm) == []


def test_decreed_count_is_layers_minus_one(mlp_system):
    for l in (2, 3):
        xm = mb.MetaComponent({"l": l, "o": "Adam"})
        assert len(mlp_system.acting_decreed_constraints(xm)) == l - 1


def test_acting_decreed_is_subset_of_static_decreed(mlp_system):
    static = set(c.id for c in mlp_system.constraints if c.role == mb.Role.DECREED)
    for xm in mlp_system.domain.enumerate_meta_set():
        acting = set(c.id for c in mlp_system.acting_decreed_constraints(xm))
        assert acting <= static


# -- analytic evaluation -----------------------------------------------------------

def test_global_unit_sum(mlp_system, mlp_domain):
    point = units_point(mlp_domain, 2, u1=200, u2=150)
    spec = next(c for c in mlp_system.constraints if c.id == "units_total")
    assert mlp_system.evaluate_analytic(spec, point) == -150.0


def test_global_sum_adapts_to_acting_set(mlp_system, mlp_domain):
    # The u3 term is inert at l=2 even though the body references it.
    point3 = units_point(mlp_domain, 3, u1=200, u2=150, u3=100)
    spec = next(c for c in mlp_system.constraints if c.id == "units_total")
    assert mlp_system.evaluate_analytic(spec, point3) == -50.0


def test_monotonicity_constraint_boundary_and_violation(mlp_system, mlp_domain):
    spec = next(c for c in mlp_system.constraints if c.id == "units_mono_2")
    assert mlp_system.evaluate_analytic(spec, units_point(mlp_domain, 2, u1=100, u2=100)) == 0.0
    assert mlp_system.evaluate_analytic(spec, units_point(mlp_domain, 2, u1=100, u2=300)) == 200.0


def test_evaluating_nonacting_constraint_is_a_decree_violation(mlp_system, mlp_domain):
    spec = next(c for c in mlp_system.constraints if c.id == "units_mono_3")
    with pytest.raises(mb.DecreeViolationError):
        mlp_system.evaluate_analytic(spec, units_point(mlp_domain, 2))


def test_a_spec_from_outside_the_system_keeps_its_decree_check(mlp_system, mlp_domain):
    # The system's own acting specs skip the decree check; an equal copy, or a
    # spec sharing an acting constraint's id under another decree, does not.
    own = next(c for c in mlp_system.constraints if c.id == "units_mono_3")
    copy = mb.ConstraintSpec(own.id, own.role, own.body, own.decree)
    assert copy == own and copy is not own
    assert mlp_system.evaluate_analytic(copy, units_point(mlp_domain, 3, u3=250)) == 50.0
    with pytest.raises(mb.DecreeViolationError):
        mlp_system.evaluate_analytic(copy, units_point(mlp_domain, 2))
    acting = next(c for c in mlp_system.constraints if c.id == "units_mono_2")
    stricter = mb.ConstraintSpec(acting.id, acting.role, acting.body,
                                 mb.DecreePredicate((mb.Threshold("l", 3),)))
    assert mlp_system.evaluate_analytic(acting, units_point(mlp_domain, 2, u2=250)) == 50.0
    with pytest.raises(mb.DecreeViolationError):
        mlp_system.evaluate_analytic(stricter, units_point(mlp_domain, 2, u2=250))


# -- a priori screen ------------------------------------------------------------------

@pytest.mark.parametrize("l, units, expected, feasible", [
    (2, {"u1": 200, "u2": 150}, {"units_total": -150.0, "units_mono_2": -50.0}, True),
    (2, {"u1": 100, "u2": 100}, {"units_total": -300.0, "units_mono_2": 0.0}, True),
    (2, {"u1": 100, "u2": 300}, {"units_total": -100.0, "units_mono_2": 200.0}, False),
    (3, {"u1": 300, "u2": 200, "u3": 100},
     {"units_total": 100.0, "units_mono_2": -100.0, "units_mono_3": -100.0}, False),
])
def test_screen_gives_the_acting_analytic_values(mlp_system, mlp_domain, l, units,
                                                  expected, feasible):
    point = units_point(mlp_domain, l, **units)
    values, ok = mlp_system.screen(point)
    assert values == expected and list(values) == list(expected)
    assert ok == feasible
    # evaluate_acting reads its analytic values from the screen.
    assert mlp_system.evaluate_acting(point, {}) == (values, ok)


def test_screen_fails_a_nan_value_and_skips_blackbox_bodies(toy_problem, mlp_system,
                                                            mlp_domain):
    point = units_point(mlp_domain, 2)
    spec = next(c for c in mlp_system.constraints if c.id == "units_total")
    nan_spec = mb.ConstraintSpec(spec.id, spec.role,
                                 mb.LinearExpression(spec.body.terms, math.nan))
    system = mb.ConstraintSystem(mlp_domain, [nan_spec])
    values, ok = system.screen(point)
    assert math.isnan(values["units_total"]) and not ok
    # toy's only constraint has a blackbox body: nothing to screen.
    toy_point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "B"}), {})
    assert toy_problem.constraints.screen(toy_point) == ({}, True)


def summed_in_body_order(spec, standard):
    """Reference value of a linear body: its constant, then each term over
    an acting variable added in body order."""
    value = spec.body.constant
    for coefficient, vid in spec.body.terms:
        if vid in standard:
            value += coefficient * standard[vid]
    return value


@pytest.mark.parametrize("parsed", ["mlp_parsed", "wide_mlp_parsed"])
def test_the_plan_gives_evaluate_analytic_values_bit_for_bit(request, parsed):
    # units_total is global over u1..u3, which are decreed: at l < 3 the plan
    # drops its nonacting terms (all of them at l = 0 in the wide domain).
    system = request.getfixturevalue(parsed).system
    domain = system.domain
    rng = np.random.default_rng(0)
    for xm in domain.enumerate_meta_set():
        specs = [c for c in system.acting_constraints(xm) if c.analytic]
        ids = domain.acting_index_set(xm, "standard")
        for _ in range(25):
            point = random_point(domain, rng, [xm])
            values, ok = system.screen(point)
            assert list(values) == [c.id for c in specs]
            expected = [summed_in_body_order(c, point.standard).hex() for c in specs]
            assert [values[c.id].hex() for c in specs] == expected
            assert [system.evaluate_analytic(c, point).hex() for c in specs] == expected
            assert ok == all(v <= 0.0 for v in values.values())
            vid = ids[int(rng.integers(len(ids)))]
            scope = domain.spec(vid).scope
            moved = point.moved(vid, denormalize(scope, float(rng.random())))
            assert (system.move_breaks(point, vid, moved.standard[vid])
                    == (not system.screen(moved)[1]))


def test_a_nan_value_breaks_every_move(mlp_system, mlp_domain):
    spec = next(c for c in mlp_system.constraints if c.id == "units_total")
    nan_spec = mb.ConstraintSpec(spec.id, spec.role,
                                 mb.LinearExpression(spec.body.terms, math.nan))
    system = mb.ConstraintSystem(mlp_domain, [nan_spec])
    point = units_point(mlp_domain, 2)
    assert math.isnan(system.evaluate_analytic(nan_spec, point))
    assert system.move_breaks(point, "u1", 250)
    assert not mlp_system.move_breaks(point, "u1", 250)


# -- feasibility ---------------------------------------------------------------------

def test_feasibility_all_nonpositive(mlp_system, mlp_domain):
    point = units_point(mlp_domain, 2)
    values = {"units_total": -100.0, "units_mono_2": 0.0}
    assert mlp_system.is_feasible(point, values)


def test_feasibility_is_strict(mlp_system, mlp_domain):
    point = units_point(mlp_domain, 2)
    values = {"units_total": -100.0, "units_mono_2": 1e-12}
    assert not mlp_system.is_feasible(point, values)


def test_nan_constraint_value_is_infeasible(toy_problem):
    point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "B"}), {})
    assert not toy_problem.constraints.is_feasible(point, {"branch_cap": math.nan})


def test_feasibility_vacuous_without_acting_constraints(toy_problem):
    point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {})
    assert toy_problem.constraints.is_feasible(point, {})


def test_missing_constraint_value_errors(mlp_system, mlp_domain):
    point = units_point(mlp_domain, 2)
    with pytest.raises(mb.IncompleteConstraintValuesError):
        mlp_system.is_feasible(point, {"units_total": -1.0})


def test_feasibility_monotone_under_constraint_removal(mlp_system, mlp_domain):
    base = mlp_system
    point = units_point(mlp_domain, 3, u1=200, u2=150, u3=100)
    values = {c.id: base.evaluate_analytic(c, point) for c in base.acting_constraints(point.meta)}
    assert base.is_feasible(point, values)
    for drop in ("units_total", "units_mono_2", "units_mono_3"):
        reduced = mb.ConstraintSystem(
            mlp_domain, [c for c in base.constraints if c.id != drop])
        kept = {k: v for k, v in values.items() if k != drop}
        assert reduced.is_feasible(point, kept)


# -- load-time validation --------------------------------------------------------------

def test_decreed_analytic_must_reference_co_acting_variables(mlp_domain):
    bad = mb.ConstraintSpec(
        "premature", mb.Role.DECREED,
        mb.LinearExpression(((1.0, "u3"),)),
        mb.DecreePredicate((mb.Threshold("l", 2),)))
    with pytest.raises(mb.ScopeError):
        mb.ConstraintSystem(mlp_domain, [bad])


def test_analytic_bodies_reject_categorical_references(mlp_domain):
    bad = mb.ConstraintSpec("nope", mb.Role.GLOBAL, mb.LinearExpression(((1.0, "a"),)))
    with pytest.raises(mb.ScopeError):
        mb.ConstraintSystem(mlp_domain, [bad])


def test_constraint_ids_cannot_collide_with_variables(mlp_domain):
    bad = mb.ConstraintSpec("u1", mb.Role.GLOBAL, mb.LinearExpression(((1.0, "u1"),)))
    with pytest.raises(mb.ScopeError):
        mb.ConstraintSystem(mlp_domain, [bad])
