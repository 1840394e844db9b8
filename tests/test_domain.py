import math

import pytest

import metabox as mb
from metabox.domain import GROUPS

from conftest import parse_wide_mlp

ADAM2 = mb.MetaComponent({"l": 2, "o": "Adam"})
ADAM3 = mb.MetaComponent({"l": 3, "o": "Adam"})
ASGD2 = mb.MetaComponent({"l": 2, "o": "ASGD"})


def table_point(**overrides):
    """A point from the worked hyperparameter table (l=2, Adam, ReLU)."""
    categorical = {"a": 1}
    standard = {"u1": 200, "u2": 150, "r": 0.01, "beta1": 0.9, "beta2": 0.999,
                "eps": 1e-8}
    standard.update(overrides)
    return mb.Point(ADAM2, categorical, standard)


# -- acting index sets and dimensions -----------------------------------------

def test_acting_integers_grow_with_layer_count(mlp_domain, wide_mlp_domain):
    assert mlp_domain.acting_index_set(ADAM3, "integer") == ["u1", "u2", "u3"]
    assert mlp_domain.dimension(ADAM3, "integer") == 3
    none = mb.MetaComponent({"l": 0, "o": "Adam"})
    assert wide_mlp_domain.acting_index_set(none, "integer") == []
    assert wide_mlp_domain.dimension(none, "integer") == 0


def test_acting_continuous_per_optimizer(mlp_domain):
    assert mlp_domain.acting_index_set(ASGD2, "continuous") == ["r", "lam", "alpha", "t0"]
    assert mlp_domain.dimension(ASGD2, "continuous") == 4
    assert mlp_domain.acting_index_set(ADAM2, "continuous") == ["r", "beta1", "beta2", "eps"]
    assert mlp_domain.dimension(ADAM2, "continuous") == 4


def test_activation_is_global(mlp_domain):
    for xm in mlp_domain.enumerate_meta_set():
        assert mlp_domain.acting_index_set(xm, "categorical") == ["a"]
        assert mlp_domain.dimension(xm, "categorical") == 1


def test_unknown_meta_id_rejected(mlp_domain):
    with pytest.raises(mb.InvalidMetaError):
        mlp_domain.acting_index_set(mb.MetaComponent({"l": 2, "zz": 1}), "integer")
    with pytest.raises(mb.InvalidMetaError):
        mlp_domain.acting_index_set(mb.MetaComponent({"l": 2}), "integer")


def test_cached_acting_sets_still_validate_value_types():
    # 2.0 equals 2 and True equals 1 (MetaComponents holding them hash
    # alike), but only integers are valid meta-integer values, so a cached
    # answer for 2 or 1 must not serve them.
    domain = parse_wide_mlp().domain
    ids = domain.acting_index_set(ADAM2, "integer")
    ids.append("mutated")
    assert domain.acting_index_set(ADAM2, "integer") == ["u1", "u2"]
    assert domain.acting_index_set(mb.MetaComponent({"l": 1, "o": "Adam"}), "integer") == ["u1"]
    for bad in (2.0, True):
        xm = mb.MetaComponent({"l": bad, "o": "Adam"})
        valid = mb.MetaComponent({"l": int(bad), "o": "Adam"})
        assert xm == valid and hash(xm) == hash(valid)
        with pytest.raises(mb.InvalidMetaError):
            domain.acting_index_set(xm, "integer")
    with pytest.raises(mb.InvalidMetaError):
        domain.acting_index_set({"l": [2], "o": "Adam"}, "integer")


@pytest.mark.parametrize("parsed", ["wide_mlp_parsed", "toy_parsed"])
def test_memoized_acting_sets_match_the_decrees_and_are_not_shared(request, parsed):
    parsed = request.getfixturevalue(parsed)
    domain, system = parsed.domain, parsed.problem.constraints
    for xm in domain.enumerate_meta_set():
        for group, types in GROUPS.items():
            expected = [v.id for v in domain.variables if v.type in types and (
                v.role != mb.Role.DECREED or domain.decree_satisfied(v.decree, xm))]
            first = domain.acting_index_set(xm, group)
            assert first == expected
            first.append("mutated")
            assert domain.acting_index_set(mb.MetaComponent(dict(xm)), group) == expected
        expected = [c for c in system.constraints
                    if c.role == mb.Role.GLOBAL or domain.decree_satisfied(c.decree, xm)]
        for query, wanted in (
                (system.acting_constraints, expected),
                (system.acting_decreed_constraints,
                 [c for c in expected if c.role == mb.Role.DECREED])):
            first = query(xm)
            assert first == wanted
            first.append("mutated")
            assert query(xm) == wanted


def test_unknown_group_rejected(mlp_domain):
    with pytest.raises(ValueError):
        mlp_domain.acting_index_set(ADAM2, "mystery")


# -- membership ---------------------------------------------------------------

def test_contains_table_point(mlp_domain):
    assert mlp_domain.contains(table_point())


def test_nonacting_variable_makes_point_incompatible(mlp_domain):
    point = table_point(lam=0.5)
    assert not mlp_domain.contains(point)
    issues = mlp_domain.membership_issues(point)
    assert any(i.code == "nonacting" and i.subject == "lam" for i in issues)


def test_scope_violation_reported(mlp_domain):
    point = table_point(u1=99)
    assert not mlp_domain.contains(point)
    issues = mlp_domain.membership_issues(point)
    assert any(i.code == "scope" and i.subject == "u1" for i in issues)


def test_missing_acting_variable_reported(mlp_domain):
    point = mb.Point(ADAM2, {"a": 1}, {"u1": 200, "u2": 150, "r": 0.5,
                                       "beta1": 0.5, "beta2": 0.5})
    issues = mlp_domain.membership_issues(point)
    assert any(i.code == "missing" and i.subject == "eps" for i in issues)


def test_integer_variable_requires_integer_value(mlp_domain):
    assert not mlp_domain.contains(table_point(u1=200.5))


def near_miss(meta=None, categorical=None, drop=(), **standard):
    """The table point with overridden values and some standard ids dropped."""
    point = table_point(**standard)
    return mb.Point(ADAM2.replace(**(meta or {})),
                    {**point.categorical, **(categorical or {})},
                    {k: v for k, v in point.standard.items() if k not in drop})


@pytest.mark.parametrize("point, expected", [
    (near_miss(u1=200.0), [("scope", "u1", "value 200.0 outside scope")]),
    (near_miss(u1=True), [("scope", "u1", "value True outside scope")]),
    (near_miss(r=math.nan), [("scope", "r", "value nan outside scope")]),
    (near_miss(categorical={"a": 0}), [("scope", "a", "value 0 outside scope")]),
    (near_miss(categorical={"a": 3}), [("scope", "a", "value 3 outside scope")]),
    (near_miss(categorical={"a": True}), [("scope", "a", "value True outside scope")]),
    (near_miss(lam=0.5),
     [("nonacting", "lam", "nonacting under the current meta component")]),
    (near_miss(drop=("eps",)), [("missing", "eps", "acting but absent")]),
    (near_miss(zz=1), [("unknown", "zz", "not a declared variable")]),
    (near_miss(categorical={"u1": 200}, drop=("u1",)),
     [("component", "u1",
       "not a categorical variable but present in the categorical component"),
      ("missing", "u1", "acting but absent")]),
    (near_miss(meta={"l": 3.0}),
     [("invalid-meta", "meta", "meta value 3.0 outside scope of 'l'")]),
    (near_miss(meta={"l": True}),
     [("invalid-meta", "meta", "meta value True outside scope of 'l'")]),
    (near_miss(meta={"l": [2]}),
     [("invalid-meta", "meta", "meta value [2] outside scope of 'l'")]),
], ids=["float-on-integer", "bool-on-integer", "nan-continuous", "category-zero",
        "category-past-scope", "bool-category", "nonacting-present", "acting-missing",
        "unknown-id", "wrong-component", "float-meta-integer", "bool-meta-integer",
        "unhashable-meta"])
def test_near_miss_points_are_refused_with_exact_issues(mlp_domain, point, expected):
    # Each point differs from a member of the domain in one way that a
    # value-equality shortcut could miss (200.0 == 200 == True, for one).
    issues = mlp_domain.membership_issues(point)
    assert [(i.code, i.subject, i.detail) for i in issues] == expected
    assert not mlp_domain.contains(point)


@pytest.mark.parametrize("vid, value, detail", [
    ("u1", 200.0, "value 200.0 outside scope"),
    ("u1", True, "value True outside scope"),
    ("u1", 301, "value 301 outside scope"),
    ("r", math.nan, "value nan outside scope"),
    ("r", 1.0, "value 1.0 outside scope"),
], ids=["float-on-integer", "bool-on-integer", "past-scope", "nan-continuous",
        "open-bound"])
def test_points_moved_from_a_member_are_checked_at_the_moved_value(mlp_domain, vid,
                                                                  value, detail):
    center = table_point()
    assert mlp_domain.contains(center)
    moved = center.moved(vid, value)
    issues = mlp_domain.membership_issues(moved)
    assert [(i.code, i.subject, i.detail) for i in issues] == [("scope", vid, detail)]
    # A move from a point that was never passed is checked in full.
    assert not mlp_domain.contains(moved.moved("u2", 150))
    assert not mlp_domain.contains(center.moved(vid, value).moved("u2", 150))


def test_a_passed_moved_point_serves_as_the_next_center(mlp_domain):
    point = table_point()
    for vid, value in (("u1", 250), ("r", 0.5), ("u2", 100), ("u1", 300)):
        point = point.moved(vid, value)
        assert mlp_domain.contains(point)
    assert point == table_point(u1=300, r=0.5, u2=100)
    assert not mlp_domain.contains(point.moved("u2", 99))


def test_a_checked_member_is_not_walked_again(mlp_domain, monkeypatch):
    # Points are immutable, so a point that passed its layout stays a member:
    # checking it again reads none of its scopes.
    calls = []
    for scope in (mb.IntegerScope, mb.ContinuousScope):
        monkeypatch.setattr(scope, "contains_value",
                            lambda self, value, original=scope.contains_value:
                            calls.append(value) or original(self, value))
    point = table_point()
    assert mlp_domain.contains(point)
    assert calls
    calls.clear()
    assert mlp_domain.contains(point)
    assert not mlp_domain.membership_issues(point)
    assert calls == []
    # A point moved from it is checked at the moved value only.
    assert mlp_domain.contains(point.moved("u1", 250))
    assert calls == [250]


@pytest.mark.parametrize("vid", ["lam", "a", "l", "zz"],
                         ids=["nonacting", "categorical", "meta", "unknown"])
def test_moving_a_variable_the_point_lacks_raises(vid):
    with pytest.raises(mb.ScopeError):
        table_point().moved(vid, 0.5)


# -- meta set enumeration -------------------------------------------------------

def test_meta_set_enumeration_matches_explicit_set(mlp_domain):
    metas = mlp_domain.enumerate_meta_set()
    assert len(metas) == 4
    assert {(m["o"], m["l"]) for m in metas} == {
        ("Adam", 2), ("Adam", 3), ("ASGD", 2), ("ASGD", 3)}


def test_domain_without_meta_variables_enumerates_one_component():
    domain = mb.Domain([
        mb.VariableSpec("x", mb.VariableType.CONTINUOUS, mb.Role.GLOBAL,
                        mb.ContinuousScope(0.0, 1.0)),
    ])
    assert domain.enumerate_meta_set() == [mb.MetaComponent()]


def frequency_domain():
    # A continuous meta variable decreeing by interval membership.
    return mb.Domain([
        mb.VariableSpec("freq", mb.VariableType.META_CONTINUOUS, mb.Role.META,
                        mb.ContinuousScope(380.0, 750.0)),
        mb.VariableSpec("gain", mb.VariableType.CONTINUOUS, mb.Role.DECREED,
                        mb.ContinuousScope(0.0, 1.0),
                        mb.DecreePredicate((mb.Membership("freq", ((380.0, 500.0),)),))),
    ])


def test_meta_continuous_set_is_not_enumerable():
    with pytest.raises(mb.NotEnumerableError):
        frequency_domain().enumerate_meta_set()


def test_meta_continuous_interval_decree():
    domain = frequency_domain()
    low = mb.MetaComponent({"freq": 400.0})
    high = mb.MetaComponent({"freq": 700.0})
    assert domain.acting_index_set(low, "continuous") == ["gain"]
    assert domain.acting_index_set(high, "continuous") == []


@pytest.mark.parametrize("entry", [(), (400.0,), (400.0, 500.0, 600.0), ("a", "b"),
                                   (True, 500.0)])
def test_membership_interval_must_be_a_pair_of_numbers(entry):
    # A malformed interval once reached Domain._atom_satisfied as a raw ValueError.
    with pytest.raises(mb.ScopeError, match="interval"):
        mb.Membership("freq", (entry,))


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (0, 10 ** 400)])
def test_continuous_scope_needs_finite_bounds(lo, hi):
    # An infinite bound once made direct search generate a NaN point and BO
    # evaluate x = inf.
    with pytest.raises(mb.ScopeError, match="finite bounds"):
        mb.ContinuousScope(lo, hi)


# -- point completion ------------------------------------------------------------

def test_complete_point_defaults_midpoint_and_first_category(mlp_domain):
    point = mlp_domain.complete_point(ADAM2, {})
    assert point.standard["u1"] == 200 and point.standard["u2"] == 200
    assert point.standard["r"] == 0.5
    assert point.standard["beta1"] == 0.5
    assert point.standard["beta2"] == 0.5
    assert point.standard["eps"] == 0.5
    assert point.categorical["a"] == 1
    t0_scope = mlp_domain.spec("t0").scope
    completed = mlp_domain.complete_point(ASGD2, {})
    assert completed.standard["t0"] == (t0_scope.lo + t0_scope.hi) / 2.0


def test_complete_point_is_identity_on_full_assignment(mlp_domain):
    point = table_point()
    rebuilt = mlp_domain.complete_point(ADAM2, {**point.categorical, **point.standard})
    assert rebuilt == point


def test_complete_point_drops_nonacting_values(mlp_domain):
    point = mlp_domain.complete_point(ADAM2, {"lam": 0.7})
    assert "lam" not in point.standard


def test_complete_point_rejects_out_of_scope_partial(mlp_domain):
    with pytest.raises(mb.ScopeError):
        mlp_domain.complete_point(ADAM2, {"u1": 99})


def test_complete_point_accepts_category_labels(mlp_domain):
    point = mlp_domain.complete_point(ADAM2, {"a": "Sigmoid"})
    assert point.categorical["a"] == 2


# -- invariants -------------------------------------------------------------------

def test_acting_sets_partition_ids(wide_mlp_domain):
    domain = wide_mlp_domain
    non_meta = [v.id for v in domain.variables if not v.type.is_meta]
    for xm in domain.enumerate_meta_set():
        assert domain.acting_index_set(xm, "meta") == list(domain.meta_ids)
        for group in ("categorical", "integer", "continuous"):
            assert not set(domain.acting_index_set(xm, group)) & set(domain.meta_ids)
        acting = (domain.acting_index_set(xm, "categorical")
                  + domain.acting_index_set(xm, "standard"))
        nonacting = [vid for vid in non_meta if not domain.is_acting(vid, xm)]
        assert sorted(acting + nonacting) == sorted(non_meta)
        assert all(domain.spec(vid).role == mb.Role.DECREED for vid in nonacting)


def test_completed_points_are_contained_for_every_meta(wide_mlp_domain):
    for xm in wide_mlp_domain.enumerate_meta_set():
        assert wide_mlp_domain.contains(wide_mlp_domain.complete_point(xm, {}))


def test_acting_set_is_subset_of_union_over_metas(wide_mlp_domain):
    domain = wide_mlp_domain
    metas = domain.enumerate_meta_set()
    for group in ("categorical", "integer", "continuous"):
        union = set()
        for xm in metas:
            union |= set(domain.acting_index_set(xm, group))
        for xm in metas:
            assert set(domain.acting_index_set(xm, group)) <= union


def test_dimension_is_pure_function_of_meta(mlp_domain):
    for xm in mlp_domain.enumerate_meta_set():
        again = mb.MetaComponent(dict(xm))
        for group in GROUPS:
            assert mlp_domain.dimension(xm, group) == mlp_domain.dimension(again, group)


def test_meta_component_equality_ignores_insertion_order():
    a = mb.MetaComponent({"l": 2, "o": "Adam"})
    b = mb.MetaComponent({"o": "Adam", "l": 2})
    assert a == b and hash(a) == hash(b)


def test_enumerate_domain_points_counts_toy(toy_problem):
    points = mb.enumerate_domain_points(toy_problem.domain)
    assert len(points) == 60
    assert len(set(points)) == 60


def test_enumerate_domain_points_rejects_continuous(mlp_domain):
    with pytest.raises(mb.NotEnumerableError):
        mb.enumerate_domain_points(mlp_domain)
