import metabox as mb

ADAM2 = mb.MetaComponent({"l": 2, "o": "Adam"})


def wide_point(domain, l, o="Adam", **partial):
    return domain.complete_point(mb.MetaComponent({"l": l, "o": o}), partial)


# -- the bundled mlp file's layer/optimizer meta neighborhood ----------------------

def test_meta_neighbors_at_lower_boundary(wide_mlp_parsed, wide_mlp_domain):
    mapping = wide_mlp_parsed.meta_mapping
    neighbors = mb.meta_neighbors(wide_mlp_domain, mapping, wide_point(wide_mlp_domain, 0))
    assert {(m["l"], m["o"]) for m in neighbors} == {
        (1, "Adam"), (0, "ASGD"), (1, "ASGD")}
    assert len(neighbors) == 3


def test_meta_neighbors_at_upper_boundary(wide_mlp_parsed, wide_mlp_domain):
    mapping = wide_mlp_parsed.meta_mapping
    neighbors = mb.meta_neighbors(wide_mlp_domain, mapping, wide_point(wide_mlp_domain, 3))
    assert {(m["l"], m["o"]) for m in neighbors} == {
        (2, "Adam"), (3, "ASGD"), (2, "ASGD")}


def test_meta_neighbors_interior(wide_mlp_parsed, wide_mlp_domain):
    mapping = wide_mlp_parsed.meta_mapping
    neighbors = mb.meta_neighbors(wide_mlp_domain, mapping, wide_point(wide_mlp_domain, 2))
    assert {(m["l"], m["o"]) for m in neighbors} == {
        (3, "Adam"), (1, "Adam"), (2, "ASGD"), (3, "ASGD"), (1, "ASGD")}
    assert len(neighbors) == 5


def test_meta_neighbors_exclude_current_and_stay_in_scope(wide_mlp_parsed,
                                                          wide_mlp_domain):
    mapping = wide_mlp_parsed.meta_mapping
    for l in range(0, 4):
        for o in ("Adam", "ASGD"):
            point = wide_point(wide_mlp_domain, l, o)
            for neighbor in mb.meta_neighbors(wide_mlp_domain, mapping, point):
                assert neighbor != point.meta
                wide_mlp_domain.validate_meta(neighbor)


def test_meta_neighbor_order_is_deterministic(wide_mlp_parsed, wide_mlp_domain):
    mapping = wide_mlp_parsed.meta_mapping
    point = wide_point(wide_mlp_domain, 2)
    first = mb.meta_neighbors(wide_mlp_domain, mapping, point)
    second = mb.meta_neighbors(wide_mlp_domain, mapping, point)
    assert first == second
    assert [(m["l"], m["o"]) for m in first] == [
        (3, "Adam"), (1, "Adam"), (2, "ASGD"), (3, "ASGD"), (1, "ASGD")]


def test_default_meta_mapping_swaps_and_increments(toy_problem):
    mapping = mb.default_meta_mapping(toy_problem.domain)
    point = toy_problem.domain.complete_point(mb.MetaComponent({"m": "A"}), {})
    neighbors = mb.meta_neighbors(toy_problem.domain, mapping, point)
    assert [dict(n) for n in neighbors] == [{"m": "B"}]


# -- categorical neighborhoods --------------------------------------------------------

def test_default_swap_on_binary_nominal(mlp_domain):
    point = mlp_domain.complete_point(ADAM2, {"a": "ReLU"})
    neighbors = mb.categorical_neighbors(mlp_domain, None, point, ADAM2)
    assert neighbors == [{"a": 2}]


def test_no_acting_categorical_variables_means_no_neighbors():
    domain = mb.Domain([
        mb.VariableSpec("n", mb.VariableType.META_INTEGER, mb.Role.META,
                        mb.IntegerScope(1, 3)),
        mb.VariableSpec("x", mb.VariableType.CONTINUOUS, mb.Role.GLOBAL,
                        mb.ContinuousScope(0.0, 1.0)),
    ])
    point = domain.complete_point(mb.MetaComponent({"n": 1}), {})
    assert mb.categorical_neighbors(domain, None, point, point.meta) == []


def test_ordinal_moves_one_level(toy_problem):
    domain = toy_problem.domain
    xm = mb.MetaComponent({"m": "A"})
    mid = domain.complete_point(xm, {"s": "mid"})
    neighbors = mb.categorical_neighbors(domain, None, mid, xm)
    s_moves = {frozenset(n.items()) for n in neighbors if n["s"] != 2}
    assert s_moves == {frozenset({("pA", 1), ("s", 3)}), frozenset({("pA", 1), ("s", 1)})}
    low = domain.complete_point(xm, {"s": "low"})
    low_moves = [n for n in mb.categorical_neighbors(domain, None, low, xm)
                 if n["s"] != 1]
    assert [n["s"] for n in low_moves] == [2]  # no move below the first level


def test_categorical_neighbors_lie_in_decreed_set(toy_problem):
    domain = toy_problem.domain
    point = domain.complete_point(mb.MetaComponent({"m": "A"}), {})
    tm = mb.MetaComponent({"m": "B"})
    for tq in mb.categorical_neighbors(domain, None, point, tm):
        realized = mb.realize_neighbor(domain, point, tm, tq)
        assert domain.contains(realized)
        assert set(tq) == {"pB", "s"}


# -- realization -------------------------------------------------------------------------

def test_realize_fills_newly_acting_units_with_defaults(mlp_domain):
    point = mlp_domain.complete_point(ADAM2, {"u1": 250, "u2": 120})
    target = mb.MetaComponent({"l": 3, "o": "Adam"})
    realized = mb.realize_neighbor(mlp_domain, point, target)
    assert realized.standard["u1"] == 250 and realized.standard["u2"] == 120
    assert realized.standard["u3"] == 200  # scope midpoint default


def test_realize_identity_when_nothing_changes(mlp_domain):
    point = mlp_domain.complete_point(ADAM2, {"u1": 250})
    realized = mb.realize_neighbor(mlp_domain, point, ADAM2,
                                   dict(point.categorical))
    assert realized == point


def test_realize_swaps_optimizer_variables(mlp_domain):
    point = mlp_domain.complete_point(ADAM2, {"r": 0.125, "beta1": 0.9})
    target = mb.MetaComponent({"l": 2, "o": "ASGD"})
    realized = mb.realize_neighbor(mlp_domain, point, target)
    assert "beta1" not in realized.standard
    assert realized.standard["r"] == 0.125
    assert realized.standard["lam"] == 0.5 and realized.standard["alpha"] == 0.5
    assert mlp_domain.contains(realized)


# -- callable rules ------------------------------------------------------------------------

def test_callable_rule(wide_mlp_domain, mlp_domain):
    def jump_to_max(domain, point):
        return [point.meta.replace(l=3)]

    mapping = mb.NeighborhoodMapping("meta", (jump_to_max, mb.SwapCategorical("o")))
    point = wide_point(wide_mlp_domain, 0)
    neighbors = mb.meta_neighbors(wide_mlp_domain, mapping, point)
    assert neighbors[0]["l"] == 3 and len(neighbors) == 2
    both_a = mb.NeighborhoodMapping(
        "categorical", (lambda domain, point: [{**point.categorical, "a": 1}],))
    point = mlp_domain.complete_point(ADAM2, {"a": 2})
    assert mb.categorical_neighbors(mlp_domain, both_a, point, ADAM2) == [{"a": 1}]


def test_guard_can_read_standard_values(mlp_domain):
    mapping = mb.NeighborhoodMapping(
        "meta", (mb.SwapCategorical("o"),),
        guard=lambda point: point.standard["u1"] > 150)
    narrow = mlp_domain.complete_point(ADAM2, {"u1": 100})
    wide = mlp_domain.complete_point(ADAM2, {"u1": 200})
    assert mb.meta_neighbors(mlp_domain, mapping, narrow) == []
    assert len(mb.meta_neighbors(mlp_domain, mapping, wide)) == 1
