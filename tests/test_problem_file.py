import json

import pytest

import metabox as mb
from metabox.problem_file import bundled_problem_path, serialize_problem


def base_document():
    return json.loads(bundled_problem_path("mlp").read_text())


# -- happy paths -----------------------------------------------------------------

def test_bundled_mlp_has_four_meta_components(mlp_parsed):
    metas = mlp_parsed.domain.enumerate_meta_set()
    assert len(metas) == 4
    assert {(m["o"], m["l"]) for m in metas} == {
        ("Adam", 2), ("Adam", 3), ("ASGD", 2), ("ASGD", 3)}


def test_family_expansion_produces_indexed_thresholds(mlp_parsed):
    for index in (1, 2, 3):
        spec = mlp_parsed.domain.spec(f"u{index}")
        assert spec.decree.atoms == (mb.Threshold("l", index),)
        assert spec.role == mb.Role.DECREED


def test_named_constant_substituted_into_constraint(mlp_parsed):
    total = next(c for c in mlp_parsed.system.constraints if c.id == "units_total")
    assert total.body.constant == -500.0


def test_neighborhood_rules_parsed(mlp_parsed):
    assert mlp_parsed.meta_mapping is not None
    assert len(mlp_parsed.meta_mapping.rules) == 5
    assert mlp_parsed.meta_mapping.rules[0] == mb.IncrementMetaInteger("l", 1)
    assert mlp_parsed.meta_mapping.rules[2] == mb.SwapCategorical("o")


def test_bundled_toy_has_blackbox_constraint(toy_parsed):
    cap = next(c for c in toy_parsed.system.constraints if c.id == "branch_cap")
    assert not cap.analytic
    assert toy_parsed.builtin == "toy_discrete"


def test_toy_file_problem_evaluates(toy_parsed):
    evaluator = mb.Evaluator(toy_parsed.problem, 5)
    point = toy_parsed.domain.complete_point(mb.MetaComponent({"m": "B"}), {"k": 4})
    record = evaluator.evaluate(point)
    assert record.constraints["branch_cap"] == 2.0


def test_serialization_fixpoint(mlp_parsed, toy_parsed):
    for parsed in (mlp_parsed, toy_parsed):
        document = serialize_problem(parsed)
        again = mb.parse_problem(document)
        assert again.domain.variables == parsed.domain.variables
        assert again.system.constraints == parsed.system.constraints
        assert again.meta_mapping == parsed.meta_mapping
        assert again.builtin == parsed.builtin
        assert serialize_problem(again) == document


# -- validation errors ----------------------------------------------------------------

def expect_error(document, code, path_fragment=""):
    with pytest.raises(mb.ProblemFileError) as err:
        mb.parse_problem(document)
    assert err.value.code == code, f"expected {code}, got {err.value.code}: {err.value}"
    assert path_fragment in (err.value.path or "")
    return err.value


def test_decree_referencing_non_meta_variable(mlp_parsed):
    document = base_document()
    lam = next(v for v in document["variables"] if v.get("id") == "lam")
    lam["decree"] = [{"kind": "membership", "meta": "r", "allowed": ["ASGD"]}]
    error = expect_error(document, "meta-decreeing-meta")
    assert ".decree[0]" in error.path


def test_unknown_variable_in_decree(mlp_parsed):
    document = base_document()
    lam = next(v for v in document["variables"] if v.get("id") == "lam")
    lam["decree"] = [{"kind": "membership", "meta": "ghost", "allowed": ["ASGD"]}]
    expect_error(document, "unknown-id", ".decree[0]")


def test_malformed_scope(mlp_parsed):
    document = base_document()
    document["variables"][0]["scope"] = {"lo": 1.0, "hi": 0.0}
    expect_error(document, "scope-malformed", "variables[0].scope")


def test_unknown_variable_in_constraint_terms(mlp_parsed):
    document = base_document()
    document["constraints"][0]["analytic"]["terms"].append([1, "ghost"])
    expect_error(document, "unknown-id", "constraints[0].analytic.terms[3]")


def test_analytic_reference_to_categorical_variable(mlp_parsed):
    document = base_document()
    document["constraints"][0]["analytic"]["terms"].append([1, "a"])
    expect_error(document, "invalid-reference")


def test_decreed_constraint_referencing_nonacting_variable(mlp_parsed):
    document = base_document()
    document["constraints"].append({
        "id": "premature", "role": "decreed",
        "decree": [{"kind": "threshold", "meta": "l", "min": 2}],
        "analytic": {"terms": [[1, "u3"]]},
    })
    expect_error(document, "decree-references-nonacting", "constraints")


def test_unknown_constant(mlp_parsed):
    document = base_document()
    document["constraints"][0]["analytic"]["constant"] = "-$ghost"
    expect_error(document, "unknown-constant")


def test_threshold_minimum_may_name_a_constant():
    document = base_document()
    document["constants"]["deep"] = 3
    document["constraints"][2]["decree"][0]["min"] = "$deep"
    parsed = mb.parse_problem(document)
    assert parsed.system.constraints[2].decree.atoms == (mb.Threshold("l", 3),)
    document["constraints"][2]["decree"][0]["min"] = "$ghost"
    expect_error(document, "unknown-constant", "constraints[2].decree[0].min")

def test_duplicate_variable_id(mlp_parsed):
    document = base_document()
    document["variables"].append(dict(document["variables"][0]))
    expect_error(document, "duplicate-id")


def test_unknown_builtin(mlp_parsed):
    document = base_document()
    document["blackbox"] = {"builtin": "nonexistent"}
    expect_error(document, "unknown-id", "blackbox.builtin")


@pytest.mark.parametrize("timeout", ["abc", -1, 0, float("nan"), float("inf"), True])
def test_timeout_must_be_a_positive_finite_number(timeout):
    document = base_document()
    document["blackbox"]["timeout"] = timeout
    expect_error(document, "syntax", "blackbox.timeout")


def test_syntax_error_on_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    for content in (b"{ not json", b"\xff\xfe{}"):  # the second is not UTF-8
        path.write_bytes(content)
        with pytest.raises(mb.ProblemFileError) as err:
            mb.parse_problem_file(path)
        assert err.value.code == "syntax"


def test_missing_file_is_a_syntax_error(tmp_path):
    with pytest.raises(mb.ProblemFileError):
        mb.parse_problem_file(tmp_path / "missing.json")



# -- total validation: every single-field mutation of the bundled files -----------

MUTATION_VALUES = (3, None, "x", [], {}, True)


def field_paths(node, prefix=""):
    """``(path, container, key)`` for every field below ``node``, in document order."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        path = (f"{prefix}[{key}]" if isinstance(key, int)
                else f"{prefix}.{key}" if prefix else key)
        yield path, node, key
        yield from field_paths(child, path)


def mutations():
    """``(file, path, value, document)``: a bundled file with the field at
    ``path`` replaced by ``value``, for every field and every MUTATION_VALUE.
    The document is restored after each step, so consume it before advancing."""
    for name in ("mlp", "toy"):
        document = json.loads(bundled_problem_path(name).read_text())
        for path, container, key in list(field_paths(document)):
            original = container[key]
            for value in MUTATION_VALUES:
                container[key] = value
                yield name, path, value, document
            container[key] = original


def test_every_single_field_mutation_parses_or_names_its_field():
    count = 0
    escapes = []
    for name, path, value, document in mutations():
        count += 1
        try:
            mb.parse_problem(document)
        except mb.ProblemFileError as exc:
            if not exc.path:
                escapes.append((name, path, value, "no field path"))
        except Exception as exc:
            escapes.append((name, path, value, repr(exc)))
    assert count == 1908
    assert escapes == []


@pytest.mark.parametrize("name, field, value, where", [
    ("mlp", "variables[0].id", [], "variables[0]"),
    ("toy", "variables[3].id", {}, "variables[3]"),
    ("toy", "variables[0].scope.categories[1]", {}, "variables[0].scope.categories"),
    ("mlp", "constraints[0].analytic.terms[2][1]", [], "constraints[0].analytic.terms[2]"),
    ("mlp", "constraints[1].decree[0].min", "x", "constraints[1].decree[0].min"),
    ("mlp", "variables[3].decree[0].min", None, "variables[3].decree[0].min"),
    ("toy", "blackbox.builtin", [], "blackbox.builtin"),
    ("mlp", "variables[0].scope.lo_open", "x", "variables[0].scope.lo_open"),
    ("mlp", "variables[7].scope.lo", True, "variables[7].scope.lo"),
    ("mlp", "variables[3].first", True, "variables[3].first"),
    ("mlp", "neighborhoods.meta[0].delta", True, "neighborhoods.meta[0].delta"),
    ("mlp", "name", 3, "name"),
    ("toy", "constraints[0].blackbox", "x", "constraints[0].blackbox"),
    ("toy", "constraints[0].decree[0].allowed[0]", [], "constraints[0].decree[0].allowed[0]"),
])
def test_untyped_fields_raise_with_their_path(name, field, value, where):
    # Each of these once escaped parse_problem as a raw TypeError, or was
    # accepted by coercion (True as 1, "x" as an open endpoint, an empty
    # interval).
    for case in mutations():
        if case[:3] == (name, field, value):
            with pytest.raises(mb.ProblemFileError) as err:
                mb.parse_problem(case[3])
            assert err.value.path == where
            return
    pytest.fail(f"{field} is not a field of {name}")


def test_malformed_membership_interval_is_rejected_at_its_path():
    # The co-acting check of a decreed constraint once read this interval and
    # raised a raw ValueError out of parse_problem.
    document = base_document()
    lam = next(v for v in document["variables"] if v.get("id") == "lam")
    lam["decree"][0]["allowed"] = [[1], "ASGD"]
    document["constraints"].append({
        "id": "lam_cap", "role": "decreed",
        "decree": [{"kind": "membership", "meta": "o", "allowed": ["ASGD"]}],
        "analytic": {"terms": [[1, "lam"]], "constant": -1},
    })
    expect_error(document, "syntax", "variables[5].decree[0].allowed[0]")


def test_every_mutation_that_parses_solves_or_fails_cleanly():
    # validate ok => solve raises nothing but a MetaboxError.
    crashes = []
    for name, path, value, document in mutations():
        try:
            parsed = mb.parse_problem(document)
        except mb.ProblemFileError:
            continue
        try:
            mb.run_direct_search(parsed.problem, mb.SearchConfig(budget=3, seed=0),
                                 meta_mapping=parsed.meta_mapping,
                                 categorical_mapping=parsed.categorical_mapping)
        except mb.MetaboxError:
            pass
        except Exception as exc:
            crashes.append((name, path, value, repr(exc)))
    assert crashes == []
