"""JSON problem files: parsing, validation with field paths, serialization.

A problem file declares variables (with optional indexed families expanded at
load), constraints (linear analytic bodies or blackbox outputs), named
constants substituted into constraint bodies and threshold minimums, the
blackbox binding (builtin name or external command), and optional
neighborhood rules.  Validation failures raise ProblemFileError with a
stable code and the offending field path, e.g. ``variables[3].decree[0]``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .blackbox import Problem, valid_timeout
from .builtin_problems import _mlp_objective_factory, _toy_objective_factory
from .constraints import (BlackboxOutput, ConstraintSpec, ConstraintSystem,
                          LinearExpression)
from .domain import (CategoricalScope, ContinuousScope, DecreePredicate, Domain,
                     GROUPS, IntegerScope, Membership, Role, ScopeError, Threshold,
                     VariableSpec, VariableType)
from .errors import ProblemFileError
from .neighborhoods import (Combined, IncrementMetaInteger, IncrementOrdinal,
                            NeighborhoodMapping, SwapCategorical)

#: Builtin objective bindings; each receives the parsed domain.
BUILTIN_OBJECTIVES = {
    "mlp_proxy": _mlp_objective_factory,
    "toy_discrete": _toy_objective_factory,
}

_CONSTANT_RE = re.compile(r"^(-)?\$(\w+)$")


def _fail(code, path, message):
    raise ProblemFileError(code, path, message)


def _expect(condition, code, path, message):
    if not condition:
        _fail(code, path, message)


def _cast(cast, value, code, path):
    """``cast(value)``, or a validation failure with ``code`` at ``path``."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        _fail(code, path, f"expected {cast.__name__}, got {value!r}")


def _number(value, constants, path):
    if isinstance(value, bool):
        _fail("syntax", path, "expected a number")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        match = _CONSTANT_RE.match(value)
        if not match:
            _fail("syntax", path, f"expected a number or $constant, got {value!r}")
        sign, name = match.groups()
        if name not in constants:
            _fail("unknown-constant", path, f"constant {name!r} is not declared")
        value = constants[name]
        _expect(isinstance(value, (int, float)) and not isinstance(value, bool), "syntax",
                f"constants.{name}", f"constant {name!r} must be a number, got {value!r}")
        return -value if sign else value
    _fail("syntax", path, f"expected a number, got {type(value).__name__}")


def _parse_scope(data, var_type, path):
    _expect(isinstance(data, dict), "scope-malformed", path, "scope must be an object")
    try:
        if var_type in (VariableType.META_CATEGORICAL, VariableType.NOMINAL,
                        VariableType.ORDINAL):
            categories = data.get("categories")
            _expect(isinstance(categories, list) and not any(
                isinstance(c, (list, dict)) for c in categories), "scope-malformed",
                f"{path}.categories", "categorical scope needs a list of scalar labels")
            return CategoricalScope(tuple(categories))
        if var_type in (VariableType.META_INTEGER, VariableType.INTEGER):
            _expect("lo" in data and "hi" in data, "scope-malformed", path,
                    "integer scope needs lo and hi")
            return IntegerScope(data["lo"], data["hi"])
        _expect("lo" in data and "hi" in data, "scope-malformed", path,
                "continuous scope needs lo and hi")
        return ContinuousScope(_cast(float, data["lo"], "scope-malformed", f"{path}.lo"),
                               _cast(float, data["hi"], "scope-malformed", f"{path}.hi"),
                               bool(data.get("lo_open", False)),
                               bool(data.get("hi_open", False)))
    except ScopeError as exc:
        _fail("scope-malformed", path, str(exc))


def _parse_atom(data, index, path, meta_ids, all_ids, constants):
    apath = f"{path}.decree[{index}]"
    _expect(isinstance(data, dict) and "kind" in data, "syntax", apath,
            "decree atom needs a kind")
    meta_id = data.get("meta")
    _expect(isinstance(meta_id, str), "syntax", apath, "decree atom needs a meta id")
    if meta_id not in meta_ids:
        if meta_id in all_ids:
            _fail("meta-decreeing-meta", apath,
                  f"{meta_id!r} is not a meta variable; only meta variables decree")
        _fail("unknown-id", apath, f"unknown variable {meta_id!r} in decree")
    if data["kind"] == "membership":
        allowed = data.get("allowed")
        _expect(isinstance(allowed, list) and allowed, "syntax", apath,
                "membership atom needs a nonempty allowed list")
        return Membership(meta_id, tuple(
            tuple(entry) if isinstance(entry, list) else entry for entry in allowed))
    if data["kind"] == "threshold":
        return Threshold(meta_id, _number(data.get("min"), constants, f"{apath}.min"))
    _fail("syntax", apath, f"unknown decree atom kind {data['kind']!r}")


def _decree_entries(entry, path):
    """The decree list of a variable or constraint entry (empty when absent)."""
    decree = entry.get("decree", [])
    _expect(isinstance(decree, list), "syntax", f"{path}.decree", "decree must be a list")
    return decree


def _parse_decree(entry, path, meta_ids, all_ids, constants) -> DecreePredicate:
    return DecreePredicate(tuple(_parse_atom(a, j, path, meta_ids, all_ids, constants)
                                 for j, a in enumerate(_decree_entries(entry, path))))


def _expand_variables(entries, constants):
    """Expand indexed families into individual variable descriptors."""
    expanded = []
    for i, entry in enumerate(entries):
        path = f"variables[{i}]"
        _expect(isinstance(entry, dict), "syntax", path, "variable must be an object")
        if "family" in entry:
            _expect("first" in entry and "last" in entry, "syntax", path,
                    "family needs first and last indices")
            first = _cast(int, entry["first"], "syntax", f"{path}.first")
            last = _cast(int, entry["last"], "syntax", f"{path}.last")
            _expect(first <= last, "syntax", path, "family needs first <= last")
            for index in range(first, last + 1):
                member = {k: v for k, v in entry.items()
                          if k not in ("family", "first", "last")}
                member["id"] = f"{entry['family']}{index}"
                # A malformed atom passes through for _parse_atom to reject.
                member["decree"] = [
                    {k: (index if v == "$index" else v) for k, v in atom.items()}
                    if isinstance(atom, dict) else atom
                    for atom in _decree_entries(entry, path)
                ]
                expanded.append((member, path))
        else:
            _expect(isinstance(entry.get("id"), str) and entry["id"], "syntax", path,
                    "variable needs an id")
            expanded.append((entry, path))
    return expanded


def _parse_variables(entries, constants):
    expanded = _expand_variables(entries, constants)
    meta_ids = {entry.get("id") for entry, _ in expanded if entry.get("role") == "meta"}
    all_ids = {entry.get("id") for entry, _ in expanded}
    specs = []
    seen = set()
    for entry, path in expanded:
        vid = entry["id"]
        _expect(vid not in seen, "duplicate-id", path, f"variable id {vid!r} repeats")
        seen.add(vid)
        try:
            var_type = VariableType(entry.get("type"))
            role = Role(entry.get("role"))
        except ValueError as exc:
            _fail("syntax", path, str(exc))
        scope = _parse_scope(entry.get("scope"), var_type, f"{path}.scope")
        decree = _parse_decree(entry, path, meta_ids, all_ids, constants)
        try:
            specs.append(VariableSpec(vid, var_type, role, scope, decree,
                                      entry.get("default")))
        except ScopeError as exc:
            _fail("scope-malformed", path, str(exc))
    return specs, meta_ids, all_ids


def _parse_constraints(entries, constants, domain, meta_ids, all_ids):
    _expect(isinstance(entries, list), "syntax", "constraints", "constraints must be a list")
    specs = []
    for i, entry in enumerate(entries):
        path = f"constraints[{i}]"
        _expect(isinstance(entry, dict), "syntax", path, "constraint must be an object")
        _expect(isinstance(entry.get("id"), str) and entry["id"], "syntax", path,
                "constraint needs an id")
        try:
            role = Role(entry.get("role"))
        except ValueError as exc:
            _fail("syntax", path, str(exc))
        decree = _parse_decree(entry, path, meta_ids, all_ids, constants)
        if entry.get("blackbox"):
            body = BlackboxOutput()
        else:
            analytic = entry.get("analytic")
            _expect(isinstance(analytic, dict), "syntax", path,
                    "constraint needs an analytic body or blackbox: true")
            listed = analytic.get("terms", [])
            _expect(isinstance(listed, list), "syntax", f"{path}.analytic.terms",
                    "terms must be a list")
            terms = []
            for t, term in enumerate(listed):
                tpath = f"{path}.analytic.terms[{t}]"
                _expect(isinstance(term, list) and len(term) == 2 and isinstance(term[1], str),
                        "syntax", tpath, "term must be [coefficient, variable id]")
                coefficient, vid = _number(term[0], constants, tpath), term[1]
                _expect(vid in domain, "unknown-id", tpath, f"unknown variable {vid!r}")
                _expect(domain.spec(vid).type in GROUPS["standard"], "invalid-reference",
                        tpath, "analytic bodies may only reference integer/continuous "
                        f"variables, not {vid!r}")
                terms.append((coefficient, vid))
            constant = _number(analytic.get("constant", 0.0), constants,
                               f"{path}.analytic.constant")
            body = LinearExpression(tuple(terms), constant)
        try:
            specs.append(ConstraintSpec(entry["id"], role, body, decree))
        except ScopeError as exc:
            _fail("syntax", path, str(exc))
    return specs


def _parse_rule(data, path):
    _expect(isinstance(data, dict) and "kind" in data, "syntax", path, "rule needs a kind")
    kind = data["kind"]
    if kind == "combined":
        moves = data.get("moves")
        _expect(isinstance(moves, list) and moves, "syntax", path,
                "combined rule needs a nonempty moves list")
        return Combined(tuple(_parse_rule(m, f"{path}.moves[{j}]")
                              for j, m in enumerate(moves)))
    _expect(kind in ("increment-meta", "swap", "increment-ordinal"), "syntax", path,
            f"unknown rule kind {kind!r}")
    _expect(isinstance(data.get("id"), str), "syntax", path, "rule needs a variable id")
    if kind == "swap":
        return SwapCategorical(data["id"])
    delta = _cast(int, data.get("delta", 1), "syntax", f"{path}.delta")
    if kind == "increment-meta":
        return IncrementMetaInteger(data["id"], delta)
    return IncrementOrdinal(data["id"], delta)


@dataclass
class ParsedProblem:
    name: str
    domain: Domain
    system: ConstraintSystem
    problem: Problem
    meta_mapping: NeighborhoodMapping | None
    categorical_mapping: NeighborhoodMapping | None
    constants: dict
    metadata: dict
    builtin: str | None = None


def parse_problem(document: dict) -> ParsedProblem:
    _expect(isinstance(document, dict), "syntax", "", "problem file must be a JSON object")
    constants = document.get("constants", {})
    _expect(isinstance(constants, dict), "syntax", "constants",
            "constants must be an object")
    variables = document.get("variables")
    _expect(isinstance(variables, list) and variables, "syntax", "variables",
            "variables must be a nonempty list")
    specs, meta_ids, all_ids = _parse_variables(variables, constants)
    try:
        domain = Domain(specs, name=document.get("name", ""))
    except ScopeError as exc:
        _fail("meta-decreeing-meta" if "not a meta variable" in str(exc) else "syntax",
              "variables", str(exc))
    constraint_specs = _parse_constraints(document.get("constraints", []), constants,
                                          domain, meta_ids, all_ids)
    try:
        system = ConstraintSystem(domain, constraint_specs)
    except ScopeError as exc:
        code = ("decree-references-nonacting" if "nonacting" in str(exc)
                or "acting whenever" in str(exc) else "syntax")
        _fail(code, "constraints", str(exc))

    blackbox = document.get("blackbox")
    _expect(isinstance(blackbox, dict), "syntax", "blackbox",
            "blackbox must be an object with builtin or command")
    timeout = blackbox.get("timeout", 60.0)
    _expect(valid_timeout(timeout), "syntax", "blackbox.timeout",
            f"timeout must be a positive number of seconds, got {timeout!r}")
    timeout = float(timeout)
    builtin = None
    if "builtin" in blackbox:
        builtin = blackbox["builtin"]
        _expect(isinstance(builtin, str) and builtin in BUILTIN_OBJECTIVES, "unknown-id",
                "blackbox.builtin", f"unknown builtin {builtin!r}; expected one of "
                f"{sorted(BUILTIN_OBJECTIVES)}")
        problem = Problem(domain=domain, constraints=system,
                          objective=BUILTIN_OBJECTIVES[builtin](domain),
                          timeout=timeout, name=document.get("name", builtin))
    else:
        command = blackbox.get("command")
        _expect(isinstance(command, list) and command, "syntax", "blackbox.command",
                "command must be a nonempty list of strings")
        problem = Problem(domain=domain, constraints=system, command=tuple(command),
                          timeout=timeout, name=document.get("name", ""))

    neighborhoods = document.get("neighborhoods", {})
    _expect(isinstance(neighborhoods, dict), "syntax", "neighborhoods",
            "neighborhoods must be an object")
    mappings = {}
    for kind in ("meta", "categorical"):
        rules = neighborhoods.get(kind)
        if rules:
            _expect(isinstance(rules, list), "syntax", f"neighborhoods.{kind}",
                    "neighborhood rules must be a list")
            mappings[kind] = NeighborhoodMapping(kind, tuple(
                _parse_rule(r, f"neighborhoods.{kind}[{j}]") for j, r in enumerate(rules)))
    metadata = document.get("metadata", {})
    _expect(isinstance(metadata, dict), "syntax", "metadata", "metadata must be an object")

    return ParsedProblem(name=document.get("name", ""), domain=domain, system=system,
                         problem=problem, meta_mapping=mappings.get("meta"),
                         categorical_mapping=mappings.get("categorical"),
                         constants=dict(constants), metadata=dict(metadata),
                         builtin=builtin)


def parse_problem_file(path) -> ParsedProblem:
    try:
        with open(path) as fh:
            document = json.load(fh)
    except FileNotFoundError:
        _fail("syntax", "", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        _fail("syntax", "", f"invalid JSON: {exc}")
    return parse_problem(document)


def bundled_problem_path(name: str):
    """Filesystem path of a problem file shipped with the package (mlp, toy)."""
    from importlib import resources
    return resources.files("metabox").joinpath("data", f"{name}.json")


# ---------------------------------------------------------------------------
# Serialization (families come back expanded; parse(serialize(parse(f))) is a
# fixpoint at the model level)
# ---------------------------------------------------------------------------

def _scope_to_dict(scope):
    if isinstance(scope, CategoricalScope):
        return {"categories": list(scope.labels)}
    if isinstance(scope, IntegerScope):
        return {"lo": scope.lo, "hi": scope.hi}
    return {"lo": scope.lo, "hi": scope.hi, "lo_open": scope.lo_open,
            "hi_open": scope.hi_open}


def _atom_to_dict(atom):
    if isinstance(atom, Membership):
        return {"kind": "membership", "meta": atom.meta_id,
                "allowed": [list(a) if isinstance(a, tuple) else a for a in atom.allowed]}
    return {"kind": "threshold", "meta": atom.meta_id, "min": atom.minimum}


def _rule_to_dict(rule):
    if isinstance(rule, IncrementMetaInteger):
        return {"kind": "increment-meta", "id": rule.var_id, "delta": rule.delta}
    if isinstance(rule, SwapCategorical):
        return {"kind": "swap", "id": rule.var_id}
    if isinstance(rule, IncrementOrdinal):
        return {"kind": "increment-ordinal", "id": rule.var_id, "delta": rule.delta}
    if isinstance(rule, Combined):
        return {"kind": "combined", "moves": [_rule_to_dict(m) for m in rule.moves]}
    raise ProblemFileError("syntax", "neighborhoods",
                           f"rule {rule!r} is not expressible in a problem file")


def serialize_problem(parsed: ParsedProblem) -> dict:
    document = {"name": parsed.name, "constants": dict(parsed.constants)}
    document["variables"] = [
        {"id": v.id, "type": v.type.value, "role": v.role.value,
         "scope": _scope_to_dict(v.scope),
         **({"decree": [_atom_to_dict(a) for a in v.decree.atoms]}
            if v.decree.atoms else {}),
         **({"default": v.default} if v.default is not None else {})}
        for v in parsed.domain.variables
    ]
    document["constraints"] = [
        {"id": c.id, "role": c.role.value,
         **({"decree": [_atom_to_dict(a) for a in c.decree.atoms]}
            if c.decree.atoms else {}),
         **({"analytic": {"terms": [[coef, vid] for coef, vid in c.body.terms],
                          "constant": c.body.constant}}
            if c.analytic else {"blackbox": True})}
        for c in parsed.system.constraints
    ]
    if parsed.builtin is not None:
        document["blackbox"] = {"builtin": parsed.builtin,
                                "timeout": parsed.problem.timeout}
    else:
        document["blackbox"] = {"command": list(parsed.problem.command),
                                "timeout": parsed.problem.timeout}
    neighborhoods = {}
    if parsed.meta_mapping is not None:
        neighborhoods["meta"] = [_rule_to_dict(r) for r in parsed.meta_mapping.rules]
    if parsed.categorical_mapping is not None:
        neighborhoods["categorical"] = [_rule_to_dict(r)
                                        for r in parsed.categorical_mapping.rules]
    if neighborhoods:
        document["neighborhoods"] = neighborhoods
    if parsed.metadata:
        document["metadata"] = dict(parsed.metadata)
    return document
