"""JSON problem files: parsing, validation with field paths, serialization.

A problem file declares variables (with optional indexed families expanded at
load), constraints (linear analytic bodies or blackbox outputs), named
constants substituted into constraint bodies and threshold minimums, the
blackbox binding (builtin name or external command), and optional
neighborhood rules.  Validation failures raise ProblemFileError with a
stable code and the offending field path, e.g. ``variables[3].decree[0]``.
Every field is read through :func:`_field`, which checks its JSON kind
against the one table ``_KINDS``; the parse functions keep only the semantic
checks (scopes, decrees, co-acting, ids and constants).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .blackbox import Problem
from .builtin_problems import _mlp_objective_factory, _toy_objective_factory
from .constraints import (BlackboxOutput, ConstraintSpec, ConstraintSystem,
                          LinearExpression)
from .domain import (CategoricalScope, ContinuousScope, DecreePredicate, Domain,
                     GROUPS, IntegerScope, Membership, Role, ScopeError, Threshold,
                     VariableSpec, VariableType)
from .errors import ProblemFileError
from .neighborhoods import (RULE_TYPES, Combined, IncrementMetaInteger, IncrementOrdinal,
                            NeighborhoodMapping, SwapCategorical)

#: Builtin objective bindings; each receives the parsed domain.
BUILTIN_OBJECTIVES = {
    "mlp_proxy": _mlp_objective_factory,
    "toy_discrete": _toy_objective_factory,
}

_CONSTANT_RE = re.compile(r"^(-)?\$(\w+)$")


def _is_number(value):
    """A number no larger in size than the largest float (so neither NaN nor
    infinite); a bool is not one."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= 1.7976931348623157e308)


def _is_scalar(value):
    return not isinstance(value, (list, dict))


#: The JSON kinds a problem-file field may hold: kind -> (test, what it expects).
_KINDS = {
    "object": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "nonempty list": (lambda v: isinstance(v, list) and v != [], "a nonempty list"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "id": (lambda v: isinstance(v, str) and v != "", "a nonempty string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "integer": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "number": (_is_number, "a finite number"),
    "quantity": (lambda v: _is_number(v) or isinstance(v, str) and bool(_CONSTANT_RE.match(v)),
                 'a finite number or "$constant"'),
    "scalar": (_is_scalar, "a scalar"),
    "labels": (lambda v: isinstance(v, list) and all(map(_is_scalar, v)),
               "a list of scalar labels"),
    "pair": (lambda v: isinstance(v, list) and len(v) == 2, "a two-element list"),
    "entry": (lambda v: _is_scalar(v) or isinstance(v, list) and len(v) == 2
              and all(map(_is_number, v)), "a scalar or a [lo, hi] pair of numbers"),
}

_REQUIRED = object()


def _fail(code, path, message):
    raise ProblemFileError(code, path, message)


def _expect(condition, code, path, message):
    if not condition:
        _fail(code, path, message)


def _check(value, path, kind, code="syntax"):
    """``value``, if it is of ``kind`` (a key of ``_KINDS``); else a failure at ``path``."""
    test, expected = _KINDS[kind]
    if not test(value):
        _fail(code, path, f"expected {expected}, got {value!r}")
    return value


def _field(obj, key, path, kind, default=_REQUIRED, code="syntax"):
    """``obj[key]`` checked to be of ``kind``, or ``default`` when the key is
    absent; a missing required field fails with ``code`` at ``path``."""
    try:
        value = obj[key]
    except KeyError:
        _expect(default is not _REQUIRED, code, path,
                f"{key!r} is required: {_KINDS[kind][1]}")
        return default
    return _check(value, path, kind, code)


def _items(obj, key, path, kind, item_kind, default=_REQUIRED):
    """``(element, its path)`` for each element of the list field ``obj[key]``
    of ``kind``, each element checked to be of ``item_kind``."""
    return [(_check(item, f"{path}[{j}]", item_kind), f"{path}[{j}]")
            for j, item in enumerate(_field(obj, key, path, kind, default))]


def _number(obj, key, path, constants, default=_REQUIRED):
    """The number at ``obj[key]``, or the declared constant a ``$name`` or
    ``-$name`` there refers to."""
    value = _field(obj, key, path, "quantity", default)
    if _is_number(value):
        return value
    sign, name = _CONSTANT_RE.match(value).groups()
    _expect(name in constants, "unknown-constant", path, f"constant {name!r} is not declared")
    value = _field(constants, name, f"constants.{name}", "number")
    return -value if sign else value


def _parse_scope(entry, var_type, path):
    path = f"{path}.scope"
    scope = _field(entry, "scope", path, "object", code="scope-malformed")

    def bound(key, kind, default=_REQUIRED):
        return _field(scope, key, f"{path}.{key}", kind, default, "scope-malformed")

    try:
        if var_type in (VariableType.META_CATEGORICAL, VariableType.NOMINAL,
                        VariableType.ORDINAL):
            return CategoricalScope(tuple(bound("categories", "labels")))
        if var_type in (VariableType.META_INTEGER, VariableType.INTEGER):
            return IntegerScope(bound("lo", "integer"), bound("hi", "integer"))
        return ContinuousScope(float(bound("lo", "number")), float(bound("hi", "number")),
                               bound("lo_open", "bool", False), bound("hi_open", "bool", False))
    except ScopeError as exc:
        _fail("scope-malformed", path, str(exc))


def _parse_atom(data, apath, meta_ids, all_ids, constants):
    kind = _field(data, "kind", apath, "string")
    meta_id = _field(data, "meta", apath, "string")
    if meta_id not in meta_ids:
        if meta_id in all_ids:
            _fail("meta-decreeing-meta", apath,
                  f"{meta_id!r} is not a meta variable; only meta variables decree")
        _fail("unknown-id", apath, f"unknown variable {meta_id!r} in decree")
    if kind == "membership":
        return Membership(meta_id, tuple(entry for entry, _ in _items(
            data, "allowed", f"{apath}.allowed", "nonempty list", "entry")))
    if kind == "threshold":
        return Threshold(meta_id, _number(data, "min", f"{apath}.min", constants))
    _fail("syntax", apath, f"unknown decree atom kind {kind!r}")


def _decree_atoms(entry, path):
    """``(atom, its path)`` for the decree of a variable or constraint entry."""
    return _items(entry, "decree", f"{path}.decree", "list", "object", [])


def _parse_decree(entry, path, meta_ids, all_ids, constants) -> DecreePredicate:
    return DecreePredicate(tuple(_parse_atom(atom, apath, meta_ids, all_ids, constants)
                                 for atom, apath in _decree_atoms(entry, path)))


def _expand_variables(document):
    """Expand indexed families into individual variable descriptors."""
    expanded = []
    for entry, path in _items(document, "variables", "variables", "nonempty list", "object"):
        if "family" not in entry:
            _field(entry, "id", path, "id")
            expanded.append((entry, path))
            continue
        family = _field(entry, "family", f"{path}.family", "id")
        first = _field(entry, "first", f"{path}.first", "integer")
        last = _field(entry, "last", f"{path}.last", "integer")
        _expect(first <= last, "syntax", path, "family needs first <= last")
        atoms = [atom for atom, _ in _decree_atoms(entry, path)]
        for index in range(first, last + 1):
            member = {k: v for k, v in entry.items() if k not in ("family", "first", "last")}
            member["id"] = f"{family}{index}"
            member["decree"] = [{k: (index if v == "$index" else v) for k, v in atom.items()}
                                for atom in atoms]
            expanded.append((member, path))
    return expanded


def _parse_variables(document, constants):
    expanded = _expand_variables(document)
    meta_ids = {entry["id"] for entry, _ in expanded if entry.get("role") == "meta"}
    all_ids = {entry["id"] for entry, _ in expanded}
    specs = []
    seen = set()
    for entry, path in expanded:
        vid = entry["id"]
        _expect(vid not in seen, "duplicate-id", path, f"variable id {vid!r} repeats")
        seen.add(vid)
        try:
            var_type = VariableType(_field(entry, "type", path, "string"))
            role = Role(_field(entry, "role", path, "string"))
        except ValueError as exc:
            _fail("syntax", path, str(exc))
        scope = _parse_scope(entry, var_type, path)
        decree = _parse_decree(entry, path, meta_ids, all_ids, constants)
        try:
            specs.append(VariableSpec(vid, var_type, role, scope, decree,
                                      _field(entry, "default", f"{path}.default", "scalar",
                                             None)))
        except ScopeError as exc:
            _fail("scope-malformed", path, str(exc))
    return specs, meta_ids, all_ids


def _parse_constraints(document, constants, domain, meta_ids, all_ids):
    specs = []
    for entry, path in _items(document, "constraints", "constraints", "list", "object", []):
        cid = _field(entry, "id", path, "id")
        try:
            role = Role(_field(entry, "role", path, "string"))
        except ValueError as exc:
            _fail("syntax", path, str(exc))
        decree = _parse_decree(entry, path, meta_ids, all_ids, constants)
        if _field(entry, "blackbox", f"{path}.blackbox", "bool", False):
            body = BlackboxOutput()
        else:
            apath = f"{path}.analytic"
            analytic = _field(entry, "analytic", apath, "object")
            terms = []
            for term, tpath in _items(analytic, "terms", f"{apath}.terms", "list", "pair", []):
                vid = _field(term, 1, tpath, "string")
                coefficient = _number(term, 0, tpath, constants)
                _expect(vid in domain, "unknown-id", tpath, f"unknown variable {vid!r}")
                _expect(domain.spec(vid).type in GROUPS["standard"], "invalid-reference",
                        tpath, "analytic bodies may only reference integer/continuous "
                        f"variables, not {vid!r}")
                terms.append((coefficient, vid))
            body = LinearExpression(tuple(terms), _number(analytic, "constant",
                                                          f"{apath}.constant", constants, 0.0))
        try:
            specs.append(ConstraintSpec(cid, role, body, decree))
        except ScopeError as exc:
            _fail("syntax", path, str(exc))
    return specs


def _parse_rule(data, path, target, domain):
    """The rule at ``path`` of the ``target`` neighborhood list; each atomic
    move must name a variable of a type it may act on there (RULE_TYPES)."""
    kind = _field(data, "kind", path, "string")
    if kind == "combined":
        return Combined(tuple(_parse_rule(move, mpath, target, domain) for move, mpath in
                              _items(data, "moves", f"{path}.moves", "nonempty list", "object")))
    _expect(kind in ("increment-meta", "swap", "increment-ordinal"), "syntax", path,
            f"unknown rule kind {kind!r}")
    var_id = _field(data, "id", path, "string")
    if kind == "swap":
        rule = SwapCategorical(var_id)
    else:
        delta = _field(data, "delta", f"{path}.delta", "integer", 1)
        rule = (IncrementMetaInteger if kind == "increment-meta" else IncrementOrdinal)(
            var_id, delta)
    _expect(var_id in domain, "unknown-id", path, f"unknown variable {var_id!r}")
    types = RULE_TYPES.get((target, type(rule)), ())
    _expect(domain.spec(var_id).type in types, "invalid-reference", path,
            f"a {kind!r} rule in a {target} neighborhood cannot move the "
            f"{domain.spec(var_id).type.value} variable {var_id!r}")
    return rule


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
    _check(document, "", "object")
    name = _field(document, "name", "name", "string", "")
    constants = _field(document, "constants", "constants", "object", {})
    specs, meta_ids, all_ids = _parse_variables(document, constants)
    try:
        domain = Domain(specs, name=name)
    except ScopeError as exc:
        _fail("syntax", "variables", str(exc))
    constraint_specs = _parse_constraints(document, constants, domain, meta_ids, all_ids)
    try:
        system = ConstraintSystem(domain, constraint_specs)
    except ScopeError as exc:
        code = ("decree-references-nonacting" if "nonacting" in str(exc)
                or "acting whenever" in str(exc) else "syntax")
        _fail(code, "constraints", str(exc))

    blackbox = _field(document, "blackbox", "blackbox", "object")
    timeout = _field(blackbox, "timeout", "blackbox.timeout", "number", 60.0)
    _expect(timeout > 0, "syntax", "blackbox.timeout",
            f"timeout must be a positive number of seconds, got {timeout!r}")
    timeout = float(timeout)
    builtin = None
    if "builtin" in blackbox:
        builtin = _field(blackbox, "builtin", "blackbox.builtin", "string")
        _expect(builtin in BUILTIN_OBJECTIVES, "unknown-id", "blackbox.builtin",
                f"unknown builtin {builtin!r}; expected one of {sorted(BUILTIN_OBJECTIVES)}")
        problem = Problem(domain=domain, constraints=system,
                          objective=BUILTIN_OBJECTIVES[builtin](domain), timeout=timeout,
                          name=name if "name" in document else builtin)
    else:
        command = _items(blackbox, "command", "blackbox.command", "nonempty list", "string")
        problem = Problem(domain=domain, constraints=system,
                          command=tuple(part for part, _ in command), timeout=timeout,
                          name=name)

    neighborhoods = _field(document, "neighborhoods", "neighborhoods", "object", {})
    mappings = {}
    for kind in ("meta", "categorical"):
        rules = _items(neighborhoods, kind, f"neighborhoods.{kind}", "list", "object", [])
        if rules:
            mappings[kind] = NeighborhoodMapping(kind, tuple(
                _parse_rule(rule, rpath, kind, domain) for rule, rpath in rules))
    metadata = _field(document, "metadata", "metadata", "object", {})

    return ParsedProblem(name=name, domain=domain, system=system,
                         problem=problem, meta_mapping=mappings.get("meta"),
                         categorical_mapping=mappings.get("categorical"),
                         constants=dict(constants), metadata=dict(metadata),
                         builtin=builtin)


def read_json(path, where: str = ""):
    """The JSON document in the file at ``path``; a missing file, or one that
    is not JSON text, is a ``syntax`` ProblemFileError at ``where``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        _fail("syntax", where, f"no such file: {path}")
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
        _fail("syntax", where, f"invalid JSON in {path}: {exc}")


def parse_problem_file(path) -> ParsedProblem:
    return parse_problem(read_json(path))


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
