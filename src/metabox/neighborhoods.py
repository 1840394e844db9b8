"""User-defined neighborhoods over meta and categorical components.

Neighborhoods are generated by ordered rule lists.  Each rule maps the
current point to zero or more candidate components; results are validated,
deduplicated preserving first occurrence, and the current component is
excluded.  A rule is one of the atomic moves below, a :class:`Combined`
move, or any callable ``(domain, point) -> components``.  Rule application
is pure, so mappings are safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import Domain, IntegerScope, MetaComponent, Point, VariableType
from .errors import ConfigurationError, InvalidMetaError

@dataclass(frozen=True)
class IncrementMetaInteger:
    """Step a meta-integer variable by +1/-1, clamping at its scope bounds."""

    var_id: str
    delta: int


@dataclass(frozen=True)
class SwapCategorical:
    """Replace a categorical (or meta-categorical) value by each other category."""

    var_id: str


@dataclass(frozen=True)
class IncrementOrdinal:
    """Move an ordinal variable one level up or down; out-of-range is inapplicable."""

    var_id: str
    delta: int


@dataclass(frozen=True)
class Combined:
    """Apply several atomic moves jointly to the same component."""

    moves: tuple

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(self.moves))


@dataclass(frozen=True)
class NeighborhoodMapping:
    """Ordered rules producing neighbors of one component type."""

    target: str  # "meta" | "categorical"
    rules: tuple
    guard: object = None  # optional predicate over the current point

    def __post_init__(self):
        if self.target not in ("meta", "categorical"):
            raise ConfigurationError(f"unknown neighborhood target {self.target!r}")
        object.__setattr__(self, "rules", tuple(self.rules))


# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------

def _apply_to_meta(rule, domain: Domain, component: MetaComponent, point: Point):
    if isinstance(rule, IncrementMetaInteger):
        scope = domain.spec(rule.var_id).scope
        if not isinstance(scope, IntegerScope):
            raise ConfigurationError(f"{rule.var_id!r} is not a meta-integer variable")
        return [component.replace(**{rule.var_id: scope.clamp(component[rule.var_id] + rule.delta)})]
    if isinstance(rule, SwapCategorical):
        scope = domain.spec(rule.var_id).scope
        current = component[rule.var_id]
        return [component.replace(**{rule.var_id: label})
                for label in scope.labels if label != current]
    if isinstance(rule, Combined):
        outputs = [component]
        for move in rule.moves:
            outputs = [r for c in outputs for r in _apply_to_meta(move, domain, c, point)]
        return outputs
    if callable(rule):
        return list(rule(domain, point))
    raise ConfigurationError(f"rule {rule!r} cannot target the meta component")


def _apply_to_categorical(rule, domain: Domain, component: dict, point: Point):
    if isinstance(rule, SwapCategorical):
        scope = domain.spec(rule.var_id).scope
        if rule.var_id not in component:
            return []
        current = component[rule.var_id]
        return [{**component, rule.var_id: idx}
                for idx in range(1, scope.size + 1) if idx != current]
    if isinstance(rule, IncrementOrdinal):
        if rule.var_id not in component:
            return []
        scope = domain.spec(rule.var_id).scope
        idx = component[rule.var_id] + rule.delta
        if not scope.contains_index(idx):
            return []
        return [{**component, rule.var_id: idx}]
    if isinstance(rule, Combined):
        outputs = [component]
        for move in rule.moves:
            outputs = [r for c in outputs
                       for r in _apply_to_categorical(move, domain, c, point)]
        return outputs
    if callable(rule):
        return list(rule(domain, point))
    raise ConfigurationError(f"rule {rule!r} cannot target the categorical component")


def meta_neighbors(domain: Domain, mapping: NeighborhoodMapping, point: Point):
    """Distinct meta components reachable from ``point``, current one excluded.

    Deterministic order: rule order, then scope order within a rule.
    """
    if mapping.guard is not None and not mapping.guard(point):
        return []
    neighbors = []
    for rule in mapping.rules:
        for candidate in _apply_to_meta(rule, domain, point.meta, point):
            try:
                domain.validate_meta(candidate)
            except InvalidMetaError:
                continue  # rule inapplicable at this point
            if candidate != point.meta and candidate not in neighbors:
                neighbors.append(candidate)
    return neighbors


def carried_categorical(domain: Domain, point: Point, tm: MetaComponent) -> dict:
    """Point's categorical values adapted to ``tm``: surviving assignments are
    kept, newly acting variables take their defaults."""
    component = {}
    for vid in domain.acting_index_set(tm, "categorical"):
        component[vid] = point.categorical.get(vid, domain.default_value(domain.spec(vid)))
    return component


def categorical_neighbors(domain: Domain, mapping, point: Point, tm: MetaComponent):
    """Categorical neighbor components inside the set decreed by ``tm``.

    With mapping None, the default applies: swap each acting nominal variable
    to every other category (one change at a time) and move each acting
    ordinal variable one level up and down.
    """
    base = carried_categorical(domain, point, tm)
    if mapping is None:
        rules = []
        for vid in domain.acting_index_set(tm, "categorical"):
            if domain.spec(vid).type == VariableType.ORDINAL:
                rules.append(IncrementOrdinal(vid, +1))
                rules.append(IncrementOrdinal(vid, -1))
            else:
                rules.append(SwapCategorical(vid))
        mapping = NeighborhoodMapping("categorical", rules)
    if mapping.guard is not None and not mapping.guard(point):
        return []
    neighbors = []
    acting = set(domain.acting_index_set(tm, "categorical"))
    for rule in mapping.rules:
        for candidate in _apply_to_categorical(rule, domain, base, point):
            if set(candidate) != acting:
                continue  # incompatible with tm: rule inapplicable
            if not all(domain.spec(v).scope.contains_index(i) for v, i in candidate.items()):
                continue
            if candidate != base and candidate not in neighbors:
                neighbors.append(candidate)
    return neighbors


def realize_neighbor(domain: Domain, point: Point, tm: MetaComponent, tq=None) -> Point:
    """Complete a point under ``tm``: surviving assignments of ``point`` are
    kept, ``tq`` overrides the categorical component, new variables default."""
    partial = {**point.categorical, **point.standard}
    if tq:
        partial.update(tq)
    return domain.complete_point(tm, partial)


def default_meta_mapping(domain: Domain) -> NeighborhoodMapping:
    """Generic meta neighborhood: +/-1 on meta-integers, swaps on meta-categoricals."""
    rules = []
    for vid in domain.meta_ids:
        spec = domain.spec(vid)
        if spec.type == VariableType.META_INTEGER:
            rules.append(IncrementMetaInteger(vid, +1))
            rules.append(IncrementMetaInteger(vid, -1))
        elif spec.type == VariableType.META_CATEGORICAL:
            rules.append(SwapCategorical(vid))
        else:
            raise ConfigurationError(
                f"no default neighborhood for meta-continuous variable {vid!r}; "
                "provide a custom mapping")
    return NeighborhoodMapping("meta", rules)
