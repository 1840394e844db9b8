"""Mixed-variable domain model.

A point is partitioned into a meta component, a categorical component and a
standard (integer + continuous) component.  Meta variables carry the decree
property: their values determine which other variables and constraints are
acting (part of the problem) or nonacting (absent).  The domain computes
acting index sets, per-type dimensions and point membership as pure functions
of the meta component.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

from .errors import InvalidMetaError, NotEnumerableError, ScopeError


class VariableType(str, Enum):
    META_CATEGORICAL = "meta-categorical"
    META_INTEGER = "meta-integer"
    META_CONTINUOUS = "meta-continuous"
    NOMINAL = "nominal"
    ORDINAL = "ordinal"
    INTEGER = "integer"
    CONTINUOUS = "continuous"

    @property
    def is_meta(self) -> bool:
        return self.value.startswith("meta-")


#: Variable type groups addressable in acting-set and dimension queries.
#: "standard" fuses integer and continuous; "categorical" fuses nominal and
#: ordinal; "meta" covers the three meta types.
GROUPS = {
    "meta": (VariableType.META_CATEGORICAL, VariableType.META_INTEGER,
             VariableType.META_CONTINUOUS),
    "categorical": (VariableType.NOMINAL, VariableType.ORDINAL),
    "nominal": (VariableType.NOMINAL,),
    "ordinal": (VariableType.ORDINAL,),
    "standard": (VariableType.INTEGER, VariableType.CONTINUOUS),
    "integer": (VariableType.INTEGER,),
    "continuous": (VariableType.CONTINUOUS,),
}


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CategoricalScope:
    """Ordered category labels; categories are addressed by 1-based index."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise ScopeError("categorical scope needs at least 2 categories")
        if len(set(self.labels)) != len(self.labels):
            raise ScopeError("categorical scope labels must be unique")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self.labels.index(label) + 1
        except ValueError:
            raise ScopeError(f"unknown category {label!r}") from None

    def label(self, index: int):
        if not self.contains_index(index):
            raise ScopeError(f"category index {index} outside 1..{self.size}")
        return self.labels[index - 1]

    def contains_index(self, index) -> bool:
        return _is_int(index) and 1 <= index <= self.size

    def contains_value(self, value) -> bool:
        return value in self.labels


@dataclass(frozen=True)
class IntegerScope:
    """Inclusive integer bounds."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (_is_int(self.lo) and _is_int(self.hi)):
            raise ScopeError("integer scope bounds must be integers")
        if self.lo > self.hi:
            raise ScopeError(f"integer scope has lo {self.lo} > hi {self.hi}")

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def contains_value(self, value) -> bool:
        return _is_int(value) and self.lo <= value <= self.hi

    @property
    def clamp_bounds(self) -> tuple:
        """The closed interval :meth:`clamp` maps into."""
        return self.lo, self.hi

    def clamp(self, value: int) -> int:
        return min(max(int(value), self.lo), self.hi)

    def values(self):
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True)
class ContinuousScope:
    """Real interval, optionally open at either end."""

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ScopeError(f"continuous scope needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains_value(self, value) -> bool:
        if (type(value) is not float and (not isinstance(value, numbers.Real)
                                          or _is_bool(value))) or math.isnan(value):
            return False
        above = value > self.lo if self.lo_open else value >= self.lo
        below = value < self.hi if self.hi_open else value <= self.hi
        return above and below

    @property
    def clamp_bounds(self) -> tuple:
        """The closed interval :meth:`clamp` maps into.

        Open endpoints are pulled inward by a sliver so clamped values stay
        inside the scope.
        """
        nudge = 1e-12 * self.width
        return (self.lo + nudge if self.lo_open else self.lo,
                self.hi - nudge if self.hi_open else self.hi)

    def clamp(self, value: float) -> float:
        lo, hi = self.clamp_bounds
        return min(max(float(value), lo), hi)


def normalize(scope, value) -> float:
    """Map a standard value onto [0, 1] by the scope's range."""
    width = scope.width
    if width == 0:
        return 0.0
    return (float(value) - scope.lo) / width


def denormalize(scope, unit: float):
    """Inverse of :func:`normalize`; integers round half away from zero."""
    raw = scope.lo + unit * scope.width
    if isinstance(scope, IntegerScope):
        return scope.clamp(round_half_away(raw))
    return scope.clamp(raw)


def round_half_away(x: float) -> int:
    """Round to the nearest integer with halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def _is_bool(v) -> bool:
    return isinstance(v, bool)


#: Exact builtin types that are already canonical values; bool is not among
#: them (``type(True) is bool``), so it always takes the isinstance path.
_PLAIN_TYPES = frozenset((int, float, str))


def _is_int(v) -> bool:
    if type(v) is int:
        return True
    return isinstance(v, numbers.Integral) and not _is_bool(v)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not _is_bool(v)


def _canonical_value(v):
    """Coerce numpy scalars and friends to plain Python values."""
    if type(v) in _PLAIN_TYPES:
        return v
    if isinstance(v, str) or _is_bool(v):
        return v
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, numbers.Real):
        return float(v)
    return v


def render_value(value) -> str:
    """Canonical text form of a variable value (17 significant digits for reals)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# ---------------------------------------------------------------------------
# Decree predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Membership:
    """Atom satisfied when a meta variable's value is in an allowed set.

    Entries of ``allowed`` are scope values; for meta-continuous variables an
    entry may be a ``(lo, hi)`` pair denoting a closed interval.
    """

    meta_id: str
    allowed: tuple

    def __post_init__(self):
        object.__setattr__(self, "allowed", tuple(
            tuple(a) if isinstance(a, (tuple, list)) else a for a in self.allowed))
        for entry in self.allowed:
            if isinstance(entry, tuple) and not (
                    len(entry) == 2 and all(map(_is_real, entry))):
                raise ScopeError(f"membership interval {entry!r} on {self.meta_id!r} "
                                 "must be a (lo, hi) pair of numbers")


@dataclass(frozen=True)
class Threshold:
    """Atom satisfied when a meta variable's value is at least ``minimum``.

    Applies to meta-integer variables directly and to meta-categorical
    variables through their 1-based category index.
    """

    meta_id: str
    minimum: float


@dataclass(frozen=True)
class DecreePredicate:
    """Conjunction of membership/threshold atoms over meta variables.

    An empty conjunction is always true and is reserved for the global and
    meta roles.
    """

    atoms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    @property
    def always(self) -> bool:
        return not self.atoms


ALWAYS = DecreePredicate()


class Role(str, Enum):
    META = "meta"
    DECREED = "decreed"
    GLOBAL = "global"


@dataclass(frozen=True)
class VariableSpec:
    """Declaration of a single variable: identity, type, role, scope, decree."""

    id: str
    type: VariableType
    role: Role
    scope: object
    decree: DecreePredicate = ALWAYS
    default: object = None

    def __post_init__(self):
        if self.type.is_meta != (self.role == Role.META):
            raise ScopeError(
                f"variable {self.id!r}: meta types pair with the meta role and vice versa")
        if (self.role == Role.DECREED) == self.decree.always:
            raise ScopeError(
                f"variable {self.id!r}: decreed variables need a nonempty decree, "
                "global/meta variables an empty one")
        expected = {
            VariableType.META_CATEGORICAL: CategoricalScope,
            VariableType.NOMINAL: CategoricalScope,
            VariableType.ORDINAL: CategoricalScope,
            VariableType.META_INTEGER: IntegerScope,
            VariableType.INTEGER: IntegerScope,
            VariableType.META_CONTINUOUS: ContinuousScope,
            VariableType.CONTINUOUS: ContinuousScope,
        }[self.type]
        if not isinstance(self.scope, expected):
            raise ScopeError(
                f"variable {self.id!r}: type {self.type.value} needs a "
                f"{expected.__name__}")
        if self.default is not None and not self.scope.contains_value(self.default):
            raise ScopeError(f"variable {self.id!r}: default {self.default!r} outside scope")


# ---------------------------------------------------------------------------
# Components and points
# ---------------------------------------------------------------------------

def _typed_meta_key(items):
    """Sorted ``(id, type, value)`` triples of a meta assignment.

    Unlike equality, the key tells 1, 1.0 and True apart: they compare equal,
    but only the first is a valid meta-integer value.
    """
    return tuple((k, type(v), v) for k, v in sorted(items))


class MetaComponent(Mapping):
    """Immutable assignment of every meta variable to a value.

    Equality and hashing ignore insertion order.  Meta-categorical values are
    category labels; meta-integer and meta-continuous values are numbers.
    """

    __slots__ = ("_items", "_key", "_typed_key", "_rendered")

    def __init__(self, assignments=()):
        items = {str(k): _canonical_value(v) for k, v in dict(assignments).items()}
        self._items = items
        self._key = tuple(sorted(items.items()))
        self._typed_key = _typed_meta_key(self._key)
        self._rendered = None

    @property
    def rendered(self) -> str:
        """``id=value`` pairs sorted by id and joined by ``;``, as cache keys
        show the component.  Rendered once: the component is immutable."""
        if self._rendered is None:
            self._rendered = ";".join(f"{k}={render_value(v)}" for k, v in self._key)
        return self._rendered

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __eq__(self, other):
        if isinstance(other, MetaComponent):
            return self._key == other._key
        if isinstance(other, Mapping):
            return self._items == dict(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self._items.items())
        return f"MetaComponent({inner})"

    def replace(self, **changes) -> "MetaComponent":
        merged = dict(self._items)
        merged.update(changes)
        return MetaComponent(merged)


class Point:
    """A concrete assignment holding only the acting variables.

    ``categorical`` maps variable ids to 1-based category indices; labels
    exist only at I/O boundaries.  ``standard`` maps ids to numbers.  Points
    are value objects: treat them as immutable.
    """

    __slots__ = ("meta", "categorical", "standard", "_key")

    def __init__(self, meta, categorical=None, standard=None):
        self.meta = meta if isinstance(meta, MetaComponent) else MetaComponent(meta)
        self.categorical = _canonical_map(categorical)
        self.standard = _canonical_map(standard)
        self._key = (self.meta, tuple(sorted(self.categorical.items())),
                     tuple(sorted(self.standard.items())))

    def __eq__(self, other):
        return isinstance(other, Point) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Point(meta={dict(self.meta)!r}, categorical={self.categorical!r}, standard={self.standard!r})"


def _canonical_map(values) -> dict:
    """A component map with string ids and canonical values."""
    return {str(k): _canonical_value(v) for k, v in dict(values or {}).items()}


@dataclass(frozen=True)
class _ActingLayout:
    """Everything a valid meta component decides about the other variables.

    ``groups`` maps each name in :data:`GROUPS` to its acting ids in
    declaration order (a read-only mapping); ``categorical`` and ``standard``
    pair each acting id of that component with its scope.
    """

    groups: MappingProxyType
    categorical: tuple
    standard: tuple
    categorical_ids: frozenset
    standard_ids: frozenset


@dataclass(frozen=True)
class MembershipIssue:
    """One reason a point is outside the domain."""

    code: str      # "invalid-meta" | "nonacting" | "missing" | "scope" | "unknown" | "component"
    subject: str   # variable id (or meta description)
    detail: str

    def __str__(self):
        return f"{self.code}:{self.subject}: {self.detail}"


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------

class Domain:
    """Executable description of the variables and their decree structure.

    The variable order everywhere is the declaration order.  The declaration
    is immutable after construction.  What each meta component decides is
    memoized per typed meta key (see :meth:`memoize_per_meta`); entries are
    immutable and only ever added, and a racing thread stores an equal
    value, so a domain is safe to share across threads.
    """

    def __init__(self, variables, name: str = ""):
        self.name = name
        self.variables = tuple(variables)
        seen = set()
        for v in self.variables:
            if v.id in seen:
                raise ScopeError(f"duplicate variable id {v.id!r}")
            seen.add(v.id)
        self._by_id = {v.id: v for v in self.variables}
        self.meta_ids = tuple(v.id for v in self.variables if v.type.is_meta)
        self._validate_decrees()
        self._layouts = {}

    def _validate_decrees(self):
        meta = set(self.meta_ids)
        for v in self.variables:
            for atom in v.decree.atoms:
                if atom.meta_id not in meta:
                    raise ScopeError(
                        f"variable {v.id!r}: decree references {atom.meta_id!r}, "
                        "which is not a meta variable")
                target = self._by_id[atom.meta_id]
                if isinstance(atom, Threshold) and target.type == VariableType.META_CONTINUOUS:
                    raise ScopeError(
                        f"variable {v.id!r}: threshold decrees are not defined on "
                        f"meta-continuous variable {atom.meta_id!r}")

    # -- lookups ------------------------------------------------------------

    def spec(self, var_id: str) -> VariableSpec:
        try:
            return self._by_id[var_id]
        except KeyError:
            raise ScopeError(f"unknown variable id {var_id!r}") from None

    def __contains__(self, var_id: str) -> bool:
        return var_id in self._by_id

    # -- meta component handling ---------------------------------------------

    def validate_meta(self, xm: MetaComponent):
        """Raise InvalidMetaError unless ``xm`` assigns every meta variable in scope."""
        for key in xm:
            if key not in self._by_id or not self._by_id[key].type.is_meta:
                raise InvalidMetaError(f"{key!r} is not a meta variable of this domain")
        for mid in self.meta_ids:
            if mid not in xm:
                raise InvalidMetaError(f"meta component is missing {mid!r}")
            if not self._by_id[mid].scope.contains_value(xm[mid]):
                raise InvalidMetaError(f"meta value {xm[mid]!r} outside scope of {mid!r}")

    def _atom_satisfied(self, atom, xm: MetaComponent) -> bool:
        value = xm[atom.meta_id]
        if isinstance(atom, Membership):
            for entry in atom.allowed:
                if isinstance(entry, tuple):
                    lo, hi = entry
                    if isinstance(value, numbers.Real) and lo <= value <= hi:
                        return True
                elif value == entry:
                    return True
            return False
        if isinstance(atom, Threshold):
            spec = self._by_id[atom.meta_id]
            if spec.type == VariableType.META_CATEGORICAL:
                return spec.scope.index(value) >= atom.minimum
            return value >= atom.minimum
        raise TypeError(f"unknown decree atom {atom!r}")

    def decree_satisfied(self, predicate: DecreePredicate, xm: MetaComponent) -> bool:
        return all(self._atom_satisfied(a, xm) for a in predicate.atoms)

    def is_acting(self, var_id: str, xm: MetaComponent) -> bool:
        spec = self.spec(var_id)
        if spec.role == Role.DECREED:
            return self.decree_satisfied(spec.decree, xm)
        return True

    # -- acting sets and dimensions -------------------------------------------

    def memoize_per_meta(self, memo: dict, xm, build):
        """``build(xm)`` for a valid meta component, memoized in ``memo``.

        ``memo`` is keyed by the typed meta key, which a MetaComponent
        computes once: 1, 1.0 and True compare equal, but only the first is a
        valid meta-integer value, so a stored answer must not serve the others.
        ``xm`` is validated before each build (InvalidMetaError), so only
        valid components are stored.  ``build`` must return an immutable value.
        """
        try:
            key = (xm._typed_key if isinstance(xm, MetaComponent)
                   else _typed_meta_key(xm.items()))
            value = memo.get(key)
        except TypeError:  # an unhashable value, which validation rejects below
            key = value = None
        if value is None:
            self.validate_meta(xm)
            value = build(xm)
            if key is not None:
                memo[key] = value
        return value

    def _acting_layout(self, xm: MetaComponent) -> _ActingLayout:
        """The memoized :class:`_ActingLayout` of a valid meta component."""
        return self.memoize_per_meta(self._layouts, xm, self._build_layout)

    def _build_layout(self, xm: MetaComponent) -> _ActingLayout:
        acting = [v for v in self.variables if self.is_acting(v.id, xm)]
        categorical = tuple((v.id, v.scope) for v in acting
                            if v.type in GROUPS["categorical"])
        standard = tuple((v.id, v.scope) for v in acting if v.type in GROUPS["standard"])
        return _ActingLayout(
            groups=MappingProxyType({name: tuple(v.id for v in acting if v.type in types)
                                     for name, types in GROUPS.items()}),
            categorical=categorical, standard=standard,
            categorical_ids=frozenset(vid for vid, _ in categorical),
            standard_ids=frozenset(vid for vid, _ in standard))

    def acting_index_set(self, xm: MetaComponent, group: str):
        """Ids of acting variables of the given type group, declaration order."""
        if group not in GROUPS:
            raise ValueError(f"unknown variable group {group!r}; expected one of {sorted(GROUPS)}")
        return list(self._acting_layout(xm).groups[group])

    def dimension(self, xm: MetaComponent, group: str) -> int:
        return len(self.acting_index_set(xm, group))

    # -- membership -----------------------------------------------------------

    def membership_issues(self, point: Point):
        """Machine-readable reasons ``point`` falls outside the domain (empty if inside)."""
        try:
            layout = self._acting_layout(point.meta)
        except InvalidMetaError as exc:
            return [MembershipIssue("invalid-meta", "meta", str(exc))]
        categorical, standard = point.categorical, point.standard
        # A member holds exactly the acting ids, each inside its scope.
        if (categorical.keys() == layout.categorical_ids
                and standard.keys() == layout.standard_ids
                and all(scope.contains_index(categorical[vid])
                        for vid, scope in layout.categorical)
                and all(scope.contains_value(standard[vid])
                        for vid, scope in layout.standard)):
            return []
        issues = []
        for vid in point.categorical:
            if vid not in self._by_id:
                issues.append(MembershipIssue("unknown", vid, "not a declared variable"))
            elif self._by_id[vid].type not in GROUPS["categorical"]:
                issues.append(MembershipIssue(
                    "component", vid, "not a categorical variable but present in the "
                    "categorical component"))
        for vid in point.standard:
            if vid not in self._by_id:
                issues.append(MembershipIssue("unknown", vid, "not a declared variable"))
            elif self._by_id[vid].type not in GROUPS["standard"]:
                issues.append(MembershipIssue(
                    "component", vid, "not a standard variable but present in the "
                    "standard component"))
        for v in self.variables:
            if v.type.is_meta:
                continue
            if v.type in GROUPS["categorical"]:
                component, acting_ids = categorical, layout.categorical_ids
            else:
                component, acting_ids = standard, layout.standard_ids
            present = v.id in component
            acting = v.id in acting_ids
            if acting and not present:
                issues.append(MembershipIssue("missing", v.id, "acting but absent"))
            elif not acting and present:
                issues.append(MembershipIssue(
                    "nonacting", v.id, "nonacting under the current meta component"))
            elif present:
                value = component[v.id]
                ok = (v.scope.contains_index(value)
                      if v.type in GROUPS["categorical"]
                      else v.scope.contains_value(value))
                if not ok:
                    issues.append(MembershipIssue("scope", v.id, f"value {value!r} outside scope"))
        return issues

    def contains(self, point: Point) -> bool:
        return not self.membership_issues(point)

    # -- enumeration and completion --------------------------------------------

    def enumerate_meta_set(self):
        """All meta components, declaration-order lexicographic.

        A domain without meta variables yields a single empty component.
        Raises NotEnumerableError when a meta-continuous variable is present.
        """
        axes = []
        for mid in self.meta_ids:
            spec = self._by_id[mid]
            if spec.type == VariableType.META_CONTINUOUS:
                raise NotEnumerableError(
                    f"meta-continuous variable {mid!r} makes the meta set non-enumerable")
            if spec.type == VariableType.META_CATEGORICAL:
                axes.append(list(spec.scope.labels))
            else:
                axes.append(list(spec.scope.values()))
        return [MetaComponent(zip(self.meta_ids, combo))
                for combo in itertools.product(*axes)]

    def default_value(self, spec: VariableSpec):
        """Spec default if declared, else the scope midpoint / first category."""
        if spec.default is not None:
            if isinstance(spec.scope, CategoricalScope):
                return spec.scope.index(spec.default)
            return spec.default
        if isinstance(spec.scope, CategoricalScope):
            return 1
        if isinstance(spec.scope, IntegerScope):
            return (spec.scope.lo + spec.scope.hi) // 2
        return (spec.scope.lo + spec.scope.hi) / 2.0

    def complete_point(self, xm: MetaComponent, partial=None) -> Point:
        """Build a full point under ``xm`` from a partial id-to-value map.

        Acting variables take the partial value when given, else the declared
        default, else the scope midpoint (first category for categoricals).
        Partial values for nonacting variables are dropped.  Categorical
        values may be given as labels or 1-based indices.
        """
        self.validate_meta(xm)
        partial = dict(partial or {})
        categorical, standard = {}, {}
        for v in self.variables:
            if v.type.is_meta or not self.is_acting(v.id, xm):
                continue
            if v.type in GROUPS["categorical"]:
                if v.id in partial:
                    value = partial[v.id]
                    index = v.scope.index(value) if isinstance(value, str) else value
                    if not v.scope.contains_index(index):
                        raise ScopeError(f"{v.id!r}: category {value!r} outside scope")
                else:
                    index = self.default_value(v)
                categorical[v.id] = index
            else:
                if v.id in partial:
                    value = _canonical_value(partial[v.id])
                    if not v.scope.contains_value(value):
                        raise ScopeError(f"{v.id!r}: value {value!r} outside scope")
                else:
                    value = self.default_value(v)
                standard[v.id] = value
        return Point(xm, categorical, standard)


def enumerate_domain_points(domain: Domain, limit: int = 1_000_000):
    """Every point of a fully finite domain, declaration-order lexicographic.

    Raises NotEnumerableError when a continuous variable is acting anywhere
    or the enumeration would exceed ``limit`` points.
    """
    points = []
    for xm in domain.enumerate_meta_set():
        if domain.acting_index_set(xm, "continuous"):
            raise NotEnumerableError("continuous variables make the domain non-enumerable")
        axes, ids = [], []
        for vid in domain.acting_index_set(xm, "categorical"):
            ids.append(vid)
            axes.append(range(1, domain.spec(vid).scope.size + 1))
        for vid in domain.acting_index_set(xm, "integer"):
            ids.append(vid)
            axes.append(domain.spec(vid).scope.values())
        branch = 1
        for axis in axes:
            branch *= len(axis)
        if len(points) + branch > limit:
            raise NotEnumerableError(f"domain enumeration exceeds {limit} points")
        cat_ids = set(domain.acting_index_set(xm, "categorical"))
        for combo in itertools.product(*axes):
            assignment = dict(zip(ids, combo))
            points.append(Point(
                xm,
                {k: v for k, v in assignment.items() if k in cat_ids},
                {k: v for k, v in assignment.items() if k not in cat_ids},
            ))
    return points
