"""Global and decreed inequality constraints and feasibility.

Every constraint has the form c(x) <= 0.  Global constraints are always
acting; decreed constraints are acting only when their decree predicate is
satisfied by the meta component.  Analytic bodies are linear expressions over
standard variables; blackbox bodies are read from the evaluation backend.

Each meta component's acting analytic constraints are compiled once into a
plan of ``(id, constant, terms)`` tuples whose terms cover only the acting
standard variables.  One loop, :func:`_linear_value`, evaluates every
linear body: the screen of a whole point, the check of a single poll move
and :meth:`ConstraintSystem.evaluate_analytic` make the same additions in
the same order, so their values agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import (ALWAYS, DecreePredicate, Domain, GROUPS, Membership, Point, Role,
                     Threshold, _canonical_value)
from .errors import (DecreeViolationError, EvaluationError,
                     IncompleteConstraintValuesError, NotEnumerableError, ScopeError)


@dataclass(frozen=True)
class LinearExpression:
    """Sum of coefficient * variable terms plus a constant, compared to <= 0."""

    terms: tuple          # ((coefficient, variable_id), ...)
    constant: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           tuple((float(c), str(v)) for c, v in self.terms))
        object.__setattr__(self, "constant", float(self.constant))

    def referenced_ids(self):
        return [v for _, v in self.terms]


@dataclass(frozen=True)
class BlackboxOutput:
    """Constraint value produced by the blackbox, keyed by constraint id."""


@dataclass(frozen=True)
class ConstraintSpec:
    id: str
    role: Role
    body: object
    decree: DecreePredicate = ALWAYS

    def __post_init__(self):
        if self.role == Role.META:
            raise ScopeError(f"constraint {self.id!r}: constraints are global or decreed")
        if (self.role == Role.DECREED) == self.decree.always:
            raise ScopeError(
                f"constraint {self.id!r}: decreed constraints need a nonempty decree, "
                "global ones an empty one")

    @property
    def analytic(self) -> bool:
        return isinstance(self.body, LinearExpression)


class ConstraintSystem:
    """All constraints of a problem, validated against a domain.

    The constraints are immutable after construction.  The acting
    constraints of each meta component, and the plan of its acting analytic
    ones, are memoized as immutable tuples, filled idempotently (a racing
    thread stores an equal value), so a system is safe to share across
    threads.
    """

    def __init__(self, domain: Domain, constraints=()):
        self.domain = domain
        self.constraints = tuple(constraints)
        seen = set()
        for c in self.constraints:
            if c.id in seen or c.id in domain:
                raise ScopeError(f"constraint id {c.id!r} collides with another id")
            seen.add(c.id)
        self._validate()
        self._acting = {}

    def _validate(self):
        meta = set(self.domain.meta_ids)
        for c in self.constraints:
            for atom in c.decree.atoms:
                if atom.meta_id not in meta:
                    raise ScopeError(
                        f"constraint {c.id!r}: decree references {atom.meta_id!r}, "
                        "which is not a meta variable")
            if not c.analytic:
                continue
            for vid in c.body.referenced_ids():
                spec = self.domain.spec(vid)
                if spec.type not in GROUPS["standard"]:
                    raise ScopeError(
                        f"constraint {c.id!r}: analytic bodies may only reference "
                        f"integer/continuous variables, not {vid!r}")
            if c.role == Role.DECREED:
                self._check_co_acting(c)

    def _check_co_acting(self, c: ConstraintSpec):
        """A decreed analytic constraint must only reference variables that are
        acting whenever its own predicate holds."""
        try:
            metas = self.domain.enumerate_meta_set()
        except NotEnumerableError:
            metas = None
        if metas is not None:
            for xm in metas:
                if not self.domain.decree_satisfied(c.decree, xm):
                    continue
                for vid in c.body.referenced_ids():
                    if not self.domain.is_acting(vid, xm):
                        raise ScopeError(
                            f"constraint {c.id!r}: references {vid!r}, nonacting under "
                            f"{dict(xm)}")
            return
        # Non-enumerable meta set: fall back to a syntactic implication check
        # (every atom of the variable's decree must be implied by one of the
        # constraint's atoms).
        for vid in c.body.referenced_ids():
            spec = self.domain.spec(vid)
            if spec.role != Role.DECREED:
                continue
            for needed in spec.decree.atoms:
                if not any(_implies(have, needed) for have in c.decree.atoms):
                    raise ScopeError(
                        f"constraint {c.id!r}: cannot establish that {vid!r} is acting "
                        "whenever the constraint is")

    # -- queries ---------------------------------------------------------------

    def _acting_tuples(self, xm):
        """(acting constraints, acting decreed constraints, plan of the acting
        analytic constraints) of a valid ``xm``."""
        return self.domain.memoize_per_meta(self._acting, xm, self._build_acting)

    def _build_acting(self, xm):
        acting = tuple(c for c in self.constraints if c.role == Role.GLOBAL
                       or self.domain.decree_satisfied(c.decree, xm))
        standard = frozenset(self.domain.acting_index_set(xm, "standard"))
        return (acting, tuple(c for c in acting if c.role == Role.DECREED),
                tuple(_compile(c, standard) for c in acting if c.analytic))

    def acting_decreed_constraints(self, xm):
        """Decreed constraints whose predicate ``xm`` satisfies, declaration order."""
        return list(self._acting_tuples(xm)[1])

    def acting_constraints(self, xm):
        """Globals plus acting decreed constraints, declaration order."""
        return list(self._acting_tuples(xm)[0])

    # -- evaluation --------------------------------------------------------------

    def evaluate_analytic(self, spec: ConstraintSpec, point: Point) -> float:
        """Value of a linear constraint body at a point.

        Terms over nonacting variables contribute nothing for global
        constraints (the sum adapts to the acting set).  Evaluating a decreed
        constraint where it is nonacting is a decree violation.  A spec in the
        memoized acting list of ``point.meta`` skips the decree check; any
        other spec, such as one built outside this system, is checked.
        """
        if not spec.analytic:
            raise ScopeError(f"constraint {spec.id!r} has no analytic body")
        if (spec.role == Role.DECREED
                and spec not in self._acting_tuples(point.meta)[1]
                and not self.domain.decree_satisfied(spec.decree, point.meta)):
            raise DecreeViolationError(
                f"constraint {spec.id!r} is nonacting under {dict(point.meta)}")
        _, constant, terms = _compile(spec, point.standard)
        return _linear_value(constant, terms, point.standard)

    def screen(self, point: Point):
        """(value of every acting analytic constraint by id, all values <= 0)
        at a domain member, in one walk of its meta component's plan: the
        a priori part of :meth:`evaluate_acting`, known before any backend
        call."""
        standard = point.standard
        values = {cid: _linear_value(constant, terms, standard)
                  for cid, constant, terms in self._acting_tuples(point.meta)[2]}
        return values, all(v <= 0.0 for v in values.values())  # NaN is infeasible

    def move_breaks(self, center: Point, vid: str, value) -> bool:
        """Whether ``center.moved(vid, value)`` breaks an acting analytic
        constraint, that is whether :meth:`screen` would call it infeasible,
        computed from the plan of ``center.meta`` without building the point.

        Assumes what a poll guarantees: ``center`` is a domain member that
        was settled, and ``value`` was clamped into the scope of its
        standard variable ``vid``, so the moved point is a member too.  Any
        other point must go through the evaluator, which checks membership
        first.
        """
        standard = {**center.standard, vid: _canonical_value(value)}
        for _, constant, terms in self._acting_tuples(center.meta)[2]:
            if not _linear_value(constant, terms, standard) <= 0.0:  # NaN breaks
                return True
        return False

    def evaluate_acting(self, point: Point, blackbox_values):
        """(value of every acting constraint by id, all values <= 0) at a domain
        member, in one walk of its memoized acting list, so with no decree
        check; blackbox bodies are read from ``blackbox_values`` (floats),
        analytic ones from :meth:`screen`."""
        analytic = self.screen(point)[0]
        values = {}
        for spec in self._acting_tuples(point.meta)[0]:
            if spec.analytic:
                values[spec.id] = analytic[spec.id]
            elif spec.id in blackbox_values:
                values[spec.id] = blackbox_values[spec.id]
            else:
                raise EvaluationError(
                    f"backend returned no value for acting constraint {spec.id!r}")
        return values, all(v <= 0.0 for v in values.values())  # NaN is infeasible

    def is_feasible(self, point: Point, values) -> bool:
        """True iff every acting constraint value is <= 0, exactly (no tolerance)."""
        for c in self.acting_constraints(point.meta):
            if c.id not in values:
                raise IncompleteConstraintValuesError(
                    f"missing value for acting constraint {c.id!r}")
            if not values[c.id] <= 0.0:  # NaN is infeasible
                return False
        return True


def _compile(spec: ConstraintSpec, standard):
    """``(id, constant, terms)`` of a linear body, keeping the terms over the
    ids in ``standard`` in body order; a decreed body must cover none other.

    A global body drops its terms over nonacting variables: the sum adapts
    to the acting set.
    """
    terms = []
    for coefficient, vid in spec.body.terms:
        if vid in standard:
            terms.append((coefficient, vid))
        elif spec.role == Role.DECREED:
            raise DecreeViolationError(
                f"constraint {spec.id!r}: referenced variable {vid!r} is nonacting")
    return spec.id, spec.body.constant, tuple(terms)


def _linear_value(constant: float, terms, standard) -> float:
    """The value of compiled terms over a standard map that holds their ids."""
    value = constant
    for coefficient, vid in terms:
        value += coefficient * standard[vid]
    return value


def _implies(have, needed) -> bool:
    if have.meta_id != needed.meta_id:
        return False
    if isinstance(have, Threshold) and isinstance(needed, Threshold):
        return have.minimum >= needed.minimum
    if isinstance(have, Membership) and isinstance(needed, Membership):
        have_set = set(a for a in have.allowed if not isinstance(a, tuple))
        needed_set = set(a for a in needed.allowed if not isinstance(a, tuple))
        if any(isinstance(a, tuple) for a in have.allowed + needed.allowed):
            return False
        return have_set <= needed_set
    return False
