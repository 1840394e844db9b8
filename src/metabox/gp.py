"""Mixed-variable Gaussian process surrogate.

The covariance is assembled per variable: squared-exponential factors for
continuous variables, the same with a rounding transform for integers,
compound-symmetry matrices for nominal variables, index-based
squared-exponential factors for ordinals, and one-dimensional kernels per
meta variable.  Categorical and standard factors only apply to point pairs
sharing the same meta component; pairs with different meta components are
correlated through the meta factors alone.

Standard and meta inputs are range-normalized to [0, 1] per scope before any
kernel evaluation, so weight bounds are scale-free.

A point's features, its meta values and whether and at what value each
other variable acts, are extracted once, by :meth:`SampleFeatures.append`,
into one float64 row per variable.  The training points live in a
:class:`TrainingSet`, which grows by appends: each new point appends its
features and one row of pair tensors against the points before it, and
nothing is rebuilt.  The hyperparameter fit and the model both read the
set; a run keeps one set and also draws the fit's start parameters once,
in its first fit.  A model keeps the set's first n feature rows as they
are when it is built.  Cross-covariances with new points come from
:class:`PairTensors` of those rows against the new points' rows, and in
the acquisition from :class:`CrossFactors`, which reads the rows of the
samples under one meta component and that component's meta row.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.linalg import lapack

from .domain import (Domain, GROUPS, MetaComponent, VariableType, _is_real,
                     check_counts, normalize)
from .errors import FactorizationError, FittingError, KernelDomainError

JITTER_FRACTION = 1e-8
MAX_JITTER_FRACTION = 1e-2

WEIGHT_BOUNDS = (1e-3, 1e3)
CORRELATION_BOUNDS = (0.0, 0.99)
LENGTHSCALE_BOUNDS = (1e-2, 1e2)

#: Per config table: its kind ("log": a positive value the fit moves in log
#: space; "raw": a correlation in [0, 1) moved in raw space), the fit's
#: bounds and the default value of an entry.  Default cross-meta couplings
#: are kept weak: pairs with different meta components are correlated
#: through the meta factors alone, without the categorical/standard damping,
#: so large meta correlations can make the piecewise kernel indefinite.
#: Fitting may raise them only while the likelihood stays factorizable.
_SLOT_TABLES = {
    "continuous_weights": ("log", WEIGHT_BOUNDS, 1.0),
    "integer_weights": ("log", WEIGHT_BOUNDS, 1.0),
    "meta_weights": ("log", WEIGHT_BOUNDS, 2.0),
    "ordinal_lengthscales": ("log", LENGTHSCALE_BOUNDS, 1.0),
    "nominal_correlations": ("raw", CORRELATION_BOUNDS, 0.5),
    "meta_correlations": ("raw", CORRELATION_BOUNDS, 0.1),
}

_MATRIX_TABLES = {
    VariableType.META_CATEGORICAL: "meta_correlations",
    VariableType.META_INTEGER: "meta_weights",
    VariableType.META_CONTINUOUS: "meta_weights",
    VariableType.NOMINAL: "nominal_correlations",
    VariableType.ORDINAL: "ordinal_lengthscales",
    VariableType.INTEGER: "integer_weights",
    VariableType.CONTINUOUS: "continuous_weights",
}


@dataclass
class KernelConfig:
    """Hyperparameters of the mixed kernel.

    Weights are positive squared-exponential coefficients keyed by variable
    id.  Each nominal variable carries a compound-symmetry off-diagonal
    correlation in [0, 1) and each ordinal variable a positive lengthscale
    on its level index.  Weights, lengthscales and the signal variance are
    finite.
    """

    continuous_weights: dict = field(default_factory=dict)
    integer_weights: dict = field(default_factory=dict)
    nominal_correlations: dict = field(default_factory=dict)
    ordinal_lengthscales: dict = field(default_factory=dict)
    meta_correlations: dict = field(default_factory=dict)
    meta_weights: dict = field(default_factory=dict)
    signal_variance: float = 1.0

    def __post_init__(self):
        for table, (kind, _, _) in _SLOT_TABLES.items():
            for key, value in getattr(self, table).items():
                if kind == "log" and not (_is_real(value) and 0 < value < math.inf):
                    raise KernelDomainError(
                        f"{table}[{key!r}] must be a positive number, got {value!r}")
                if kind == "raw" and not (_is_real(value) and 0.0 <= value < 1.0):
                    raise KernelDomainError(
                        f"{table}[{key!r}] must be a number in [0, 1), got {value!r}")
        if not (_is_real(self.signal_variance) and 0 < self.signal_variance < math.inf):
            raise KernelDomainError(
                f"signal variance must be a positive number, got {self.signal_variance!r}")

    @property
    def jitter(self) -> float:
        return JITTER_FRACTION * self.signal_variance

    def to_dict(self) -> dict:
        return asdict(self)


def default_kernel_config(domain: Domain, *, overrides=None) -> KernelConfig:
    """The default config of the kernel on ``domain``, with the entries of
    ``overrides``, a partial serialized config, in place of the defaults.  An
    override table or variable id that the default config lacks is rejected."""
    tables = {table: {} for table in _SLOT_TABLES}
    for v in domain.variables:
        table = _MATRIX_TABLES[v.type]
        tables[table][v.id] = _SLOT_TABLES[table][2]
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise KernelDomainError(f"kernel overrides must be an object, got {overrides!r}")
    for table, entries in overrides.items():
        if table == "signal_variance":
            continue
        known = tables.get(table)
        if known is None or not (isinstance(entries, dict) and entries.keys() <= known.keys()):
            raise KernelDomainError(f"kernel override {table}={entries!r} must map ids of "
                                    "a table of the default config to values")
        known.update(entries)
    return KernelConfig(**tables, signal_variance=overrides.get("signal_variance", 1.0))


# ---------------------------------------------------------------------------
# Per-sample features and pair tensors (Gram matrices, batched prediction)
# ---------------------------------------------------------------------------

class SampleFeatures:
    """Per-sample kernel inputs, grown by appends.

    Every row is float64 with one entry per sample; category indices are
    exact in it.  ``meta`` holds one row per meta variable, in
    :func:`_meta_slots` order (``slots``): range-normalized values for a
    numeric meta variable, category indices for a meta-categorical one.
    ``values`` and ``acting`` hold one row per non-meta variable, in
    declaration order (``specs``; ``row_of`` maps an id to its row):
    whether the variable acts in each sample, and the samples' values, 0
    where it does not act: range-normalized for a standard variable,
    category indices for a categorical one.  ``codes`` maps each meta
    component to its code, in code order, and ``which_meta`` holds each
    sample's code.

    :meth:`append` is the one extraction of a point's features; a store of
    ``points`` is their appends.  A sample once appended never changes, so
    a :meth:`prefix` stays as it is whatever is appended later.
    """

    def __init__(self, domain: Domain, points=()):
        self.slots = _meta_slots(domain)
        self.specs = [spec for spec in domain.variables if not spec.type.is_meta]
        self.row_of = {spec.id: k for k, spec in enumerate(self.specs)}
        self._meta_scopes = [domain.spec(mid).scope for _, mid in self.slots]
        self._categorical = [spec.type in GROUPS["categorical"] for spec in self.specs]
        self._integer = np.array([spec.type == VariableType.INTEGER for spec in self.specs],
                                 dtype=bool)
        # A category index is its own unit value: lower bound 0, width 1.
        self._lo, self._width = np.array(
            [(0, 1) if categorical else (spec.scope.lo, spec.scope.width)
             for spec, categorical in zip(self.specs, self._categorical)],
            dtype=float).reshape(-1, 2).T
        self.n = 0
        self.codes = {}
        self._which = np.zeros(0, dtype=int)
        self._meta = np.zeros((len(self.slots), 0))
        self._values = np.zeros((len(self.specs), 0))
        self._acting = np.zeros((len(self.specs), 0), dtype=bool)
        for point in points:
            self.append(point)

    @property
    def which_meta(self) -> np.ndarray:
        return self._which[:self.n]

    @property
    def meta(self) -> np.ndarray:
        return self._meta[:, :self.n]

    @property
    def values(self) -> np.ndarray:
        return self._values[:, :self.n]

    @property
    def acting(self) -> np.ndarray:
        return self._acting[:, :self.n]

    def meta_row(self, meta: MetaComponent) -> np.ndarray:
        """The meta values of the meta component ``meta``, one per slot."""
        return np.array([scope.index(meta[mid]) if table == "meta_correlations"
                         else normalize(scope, meta[mid])
                         for (table, mid), scope in zip(self.slots, self._meta_scopes)],
                        dtype=float)

    def append(self, point) -> int:
        """Append ``point``'s features and return the code of its meta
        component.  A non-finite feature is a ValueError, and the store is
        left as it was."""
        raw = [(point.categorical if categorical else point.standard).get(spec.id)
               for spec, categorical in zip(self.specs, self._categorical)]
        acting = np.array([v is not None for v in raw], dtype=bool)
        values = np.where(acting, _unit_values(self._integer, self._lo, self._width, np.array(
            [0 if v is None else v for v in raw], dtype=float)), 0.0)
        meta = self.meta_row(point.meta)
        _require_finite(values, meta)
        code = self.codes.setdefault(point.meta, len(self.codes))
        n = self.n
        self._which = _grown(self._which, n + 1)
        self._meta = _grown(self._meta, n + 1)
        self._values = _grown(self._values, n + 1)
        self._acting = _grown(self._acting, n + 1)
        self._which[n], self._meta[:, n] = code, meta
        self._values[:, n], self._acting[:, n] = values, acting
        self.n = n + 1
        return code

    def prefix(self, n: int) -> "SampleFeatures":
        """The first ``n`` samples, frozen: its rows are views of entries
        that appends never rewrite, and an append to either store leaves
        the other as it is."""
        frozen = copy.copy(self)
        frozen.n = n
        frozen._which, frozen._meta, frozen._values, frozen._acting = (
            self._which[:n], self._meta[:, :n], self._values[:, :n], self._acting[:, :n])
        count = frozen._which.max() + 1 if n else 0
        frozen.codes = {meta: k for meta, k in self.codes.items() if k < count}
        return frozen


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` with room for ``size`` entries along its last axis: itself
    when it has it, else a copy with at least twice the room."""
    if array.shape[-1] >= size:
        return array
    grown = np.zeros((*array.shape[:-1], max(size, 2 * array.shape[-1], 16)), array.dtype)
    grown[..., :array.shape[-1]] = array
    return grown


def _meta_slots(domain: Domain):
    """(config table, meta id) of each meta factor, in product order:
    numeric meta variables first, then categorical ones."""
    return sorted(((_MATRIX_TABLES[domain.spec(mid).type], mid) for mid in domain.meta_ids),
                  key=lambda slot: slot[0] == "meta_correlations")


def round_half_away_array(x: np.ndarray) -> np.ndarray:
    """:func:`~metabox.domain.round_half_away` elementwise, as floats.
    Adding 0.0 turns ceil's -0.0 into 0."""
    return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5)) + 0.0


def _unit_values(integer, lo, width, raw: np.ndarray) -> np.ndarray:
    """Range-normalized standard values, elementwise: (raw - lo) / width, or 0
    where the width is 0.  Integer values, where ``integer`` holds, are
    first rounded half away from zero.  ``integer``, ``lo`` and ``width``
    are scalars or arrays shaped like ``raw``."""
    if np.any(integer):
        raw = np.where(integer, round_half_away_array(raw), raw)
    return np.divide(raw - lo, width, out=np.zeros(np.shape(raw)),
                     where=np.asarray(width) != 0)


def _pair_tensor(table: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pair tensor of one factor from two sets' values of its variable:
    whether the categories differ (correlation tables), or the squared
    difference."""
    if _SLOT_TABLES[table][0] == "raw":
        return a[:, None] != b[None, :]
    return (a[:, None] - b[None, :]) ** 2


class PairTensors:
    """The kernel's factors between two feature sets, before any
    hyperparameter.

    ``slots`` holds one (config table, key, pair tensor, mask) per factor,
    in product order: meta-numeric factors, meta-categorical factors, then
    the non-meta variables in declaration order.  Each factor is the kernel
    of one variable and depends on exactly one hyperparameter.  A non-meta
    factor is 1 outside its ``mask``, the pairs that share a meta component
    and where the variable acts in both samples; a meta factor has no mask
    (None).  Building these once makes every kernel-hyperparameter
    evaluation a handful of elementwise array operations.
    """

    def __init__(self, domain: Domain, fa: SampleFeatures, fb: SampleFeatures):
        self.shape = (fa.n, fb.n)
        codes = {}
        code_a = np.array([codes.setdefault(m, len(codes)) for m in fa.codes], dtype=int)
        code_b = np.array([codes.setdefault(m, len(codes)) for m in fb.codes], dtype=int)
        self.same_meta = code_a[fa.which_meta][:, None] == code_b[fb.which_meta][None, :]
        self.slots = [(table, mid, _pair_tensor(table, a, b), None)
                      for (table, mid), a, b in zip(fa.slots, fa.meta, fb.meta)]
        # A variable nonacting in every sample of either set has a factor of
        # exactly 1 everywhere, so it gets no slot.
        for spec, acting_a, acting_b, a, b in zip(fa.specs, fa.acting, fb.acting,
                                                  fa.values, fb.values):
            if acting_a.any() and acting_b.any():
                table = _MATRIX_TABLES[spec.type]
                mask = self.same_meta & acting_a[:, None] & acting_b[None, :]
                self.slots.append((table, spec.id, _pair_tensor(table, a, b), mask))


#: How a factor's pair tensor and hyperparameter make the factor, per kind:
#: a correlation where the categories differ, exp(tensor / -(2 l^2)) for an
#: ordinal lengthscale l, exp(tensor * -w) for a weight w.
_CORRELATION, _LENGTHSCALE, _WEIGHT = range(3)


def _kind(table: str) -> int:
    if _SLOT_TABLES[table][0] == "raw":
        return _CORRELATION
    return _LENGTHSCALE if table == "ordinal_lengthscales" else _WEIGHT


def _operand(kind: int, value):
    """The scalar a factor of ``kind`` applies to its tensor at ``value``.
    Computed from the value alone, in Python for a Python float, so a factor
    has the same bits however many values are evaluated at once."""
    if kind == _CORRELATION:
        return value
    return -(2.0 * value ** 2) if kind == _LENGTHSCALE else -value


def _fill_factor(kind: int, tensor: np.ndarray, operand, out: np.ndarray):
    """Write the factor of ``kind`` into ``out``, a C-ordered array that
    ``tensor`` and ``operand`` broadcast to; a correlation is written only
    where the categories differ, so ``out`` must hold 1 elsewhere.  The
    elementwise operations of every factor the kernel takes."""
    if kind == _CORRELATION:
        np.copyto(out, operand, where=tensor)
        return
    (np.divide if kind == _LENGTHSCALE else np.multiply)(tensor, operand, out=out)
    np.exp(out, out=out)


def _correlation_factor(table: str, value, tensor: np.ndarray) -> np.ndarray:
    """One correlation factor, with the hyperparameter at ``value``, on the
    entries of its pair tensor: squared distances, or for correlation
    tables whether the two samples' categories differ."""
    kind = _kind(table)
    out = np.ones(np.shape(tensor))
    _fill_factor(kind, tensor, _operand(kind, value), out)
    return out


def _config_value(config: KernelConfig, table: str, key):
    """The entry ``key`` of one of ``config``'s tables; a missing entry is a
    :class:`KernelDomainError`."""
    try:
        return getattr(config, table)[key]
    except KeyError:
        raise KernelDomainError(f"the config has no {table} entry for {key!r}") from None


def _masked_factors(slots, config: KernelConfig):
    """Yield the factors of :func:`correlation_matrix` on ``slots``, in their
    order: each slot's correlation factor, set to 1 outside its mask."""
    for table, key, tensor, mask in slots:
        factor = _correlation_factor(table, _config_value(config, table, key), tensor)
        yield factor if mask is None else np.where(mask, factor, 1.0)


def _product(factors, shape) -> np.ndarray:
    """The factors multiplied one after another into a new C-ordered array."""
    out = np.ones(shape)
    for factor in factors:
        out *= factor
    return out


def correlation_matrix(pairs: PairTensors, config: KernelConfig) -> np.ndarray:
    """Kernel matrix without the signal variance factor."""
    return _product(_masked_factors(pairs.slots, config), pairs.shape)


# ---------------------------------------------------------------------------
# Training set
# ---------------------------------------------------------------------------

class _PairGroup:
    """One group of a training set's strict lower-triangle entries, with the
    pair tensor of each of its factors on them.

    ``factors`` holds the group's (config table, key) in the order
    :func:`correlation_matrix` multiplies them.  Entry e is the pair
    (``rows[e]``, ``cols[e]``), rows > cols; ``tensors[k, e]`` is factor k's
    tensor there as a float, 1.0 or 0.0 for whether the categories differ,
    and neutral (0) where the factor is exactly 1.  ``support[k]`` holds when
    factor k is not exactly 1 on every entry, and ``present[k]`` when
    :class:`PairTensors` of the set with itself has a slot for it, so that
    evaluating the kernel needs its hyperparameter.
    """

    def __init__(self, factors, present: bool):
        self.factors = factors
        self.kinds = [_kind(table) for table, _ in factors]
        self.correlation = np.array([k == _CORRELATION for k in self.kinds], dtype=bool)
        self.size = 0
        self._pairs = np.zeros((2, 0), dtype=int)
        self._tensors = np.zeros((len(factors), 0))
        self.support = np.zeros(len(factors), dtype=bool)
        self.present = np.full(len(factors), present)

    @property
    def rows(self) -> np.ndarray:
        return self._pairs[0, :self.size]

    @property
    def cols(self) -> np.ndarray:
        return self._pairs[1, :self.size]

    @property
    def tensors(self) -> np.ndarray:
        return self._tensors[:, :self.size]

    def append(self, row: int, cols: np.ndarray, tensors: np.ndarray):
        """Add the pairs (``row``, ``cols[j]``) with factor tensors
        ``tensors[:, j]``.  Entries already held never change, so views of
        them stay valid."""
        end = self.size + len(cols)
        self._pairs = _grown(self._pairs, end)
        self._tensors = _grown(self._tensors, end)
        self._pairs[0, self.size:end] = row
        self._pairs[1, self.size:end] = cols
        self._tensors[:, self.size:end] = tensors
        self.size = end

    def supported(self):
        """(k, kind, tensor) of each factor with support, in product order:
        a correlation's tensor as booleans, any other's as a view."""
        return [(k, self.kinds[k], tensor != 0 if self.correlation[k] else tensor)
                for k, tensor in enumerate(self.tensors) if self.support[k]]

    def products(self, factors, operands: np.ndarray):
        """The product of the supported ``factors`` on every entry, one row
        per row of ``operands`` ((rows, len(factors)) operands), and the
        (len(factors), rows, size) factors it multiplied: 1 without any."""
        block = np.ones((len(factors), len(operands), self.size))
        for j, (_, kind, tensor) in enumerate(factors):
            _fill_factor(kind, tensor, operands[:, j:j + 1], block[j])
        return np.multiply.reduce(block, axis=0), block


class TrainingSet(Sequence):
    """Evaluated points, kept with everything the kernel needs of them before
    any hyperparameter, grown by appends.

    It holds the points' :attr:`features`, one :class:`SampleFeatures` that
    every append extends, and the strict lower triangle's pair tensors in
    two groups (:class:`_PairGroup`):

    - the meta group, on pairs with different meta components, holds the
      meta factors: every other factor is exactly 1 there;
    - the non-meta group, on same-meta pairs, holds every other factor, each
      exactly 1 off the pairs where its variable acts in both samples: every
      meta factor is exactly 1 there.

    Row-major, the lower triangle of n + 1 points is that of n points
    followed by row n, and each group keeps its pairs in that order, so an
    appended point only appends the row's pairs to each group, computed
    from the feature rows: O(n) work, none of it redone later.
    :func:`fit_hyperparameters`, :class:`GPModel` and
    :func:`log_marginal_likelihood` take a set wherever they take points; a
    set is a sequence of its points.  The fit's start parameters depend only
    on the domain, the base config and the seed, so the set also keeps the
    last ones drawn, and a run that fits the set it grows draws them once.
    """

    def __init__(self, domain: Domain, points=()):
        self.domain = domain
        self.points = []
        self.features = SampleFeatures(domain)
        self.groups = (
            _PairGroup(self.features.slots, True),
            _PairGroup([(_MATRIX_TABLES[spec.type], spec.id) for spec in self.features.specs],
                       False))
        self._starts = None
        self.extend(points)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, index):
        return self.points[index]

    def __iter__(self):
        return iter(self.points)

    def extend(self, points):
        for point in points:
            self._append(point)

    def _append(self, point):
        features, n = self.features, len(self.points)
        code = features.append(point)
        same = features.which_meta[:n] == code
        acting = features.acting
        for group, rows, cols in ((self.groups[0], features.meta, np.flatnonzero(~same)),
                                  (self.groups[1], features.values, np.flatnonzero(same))):
            if not len(cols):
                continue
            # (a - b) ** 2 squares as a * a does; a category index is exact.
            difference = rows[:, n, None] - rows[:, cols]
            tensors = np.where(group.correlation[:, None], difference != 0,
                               difference * difference)
            if group is self.groups[1]:
                both = acting[:, n, None] & acting[:, cols]
                tensors[~both] = 0.0
                group.support |= both.any(axis=1)
            else:
                group.support[:] = True
            group.append(n, cols, tensors)
        self.groups[1].present |= acting[:, n]
        self.points.append(point)

    def gram(self, config: KernelConfig) -> np.ndarray:
        """The kernel matrix of the points, bit-identical to the signal
        variance times :func:`correlation_matrix` of the points with
        themselves: each group's product scattered symmetrically, and the
        signal variance on the diagonal, where every factor is 1."""
        n, variance = len(self), config.signal_variance
        gram = np.empty((n, n))
        gram.flat[::n + 1] = variance * 1.0
        for group in self.groups:
            # Every factor PairTensors would hold needs its entry, supported
            # or not: a missing one is a KernelDomainError.
            values = {k: _config_value(config, *group.factors[k])
                      for k in np.flatnonzero(group.present)}
            factors = group.supported()
            operands = np.array([[_operand(kind, values[k]) for k, kind, _ in factors]],
                                dtype=float)
            lower = variance * group.products(factors, operands)[0][0]
            gram[group.rows, group.cols] = lower
            gram[group.cols, group.rows] = lower
        return gram

    def fit_starts(self, base: KernelConfig | None, seed: int, starts: int):
        """The fit's (slots, start parameter vectors) for ``base``, ``seed``
        and ``starts``: drawn by :func:`_fit_starts` when they differ from the
        last call's arguments, else the last ones."""
        key = (seed, starts, None if base is None else
               [tuple(getattr(base, table).items()) for table in _SLOT_TABLES])
        if self._starts is None or self._starts[0] != key:
            self._starts = (key, _fit_starts(self.domain, base, seed, starts))
        return self._starts[1]


def _training_set(domain: Domain, points) -> TrainingSet:
    """``points`` itself when it is a training set on ``domain``, else a
    new set of them."""
    if isinstance(points, TrainingSet) and points.domain is domain:
        return points
    return TrainingSet(domain, points)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def _require_finite(*arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _cholesky(matrix: np.ndarray):
    """Lower Cholesky factor of ``matrix``, or None when it is not numerically
    positive definite.

    LAPACK potrf reads and writes only the lower triangle; the upper one is
    left as it was.  Called directly: cho_factor wraps the same routine in
    costly checks.
    """
    factor, info = lapack.dpotrf(matrix, lower=1, clean=0)
    return None if info else factor


def _factorize(matrix: np.ndarray, signal_variance: float, jitter: float | None = None):
    """Lower Cholesky factor with jitter escalation (x10 up to the ceiling
    fraction), and the jitter used.  The first jitter tried is ``jitter``,
    by default the base fraction of the signal variance."""
    _require_finite(matrix)
    if jitter is None:
        jitter = JITTER_FRACTION * signal_variance
    eye = np.eye(matrix.shape[0])
    while True:
        factor = _cholesky(matrix + jitter * eye)
        if factor is not None:
            return factor, jitter
        jitter *= 10.0
        if jitter > MAX_JITTER_FRACTION * signal_variance * (1 + 1e-12):
            raise FactorizationError(
                "kernel matrix stayed indefinite up to the jitter ceiling")


def _cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K^-1 b from the lower Cholesky factor of K.

    LAPACK potrs, the routine linalg.cho_solve calls, without the wrapper,
    which costs more than the solve itself at acquisition batch sizes.
    """
    return lapack.dpotrs(factor, b, lower=1)[0]


def _forward_solve(factor: np.ndarray, b: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """L^-1 b from the lower Cholesky factor L: LAPACK trtrs, one triangular
    solve, which reads only the lower triangle.  With ``overwrite`` a
    Fortran-ordered ``b`` is solved in place."""
    return lapack.dtrtrs(factor, b, lower=1, overwrite_b=overwrite)[0]


def _columns(kappa: np.ndarray):
    """``kappa`` C-ordered with at least two columns, and its column count.

    Sums over the training samples run row by row (axis 0), which gives
    every column the same bits whatever else the batch holds; numpy would
    sum a lone column, or the columns of a Fortran-ordered array, pairwise,
    so one point is predicted as two copies.
    """
    kappa = np.ascontiguousarray(kappa)
    count = kappa.shape[1]
    if count == 1:
        kappa = np.repeat(kappa, 2, axis=1)
    return kappa, count


class GPModel:
    """Noise-free zero-mean GP conditioned on evaluated points.

    Immutable once constructed; fitting hyperparameters happens separately in
    :func:`fit_hyperparameters`.  ``points`` may be a :class:`TrainingSet`,
    and a list of points is put in a new one: the Gram matrix is the
    set's :meth:`~TrainingSet.gram` and the features are the
    :meth:`~SampleFeatures.prefix` of the set's features at its size, so a
    run that grows one set builds neither from scratch.  The model keeps
    the points and features as they are when it is built, whatever the set
    appends later.  :meth:`row_view` conditions further outputs on subsets
    of the same training points, predicted from the same cross-covariance.
    """

    def __init__(self, domain: Domain, points, values, config: KernelConfig):
        if len(points) != len(values) or not points:
            raise ValueError("need matching, nonempty points and values")
        self.domain = domain
        self.config = config
        self.points = list(points)
        self.values = np.asarray(values, dtype=float)
        _require_finite(self.values)
        train = _training_set(domain, points)
        self._features = train.features.prefix(len(train))
        self._gram = train.gram(config)
        self._factor, self.jitter = _factorize(self._gram, config.signal_variance)
        self.alpha = _cho_solve(self._factor, self.values)

    def __len__(self):
        return len(self.points)

    def cross_covariance(self, points) -> np.ndarray:
        """kappa matrix of shape (n_train, len(points)) of Points."""
        pairs = PairTensors(self.domain, self._features, SampleFeatures(self.domain, points))
        return self.config.signal_variance * correlation_matrix(pairs, self.config)

    def row_view(self, rows, values) -> "RowView":
        """A GP on the training points at the indices ``rows``, with its own
        ``values``; its means come from :meth:`predict_batch`."""
        return RowView(self, rows, values)

    def predict_batch(self, points, outputs=None):
        """Posterior means and variances; each point's values do not depend on
        the rest of the batch.

        With ``outputs``, a sequence of this model's row views, also returns
        their posterior means as a (len(outputs), n) array, computed from the
        same cross-covariance.  The acquisition predicts through
        :meth:`CrossFactors.predict` instead, which gives the same values up
        to rounding.

        The variance takes one triangular solve, ``v = L^-1 kappa``, and is
        ``s^2 - sum(v^2)`` over the training samples, clamped at 0.
        """
        kappa, count = _columns(self.cross_covariance(points))
        mean = np.sum(kappa * self.alpha[:, None], axis=0)
        # kappa^T K^-1 kappa = |v|^2 with v = L^-1 kappa (GPML Algorithm
        # 2.1).  The squares are taken C-ordered, so they too are summed row
        # by row.  k(x, x) equals the signal variance exactly: every factor
        # is 1.
        solved = _forward_solve(self._factor, kappa)
        variance = self.config.signal_variance - np.sum(
            np.multiply(solved, solved, order="C"), axis=0)
        if outputs is None:
            return mean[:count], np.maximum(variance[:count], 0.0)
        means = np.empty((len(outputs), count))
        for row, view in enumerate(outputs):
            if getattr(view, "model", None) is not self:
                raise ValueError("a row view predicts only through its own model")
            means[row] = view._mean(kappa)[:count]
        return mean[:count], np.maximum(variance[:count], 0.0), means

    def mean_batch(self, points) -> np.ndarray:
        """Posterior means, predict_batch's."""
        return self.predict_batch(points)[0]


class RowView:
    """A GP on a subset of a model's training rows, with other values.

    Every variable acting in no sample of the subset has a correlation
    factor of exactly 1 on its rows, so the model's Gram submatrix and
    cross-covariance rows equal, bit for bit, those of a standalone
    :class:`GPModel` on the subset, and so do the view's means.  A view of
    all rows reuses the model's Cholesky factor.
    """

    def __init__(self, model: GPModel, rows, values):
        rows = np.asarray(rows, dtype=int)
        values = np.asarray(values, dtype=float)
        if len(rows) != len(values) or not len(rows):
            raise ValueError("need matching, nonempty rows and values")
        _require_finite(values)
        self.model = model
        if np.array_equal(rows, np.arange(len(model))):
            self.rows = None
            factor = model._factor
        else:
            self.rows = rows
            factor, _ = _factorize(model._gram[np.ix_(rows, rows)],
                                   model.config.signal_variance)
        self.alpha = _cho_solve(factor, values)

    def _mean(self, kappa: np.ndarray) -> np.ndarray:
        """Posterior means from the model's cross-covariance ``kappa``."""
        rows = kappa if self.rows is None else kappa[self.rows]
        return np.sum(rows * self.alpha[:, None], axis=0)


class CrossFactors:
    """A model's posterior at rows under one meta component, from the kernel
    factors of the rows against the training samples under it, kept per row
    so that a row differing from a kept one in one standard column costs one
    recomputed factor.

    The training samples under the rows' meta component xm (``_under``, u
    of them) have exactly xm's acting set.  On them every meta factor is
    exactly 1 and every non-meta variable acting under xm acts, so
    ``factors[k, :, j]`` is the factor of the k-th acting non-meta variable,
    in declaration order, between those samples and row j: the non-meta
    factors :func:`correlation_matrix` multiplies, in its order.  Their product
    times the signal variance, D, is the rows' cross-covariance with those
    samples, bit-identical to :meth:`GPModel.cross_covariance` of the rows
    there; categorical factors, and the factor of every standard column a
    row does not change, are copied.  Every non-meta factor is exactly 1 on
    the other samples, and the meta factors there do not depend on the row:
    the rows' cross-covariance with them is one column m, the signal
    variance times the meta factors between the samples and xm.

    So only D varies from row to row.  With the other samples ordered first,
    the jittered Gram matrix factorizes as ``L = [[L11, 0], [L21, L22]]``,
    and the partitioned inverse (GPML, Appendix A.3) gives, per row,

    - mean ``c + alpha_u^T D``, where ``c`` is m's share of the mean and
      ``alpha_u`` the model's alpha on the samples under xm;
    - variance ``s^2 - a - |L22^-1 (D - w)|^2``, with ``w = L21 L11^-1 m``
      and ``a = |L11^-1 m|^2``, clamped at 0;
    - each row view's mean the same way as the mean, from the view's alpha.

    Those pieces are computed once, so a row costs O(u^2) however many
    samples the model holds.  Without meta variables every sample is under
    xm and L22 is the model's own factor.
    """

    def __init__(self, model: GPModel, xm: MetaComponent, categorical, standard, views=()):
        domain, config, train = model.domain, model.config, model._features
        self.signal_variance = config.signal_variance
        code = train.codes.get(xm, -1)
        under = self._under = np.flatnonzero(train.which_meta == code)
        others = np.flatnonzero(train.which_meta != code)
        self._posterior(model, xm, others, views)
        cat_ids = domain.acting_index_set(xm, "categorical")
        std_ids = domain.acting_index_set(xm, "standard")
        acting = {*cat_ids, *std_ids}
        slot = {v.id: k for k, v in enumerate(v for v in domain.variables if v.id in acting)}
        categorical = np.asarray(categorical, dtype=int)
        standard = np.asarray(standard, dtype=float)
        self.factors = np.empty((len(slot), len(under), len(standard)))
        for c, vid in enumerate(cat_ids):
            table = _MATRIX_TABLES[domain.spec(vid).type]
            self.factors[slot[vid]] = _correlation_factor(
                table, _config_value(config, table, vid),
                _pair_tensor(table, train.values[train.row_of[vid], under], categorical[:, c]))
        specs = [domain.spec(v) for v in std_ids]
        self._slot = np.array([slot[v] for v in std_ids], dtype=int)
        self._integer = np.array([spec.type == VariableType.INTEGER for spec in specs],
                                 dtype=bool)
        # Per column: its lower bound, its width with 1 in place of 0 (a
        # column without width holds its lower bound, so its unit value is 0
        # either way) and minus its weight.
        width = np.array([spec.scope.width for spec in specs], dtype=float)
        self._columns = np.array(
            [[spec.scope.lo for spec in specs], np.where(width != 0, width, 1.0),
             [-_config_value(config, _MATRIX_TABLES[spec.type], spec.id) for spec in specs]],
            dtype=float).reshape(3, len(specs))
        self._train = train.values[np.ix_([train.row_of[v] for v in std_ids], under)]
        rows, column = np.indices(standard.shape).reshape(2, -1)
        self.factors[self._slot[column], :, rows] = self._standard(column, standard.ravel())

    def _posterior(self, model: GPModel, xm: MetaComponent, others: np.ndarray, views):
        """The pieces of :meth:`predict` that do not depend on the rows."""
        config, train = model.config, model._features
        own = train.meta_row(xm)
        meta = [(table, mid, _pair_tensor(table, row[others], own[k:k + 1]), None)
                for k, ((table, mid), row) in enumerate(zip(train.slots, train.meta))]
        column = self.signal_variance * _product(
            _masked_factors(meta, config), (len(others), 1))[:, 0]
        # Row 0 is the objective's alpha, then one per view, 0 off its rows.
        alphas = np.zeros((1 + len(views), len(model)))
        alphas[0] = model.alpha
        for alpha, view in zip(alphas[1:], views):
            if view.model is not model:
                raise ValueError("a row view predicts only through its own model")
            alpha[slice(None) if view.rows is None else view.rows] = view.alpha
        self._constant = (alphas[:, others] @ column)[:, None]
        # (u, outputs, 1): each output's weight on each sample under xm.
        self._weights = np.ascontiguousarray(alphas[:, self._under].T)[:, :, None]
        order = np.concatenate([others, self._under])
        if np.array_equal(order, np.arange(len(model))):
            factor = model._factor
        else:
            factor, _ = _factorize(model._gram[order][:, order], self.signal_variance,
                                   model.jitter)
        k = len(others)
        self._lower = np.asfortranarray(factor[k:, k:])
        solved = _forward_solve(factor[:k, :k], column) if k else column
        self._offset = (factor[k:, :k] @ solved)[:, None]
        self._prior = self.signal_variance - solved @ solved

    def _standard(self, column: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The factor of standard column ``column[j]`` at raw value
        ``values[j]`` against the samples under xm, one row per j."""
        # The operations of _unit_values and _fill_factor, with the
        # per-column constants gathered once.
        lo, width, rate = self._columns[:, column]
        integer = self._integer[column]
        if integer.any():
            values = np.where(integer, round_half_away_array(values), values)
        unit = (values - lo) / width
        tensor = self._train[column] - unit[:, None]
        tensor *= tensor
        # Integer and continuous weights enter the same formula.
        tensor *= rate[:, None]
        return np.exp(tensor, out=tensor)

    def polled(self, rows: np.ndarray, column: np.ndarray, values: np.ndarray):
        """Factors of the rows that equal kept row ``rows[j]`` but for
        standard column ``column[j]``, set to ``values[j]``."""
        # np.take keeps the gather C-ordered, which the product over the
        # factors runs several times faster on than on an indexed copy.
        factors = np.take(self.factors, rows, axis=2)
        factors[self._slot[column], :, np.arange(len(column))] = self._standard(column, values)
        return factors

    def move(self, rows: np.ndarray, column: np.ndarray, values: np.ndarray):
        """Set standard column ``column[j]`` of kept row ``rows[j]`` to
        ``values[j]``: the row :meth:`polled` gave for the same arguments."""
        self.factors[self._slot[column], :, rows] = self._standard(column, values)

    def cross_covariance(self, factors: np.ndarray) -> np.ndarray:
        """D, the rows' cross-covariance with the training samples under xm, a
        (u, rows) array, from factors such as :attr:`factors` or
        :meth:`polled`'s.  The factors are multiplied in their order, as
        :func:`correlation_matrix` multiplies them."""
        return self.signal_variance * np.multiply.reduce(factors, axis=0)

    def predict(self, factors: np.ndarray):
        """Posterior means, variances and the views' means (a (views, rows)
        array) of the rows with ``factors``.

        Each row's values do not depend on the rest of the batch: the sums
        over the samples under xm run row by row over C-ordered arrays of at
        least two columns (:func:`_columns`), as :meth:`GPModel.predict_batch`'s
        do.
        """
        cross, count = _columns(self.cross_covariance(factors))
        outputs, columns = len(self._constant), cross.shape[1]
        weighted = self._weights * cross[:, None, :]
        means = np.add.reduce(weighted.reshape(len(cross), outputs * columns), axis=0)
        means = means.reshape(outputs, columns) + self._constant
        variance = np.full(columns, self._prior)
        if cross.size:
            solved = _forward_solve(self._lower, np.subtract(cross, self._offset, order="F"),
                                    overwrite=True)
            variance -= np.add.reduce(np.multiply(solved, solved, order="C"), axis=0)
        return means[0, :count], np.maximum(variance[:count], 0.0), means[1:, :count]


def _likelihood_terms(matrix: np.ndarray, y: np.ndarray, overwrite: bool = False,
                      logs: np.ndarray | None = None):
    """(y^T K^-1 y, log det K) of the symmetric matrix K, or None when K is not
    numerically positive definite.

    One LAPACK posv call factorizes K (potrf, from the lower triangle) and
    solves (potrs).  With ``overwrite`` a Fortran-ordered float64 matrix is
    factorized in place; ``logs``, a buffer of len(y) values, receives the
    logarithms of the factor's diagonal.
    """
    factor, solved, info = lapack.dposv(matrix, y, lower=1, overwrite_a=overwrite)
    if info:
        return None
    logs = np.log(factor.diagonal(), out=logs)
    return float(y @ solved), 2.0 * np.add.reduce(logs)


def log_marginal_likelihood(domain: Domain, points, values, config: KernelConfig) -> float:
    """-1/2 y^T K^-1 y - 1/2 log|K| - n/2 log(2 pi), with the model's base jitter.
    ``points`` may be a :class:`TrainingSet`; K is its :meth:`~TrainingSet.gram`."""
    gram = _training_set(domain, points).gram(config)
    y = np.asarray(values, dtype=float)
    _require_finite(gram, y)
    terms = _likelihood_terms(gram + config.jitter * np.eye(len(y)), y)
    if terms is None:
        return -math.inf
    quadratic, logdet = terms
    return float(-0.5 * quadratic - 0.5 * logdet - 0.5 * len(y) * math.log(2 * math.pi))


# ---------------------------------------------------------------------------
# Hyperparameter fitting
# ---------------------------------------------------------------------------

def _config_slots(config: KernelConfig):
    slots = []
    for table, (kind, bounds, _) in _SLOT_TABLES.items():
        for key in getattr(config, table):
            slots.append((table, key, kind, bounds))
    return slots


def _fit_starts(domain: Domain, base: KernelConfig | None, seed: int, starts: int):
    """The fit's slots, one (config table, key, kind, bounds) per entry of the
    default config, and its start parameter vectors: the base config's (the
    default one with ``base``'s entries), then ``starts - 1`` random ones
    drawn from ``default_rng(seed)``."""
    base = default_kernel_config(domain, overrides=None if base is None else base.to_dict())
    slots = _config_slots(base)
    rng = np.random.default_rng(seed)
    params = [[getattr(base, t)[k] for t, k, _, _ in slots]]
    for _ in range(starts - 1):
        params.append([float(np.exp(rng.uniform(math.log(lo), math.log(hi)))) if kind == "log"
                       else float(rng.uniform(lo, hi)) for _, _, kind, (lo, hi) in slots])
    return slots, params


def fit_hyperparameters(domain: Domain, points, values, *, seed: int = 0,
                        starts: int = 8, sweeps: int = 8,
                        base: KernelConfig | None = None) -> KernelConfig:
    """Maximize the log marginal likelihood by multi-start coordinate search.

    Weight-like parameters move in log space within their box bounds;
    correlations move in raw space within [0, 0.99].  The base config (the
    default one unless overridden) is always one of the starts, so the result
    never has lower likelihood than it; it holds only entries of the default
    config.  Deterministic for a fixed seed.  ``starts`` must
    be an integer of at least 1 and ``sweeps`` one of at least 0.

    All starts are drawn first: the base config, then ``starts - 1`` random
    ones.  A start is live when its own kernel matrix factorizes.  When any
    start is live, the search runs from the live starts only, in draw order,
    and a dead start costs one factorization.  When every start is dead, the
    search runs from all of them, since a dead start may still move onto a
    matrix that factorizes.

    ``points`` may be a :class:`TrainingSet`; a list is put in a new one.
    The set holds the pair tensors of the strict lower triangle, the entries
    LAPACK potrf reads besides the diagonal, in two groups: cross-meta pairs
    with the meta factors, same-meta pairs with every other factor, each
    neutral where it is exactly 1.  A run that grows one set draws the
    starts once, in its first fit.  A fit builds only the scatter index of
    the entries and every start's factors, all starts at once, one factor
    at a time.

    Each hyperparameter enters exactly one factor, so a trial recomputes
    only that factor, into a spare copy of its group's factors, and the
    product of the group; an accepted trial swaps the copy in.  Both
    groups' products share one buffer with the diagonal, where every factor
    is 1 and the entry is 1 plus the jitter fraction.  A trial scatters
    that buffer into a Fortran-ordered matrix, which one LAPACK posv call
    factorizes in place and solves against.  Products are taken in
    correlation_matrix's factor order and multiplying by an exact 1 changes
    nothing, so every likelihood is bit-identical to evaluating
    correlation_matrix on the trial config.  ``values`` are checked to be
    finite here, the points' features when they join the set.
    """
    check_counts({"starts": starts, "sweeps": sweeps}, ("starts",))
    if len(points) < 2:
        raise FittingError("hyperparameter fitting needs at least 2 samples")
    train = _training_set(domain, points)
    slots, start_params = train.fit_starts(base, seed, starts)
    y = np.asarray(values, dtype=float)
    _require_finite(y)
    n = len(y)

    # The strict lower triangle's entries, the meta group's first, then the
    # diagonal: every factor is 1 there, so it holds 1 plus the jitter.
    groups = train.groups
    index = np.concatenate([*(group.rows + group.cols * n for group in groups),
                            np.arange(n) * (n + 1)])
    entries = np.full(len(index), 1.0 + JITTER_FRACTION)
    split = groups[0].size
    products = (entries[:split], entries[split:split + groups[1].size])
    # A factor without support is 1 off the diagonal, so it has no row and
    # the search skips its slot: it cannot change the likelihood.
    factors = [group.supported() for group in groups]
    slot_index = {(table, key): i for i, (table, key, _, _) in enumerate(slots)}
    slot_of = [[slot_index[group.factors[k]] for k, _, _ in members]
               for group, members in zip(groups, factors)]
    slot_factor = [None] * len(slots)  # (group, row) of each slot's factor
    for g, indices in enumerate(slot_of):
        for j, i in enumerate(indices):
            slot_factor[i] = (g, j)
    flat = np.empty(n * n)
    matrix = flat.reshape((n, n), order="F")
    logs = np.empty(n)
    offset = 0.5 * n * (1 + math.log(2 * math.pi))

    def likelihood():
        """(LML, signal variance) of the entries' matrix, the signal variance
        profiled out analytically."""
        flat[index] = entries
        terms = _likelihood_terms(matrix, y, overwrite=True, logs=logs)
        if terms is None:
            return -math.inf, None
        quadratic, logdet = terms
        sigma2 = max(quadratic / n, 1e-12)
        return float(-0.5 * n * math.log(sigma2) - 0.5 * logdet - offset), sigma2

    def load(vectors):
        """Per group, the products and factors at every parameter vector."""
        return [group.products(members, np.array(
                    [[_operand(kind, params[i]) for i, (_, kind, _) in zip(slots_g, members)]
                     for params in vectors], dtype=float))
                for group, members, slots_g in zip(groups, factors, slot_of)]

    def loaded_likelihood(loaded, start):
        for product, (at, _) in zip(products, loaded):
            product[:] = at[start]
        return likelihood()

    loaded = load(start_params)
    first_values = [loaded_likelihood(loaded, start)[0] for start in range(starts)]
    live = [i for i, value in enumerate(first_values) if value > -math.inf]
    best_params, best_value = None, -math.inf
    for start in live or range(starts):
        params, value = list(start_params[start]), first_values[start]
        # Per group, its factors at params and a spare copy, which differs
        # from them in row dirty[g] at most: a trial writes its factor into
        # the spare, and an accepted trial swaps the two.  A rejected trial
        # leaves its product in the entries, stale, until a trial of the
        # other group restores it.
        rows = [np.ascontiguousarray(block[:, start]) for _, block in loaded]
        spares = [group_rows.copy() for group_rows in rows]
        dirty, stale = [None, None], None
        for product, (at, _) in zip(products, loaded):
            product[:] = at[start]
        # Every parameter vector this start has evaluated: its value only
        # rises, so none of them can be accepted again.
        visited = {tuple(params)}
        step = 1.0  # log-space / raw-space half-width of the compass move
        for _ in range(sweeps):
            moved = False
            for i, (_, _, kind_name, (lo, hi)) in enumerate(slots):
                if slot_factor[i] is None:
                    continue
                g, j = slot_factor[i]
                _, kind, tensor = factors[g][j]
                for direction in (1.0, -1.0):
                    if kind_name == "log":
                        trial = min(max(params[i] * math.exp(direction * step), lo), hi)
                    else:
                        trial = min(max(params[i] + direction * 0.2 * step, lo), hi)
                    vector = (*params[:i], trial, *params[i + 1:])
                    if trial == params[i] or vector in visited:
                        continue
                    visited.add(vector)
                    if stale is not None and stale != g:
                        np.multiply.reduce(rows[stale], axis=0, out=products[stale])
                    spare = spares[g]
                    if dirty[g] != j:
                        if dirty[g] is not None:
                            np.copyto(spare[dirty[g]], rows[g][dirty[g]])
                        dirty[g] = j
                    _fill_factor(kind, tensor, _operand(kind, trial), spare[j])
                    np.multiply.reduce(spare, axis=0, out=products[g])
                    stale = g
                    trial_value = likelihood()[0]
                    if trial_value > value:
                        params[i], value = trial, trial_value
                        rows[g], spares[g], stale = spare, rows[g], None
                        moved = True
                        break
            if not moved:
                step *= 0.5
                if step < 0.05:
                    break
        if value > best_value:
            best_params, best_value = params, value
    if best_params is None or best_value == -math.inf:
        raise FittingError("all fitting starts failed to factorize the kernel matrix")
    tables = {table: {} for table in _SLOT_TABLES}
    for (table, key, _, _), value in zip(slots, best_params):
        tables[table][key] = value
    config = KernelConfig(**tables)
    config.signal_variance = loaded_likelihood(load([best_params]), 0)[1]
    return config
