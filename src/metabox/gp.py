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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .blackbox import cache_key
from .domain import (Domain, GROUPS, MetaComponent, Point, VariableType, _is_real,
                     normalize)
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
    "categorical_weights": ("log", WEIGHT_BOUNDS, 1.0),
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


def _table(spec, encoded: bool) -> str:
    """The config table of ``spec``'s factor on features built with an encoder or not."""
    if encoded and spec.type in GROUPS["categorical"]:
        return "categorical_weights"  # a weight on the encoding
    return _MATRIX_TABLES[spec.type]


@dataclass
class KernelConfig:
    """Hyperparameters of the mixed kernel.

    Weights are positive squared-exponential coefficients keyed by variable
    id.  On features built without an encoder (matrix mode) each nominal
    variable carries a compound-symmetry off-diagonal correlation in [0, 1)
    and each ordinal variable a positive lengthscale on its level index.
    With an encoder (encoded mode) each categorical variable carries one
    weight applied to all of its encoded dimensions.
    """

    continuous_weights: dict = field(default_factory=dict)
    integer_weights: dict = field(default_factory=dict)
    categorical_weights: dict = field(default_factory=dict)
    nominal_correlations: dict = field(default_factory=dict)
    ordinal_lengthscales: dict = field(default_factory=dict)
    meta_correlations: dict = field(default_factory=dict)
    meta_weights: dict = field(default_factory=dict)
    signal_variance: float = 1.0

    def __post_init__(self):
        for table, (kind, _, _) in _SLOT_TABLES.items():
            for key, value in getattr(self, table).items():
                if kind == "log" and not (_is_real(value) and value > 0):
                    raise KernelDomainError(
                        f"{table}[{key!r}] must be a positive number, got {value!r}")
                if kind == "raw" and not (_is_real(value) and 0.0 <= value < 1.0):
                    raise KernelDomainError(
                        f"{table}[{key!r}] must be a number in [0, 1), got {value!r}")
        if not (_is_real(self.signal_variance) and self.signal_variance > 0):
            raise KernelDomainError(
                f"signal variance must be a positive number, got {self.signal_variance!r}")

    @property
    def jitter(self) -> float:
        return JITTER_FRACTION * self.signal_variance

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "KernelConfig":
        return cls(**data)


def default_kernel_config(domain: Domain, *, encoder=None, overrides=None) -> KernelConfig:
    """The default config of the kernel on ``domain``'s features built with
    ``encoder`` (None: matrix mode), with the entries of ``overrides``, a
    partial serialized config, in place of the defaults.  An override table
    or variable id that the default config lacks is rejected."""
    tables = {table: {} for table in _SLOT_TABLES}
    for v in domain.variables:
        table = _table(v, encoder is not None)
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
# Vectorized pair tensors (used for Gram matrices and batched prediction)
# ---------------------------------------------------------------------------

class SampleFeatures:
    """Per-sample arrays extracted once from a list of points.

    Sample i has the meta component ``metas[which_meta[i]]``.  ``meta`` maps
    each meta id to the samples' values: range-normalized for a numeric meta
    variable, category indices for a meta-categorical one.  ``acting`` maps
    each non-meta id to whether the variable acts in each sample, and
    ``values`` to the samples' values, 0 where it does not act: a
    range-normalized column for a standard variable, and for a categorical
    one its category indices, or the rows of their encodings when the set
    is built with an encoder (``encoded``).
    """

    def __init__(self, domain: Domain, points, encoder=None):
        columns = {}
        for v in domain.variables:
            if v.type.is_meta:
                continue
            component = "categorical" if v.type in GROUPS["categorical"] else "standard"
            values = [getattr(p, component).get(v.id) for p in points]
            acting = np.array([value is not None for value in values], dtype=bool)
            raw = np.array([0 if value is None else value for value in values], dtype=float)
            columns[v.id] = (acting, raw)
        metas = {}
        which = np.array([metas.setdefault(p.meta, len(metas)) for p in points], dtype=int)
        self._fill(domain, list(metas), which, columns, encoder)

    @classmethod
    def from_arrays(cls, domain: Domain, xm: MetaComponent, categorical, standard,
                    encoder=None) -> "SampleFeatures":
        """Features of points sharing the meta component ``xm``.

        ``categorical`` holds (n, q) category indices and ``standard`` (n, d)
        raw standard values, columns in acting-set declaration order.  The
        result equals the features of the same points built as Point objects.
        """
        categorical = np.asarray(categorical, dtype=float)
        standard = np.asarray(standard, dtype=float)
        n = len(categorical)
        ids = (*domain.acting_index_set(xm, "categorical"),
               *domain.acting_index_set(xm, "standard"))
        acting = np.ones(n, dtype=bool)
        columns = {vid: (acting, raw) for vid, raw in zip(ids, [*categorical.T, *standard.T])}
        features = cls.__new__(cls)
        features._fill(domain, [xm], np.zeros(n, dtype=int), columns, encoder)
        return features

    def _fill(self, domain: Domain, metas, which, columns, encoder):
        """Normalize per-variable (acting mask, raw value) columns into
        features; a variable without a column acts in no sample."""
        self.n = len(which)
        self.metas = [tuple(sorted(m.items())) for m in metas]
        self.which_meta = which
        self.encoded = encoder is not None
        self.meta = {}
        for mid in domain.meta_ids:
            spec = domain.spec(mid)
            if spec.type == VariableType.META_CATEGORICAL:
                values = np.array([spec.scope.index(m[mid]) for m in metas], dtype=int)
            else:
                values = np.array([normalize(spec.scope, m[mid]) for m in metas], dtype=float)
            self.meta[mid] = values[which]
        self.acting = {}
        self.values = {}
        nowhere = (np.zeros(self.n, dtype=bool), np.zeros(self.n))
        for spec in domain.variables:
            if spec.type.is_meta:
                continue
            vid = spec.id
            acting, raw = columns.get(vid, nowhere)
            self.acting[vid] = acting
            if spec.type in GROUPS["standard"]:
                self.values[vid] = np.where(acting, _unit_values(
                    spec.type == VariableType.INTEGER, spec.scope.lo, spec.scope.width, raw),
                    0.0)
                continue
            index = np.where(acting, raw, 0).astype(int)
            if encoder is None:
                self.values[vid] = index
            else:
                # Row 0 encodes nonacting samples as zeros.
                table = np.array([np.zeros(encoder.width(vid))]
                                 + [encoder.encode_variable(vid, k)
                                    for k in range(1, spec.scope.size + 1)])
                self.values[vid] = table[index]


def _unit_values(integer: bool, lo, width, raw: np.ndarray) -> np.ndarray:
    """Range-normalized standard values, elementwise: (raw - lo) / width, or 0
    where the width is 0.  Integer values are first rounded half away from
    zero.  ``lo`` and ``width`` are scalars or arrays shaped like ``raw``."""
    if integer:
        raw = np.where(raw >= 0, np.floor(raw + 0.5), np.ceil(raw - 0.5))
    return np.divide(raw - lo, width, out=np.zeros(np.shape(raw)),
                     where=np.asarray(width) != 0)


def _squared_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pair tensor of a numeric factor, elementwise."""
    return (a - b) ** 2


def _pair_tensor(table: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pair tensor of one factor from two sets' values of its variable:
    whether the categories differ (correlation tables), the squared distance
    between encodings (one row per sample), or the squared difference."""
    if _SLOT_TABLES[table][0] == "raw":
        return a[:, None] != b[None, :]
    if table == "categorical_weights":
        return ((a ** 2).sum(axis=1)[:, None] + (b ** 2).sum(axis=1)[None, :]
                - 2.0 * a @ b.T)
    return _squared_difference(a[:, None], b[None, :])


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
        if fa.encoded != fb.encoded:
            raise KernelDomainError("cannot pair encoded features with plain ones")
        self.shape = (fa.n, fb.n)
        codes = {}
        code_a = np.array([codes.setdefault(k, len(codes)) for k in fa.metas], dtype=int)
        code_b = np.array([codes.setdefault(k, len(codes)) for k in fb.metas], dtype=int)
        self.same_meta = code_a[fa.which_meta][:, None] == code_b[fb.which_meta][None, :]
        meta = sorted(((_table(domain.spec(mid), fa.encoded), mid) for mid in fa.meta),
                      key=lambda slot: slot[0] == "meta_correlations")
        self.slots = [(table, mid, _pair_tensor(table, fa.meta[mid], fb.meta[mid]), None)
                      for table, mid in meta]
        # A variable nonacting in every sample of either set has a factor of
        # exactly 1 everywhere, so it gets no slot.
        for vid in fa.acting:
            acting_a, acting_b = fa.acting[vid], fb.acting[vid]
            if acting_a.any() and acting_b.any():
                table = _table(domain.spec(vid), fa.encoded)
                mask = self.same_meta & acting_a[:, None] & acting_b[None, :]
                self.slots.append((table, vid,
                                   _pair_tensor(table, fa.values[vid], fb.values[vid]),
                                   mask))


def _correlation_factor(table: str, value, tensor: np.ndarray) -> np.ndarray:
    """One correlation factor, with the hyperparameter at ``value``, on the
    entries of its pair tensor that it is given.

    The tensor holds squared distances, or for correlation tables whether the
    two samples' categories differ.  ``value`` may also be an array that
    broadcasts against the tensor.
    """
    if _SLOT_TABLES[table][0] == "raw":
        return np.where(tensor, value, 1.0)
    if table == "ordinal_lengthscales":
        return np.exp(-tensor / (2.0 * value ** 2))
    return np.exp(-value * tensor)


def _masked_factors(pairs: PairTensors, config: KernelConfig):
    """Yield the factors of :func:`correlation_matrix`, in product order: each
    slot's correlation factor, set to 1 outside its mask."""
    for table, key, tensor, mask in pairs.slots:
        try:
            value = getattr(config, table)[key]
        except KeyError:
            raise KernelDomainError(f"the config has no {table} entry for {key!r}") from None
        factor = _correlation_factor(table, value, tensor)
        yield factor if mask is None else np.where(mask, factor, 1.0)


def _product(factors, shape) -> np.ndarray:
    """The factors multiplied one after another into a new C-ordered array."""
    out = np.ones(shape)
    for factor in factors:
        out *= factor
    return out


def correlation_matrix(pairs: PairTensors, config: KernelConfig) -> np.ndarray:
    """Kernel matrix without the signal variance factor."""
    return _product(_masked_factors(pairs, config), pairs.shape)


# ---------------------------------------------------------------------------
# Scalar view of the kernel (one pair of points or components)
# ---------------------------------------------------------------------------

class MixedKernel:
    """Covariance of one pair of points, or of one component of a pair,
    under a domain, a config and the encoder of its features (None in
    matrix mode).

    Every value is :func:`correlation_matrix` on a 1 x 1 pair, so the
    kernel formulas live only there.  A component method pairs points that
    share the meta component ``xm`` and hold only that component, so every
    other factor is exactly 1.
    """

    def __init__(self, domain: Domain, config: KernelConfig, encoder=None):
        self.domain = domain
        self.config = config
        self.encoder = encoder

    def _correlation(self, x: Point, y: Point) -> float:
        fa = SampleFeatures(self.domain, [x], self.encoder)
        fb = SampleFeatures(self.domain, [y], self.encoder)
        return float(correlation_matrix(PairTensors(self.domain, fa, fb), self.config)[0, 0])

    def _component(self, group: str, xm: MetaComponent, a: dict, b: dict) -> float:
        """Correlation of two components over the acting set of ``group``."""
        ids = self.domain.acting_index_set(xm, group)
        if set(a) != set(ids) or set(b) != set(ids):
            raise KernelDomainError(
                f"{group} components must cover the acting set {ids}")
        if group == "categorical":
            return self._correlation(Point(xm, a, {}), Point(xm, b, {}))
        return self._correlation(Point(xm, {}, a), Point(xm, {}, b))

    def k_continuous(self, xc: dict, yc: dict, xm: MetaComponent) -> float:
        """exp(-sum of weighted squared differences) over acting continuous variables."""
        return self._component("continuous", xm, xc, yc)

    def k_integer(self, xz: dict, yz: dict, xm: MetaComponent) -> float:
        """Like the continuous kernel after rounding relaxed values half away
        from zero, making each one-dimensional factor piecewise constant."""
        return self._component("integer", xm, xz, yz)

    def k_standard(self, xs: dict, ys: dict, xm: MetaComponent) -> float:
        """Product of the integer and continuous kernels."""
        return self._component("standard", xm, xs, ys)

    def k_categorical(self, xq: dict, yq: dict, xm: MetaComponent) -> float:
        """Compound-symmetry and ordinal-index factors (matrix mode), or a
        squared-exponential kernel on the encodings (encoded mode)."""
        return self._component("categorical", xm, xq, yq)

    def k_mixed(self, x: Point, y: Point) -> float:
        """Full covariance between two points.

        Categorical and standard factors enter only when both points share
        the same meta component; otherwise the meta factors stand alone.
        """
        return self.config.signal_variance * self._correlation(x, y)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def _require_finite(*arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _cholesky(matrix: np.ndarray, overwrite: bool = False):
    """Lower Cholesky factor of ``matrix``, or None when it is not numerically
    positive definite.

    LAPACK potrf reads and writes only the lower triangle; the upper one is
    left as it was.  With ``overwrite`` a Fortran-ordered float64 matrix is
    factorized in place, without a copy.  Called directly: the likelihood
    runs thousands of times per fit, and cho_factor wraps the same routine
    in costly checks.
    """
    factor, info = lapack.dpotrf(matrix, lower=1, clean=0, overwrite_a=overwrite)
    return None if info else factor


def _factorize(matrix: np.ndarray, signal_variance: float):
    """Lower Cholesky factor with jitter escalation (x10 up to the ceiling
    fraction), and the jitter used."""
    _require_finite(matrix)
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


class CrossCovariance(NamedTuple):
    """Points given by their cross-covariance with a model's training
    samples, computed ahead of prediction (see :class:`CrossFactors`)."""

    kappa: np.ndarray

    @property
    def n(self) -> int:
        return self.kappa.shape[1]


class GPModel:
    """Noise-free zero-mean GP conditioned on evaluated points.

    Immutable once constructed; fitting hyperparameters happens separately in
    :func:`fit_hyperparameters`.  :meth:`row_view` conditions further outputs
    on subsets of the same training points, predicted from the same
    cross-covariance.
    """

    def __init__(self, domain: Domain, points, values, config: KernelConfig,
                 encoder=None):
        if len(points) != len(values) or not points:
            raise ValueError("need matching, nonempty points and values")
        self.domain = domain
        self.config = config
        self.encoder = encoder
        self.points = list(points)
        self.values = np.asarray(values, dtype=float)
        self._features = SampleFeatures(domain, self.points, self.encoder)
        self._gram = config.signal_variance * correlation_matrix(
            PairTensors(domain, self._features, self._features), config)
        factor, self.jitter = _factorize(self._gram, config.signal_variance)
        self._factor = (factor, True)  # cho_factor's (factor, lower) form
        self.alpha = _cho_solve(self._factor[0], self.values)

    def __len__(self):
        return len(self.points)

    def features(self, points) -> SampleFeatures:
        """Extract prediction features once; reusable across models sharing
        the same domain and encoder."""
        return SampleFeatures(self.domain, points, self.encoder)

    def cross_covariance(self, points) -> np.ndarray:
        """kappa matrix of shape (n_train, len(points)); a
        :class:`CrossCovariance` gives its own."""
        if isinstance(points, CrossCovariance):
            return points.kappa
        features = points if isinstance(points, SampleFeatures) else self.features(points)
        pairs = PairTensors(self.domain, self._features, features)
        return self.config.signal_variance * correlation_matrix(pairs, self.config)

    @staticmethod
    def _columns(kappa: np.ndarray):
        """``kappa`` C-ordered with at least two columns, and its column count.

        Sums over the training samples run row by row (axis 0), which gives
        every column the same bits whatever else the batch holds; numpy would
        sum a lone column, or the columns of a Fortran-ordered array,
        pairwise, so one point is predicted as two copies.
        """
        kappa = np.ascontiguousarray(kappa)
        count = kappa.shape[1]
        if count == 1:
            kappa = np.repeat(kappa, 2, axis=1)
        return kappa, count

    def row_view(self, rows, values) -> "RowView":
        """A GP on the training points at the indices ``rows``, with its own
        ``values``; its means come from :meth:`predict_batch`."""
        return RowView(self, rows, values)

    def predict_batch(self, points, outputs=None):
        """Posterior means and variances; each point's values do not depend on
        the rest of the batch.

        With ``outputs``, a sequence of this model's row views, also returns
        their posterior means as a (len(outputs), n) array, computed from the
        same cross-covariance.  ``points`` may be Points, their
        :class:`SampleFeatures` or their :class:`CrossCovariance`.
        """
        kappa, count = self._columns(self.cross_covariance(points))
        mean = np.sum(kappa * self.alpha[:, None], axis=0)
        solved = _cho_solve(self._factor[0], kappa)
        # k(x, x) equals the signal variance exactly: every factor is 1.
        variance = self.config.signal_variance - np.sum(kappa * solved, axis=0)
        if outputs is None:
            return mean[:count], np.maximum(variance[:count], 0.0)
        means = np.empty((len(outputs), count))
        for row, view in enumerate(outputs):
            if getattr(view, "model", None) is not self:
                raise ValueError("a row view predicts only through its own model")
            means[row] = view._mean(kappa)[:count]
        return mean[:count], np.maximum(variance[:count], 0.0), means

    def mean_batch(self, points) -> np.ndarray:
        """Posterior means only (no variance solve), equal to predict_batch's."""
        kappa, count = self._columns(self.cross_covariance(points))
        return np.sum(kappa * self.alpha[:, None], axis=0)[:count]

    def predict(self, point: Point):
        mean, variance = self.predict_batch([point])
        return float(mean[0]), float(variance[0])

    def dump(self, path):
        """Write samples and config to a JSON file for inspection."""
        payload = {
            "config": self.config.to_dict(),
            "jitter": self.jitter,
            "samples": [
                {"meta": dict(p.meta), "categorical": dict(p.categorical),
                 "standard": dict(p.standard), "value": float(y), "key": cache_key(p)}
                for p, y in zip(self.points, self.values)
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)


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
        self.model = model
        if np.array_equal(rows, np.arange(len(model))):
            self.rows = None
            factor = model._factor[0]
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
    """The factors of a model's cross-covariance with rows under one meta
    component, kept per row, so that a row differing from a kept one in one
    standard column costs one recomputed factor.

    ``factors[k, j]`` is the k-th factor :func:`correlation_matrix`
    multiplies, in its order, between row j and the training samples, built
    from one :class:`PairTensors` of the rows given at construction.  Meta and
    categorical factors, and the factor of every standard column a row does
    not change, are copied, so :meth:`kappa` of a polled row equals
    :meth:`GPModel.cross_covariance` of it bit for bit.
    """

    def __init__(self, model: GPModel, xm: MetaComponent, categorical, standard):
        domain, config = model.domain, model.config
        features = SampleFeatures.from_arrays(domain, xm, categorical, standard, model.encoder)
        pairs = PairTensors(domain, model._features, features)
        self.signal_variance = config.signal_variance
        self.factors = np.empty((len(pairs.slots), pairs.shape[1], pairs.shape[0]))
        for k, factor in enumerate(_masked_factors(pairs, config)):
            self.factors[k] = factor.T
        # A standard factor is 1 outside the training samples under xm, so
        # only those are recomputed, and 1 where its variable does not act
        # (its mask).  A variable acting in no training sample has no factor
        # (index -1): it is 1 whatever a row holds.
        self._under = np.flatnonzero(pairs.same_meta[:, 0])
        slot = {key: k for k, (_, key, _, _) in enumerate(pairs.slots)}
        specs = [domain.spec(v) for v in domain.acting_index_set(xm, "standard")]
        self._slot = np.array([slot.get(spec.id, -1) for spec in specs], dtype=int)
        self._lo = np.array([spec.scope.lo for spec in specs], dtype=float)
        self._width = np.array([spec.scope.width for spec in specs], dtype=float)
        self._weight = np.array([getattr(config, _MATRIX_TABLES[spec.type])[spec.id]
                                 for spec in specs], dtype=float)
        self._train = np.zeros((len(specs), len(self._under)))
        self._mask = np.zeros((len(specs), len(self._under)), dtype=bool)
        for c, k in enumerate(self._slot):
            if k >= 0:
                self._train[c] = model._features.values[specs[c].id][self._under]
                self._mask[c] = pairs.slots[k][3][self._under, 0]
        #: Columns grouped by their factor's formula: (table, integer, member mask).
        self._groups = []
        for kind in (VariableType.INTEGER, VariableType.CONTINUOUS):
            members = np.array([spec.type == kind for spec in specs], dtype=bool)
            if members.any():
                self._groups.append((_MATRIX_TABLES[kind], kind == VariableType.INTEGER,
                                     members & (self._slot >= 0)))

    def polled(self, rows: np.ndarray, column: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Factors of the rows that equal kept row ``rows[j]`` but for
        standard column ``column[j]``, set to ``values[j]``."""
        factors = self.factors[:, rows]
        for table, integer, members in self._groups:
            j = np.flatnonzero(members[column])
            if not len(j):
                continue
            c = column[j]
            unit = _unit_values(integer, self._lo[c], self._width[c], values[j])
            tensor = _squared_difference(self._train[c], unit[:, None])
            factor = _correlation_factor(table, self._weight[c][:, None], tensor)
            factors[self._slot[c][:, None], j[:, None], self._under] = np.where(
                self._mask[c], factor, 1.0)
        return factors

    def kappa(self, factors: np.ndarray) -> CrossCovariance:
        """The rows' cross-covariance, a C-ordered (n_train, rows) array, from
        factors such as :attr:`factors` or :meth:`polled`'s."""
        product = self.signal_variance * _product(factors, factors.shape[1:])
        return CrossCovariance(np.ascontiguousarray(product.T))


def _likelihood_terms(factor: np.ndarray, y: np.ndarray):
    """(y^T K^-1 y, log det K) from the lower Cholesky factor of K."""
    return float(y @ _cho_solve(factor, y)), 2.0 * np.sum(np.log(np.diag(factor)))


def log_marginal_likelihood(domain: Domain, points, values, config: KernelConfig,
                            encoder=None) -> float:
    """-1/2 y^T K^-1 y - 1/2 log|K| - n/2 log(2 pi), with the model's base jitter."""
    features = SampleFeatures(domain, points, encoder)
    pairs = PairTensors(domain, features, features)
    y = np.asarray(values, dtype=float)
    gram = config.signal_variance * correlation_matrix(pairs, config)
    _require_finite(gram, y)
    factor = _cholesky(gram + config.jitter * np.eye(len(points)))
    if factor is None:
        return -math.inf
    quadratic, logdet = _likelihood_terms(factor, y)
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


def _profiled_lml(quadratic: float, logdet: float, n: int):
    """(LML, signal variance) of a correlation matrix with the signal variance
    profiled out analytically, from its likelihood terms."""
    sigma2 = max(quadratic / n, 1e-12)
    lml = -0.5 * n * math.log(sigma2) - 0.5 * logdet - 0.5 * n * (1 + math.log(2 * math.pi))
    return float(lml), sigma2


class _FactorGroup:
    """The correlation factors of one group of lower-triangle entries.

    ``index`` holds the group's entries as flat positions in a
    Fortran-ordered n x n matrix.  Row k of ``rows`` is the group's k-th
    factor on those entries: 1 outside the factor's support, where no value
    of its hyperparameter can move it, and recomputed only on the support.
    ``product`` multiplies the rows in correlation_matrix's factor order.
    """

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray, slots):
        self.index = rows + cols * n
        self.rows = np.ones((len(slots), len(rows)))
        self.factors = []  # (table, support, tensor on the support)
        for table, _, tensor, mask in slots:
            support = slice(None) if mask is None else np.flatnonzero(mask[rows, cols])
            self.factors.append((table, support, tensor[rows[support], cols[support]]))
        self.product = np.ones(len(rows))

    def set(self, k: int, value: float):
        table, support, tensor = self.factors[k]
        self.rows[k, support] = _correlation_factor(table, value, tensor)

    def refresh(self):
        self.product = np.multiply.reduce(self.rows, axis=0)


def fit_hyperparameters(domain: Domain, points, values, *, seed: int = 0, encoder=None,
                        starts: int = 8, sweeps: int = 8,
                        base: KernelConfig | None = None) -> KernelConfig:
    """Maximize the log marginal likelihood by multi-start coordinate search.

    Weight-like parameters move in log space within their box bounds;
    correlations move in raw space within [0, 0.99].  The base config (the
    default one unless overridden) is always one of the starts, so the result
    never has lower likelihood than it; it holds only entries of the default
    config for ``encoder``.  Deterministic for a fixed seed.

    All starts are drawn first: the base config, then ``starts - 1`` random
    ones.  A start is live when its own kernel matrix factorizes.  When any
    start is live, the search runs from the live starts only, in draw order,
    and a dead start costs one factorization.  When every start is dead, the
    search runs from all of them, since a dead start may still move onto a
    matrix that factorizes.

    Each hyperparameter enters exactly one correlation factor, and a trial
    move recomputes only the matrix entries that factor can change.  LAPACK
    potrf reads the lower triangle and the diagonal, so the search keeps
    those entries in two support groups:

    - the meta group, on pairs with different meta components, holds the
      meta factors: every other factor is exactly 1 there;
    - the non-meta group, on same-meta pairs, holds every other factor,
      each compressed to its support (the pairs where its variable acts in
      both samples): every meta factor is exactly 1 there.

    A trial recomputes its factor on the factor's support and the product of
    that factor's group, scatters both groups' products into a Fortran-ordered
    buffer, adds the jitter on the diagonal and factorizes the buffer in
    place.  Products are taken in correlation_matrix's factor order and
    multiplying by an exact 1 changes nothing, so every likelihood is
    bit-identical to evaluating correlation_matrix on the trial config.
    Finiteness is checked once, on ``values`` and the pair tensors.
    """
    if len(points) < 2:
        raise FittingError("hyperparameter fitting needs at least 2 samples")
    rng = np.random.default_rng(seed)
    base = default_kernel_config(domain, encoder=encoder,
                                 overrides=None if base is None else base.to_dict())
    slots = _config_slots(base)
    features = SampleFeatures(domain, points, encoder)
    pairs = PairTensors(domain, features, features)
    y = np.asarray(values, dtype=float)
    n = len(y)
    factors = pairs.slots
    _require_finite(y, *(tensor for _, _, tensor, _ in factors))

    rows, cols = np.tril_indices(n)
    same = pairs.same_meta[rows, cols]
    groups = []
    factor_of = {}  # (table, key) -> (group, row)
    for on_pairs, members in ((~same, [f for f in factors if f[3] is None]),
                              (same, [f for f in factors if f[3] is not None])):
        group = _FactorGroup(n, rows[on_pairs], cols[on_pairs], members)
        groups.append(group)
        for k, (table, key, _, _) in enumerate(members):
            # A meta factor has no support when all samples share one meta
            # component: it is 1 everywhere.
            if group.factors[k][2].size:
                factor_of[(table, key)] = (group, k)
    # A slot without a factor (its variable acts in no sample) cannot change
    # the likelihood, so the search skips it.
    slot_factor = [factor_of.get((table, key)) for table, key, _, _ in slots]
    flat = np.empty(n * n)
    matrix = flat.reshape((n, n), order="F")
    diagonal = np.arange(n) * (n + 1)

    def likelihood():
        for group in groups:
            flat[group.index] = group.product
        flat[diagonal] += JITTER_FRACTION
        factor = _cholesky(matrix, overwrite=True)
        if factor is None:
            return -math.inf, None
        return _profiled_lml(*_likelihood_terms(factor, y), n)

    def set_params(params):
        for i, value in enumerate(params):
            if slot_factor[i] is not None:
                group, k = slot_factor[i]
                group.set(k, value)
        for group in groups:
            group.refresh()

    def load(params):
        set_params(params)
        return likelihood()

    def build(params):
        config = default_kernel_config(domain, encoder=encoder)
        for (table, key, _, _), value in zip(slots, params):
            getattr(config, table)[key] = value
        return config

    def random_start():
        params = []
        for _, _, kind, (lo, hi) in slots:
            if kind == "log":
                params.append(float(np.exp(rng.uniform(math.log(lo), math.log(hi)))))
            else:
                params.append(float(rng.uniform(lo, hi)))
        return params

    start_params = [[getattr(base, t)[k] for t, k, _, _ in slots]]
    start_params += [random_start() for _ in range(starts - 1)]
    first_values = [load(params)[0] for params in start_params]
    live = [i for i, value in enumerate(first_values) if value > -math.inf]
    best_params, best_value = None, -math.inf
    for start in live or range(starts):
        params, value = start_params[start], first_values[start]
        set_params(params)
        step = 1.0  # log-space / raw-space half-width of the compass move
        for _ in range(sweeps):
            moved = False
            for i, (_, _, kind, (lo, hi)) in enumerate(slots):
                if slot_factor[i] is None:
                    continue
                group, k = slot_factor[i]
                for direction in (1.0, -1.0):
                    if kind == "log":
                        trial = min(max(params[i] * math.exp(direction * step), lo), hi)
                    else:
                        trial = min(max(params[i] + direction * 0.2 * step, lo), hi)
                    if trial == params[i]:
                        continue
                    kept_row, kept_product = group.rows[k].copy(), group.product
                    group.set(k, trial)
                    group.refresh()
                    trial_value = likelihood()[0]
                    if trial_value > value:
                        params[i], value = trial, trial_value
                        moved = True
                        break
                    group.rows[k], group.product = kept_row, kept_product
            if not moved:
                step *= 0.5
                if step < 0.05:
                    break
        if value > best_value:
            best_params, best_value = params, value
    if best_params is None or best_value == -math.inf:
        raise FittingError("all fitting starts failed to factorize the kernel matrix")
    config = build(best_params)
    config.signal_variance = load(best_params)[1]
    return config
