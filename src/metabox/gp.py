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

import math
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
    one its category indices.
    """

    def __init__(self, domain: Domain, points):
        self.n = len(points)
        metas = {}
        self.which_meta = np.array([metas.setdefault(p.meta, len(metas)) for p in points],
                                   dtype=int)
        self.metas = [tuple(sorted(m.items())) for m in metas]
        self.meta = {mid: values[self.which_meta]
                     for mid, values in _meta_features(domain, list(metas)).items()}
        self.acting = {}
        self.values = {}
        for spec in domain.variables:
            if spec.type.is_meta:
                continue
            categorical = spec.type in GROUPS["categorical"]
            values = [(p.categorical if categorical else p.standard).get(spec.id)
                      for p in points]
            acting = self.acting[spec.id] = np.array([v is not None for v in values],
                                                     dtype=bool)
            raw = np.array([0 if v is None else v for v in values], dtype=float)
            if categorical:
                self.values[spec.id] = raw.astype(int)
                continue
            self.values[spec.id] = np.where(acting, _unit_values(
                spec.type == VariableType.INTEGER, spec.scope.lo, spec.scope.width, raw), 0.0)


def _meta_features(domain: Domain, metas) -> dict:
    """Each meta variable's values in the meta components ``metas``:
    category indices for a meta-categorical variable, range-normalized
    values for a numeric one."""
    features = {}
    for mid in domain.meta_ids:
        spec = domain.spec(mid)
        if spec.type == VariableType.META_CATEGORICAL:
            features[mid] = np.array([spec.scope.index(m[mid]) for m in metas], dtype=int)
        else:
            features[mid] = np.array([normalize(spec.scope, m[mid]) for m in metas],
                                     dtype=float)
    return features


def _meta_slots(domain: Domain):
    """(config table, meta id) of each meta factor, in product order:
    numeric meta variables first, then categorical ones."""
    return sorted(((_MATRIX_TABLES[domain.spec(mid).type], mid) for mid in domain.meta_ids),
                  key=lambda slot: slot[0] == "meta_correlations")


def _unit_values(integer, lo, width, raw: np.ndarray) -> np.ndarray:
    """Range-normalized standard values, elementwise: (raw - lo) / width, or 0
    where the width is 0.  Integer values, where ``integer`` holds, are
    first rounded half away from zero.  ``integer``, ``lo`` and ``width``
    are scalars or arrays shaped like ``raw``."""
    if np.any(integer):
        raw = np.where(integer, np.where(raw >= 0, np.floor(raw + 0.5), np.ceil(raw - 0.5)),
                       raw)
    return np.divide(raw - lo, width, out=np.zeros(np.shape(raw)),
                     where=np.asarray(width) != 0)


def _squared_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pair tensor of a numeric factor, elementwise."""
    return (a - b) ** 2


def _pair_tensor(table: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pair tensor of one factor from two sets' values of its variable:
    whether the categories differ (correlation tables), or the squared
    difference."""
    if _SLOT_TABLES[table][0] == "raw":
        return a[:, None] != b[None, :]
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
        self.shape = (fa.n, fb.n)
        codes = {}
        code_a = np.array([codes.setdefault(k, len(codes)) for k in fa.metas], dtype=int)
        code_b = np.array([codes.setdefault(k, len(codes)) for k in fb.metas], dtype=int)
        self.same_meta = code_a[fa.which_meta][:, None] == code_b[fb.which_meta][None, :]
        self.slots = [(table, mid, _pair_tensor(table, fa.meta[mid], fb.meta[mid]), None)
                      for table, mid in _meta_slots(domain)]
        # A variable nonacting in every sample of either set has a factor of
        # exactly 1 everywhere, so it gets no slot.
        for vid in fa.acting:
            acting_a, acting_b = fa.acting[vid], fb.acting[vid]
            if acting_a.any() and acting_b.any():
                table = _MATRIX_TABLES[domain.spec(vid).type]
                mask = self.same_meta & acting_a[:, None] & acting_b[None, :]
                self.slots.append((table, vid,
                                   _pair_tensor(table, fa.values[vid], fb.values[vid]),
                                   mask))


def _correlation_factor(table: str, value, tensor: np.ndarray, out=None) -> np.ndarray:
    """One correlation factor, with the hyperparameter at ``value``, on the
    entries of its pair tensor that it is given.

    The tensor holds squared distances, or for correlation tables whether the
    two samples' categories differ.  ``value`` may also be an array that
    broadcasts against the tensor.  With ``out`` the factor is written there,
    a correlation table's only where the tensor is True: ``out`` holds 1 elsewhere.
    """
    if _SLOT_TABLES[table][0] == "raw":
        if out is None:
            return np.where(tensor, value, 1.0)
        np.copyto(out, value, where=tensor)
        return out
    if table == "ordinal_lengthscales":
        out = np.divide(tensor, -(2.0 * value ** 2), out=out)
    else:
        out = np.multiply(tensor, -value, out=out)
    return np.exp(out, out=out)


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
    :func:`fit_hyperparameters`.  :meth:`row_view` conditions further outputs
    on subsets of the same training points, predicted from the same
    cross-covariance.
    """

    def __init__(self, domain: Domain, points, values, config: KernelConfig):
        if len(points) != len(values) or not points:
            raise ValueError("need matching, nonempty points and values")
        self.domain = domain
        self.config = config
        self.points = list(points)
        self.values = np.asarray(values, dtype=float)
        _require_finite(self.values)
        self._features = SampleFeatures(domain, self.points)
        self._gram = config.signal_variance * correlation_matrix(
            PairTensors(domain, self._features, self._features), config)
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
        """Posterior means only (no variance solve), equal to predict_batch's."""
        kappa, count = _columns(self.cross_covariance(points))
        return np.sum(kappa * self.alpha[:, None], axis=0)[:count]


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
        code = {key: k for k, key in enumerate(train.metas)}.get(tuple(sorted(xm.items())), -1)
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
                _pair_tensor(table, train.values[vid][under], categorical[:, c]))
        specs = [domain.spec(v) for v in std_ids]
        self._slot = np.array([slot[v] for v in std_ids], dtype=int)
        self._integer = np.array([spec.type == VariableType.INTEGER for spec in specs],
                                 dtype=bool)
        self._lo = np.array([spec.scope.lo for spec in specs], dtype=float)
        self._width = np.array([spec.scope.width for spec in specs], dtype=float)
        self._weight = np.array([_config_value(config, _MATRIX_TABLES[spec.type], spec.id)
                                 for spec in specs], dtype=float)
        self._train = np.array([train.values[v][under] for v in std_ids]).reshape(
            len(std_ids), len(under))
        rows, column = np.indices(standard.shape).reshape(2, -1)
        self.factors[self._slot[column], :, rows] = self._standard(column, standard.ravel())

    def _posterior(self, model: GPModel, xm: MetaComponent, others: np.ndarray, views):
        """The pieces of :meth:`predict` that do not depend on the rows."""
        domain, config, train = model.domain, model.config, model._features
        own = _meta_features(domain, [xm])
        meta = [(table, mid, _pair_tensor(table, train.meta[mid][others], own[mid]), None)
                for table, mid in _meta_slots(domain)]
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
        unit = _unit_values(self._integer[column], self._lo[column], self._width[column],
                            values)
        tensor = _squared_difference(self._train[column], unit[:, None])
        # Integer and continuous weights enter the same formula.
        return _correlation_factor("continuous_weights", self._weight[column][:, None],
                                   tensor, out=tensor)

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
    """-1/2 y^T K^-1 y - 1/2 log|K| - n/2 log(2 pi), with the model's base jitter."""
    features = SampleFeatures(domain, points)
    pairs = PairTensors(domain, features, features)
    y = np.asarray(values, dtype=float)
    gram = config.signal_variance * correlation_matrix(pairs, config)
    _require_finite(gram, y)
    terms = _likelihood_terms(gram + config.jitter * np.eye(len(points)), y)
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


def _profiled_lml(quadratic: float, logdet: float, n: int):
    """(LML, signal variance) of a correlation matrix with the signal variance
    profiled out analytically, from its likelihood terms."""
    sigma2 = max(quadratic / n, 1e-12)
    lml = -0.5 * n * math.log(sigma2) - 0.5 * logdet - 0.5 * n * (1 + math.log(2 * math.pi))
    return float(lml), sigma2


class _FactorGroup:
    """The correlation factors of one group of lower-triangle entries.

    Row k of ``rows`` is the group's k-th factor on all of the group's
    entries: its tensor is neutral (a squared distance of 0, or no category
    difference) off the factor's support, where the factor is exactly 1.
    ``product``, a view of the fit's products buffer, multiplies the rows in
    correlation_matrix's factor order.  A rejected trial restores the row
    and the product it replaced from spares.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, slots, product: np.ndarray):
        self.rows = np.ones((len(slots), len(rows)))
        self.factors = []  # (table, tensor over the group, whether it has support)
        for table, _, tensor, mask in slots:
            entries = tensor[rows, cols]
            support = np.ones(len(rows), dtype=bool) if mask is None else mask[rows, cols]
            entries[~support] = 0
            self.factors.append((table, entries, bool(support.any())))
        self.product = product
        self.kept_row, self.kept_product = np.empty(len(rows)), np.empty(len(rows))

    def set(self, k: int, value: float):
        table, tensor, _ = self.factors[k]
        _correlation_factor(table, value, tensor, out=self.rows[k])

    def trial(self, k: int, value: float):
        np.copyto(self.kept_row, self.rows[k])
        np.copyto(self.kept_product, self.product)
        self.set(k, value)
        np.multiply.reduce(self.rows, axis=0, out=self.product)

    def restore(self, k: int):
        np.copyto(self.rows[k], self.kept_row)
        np.copyto(self.product, self.kept_product)


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

    Each hyperparameter enters exactly one correlation factor, and a trial
    move recomputes, in place, only that factor and the product of its
    group.  LAPACK potrf reads the lower triangle and the diagonal, so the
    search keeps the strict lower triangle's entries in two groups:

    - the meta group, on pairs with different meta components, holds the
      meta factors: every other factor is exactly 1 there;
    - the non-meta group, on same-meta pairs, holds every other factor, each
      exactly 1 off the pairs where its variable acts in both samples: every
      meta factor is exactly 1 there.

    Both groups' products share one buffer with the diagonal, where every
    factor is 1 and the entry is 1 plus the jitter fraction.  A trial
    scatters that buffer into a Fortran-ordered matrix, which one LAPACK
    posv call factorizes in place and solves against; every buffer is
    allocated once per fit.
    Products are taken in correlation_matrix's factor order and multiplying
    by an exact 1 changes nothing, so every likelihood is bit-identical to
    evaluating correlation_matrix on the trial config.  Finiteness is
    checked once, on ``values`` and the pair tensors.
    """
    check_counts({"starts": starts, "sweeps": sweeps}, ("starts",))
    if len(points) < 2:
        raise FittingError("hyperparameter fitting needs at least 2 samples")
    rng = np.random.default_rng(seed)
    base = default_kernel_config(domain, overrides=None if base is None else base.to_dict())
    slots = _config_slots(base)
    features = SampleFeatures(domain, points)
    pairs = PairTensors(domain, features, features)
    y = np.asarray(values, dtype=float)
    n = len(y)
    factors = pairs.slots
    _require_finite(y, *(tensor for _, _, tensor, _ in factors))

    # The strict lower triangle's entries, the meta group's first, then the
    # diagonal: every factor is 1 there, so it holds 1 plus the jitter.
    rows, cols = np.tril_indices(n, -1)
    same = pairs.same_meta[rows, cols]
    order = np.argsort(same, kind="stable")
    rows, cols = rows[order], cols[order]
    index = np.concatenate([rows + cols * n, np.arange(n) * (n + 1)])
    entries = np.full(len(index), 1.0 + JITTER_FRACTION)
    products = entries[:len(rows)]
    split = len(rows) - int(same.sum())
    groups = []
    factor_of = {}  # (table, key) -> (group, row)
    for part, members in ((slice(None, split), [f for f in factors if f[3] is None]),
                          (slice(split, None), [f for f in factors if f[3] is not None])):
        group = _FactorGroup(rows[part], cols[part], members, products[part])
        groups.append(group)
        for k, (table, key, _, _) in enumerate(members):
            # A factor without support is 1 off the diagonal: a meta factor
            # when all samples share one meta component, a non-meta one when
            # no two samples of one meta component both have its variable
            # acting.
            if group.factors[k][2]:
                factor_of[(table, key)] = (group, k)
    # A slot without a factor cannot change the likelihood, so the search
    # skips it.
    slot_factor = [factor_of.get((table, key)) for table, key, _, _ in slots]
    flat = np.empty(n * n)
    matrix = flat.reshape((n, n), order="F")
    logs = np.empty(n)

    def likelihood():
        flat[index] = entries
        terms = _likelihood_terms(matrix, y, overwrite=True, logs=logs)
        if terms is None:
            return -math.inf, None
        return _profiled_lml(*terms, n)

    def set_params(params):
        for i, value in enumerate(params):
            if slot_factor[i] is not None:
                group, k = slot_factor[i]
                group.set(k, value)
        for group in groups:
            np.multiply.reduce(group.rows, axis=0, out=group.product)

    def load(params):
        set_params(params)
        return likelihood()

    def build(params):
        config = default_kernel_config(domain)
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
        # Every parameter vector this start has evaluated: its value only
        # rises, so none of them can be accepted again.
        visited = {tuple(params)}
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
                    vector = (*params[:i], trial, *params[i + 1:])
                    if trial == params[i] or vector in visited:
                        continue
                    visited.add(vector)
                    group.trial(k, trial)
                    trial_value = likelihood()[0]
                    if trial_value > value:
                        params[i], value = trial, trial_value
                        moved = True
                        break
                    group.restore(k)
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
