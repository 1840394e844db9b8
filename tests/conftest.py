import collections
import dataclasses
import json
import math

import numpy as np
import pytest

import metabox as mb
from metabox.blackbox import barrier_value
from metabox.domain import denormalize


def parse_bundled(name):
    """A bundled problem, parsed the way the README shows."""
    return mb.parse_problem_file(mb.bundled_problem_path(name))


def parse_wide_mlp():
    """The bundled mlp problem with layer count 0..3, so the boundary and
    interior neighborhood cases exist."""
    document = json.loads(mb.bundled_problem_path("mlp").read_text())
    layers = next(v for v in document["variables"] if v.get("id") == "l")
    layers["scope"] = {"lo": 0, "hi": 3}
    return mb.parse_problem(document)


@pytest.fixture(scope="session")
def mlp_parsed():
    return parse_bundled("mlp")


@pytest.fixture(scope="session")
def mlp_problem(mlp_parsed):
    return mlp_parsed.problem


@pytest.fixture(scope="session")
def mlp_domain(mlp_parsed):
    return mlp_parsed.domain


@pytest.fixture(scope="session")
def wide_mlp_parsed():
    return parse_wide_mlp()


@pytest.fixture(scope="session")
def wide_mlp_domain(wide_mlp_parsed):
    return wide_mlp_parsed.domain


@pytest.fixture(scope="session")
def toy_parsed():
    return parse_bundled("toy")


@pytest.fixture(scope="session")
def toy_problem(toy_parsed):
    return toy_parsed.problem


@pytest.fixture(scope="session")
def toy_brute_force(toy_problem):
    """Independent oracle: exhaustive enumeration under the extreme barrier."""
    evaluator = mb.Evaluator(toy_problem, 10_000)
    best = None
    for point in mb.enumerate_domain_points(toy_problem.domain):
        record = evaluator.evaluate(point)
        value = barrier_value(record)
        if best is None or value < best[0]:
            best = (value, point)
    return best


class ScalarKernel:
    """Covariance of one pair of points, or of one component of a pair,
    under a domain and a config.

    Every value is :func:`metabox.gp.correlation_matrix` on a 1 x 1 pair, so
    the kernel formulas live only there.  A component method pairs points
    that share the meta component ``xm`` and hold only that component, so
    every other factor is exactly 1.
    """

    def __init__(self, domain, config):
        self.domain = domain
        self.config = config

    def _correlation(self, x, y):
        gp = mb.gp
        fa = gp.SampleFeatures(self.domain, [x])
        fb = gp.SampleFeatures(self.domain, [y])
        return float(gp.correlation_matrix(gp.PairTensors(self.domain, fa, fb),
                                           self.config)[0, 0])

    def _component(self, group, xm, a, b):
        """Correlation of two components over the acting set of ``group``."""
        ids = self.domain.acting_index_set(xm, group)
        if set(a) != set(ids) or set(b) != set(ids):
            raise mb.KernelDomainError(
                f"{group} components must cover the acting set {ids}")
        if group == "categorical":
            return self._correlation(mb.Point(xm, a, {}), mb.Point(xm, b, {}))
        return self._correlation(mb.Point(xm, {}, a), mb.Point(xm, {}, b))

    def k_continuous(self, xc, yc, xm):
        """exp(-sum of weighted squared differences) over acting continuous variables."""
        return self._component("continuous", xm, xc, yc)

    def k_integer(self, xz, yz, xm):
        """Like the continuous kernel after rounding relaxed values half away
        from zero, making each one-dimensional factor piecewise constant."""
        return self._component("integer", xm, xz, yz)

    def k_standard(self, xs, ys, xm):
        """Product of the integer and continuous kernels."""
        return self._component("standard", xm, xs, ys)

    def k_categorical(self, xq, yq, xm):
        """Compound-symmetry and ordinal-index factors."""
        return self._component("categorical", xm, xq, yq)

    def k_mixed(self, x, y):
        """Full covariance between two points.

        Categorical and standard factors enter only when both points share
        the same meta component; otherwise the meta factors stand alone.
        """
        return self.config.signal_variance * self._correlation(x, y)


def random_point(domain, rng, metas=None):
    """Uniform draw over a domain with enumerable meta set."""
    metas = metas or domain.enumerate_meta_set()
    xm = metas[int(rng.integers(len(metas)))]
    partial = {}
    for vid in domain.acting_index_set(xm, "categorical"):
        partial[vid] = int(rng.integers(1, domain.spec(vid).scope.size + 1))
    for vid in domain.acting_index_set(xm, "standard"):
        partial[vid] = denormalize(domain.spec(vid).scope, float(rng.random()))
    return domain.complete_point(xm, partial)


def row_arrays(domain, xm, points):
    """(categorical, standard) rows of Points under xm, columns in acting-set
    order, as the acquisition scores them."""
    cat_ids = domain.acting_index_set(xm, "categorical")
    std_ids = domain.acting_index_set(xm, "standard")
    return (np.array([[p.categorical[v] for v in cat_ids] for p in points],
                     dtype=int).reshape(len(points), len(cat_ids)),
            np.array([[p.standard[v] for v in std_ids] for p in points],
                     dtype=float).reshape(len(points), len(std_ids)))


def uniform_random_search(problem, budget, seed):
    """Baseline sampler: best extreme-barrier value of seeded uniform draws."""
    evaluator = mb.Evaluator(problem, budget)
    rng = np.random.default_rng(seed)
    metas = problem.domain.enumerate_meta_set()
    best = None
    while evaluator.budget.remaining > 0:
        record = evaluator.evaluate(random_point(problem.domain, rng, metas))
        value = barrier_value(record)
        if best is None or value < best:
            best = value
    return best


def nan_objective_at_k2(problem):
    """The toy problem with a blackbox that returns NaN wherever k == 2."""
    def objective(point):
        value, constraint_values = problem.objective(point)
        return (math.nan if point.standard["k"] == 2 else value), constraint_values
    return dataclasses.replace(problem, objective=objective)


def charged_failures(history):
    """Charged (not cached) failed evaluations per cache key."""
    return collections.Counter(mb.cache_key(r.point) for r in history
                               if r.error is not None and not r.cached)


def toy_with_k_cap(constant):
    """The bundled toy problem plus the analytic global constraint
    ``k + constant <= 0``: its start point (k = 2, the scope midpoint) is
    screened when ``constant > -2``."""
    document = json.loads(mb.bundled_problem_path("toy").read_text())
    document["constraints"].append({"id": "k_cap", "role": "global",
                                    "analytic": {"terms": [[1, "k"]], "constant": constant}})
    return document
