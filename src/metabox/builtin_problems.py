"""Builtin blackbox objectives, bound by name from problem files.

The problems themselves are defined only by the bundled files
``data/mlp.json`` and ``data/toy.json``; a file's ``blackbox.builtin`` names
one of the objective factories here, which receives the parsed domain.

``mlp_proxy`` scores the hyperparameter search space of a small MLP
(learning rate, activation, hidden layers with per-layer unit counts, and an
optimizer choice decreeing its own continuous settings) with a deterministic
separable objective whose global minimum is analytically known.  No network
is trained; the objective is a closed-form stand-in over the same space.

``toy_discrete`` looks values up in a table over a fully finite mixed domain,
small enough to brute-force, used as an exactness oracle for the solvers.
"""

from __future__ import annotations

import math
import random

from .domain import Domain, MetaComponent, Point, enumerate_domain_points

# ---------------------------------------------------------------------------
# MLP hyperparameter space and proxy objective
# ---------------------------------------------------------------------------

MLP_UNIT_TARGETS = (150, 120, 110)
MLP_OPTIMIZER_BASE = {"Adam": 0.0, "ASGD": 0.05}
MLP_ACTIVATION_GAP = {"ReLU": 0.0, "Sigmoid": 0.1}
#: Normalized-scale minimizer coordinates of the proxy, per optimizer.  These
#: are also recorded in data/mlp.json so external tooling sees the same values.
MLP_CONTINUOUS_TARGETS = {
    "Adam": {"r": 0.25, "beta1": 0.9, "beta2": 0.75, "eps": 0.1},
    "ASGD": {"r": 0.4, "lam": 0.3, "alpha": 0.6, "t0": 0.5},
}


def mlp_normalized(domain: Domain, point: Point, vid: str) -> float:
    """Continuous value mapped to [0, 1]; the averaging-start is log-scaled."""
    value = point.standard[vid]
    if vid == "t0":
        scope = domain.spec(vid).scope
        return (math.log10(value) - math.log10(scope.lo)) / (
            math.log10(scope.hi) - math.log10(scope.lo))
    scope = domain.spec(vid).scope
    return (value - scope.lo) / (scope.hi - scope.lo)


def _mlp_objective_factory(domain: Domain):
    def objective(point: Point):
        l = point.meta["l"]
        if l not in (2, 3):
            raise ValueError(f"proxy objective defined for 2 or 3 hidden layers, got {l}")
        optimizer = point.meta["o"]
        activation = domain.spec("a").scope.label(point.categorical["a"])
        value = MLP_OPTIMIZER_BASE[optimizer] + MLP_ACTIVATION_GAP[activation]
        for i in range(1, l + 1):
            value += ((point.standard[f"u{i}"] - MLP_UNIT_TARGETS[i - 1]) / 100.0) ** 2
        for vid, target in MLP_CONTINUOUS_TARGETS[optimizer].items():
            value += (mlp_normalized(domain, point, vid) - target) ** 2
        return value, {}
    return objective


def mlp_minimizer(domain: Domain) -> Point:
    """The analytic global minimizer of the proxy (objective value 0)."""
    targets = MLP_CONTINUOUS_TARGETS["Adam"]
    return Point(MetaComponent({"l": 2, "o": "Adam"}),
                 {"a": 1},
                 {"u1": 150, "u2": 120, "r": targets["r"], "beta1": targets["beta1"],
                  "beta2": targets["beta2"], "eps": targets["eps"]})


# ---------------------------------------------------------------------------
# Finite toy problem
# ---------------------------------------------------------------------------

def _toy_combo(point: Point):
    nominal = point.categorical.get("pA", point.categorical.get("pB"))
    return (point.meta["m"], nominal, point.categorical["s"])




def toy_table(domain: Domain) -> dict:
    """Objective table over all 60 points of the toy domain; values are
    distinct by construction.

    Per (meta, nominal, ordinal) combo the values form a parabola in the
    integer variable with a combo-specific center, plus a tiny per-point
    tie-breaker, so the minimum is unique.
    """
    points = enumerate_domain_points(domain)
    combos = []
    for point in points:
        combo = _toy_combo(point)
        if combo not in combos:
            combos.append(combo)
    bases = list(range(len(combos)))
    random.Random(2718).shuffle(bases)
    table = {}
    for index, point in enumerate(points):
        j = combos.index(_toy_combo(point))
        center = (2 * j + 1) % 5
        value = 3.0 * bases[j] + (point.standard["k"] - center) ** 2 + index * 1e-6
        table[point] = value
    if len(set(table.values())) != len(table):
        raise AssertionError("toy table values must be distinct")
    return table


def _toy_objective_factory(domain: Domain):
    table = None

    def objective(point: Point):
        nonlocal table
        if table is None:  # built on first call, so parsing stays cheap
            table = toy_table(domain)
        value = table[point]
        # The branch cap (k - 2 <= 0 under m=B) comes from the backend to
        # exercise the blackbox-bodied constraint path.
        if point.meta["m"] == "B":
            return value, {"branch_cap": float(point.standard["k"] - 2)}
        return value, {}
    return objective
