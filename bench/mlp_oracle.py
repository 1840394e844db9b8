"""Standard-library re-implementation of the ``mlp_proxy`` blackbox.

Written from the problem file alone: the objective comes from its
``metadata`` block (per-layer unit targets, optimizer base values,
activation gaps and per-optimizer normalized continuous targets, with
``t0`` on a log10 scale) and the constraints from its ``constraints`` list
(linear bodies, ``$name`` constants, decree atoms).  It imports nothing
from the package it checks.

Run as a script it is a subprocess blackbox speaking the JSON protocol::

    python3 bench/mlp_oracle.py problem.json < payload.json

It reads one payload object on stdin and writes
``{"objective": ..., "constraints": {}}`` on stdout.  The mlp problem has no
blackbox-bodied constraints, so the constraint map is always empty.
"""

from __future__ import annotations

import json
import math
import sys

#: Squared unit deviations are scaled by this many units (part of the proxy's
#: definition; the problem file does not record it).
UNIT_SCALE = 100.0
#: Variables normalized on a log10 scale (the metadata's ``notes``).
LOG_SCALED = ("t0",)


class MLPOracle:
    """Objective, constraint values and feasibility of mlp points."""

    def __init__(self, document: dict):
        meta = document["metadata"]
        self.unit_targets = [float(t) for t in meta["unit_targets"]]
        self.optimizer_base = meta["optimizer_base"]
        self.activation_gap = meta["activation_gap"]
        self.targets = meta["normalized_continuous_targets"]
        self.scopes = {v["id"]: v["scope"] for v in document["variables"] if "id" in v}
        self.constants = document.get("constants", {})
        self.constraints = document["constraints"]

    @classmethod
    def from_file(cls, path) -> "MLPOracle":
        with open(path) as fh:
            return cls(json.load(fh))

    def _normalized(self, vid: str, value: float) -> float:
        scope = self.scopes[vid]
        if vid in LOG_SCALED:
            lo, hi = math.log10(scope["lo"]), math.log10(scope["hi"])
            return (math.log10(value) - lo) / (hi - lo)
        return (value - scope["lo"]) / (scope["hi"] - scope["lo"])

    def objective(self, meta: dict, categorical: dict, standard: dict) -> float:
        """Proxy value; categorical values are labels, as on the wire."""
        layers, optimizer = meta["l"], meta["o"]
        value = self.optimizer_base[optimizer] + self.activation_gap[categorical["a"]]
        for i in range(1, layers + 1):
            value += ((standard[f"u{i}"] - self.unit_targets[i - 1]) / UNIT_SCALE) ** 2
        for vid, target in self.targets[optimizer].items():
            value += (self._normalized(vid, standard[vid]) - target) ** 2
        return value

    def _number(self, value) -> float:
        if isinstance(value, str):
            sign = -1.0 if value.startswith("-") else 1.0
            return sign * float(self.constants[value.lstrip("-").lstrip("$")])
        return float(value)

    def _acting(self, constraint: dict, meta: dict) -> bool:
        for atom in constraint.get("decree", []):
            if atom["kind"] == "threshold" and not meta[atom["meta"]] >= atom["min"]:
                return False
            if atom["kind"] == "membership" and meta[atom["meta"]] not in atom["allowed"]:
                return False
        return True

    def constraint_values(self, meta: dict, standard: dict) -> dict:
        """Values of the acting analytic constraints (terms over nonacting
        variables drop out)."""
        values = {}
        for c in self.constraints:
            if not self._acting(c, meta):
                continue
            body = c["analytic"]
            value = self._number(body.get("constant", 0.0))
            for coefficient, vid in body["terms"]:
                if vid in standard:
                    value += self._number(coefficient) * standard[vid]
            values[c["id"]] = value
        return values

    def feasible(self, meta: dict, standard: dict) -> bool:
        return all(v <= 0.0 for v in self.constraint_values(meta, standard).values())


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: mlp_oracle.py PROBLEM_FILE < payload.json", file=sys.stderr)
        return 1
    oracle = MLPOracle.from_file(argv[1])
    payload = json.load(sys.stdin)
    value = oracle.objective(payload["meta"], payload["categorical"], payload["standard"])
    json.dump({"objective": value, "constraints": {}}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
