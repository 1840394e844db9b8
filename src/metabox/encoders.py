"""Encoders mapping categorical components to quantitative vectors.

Each acting categorical variable becomes a block of reals; distinct
categorical components decreed by one meta component encode to distinct
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain, MetaComponent, VariableType
from .errors import DecreeViolationError, ShapeError

KINDS = ("identity", "one-hot", "ordinal-index")


@dataclass(frozen=True)
class Encoder:
    """Encode acting categorical variables, declaration order.

    identity: 1-based category index passthrough (no real encoding; pairs
    with matrix-mode kernels).  one-hot: nominal variables become unit basis
    vectors, ordinal variables keep their index so the order survives.
    ordinal-index: every variable becomes its level index as a float.
    """

    domain: Domain
    kind: str = "identity"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeError(f"unknown encoder kind {self.kind!r}; expected one of {KINDS}")

    def width(self, var_id: str) -> int:
        spec = self.domain.spec(var_id)
        if self.kind == "one-hot" and spec.type == VariableType.NOMINAL:
            return spec.scope.size
        return 1

    def encode_variable(self, var_id: str, index: int) -> np.ndarray:
        spec = self.domain.spec(var_id)
        if self.kind == "one-hot" and spec.type == VariableType.NOMINAL:
            block = np.zeros(spec.scope.size)
            block[index - 1] = 1.0
            return block
        return np.array([float(index)])

    def encode(self, xq: dict, xm: MetaComponent) -> np.ndarray:
        ids = self.domain.acting_index_set(xm, "categorical")
        extra = set(xq) - set(ids)
        if extra:
            raise DecreeViolationError(
                f"component contains nonacting variables {sorted(extra)}")
        missing = set(ids) - set(xq)
        if missing:
            raise DecreeViolationError(
                f"component is missing acting variables {sorted(missing)}")
        if not ids:
            return np.empty(0)
        return np.concatenate([self.encode_variable(vid, xq[vid]) for vid in ids])
