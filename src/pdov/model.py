"""Selection/mutation parameterization shared by the series and MC modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["SelectionSpec"]


@dataclass(frozen=True)
class SelectionSpec:
    """Selection scale lam > 0 and mutation theta in (0, 1].

    The tilt exponent is sigma = lam * log(theta) <= 0 (overdominant or
    neutral regime only); x = -sigma is the scale of all series work.
    """

    lam: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise DomainError(f"lam must be finite and > 0, got {self.lam}")
        if not (0.0 < self.theta <= 1.0):
            raise DomainError(f"theta must lie in (0, 1], got {self.theta}")
        if not math.isfinite(self.sigma):
            raise DomainError(
                f"x = lam log(1/theta) overflows at lam={self.lam}, theta={self.theta}"
            )

    @property
    def sigma(self) -> float:
        return self.lam * math.log(self.theta)

    @property
    def x(self) -> float:
        return -self.sigma
