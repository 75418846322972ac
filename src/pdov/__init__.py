"""Numerics for the Poisson-Dirichlet distribution under symmetric
overdominant selection: homozygosity moments, tilted-measure series,
phase classification, rate functions, and Monte Carlo cross-checks."""

from . import coefficients, ldp, mc, moments, tilted
from .errors import DomainError, PrecisionError
from .model import SelectionSpec

__version__ = "0.1.0"

__all__ = [
    "coefficients",
    "moments",
    "tilted",
    "mc",
    "ldp",
    "SelectionSpec",
    "DomainError",
    "PrecisionError",
    "__version__",
]
