"""Exact spectra of compact flat manifolds built from the integer torus.

The package constructs Bieberbach groups over the canonical lattice Z^n,
validates torsion-freeness, and computes multiplicities of Hodge-Laplacian
eigenvalues on p-forms exactly (eigenvalues are 4*pi^2*mu for integer mu).

Only the documented API is exported here; every other name is reached
through its module, and the cross-check oracles only as flatspec.oracles.
"""

from .corpus import example
from .crystal import (
    AffineGenerator,
    GroupDefinition,
    HWMatrix,
    build_hw_group,
    first_homology,
    validate_bieberbach,
)
from .exact_linear import FlatspecError, InternalError, LimitError, UsageError, trace_p
from .isospec import compare_spectra
from .spectral import betti_row, multiplicity, multiplicity_table

__version__ = "0.1.0"

__all__ = [
    "AffineGenerator",
    "FlatspecError",
    "GroupDefinition",
    "HWMatrix",
    "InternalError",
    "LimitError",
    "UsageError",
    "betti_row",
    "build_hw_group",
    "compare_spectra",
    "example",
    "first_homology",
    "multiplicity",
    "multiplicity_table",
    "trace_p",
    "validate_bieberbach",
]
