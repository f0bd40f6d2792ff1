"""Minimal relative dg Lie algebra models over exact rationals.

Construction of minimal relative models for maps of simply connected dg Lie
algebras, exact inversion of relative quasi-isomorphisms, and the homotopy
(rel base) equivalence decision for relative automorphisms, all over
arbitrary-precision rational arithmetic.
"""

from .dg import (
    DGLAMorphism,
    Element,
    FiniteDimDGLA,
    HomologyData,
    QuasiFreeDGLA,
    induced_map_on_homology,
    validate,
)
from .errors import DglaError
from .freelie import FreeGLA, GradedGenerator, LiePoly, bracket
from .homotopy import (
    DerComplexData,
    RelDerivation,
    Verdict,
    are_homotopic_rel,
    derivation_basis,
    exp_derivation,
    log_unipotent,
    pi0_report,
)
from .invert import FilteredEndo, invert_relative_quasi_iso, is_relative_automorphism
from .linalg import (
    Matrix,
    Subspace,
    kernel_basis,
    membership,
)
from .minimal import (
    MinimalityReport,
    RelativeModel,
    Stage,
    build_minimal_model,
    is_minimal,
    verify_model,
)

__all__ = [
    "DGLAMorphism",
    "DerComplexData",
    "DglaError",
    "Element",
    "FilteredEndo",
    "FiniteDimDGLA",
    "FreeGLA",
    "GradedGenerator",
    "HomologyData",
    "LiePoly",
    "Matrix",
    "MinimalityReport",
    "QuasiFreeDGLA",
    "RelDerivation",
    "RelativeModel",
    "Stage",
    "Subspace",
    "Verdict",
    "are_homotopic_rel",
    "bracket",
    "build_minimal_model",
    "derivation_basis",
    "exp_derivation",
    "induced_map_on_homology",
    "invert_relative_quasi_iso",
    "is_minimal",
    "is_relative_automorphism",
    "kernel_basis",
    "log_unipotent",
    "membership",
    "pi0_report",
    "validate",
    "verify_model",
]

__version__ = "0.1.0"
