"""Structure-revealing SVDs of (skew-)involutory and (skew-)coninvolutory
matrices: reciprocal singular-value pairing, coupling matrices, condensed
canonical forms, (con)eigendecompositions, and projector factorizations."""

from .errors import (
    CouplingError,
    DimensionError,
    InvalidInputError,
    InvalidSpecError,
    InvolSvdError,
    MatrixFormatError,
    NumericalError,
    PairingError,
    StructureViolationError,
    WrongClassError,
)
from .kernel import SvdResult, svd
from .structures import ClassificationReport, GeneratorSpec, StructureClass, classify
from .structured_svd import (
    StructureCounts,
    StructuredSvd,
    coupling_residual,
    extract_T,
    paired_one_display,
    pairing_spectrum_check,
    reconstruction_residual,
    restructure,
)
from .generators import gen_consim, gen_structured, haar_unitary
from .canonical import (
    CanonicalForm,
    EigenDecomposition,
    canonical_form,
    canonical_residual,
    coneigen_singles,
    consim_to_identity,
    consim_to_minusJ,
    consimilarity_residual,
    eigen_residual,
    eigendecompose,
    minusj_residual,
)
from .projector import (
    ProjectorSvd,
    householder_singular_values,
    idempotency_residual,
    projector,
    projector_svd,
)
from .mmio import read_matrix, write_matrix, write_values

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "ClassificationReport",
    "CouplingError",
    "DimensionError",
    "EigenDecomposition",
    "GeneratorSpec",
    "InvalidInputError",
    "InvalidSpecError",
    "InvolSvdError",
    "MatrixFormatError",
    "NumericalError",
    "PairingError",
    "ProjectorSvd",
    "StructureClass",
    "StructureCounts",
    "StructureViolationError",
    "StructuredSvd",
    "SvdResult",
    "WrongClassError",
    "canonical_form",
    "canonical_residual",
    "classify",
    "coneigen_singles",
    "consim_to_identity",
    "consim_to_minusJ",
    "consimilarity_residual",
    "coupling_residual",
    "eigen_residual",
    "eigendecompose",
    "extract_T",
    "gen_consim",
    "gen_structured",
    "haar_unitary",
    "householder_singular_values",
    "idempotency_residual",
    "minusj_residual",
    "paired_one_display",
    "pairing_spectrum_check",
    "projector",
    "projector_svd",
    "read_matrix",
    "reconstruction_residual",
    "restructure",
    "svd",
    "write_matrix",
    "write_values",
]
