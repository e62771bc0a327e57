"""Random structured matrices with exact ground truth.

The primary generator builds ``A = V (T Sigma) V^H`` (or the conjugated
variants) from a Haar-random unitary V, so every structured quantity the
library recovers is known in advance.  The secondary generators
(``gen_consim`` and the exponential route through
:func:`involsvd.kernel.matexp_skewfactor`) construct class members without
touching the canonical-form machinery, which keeps classifier tests
non-circular.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .errors import InvalidSpecError
from .kernel import as_square_matrix, j_matrix
from .structures import GeneratorSpec, StructureClass
from .structured_svd import StructuredSvd, layout_svd


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    R diagonal phases absorbed into Q."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    phases = diag / np.abs(diag)
    return q * phases


def gen_structured(
    structure: StructureClass,
    spec: GeneratorSpec,
    *,
    transform: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, StructuredSvd]:
    """Random member of the class with prescribed spectral structure.

    Returns ``(a, truth)`` where truth is a valid :class:`StructuredSvd`
    of ``a`` with exactly the prescribed counts.  ``transform`` overrides
    the Haar-random unitary V (useful for reproducing closed-form cases).
    """
    spec.validate(structure)
    rng = np.random.default_rng(spec.seed)
    if transform is not None:
        v = as_square_matrix(transform)
        if v.shape[0] != spec.n:
            raise InvalidSpecError(
                f"transform is {v.shape[0]}x{v.shape[1]}, spec wants n={spec.n}"
            )
    else:
        v = haar_unitary(spec.n, rng)
    lead_s = np.sort(np.asarray(spec.sigmas, dtype=np.float64))[::-1]
    if structure is StructureClass.CONINVOLUTORY:
        diag = np.exp(1j * spec.single_phases())
    else:  # empty in the skew-coninvolutory class, which has no singles
        diag = spec.single_signs()
    truth = layout_svd(structure, v, lead_s, diag)
    return truth.reconstruct(), truth


def gen_consim(
    structure: StructureClass,
    n: int,
    seed: int = 0,
    *,
    transform: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Consimilarity-based generator for the coninvolutory classes.

    Returns ``S @ conj(S)^-1`` (coninvolutory, consimilar to the identity)
    or ``S @ (-J) @ conj(S)^-1`` (skew-coninvolutory, consimilar to -J) for
    a random well-conditioned S.  Independent of the canonical-form
    construction, so it validates the classifiers without circularity.
    """
    if structure not in (StructureClass.CONINVOLUTORY, StructureClass.SKEW_CONINVOLUTORY):
        raise InvalidSpecError(f"gen_consim does not support {structure.value}")
    if n < 1:
        raise InvalidSpecError(f"dimension must be positive, got {n}")
    if structure is StructureClass.SKEW_CONINVOLUTORY and n % 2 != 0:
        raise InvalidSpecError("skew-coninvolutory matrices exist only in even dimension")
    if transform is not None:
        s = as_square_matrix(transform)
        if s.shape[0] != n:
            raise InvalidSpecError(f"transform is {s.shape[0]}x{s.shape[1]}, expected n={n}")
    else:
        rng = np.random.default_rng(seed)
        # singular values in [1, 2] keep cond(S) <= 2
        s = (haar_unitary(n, rng) * rng.uniform(1.0, 2.0, size=n)) @ haar_unitary(n, rng)
    if structure is StructureClass.CONINVOLUTORY:
        target = s
    else:
        target = -s @ j_matrix(n // 2)
    # a = target @ conj(s)^-1 via one solve on the transpose
    return np.linalg.solve(s.conj().T, target.T).T
