"""Random structured matrices with exact ground truth.

The primary generator builds ``A = V (T Sigma) V^H`` (or the conjugated
variants) from a Haar-random unitary V, so every structured quantity the
library recovers is known in advance.  The secondary generator
``gen_consim`` constructs class members without touching the
canonical-form machinery, which keeps classifier tests non-circular.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import InvalidSpecError
from .structures import GeneratorSpec, StructureClass, _ODD_SKEW_CON, _check_size, _check_structure
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
    structure: StructureClass, spec: GeneratorSpec
) -> Tuple[np.ndarray, StructuredSvd]:
    """Random member of the class with prescribed spectral structure.

    Returns ``(a, truth)`` where truth is a valid :class:`StructuredSvd` of
    ``a`` with exactly the prescribed counts, built from a Haar-random V.
    """
    spec.validate(structure)
    v = haar_unitary(spec.n, np.random.default_rng(spec.seed))
    lead_s = np.sort(np.asarray(spec.sigmas, dtype=np.float64))[::-1]
    diag = np.repeat([1.0, -1.0], [spec.eta1, spec.eta2])  # signs; none in skew-coninvolutory
    if structure is StructureClass.CONINVOLUTORY and spec.phases is not None:
        diag = np.exp(1j * np.asarray(spec.phases, dtype=np.float64))
    truth = layout_svd(structure, v, lead_s, diag)
    return truth.reconstruct(), truth


def gen_consim(structure: StructureClass, n: int, seed: int = 0) -> np.ndarray:
    """Consimilarity-based generator for the coninvolutory classes.

    Returns ``S @ conj(S)^-1`` (coninvolutory, consimilar to the identity)
    or ``S @ (-J) @ conj(S)^-1`` (skew-coninvolutory, consimilar to -J) for
    a random well-conditioned S.  Independent of the canonical-form
    construction, so it validates the classifiers without circularity.
    """
    _check_structure(structure)
    if structure not in (StructureClass.CONINVOLUTORY, StructureClass.SKEW_CONINVOLUTORY):
        raise InvalidSpecError(f"gen_consim does not support {structure.value}")
    _check_size(n, seed)
    if structure is StructureClass.SKEW_CONINVOLUTORY and n % 2 != 0:
        raise InvalidSpecError(_ODD_SKEW_CON)
    rng = np.random.default_rng(seed)
    # singular values in [1, 2] keep cond(S) <= 2
    s = (haar_unitary(n, rng) * rng.uniform(1.0, 2.0, size=n)) @ haar_unitary(n, rng)
    if structure is StructureClass.CONINVOLUTORY:
        target = s
    else:  # -s @ J as a column swap
        target = np.hstack([s[:, n // 2 :], -s[:, : n // 2]])
    # a = target @ conj(s)^-1 via one solve on the transpose, copied, not returned as a view
    return np.linalg.solve(s.conj().T, target.T).T.copy()
