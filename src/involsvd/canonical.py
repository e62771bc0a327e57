"""Condensed canonical forms and (con)eigendecompositions.

Every structured SVD yields the condensed matrix ``T Sigma`` to which the
input is unitarily (con)similar; ``T Sigma`` lies in the same structure
class and exposes all singular values and (con)eigenvalue counts.  Writing
``S = S^(1/2) S^(1/2)`` further turns the pairing into plain similarity with
an explicit mixer, which gives the eigendecomposition (involutory classes),
a transform realizing consimilarity to the identity (coninvolutory), or to
-J (skew-coninvolutory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import WrongClassError
from .kernel import j_matrix
from .structures import StructureClass
from .structured_svd import StructuredSvd

UNITARY_SIMILARITY = "unitary_similarity"
UNITARY_CONSIMILARITY = "unitary_consimilarity"


@dataclass
class CanonicalForm:
    """Condensed matrix plus the transform realizing the (con)similarity."""

    t_sigma: np.ndarray
    transform: np.ndarray
    kind: str


def canonical_form(ssvd: StructuredSvd) -> CanonicalForm:
    """Assemble the condensed canonical form T Sigma.

    The involutory classes give ``a = V (T Sigma) V^H`` (unitary
    similarity); the coninvolutory classes give ``a = conj(V) (T Sigma) V^H``
    (unitary consimilarity, with T Sigma = -J Sigma in the skew case).
    """
    t_sigma = ssvd.t @ np.diag(ssvd.sigma.astype(np.complex128))
    kind = UNITARY_CONSIMILARITY if ssvd.structure.is_con else UNITARY_SIMILARITY
    return CanonicalForm(t_sigma=t_sigma, transform=ssvd.v.copy(), kind=kind)


def canonical_residual(a, form: CanonicalForm) -> float:
    """Normalized residual of the canonical factorization."""
    a = np.asarray(a)
    v = form.transform
    left = v.conj() if form.kind == UNITARY_CONSIMILARITY else v
    recon = left @ form.t_sigma @ v.conj().T
    n = a.shape[0]
    return float(np.linalg.norm(a - recon)) / (n * max(1.0, float(np.linalg.norm(a))))


@dataclass
class EigenDecomposition:
    """``a @ x = x @ diag(eigenvalues)`` with eigenvalues in {+1,-1} or {+1j,-1j}."""

    x: np.ndarray
    eigenvalues: np.ndarray
    n_plus: int
    n_minus: int


def _pair_scaling(ssvd: StructuredSvd) -> np.ndarray:
    """Column scaling diag(..., sigma^-1/2 at leads, sigma^+1/2 at partners)."""
    lead, part, _ = ssvd.columns()
    s = ssvd.sigma[lead]
    scale = np.ones(ssvd.dim)
    scale[lead] = s ** -0.5
    scale[part] = s ** 0.5
    return scale


def eigendecompose(ssvd: StructuredSvd) -> EigenDecomposition:
    """Eigendecomposition of an involutory or skew-involutory matrix.

    Built as X = Z P with Z = V diag(S^-1/2, I, S^1/2, I) and P the explicit
    orthogonal (or unitary, in the skew case) mixer that diagonalizes the
    coupling pattern: each reciprocal pair contributes one eigenvalue of
    each sign, each single contributes its own sign.
    """
    if ssvd.structure not in (StructureClass.INVOLUTORY, StructureClass.SKEW_INVOLUTORY):
        raise WrongClassError(
            f"eigendecompose needs an involutory class, got {ssvd.structure.value}"
        )
    n = ssvd.dim
    skew = ssvd.structure is StructureClass.SKEW_INVOLUTORY
    z = ssvd.v * _pair_scaling(ssvd)
    lead, part, single = ssvd.columns()
    npairs = lead.size
    # pair j: columns 2j, 2j+1 are (e_lead + conj(lam) e_part) / sqrt(2)
    lam = np.tile(np.array([1j, -1j] if skew else [-1.0, 1.0]), npairs)
    cols = np.arange(2 * npairs)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    mixer = np.zeros((n, n), dtype=np.complex128)
    mixer[lead.repeat(2), cols] = inv_sqrt2
    mixer[part.repeat(2), cols] = lam.conj() * inv_sqrt2
    mixer[single, np.arange(2 * npairs, n)] = 1.0
    # each single contributes its own +-1, or +-1j in the skew case
    eigenvalues = np.concatenate([lam, ssvd.t[single, single]])
    x = z @ mixer
    key = eigenvalues.imag if skew else eigenvalues.real
    n_plus = int(np.count_nonzero(key > 0))
    return EigenDecomposition(
        x=x, eigenvalues=eigenvalues, n_plus=n_plus, n_minus=n - n_plus
    )


def eigen_residual(a, eig: EigenDecomposition) -> float:
    """Raw Frobenius residual ``||a x - x diag(lam)||``."""
    a = np.asarray(a)
    return float(np.linalg.norm(a @ eig.x - eig.x * eig.eigenvalues))


def consim_to_identity(ssvd: StructuredSvd) -> np.ndarray:
    """Transform S with ``a = S @ conj(S)^-1`` for a coninvolutory matrix.

    S = conj(Z) P^H where Z carries the S^(+-1/2) scaling and the unitary P
    satisfies P T P^T = I (its diagonal blocks absorb any single phases as
    their inverse square roots).
    """
    if ssvd.structure is not StructureClass.CONINVOLUTORY:
        raise WrongClassError(
            f"consim_to_identity needs coninvolutory, got {ssvd.structure.value}"
        )
    n = ssvd.dim
    z = ssvd.v * _pair_scaling(ssvd)
    lead, part, single = ssvd.columns()
    npairs, k = lead.size, single.size
    rows = np.arange(npairs)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    p = np.zeros((n, n), dtype=np.complex128)
    p[rows, lead] = inv_sqrt2
    p[rows, part] = inv_sqrt2
    p[npairs + np.arange(k), single] = 1.0 / np.sqrt(ssvd.t[single, single])
    p[npairs + k + rows, lead] = -1j * inv_sqrt2
    p[npairs + k + rows, part] = 1j * inv_sqrt2
    return z.conj() @ p.conj().T


def consimilarity_residual(a, s: np.ndarray) -> float:
    """Raw residual ``||a - s @ conj(s)^-1||`` (computed with one solve)."""
    a = np.asarray(a)
    recon = np.linalg.solve(s.conj().T, s.T).T
    return float(np.linalg.norm(a - recon))


def consim_to_minusJ(ssvd: StructuredSvd) -> np.ndarray:
    """Transform Z with ``a = -conj(Z) @ J @ Z^-1`` (skew-coninvolutory).

    Uses J Sigma = diag(S^-1/2, S^1/2) J diag(S^1/2, S^-1/2), hence
    Z = V diag(S^-1/2, S^1/2).
    """
    if ssvd.structure is not StructureClass.SKEW_CONINVOLUTORY:
        raise WrongClassError(
            f"consim_to_minusJ needs skew-coninvolutory, got {ssvd.structure.value}"
        )
    return ssvd.v * _pair_scaling(ssvd)


def minusj_residual(a, z: np.ndarray) -> float:
    """Raw residual ``||a + conj(z) @ J @ z^-1||`` (one solve)."""
    a = np.asarray(a)
    n = z.shape[0]
    zj = z.conj() @ j_matrix(n // 2)
    recon = np.linalg.solve(z.T, zj.T).T
    return float(np.linalg.norm(a + recon))


def coneigen_singles(ssvd: StructuredSvd) -> List[Tuple[np.ndarray, float]]:
    """Coneigenvectors for coneigenvalue +1 from the single triplets.

    A single (q, e^(i a) conj(q), 1), with e^(i a) its entry on T's
    diagonal, means ``A conj(q) = e^(-i a) q``; rescaling by e^(-i a / 2)
    normalizes the coneigenvalue to exactly +1, so every returned pair is
    (vector, 1.0).
    """
    if ssvd.structure is not StructureClass.CONINVOLUTORY:
        raise WrongClassError(
            f"coneigen_singles needs coninvolutory, got {ssvd.structure.value}"
        )
    _, _, single = ssvd.columns()
    alpha = np.angle(ssvd.t[single, single]) % (2.0 * math.pi)
    vectors = np.exp(-0.5j * alpha)[:, None] * ssvd.u[:, single].T
    return [(q, 1.0) for q in vectors]
