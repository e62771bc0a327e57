"""Condensed canonical forms and (con)eigendecompositions.

Every structured SVD yields the condensed matrix ``T Sigma`` to which the
input is unitarily (con)similar; ``T Sigma`` lies in the same structure
class and exposes all singular values and (con)eigenvalue counts.  Writing
``S = S^(1/2) S^(1/2)`` further turns the pairing into plain similarity,
each pair's two columns mixed in closed form: the eigendecomposition
(involutory classes), a transform realizing consimilarity to the identity
(coninvolutory), or to -J (skew-coninvolutory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .kernel import _frobenius, _square_like
from .structures import StructureClass, _require
from .structured_svd import StructuredSvd


@dataclass
class CanonicalForm:
    """Condensed matrix ``t_sigma`` plus the ``transform`` V realizing
    ``a = V* (T Sigma) V^H`` (see :func:`canonical_form`)."""

    t_sigma: np.ndarray
    transform: np.ndarray


def canonical_form(ssvd: StructuredSvd) -> CanonicalForm:
    """Assemble the condensed canonical form T Sigma.

    ``a = V* (T Sigma) V^H`` is a unitary similarity in the involutory
    classes (V* = V) and a unitary consimilarity in the coninvolutory ones
    (V* = conj(V), with T Sigma = -J Sigma in the skew case); ``transform`` is the record's V.
    """
    t_sigma = ssvd.t * ssvd.sigma
    return CanonicalForm(t_sigma=t_sigma, transform=ssvd.v)


@dataclass
class EigenDecomposition:
    """``a @ x = x @ diag(eigenvalues)`` with eigenvalues in {+1,-1} or {+1j,-1j}."""

    x: np.ndarray
    eigenvalues: np.ndarray
    n_plus: int
    n_minus: int


def _scaled_v(ssvd: StructuredSvd):
    """Z = V diag(..., sigma^-1/2 at leads, sigma^+1/2 at partners), and the
    layout positions ``(lead, part, single)``."""
    lead, part, single = ssvd.columns()
    s = ssvd.sigma.take(lead)
    scale = np.ones(ssvd.dim)
    scale[lead], scale[part] = np.power(s, -0.5), np.sqrt(s)
    return ssvd.v * scale, lead, part, single


def eigendecompose(ssvd: StructuredSvd) -> EigenDecomposition:
    """Eigendecomposition of an involutory or skew-involutory matrix.

    With Z = V diag(S^-1/2, I, S^1/2, I), each pair (lead, partner) mixes
    into two eigenvector columns ``(z_lead + conj(lam) z_part) / sqrt(2)``,
    one for each sign of lam = +-omega, and each single column of Z is an
    eigenvector for its own T entry omega d, its eigenvalue read off T's
    diagonal as it is.  So ``n_plus`` counts the pairs and the eta1 singles.
    """
    involutory = (StructureClass.INVOLUTORY, StructureClass.SKEW_INVOLUTORY)
    _require(ssvd.structure, involutory, "eigendecompose needs an involutory class")
    skew = ssvd.structure is StructureClass.SKEW_INVOLUTORY
    z, lead, part, single = _scaled_v(ssvd)
    p = 2 * lead.size  # pair j: columns 2j, 2j+1
    pair_x, eigenvalues = np.empty((len(z), p), z.dtype), np.empty(len(z), complex)
    z_lead, z_part = z.take(lead, axis=1), z.take(part, axis=1)
    for first, lam in enumerate((1j, -1j) if skew else (-1.0, 1.0)):
        pair_x[:, first::2] = (z_lead + lam.conjugate() * z_part) / math.sqrt(2.0)
        eigenvalues[first:p:2] = lam
    x = np.concatenate([pair_x, z.take(single, axis=1)], axis=1)
    eigenvalues[p:] = ssvd.t.diagonal()[single]
    n_plus = lead.size + ssvd.counts.eta1
    return EigenDecomposition(
        x=x, eigenvalues=eigenvalues, n_plus=n_plus, n_minus=ssvd.dim - n_plus
    )


def _single_coneigenvectors(ssvd: StructuredSvd) -> np.ndarray:
    """Each single's coneigenvector for coneigenvalue +1 as a column x =
    ``conj(v) conj(1 / sqrt(phase))``: ``A v = conj(v) phase`` gives ``A conj(x) = x``."""
    single, phase = ssvd.singles()
    return ssvd.v.take(single, axis=1).conj() * np.conj(1.0 / np.sqrt(phase))


def eigen_residual(a, eig: EigenDecomposition) -> float:
    """Raw Frobenius residual ``||a x - x diag(lam)||``."""
    a = _square_like(a, eig.x)
    return _frobenius(a @ eig.x - eig.x * eig.eigenvalues)


def consim_to_identity(ssvd: StructuredSvd) -> np.ndarray:
    """Transform S with ``a = S @ conj(S)^-1`` for a coninvolutory matrix.

    With Z = V diag(S^-1/2, I, S^1/2, I), the columns of S are, in order,
    ``(conj(z_lead) + conj(z_part)) / sqrt(2)`` per pair, each single's
    coneigenvector for coneigenvalue +1 (the vectors :func:`coneigen_singles` returns),
    and ``1j (conj(z_lead) - conj(z_part)) / sqrt(2)`` per pair.
    """
    _require(ssvd.structure, (StructureClass.CONINVOLUTORY,),
             "consim_to_identity needs coninvolutory")
    z, lead, part, _ = _scaled_v(ssvd)
    zc = z.conj()
    z_lead, z_part, r2 = zc.take(lead, axis=1), zc.take(part, axis=1), math.sqrt(2.0)
    singles = _single_coneigenvectors(ssvd)
    return np.concatenate([(z_lead + z_part) / r2, singles, 1j * (z_lead - z_part) / r2], axis=1)


def consimilarity_residual(a, s: np.ndarray) -> float:
    """Raw residual ``||a - s @ conj(s)^-1||`` (computed with one solve)."""
    a = _square_like(a, s)
    recon = np.linalg.solve(s.conj().T, s.T).T
    return _frobenius(a - recon)


def consim_to_minusJ(ssvd: StructuredSvd) -> np.ndarray:
    """Transform Z with ``a = -conj(Z) @ J @ Z^-1`` (skew-coninvolutory).

    Uses J Sigma = diag(S^-1/2, S^1/2) J diag(S^1/2, S^-1/2), hence
    Z = V diag(S^-1/2, S^1/2).
    """
    _require(ssvd.structure, (StructureClass.SKEW_CONINVOLUTORY,),
             "consim_to_minusJ needs skew-coninvolutory")
    return _scaled_v(ssvd)[0]


def minusj_residual(a, z: np.ndarray) -> float:
    """Raw residual ``||a + conj(z) @ J @ z^-1||`` (one solve)."""
    a = _square_like(a, z)
    k = z.shape[0] // 2
    zj = np.hstack([-z[:, k:], z[:, :k]]).conj()  # conj(z) @ J, a column swap
    recon = np.linalg.solve(z.T, zj.T).T
    return _frobenius(a + recon)


def coneigen_singles(ssvd: StructuredSvd) -> List[Tuple[np.ndarray, float]]:
    """Coneigenvectors for coneigenvalue +1 from the single triplets.

    A single (conj(v) e^(i a), v, 1), with e^(i a) its entry on T's diagonal, gives
    ``A v = conj(v) e^(i a)``; rescaling conj(v) by the principal square root of e^(i a)
    normalizes the coneigenvalue to exactly +1, so every returned pair is (vector, 1.0).
    The vectors are S's single columns in :func:`consim_to_identity`.
    """
    _require(ssvd.structure, (StructureClass.CONINVOLUTORY,),
             "coneigen_singles needs coninvolutory")
    return [(q, 1.0) for q in _single_coneigenvectors(ssvd).T.copy()]  # C-contiguous rows
