"""Structure-revealing SVDs with reciprocal pairing and coupling matrices.

For a matrix in any of the four structure classes, every singular triplet
``(u, v, sigma)`` with sigma > 1 forces a partner triplet at ``1/sigma``
whose vectors are a fixed transform of ``(u, v)``:

* involutory            partner (v, u, 1/sigma)
* skew-involutory       partner (-v, u, 1/sigma)
* coninvolutory         partner (conj(v), conj(u), 1/sigma)
* skew-coninvolutory    partner (-conj(v), conj(u), 1/sigma)

All four laws are one statement, U = V T (involutory classes) or
U = conj(V) T (coninvolutory classes), with T the sparse coupling matrix
(T = -J in the skew-coninvolutory case).

:func:`restructure` rewrites an arbitrary SVD so this pairing is explicit,
and resolves the sigma = 1 cluster into signed or phase-free single
triplets (or sigma = 1 pairs in the skew-coninvolutory case).  Sorted,
lead i pairs with n-1-i and the cluster is the middle run.

Column layout of the results (the condensed block layout): pair leads,
delta singles, pair partners, eta singles, with Sigma = diag(S, I_delta,
S^-1, I_eta).  A :class:`StructuredSvd` holds only U, V, sigma, T and the
counts: the counts fix the layout, and T's diagonal carries each single's
sign or phase.  :func:`layout_columns` is the one source of the lead,
partner and single positions: :func:`layout_svd` places the columns with
it, and every consumer (the canonical transforms, the projector SVD, the
CLI report, :func:`paired_one_display`) indexes with it through
:meth:`StructuredSvd.columns`.  T is the only pattern matrix the library
builds: J and the 2x2 pair mixers are column arithmetic on these
positions.  :func:`layout_svd` is the one builder of this layout: every
result (:func:`restructure`, :func:`paired_one_display` and the
generator's ground truth) is assembled there from V, and U is formed from
V by the coupling law.  The canonical output always uses mu = 0 (no (1,1)
pairs for the unit singular values); :func:`paired_one_display` re-pairs
singles of opposite sign into (1,1) pairs for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DimensionError,
    InvalidInputError,
    CouplingError,
    PairingError,
    StructureViolationError,
    WrongClassError,
)
from .kernel import (
    as_square_matrix,
    hermitian_eig,
    skew_pair_unitary,
    svd as kernel_svd,
    takagi_symmetric_unitary,
)
from .structures import StructureClass, class_gate

@dataclass(frozen=True)
class StructureCounts:
    nu: int
    mu: int
    delta: int
    eta: int
    eta1: int
    eta2: int

    def as_tuple(self) -> Tuple[int, int, int, int, int, int]:
        return (self.nu, self.mu, self.delta, self.eta, self.eta1, self.eta2)


@dataclass
class StructuredSvd:
    """SVD of a structured matrix in the condensed block layout.

    ``sigma`` follows the block layout (not globally sorted): pair leads
    descending, then delta ones, then the reciprocals of the leads, then eta
    ones.  ``t`` is the exact sparse coupling matrix.  The counts fix the
    layout: :meth:`columns` gives the lead, partner and single positions,
    the first ``nu`` pairs are reciprocal pairs and the other ``mu`` are
    (1, 1) pairs.  Each single's sign (+-1) or unit phase sits on T's
    diagonal at its column, times 1j in the skew-involutory class.
    """

    structure: StructureClass
    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    t: np.ndarray
    counts: StructureCounts

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.conj().T

    def coupled_u(self) -> np.ndarray:
        """Right-hand side of the coupling law (V T or conj(V) T)."""
        base = self.v.conj() if self.structure.is_con else self.v
        return base @ self.t

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Layout positions ``(lead, part, single)``, see :func:`layout_columns`."""
        c = self.counts
        return layout_columns(c.nu + c.mu, c.delta, self.dim)


def reconstruction_residual(a, ssvd) -> float:
    """``||a - ssvd.reconstruct()|| / (n max(1, ||a||))`` for any SVD result."""
    a = np.asarray(a)
    n = a.shape[0]
    scale = n * max(1.0, float(np.linalg.norm(a)))
    return float(np.linalg.norm(a - ssvd.reconstruct())) / scale


def coupling_residual(ssvd: StructuredSvd) -> float:
    return float(np.linalg.norm(ssvd.u - ssvd.coupled_u())) / ssvd.dim


def split_singles(k: int) -> Tuple[int, int]:
    """(delta, eta) split of k singles: delta = ceil(k/2), eta = floor(k/2)."""
    return (k + 1) // 2, k // 2


def layout_columns(npairs: int, delta: int, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column positions ``(lead, part, single)`` of the condensed block layout.

    Pair j sits at columns ``(lead[j], part[j])``; the singles, delta then
    eta of them, sit at ``single`` in column order.
    """
    lead = np.arange(npairs)
    part = lead + npairs + delta
    single = np.concatenate(
        [np.arange(npairs, npairs + delta), np.arange(2 * npairs + delta, n)]
    )
    return lead, part, single


def layout_svd(
    structure: StructureClass, v: np.ndarray, lead_s, diag, mu: int = 0
) -> StructuredSvd:
    """Structured SVD in the condensed block layout, built from V.

    ``v`` holds its columns in layout order: the nu + mu pair leads, the
    delta singles, the pair partners, the eta singles.  ``lead_s`` holds the
    nu pair sigmas (the mu paired ones carry sigma 1), ``diag`` the signs
    (+-1) or unit phases of the delta + eta singles in column order.  T is
    the exact sparse coupling matrix, with diagonal ``1j * diag`` in the
    skew-involutory class and none in the skew-coninvolutory one, and U is
    formed from V by the coupling law U = V T or U = conj(V) T.  The counts
    take eta1/eta2 from the signs of ``diag`` (every coninvolutory single
    counts in eta1).
    """
    lead_s = np.asarray(lead_s, dtype=np.float64).ravel()
    diag = np.asarray(diag, dtype=np.complex128).ravel()
    nu, k = lead_s.size, diag.size
    if structure is StructureClass.SKEW_CONINVOLUTORY and k:
        raise InvalidInputError("skew-coninvolutory coupling has no singles")
    delta, eta = split_singles(k)
    npairs = nu + mu
    n = 2 * npairs + k
    lead, part, single = layout_columns(npairs, delta, n)

    t = np.zeros((n, n), dtype=np.complex128)
    t[part, lead] = 1.0
    t[lead, part] = -1.0 if structure.is_skew else 1.0
    t[single, single] = 1j * diag if structure is StructureClass.SKEW_INVOLUTORY else diag

    if structure is StructureClass.CONINVOLUTORY:
        eta1, eta2 = k, 0
    else:
        eta1 = int(np.count_nonzero(diag.real > 0))
        eta2 = int(np.count_nonzero(diag.real < 0))
    counts = StructureCounts(nu=nu, mu=mu, delta=delta, eta=eta, eta1=eta1, eta2=eta2)

    sigma = np.concatenate([lead_s, np.ones(mu + delta), 1.0 / lead_s, np.ones(mu + eta)])
    u = (v.conj() if structure.is_con else v) @ t
    return StructuredSvd(structure, u, v, sigma, t, counts)


def cluster_window(tol: float, sigma_max: float) -> float:
    """Half-width of the unit-cluster window around sigma = 1."""
    return max(tol, 1e-8) * max(1.0, sigma_max)


def pairing_spectrum_check(sigma, tol: float = 1e-10):
    """Match a sorted singular spectrum into reciprocal pairs and a 1-cluster.

    Sorted, lead i can only pair with its mirror n-1-i.  The cluster starts
    at the first mirrored pair with both values within :func:`cluster_window`
    of 1; every value before it must pair with its mirror, to the same window
    on the product.

    Returns ``(pairs, cluster)`` with pairs as index tuples into sigma.
    """
    sig = np.asarray(sigma, dtype=np.float64).ravel()
    n = sig.size
    if n == 0:
        raise DimensionError("empty spectrum")
    if np.any(sig <= 0.0) or not np.all(np.isfinite(sig)):
        raise InvalidInputError("singular values must be positive and finite")
    if np.any(np.diff(sig) > 0.0):
        raise InvalidInputError("singular values must be non-increasing")
    ctol = cluster_window(tol, float(sig[0]))
    inside = np.abs(sig - 1.0) <= ctol
    both = (inside & inside[::-1])[: (n + 1) // 2]
    has_cluster = bool(both.any())
    npairs = int(np.argmax(both)) if has_cluster else n // 2
    defect = np.abs(sig[:npairs] * sig[::-1][:npairs] - 1.0)
    bad = defect > ctol
    if bad.any():
        i = int(np.argmax(bad))
        orphan = max(sig[i], sig[n - 1 - i], key=lambda s: abs(s - 1.0))
        raise PairingError(
            f"singular value {float(orphan)!r} has no reciprocal partner "
            f"(product defect {defect[i]:.3e})",
            orphan=float(orphan),
        )
    if not has_cluster and n % 2:
        raise PairingError(
            f"singular value {float(sig[npairs])!r} has no reciprocal partner",
            orphan=float(sig[npairs]),
        )
    pairs = list(zip(range(npairs), range(n - 1, n - 1 - npairs, -1)))
    return pairs, list(range(npairs, n - npairs)) if has_cluster else []


def _structure_defect(m: np.ndarray, reference: np.ndarray, limit: float, what: str):
    defect = float(np.linalg.norm(m - reference))
    if defect > limit:
        raise StructureViolationError(
            f"restricted unit-cluster matrix is not {what}: "
            f"defect {defect:.3e} > {limit:.3e}",
            residual=defect,
        )


def restructure(a, structure: StructureClass, tol: float = 1e-10) -> StructuredSvd:
    """Structure-revealing SVD of a matrix in the given class.

    Pipeline: class gate, kernel SVD, reciprocal matching of the
    spectrum, then resolution of the sigma = 1 cluster on the span Q of its
    right singular vectors:

    * involutory / skew-involutory: Hermitian eigendecomposition of
      ``Q^H A Q`` (divided by 1j for skew) turns every cluster column into a
      signed single triplet (u, +-u, 1), or (u, -+1j u, 1) for skew;
    * coninvolutory: the antilinear involution x -> A conj(x) acts on the
      span of conj(Q) through the symmetric unitary ``M = Q^T A Q``; its
      closed-form Takagi factor ``M = F F^T`` (one real eigendecomposition,
      see :func:`takagi_symmetric_unitary`) gives phase-free singles
      ``u = conj(Q) F``, ``v = conj(u)`` (coneigenvectors for coneigenvalue 1);
    * skew-coninvolutory: the closed-form pairing ``M = F J F^T`` of the
      skew-symmetric unitary ``M = Q^T A Q`` (one Hermitian
      eigendecomposition, see :func:`skew_pair_unitary`) yields sigma = 1
      reciprocal pairs (no singles exist in this class).

    Only V is assembled: the pair leads from the kernel SVD, the singles,
    and each partner as the lead's left vector (conjugated in the
    coninvolutory classes).  U is formed from V by the coupling law in
    :func:`layout_svd`, so U = V T (or U = conj(V) T) holds exactly.
    """
    a = as_square_matrix(a)
    residual, accepted = class_gate(a, structure, tol)
    if not accepted:
        raise StructureViolationError(
            f"matrix is not {structure.value} at tolerance {tol:g} (residual {residual:.3e})",
            residual=residual,
        )
    n = a.shape[0]
    base = kernel_svd(a)
    pairs, cluster = pairing_spectrum_check(base.sigma, tol)
    npairs, k = len(pairs), len(cluster)
    lead_u, lead_v = base.u[:, :npairs], base.v[:, :npairs]
    lead_s = base.sigma[:npairs].astype(np.float64)
    tol_cluster = 100.0 * cluster_window(tol, float(base.sigma[0]))
    singles = np.zeros((n, 0), dtype=np.complex128)
    diag = np.zeros(0)

    if k:
        q = base.v[:, npairs : n - npairs]
        if structure is StructureClass.SKEW_CONINVOLUTORY:
            # the antilinear involution x -> A conj(x) restricts to the
            # conjugate of the right cluster span, where its matrix
            # Q^T A Q is skew-symmetric unitary
            g = q.conj() @ skew_pair_unitary(q.T @ a @ q, tol_cluster)
            half = k // 2
            lead_u = np.hstack([lead_u, g[:, :half]])
            lead_v = np.hstack([lead_v, g[:, half:].conj()])
            lead_s = np.concatenate([lead_s, np.ones(half)])
        elif structure is StructureClass.CONINVOLUTORY:
            # restricted antilinear involution: Q^T A Q is symmetric unitary,
            # and the singles u = conj(Q) F have v = conj(u)
            singles = q @ takagi_symmetric_unitary(q.T @ a @ q, tol_cluster).conj()
            diag = np.ones(k)
        else:
            m = q.conj().T @ a @ q
            if structure is StructureClass.SKEW_INVOLUTORY:
                m = m / 1j
            _structure_defect(m, m.conj().T, tol_cluster * k, "Hermitian")
            w, lam = hermitian_eig(m)
            if np.any(np.abs(np.abs(lam) - 1.0) > 0.1):
                raise StructureViolationError(
                    "unit-cluster eigenvalues are not close to +-1",
                    residual=float(np.max(np.abs(np.abs(lam) - 1.0))),
                )
            diag = np.where(lam >= 0.0, 1.0, -1.0)
            if structure is StructureClass.SKEW_INVOLUTORY:
                singles = (q @ w) * (-1j * diag)
            else:
                singles = (q @ w) * diag

    part_v = lead_u.conj() if structure.is_con else lead_u
    delta, _ = split_singles(diag.size)
    v = np.hstack([lead_v, singles[:, :delta], part_v, singles[:, delta:]])
    return layout_svd(structure, v, lead_s, diag)


def _snap_targets(structure: StructureClass, rows, cols, values):
    """Exact pattern values expected at nonzero positions.

    Returns ``(targets, valid)``; ``valid`` is False where no nonzero may
    sit (the diagonal of the skew-coninvolutory T).
    """
    targets = np.zeros(values.shape, dtype=np.complex128)
    valid = np.ones(values.shape, dtype=bool)
    on = rows == cols
    off = ~on
    if structure in (StructureClass.INVOLUTORY, StructureClass.CONINVOLUTORY):
        targets[off] = 1.0
    else:  # skew classes: -1 above the diagonal (lead -> partner), +1 below
        targets[off] = np.where(rows[off] < cols[off], -1.0, 1.0)
    diag = values[on]
    if structure is StructureClass.INVOLUTORY:
        targets[on] = np.where(diag.real > 0, 1.0, -1.0)
    elif structure is StructureClass.SKEW_INVOLUTORY:
        targets[on] = np.where(diag.imag > 0, 1j, -1j)
    elif structure is StructureClass.CONINVOLUTORY:
        # hypot and a division per part round exactly as value / abs(value)
        # of a Python complex does, which np.abs and complex division do not
        mag = np.hypot(diag.real, diag.imag)
        phase = np.empty_like(diag)
        phase.real, phase.imag = diag.real / mag, diag.imag / mag
        phase = np.where(np.abs(phase + 1.0) <= 1e-8, -1.0, phase)
        targets[on] = np.where(np.abs(phase - 1.0) <= 1e-8, 1.0, phase)
    else:  # skew-coninvolutory T has an empty diagonal
        valid[on] = False
    return targets, valid


def extract_T(u, v, structure: StructureClass, tol: float = 1e-10) -> np.ndarray:
    """Recover the exact coupling matrix from the unitary factors.

    Computes ``V^H U`` (involutory classes) or ``V^T U`` (coninvolutory
    classes), asserts the expected generalized-permutation sparsity pattern,
    and rounds the entries to exact values in {0, +-1, +-1j, unit phases}.
    """
    u = as_square_matrix(u)
    v = as_square_matrix(v)
    if u.shape != v.shape:
        raise DimensionError(f"factor shapes differ: {u.shape} vs {v.shape}")
    raw = (v.T @ u) if structure.is_con else (v.conj().T @ u)
    n = raw.shape[0]
    mags = np.abs(raw)
    big = mags > 0.5
    if np.any(big.sum(axis=0) != 1) or np.any(big.sum(axis=1) != 1):
        flat = int(np.argmax(mags * ~big))
        i, j = divmod(flat, n)
        raise CouplingError(
            "coupling matrix is not a generalized permutation",
            entry=(i, j),
            value=complex(raw[i, j]),
        )
    etol = max(tol, 1e-12)
    small = np.where(big, 0.0, mags)
    if small.max(initial=0.0) > etol:
        flat = int(np.argmax(small))
        i, j = divmod(flat, n)
        raise CouplingError(
            f"coupling entry ({i}, {j}) = {raw[i, j]:.3e} should vanish",
            entry=(i, j),
            value=complex(raw[i, j]),
        )
    rows, cols = np.nonzero(big)  # row-major order
    values = raw[rows, cols]
    targets, valid = _snap_targets(structure, rows, cols, values)
    bad = ~valid | (np.abs(values - targets) > etol)
    if bad.any():
        first = int(np.argmax(bad))
        i, j = int(rows[first]), int(cols[first])
        raise CouplingError(
            f"coupling entry ({i}, {j}) = {complex(raw[i, j])!r} violates the "
            f"{structure.value} pattern",
            entry=(i, j),
            value=complex(raw[i, j]),
        )
    snapped = np.zeros_like(raw)
    snapped[rows, cols] = targets
    return snapped


def paired_one_display(ssvd: StructuredSvd, mu: Optional[int] = None) -> StructuredSvd:
    """Re-pair opposite-sign singles into (1, 1) pairs, for display.

    Two singles (u+, +u+, 1) and (u-, -u-, 1) recombine into the paired
    triplets (t, s, 1) and (s, t, 1) with t = (u+ + u-)/sqrt(2) and
    s = (u+ - u-)/sqrt(2), reproducing the layout with mu > 0.  The result
    is an equally valid structured SVD; the canonical form with mu = 0
    carries strictly more eigenvalue information.
    """
    if ssvd.structure is not StructureClass.INVOLUTORY:
        raise WrongClassError("paired-one display applies to involutory matrices")
    if ssvd.counts.mu != 0:
        raise WrongClassError("input already carries paired ones")
    lead, part, single = ssvd.columns()
    signs = ssvd.t[single, single].real
    plus, minus = single[signs > 0], single[signs < 0]
    max_mu = min(plus.size, minus.size)
    mu = max_mu if mu is None else int(mu)
    if not 0 <= mu <= max_mu:
        raise InvalidInputError(f"mu must lie in [0, {max_mu}], got {mu}")
    u_plus, u_minus = ssvd.u[:, plus[:mu]], ssvd.u[:, minus[:mu]]
    tilde_u = (u_plus + u_minus) / math.sqrt(2.0)
    tilde_v = (u_plus - u_minus) / math.sqrt(2.0)
    rest = np.concatenate([plus[mu:], minus[mu:]])
    delta, _ = split_singles(rest.size)
    v = np.hstack(
        [
            ssvd.v[:, lead],
            tilde_v,
            ssvd.v[:, rest[:delta]],
            ssvd.v[:, part],
            tilde_u,
            ssvd.v[:, rest[delta:]],
        ]
    )
    return layout_svd(ssvd.structure, v, ssvd.sigma[lead], ssvd.t[rest, rest].real, mu)
