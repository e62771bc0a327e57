"""Structure-revealing SVDs with reciprocal pairing and coupling matrices.

For a matrix in any of the four structure classes, every singular triplet
``(u, v, sigma)`` with sigma > 1 forces a partner triplet at ``1/sigma``
whose vectors are a fixed transform of ``(u, v)``:

* involutory            partner (v, u, 1/sigma)
* skew-involutory       partner (-v, u, 1/sigma)
* coninvolutory         partner (conj(v), conj(u), 1/sigma)
* skew-coninvolutory    partner (-conj(v), conj(u), 1/sigma)

All four laws are one statement, U = V* T, with T the sparse coupling
matrix (T = -J in the skew-coninvolutory case) and V* =
:meth:`StructureClass.star` of V: conj(V) in the coninvolutory classes, V
in the others.

:func:`restructure` rewrites an arbitrary SVD so this pairing is explicit,
and resolves the sigma = 1 cluster into signed or phase-free single
triplets (or sigma = 1 pairs in the skew-coninvolutory case).  Sorted,
lead i pairs with n-1-i and the cluster is the middle run.

Column layout of the results (the condensed block layout): pair leads,
delta singles, pair partners, eta singles, with Sigma = diag(S, I_delta,
S^-1, I_eta).  A :class:`StructuredSvd` holds only U, V, sigma, T and the
counts, which fix the layout; T's diagonal carries each single's sign or
phase.  :func:`layout_columns` is the one source of the column positions
(read through :meth:`StructuredSvd.columns`) and :func:`layout_svd` the
one builder: every result is assembled there from V, with U formed by the
coupling law.  T is the only pattern matrix the library builds, in one
function that :func:`extract_T` also rebuilds it with, so a cyclic pattern
is refused.  The canonical output uses mu = 0; :func:`paired_one_display`
re-pairs opposite-sign singles for display.
"""

from __future__ import annotations

import functools
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
    _frobenius,
    as_square_matrix,
    hermitian_eig,
    skew_pair_unitary,
    svd as kernel_svd,
    takagi_symmetric_unitary,
)
from .structures import StructureClass, _check_tol, class_gate

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
    diagonal at its column, times the class's omega.
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
    """``||U - V* T|| / n``, the defect of the coupling law."""
    return float(np.linalg.norm(ssvd.u - ssvd.structure.star(ssvd.v) @ ssvd.t)) / ssvd.dim


def split_singles(k: int) -> Tuple[int, int]:
    """(delta, eta) split of k singles: delta = ceil(k/2), eta = floor(k/2)."""
    return (k + 1) // 2, k // 2


@functools.lru_cache(maxsize=256)
def layout_columns(npairs: int, delta: int, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column positions ``(lead, part, single)`` of the condensed block layout.

    Pair j sits at columns ``(lead[j], part[j])``; the singles, delta then
    eta of them, sit at ``single`` in column order.  The arrays are cached
    and read-only, as every record of the same layout shares them.
    """
    positions = np.arange(n)
    positions.setflags(write=False)  # so are its views lead and part
    lead, part = positions[:npairs], positions[npairs + delta : 2 * npairs + delta]
    single = np.concatenate([positions[npairs : npairs + delta], positions[2 * npairs + delta :]])
    single.setflags(write=False)
    return lead, part, single


def _coupling(structure: StructureClass, n: int, lead, part, single, diag) -> np.ndarray:
    """T: 1 at (part, lead), omega^2 at (lead, part), and omega times each single's
    sign or phase ``diag`` on the diagonal, so that ``T T* = omega^2 I``."""
    omega = structure.omega
    t = np.zeros((n, n), dtype=np.complex128)
    t[part, lead] = 1.0
    t[lead, part] = omega ** 2
    t[single, single] = omega * diag
    return t


def layout_svd(
    structure: StructureClass, v: np.ndarray, lead_s, diag, mu: int = 0
) -> StructuredSvd:
    """Structured SVD in the condensed block layout, built from V.

    ``v`` holds its columns in layout order: the nu + mu pair leads, the
    delta singles, the pair partners, the eta singles.  ``lead_s`` holds the
    nu pair sigmas (the mu paired ones carry sigma 1), ``diag`` the signs
    (+-1) or unit phases of the delta + eta singles in column order.  T is
    the exact sparse coupling matrix of :func:`_coupling`, with omega^2 above
    the diagonal in each pair and diagonal ``omega * diag`` (none in the
    skew-coninvolutory class), and U is formed from V by the coupling law
    U = V* T.  The counts take eta1/eta2 from the signs of ``diag`` (every
    coninvolutory single counts in eta1).
    """
    lead_s = np.asarray(lead_s, dtype=np.float64).ravel()
    diag = np.asarray(diag, dtype=np.complex128).ravel()
    nu, k = lead_s.size, diag.size
    if structure is StructureClass.SKEW_CONINVOLUTORY and k:
        raise InvalidInputError("skew-coninvolutory coupling has no singles")
    delta, eta = split_singles(k)
    npairs = nu + mu
    n = 2 * npairs + k
    t = _coupling(structure, n, *layout_columns(npairs, delta, n), diag)

    if structure is StructureClass.CONINVOLUTORY:
        eta1, eta2 = k, 0
    else:
        eta1 = int(np.count_nonzero(diag.real > 0))
        eta2 = int(np.count_nonzero(diag.real < 0))
    counts = StructureCounts(nu=nu, mu=mu, delta=delta, eta=eta, eta1=eta1, eta2=eta2)

    sigma = np.ones(n)
    sigma[:nu], sigma[npairs + delta : npairs + delta + nu] = lead_s, 1.0 / lead_s
    u = structure.star(v) @ t
    return StructuredSvd(structure, u, v, sigma, t, counts)


def _svd_floor(n: int, sigma_max: float) -> float:
    """Backward error of the kernel SVD on each singular value (Weyl's bound)."""
    return 64.0 * n * float(np.finfo(np.float64).eps) * max(1.0, sigma_max)


def _couple_distances(sig: np.ndarray):
    """Per mirrored couple (i, n-1-i): max |sigma - 1|, |sigma_(n-1-i) - 1/sigma_i|, sigma_i."""
    half = (sig.size + 1) // 2
    lead, mirror = sig[:half], sig[::-1][:half]
    unit = abs(sig - 1.0)
    return np.maximum(unit[:half], unit[::-1][:half]), abs(mirror - 1.0 / lead), lead


def pairing_spectrum_check(sigma, floor: Optional[float] = None, width=0.0):
    """Match a sorted singular spectrum into reciprocal pairs and a 1-cluster.

    Sorted, lead i can only pair with its mirror n-1-i.  ``width`` is the class
    defect each mirrored couple sees (one value, or one per couple), which moves
    sigma_i sigma_(n-1-i) off 1 by about as much: the partner must lie within
    ``floor + width / sigma_i`` of 1/sigma_i.  The cluster starts at the first
    couple with both values within ``floor + width`` of 1, where a pair looks
    like two unit singles and is read as them.  ``floor`` defaults to the
    kernel SVD's backward error.  A width decides only a couple whose distance from 1
    lies in ``(floor, floor + width]`` or partner defect in ``(floor, floor + width / sigma_i]``.

    Returns ``(pairs, cluster)`` with pairs as index tuples into sigma.
    """
    sig = np.asarray(sigma, dtype=np.float64).ravel()
    n = sig.size
    if n == 0:
        raise DimensionError("empty spectrum")
    if not (sig.min() > 0.0 and sig.max() < np.inf):  # a NaN is the min and the max
        raise InvalidInputError("singular values must be positive and finite")
    if (sig[1:] > sig[:-1]).any():
        raise InvalidInputError("singular values must be non-increasing")
    floor = _svd_floor(n, float(sig[0])) if floor is None else floor
    dist, partner, lead = _couple_distances(sig)
    single = dist <= floor + width
    has_cluster = bool(single.any())
    npairs = int(single.argmax()) if has_cluster else n // 2
    bad = (partner > floor + width / lead)[:npairs]
    if bad.any():
        i = int(bad.argmax())
        orphan = max(sig[i], sig[n - 1 - i], key=lambda s: abs(s - 1.0))
        raise PairingError(
            f"singular value {float(orphan)!r} has no reciprocal partner "
            f"(partner defect {partner[i]:.3e})",
            orphan=float(orphan),
        )
    if not has_cluster and n % 2:
        raise PairingError(
            f"singular value {float(sig[npairs])!r} has no reciprocal partner",
            orphan=float(sig[npairs]),
        )
    pairs = list(zip(range(npairs), range(n - 1, n - 1 - npairs, -1)))
    return pairs, list(range(npairs, n - npairs)) if has_cluster else []


def _couple_widths(a: np.ndarray, structure: StructureClass, base) -> np.ndarray:
    """``||X^H (A A* - omega^2 I) X||_F`` on the right vectors X of each mirrored couple, from
    ``A A* x = sigma A w`` (x, w = v*, u*); on the couple, it keeps out the
    eps sigma_max^2 that A draws from the rounding of the vectors."""
    xh, w = structure.star(base.v.conj()), structure.star(base.u)
    e = (a @ w) * base.sigma - (structure.omega ** 2).real * xh.conj()
    both = np.abs(np.einsum("ij,ij->j", xh, e)) ** 2
    both += np.abs(np.einsum("ij,ij->j", xh, e[:, ::-1])) ** 2
    squares = (both + both[::-1])[: (base.sigma.size + 1) // 2]
    if base.sigma.size % 2:  # the middle value, its own couple, holds |x^H E x|^2 four times
        squares[-1] /= 4.0
    return np.sqrt(squares)


def _structure_defect(defect: float, limit: float, what: str):
    if defect > limit:
        raise StructureViolationError(
            f"restricted unit-cluster matrix is not {what}: defect {defect:.3e} > {limit:.3e}",
            residual=defect,
        )


def restructure(a, structure: StructureClass, tol: float = 1e-10) -> StructuredSvd:
    """Structure-revealing SVD of a matrix in the given class.

    Pipeline: class gate, kernel SVD, reciprocal matching of the
    spectrum, then resolution of the sigma = 1 cluster on the span Q of its
    right singular vectors:

    * involutory / skew-involutory: the eigenvectors u of the Hermitian
      ``Q^H A Q / omega`` give singles (u, d u / omega, 1) with sign d = +-1;
    * coninvolutory: the Takagi factor ``M = F F^T`` of the symmetric unitary
      ``M = Q^T A Q`` (:func:`takagi_symmetric_unitary`) gives phase-free
      singles ``u = conj(Q) F``, ``v = conj(u)`` (coneigenvectors);
    * skew-coninvolutory: the pairing ``M = F J F^T`` of the skew-symmetric
      unitary ``M = Q^T A Q`` (:func:`skew_pair_unitary`) gives sigma = 1 pairs.

    ``tol`` only gates the class; the result does not depend on it.  The floor
    is the SVD's backward error ``64 n eps s`` (Weyl) plus the gate's defect
    ``||A A* - omega^2 I||_F / s`` (``A*`` = A or conj(A), ``s = max(1, sigma_max)``);
    each couple adds that defect on its own vectors, and where a pair looks like
    two unit singles it is read as them (:func:`pairing_spectrum_check`).  The
    width, ``||X^H E X||_F`` (E = A A* - omega^2 I) on the couple's right vectors X (one
    vector for the middle value of an odd spectrum, its own couple), is at most
    ``||E||_F`` plus rounding from the SVD's backward error times sigma_max (E x is
    formed as ``sigma A u``), the product and the gate's ``A A*``, each well under
    ``64 n^2 eps s^2``; so ``M = 2 (defect + 64 n^2 eps s^2)`` bounds every width, and they are
    computed only if a couple lies within ``floor + M`` (``floor + M / sigma_i``) of
    a decision: width 0 decides the same everywhere else.
    Restricted checks allow 100 times the floor or the cluster's spread from 1.
    A zero singular value (no class member has one) is a :class:`PairingError`.

    Only V is assembled: the pair leads from the kernel SVD, the singles,
    and each partner as the lead's left vector u*; :func:`layout_svd` forms
    U = V* T exactly.  Every branch reads the cluster through the one
    restricted matrix ``M = (Q*)^H A Q``.
    """
    a = as_square_matrix(a)
    defect, residual, accepted = class_gate(a, structure, tol)
    if not accepted:
        raise StructureViolationError(
            f"matrix is not {structure.value} at tolerance {tol:g} (residual {residual:.3e})",
            residual=residual,
        )
    n = a.shape[0]
    base = kernel_svd(a)
    scale = max(1.0, float(base.sigma[0]))
    floor = _svd_floor(n, scale) + defect / scale
    if base.sigma[-1] == 0.0:  # a gate at a loose tol lets a singular matrix in
        raise PairingError("singular value 0.0 has no reciprocal partner", orphan=0.0)
    width = 0.0
    dist, partner, lead = _couple_distances(base.sigma)
    m = 2.0 * (defect + scale * _svd_floor(n * n, scale))  # M, above every width
    if ((floor < dist) & (dist <= floor + m)
            | (floor < partner) & (partner <= floor + m / lead)).any():
        width = _couple_widths(a, structure, base)
    pairs, cluster = pairing_spectrum_check(base.sigma, floor, width)
    npairs, k = len(pairs), len(cluster)
    lead_u, lead_v = base.u[:, :npairs], base.v[:, :npairs]
    lead_s = base.sigma[:npairs]
    singles = np.zeros((n, 0), dtype=np.complex128)
    diag = np.zeros(0)

    if k:
        q = base.v[:, npairs : n - npairs]
        limit = 100.0 * max(floor, float(abs(base.sigma[npairs : n - npairs] - 1.0).max()))
        m = structure.star(q).conj().T @ a @ q
        if structure is StructureClass.SKEW_CONINVOLUTORY:
            # x -> A conj(x) restricts to conj(Q) as the skew-symmetric unitary Q^T A Q
            g = q.conj() @ skew_pair_unitary(m, limit)
            half = k // 2
            lead_u = np.hstack([lead_u, g[:, :half]])
            lead_v = np.hstack([lead_v, g[:, half:].conj()])
            lead_s = np.concatenate([lead_s, np.ones(half)])
        elif structure is StructureClass.CONINVOLUTORY:
            # restricted antilinear involution: Q^T A Q is symmetric unitary,
            # and the singles u = conj(Q) F have v = conj(u)
            singles = q @ takagi_symmetric_unitary(m, limit).conj()
            diag = np.ones(k)
        else:
            m = m / structure.omega
            _structure_defect(_frobenius(m - m.conj().T), limit * k, "Hermitian")
            w, lam = hermitian_eig(m)
            # each single's sign is read off its eigenvalue, nearer +-1 than 0
            _structure_defect(float(np.max(1.0 - np.abs(lam))), 0.5, "signable")
            diag = np.where(lam >= 0.0, 1.0, -1.0)
            singles = (q @ w) * (diag / structure.omega)

    delta, _ = split_singles(diag.size)
    v = np.concatenate(
        [lead_v, singles[:, :delta], structure.star(lead_u), singles[:, delta:]], axis=1
    )
    return layout_svd(structure, v, lead_s, diag)


def extract_T(u, v, structure: StructureClass, tol: float = 1e-10) -> np.ndarray:
    """Recover the exact coupling matrix from the unitary factors.

    ``(V*)^H U`` (``V^H U`` or ``V^T U``, see :meth:`StructureClass.star`)
    must be a generalized permutation, other entries at most ``etol =
    max(tol, 1e-12)``.  Its pairs (below the diagonal) and its singles,
    snapped to omega times a sign (the sign of ``Re(x / omega)``) or to a unit
    phase (to +-1 within etol), rebuild T as :func:`layout_svd` does, within
    etol; a cyclic pattern is refused.  A NaN, infinite or negative ``tol``
    raises :class:`InvalidInputError`.
    """
    _check_tol(tol)
    u, v = as_square_matrix(u), as_square_matrix(v)
    if u.shape != v.shape:
        raise DimensionError(f"factor shapes differ: {u.shape} vs {v.shape}")
    raw = structure.star(v.conj()).T @ u
    small = abs(raw)
    big = small > 0.5
    small[big] = 0.0
    etol = max(tol, 1e-12)
    permutation = (big.sum(axis=0) == 1).all() and (big.sum(axis=1) == 1).all()
    if not permutation or small.max() > etol:
        i, j = divmod(int(small.argmax()), raw.shape[0])
        raise CouplingError(
            f"coupling entry ({i}, {j}) = {raw[i, j]:.3e} should vanish" if permutation
            else "coupling matrix is not a generalized permutation",
            entry=(i, j),
            value=complex(raw[i, j]),
        )
    rows, cols = np.nonzero(big)  # row-major order
    below, single = rows > cols, rows[rows == cols]
    diag = raw[single, single]
    if structure is StructureClass.CONINVOLUTORY:
        # hypot and a division per part round exactly as value / abs(value)
        # of a Python complex does, which np.abs and complex division do not
        mag = np.hypot(diag.real, diag.imag)
        phase = np.empty_like(diag)
        phase.real, phase.imag = diag.real / mag, diag.imag / mag
        phase = np.where(np.abs(phase + 1.0) <= etol, -1.0, phase)
        diag = np.where(np.abs(phase - 1.0) <= etol, 1.0, phase)
    elif structure is StructureClass.SKEW_CONINVOLUTORY:  # no singles: one rebuilds as 0, refused
        diag = np.zeros(single.size)
    else:
        diag = np.where((diag / structure.omega).real > 0, 1.0, -1.0)
    t = _coupling(structure, raw.shape[0], cols[below], rows[below], single, diag)
    targets = t[rows, cols]
    bad = (targets == 0) | (abs(raw[rows, cols] - targets) > etol)
    if bad.any():
        first = int(bad.argmax())
        i, j = int(rows[first]), int(cols[first])
        raise CouplingError(
            f"coupling entry ({i}, {j}) = {complex(raw[i, j])!r} violates the "
            f"{structure.value} pattern",
            entry=(i, j),
            value=complex(raw[i, j]),
        )
    return t


def paired_one_display(ssvd: StructuredSvd, mu: Optional[int] = None) -> StructuredSvd:
    """Re-pair opposite-sign singles into (1, 1) pairs, for display.

    Two singles (u+, +u+, 1) and (u-, -u-, 1) recombine into the paired
    triplets (t, s, 1) and (s, t, 1) with t = (u+ + u-)/sqrt(2) and
    s = (u+ - u-)/sqrt(2), reproducing the layout with mu > 0.  The result
    is an equally valid structured SVD; the canonical form with mu = 0
    carries strictly more eigenvalue information.  ``mu`` re-pairs that many
    (default: all it can); a non-integer one is an :class:`InvalidInputError`.
    """
    if ssvd.structure is not StructureClass.INVOLUTORY:
        raise WrongClassError("paired-one display applies to involutory matrices")
    if ssvd.counts.mu != 0:
        raise WrongClassError("input already carries paired ones")
    lead, part, single = ssvd.columns()
    signs = ssvd.t[single, single].real
    plus, minus = single[signs > 0], single[signs < 0]
    max_mu = min(plus.size, minus.size)
    if mu is not None and not float(mu).is_integer():  # int() would truncate 1.5 to 1
        raise InvalidInputError(f"mu must be an integer, got {mu!r}")
    mu = max_mu if mu is None else int(mu)
    if not 0 <= mu <= max_mu:
        raise InvalidInputError(f"mu must lie in [0, {max_mu}], got {mu}")
    u_plus, u_minus = ssvd.u[:, plus[:mu]], ssvd.u[:, minus[:mu]]
    tilde_u = (u_plus + u_minus) / math.sqrt(2.0)
    tilde_v = (u_plus - u_minus) / math.sqrt(2.0)
    rest = np.concatenate([plus[mu:], minus[mu:]])
    delta, _ = split_singles(rest.size)
    v = ssvd.v
    v = np.hstack([v[:, lead], tilde_v, v[:, rest[:delta]], v[:, part], tilde_u,
                   v[:, rest[delta:]]])
    return layout_svd(ssvd.structure, v, ssvd.sigma[lead], ssvd.t[rest, rest].real, mu)
