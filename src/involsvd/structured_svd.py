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
counts, which fix the layout; T's diagonal carries omega times each
single's sign or phase.  :func:`layout_columns` is the one source of the
column positions (read through :meth:`StructuredSvd.columns`) and
:func:`layout_svd` the one builder: every result is assembled there from
V, with U formed by the coupling law.  T is the only pattern matrix the
library builds, in one function that :func:`extract_T` also rebuilds it
with, so a cyclic pattern is refused.  The canonical output uses mu = 0;
:func:`paired_one_display` re-pairs opposite-sign singles for display.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    DimensionError,
    InvalidInputError,
    CouplingError,
    NumericalError,
    PairingError,
    StructureViolationError,
    WrongClassError,
)
from .kernel import (
    SvdResult,
    _frobenius,
    _relative_residual,
    _square_like,
    as_square_matrix,
    hermitian_eig,
    skew_pair_unitary,
    svd as kernel_svd,
    takagi_symmetric_unitary,
)
from .structures import StructureClass, _admit, _check_reals, _check_structure, _check_tol
from .structures import DEFAULT_TOL, RECONSTRUCTION_LIMIT, _require

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class StructureCounts:
    nu: int
    mu: int
    delta: int
    eta: int
    eta1: int
    eta2: int


@dataclass
class StructuredSvd(SvdResult):
    """An :class:`SvdResult` of a structured matrix, in the condensed block layout.

    ``sigma`` follows the block layout (not globally sorted): pair leads
    descending, then delta ones, then the reciprocals of the leads, then eta
    ones.  ``t`` is the exact sparse coupling matrix.  The counts fix the
    layout: :meth:`columns` gives the lead, partner and single positions,
    the first ``nu`` pairs are reciprocal pairs and the other ``mu`` are
    (1, 1) pairs.  Each single's sign (+-1) or unit phase sits on T's
    diagonal at its column, times the class's omega; :meth:`singles` reads it.
    """

    structure: StructureClass
    t: np.ndarray
    counts: StructureCounts

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Layout positions ``(lead, part, single)``, see :func:`layout_columns`."""
        c = self.counts
        return layout_columns(c.nu + c.mu, self.dim)

    def singles(self) -> Tuple[np.ndarray, np.ndarray]:
        """The single positions and each single's sign (+-1) or unit phase d, its T entry x
        over omega: x as it is where omega is 1, the exact part swap ``-1j x`` where 1j."""
        single, x = self.columns()[2], self.t.diagonal()
        return single, x[single] if self.structure.omega == 1 else -1j * x[single]


def reconstruction_residual(a, ssvd) -> float:
    """``||a - ssvd.reconstruct()|| / (n max(1, ||a||))`` for any SVD result."""
    a = _square_like(a, ssvd.u)
    return _relative_residual(_frobenius(a - ssvd.reconstruct()), a)


def split_singles(k: int) -> Tuple[int, int]:
    """(delta, eta) split of k singles: delta = ceil(k/2), eta = floor(k/2)."""
    return (k + 1) // 2, k // 2


@functools.lru_cache(maxsize=1024)
def layout_columns(npairs: int, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column positions ``(lead, part, single)`` of the condensed block layout.

    Pair j sits at ``(lead[j], part[j])``; the n - 2 npairs singles, delta then eta (see
    :func:`split_singles`), sit at ``single`` in column order.  Cached and read-only, as the
    records of one layout share them: 440 keys for n <= 40 (a seed-1 benchmark corpus round
    asks for 326; 256 entries evicted 264 per round, 1024 hold about 1.1 MiB).
    """
    positions = np.arange(n)
    positions.setflags(write=False)  # so are its views lead and part
    part = npairs + split_singles(n - 2 * npairs)[0]  # past the leads and the delta singles
    single = np.concatenate([positions[npairs:part], positions[part + npairs:]])
    single.setflags(write=False)
    return positions[:npairs], positions[part:part + npairs], single


def _coupling(structure: StructureClass, n: int, lead, part, single, diag) -> np.ndarray:
    """T: 1 at (part, lead), omega^2 at (lead, part), and omega times each single's
    sign or phase ``diag`` on the diagonal, so that ``T T* = omega^2 I``."""
    omega = structure.omega
    t = np.zeros((n, n), dtype=np.complex128)
    t[part, lead] = 1.0
    t[lead, part] = omega ** 2
    t.reshape(-1)[:: n + 1][single] = omega * diag  # T's diagonal
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
    U = V* T.  eta1 counts the singles with ``Re(d) > 0`` (every coninvolutory
    single) and eta2 the other ones.
    """
    lead_s = np.asarray(lead_s, dtype=np.float64).ravel()
    diag = np.asarray(diag, dtype=np.complex128).ravel()
    nu, k = lead_s.size, diag.size
    if structure is StructureClass.SKEW_CONINVOLUTORY and k:
        raise InvalidInputError("skew-coninvolutory coupling has no singles")
    delta, eta = split_singles(k)
    npairs = nu + mu
    n = 2 * npairs + k
    t = _coupling(structure, n, *layout_columns(npairs, n), diag)

    eta1 = k if structure is StructureClass.CONINVOLUTORY else int((diag.real > 0).sum())
    counts = StructureCounts(nu=nu, mu=mu, delta=delta, eta=eta, eta1=eta1, eta2=k - eta1)

    s = lead_s.tolist()
    sigma = np.array(s + [1.0] * (mu + delta) + [1.0 / x for x in s] + [1.0] * (mu + eta))
    u = structure.star(v) @ t
    return StructuredSvd(u=u, sigma=sigma, v=v, structure=structure, t=t, counts=counts)


def _svd_floor(n: int, sigma_max: float) -> float:
    """Backward error of the kernel SVD on each singular value (Weyl's bound)."""
    return 64.0 * n * _EPS * max(1.0, sigma_max)


def _mirror_pass(sig: list, floor: float, widths: list) -> Tuple[int, bool]:
    """The whole matching, as sorted lead i pairs only with its mirror n-1-i: ``(i, True)`` if
    the cluster starts at couple i (both values within ``floor + widths[i]`` of 1), else
    ``(i, False)`` with lead i the first off its partner by more than ``floor + widths[i] /
    sigma_i``, or i = n // 2 if every lead pairs (an odd n's middle value is its own mirror)."""
    n = len(sig)
    for i, lead, mirror, width in zip(range((n + 1) // 2), sig, reversed(sig), widths):
        band = floor + width
        if abs(lead - 1.0) <= band and abs(mirror - 1.0) <= band:
            return i, True
        if abs(mirror - 1.0 / lead) > floor + width / lead:
            return i, False
    return n // 2, False


def _settle(sig: list, npairs: int, has_cluster: bool) -> Tuple[int, int]:
    """``(npairs, k)`` pairs and cluster size of a :func:`_mirror_pass` reading of ``sig``, or a
    :class:`PairingError` naming the orphan if lead npairs, or the middle value, is alone."""
    n = len(sig)
    if not has_cluster and (npairs < n // 2 or n % 2):
        lead, mirror = sig[npairs], sig[n - 1 - npairs]
        orphan = max(lead, mirror, key=lambda s: abs(s - 1.0))
        note = f" (partner defect {abs(mirror - 1.0 / lead):.3e})" if npairs < n // 2 else ""
        raise PairingError(
            f"singular value {orphan!r} has no reciprocal partner{note}", orphan=orphan
        )
    return npairs, n - 2 * npairs if has_cluster else 0


def pairing_spectrum_check(sigma):
    """Match a sorted singular spectrum into reciprocal pairs and a 1-cluster.

    One :func:`_mirror_pass` at width 0, its band the kernel SVD's backward error, decides
    both; :func:`restructure` decides on its measured band with the same pass.  ``sigma`` is a
    vector or one column; returns ``(pairs, cluster)`` with pairs as index tuples into it.
    """
    try:
        arr = np.asarray(sigma)
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise DimensionError("expected a vector or one column, got ragged rows") from exc
    if arr.ndim != 1 and arr.shape[1:] != (1,):  # an (n, 1) column is a spectrum, a 0-d not
        raise DimensionError(f"expected a vector or one column, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError("empty spectrum")
    _check_reals("singular value", arr.ravel().tolist(), InvalidInputError)
    sig, n = arr.astype(np.float64).ravel().tolist(), arr.size
    if not all(0.0 < s < math.inf for s in sig):  # false for a NaN too
        raise InvalidInputError("singular values must be positive and finite")
    if sig != sorted(sig, reverse=True):
        raise InvalidInputError("singular values must be non-increasing")
    npairs, k = _settle(sig, *_mirror_pass(sig, _svd_floor(n, sig[0]), [0.0] * ((n + 1) // 2)))
    return [(i, n - 1 - i) for i in range(npairs)], list(range(npairs, npairs + k))


def _couple_widths(a: np.ndarray, structure: StructureClass, base) -> np.ndarray:
    """``||X^H (A A* - omega^2 I) X||_F`` on the right vectors X of each mirrored couple, from
    ``A A* x = sigma A w`` (x, w = v*, u*); on the couple, it keeps out the
    eps sigma_max^2 that A draws from the rounding of the vectors."""
    xh, w = structure.star_h(base.v).T, structure.star(base.u)  # xh = conj(x)
    e = (a @ w) * base.sigma - (structure.omega ** 2).real * structure.star(base.v)
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


def _read(a: np.ndarray, structure: StructureClass, tol: float):
    """:func:`restructure`'s read stage: the class gate, the kernel SVD, and the reciprocal
    matching of its spectrum, ``(base, floor, npairs, k)``.

    The floor is the SVD's backward error ``64 n eps s`` (Weyl) plus the gate's defect
    ``||A A* - omega^2 I||_F / s`` (``A*`` = A or conj(A), ``s = max(1, sigma_max)``); each
    couple adds its width, that defect on its own right vectors X, ``||X^H E X||_F`` (E = A A*
    - omega^2 I; one vector for an odd spectrum's middle value).  A width is at most ||E||_F
    plus rounding (E x is formed as ``sigma A u``) under ``64 n^2 eps s^2``, at most 0.965 of
    their sum on 12-digit members; ``bound = 2 (defect + 64 n^2 eps s^2)``, with a factor 2
    for rounding, holds every width.  The decisions are monotone in the width, so the widths
    are computed only if :func:`_mirror_pass` reads the spectrum otherwise at the bound than
    at width 0.  :func:`_settle` acts on the reading; a zero singular value (no class member
    has one) is a :class:`PairingError`.  ``a`` is checked already, and ``kernel.svd`` scans
    it again: calling it, not gesdd directly, keeps perfbench's traced ``kernel.svd`` span live.
    """
    defect = _admit(a, structure, tol)
    n = a.shape[0]
    base = kernel_svd(a)
    sig = base.sigma.tolist()
    scale = max(1.0, sig[0])
    floor = _svd_floor(n, scale) + defect / scale
    if sig[-1] == 0.0:  # a gate at a loose tol lets a singular matrix in
        raise PairingError("singular value 0.0 has no reciprocal partner", orphan=0.0)
    bound = 2.0 * (defect + scale * _svd_floor(n * n, scale))
    half = (n + 1) // 2
    reading = _mirror_pass(sig, floor, [0.0] * half)
    if reading != _mirror_pass(sig, floor, [bound] * half):
        reading = _mirror_pass(sig, floor, _couple_widths(a, structure, base).tolist())
    return (base, floor, *_settle(sig, *reading))


def _resolve(a: np.ndarray, structure: StructureClass, base: SvdResult, floor, npairs: int):
    """The cluster resolver: V's columns for the k unit singular values, in layout order (the
    first ceil(k / 2) join the leads, the rest the partners), and the singles' signs or
    phases.  Each class reads the one restricted matrix ``M = (Q*)^H A Q`` on the span Q of the
    cluster's right vectors, checked unitary, first, and ``(M*)^H = omega^2 M``, in all four
    classes, within ``min(100 max(floor, spread) k, 0.5)`` (spread: the cluster's from 1).
    So ``x = M / omega`` (involutory classes) or M is Hermitian or (skew-)symmetric; M is
    projected only here, onto that part of x, which the kernel factors: defect ``2 ||x - part||``.

    * (skew-)involutory: the eigenvectors u of the Hermitian part of ``M / omega`` give singles
      (u, d u / omega, 1), d = +-1 the sign of the eigenvalue;
    * coninvolutory: the Takagi factor ``M = F F^T`` (:func:`takagi_symmetric_unitary`)
      gives phase-free singles ``u = conj(Q) F``, ``v = conj(u)`` (coneigenvectors);
    * skew-coninvolutory: ``M = F J F^T`` (:func:`skew_pair_unitary`) gives k / 2 unit pairs.
    """
    n = a.shape[0]
    k, q = n - 2 * npairs, base.v[:, npairs : n - npairs]
    if not k:
        return q, []
    first, last = base.sigma[npairs].item(), base.sigma[n - npairs - 1].item()
    spread = max(abs(first - 1.0), abs(last - 1.0))  # sigma is sorted: the ends are farthest
    limit = min(100.0 * max(floor, spread) * k, 0.5)
    m = structure.star_h(q) @ a @ q
    gram = m.conj().T @ m
    gram.reshape(-1)[:: k + 1] -= 1.0  # minus I
    _structure_defect(_frobenius(gram), limit, "unitary")
    con = structure in (StructureClass.CONINVOLUTORY, StructureClass.SKEW_CONINVOLUTORY)
    kind = ("skew-" if structure.omega != 1 else "") + ("symmetric" if con else "Hermitian")
    x = m if con else m / structure.omega
    skew_con = structure is StructureClass.SKEW_CONINVOLUTORY
    part = (x - structure.star_h(x) if skew_con else x + structure.star_h(x)) / 2.0
    _structure_defect(2.0 * _frobenius(x - part), limit, kind)
    if skew_con:
        # x -> A conj(x) restricts to conj(Q) as the skew-symmetric unitary Q^T A Q; pair j
        # of G = conj(Q) F has u = g_j and v = conj(g_(j + k/2)), its partner v = conj(g_j)
        g, h = q.conj() @ skew_pair_unitary(part), k // 2
        return np.concatenate([g[:, h:], g[:, :h]], axis=1).conj(), []
    if con:
        return q @ takagi_symmetric_unitary(part).conj(), [1.0] * k
    w, lam = hermitian_eig(part)
    diag = np.copysign(1.0, lam)  # both defects <= 0.5, so |lam| >= sqrt(1 - 0.5) - 0.25 > 0.45
    return (q @ w) * (diag / structure.omega), diag


def restructure(a, structure: StructureClass, tol: float = DEFAULT_TOL) -> StructuredSvd:
    """Structure-revealing SVD of a matrix in the given class.

    Read, resolve, lay out: :func:`_read` gates the class, takes the kernel SVD and matches
    its spectrum into reciprocal pairs and a sigma = 1 cluster; the cluster resolver
    :func:`_resolve` turns the cluster into signed or phase-free singles (sigma = 1 pairs in
    the skew-coninvolutory class).  V is assembled once, from the pair leads, each partner
    as its lead's u*, and the resolver's columns; :func:`layout_svd` forms U = V* T.  A result
    whose :func:`reconstruction_residual` exceeds ``RECONSTRUCTION_LIMIT`` (1e-6) is refused
    with a :class:`NumericalError`.  ``tol`` only gates the class; the result does not depend
    on it.
    """
    a = as_square_matrix(a)
    base, floor, npairs, k = _read(a, structure, tol)
    cluster, diag = _resolve(a, structure, base, floor, npairs)
    delta, _ = split_singles(k)
    v = np.concatenate([base.v[:, :npairs], cluster[:, :delta],
                        structure.star(base.u[:, :npairs]), cluster[:, delta:]], axis=1)
    ones = [1.0] * ((k - len(diag)) // 2)  # the skew-coninvolutory cluster's pairs at sigma 1
    result = layout_svd(structure, v, base.sigma[:npairs].tolist() + ones, diag)
    residual = reconstruction_residual(a, result)
    if residual > RECONSTRUCTION_LIMIT:
        raise NumericalError(f"result does not reconstruct the input: residual {residual:.3e} "
                             f"> {RECONSTRUCTION_LIMIT:.0e}")
    return result


def extract_T(u, v, structure: StructureClass, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Recover the exact coupling matrix from the unitary factors.

    ``(V*)^H U`` (``V^H U`` or ``V^T U``, see :meth:`StructureClass.star_h`)
    must be a generalized permutation, other entries at most ``etol =
    max(tol, 1e-12)``.  Its pairs (below the diagonal) and its singles,
    snapped to omega times a sign (the sign of ``Re(x / omega)``) or to a unit
    phase (to +-1 within etol), rebuild T as :func:`layout_svd` does, within
    etol; a cyclic pattern is refused.  A bool, a non-number, or a NaN,
    infinite or negative ``tol`` raises :class:`InvalidInputError`.
    """
    _check_tol(tol)
    _check_structure(structure)
    u, v = as_square_matrix(u), as_square_matrix(v)
    if u.shape != v.shape:
        raise DimensionError(f"factor shapes differ: {u.shape} vs {v.shape}")
    raw = structure.star_h(v) @ u
    n = raw.shape[0]
    small = abs(raw)
    hits = small > 0.5
    rows, cols = hits.nonzero()  # row-major order, as raw[hits]: one per row reads 0..n-1
    small[hits] = 0.0
    etol = max(tol, 1e-12)
    permutation = rows.tolist() == list(range(n)) and len(set(cols.tolist())) == n
    if not permutation or small.max() > etol:
        i, j = divmod(int(small.argmax()), n)
        raise CouplingError(
            f"coupling entry ({i}, {j}) = {raw[i, j]:.3e} should vanish" if permutation
            else "coupling matrix is not a generalized permutation",
            entry=(i, j),
            value=complex(raw[i, j]),
        )
    vals, below, on = raw[hits], rows > cols, rows == cols  # vals[i] = raw[i, cols[i]]
    single, diag = rows[on], vals[on]
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
    t = _coupling(structure, n, cols[below], rows[below], single, diag)
    targets = t[hits]
    bad = (targets == 0) | (abs(vals - targets) > etol)
    first = int(bad.argmax())
    if bad[first]:
        i, j = int(rows[first]), int(cols[first])
        raise CouplingError(
            f"coupling entry ({i}, {j}) = {complex(raw[i, j])!r} violates the "
            f"{structure.value} pattern",
            entry=(i, j),
            value=complex(raw[i, j]),
        )
    return t


def paired_one_display(ssvd: StructuredSvd) -> StructuredSvd:
    """Re-pair opposite-sign singles into (1, 1) pairs, for display.

    Two singles (u+, +u+, 1) and (u-, -u-, 1) recombine into the paired
    triplets (t, s, 1) and (s, t, 1) with t = (u+ + u-)/sqrt(2) and
    s = (u+ - u-)/sqrt(2), reproducing the layout with mu > 0.  It re-pairs
    every couple it can, mu = min(eta1, eta2).  The result is an equally
    valid structured SVD; the canonical form with mu = 0 carries strictly
    more eigenvalue information.
    """
    _require(ssvd.structure, (StructureClass.INVOLUTORY,), "paired_one_display needs involutory")
    if ssvd.counts.mu != 0:
        raise WrongClassError("input already carries paired ones")
    lead, part, single = ssvd.columns()
    signs = ssvd.singles()[1].real
    plus, minus = single[signs > 0], single[signs < 0]
    mu = min(plus.size, minus.size)
    u_plus, u_minus = ssvd.u.take(plus[:mu], axis=1), ssvd.u.take(minus[:mu], axis=1)
    tilde_u = (u_plus + u_minus) / math.sqrt(2.0)
    tilde_v = (u_plus - u_minus) / math.sqrt(2.0)
    rest = np.concatenate([plus[mu:], minus[mu:]])
    delta, _ = split_singles(rest.size)
    v = ssvd.v
    v = np.hstack([v.take(lead, axis=1), tilde_v, v.take(rest[:delta], axis=1),
                   v.take(part, axis=1), tilde_u, v.take(rest[delta:], axis=1)])
    kept = np.concatenate([signs[signs > 0][mu:], signs[signs < 0][mu:]])  # rest's signs
    return layout_svd(ssvd.structure, v, ssvd.sigma[lead], kept, mu)
