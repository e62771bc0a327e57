"""Dense complex linear-algebra kernels.

Everything operates on square ``complex128`` numpy arrays.  The SVD is
LAPACK ``gesdd`` through ``numpy.linalg.svd``.  One-sided Jacobi, the usual
choice for relative accuracy, has it only when the column-scaled matrix is
well conditioned (Demmel & Veselic 1992; Drmac & Veselic 2008), which does
not hold for the Haar-conjugated inputs built here, and it showed no
accuracy gain over ``gesdd`` on them.  Against the generator's true
singular values the worst relative error was 3.7e-9 for Jacobi and 2.4e-9
for ``gesdd`` (120 random instances, n <= 40, sigma <= 1e4), and over the
lead singular values 8.1e-11 and 5.8e-11 (200 instances, sigma up to 1e6).
Downstream, each partner singular value is rebuilt as ``1/sigma`` of its
lead, so only the leads are read from the kernel.

Repeated calls in one BLAS configuration give bitwise-identical results;
LAPACK factors may differ in the last bits between BLAS thread counts.

One memory layout end to end: C order.  Every public function reads the
matrices it is given through :func:`as_matrix`, which hands on a C-contiguous
complex128 array, and every array a public function returns is C-contiguous.
The layout is decided here: :func:`as_matrix` converts any other input, and
:func:`svd` converts LAPACK's layout once, handing on V (LAPACK's ``V^H``) in
C order; besides this module only ``mmio``, laying out the file it reads,
names an order.  The arrays built from C operands (products, elementwise
results, ``np.zeros``, column gathers by ``take``, concatenations of them) are
C-ordered too, the cluster kernels' m included, so no other module decides or
vouches for a layout.  So ``x.reshape(-1)`` is a view of any such square x,
its diagonal is ``x.reshape(-1)[:: n + 1]``, no result depends on how the
caller stored the matrix, and a product a caller forms with a result rounds
the same way whatever the shape of the class's layout.

Only :func:`svd` and :func:`qr_column_pivoted` check their input, by the rules :func:`as_matrix`
owns: a 2-d matrix, at least 1 x 1, of finite numbers.  The three cluster kernels check
nothing: their one caller, ``structured_svd._resolve``, builds their m from checked arrays,
checks it, and hands them its exact Hermitian or (skew-)symmetric part.

The library runs on numpy alone.  scipy bundles a second OpenBLAS: right
after a threaded call into it, its idle threads still held the cores and
numpy's complex 100 x 100 products ran 3.7 times slower (two BLAS threads
on two cores), and importing scipy.linalg took most of the package's
import time.  Only :func:`qr_column_pivoted`, which no library path calls,
still imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError, NumericalError


def as_matrix(a) -> np.ndarray:
    """Validate a 2-d matrix, at least 1 x 1, of integer, real or complex numbers as a
    C-contiguous complex128 array.

    An input that already is a C-contiguous complex128 array is returned as it
    is, not copied, so no caller may write into the result.  Any other input is
    converted, or copied into C order, once.
    """
    arr = a
    if type(a) is not np.ndarray or a.dtype != np.complex128 or not a.flags.c_contiguous:
        try:
            arr = np.asarray(a)
        except ValueError as exc:  # numpy's "inhomogeneous shape"
            raise DimensionError("matrix rows differ in length") from exc
        if arr.dtype.kind not in "iufc":  # a str, bool or object entry is no number
            raise InvalidInputError(f"matrix entries must be numbers, got dtype {arr.dtype}")
        arr = np.asarray(arr, dtype=np.complex128, order="C")
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {arr.shape}")
    if 0 in arr.shape:
        raise DimensionError("matrix must be at least 1x1")
    # a finite sum of squares has finite terms; only on overflow are the entries read
    if not math.isfinite(np.vdot(arr, arr).real) and not np.isfinite(arr).all():
        raise InvalidInputError("matrix entries must be finite")
    return arr


def as_square_matrix(a) -> np.ndarray:
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _square_like(a, factor) -> np.ndarray:
    """``as_square_matrix(a)``, refused unless it has the shape of the factor it is checked on."""
    arr = as_square_matrix(a)
    if arr.shape != factor.shape:
        raise DimensionError(f"matrix and factor shapes differ: {arr.shape} vs {factor.shape}")
    return arr


def _frobenius(x: np.ndarray) -> float:
    """``||x||_F`` as one BLAS dot, ``sqrt(vdot(x, x).real)``: the package's one spelling.
    Where the sum of squares overflows it returns ``inf`` silently, where ``numpy.linalg.norm``
    warns ``overflow encountered in dot``; :func:`_residual_scale` refuses that case."""
    return math.sqrt(np.vdot(x, x).real)


def _residual_scale(a: np.ndarray) -> float:
    """``max(1, ||a||_F)``, the scale a relative residual divides by (the class gate's, squared),
    refused with an :class:`InvalidInputError` where ``||a||_F^2`` overflows (``||a||_F`` above
    about 1.3e154): a residual divided by ``inf`` would read NaN or 0."""
    scale = max(1.0, _frobenius(a))
    if not math.isfinite(scale):
        raise InvalidInputError("matrix too large for a relative residual: ||A||_F^2 overflows")
    return scale


def _relative_residual(raw: float, a: np.ndarray, factor: float = 1.0) -> float:
    """``raw / (n max(1, ||a||) max(1, factor))``, a residual relative to the n x n a."""
    return raw / (a.shape[0] * _residual_scale(a) * max(1.0, factor))


@dataclass
class SvdResult:
    """SVD triple with ``a = u @ diag(sigma) @ v.conj().T``.

    ``sigma`` is nonnegative, ``u`` and ``v`` are unitary.  The order is the maker's:
    :func:`svd` and ``projector_svd`` sort sigma non-increasing, a ``StructuredSvd`` does not.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.conj().T


def svd(a) -> SvdResult:
    """SVD of a square complex matrix by LAPACK ``gesdd``.

    Singular values are returned in non-increasing order, and ``u``, ``v``
    are full unitary matrices, also for rank-deficient input.  LAPACK returns
    ``v^H``; ``v`` is handed on in C order, by one conjugating copy.  Raises
    :class:`NumericalError` when LAPACK fails to converge.
    """
    x = as_square_matrix(a)
    try:
        u, sigma, vh = np.linalg.svd(x, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK gesdd failed: {exc}") from exc
    return SvdResult(u=u, sigma=sigma, v=np.conjugate(vh.T, order="C"))


def hermitian_eig(h):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(q, lam)`` with unitary ``q`` and real eigenvalues ``lam`` sorted descending,
    as reversed views of the eigensolver's output.  h is not checked: the caller passes an
    exactly Hermitian h, built from checked arrays.
    """
    lam, q = np.linalg.eigh(h)
    return q[:, ::-1], lam[::-1]


def takagi_symmetric_unitary(m) -> np.ndarray:
    """Factor a symmetric unitary matrix as ``m = f @ f.T`` with unitary f.

    Every column ``x`` of ``f`` is a coneigenvector of ``m`` for coneigenvalue
    one: ``m @ x.conj() == x``.  Closed form, no deflation: the columns of
    ``Y = [I + m, 1j*(I - m)]`` are fixed points of ``x -> m @ x.conj()``, and
    so is every real combination of them.  Fixed points have real inner
    products, and ``Y @ Y^H = 4I``, so ``Y^H Y`` is real and equal to 4 times
    an orthogonal projector of rank n.  With ``R`` the eigenvectors of its n
    largest eigenvalues ``lam`` (all close to 4), ``f = Y @ R / sqrt(lam)``
    has orthonormal fixed-point columns.
    m is not checked: the caller passes an exactly symmetric m, built from checked arrays
    and checked to be unitary.
    """
    n = m.shape[0]
    eye = np.eye(n)
    y = np.concatenate([eye + m, 1j * (eye - m)], axis=1)
    lam, r = np.linalg.eigh((y.conj().T @ y).real)  # ascending
    return (y @ r[:, n:]) / np.sqrt(lam[n:])


def skew_pair_unitary(m) -> np.ndarray:
    """Factor a skew-symmetric unitary matrix as ``m = f @ J @ f.T``.

    ``J = [[0, I], [-I, 0]]`` and f is unitary.  Closed form, no deflation:
    the antilinear map ``K: x -> m @ x.conj()`` squares to ``-I``, and for
    ``G = diag(n, n-1, ..., 1)`` the Hermitian ``H = G - m G m^H``
    anticommutes with K, so K carries each eigenvector of H for eigenvalue
    ``lam`` to one for ``-lam``.  With X the eigenvectors of the k = n/2
    positive eigenvalues, in descending order, ``f = [X, -m @ X.conj()]``
    is unitary and ``m = f @ J @ f.T``.  For ``J(k)`` itself, and for block
    sums of it, f is a permutation.

    The one failure is a singular H, where the two halves of its spectrum
    meet and X is not determined; a :class:`NumericalError` is raised when
    the smallest positive eigenvalue is at or below ``1e-6 * n``.  Over
    random m (k <= 40) that eigenvalue stays above 0.1, but special inputs
    such as ``[[0, c, 0, -s], [-c, 0, -s, 0], [0, s, 0, c], [s, 0, -c, 0]]``
    with ``(c, s) = (cos(pi/6), sin(pi/6))`` make it exactly zero.
    m is not checked: the caller passes an exactly skew-symmetric m, built from checked
    arrays and checked to be unitary, so n is even.
    """
    n = m.shape[0]
    k = n // 2
    floor = 1e-6 * n
    g = np.arange(n, 0, -1, dtype=np.float64)
    lam, w = np.linalg.eigh(np.diag(g) - (m * g) @ m.conj().T)  # ascending
    if lam[k] <= floor:
        raise NumericalError(
            f"skew-symmetric unitary pairing is degenerate: the pairing "
            f"matrix has eigenvalue {lam[k]:.3e} <= {floor:.3e}"
        )
    x = w[:, k:][:, ::-1]
    return np.concatenate([x, -(m @ x.conj())], axis=1)


def qr_column_pivoted(a, tol: float):
    """Rank-revealing factorization ``a ~= q @ w.conj().T``.

    Column-pivoted QR; the numerical rank r counts diagonal entries of R
    above ``tol * |R[0, 0]|``.  The largest pivot ``|R[0, 0]|`` lies between
    ``sigma_max / sqrt(cols)`` and ``sigma_max`` and is the scale LAPACK's
    ``xGELSY`` starts from, so no SVD is needed.  Returns ``(q, w, r)`` with
    ``q`` having r orthonormal columns and ``w`` of shape (cols, r).

    Unused by the library; kept, with its tests, while the benchmark traces it.
    """
    import scipy.linalg

    a = as_matrix(a)
    # as_matrix has already rejected an empty matrix and non-finite entries
    q_full, r_full, perm = scipy.linalg.qr(
        a, mode="economic", pivoting=True, check_finite=False
    )
    diag = np.abs(np.diag(r_full))
    rank = int(np.count_nonzero(diag > tol * diag[0]))
    inverse_perm = np.empty_like(perm)
    inverse_perm[perm] = np.arange(perm.size)
    q = q_full[:, :rank]
    w = r_full[:rank, :][:, inverse_perm].conj().T
    return q, w, rank
