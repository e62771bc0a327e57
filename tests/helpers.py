"""Shared oracles and corpus builders for the test suite."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

import involsvd
from involsvd import (
    DimensionError,
    GeneratorSpec,
    InvalidInputError,
    PairingError,
    StructureClass,
    gen_structured,
    restructure,
)
from involsvd.kernel import as_square_matrix
from involsvd.structured_svd import _svd_floor


def package_env(**extra):
    """Environment for a child interpreter that imports this involsvd."""
    root = str(Path(involsvd.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def singvals_2x2(a):
    """Independent 2x2 oracle: square roots of the eigenvalues of A^H A
    computed with the quadratic formula."""
    a = np.asarray(a, dtype=complex)
    g = a.conj().T @ a
    tr = float(g[0, 0].real + g[1, 1].real)
    det = float((g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real)
    disc = max(tr * tr / 4.0 - det, 0.0)
    lam_hi = tr / 2.0 + math.sqrt(disc)
    lam_lo = max(tr / 2.0 - math.sqrt(disc), 0.0)
    return math.sqrt(lam_hi), math.sqrt(lam_lo)


def pairing_reference_loop(sigma, floor=None, width=0.0):
    """Greedy two-pointer matching of a sorted spectrum from both ends.

    The reference for ``pairing_spectrum_check`` (at the default floor and
    width 0) and for ``structured_svd._mirror_pass`` settled by
    ``structured_svd._settle`` (at any floor and widths): the cluster starts at the
    first couple (i, n-1-i) with both values within ``floor + width_i`` of 1
    (``floor`` defaults to the kernel SVD's backward error, ``width`` is one
    value or one per couple); before it, each partner must lie within
    ``floor + width_i / sigma_i`` of its lead's reciprocal.
    """
    sig = np.asarray(sigma, dtype=np.float64).ravel()
    n = sig.size
    if n == 0:
        raise DimensionError("empty spectrum")
    if np.any(sig <= 0.0) or not np.all(np.isfinite(sig)):
        raise InvalidInputError("singular values must be positive and finite")
    if np.any(np.diff(sig) > 0.0):
        raise InvalidInputError("singular values must be non-increasing")
    if floor is None:
        floor = _svd_floor(n, float(sig[0]))
    pairs = []
    cluster = []
    i, j = 0, n - 1
    while i <= j:
        w = float(width[i]) if np.ndim(width) else float(width)
        in_i = abs(sig[i] - 1.0) <= floor + w
        in_j = abs(sig[j] - 1.0) <= floor + w
        if in_i and in_j:
            cluster.extend(range(i, j + 1))
            break
        if i == j:
            raise PairingError(
                f"singular value {float(sig[i])!r} has no reciprocal partner",
                orphan=float(sig[i]),
            )
        defect = abs(float(sig[j] - 1.0 / sig[i]))
        if defect > floor + w / sig[i]:
            orphan = sig[i] if abs(sig[i] - 1.0) >= abs(sig[j] - 1.0) else sig[j]
            raise PairingError(
                f"singular value {float(orphan)!r} has no reciprocal partner "
                f"(partner defect {defect:.3e})",
                orphan=float(orphan),
            )
        pairs.append((i, j))
        i += 1
        j -= 1
    return pairs, cluster


def mp_singular_values(a, dps=40):
    """Singular values of the stored matrix a, descending, by mpmath's SVD at
    ``dps`` decimal digits, rounded to floats: a reference that shares neither
    LAPACK nor the generator's ground truth.  Skips the test without mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        sigma = mpmath.svd_c(mpmath.matrix(np.asarray(a).tolist()), compute_uv=False)
        return [float(s) for s in sigma]


def mp_right_singular_vectors(a, dps=40):
    """``(sigma, x)``: the values of :func:`mp_singular_values` and the right singular
    vectors of the same mpmath SVD as the columns of x (its ``vh`` conjugate-transposed),
    rounded to complex128.  Skips the test without mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        _, sigma, vh = mpmath.svd_c(mpmath.matrix(np.asarray(a).tolist()))
        x = np.array([[complex(vh[i, j]) for i in range(vh.rows)] for j in range(vh.cols)])
        return [float(s) for s in sigma], x.conj()


def assert_unitary(m, tol=1e-12):
    m = np.asarray(m)
    n = m.shape[0]
    defect = np.linalg.norm(m.conj().T @ m - np.eye(n))
    assert defect <= tol * max(1, n), f"unitarity defect {defect:.3e}"


def matexp_skewfactor(r):
    """Compute ``exp(1j * r)`` for a real square matrix r.

    The result x is coninvolutory by construction: ``x @ x.conj() ~= I``.
    A generator that builds class members without the library's own
    machinery; scipy is imported on first use.
    """
    import scipy.linalg

    r = as_square_matrix(r)
    if np.any(r.imag != 0.0):
        raise InvalidInputError("generator must be a real matrix")
    return scipy.linalg.expm(1j * r.real)


def j_matrix(k: int) -> np.ndarray:
    """The 2k x 2k block matrix [[0, I], [-I, 0]]; squares to -I."""
    j = np.zeros((2 * k, 2 * k), dtype=np.complex128)
    j[:k, k:] = np.eye(k)
    j[k:, :k] = -np.eye(k)
    return j


def degenerate_skew_pairing_matrix(delta=0.0):
    """4x4 real orthogonal skew-symmetric M (so M conj(M) = -I) for which
    the Hermitian ``G - M G M^H`` of the closed-form skew pairing, with
    G = diag(4, 3, 2, 1), is singular; at angle pi/6 + delta in place of
    pi/6, its smallest positive eigenvalue is about ``sqrt(3) delta``."""
    c, s = np.cos(np.pi / 6 + delta), np.sin(np.pi / 6 + delta)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1], m[0, 3], m[2, 1], m[2, 3] = c, -s, s, c
    return m - m.T


def example1_matrix():
    """4x4 involutory, Hermitian, unitary permutation-like matrix."""
    a = np.eye(4, dtype=complex)
    a[1, 1] = a[2, 2] = 0.0
    a[1, 2] = a[2, 1] = 1.0
    return a


def random_spec(structure, rng, n_max=40, sigma_cap=1e4, with_phases=False):
    """Random generator spec with n in {2..n_max} and sigma_1 <= sigma_cap."""
    if structure is StructureClass.SKEW_CONINVOLUTORY:
        n = 2 * int(rng.integers(1, n_max // 2 + 1))
        nu = n // 2
        n_ones = int(rng.integers(0, nu + 1))
        big = np.sort(10 ** rng.uniform(np.log10(1.3), np.log10(sigma_cap), nu - n_ones))[::-1]
        return GeneratorSpec(
            n=n,
            nu=nu,
            sigmas=tuple(big) + (1.0,) * n_ones,
            seed=int(rng.integers(2**31)),
        )
    n = int(rng.integers(2, n_max + 1))
    nu = int(rng.integers(0, n // 2 + 1))
    k = n - 2 * nu
    eta1 = int(rng.integers(0, k + 1))
    eta2 = k - eta1
    sigmas = tuple(np.sort(10 ** rng.uniform(np.log10(1.3), np.log10(sigma_cap), nu))[::-1])
    phases = None
    if with_phases and structure is StructureClass.CONINVOLUTORY and k and rng.random() < 0.5:
        phases = tuple(rng.uniform(0.0, 2.0 * np.pi, k))
    return GeneratorSpec(
        n=n,
        nu=nu,
        sigmas=sigmas,
        eta1=eta1,
        eta2=eta2,
        phases=phases,
        seed=int(rng.integers(2**31)),
    )


def build_corpus(structure, count, seed, n_max=40, sigma_cap=1e4, with_phases=False):
    """List of (a, truth, ssvd) records, restructured at tol 1e-10."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        spec = random_spec(structure, rng, n_max=n_max, sigma_cap=sigma_cap,
                           with_phases=with_phases)
        a, truth = gen_structured(structure, spec)
        ssvd = restructure(a, structure, 1e-10)
        out.append((a, truth, ssvd))
    return out


def cap_family(count, seed=7):
    """The first ``count`` draws of the large-n family with distinct sigmas.

    Draw i is class ``list(StructureClass)[i % 4]`` at the sigma cap
    ``(1e2, 1e4, 1e6)[i % 3]`` with generator seed i: n in 60..200 (rounded up
    to even, all pairs, in the skew-coninvolutory class, whose smallest sigmas
    may be 1), sigmas log-uniform in [1.3, cap], and coninvolutory phases at
    odd i.  Returns (structure, spec) records.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        structure = list(StructureClass)[i % 4]
        cap = (1e2, 1e4, 1e6)[i % 3]
        n = int(rng.integers(60, 201))
        if structure is StructureClass.SKEW_CONINVOLUTORY:
            n += n % 2
            nu = n // 2
        else:
            nu = int(rng.integers(0, n // 2 + 1))
        sigmas = np.sort(10 ** rng.uniform(np.log10(1.3), np.log10(cap), nu))[::-1]
        k, eta1, phases = n - 2 * nu, 0, None
        if structure is StructureClass.SKEW_CONINVOLUTORY:
            sigmas[nu - int(rng.integers(0, nu + 1)):] = 1.0
        else:
            eta1 = int(rng.integers(0, k + 1))
            if structure is StructureClass.CONINVOLUTORY and i % 2:
                phases = tuple(rng.uniform(0.0, 2.0 * np.pi, k))
        out.append((structure, GeneratorSpec(n=n, nu=nu, sigmas=tuple(sigmas), eta1=eta1,
                                             eta2=k - eta1, phases=phases, seed=i)))
    return out


def spread_family(spread, seed, count):
    """The first ``count`` draws of the spread family.

    Draw i is class ``list(StructureClass)[i % 4]`` with spec ``random_spec(cls, rng,
    n_max=12, sigma_cap=1e3, with_phases=True)``, rng ``default_rng(seed)``; its member's
    unit singular values (``|g - 1| < 1e-12`` in ``np.linalg.svd``'s order) are multiplied by
    ``1 + spread * rng.standard_normal(k)``, drawn from the same stream.  Returns
    (structure, spec, scales, a) records.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        structure = list(StructureClass)[i % 4]
        spec = random_spec(structure, rng, n_max=12, sigma_cap=1e3, with_phases=True)
        u, g, vh = np.linalg.svd(gen_structured(structure, spec)[0])
        unit = np.abs(g - 1.0) < 1e-12
        scales = 1.0 + spread * rng.standard_normal(np.count_nonzero(unit))
        g[unit] *= scales
        out.append((structure, spec, scales, (u * g) @ vh))
    return out


# an involutory member at sigma_max 1e4 that, with every part rounded to 12
# significant digits, the gate accepts and restructure decomposes, but whose V
# is unitary only to 5.6e-9, so extract_T refuses it (ROADMAP item 8)
ROUNDED_SPEC = GeneratorSpec(n=6, nu=2, sigmas=(1e4, 30.0), eta1=1, eta2=1, seed=5)


def rounded(a, digits):
    """``a`` with each real and imaginary part rounded to ``digits``
    significant digits, as a file written with ``%.<digits>g`` holds it."""
    fmt = f"%.{digits}g"
    return np.array([[complex(float(fmt % z.real), float(fmt % z.imag)) for z in row]
                     for row in np.asarray(a)])
