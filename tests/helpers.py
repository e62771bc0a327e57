"""Shared oracles and corpus builders for the test suite."""

import math
import os
from pathlib import Path

import numpy as np

import involsvd
from involsvd import GeneratorSpec, StructureClass, gen_structured, restructure


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


def assert_unitary(m, tol=1e-12):
    m = np.asarray(m)
    n = m.shape[0]
    defect = np.linalg.norm(m.conj().T @ m - np.eye(n))
    assert defect <= tol * max(1, n), f"unitarity defect {defect:.3e}"


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
