"""Correctness checks made apart from the program under test.

Each check recomputes a property of the output with plain numpy (LAPACK
singular values, matrix products and solves) and compares it with the
generator spec that built the input.  No check calls ``involsvd``, and none
compares against stored copies of earlier output.  Every function returns
a list of problems; an empty list means the operation's output is correct.
"""

from __future__ import annotations

import numpy as np

from inputs import expected_counts

# the CLI's default acceptance tolerance; residuals below are normalized
# the way the CLI report normalizes them
TOL = 1e-10
# sigma disagreement with LAPACK, relative to max(1, sigma_1)
SIGMA_TOL = 1e-9
# the acceptance suite's limit for the coupling law and coneigenvectors
COUPLING_TOL = 1e-9

CON = ("coninvolutory", "skew-coninvolutory")
SKEW = ("skew-involutory", "skew-coninvolutory")


def _norm(x) -> float:
    return float(np.linalg.norm(x))


def _scale(a) -> float:
    return a.shape[0] * max(1.0, _norm(a))


def j_matrix(n: int) -> np.ndarray:
    """[[0, I], [-I, 0]] of order n."""
    half = n // 2
    j = np.zeros((n, n))
    j[:half, half:] = np.eye(half)
    j[half:, :half] = -np.eye(half)
    return j


def projector(a, sign: int) -> np.ndarray:
    return (np.eye(a.shape[0]) + sign * a) / 2.0


def sigma_problems(a, sigma, what="sigma") -> list:
    ref = np.linalg.svd(a, compute_uv=False)  # LAPACK
    got = np.sort(np.asarray(sigma, dtype=np.float64))[::-1]
    if got.shape != ref.shape:
        return [f"{what}: {got.size} values for n={ref.size}"]
    err = float(np.max(np.abs(got - ref))) / max(1.0, float(ref[0]))
    return [f"{what} vs LAPACK: {err:.2e} > {SIGMA_TOL:g}"] if err > SIGMA_TOL else []


def counts_problems(structure, spec, nu, eta1, eta2) -> list:
    want = expected_counts(structure, spec)
    got = (nu, eta1, eta2)
    return [] if got == want else [f"counts (nu, eta1, eta2) = {got}, spec gives {want}"]


def identity_defect(name: str, m) -> float:
    """Defect of the class identity, relative to max(1, ||m||^2)."""
    eye = np.eye(m.shape[0])
    prod = m @ (m.conj() if name in CON else m)
    target = -eye if name in SKEW else eye
    return _norm(prod - target) / max(1.0, _norm(m) ** 2)


def reconstruction_problems(a, u, sigma, v, what="reconstruction") -> list:
    r = _norm(a - (u * sigma) @ v.conj().T) / _scale(a)
    return [f"{what} {r:.2e} > {TOL:g}"] if r > TOL else []


def ssvd_problems(a, structure, spec, u, v, sigma, t, counts) -> list:
    """SVD, reconstruction, coupling law and counts of a structured SVD."""
    name = structure.value
    n = a.shape[0]
    out = sigma_problems(a, sigma) + counts_problems(structure, spec, *counts)
    for label, m in (("U", u), ("V", v)):
        d = _norm(m.conj().T @ m - np.eye(n))
        if d > TOL * n:
            out.append(f"{label} not unitary: {d:.2e}")
    out += reconstruction_problems(a, u, sigma, v)
    # T is a generalized permutation with unit-modulus entries
    mags = np.abs(t)
    nz = mags > 0.5
    if np.any(nz.sum(axis=0) != 1) or np.any(nz.sum(axis=1) != 1):
        out.append("T is not a generalized permutation")
    elif np.max(np.abs(mags[nz] - 1.0)) > 1e-12 or np.max(mags[~nz], initial=0.0) > 0:
        out.append("T entries are not exact unit phases and zeros")
    base = v.conj() if name in CON else v
    law = -base @ j_matrix(n) if name == "skew-coninvolutory" else base @ t
    coupling = _norm(u - law) / n
    if coupling > COUPLING_TOL:
        out.append(f"coupling law {coupling:.2e} > {COUPLING_TOL:g}")
    return out


def canonical_problems(a, structure, t_sigma, transform) -> list:
    """T Sigma lies in the class of a, and a = B(V) (T Sigma) V^H."""
    out = []
    d = identity_defect(structure.value, t_sigma)
    if d > TOL:
        out.append(f"T Sigma class identity {d:.2e} > {TOL:g}")
    left = transform.conj() if structure.value in CON else transform
    r = _norm(a - left @ t_sigma @ transform.conj().T) / _scale(a)
    if r > TOL:
        out.append(f"canonical reconstruction {r:.2e} > {TOL:g}")
    return out


def eigen_problems(a, structure, spec, x, eigenvalues) -> list:
    """a X = X Lambda, eigenvalues in {+-1} (or {+-1j}), counts against
    trace(a) and the spec."""
    skew = structure.value in SKEW
    unit = 1j if skew else 1.0
    lam = np.asarray(eigenvalues)
    out = []
    if np.max(np.minimum(np.abs(lam - unit), np.abs(lam + unit))) > 0:
        out.append("eigenvalues outside {+1, -1} (or {+1j, -1j})")
    r = _norm(a @ x - x * lam) / (_scale(a) * max(1.0, _norm(x)))
    if r > TOL:
        out.append(f"eigen residual {r:.2e} > {TOL:g}")
    key = lam.imag if skew else lam.real
    n_plus = int(np.count_nonzero(key > 0))
    n_minus = lam.size - n_plus
    trace = complex(np.trace(a))
    if n_plus - n_minus != round(trace.imag if skew else trace.real):
        out.append(f"eigenvalue counts {n_plus}/{n_minus} disagree with trace {trace:.6g}")
    nu, eta1, _ = expected_counts(structure, spec)
    if n_plus != nu + eta1:
        out.append(f"{n_plus} eigenvalues +, spec gives {nu + eta1}")
    return out


def consim_problems(a, s, minus_j=False) -> list:
    """a = S conj(S)^-1, or a = -conj(Z) J Z^-1 (skew-coninvolutory)."""
    if minus_j:
        # -conj(Z) J Z^-1 via the transposed solve Z^T Y^T = (conj(Z) J)^T
        recon = -np.linalg.solve(s.T, (s.conj() @ j_matrix(a.shape[0])).T).T
    else:
        recon = np.linalg.solve(s.conj().T, s.T).T
    r = _norm(a - recon) / (_scale(a) * max(1.0, float(np.linalg.cond(s))))
    return [f"consimilarity residual {r:.2e} > {TOL:g}"] if r > TOL else []


def coneigen_problems(a, structure, spec, singles) -> list:
    out = []
    _, eta1, eta2 = expected_counts(structure, spec)
    if len(singles) != eta1 + eta2:
        out.append(f"{len(singles)} coneigenvectors, spec gives {eta1 + eta2}")
    n = a.shape[0]
    for q, lam in singles:
        r = _norm(a @ q.conj() - lam * q) / n
        if lam != 1.0 or r > COUPLING_TOL:
            out.append(f"coneigenvector residual {r:.2e} (coneigenvalue {lam})")
            break
    return out


def projector_problems(a, sign, sigma, u, v) -> list:
    b = projector(a, sign)
    return sigma_problems(b, sigma, what=f"projector {sign:+d} sigma") + reconstruction_problems(
        b, u, sigma, v, what=f"projector {sign:+d} reconstruction"
    )
