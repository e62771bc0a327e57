"""Kernel: LAPACK SVD, Hermitian eig, Takagi factor, skew pairing, QR, expm."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from involsvd import (
    DimensionError,
    InvalidInputError,
    NumericalError,
    svd,
)
from involsvd.kernel import (
    hermitian_eig,
    qr_column_pivoted,
    skew_pair_unitary,
    takagi_symmetric_unitary,
)
from helpers import (
    assert_unitary,
    degenerate_skew_pairing_matrix,
    example1_matrix,
    j_matrix,
    matexp_skewfactor,
    singvals_2x2,
)


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3))
        assert_allclose(res.sigma, [1.0, 1.0, 1.0])
        assert_allclose(res.reconstruct(), np.eye(3), atol=1e-14)

    def test_2x2_reciprocal(self):
        a = np.array([[0.0, 2.0], [0.5, 0.0]])
        res = svd(a)
        # frozen values, confirmed by the quadratic-formula oracle
        assert_allclose(res.sigma, [2.0, 0.5], rtol=1e-14)
        assert_allclose(res.sigma, singvals_2x2(a), rtol=1e-12)
        assert_allclose(res.reconstruct(), a, atol=1e-14)

    def test_2x2_random_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            res = svd(a)
            assert_allclose(res.sigma, singvals_2x2(a), atol=1e-13, rtol=1e-12)

    def test_example_matrix_all_unit(self):
        res = svd(example1_matrix())
        assert_allclose(res.sigma, np.ones(4), atol=1e-14)

    def test_random_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 31))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            res = svd(a)
            norm_a = np.linalg.norm(a)
            assert np.linalg.norm(a - res.reconstruct()) <= 1e-12 * n * norm_a
            eye = np.eye(n)
            assert np.linalg.norm(res.u.conj().T @ res.u - eye) <= 1e-12 * n
            assert np.linalg.norm(res.v.conj().T @ res.v - eye) <= 1e-12 * n
            assert np.all(np.diff(res.sigma) <= 0.0)
            assert np.all(res.sigma >= 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        r1, r2 = svd(a), svd(a)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.sigma, r2.sigma)
        assert np.array_equal(r1.v, r2.v)

    def test_rank_deficient_completion(self):
        res = svd(np.zeros((3, 3)))
        assert_allclose(res.sigma, np.zeros(3))
        assert_unitary(res.u)
        assert_unitary(res.v)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            svd(np.ones((2, 3)))

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(NumericalError) as err:
            svd(np.eye(3))
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_rejects_nan(self):
        a = np.eye(2, dtype=complex)
        a[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            svd(a)

    @pytest.mark.parametrize(
        "bad", [complex(1.0, np.nan), complex(0.0, np.inf), complex(0.0, -np.inf)]
    )
    def test_rejects_non_finite_imaginary_part(self, bad):
        a = np.eye(2, dtype=complex)
        a[1, 0] = bad
        with pytest.raises(InvalidInputError, match="matrix entries must be finite"):
            svd(a)


class TestHermitianEig:
    def test_diagonal(self):
        q, lam = hermitian_eig(np.diag([1.0, -1.0]))
        assert_allclose(lam, [1.0, -1.0])
        assert_allclose(np.abs(q), np.eye(2), atol=1e-14)

    def test_swap_2x2(self):
        q, lam = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(lam, [1.0, -1.0], atol=1e-14)
        root = 1.0 / np.sqrt(2.0)
        assert_allclose(np.abs(q), np.full((2, 2), root), atol=1e-12)

    def test_identity(self):
        _, lam = hermitian_eig(np.eye(4))
        assert_allclose(lam, np.ones(4))

    def test_residual_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 16))
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = h + h.conj().T
            q, lam = hermitian_eig(h)
            assert np.linalg.norm(h @ q - q * lam) <= 1e-12 * n * np.linalg.norm(h)
            assert_unitary(q)

def tilted_unitary(m0, sign, tol, rng):
    """Unitary ``m0 W``, with W a Cayley rotation close to I, whose defect
    ``||m - sign m^T||`` is half of ``tol * n``, the kind of limit ``restructure``
    checks before it calls the kernels."""
    n = m0.shape[0]
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2.0

    def tilt(eps):
        eye = np.eye(n)
        return m0 @ np.linalg.solve(eye - 1j * eps * h, eye + 1j * eps * h)

    defect = np.linalg.norm(tilt(1e-6) - sign * tilt(1e-6).T)
    m = tilt(1e-6 * 0.5 * tol * n / defect)
    assert 0.25 * tol * n < np.linalg.norm(m - sign * m.T) < tol * n
    assert_unitary(m, 1e-13)
    return m


class TestTakagi:
    def test_identity(self):
        f = takagi_symmetric_unitary(np.eye(2))
        assert_allclose(f, np.eye(2), atol=1e-14)

    def test_scalar_phase(self):
        theta = 0.7
        m = np.array([[np.exp(1j * theta)]])
        f = takagi_symmetric_unitary(m)
        assert_allclose(f @ f.T, m, atol=1e-14)
        assert_allclose(np.abs(f[0, 0]), 1.0, atol=1e-14)

    def test_swap(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        f = takagi_symmetric_unitary(m)
        assert_allclose(f @ f.T, m, atol=1e-13)
        assert_unitary(f)
        for k in range(2):
            col = f[:, k]
            assert np.linalg.norm(m @ col.conj() - col) <= 1e-13

    def test_random_symmetric_unitary(self):
        from involsvd import haar_unitary

        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            f0 = haar_unitary(n, rng)
            m = f0 @ f0.T
            f = takagi_symmetric_unitary(m)
            assert np.linalg.norm(m - f @ f.T) <= 1e-10 * n
            assert_unitary(f)
            for k in range(n):
                col = f[:, k]
                assert np.linalg.norm(m @ col.conj() - col) <= 1e-10 * n

    def test_hard_spectra(self):
        from involsvd import haar_unitary

        rng = np.random.default_rng(17)
        tol = 1e-10

        def conjugated(phases):
            q = haar_unitary(len(phases), rng)
            return (q * np.exp(1j * np.asarray(phases))) @ q.T

        cases = [-np.eye(n, dtype=complex) for n in (1, 2, 7, 40)]
        for n in (3, 12, 40):  # one cluster straddling pi
            cases.append(conjugated(np.pi + rng.choice([-1e-12, 1e-12], n)))
        for n in (4, 13, 40):  # clusters at 0 and pi
            cases.append(conjugated(np.where(rng.random(n) < 0.5, 0.0, np.pi)))
        for n in (5, 20, 40):  # symmetric perturbation just inside a limit of tol * n
            m = conjugated(rng.choice([0.0, np.pi, np.pi + 1e-12, -1e-12], n))
            e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            e = 1e-6 * (e + e.T) / np.linalg.norm(e + e.T)
            defect = np.linalg.norm((m + e).conj().T @ (m + e) - np.eye(n))
            m = m + e * (0.9 * tol * n / defect)
            assert np.linalg.norm(m.conj().T @ m - np.eye(n)) > 0.5 * tol * n
            cases.append(m)
        for m in cases:
            n = m.shape[0]
            f = takagi_symmetric_unitary(m)
            assert np.linalg.norm(m - f @ f.T) <= 1e-10 * n
            assert_unitary(f)
            for k in range(n):
                col = f[:, k]
                assert np.linalg.norm(m @ col.conj() - col) <= 1e-10 * n

    def test_factors_symmetric_part_of_accepted_input(self):
        # an input inside a symmetry limit is factored as (m + m^T)/2
        from involsvd import haar_unitary

        rng = np.random.default_rng(23)
        tol = 1e-9
        for n in (2, 5, 12, 30):
            f0 = haar_unitary(n, rng)
            m = tilted_unitary(f0 @ f0.T, 1.0, tol, rng)
            f = takagi_symmetric_unitary(m)
            assert np.linalg.norm(f @ f.T - (m + m.T) / 2.0) <= 1e-13
            assert_unitary(f)


class TestSkewPair:
    def test_elementary(self):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        f = skew_pair_unitary(m)
        assert_allclose(f, np.eye(2), atol=1e-14)

    def test_phase_variant(self):
        m = np.array([[0.0, 1j], [-1j, 0.0]])
        f = skew_pair_unitary(m)
        assert np.linalg.norm(m - f @ j_matrix(1) @ f.T) <= 1e-13
        assert_unitary(f)

    def test_block_sum_gives_permutation(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = m[2, 3] = 1.0
        m[1, 0] = m[3, 2] = -1.0
        f = skew_pair_unitary(m)
        assert np.linalg.norm(m - f @ j_matrix(2) @ f.T) <= 1e-13
        # the factor is exactly a permutation of the identity columns
        assert_allclose(np.abs(f), np.abs(f).round(), atol=1e-14)
        assert_allclose(np.abs(f).sum(axis=0), np.ones(4))

    def test_pair_inner_products_vanish(self):
        from involsvd import haar_unitary

        rng = np.random.default_rng(9)
        cases = []
        for k in [int(rng.integers(1, 7)) for _ in range(25)] + [10, 20, 40]:
            f0 = haar_unitary(2 * k, rng)
            cases.append(f0 @ j_matrix(k) @ f0.T)
        cases += [j_matrix(k) for k in (1, 2, 5, 40)]
        for k in (2, 3, 6, 20):  # signed permutations of block sums of J(1)
            p = np.eye(2 * k)[:, rng.permutation(2 * k)] * rng.choice([-1.0, 1.0], 2 * k)
            cases.append(p @ np.kron(np.eye(k), j_matrix(1)) @ p.T)
        for m in cases:
            k = m.shape[0] // 2
            f = skew_pair_unitary(m)
            assert np.linalg.norm(m - f @ j_matrix(k) @ f.T) <= 1e-13
            assert np.linalg.norm(f.conj().T @ f - np.eye(2 * k)) <= 1e-13
            for col in range(2 * k):
                x = f[:, col]
                # exact skew-symmetry identity: conj(x)^T M conj(x) = 0
                assert abs(x.conj() @ m @ x.conj()) <= 1e-12

    def test_factors_skew_part_of_accepted_input(self):
        # an input inside a skew-symmetry limit is factored as (m - m^T)/2
        from involsvd import haar_unitary

        rng = np.random.default_rng(29)
        tol = 1e-9
        for k in (1, 3, 6, 15):
            f0 = haar_unitary(2 * k, rng)
            m = tilted_unitary(f0 @ j_matrix(k) @ f0.T, -1.0, tol, rng)
            f = skew_pair_unitary(m)
            assert np.linalg.norm(f @ j_matrix(k) @ f.T - (m - m.T) / 2.0) <= 1e-13
            assert_unitary(f)

    def test_singular_pairing_matrix_is_numerical_error(self):
        # H = G - M G M^H is singular for G = diag(4, 3, 2, 1): no
        # deterministic split of its spectrum exists
        with pytest.raises(NumericalError, match="degenerate"):
            skew_pair_unitary(degenerate_skew_pairing_matrix())

class TestQrColumnPivoted:
    def test_rank_one_diagonal(self):
        q, w, rank = qr_column_pivoted(np.diag([1.0, 0.0, 0.0]), 1e-12)
        assert rank == 1
        assert q.shape == (3, 1) and w.shape == (3, 1)
        assert_allclose(np.abs(q[:, 0]), [1.0, 0.0, 0.0], atol=1e-14)
        assert_allclose(q @ w.conj().T, np.diag([1.0, 0.0, 0.0]), atol=1e-14)

    def test_zero_matrix(self):
        q, w, rank = qr_column_pivoted(np.zeros((4, 4)), 1e-12)
        assert rank == 0
        assert q.shape == (4, 0) and w.shape == (4, 0)

    def test_rank_two_outer_sum(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        a = x @ y.conj().T
        q, w, rank = qr_column_pivoted(a, 1e-12)
        assert rank == 2
        assert np.linalg.norm(a - q @ w.conj().T) <= 1e-12 * np.linalg.norm(a)

    def test_rank_recovery_random(self):
        rng = np.random.default_rng(33)
        tol = 1e-10
        for _ in range(50):
            n = int(rng.integers(2, 12))
            r = int(rng.integers(0, n + 1))
            x = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            a = x @ x.conj().T  # exact rank r, separation far above 1e3*tol
            _, _, rank = qr_column_pivoted(a, tol)
            assert rank == r


class TestMatexpSkewfactor:
    def test_zero(self):
        assert_allclose(matexp_skewfactor(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_scalar(self):
        theta = 1.3
        x = matexp_skewfactor(np.array([[theta]]))
        assert_allclose(x, [[np.exp(1j * theta)]], atol=1e-15)

    def test_pi_swap_closed_form(self):
        r = np.array([[0.0, np.pi], [np.pi, 0.0]])
        # eigenvalues of r are +-pi, so exp(1j*r) = cos(pi) I = -I
        assert_allclose(matexp_skewfactor(r), -np.eye(2), atol=1e-13)

    def test_coninvolutory_by_construction(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(1, 21))
            r = rng.standard_normal((n, n)) * rng.uniform(0.1, 4.0)
            x = matexp_skewfactor(r)
            # conditioning factor ||x||^2: the defect of x @ conj(x) scales
            # with the squared norm of the exponential
            cond = max(1.0, np.linalg.norm(x) ** 2)
            assert np.linalg.norm(x @ x.conj() - np.eye(n)) <= 1e-12 * n * cond

    def test_rejects_complex_generator(self):
        with pytest.raises(InvalidInputError):
            matexp_skewfactor(1j * np.eye(2))
