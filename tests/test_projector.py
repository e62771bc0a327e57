"""Projectors (I +- A)/2: explicit SVD and the rank-factorization oracle."""

import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from involsvd import (
    StructureClass,
    StructureViolationError,
    WrongClassError,
    householder_singular_values,
    idempotency_residual,
    projector,
    projector_svd,
    restructure,
    svd as kernel_svd,
)
from helpers import build_corpus, example1_matrix

SC = StructureClass


class TestProjector:
    def test_identity_plus(self):
        assert_allclose(projector(np.eye(3), 1), np.eye(3))

    def test_diag_signs(self):
        a = np.diag([1.0, -1.0, -1.0])
        assert_allclose(projector(a, 1), np.diag([1.0, 0.0, 0.0]), atol=1e-15)

    def test_reciprocal_2x2(self):
        a = np.array([[0.0, 2.0], [0.5, 0.0]])
        assert_allclose(projector(a, 1), [[0.5, 1.0], [0.25, 0.5]], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        corpus = build_corpus(SC.INVOLUTORY, 10, seed=44, n_max=16, sigma_cap=1e3)
        for a, _, _ in corpus:
            for sign in (1, -1):
                b = projector(a, sign)
                assert idempotency_residual(b) <= 1e-10

    def test_rejects_non_involutory(self):
        with pytest.raises(StructureViolationError):
            projector(np.diag([2.0, 0.5]), 1)


class TestProjectorSvd:
    def test_worked_value_five_fourths(self):
        a = np.array([[0.0, 2.0], [0.5, 0.0]])
        psvd = projector_svd(restructure(a, SC.INVOLUTORY), 1)
        assert abs(psvd.svd.sigma[0] - 1.25) <= 1e-12
        assert abs(psvd.svd.sigma[1]) <= 1e-12

    def test_identity_minus_is_zero(self):
        psvd = projector_svd(restructure(np.eye(3), SC.INVOLUTORY), -1)
        assert_allclose(psvd.svd.sigma, np.zeros(3), atol=1e-14)
        assert_allclose(psvd.svd.reconstruct(), np.zeros((3, 3)), atol=1e-14)

    def test_diag_signs_plus(self):
        a = np.diag([1.0, -1.0, -1.0])
        psvd = projector_svd(restructure(a, SC.INVOLUTORY), 1)
        assert_allclose(psvd.svd.sigma, [1.0, 0.0, 0.0], atol=1e-14)
        assert_allclose(psvd.svd.reconstruct(), np.diag([1.0, 0.0, 0.0]), atol=1e-13)

    def test_example_matrix_both_signs(self):
        ssvd = restructure(example1_matrix(), SC.INVOLUTORY)
        plus = projector_svd(ssvd, 1)
        minus = projector_svd(ssvd, -1)
        # eigenvalue counts (3, 1) turn into ranks of the two projectors
        assert_allclose(plus.svd.sigma, [1.0, 1.0, 1.0, 0.0], atol=1e-13)
        assert_allclose(minus.svd.sigma, [1.0, 0.0, 0.0, 0.0], atol=1e-13)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_factors_and_sigma_pattern(self, sign):
        corpus = build_corpus(SC.INVOLUTORY, 12, seed=55, n_max=18, sigma_cap=1e3)
        for a, _, ssvd in corpus:
            n = ssvd.dim
            psvd = projector_svd(ssvd, sign)
            b = (np.eye(n) + sign * a) / 2.0
            res = psvd.svd
            eye = np.eye(n)
            assert np.linalg.norm(res.u.conj().T @ res.u - eye) <= 1e-11 * n
            assert np.linalg.norm(res.v.conj().T @ res.v - eye) <= 1e-11 * n
            assert np.linalg.norm(b - res.reconstruct()) <= 1e-11 * n * max(
                1.0, np.linalg.norm(b)
            )
            assert np.all(np.diff(res.sigma) <= 0) and np.all(res.sigma >= 0)
            # expected multiset: (sigma + 1/sigma)/2 with a 0 partner per
            # pair, plus 1/0 per single depending on its sign
            lead, _, single = ssvd.columns()
            sig = ssvd.sigma[lead]
            signs = ssvd.t[single, single].real
            expected = np.concatenate(
                [(sig + 1.0 / sig) / 2.0, np.zeros(lead.size), np.where(signs == sign, 1.0, 0.0)]
            )
            assert_allclose(np.sort(res.sigma), np.sort(expected), atol=1e-11)

    def test_agrees_with_kernel_svd(self):
        corpus = build_corpus(SC.INVOLUTORY, 10, seed=66, n_max=14, sigma_cap=1e3)
        for a, _, ssvd in corpus:
            for sign in (1, -1):
                psvd = projector_svd(ssvd, sign)
                reference = kernel_svd(projector(a, sign)).sigma
                assert np.max(np.abs(psvd.svd.sigma - reference)) <= 1e-9 * max(
                    1.0, reference[0]
                )

    def test_wrong_class(self):
        ssvd = restructure(1j * np.eye(2), SC.SKEW_INVOLUTORY)
        with pytest.raises(WrongClassError):
            projector_svd(ssvd, 1)


class TestHouseholderSingularValues:
    def test_diag_signs_all_ones(self):
        vals = householder_singular_values(np.diag([1.0, -1.0, -1.0]))
        assert_allclose(vals, [1.0, 1.0, 1.0], atol=1e-12)

    def test_identity(self):
        assert_allclose(householder_singular_values(np.eye(5)), np.ones(5))

    def test_reciprocal_2x2(self):
        vals = householder_singular_values(np.array([[0.0, 2.0], [0.5, 0.0]]))
        assert_allclose(vals, [2.0, 0.5], rtol=1e-12)

    def test_agrees_with_restructure(self):
        corpus = build_corpus(SC.INVOLUTORY, 25, seed=77, n_max=20, sigma_cap=1e3)
        for a, _, ssvd in corpus:
            vals = householder_singular_values(a)
            reference = np.sort(ssvd.sigma)[::-1]
            rel = np.max(np.abs(vals - reference) / np.maximum(reference, 1e-30))
            assert rel <= 1e-7

    def test_rejects_non_involutory(self):
        with pytest.raises(StructureViolationError):
            householder_singular_values(np.diag([2.0, 0.5]))

    def test_computes_no_svd(self, monkeypatch):
        corpus = build_corpus(SC.INVOLUTORY, 12, seed=88, n_max=20, sigma_cap=1e3)

        def no_svd(*args, **kwargs):
            raise AssertionError("numpy.linalg.svd called")

        # np.linalg.norm(x, 2) calls the svd of numpy's private linalg
        # module, so patch it wherever numpy.linalg defines one
        for name, module in list(sys.modules.items()):
            if name.startswith("numpy.linalg") and hasattr(module, "svd"):
                monkeypatch.setattr(module, "svd", no_svd)
        for a, truth, _ in corpus:
            vals = householder_singular_values(a)
            assert_allclose(vals, np.sort(truth.sigma)[::-1], rtol=1e-7)
