"""Projectors (I +- A)/2: explicit SVD and the rank-factorization oracle."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from involsvd import (
    NumericalError,
    StructureClass,
    StructureViolationError,
    WrongClassError,
    gen_structured,
    householder_singular_values,
    idempotency_residual,
    projector,
    projector_svd,
    restructure,
    svd as kernel_svd,
)
from involsvd.structures import class_gate
from helpers import build_corpus, example1_matrix, random_spec

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

    def test_tol_zero_exact_input(self):
        # tol sets the class gate only, never the projector's rank
        vals = householder_singular_values(np.array([[0.0, 3.0], [1.0 / 3.0, 0.0]]), tol=0.0)
        assert_allclose(vals, [3.0, 1.0 / 3.0], rtol=1e-15)

    @pytest.mark.parametrize("a, tol", [
        ([[1e-11, 3.0], [1.0 / 3.0, 0.0]], 1e-10),  # involutory residual 3.3e-12
        ([[1e-6, 2.0], [0.5, 0.0]], 1e-5),  # involutory residual 4.9e-7
    ])
    def test_accepts_what_the_gate_accepts(self, a, tol):
        # B's rank-r defect follows the input's own distance from the class,
        # so the range check must not refuse it; values move by about as much
        a = np.array(a)
        vals = householder_singular_values(a, tol)
        reference = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(vals - reference)) <= np.linalg.norm(a @ a - np.eye(2))

    def test_range_check_refuses_a_sketch_that_misses_the_range(self, monkeypatch):
        a = np.array([[0.0, 3.0], [1.0 / 3.0, 0.0]])  # B = (I + A)/2 maps (3, -1) to 0

        class NullSketch:
            def standard_normal(self, shape):
                return np.array([[3.0, 0.0], [-1.0, 0.0]])  # viewed as complex (3, -1)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NullSketch())
        with pytest.raises(NumericalError, match="range residual"):
            householder_singular_values(a)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-13, 1e-12, 1e-11]))
    def test_perturbed_inputs_pass_the_range_check(self, seed, eps):
        # random_spec inputs moved by eps ||A||_F that the default gate still
        # accepts: B is off rank r by their distance, far above rounding
        rng = np.random.default_rng(seed)
        spec = random_spec(SC.INVOLUTORY, rng, n_max=60, sigma_cap=1e6)
        a, _ = gen_structured(SC.INVOLUTORY, spec)
        e = rng.standard_normal(a.shape)
        a = a + eps * np.linalg.norm(a) * e / np.linalg.norm(e)
        if not class_gate(a, SC.INVOLUTORY, 1e-10)[1]:
            return
        try:
            vals = householder_singular_values(a)
        except NumericalError as err:
            # the clamp window on W^H W - I is a separate, known limit
            assert "positive semidefinite" in str(err)
            return
        reference = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(vals - reference)) <= 1e-9 * max(1.0, reference[0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_lapack(self, seed):
        # n up to 60 at the generator's conditioning cap; LAPACK is accurate
        # to eps sigma_1 absolutely, so disagreement is measured that way
        spec = random_spec(SC.INVOLUTORY, np.random.default_rng(seed), n_max=60, sigma_cap=1e6)
        a, _ = gen_structured(SC.INVOLUTORY, spec)
        reference = np.linalg.svd(a, compute_uv=False)
        vals = householder_singular_values(a)
        assert np.max(np.abs(vals - reference)) <= 1e-9 * max(1.0, reference[0])

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
