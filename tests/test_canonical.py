"""Canonical forms, eigendecompositions and consimilarity transforms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from involsvd import (
    GeneratorSpec,
    StructureClass,
    WrongClassError,
    canonical_form,
    canonical_residual,
    classify,
    coneigen_singles,
    consim_to_identity,
    consim_to_minusJ,
    consimilarity_residual,
    eigen_residual,
    eigendecompose,
    gen_consim,
    gen_structured,
    minusj_residual,
    restructure,
)
from helpers import build_corpus

SC = StructureClass


class TestCanonicalForm:
    def test_involutory_2x2(self):
        a = np.array([[0.0, 2.0], [0.5, 0.0]])
        form = canonical_form(restructure(a, SC.INVOLUTORY))
        assert_allclose(form.t_sigma, [[0.0, 0.5], [2.0, 0.0]], atol=1e-14)
        assert form.structure is SC.INVOLUTORY
        assert canonical_residual(a, form) <= 1e-14

    def test_identity(self):
        form = canonical_form(restructure(np.eye(3), SC.INVOLUTORY))
        assert_allclose(form.t_sigma, np.eye(3), atol=1e-14)

    def test_skew_coninvolutory_elementary(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        form = canonical_form(restructure(a, SC.SKEW_CONINVOLUTORY))
        assert_allclose(form.t_sigma, a, atol=1e-14)
        assert form.structure is SC.SKEW_CONINVOLUTORY
        assert canonical_residual(a, form) <= 1e-14

    @pytest.mark.parametrize("structure", list(SC))
    def test_closure_and_residual(self, structure):
        corpus = build_corpus(structure, 10, seed=31, n_max=20, sigma_cap=1e3)
        for a, _, ssvd in corpus:
            form = canonical_form(ssvd)
            assert canonical_residual(a, form) <= 1e-10
            # T Sigma lies in the same structure class as the input
            assert structure in classify(form.t_sigma, 1e-8).accepted


class TestEigendecompose:
    def test_diag_signs(self):
        a = np.diag([1.0, -1.0, -1.0]).astype(complex)
        eig = eigendecompose(restructure(a, SC.INVOLUTORY))
        assert sorted(eig.eigenvalues.real) == pytest.approx([-1.0, -1.0, 1.0])
        assert (eig.n_plus, eig.n_minus) == (1, 2)
        assert eigen_residual(a, eig) <= 1e-12

    def test_reciprocal_2x2(self):
        a = np.array([[0.0, 2.0], [0.5, 0.0]])
        eig = eigendecompose(restructure(a, SC.INVOLUTORY))
        # characteristic polynomial is lambda^2 - 1
        assert sorted(eig.eigenvalues.real) == pytest.approx([-1.0, 1.0])
        assert (eig.n_plus, eig.n_minus) == (1, 1)
        assert eigen_residual(a, eig) <= 1e-12

    @pytest.mark.parametrize(
        "structure, lams", [(SC.INVOLUTORY, [-1.0, 1.0]), (SC.SKEW_INVOLUTORY, [1j, -1j])]
    )
    def test_pair_columns_take_both_signs_in_turn(self, structure, lams):
        spec = GeneratorSpec(n=7, nu=3, sigmas=(9.0, 4.0, 2.0), eta1=1, seed=6)
        eig = eigendecompose(restructure(gen_structured(structure, spec)[0], structure))
        assert eig.eigenvalues[:6].tolist() == lams * 3

    def test_skew_involutory_scalar_multiple(self):
        a = 1j * np.eye(2)
        eig = eigendecompose(restructure(a, SC.SKEW_INVOLUTORY))
        assert_allclose(eig.eigenvalues, [1j, 1j], atol=1e-12)
        assert eig.n_plus == 2

    @pytest.mark.parametrize("structure", [SC.INVOLUTORY, SC.SKEW_INVOLUTORY])
    def test_counts_match_trace(self, structure):
        corpus = build_corpus(structure, 20, seed=13, n_max=24, sigma_cap=1e4)
        for a, truth, ssvd in corpus:
            eig = eigendecompose(ssvd)
            n = ssvd.dim
            assert eig.n_plus + eig.n_minus == n
            trace = np.trace(a)
            imbalance = trace.imag if structure is SC.SKEW_INVOLUTORY else trace.real
            assert eig.n_plus - eig.n_minus == round(imbalance)
            assert eig.n_plus == truth.counts.nu + truth.counts.eta1
            assert eigen_residual(a, eig) <= 1e-8 * n * np.max(ssvd.sigma)

    def test_wrong_class(self):
        ssvd = restructure(np.array([[0.0, -1.0], [1.0, 0.0]]), SC.SKEW_CONINVOLUTORY)
        with pytest.raises(WrongClassError):
            eigendecompose(ssvd)


class TestConsimToIdentity:
    def test_identity(self):
        s = consim_to_identity(restructure(np.eye(3), SC.CONINVOLUTORY))
        assert consimilarity_residual(np.eye(3), s) <= 1e-13

    def test_scalar_phase(self):
        theta = 0.9
        a = np.array([[np.exp(1j * theta)]])
        s = consim_to_identity(restructure(a, SC.CONINVOLUTORY))
        assert consimilarity_residual(a, s) <= 1e-13

    def test_gen_consim_instances(self):
        for seed in range(8):
            n = seed % 6 + 1
            a = gen_consim(SC.CONINVOLUTORY, n, seed=seed)
            ssvd = restructure(a, SC.CONINVOLUTORY, 1e-8)
            s = consim_to_identity(ssvd)
            assert consimilarity_residual(a, s) <= 1e-8 * np.linalg.cond(s)

    def test_nontrivial_phases_from_truth(self):
        # generator ground truth carries phases, exercising the general
        # square-root blocks of the transform
        spec = GeneratorSpec(
            n=7, nu=2, sigmas=(6.0, 2.0), eta1=2, eta2=1,
            phases=(0.4, 2.8, 5.1), seed=3,
        )
        a, truth = gen_structured(SC.CONINVOLUTORY, spec)
        _, _, single = truth.columns()
        assert not np.allclose(truth.t[single, single], np.ones(single.size))
        s = consim_to_identity(truth)
        assert consimilarity_residual(a, s) <= 1e-10 * np.linalg.cond(s)

    def test_wrong_class(self):
        with pytest.raises(WrongClassError):
            consim_to_identity(restructure(np.eye(2), SC.INVOLUTORY))


class TestConsimToMinusJ:
    def test_elementary(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        z = consim_to_minusJ(restructure(a, SC.SKEW_CONINVOLUTORY))
        assert minusj_residual(a, z) <= 1e-13

    def test_scaled_elementary_closed_form(self):
        spec = GeneratorSpec(n=2, nu=1, sigmas=(2.0,))
        a, _ = gen_structured(SC.SKEW_CONINVOLUTORY, spec, transform=np.eye(2))
        z = consim_to_minusJ(restructure(a, SC.SKEW_CONINVOLUTORY))
        # J Sigma = diag(s^-1/2, s^1/2) J diag(s^1/2, s^-1/2) with s = 2
        assert_allclose(np.abs(z), np.diag([2.0**-0.5, 2.0**0.5]), atol=1e-12)
        assert minusj_residual(a, z) <= 1e-12

    def test_generated_n6(self):
        spec = GeneratorSpec(n=6, nu=3, sigmas=(9.0, 2.5, 1.0), seed=8)
        a, _ = gen_structured(SC.SKEW_CONINVOLUTORY, spec)
        z = consim_to_minusJ(restructure(a, SC.SKEW_CONINVOLUTORY))
        assert minusj_residual(a, z) <= 1e-8 * np.linalg.cond(z)

    def test_wrong_class(self):
        with pytest.raises(WrongClassError):
            consim_to_minusJ(restructure(np.eye(2), SC.INVOLUTORY))


class TestConeigenSingles:
    def test_identity_full_basis(self):
        singles = coneigen_singles(restructure(np.eye(4), SC.CONINVOLUTORY))
        assert len(singles) == 4
        for q, lam in singles:
            assert lam == 1.0
            assert np.linalg.norm(np.eye(4) @ q.conj() - q) <= 1e-12

    def test_scalar(self):
        theta = 1.7
        a = np.array([[np.exp(1j * theta)]])
        ((q, lam),) = coneigen_singles(restructure(a, SC.CONINVOLUTORY))
        assert lam == 1.0
        assert np.linalg.norm(a @ q.conj() - q) <= 1e-14

    def test_single_count_forced(self):
        spec = GeneratorSpec(n=5, nu=2, sigmas=(4.0, 2.0), eta1=1, seed=5)
        a, _ = gen_structured(SC.CONINVOLUTORY, spec)
        singles = coneigen_singles(restructure(a, SC.CONINVOLUTORY))
        assert len(singles) == 1

    def test_truth_with_phases_normalizes(self):
        spec = GeneratorSpec(n=3, eta1=3, phases=(1.0, 2.0, 3.0), seed=1)
        a, truth = gen_structured(SC.CONINVOLUTORY, spec)
        for q, lam in coneigen_singles(truth):
            assert lam == 1.0
            assert np.linalg.norm(a @ q.conj() - q) <= 1e-12

    def test_wrong_class(self):
        with pytest.raises(WrongClassError):
            coneigen_singles(restructure(np.eye(2), SC.INVOLUTORY))
