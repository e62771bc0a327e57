"""Projectors (I +- A)/2: explicit SVD and the rank-factorization oracle."""

import importlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from involsvd import (
    GeneratorSpec,
    NumericalError,
    StructureClass,
    StructureViolationError,
    WrongClassError,
    gen_structured,
    haar_unitary,
    householder_singular_values,
    idempotency_residual,
    projector,
    projector_svd,
    restructure,
    svd as kernel_svd,
)
from involsvd.structured_svd import layout_svd
from involsvd.structures import class_gate
from helpers import build_corpus, example1_matrix, random_spec

SC = StructureClass
# the package's name ``projector`` is the function, so reach the module this way
projector_module = importlib.import_module("involsvd.projector")


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

    def test_closed_form_order_equals_the_stable_argsort(self):
        # the factors come out in the order a stable descending argsort of the
        # block values gives, entry for entry equal, for every layout to n = 12
        cases = 0
        for ssvd in involutory_layouts(12, np.random.default_rng(12)):
            for sign in (1, -1):
                res = projector_svd(ssvd, sign).svd
                u_ref, sigma_ref, v_ref = sorted_by_argsort(ssvd, sign)
                assert np.array_equal(res.sigma, sigma_ref)
                assert np.array_equal(res.u, u_ref) and np.array_equal(res.v, v_ref)
                cases += 1
        assert cases > 2000


def sorted_by_argsort(ssvd, sign):
    """projector_svd's factors built as three blocks (pair values, pair zeros,
    singles with value |d + sign|/2) and put in order by a stable argsort."""
    lead, part, single = ssvd.columns()
    sig = ssvd.sigma[lead]
    c = np.sqrt(sig / (sig + 1.0 / sig))
    r = sign * c / sig
    shifted = ssvd.t[single, single].real + sign
    u, v = ssvd.u, ssvd.v
    u_b = np.hstack(
        [u[:, lead] * c + u[:, part] * r, u[:, part] * c - u[:, lead] * r, u[:, single]]
    )
    v_b = np.hstack(
        [
            (v[:, lead] * c + v[:, part] * r) * sign,
            v[:, part] * c - v[:, lead] * r,
            v[:, single] * np.where(shifted < 0.0, -1.0, 1.0),
        ]
    )
    sigma_b = np.concatenate([(sig + 1.0 / sig) / 2.0, np.zeros(lead.size), np.abs(shifted) / 2.0])
    order = np.argsort(-sigma_b, kind="stable")
    return u_b[:, order], sigma_b[order], v_b[:, order]


def involutory_layouts(n_max, rng):
    """Structured SVDs of every involutory layout with n <= n_max: nu pairs
    (sigmas drawn with repeats and one at 1 + 1e-9, whose pair value rounds
    to 1), mu (1, 1) pairs, and each split of the singles into +1 and -1,
    once in blocks and once shuffled."""
    pool = [1e4, 7.0, 3.0, 3.0, 1.5, 1.0 + 1e-9]
    for n in range(1, n_max + 1):
        v = haar_unitary(n, rng)
        for npairs in range(n // 2 + 1):
            k = n - 2 * npairs
            for mu in range(npairs + 1):
                lead_s = np.sort(rng.choice(pool, npairs - mu))[::-1]
                for plus in range(k + 1):
                    signs = np.array([1.0] * plus + [-1.0] * (k - plus))
                    for diag in (signs, rng.permutation(signs)):
                        yield layout_svd(SC.INVOLUTORY, v, lead_s, diag, mu)


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

    def test_values_do_not_depend_on_tol(self):
        # a pair at 1.0001 puts an eigenvalue of W^H W - I at about 1e-8, which a
        # clamp window widened to tol would snap to 0 at tol >= 1e-8
        spec = GeneratorSpec(n=4, nu=1, sigmas=(1.0001,), eta1=1, eta2=1, seed=3)
        a, _ = gen_structured(SC.INVOLUTORY, spec)
        vals = householder_singular_values(a, 1e-10)
        assert vals.tobytes() == householder_singular_values(a, 1e-6).tobytes()
        assert_allclose(vals, np.linalg.svd(a, compute_uv=False), rtol=1e-9)

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
        null_sketch = np.array([[3.0 + 0j], [-1.0]])
        monkeypatch.setattr(projector_module, "_sketch", lambda n, r: null_sketch)
        with pytest.raises(NumericalError, match="range residual"):
            householder_singular_values(a)

    @pytest.mark.parametrize("d, read", [
        (0.09, [1.348, 0.7416]), (0.09j, [1.001, 0.999]), (0.11, None), (0.11j, None),
    ])
    def test_trace_slack_is_0_1(self, d, read):
        # r is read off the trace, whose real part must lie within 0.1 of an integer of n's
        # parity and its imaginary part within 0.1 of 0: diag(1 + d, -1), which the gate
        # admits at tol 1, is read at |d| = 0.09 and refused at 0.11, real or imaginary d
        a = np.diag([1.0 + d, -1.0])
        if read is None:
            with pytest.raises(NumericalError, match="is not consistent with [+]-1 eigenvalues"):
                householder_singular_values(a, 1.0)
        else:
            assert_allclose(householder_singular_values(a, 1.0), read, rtol=1e-3)

    @pytest.mark.parametrize("eps, refused", [(3e-5, True), (1e-3, False)])
    def test_range_limit_is_1e3_n(self, monkeypatch, eps, refused):
        # a sketch whose second column g1 + eps g2 nearly repeats its first leaves Q's
        # second column to rounding over eps: the range residual reads 8.6e-11 at
        # eps = 3e-5, over the limit RANGE_SLACK n (eps ||B||_F + ||B^2 - B||_F) = 4.6e-12,
        # and passes at 1e-3; a RANGE_SLACK of 1e5 would admit 3e-5 too
        a, _ = gen_structured(SC.INVOLUTORY, GeneratorSpec(n=4, nu=2, sigmas=(3.0, 2.0), seed=1))
        sketch = projector_module._sketch

        def near_rank_one(n, r):
            g = sketch(n, r)
            return np.stack([g[:, 0], g[:, 0] + eps * g[:, 1]], axis=1)

        monkeypatch.setattr(projector_module, "_sketch", near_rank_one)
        if refused:
            with pytest.raises(NumericalError, match="range residual 8.610e-11 > 4.574e-12"):
                householder_singular_values(a)
        else:
            assert_allclose(householder_singular_values(a), [3.0, 2.0, 0.5, 1.0 / 3.0],
                            rtol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-13, 1e-12, 1e-11]))
    def test_perturbed_inputs_pass_the_range_check(self, seed, eps):
        # random_spec inputs moved by eps ||A||_F that the default gate still
        # accepts: B is off rank r by their distance, far above rounding, and
        # the clamp window on W^H W - I takes that distance in
        rng = np.random.default_rng(seed)
        spec = random_spec(SC.INVOLUTORY, rng, n_max=60, sigma_cap=1e6)
        a, _ = gen_structured(SC.INVOLUTORY, spec)
        e = rng.standard_normal(a.shape)
        a = a + eps * np.linalg.norm(a) * e / np.linalg.norm(e)
        if not class_gate(a, SC.INVOLUTORY, 1e-10)[2]:
            return
        vals = householder_singular_values(a)
        reference = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(vals - reference)) <= 1e-9 * max(1.0, reference[0])

    @pytest.mark.parametrize("seed, draw", [(1, 105), (1, 117), (2, 94), (3, 43)])
    def test_clamp_window_reads_the_class_distance(self, seed, draw):
        # draw-th random_spec input of the stream, each draw followed by real
        # Gaussian moves E_1, E_2; A + 1e-11 ||A||_F E_2 / ||E_2||_F passes the
        # gate, but with a window of rounding alone W^H W - I had an eigenvalue
        # (-1.4e-10 to -3.2e-10) below it and the oracle refused the input
        rng = np.random.default_rng(seed)
        for _ in range(draw + 1):
            spec = random_spec(SC.INVOLUTORY, rng, n_max=60, sigma_cap=1e6)
            rng.standard_normal((spec.n, spec.n))
            e = rng.standard_normal((spec.n, spec.n))
        a, _ = gen_structured(SC.INVOLUTORY, spec)
        a = a + 1e-11 * np.linalg.norm(a) * e / np.linalg.norm(e)
        assert class_gate(a, SC.INVOLUTORY, 1e-10)[2]
        vals = householder_singular_values(a)
        reference = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(vals - reference)) <= 1e-9 * max(1.0, reference[0])

    @pytest.mark.parametrize("seed", range(5))
    def test_clamp_window_keeps_a_pair_at_1_plus_9e_8(self, seed):
        # the pair at 1 + d puts W^H W - I at d^2 = 8.1e-15, above the clamp window
        # 16 r eps lam_max = 3.6e-15 (plus the rounding-sized class distance), so it is read;
        # a window factor of 64 (1.4e-14) would snap every draw to 1
        d = 9e-8
        a, _ = gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2, nu=1, sigmas=(1 + d,), seed=seed))
        vals = householder_singular_values(a)
        assert np.max(np.abs(vals - [1 + d, 1 / (1 + d)])) <= 0.05 * d  # 0.049 d at most

    @pytest.mark.xfail(
        strict=True,
        reason="a pair at 1 + 5e-5 puts W^H W - I at 2.5e-9, inside the clamp window "
        "16 r eps lam_max = 1.8e-7 at lam_max 2.5e7, so the oracle snaps it to 1: relative "
        "disagreement 5.0e-5",
    )
    def test_reads_the_near_unit_member_to_1e_10(self):
        # perfbench's involutory near-unit member, read by the CLI's oracle rule (the worst
        # disagreement over sigma) against the generator's own sigma, at 1 and 2 BLAS threads
        spec = GeneratorSpec(n=6, nu=2, sigmas=(1e4, 1 + 5e-5), eta1=1, eta2=1, seed=100)
        a, truth = gen_structured(SC.INVOLUTORY, spec)
        reference = np.sort(truth.sigma)[::-1]
        vals = householder_singular_values(a)
        assert np.max(np.abs(vals - reference) / np.maximum(reference, 1e-30)) <= 1e-10

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


class TestSketch:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 41, 100])
    def test_equals_a_fresh_draw(self, n):
        for r in range(n // 2 + 1):
            fresh = np.random.default_rng(0).standard_normal((n, 2 * r)).view(np.complex128)
            omega = projector_module._sketch(n, r)
            assert omega.shape == fresh.shape and omega.dtype == fresh.dtype
            assert omega.tobytes() == fresh.tobytes()

    def test_read_only(self):
        omega = projector_module._sketch(6, 2)
        assert not omega.flags.writeable
        with pytest.raises(ValueError):
            omega[0, 0] = 0.0
        assert projector_module._sketch(6, 2).tobytes() == omega.tobytes()

    def test_cache_is_bounded(self):
        cached = projector_module._gaussian
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize <= 64
        for n in range(1, maxsize + 9):
            projector_module._sketch(n, n // 2)
        assert cached.cache_info().currsize <= maxsize
