"""Classification and structured generators."""

import math
from dataclasses import astuple
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from involsvd import (
    DimensionError,
    GeneratorSpec,
    InvalidInputError,
    InvalidSpecError,
    StructureClass,
    classify,
    extract_T,
    gen_consim,
    gen_structured,
    householder_singular_values,
    restructure,
)
from involsvd.kernel import as_square_matrix
from involsvd.structured_svd import layout_svd
from involsvd.structures import class_gate
from helpers import example1_matrix, matexp_skewfactor, random_spec

SC = StructureClass


class TestClassify:
    def test_identity(self):
        rep = classify(np.eye(4), 1e-10)
        assert rep.accepted == {SC.INVOLUTORY, SC.CONINVOLUTORY}
        assert rep.residuals[SC.INVOLUTORY] == 0.0
        assert rep.residuals[SC.CONINVOLUTORY] == 0.0

    def test_i_times_identity(self):
        rep = classify(1j * np.eye(2), 1e-10)
        # (iI)(conj(iI)) = (iI)(-iI) = I
        assert rep.accepted == {SC.SKEW_INVOLUTORY, SC.CONINVOLUTORY}

    def test_example_matrix(self):
        rep = classify(example1_matrix(), 1e-10)
        assert {SC.INVOLUTORY, SC.CONINVOLUTORY} <= rep.accepted

    def test_odd_dimension_never_skew_coninvolutory(self):
        rng = np.random.default_rng(1)
        for n in (1, 3, 5):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rep = classify(a, tol=1e10)  # absurdly lax tolerance
            assert SC.SKEW_CONINVOLUTORY not in rep.accepted
            assert all(rep.residuals[c] <= 1e10 for c in rep.residuals)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            classify(np.ones((2, 3)))

    def test_unstructured_rejected(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 5))
        assert classify(a, 1e-10).accepted == frozenset()


class TestClassGate:
    """The one-class gate reads the same residual and makes the same decision
    as the four-class report."""

    @staticmethod
    def _matrices(n):
        """A random complex matrix and one member of each class that exists
        in dimension n."""
        rng = np.random.default_rng(n)
        k = n - 2
        out = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))]
        for structure in (SC.INVOLUTORY, SC.SKEW_INVOLUTORY, SC.CONINVOLUTORY):
            phases = tuple(rng.uniform(0.0, 2.0 * np.pi, k)) if structure.is_con else None
            spec = GeneratorSpec(n=n, nu=1, sigmas=(5.0,), eta1=k // 2, eta2=k - k // 2,
                                 phases=phases, seed=n)
            out.append(gen_structured(structure, spec)[0])
        if n % 2 == 0:
            spec = GeneratorSpec(n=n, nu=n // 2, sigmas=(3.0,) + (1.0,) * (n // 2 - 1), seed=n)
            out.append(gen_structured(SC.SKEW_CONINVOLUTORY, spec)[0])
        return out

    @staticmethod
    def _shared_product_residuals(m):
        """The four residuals from two products, one per class pair, formed here
        and not by the library, each Frobenius norm taken as sqrt(vdot(d, d).real)."""

        def frobenius(d):
            return math.sqrt(np.vdot(d, d).real)

        eye = np.eye(m.shape[0])
        a2, aac = m @ m, m @ m.conj()
        scale = max(1.0, frobenius(m) ** 2)
        defects = (a2 - eye, a2 + eye, aac - eye, aac + eye)
        return {c: frobenius(d) / scale for c, d in zip(SC, defects)}

    @pytest.mark.parametrize("n", [3, 4, 7, 8])
    def test_residual_bitwise_equal_to_classify(self, n):
        for a in self._matrices(n):
            m = as_square_matrix(a)
            reference = self._shared_product_residuals(m)
            report = classify(a, 1e-10)
            for c in SC:
                assert class_gate(m, c, 1e-10)[1] == report.residuals[c] == reference[c]

    @pytest.mark.parametrize("n", [3, 4, 7, 8])
    def test_decision_matches_classify(self, n):
        for a in self._matrices(n):
            m = as_square_matrix(a)
            residuals = classify(a).residuals
            for c in SC:
                refused = c is SC.SKEW_CONINVOLUTORY and n % 2 == 1
                r = residuals[c]
                # at the residual itself, just below it (a tol is never negative),
                # and far above it
                for tol in (r, max(np.nextafter(r, -1.0), 0.0), 1e10):
                    expected = r <= tol and not refused
                    assert class_gate(m, c, tol)[2] == expected
                    assert (c in classify(a, tol).accepted) == expected


_A = np.array([[0.0, 2.0], [0.5, 0.0]])
_TOL_TAKERS = {
    "restructure": lambda tol: restructure(_A, SC.INVOLUTORY, tol),
    "classify": lambda tol: classify(_A, tol),
    "householder_singular_values": lambda tol: householder_singular_values(_A, tol),
    "extract_T": lambda tol: extract_T(np.eye(2)[::-1], np.eye(2), SC.INVOLUTORY, tol),
}


class _Tol(float):
    """A float subclass: ``type(tol) is float`` is false for it."""


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, None, "1e-10", True])
@pytest.mark.parametrize("name", list(_TOL_TAKERS))
def test_nan_infinite_or_negative_tol_is_invalid_input(name, tol):
    # a NaN tol would accept nothing and an infinite one everything; a str or
    # None does not compare with a number, and True would be read as tol 1
    with pytest.raises(InvalidInputError) as err:
        _TOL_TAKERS[name](tol)
    assert str(err.value) == f"tol must be finite and >= 0, got {tol!r}"


@pytest.mark.parametrize("tol", [Decimal("1e-10"), np.float64(math.nan), _Tol(-1.0),
                                 _Tol(math.inf)],
                         ids=["decimal", "float64-nan", "subclass-negative", "subclass-inf"])
@pytest.mark.parametrize("name", list(_TOL_TAKERS))
def test_tol_of_another_type_is_checked_as_a_float(name, tol):
    # a Decimal is not a numbers.Real; only an exact float skips the type checks,
    # never the range check
    with pytest.raises(InvalidInputError) as err:
        _TOL_TAKERS[name](tol)
    assert str(err.value) == f"tol must be finite and >= 0, got {tol!r}"


@pytest.mark.parametrize("tol", [np.float64(1e-10), _Tol(1e-10), 0, 1, Fraction(1, 10**10)],
                         ids=["float64", "subclass", "int-0", "int-1", "fraction"])
@pytest.mark.parametrize("name", list(_TOL_TAKERS))
def test_real_tol_of_any_type_is_accepted(name, tol):
    # _A is exactly involutory, so every tol accepts it; the result is the float tol's
    got, want = _TOL_TAKERS[name](tol), _TOL_TAKERS[name](float(tol))
    if name == "classify":
        assert got.residuals == want.residuals and got.accepted == want.accepted
    elif name == "restructure":
        assert np.array_equal(got.u, want.u) and np.array_equal(got.t, want.t)
    else:
        assert np.array_equal(got, want)


class TestGenStructured:
    # the closed forms build their member as gen_structured does, with V = I
    def test_involutory_pair_closed_form(self):
        truth = layout_svd(SC.INVOLUTORY, np.eye(2), [2.0], [])
        a = truth.reconstruct()
        assert_allclose(a, [[0.0, 0.5], [2.0, 0.0]], atol=1e-15)
        assert astuple(truth.counts) == (1, 0, 0, 0, 0, 0)

    def test_involutory_signs_closed_form(self):
        truth = layout_svd(SC.INVOLUTORY, np.eye(3), [], [1.0, -1.0, -1.0])
        a = truth.reconstruct()
        assert_allclose(a, np.diag([1.0, -1.0, -1.0]), atol=1e-15)
        assert truth.counts.eta1 == 1 and truth.counts.eta2 == 2

    def test_skew_coninvolutory_unit_pair(self):
        a = layout_svd(SC.SKEW_CONINVOLUTORY, np.eye(2), [1.0], []).reconstruct()
        assert_allclose(a, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
        assert_allclose(a @ a.conj(), -np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("structure", list(SC))
    def test_round_trip_and_counts(self, structure):
        rng = np.random.default_rng(101)
        for _ in range(12):
            spec = random_spec(structure, rng, n_max=24, sigma_cap=1e3, with_phases=True)
            a, truth = gen_structured(structure, spec)
            n = spec.n
            assert np.linalg.norm(a - truth.reconstruct()) <= 1e-10 * n * np.linalg.norm(a)
            assert truth.counts.nu == spec.nu
            assert truth.counts.delta + truth.counts.eta == spec.eta1 + spec.eta2
            if structure in (SC.INVOLUTORY, SC.SKEW_INVOLUTORY):
                assert truth.counts.eta1 == spec.eta1
                assert truth.counts.eta2 == spec.eta2
            assert structure in classify(a, 1e-10).accepted

    @pytest.mark.parametrize("structure", [SC.INVOLUTORY, SC.SKEW_INVOLUTORY, SC.CONINVOLUTORY])
    def test_default_singles_come_plus_then_minus(self, structure):
        # eta1 singles of sign +1 (phase 0), then eta2 of sign -1 (phase pi), in column order
        _, truth = gen_structured(structure, GeneratorSpec(n=5, eta1=2, eta2=3, seed=1))
        single = truth.columns()[2]
        signs = truth.t[single, single] / structure.omega
        assert_allclose(signs, [1.0, 1.0, -1.0, -1.0, -1.0], rtol=0, atol=1e-15)

    def test_high_conditioning_still_classified(self):
        spec = GeneratorSpec(n=6, nu=3, sigmas=(1e6, 1e3, 2.0), seed=4)
        a, _ = gen_structured(SC.INVOLUTORY, spec)
        assert SC.INVOLUTORY in classify(a, 1e-10).accepted

    def test_truth_coupling_exact(self):
        spec = GeneratorSpec(n=7, nu=2, sigmas=(8.0, 3.0), eta1=2, eta2=1, seed=9)
        for structure in (SC.INVOLUTORY, SC.SKEW_INVOLUTORY, SC.CONINVOLUTORY):
            a, truth = gen_structured(structure, spec)
            base = truth.v.conj() if structure.is_con else truth.v
            assert np.linalg.norm(truth.u - base @ truth.t) == 0.0

    def test_invalid_counts(self):
        with pytest.raises(InvalidSpecError):
            gen_structured(SC.INVOLUTORY, GeneratorSpec(n=4, nu=1, sigmas=(2.0,), eta1=1))

    def test_invalid_sigma(self):
        with pytest.raises(InvalidSpecError):
            gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2, nu=1, sigmas=(1.0,)))

    @pytest.mark.parametrize("structure, sigma, bound", [
        (SC.SKEW_CONINVOLUTORY, 0.5, "1.0"),  # 1.0 itself is a unit pair
        (SC.INVOLUTORY, 1.0 + 1e-13, "1.000000000001"),
    ])
    def test_invalid_sigma_names_its_bound(self, structure, sigma, bound):
        with pytest.raises(InvalidSpecError) as err:
            GeneratorSpec(n=2, nu=1, sigmas=(sigma,)).validate(structure)
        assert str(err.value) == f"sigma {sigma} out of range (must be >= {bound})"

    def test_numpy_integer_counts_accepted(self):
        spec = GeneratorSpec(n=5, nu=1, sigmas=(3.0,), eta1=2, eta2=1, seed=4)
        same = GeneratorSpec(n=np.int64(5), nu=np.int32(1), sigmas=(3.0,), eta1=np.int16(2),
                             eta2=np.uint8(1), seed=np.int64(4))
        a, _ = gen_structured(SC.INVOLUTORY, spec)
        assert np.array_equal(gen_structured(SC.INVOLUTORY, same)[0], a)

    def test_sigma_and_phase_sequences_accepted(self):
        # a tuple, a list and a 1-d array of the same numbers give the same member
        spec = GeneratorSpec(n=4, nu=1, sigmas=(3.0,), eta1=2, phases=(0.5, 1.0), seed=4)
        a, _ = gen_structured(SC.CONINVOLUTORY, spec)
        for form in (list, np.array):
            same = GeneratorSpec(n=4, nu=1, sigmas=form([3.0]), eta1=2,
                                 phases=form([0.5, 1.0]), seed=4)
            assert np.array_equal(gen_structured(SC.CONINVOLUTORY, same)[0], a)

    def test_sigma_one_allowed_for_skew_coninvolutory(self):
        spec = GeneratorSpec(n=4, nu=2, sigmas=(3.0, 1.0), seed=2)
        a, truth = gen_structured(SC.SKEW_CONINVOLUTORY, spec)
        assert SC.SKEW_CONINVOLUTORY in classify(a, 1e-10).accepted

    def test_odd_skew_coninvolutory_rejected(self):
        with pytest.raises(InvalidSpecError):
            gen_structured(
                SC.SKEW_CONINVOLUTORY, GeneratorSpec(n=3, nu=1, sigmas=(2.0,), eta1=1)
            )

    def test_phases_only_for_coninvolutory(self):
        spec = GeneratorSpec(n=2, eta1=2, phases=(0.1, 0.2))
        with pytest.raises(InvalidSpecError):
            gen_structured(SC.INVOLUTORY, spec)

    @pytest.mark.parametrize("phase", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_phase_rejected(self, phase):
        spec = GeneratorSpec(n=2, eta1=2, phases=(0.5, phase))
        with pytest.raises(InvalidSpecError, match=f"phase {phase} is not finite"):
            gen_structured(SC.CONINVOLUTORY, spec)

    def test_conditioning_cap(self):
        with pytest.raises(InvalidSpecError,
                           match=r"sigma 100000000\.0 exceeds conditioning cap 1000000\.0"):
            gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2, nu=1, sigmas=(1e8,)))

    def test_negative_seed_rejected(self):
        spec = GeneratorSpec(n=2, nu=1, sigmas=(2.0,), seed=-1)
        with pytest.raises(InvalidSpecError, match="seed must be nonnegative, got -1"):
            gen_structured(SC.INVOLUTORY, spec)

    def test_seed_determinism(self):
        spec = GeneratorSpec(n=8, nu=3, sigmas=(5.0, 3.0, 2.0), eta1=1, eta2=1, seed=77)
        a1, _ = gen_structured(SC.CONINVOLUTORY, spec)
        a2, _ = gen_structured(SC.CONINVOLUTORY, spec)
        assert np.array_equal(a1, a2)


class TestGenConsim:
    def test_scalar_phase(self):
        # n = 1: s / conj(s) is the unit phase e^(2i arg s), a different one per seed
        a = np.array([gen_consim(SC.CONINVOLUTORY, 1, seed=seed) for seed in range(5)])
        assert a.shape == (5, 1, 1)
        assert_allclose(np.abs(a), 1.0, rtol=0, atol=1e-15)
        assert np.unique(a).size == 5

    @pytest.mark.parametrize(
        "structure", [SC.CONINVOLUTORY, SC.SKEW_CONINVOLUTORY]
    )
    def test_random_classified(self, structure):
        for seed in range(10):
            n = 2 * (seed % 5 + 1)
            a = gen_consim(structure, n, seed=seed)
            assert structure in classify(a, 1e-8).accepted

    def test_rejects_odd_skew(self):
        with pytest.raises(InvalidSpecError):
            gen_consim(SC.SKEW_CONINVOLUTORY, 3)

    def test_rejects_involutory(self):
        with pytest.raises(InvalidSpecError):
            gen_consim(SC.INVOLUTORY, 2)

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidSpecError, match="seed must be nonnegative, got -1"):
            gen_consim(SC.CONINVOLUTORY, 2, seed=-1)


def test_exponential_generator_is_coninvolutory():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 21))
        r = rng.standard_normal((n, n))
        x = matexp_skewfactor(r)
        assert SC.CONINVOLUTORY in classify(x, 1e-8).accepted
