"""Restructuring: reciprocal pairing, cluster resolution, coupling matrices."""

import math
import pickle
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypothesis import assume, example, given, settings, strategies as st

from involsvd import (
    GeneratorSpec,
    InvalidInputError,
    InvolSvdError,
    NumericalError,
    PairingError,
    CouplingError,
    StructureClass,
    StructureCounts,
    StructureViolationError,
    classify,
    eigen_residual,
    eigendecompose,
    extract_T,
    gen_structured,
    haar_unitary,
    paired_one_display,
    pairing_spectrum_check,
    projector_svd,
    reconstruction_residual,
    restructure,
)
from involsvd import structured_svd
from involsvd.kernel import svd as kernel_svd
from involsvd.structured_svd import (
    _couple_widths,
    _mirror_pass,
    _read,
    _settle,
    _svd_floor,
    layout_columns,
    layout_svd,
)
from involsvd.structures import RECONSTRUCTION_LIMIT, class_gate
from helpers import (
    ROUNDED_SPEC,
    build_corpus,
    cap_family,
    degenerate_skew_pairing_matrix,
    example1_matrix,
    j_matrix,
    mp_right_singular_vectors,
    mp_singular_values,
    package_env,
    pairing_reference_loop,
    random_spec,
    rounded,
    spread_family,
)

SC = StructureClass


def brute_force_matchings(sigma, tol):
    """Enumerate every valid pairing/cluster assignment (oracle)."""
    n = len(sigma)
    results = []

    def ok_single(i):
        return abs(sigma[i] - 1.0) <= tol

    def ok_pair(i, j):
        return abs(sigma[i] * sigma[j] - 1.0) <= tol

    def recurse(remaining, pairs, cluster):
        if not remaining:
            results.append((frozenset(pairs), frozenset(cluster)))
            return
        i = remaining[0]
        rest = remaining[1:]
        if ok_single(i):
            recurse(rest, pairs, cluster + [i])
        for j in rest:
            if ok_pair(i, j):
                recurse(
                    [k for k in rest if k != j],
                    pairs + [(min(i, j), max(i, j))],
                    cluster,
                )

    recurse(list(range(n)), [], [])
    return set(results)


class TestPairingSpectrumCheck:
    def test_forced_pair_and_cluster(self):
        pairs, cluster = pairing_spectrum_check(np.array([2.0, 1.0, 0.5]))
        assert pairs == [(0, 2)]
        assert cluster == [1]

    def test_two_pairs_unique_matching(self):
        sigma = np.array([3.0, 2.0, 0.5, 1.0 / 3.0])
        pairs, cluster = pairing_spectrum_check(sigma)
        assert pairs == [(0, 3), (1, 2)]
        assert cluster == []
        # brute force over all matchings confirms uniqueness
        oracle = brute_force_matchings(sigma, 1e-8 * 3.0)
        assert oracle == {(frozenset({(0, 3), (1, 2)}), frozenset())}

    def test_all_cluster(self):
        pairs, cluster = pairing_spectrum_check(np.ones(4))
        assert pairs == []
        assert cluster == [0, 1, 2, 3]

    def test_orphan_raises(self):
        with pytest.raises(PairingError) as err:
            pairing_spectrum_check(np.array([2.0, 1.0, 1.0]))
        assert err.value.orphan == pytest.approx(2.0)

    def test_middle_orphan(self):
        with pytest.raises(PairingError) as err:
            pairing_spectrum_check(np.array([3.0, 2.0, 1.0 / 3.0]))
        assert err.value.orphan == pytest.approx(2.0)

    def test_band_edges_belong_to_the_band(self):
        # exact in binary: both values 0.25 from 1 with floor 0.25 start the cluster,
        # and a partner 0.25 from 1/2 with floor 0.25 still pairs
        assert _mirror_pass([1.25, 0.75], 0.25, [0.0]) == (0, True)
        assert _settle([1.25, 0.75], 0, True) == (0, 2)
        assert _mirror_pass([2.0, 0.25], 0.25, [0.0]) == (1, False)
        assert _settle([2.0, 0.25], 1, False) == (1, 0)

    def test_middle_orphan_message_shows_plain_float(self):
        with pytest.raises(PairingError) as err:
            pairing_spectrum_check([3.0, 2.0, 1.0 / 3.0])
        assert str(err.value) == "singular value 2.0 has no reciprocal partner"

    def test_matches_brute_force_on_random_reciprocal_spectra(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            nu = int(rng.integers(0, 4))
            ones = int(rng.integers(0, 3))
            s = 10 ** rng.uniform(0.2, 2.0, nu)
            sigma = np.sort(np.concatenate([s, np.ones(ones), 1.0 / s]))[::-1]
            if sigma.size == 0:
                continue
            pairs, cluster = pairing_spectrum_check(sigma)
            tol = 1e-8 * max(1.0, sigma[0])
            oracle = brute_force_matchings(sigma, tol)
            assert (frozenset(pairs), frozenset(cluster)) in oracle


EPS = float(np.finfo(np.float64).eps)
FLOOR_OFFSETS = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5])
WIDTHS = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@st.composite
def sorted_spectra(draw, floors=(None, 1e-12, 1e-10, 1e-8, 1e-6)):
    """Sorted spectra of n <= 41 values: reciprocal pairs with sigma in
    [1 + 1e-12, 1e6], at most one partner moved by a multiple of the noise
    floor, unit values moved by 0, +-1/2, +-1 or +-3/2 floors, orphans.  The
    floor is drawn from ``floors``: None (the SVD backward error) or an
    absolute one; the width is 0, 1/2, 1 or 2 floors, for all couples or each
    its own."""
    floor = draw(st.sampled_from(floors))
    leads = draw(st.lists(st.floats(1.0 + 1e-12, 1e6), max_size=20))
    orphans = draw(st.lists(st.floats(1e-3, 1e3), max_size=min(2, 41 - 2 * len(leads))))
    room = 41 - 2 * len(leads) - len(orphans)
    offsets = draw(st.lists(FLOOR_OFFSETS, max_size=room))
    n = 2 * len(leads) + len(orphans) + len(offsets)
    step = floor or 64.0 * n * EPS * max([1.0, *leads, *orphans])
    partners = [1.0 / s for s in leads]
    moved = draw(st.integers(-1, len(leads) - 1))
    if moved >= 0:
        partners[moved] += step * draw(FLOOR_OFFSETS)
    units = [1.0 + step * off for off in offsets]
    sigma = np.sort(np.array([*leads, *partners, *units, *orphans]))[::-1]
    if draw(st.booleans()):
        width = step * draw(WIDTHS)
    else:
        width = step * np.array(draw(st.lists(WIDTHS, min_size=(n + 1) // 2, max_size=(n + 1) // 2)))
    return sigma, floor, width


def pairing_outcome(pairing, *args):
    try:
        return pairing(*args)
    except InvolSvdError as exc:
        return type(exc), str(exc), getattr(exc, "orphan", None)


def settled(sig, floor, widths):
    """``(npairs, k)`` of the private pass at ``floor`` and per-couple ``widths``."""
    return _settle(sig, *_mirror_pass(sig, floor, widths))


@settings(max_examples=400, deadline=None)
@given(sorted_spectra())
def test_pairing_matches_two_pointer_reference(case):
    # the pass over the mirrored spectrum and its settling give the greedy
    # loop's pair and cluster counts, or its error type, message and orphan
    # (an empty or nonpositive spectrum is the public check's refusal; the pass,
    # behind it or behind restructure's zero guard, never sees one)
    sigma, floor, width = case
    assume(sigma.size and sigma[-1] > 0.0)
    sig = sigma.tolist()
    widths = np.broadcast_to(width, (sigma.size + 1) // 2).tolist()
    if floor is None:
        floor = _svd_floor(sigma.size, sig[0])
    want = pairing_outcome(pairing_reference_loop, sigma, floor, widths)
    if not isinstance(want[0], type):
        want = len(want[0]), len(want[1])
    assert pairing_outcome(settled, sig, floor, widths) == want


@st.composite
def spectra_with_faults(draw):
    """``sorted_spectra`` at the default floor, with at most one value made NaN,
    zero or larger than the value before it."""
    sigma = draw(sorted_spectra(floors=(None,)))[0].copy()
    fault = draw(st.sampled_from([None, "nan", "zero", "increasing"]))
    if fault and sigma.size > 1:
        i = draw(st.integers(1, sigma.size - 1))
        sigma[i] = {"nan": np.nan, "zero": 0.0, "increasing": 2.0 * sigma[i - 1]}[fault]
    return sigma


@settings(max_examples=200, deadline=None)
@given(spectra_with_faults())
def test_pairing_reads_any_spectrum_form(sigma):
    # a list, a 1-d array and an (n, 1) array of the spectrum give the
    # reference loop's pairs and cluster, or its error type and message
    want = pairing_outcome(pairing_reference_loop, sigma)
    for form in (sigma.tolist(), sigma, sigma.reshape(-1, 1)):
        assert pairing_outcome(pairing_spectrum_check, form) == want


class TestRestructure:
    def test_involutory_2x2(self):
        a = np.array([[0.0, 2.0], [0.5, 0.0]])
        ssvd = restructure(a, SC.INVOLUTORY)
        assert_allclose(ssvd.sigma, [2.0, 0.5], rtol=1e-14)
        assert ssvd.counts == StructureCounts(1, 0, 0, 0, 0, 0)
        lead, part, single = ssvd.columns()
        assert (lead.tolist(), part.tolist(), single.tolist()) == ([0], [1], [])
        assert ssvd.sigma[lead[0]] == pytest.approx(2.0)
        assert_allclose(ssvd.t, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_example_matrix_signs(self):
        ssvd = restructure(example1_matrix(), SC.INVOLUTORY)
        assert_allclose(ssvd.sigma, np.ones(4), atol=1e-12)
        _, _, single = ssvd.columns()
        assert sorted(ssvd.t[single, single].real.tolist()) == [-1, 1, 1, 1]
        assert ssvd.counts.eta1 == 3 and ssvd.counts.eta2 == 1

    def test_skew_coninvolutory_elementary(self):
        # the 4x4 input's own skew pairing is degenerate, but restructure
        # pairs the cluster matrix Q^T A Q of its singular vectors, which here is not
        for a in (np.array([[0.0, -1.0], [1.0, 0.0]]), degenerate_skew_pairing_matrix()):
            ssvd = restructure(a, SC.SKEW_CONINVOLUTORY)
            k = a.shape[0] // 2
            assert ssvd.counts == StructureCounts(k, 0, 0, 0, 0, 0)
            lead, _, single = ssvd.columns()
            assert lead.size == k and single.size == 0
            assert_allclose(ssvd.sigma[lead], np.ones(k), rtol=1e-14)
            # U = -conj(V) J holds exactly
            assert np.linalg.norm(ssvd.u + ssvd.v.conj() @ j_matrix(k)) == 0.0
            assert reconstruction_residual(a, ssvd) <= 1e-14

    def test_classification_gate(self):
        with pytest.raises(StructureViolationError) as err:
            restructure(np.diag([2.0, 3.0]), SC.INVOLUTORY)
        assert err.value.residual is not None

    def test_n1_involutory(self):
        ssvd = restructure(np.array([[-1.0]]), SC.INVOLUTORY)
        _, _, single = ssvd.columns()
        assert ssvd.t[single, single].real.tolist() == [-1]
        assert ssvd.counts.eta2 == 1

    def test_n1_coninvolutory_phase(self):
        theta = 2.2
        ssvd = restructure(np.array([[np.exp(1j * theta)]]), SC.CONINVOLUTORY)
        (pos,) = ssvd.columns()[2]
        assert np.angle(ssvd.t[pos, pos]) == pytest.approx(0.0)
        q = ssvd.u[:, 0]
        assert np.linalg.norm(np.array([[np.exp(1j * theta)]]) @ q.conj() - q) <= 1e-14

    def test_n1_skew_coninvolutory_rejected(self):
        with pytest.raises(StructureViolationError):
            restructure(np.array([[1j]]), SC.SKEW_CONINVOLUTORY)

    @pytest.mark.parametrize("structure", list(SC))
    def test_singular_matrix_the_gate_accepts_is_a_pairing_error(self, structure):
        # the 2x2 zero matrix has residual sqrt(2) in every class, so tol 10
        # accepts it; a zero singular value has no reciprocal partner
        message = "^singular value 0.0 has no reciprocal partner$"
        with pytest.raises(PairingError, match=message) as err:
            restructure(np.zeros((2, 2)), structure, 10.0)
        assert err.value.orphan == 0.0

    def test_unsignable_unit_cluster_rejected(self):
        # ||A^2 - I||_F = 4 (residual 4/6, accepted at tol 1) puts the whole
        # spectrum 1 +- sqrt(2) in the cluster; the restricted matrix's Hermitian
        # part is unitarily similar to diag(0, 2), which has no sign at 0, and the
        # unitary check, capped at 0.5 in every class, refuses M before any sign is read
        message = ("^restricted unit-cluster matrix is not unitary: "
                   r"defect 4\.899e\+00 > 5\.000e-01$")
        with pytest.raises(StructureViolationError, match=message) as err:
            restructure([[0.0, 1.0], [-1.0, 2.0]], SC.INVOLUTORY, 1.0)
        assert err.value.residual == pytest.approx(4.898979485566353, rel=1e-12)

    @pytest.mark.parametrize("structure, seed, limits, residual", [
        (SC.CONINVOLUTORY, 109, "2.870e-01 > 4.725e-06", 0.2869586880167133),
        (SC.SKEW_CONINVOLUTORY, 5, "1.217e+00 > 6.816e-05", 1.2169053353683175),
        (SC.INVOLUTORY, 15, "6.566e-01 > 1.457e-05", 0.6565856190046561),
        (SC.SKEW_INVOLUTORY, 7, "5.958e-01 > 7.138e-06", 0.5957988151310152),
    ], ids=["coninvolutory-109", "skew-coninvolutory-5", "involutory-15", "skew-involutory-7"])
    def test_spread_unit_cluster_is_not_unitary(self, structure, seed, limits, residual):
        # each unit singular value of a member moved by 1e-7 N(0, 1): the gate
        # accepts it, and restructure refuses the restricted unit-cluster matrix
        # before a kernel factors it or a sign is read
        rng = np.random.default_rng(seed)
        spec = random_spec(structure, rng, n_max=12, sigma_cap=1e3, with_phases=True)
        a, _ = gen_structured(structure, spec)
        u, g, vh = np.linalg.svd(a)
        unit = np.abs(g - 1) < 1e-6
        a = (u * (g * np.where(unit, 1 + 1e-7 * rng.standard_normal(g.size), 1))) @ vh
        with pytest.raises(StructureViolationError) as err:
            restructure(a, structure)
        assert str(err.value) == f"restricted unit-cluster matrix is not unitary: defect {limits}"
        assert err.value.residual == pytest.approx(residual, rel=1e-9)

    def test_far_pair_read_as_cluster_is_not_unitary(self):
        # a coninvolutory member at sigma_max 1e6 that the skew-coninvolutory gate accepts
        # (residual 4.0e-12): _read puts its pair at 3.52 in the cluster, and the restricted
        # checks' limit, which grows with the cluster's spread from 1 but is capped at 0.5,
        # refuses M before the pairing kernel sees it (ROADMAP item 11)
        spec = GeneratorSpec(n=4, nu=2, sigmas=(1e6, 3.5189364816371707), seed=869942732)
        a, _ = gen_structured(SC.CONINVOLUTORY, spec)
        report = classify(a)
        assert report.accepted == {SC.CONINVOLUTORY, SC.SKEW_CONINVOLUTORY}
        assert report.residuals[SC.SKEW_CONINVOLUTORY] == pytest.approx(4.0e-12, rel=1e-3)
        with pytest.raises(StructureViolationError) as err:
            restructure(a, SC.SKEW_CONINVOLUTORY)
        assert str(err.value) == ("restricted unit-cluster matrix is not unitary: "
                                  "defect 1.142e+01 > 5.000e-01")
        assert err.value.residual == pytest.approx(11.419971059114479, rel=1e-9)


@pytest.mark.parametrize("structure", list(SC))
def test_singles_decode_the_generator_spec(structure):
    # StructuredSvd.singles reads each single's T entry over omega exactly: the spec's
    # signs +-1 (coninvolutory ones too, where no phases are given), or its unit phases
    # np.exp(1j * phases) bitwise; skew-coninvolutory has none
    rng = np.random.default_rng(sum(structure.value.encode()))
    for _ in range(40):
        spec = random_spec(structure, rng, n_max=12, sigma_cap=1e3, with_phases=True)
        _, truth = gen_structured(structure, spec)
        single, d = truth.singles()
        signs = np.repeat([1.0, -1.0], [spec.eta1, spec.eta2])
        assert single.tolist() == truth.columns()[2].tolist() and d.dtype == np.complex128
        if structure is SC.SKEW_CONINVOLUTORY:
            assert single.size == d.size == 0
        elif structure is SC.CONINVOLUTORY:
            want = signs if spec.phases is None else np.exp(1j * np.asarray(spec.phases))
            assert d.tobytes() == want.astype(np.complex128).tobytes()
        else:
            assert d.tolist() == signs.tolist()


@pytest.mark.parametrize("structure", list(SC))
def test_cluster_kernels_are_handed_exactly_structured_m(structure, monkeypatch):
    # _resolve projects M once, onto the class's part: each cluster kernel is handed a
    # matrix bitwise equal to its own conjugate transpose, transpose or negated transpose
    import involsvd.structured_svd as owner

    kernel, mirror = {
        SC.INVOLUTORY: ("hermitian_eig", lambda m: m.conj().T),
        SC.SKEW_INVOLUTORY: ("hermitian_eig", lambda m: m.conj().T),
        SC.CONINVOLUTORY: ("takagi_symmetric_unitary", lambda m: m.T),
        SC.SKEW_CONINVOLUTORY: ("skew_pair_unitary", lambda m: -m.T),
    }[structure]
    factor, handed = getattr(owner, kernel), []
    monkeypatch.setattr(owner, kernel, lambda m: factor(handed.append(m) or m))
    rng = np.random.default_rng(sum(structure.value.encode()))
    for _ in range(40):
        spec = random_spec(structure, rng, n_max=12, sigma_cap=1e3, with_phases=True)
        restructure(gen_structured(structure, spec)[0], structure)
    assert len(handed) >= 20
    assert [np.array_equal(m, mirror(m)) for m in handed] == [True] * len(handed)


@pytest.mark.parametrize("structure", list(SC))
def test_recovery_invariants(structure):
    corpus = build_corpus(structure, 30, seed=sum(structure.value.encode()),
                          n_max=24, sigma_cap=1e3, with_phases=True)
    for a, truth, ssvd in corpus:
        n = ssvd.dim
        assert ssvd.counts.nu == truth.counts.nu
        assert ssvd.counts == truth.counts
        got = np.sort(ssvd.sigma)
        want = np.sort(truth.sigma)
        assert np.max(np.abs(got - want) / np.maximum(want, 1e-30)) <= 1e-8
        assert reconstruction_residual(a, ssvd) <= 1e-10
        assert np.array_equal(ssvd.u, ssvd.structure.star(ssvd.v) @ ssvd.t)
        eye = np.eye(n)
        assert np.linalg.norm(ssvd.u.conj().T @ ssvd.u - eye) <= 1e-11 * n
        assert np.linalg.norm(ssvd.v.conj().T @ ssvd.v - eye) <= 1e-11 * n

        if structure is SC.INVOLUTORY:
            trace = int(round(np.trace(a).real))
            assert ssvd.counts.eta1 - ssvd.counts.eta2 == trace
        _, _, single = ssvd.columns()
        if structure is SC.CONINVOLUTORY:
            k = ssvd.counts.delta + ssvd.counts.eta
            assert_allclose(ssvd.t[single, single], np.ones(k), atol=0)
            for pos in single:
                q = ssvd.u[:, pos]
                assert np.linalg.norm(a @ q.conj() - q) <= 1e-9 * n
        if structure is SC.SKEW_CONINVOLUTORY:
            assert single.size == 0
            assert n % 2 == 0


@pytest.mark.parametrize("structure", list(SC))
def test_repeated_singular_values(structure):
    sigmas = (3.0, 3.0, 3.0, 2.0) if structure is SC.SKEW_CONINVOLUTORY else (3.0, 3.0, 2.0)
    kwargs = {} if structure is SC.SKEW_CONINVOLUTORY else {"eta1": 1, "eta2": 1}
    spec = GeneratorSpec(n=8, nu=len(sigmas), sigmas=sigmas, seed=13, **kwargs)
    a, truth = gen_structured(structure, spec)
    ssvd = restructure(a, structure, 1e-10)
    assert reconstruction_residual(a, ssvd) <= 1e-10
    assert np.array_equal(ssvd.u, ssvd.structure.star(ssvd.v) @ ssvd.t)
    assert ssvd.counts == truth.counts
    s = np.sort(ssvd.sigma)[::-1]
    assert np.max(np.abs(s * s[::-1] - 1.0)) <= 1e-12


@pytest.mark.parametrize("structure", list(SC))
def test_counts_and_leads_at_conditioning_cap(structure):
    # sigma up to the 1e6 cap: the kernel's lead singular values stay
    # relatively accurate and the structure counts come out right
    rng = np.random.default_rng(1_000_003 + sum(structure.value.encode()))
    for _ in range(25):
        spec = random_spec(structure, rng, n_max=40, sigma_cap=1e6)
        a, truth = gen_structured(structure, spec)
        ssvd = restructure(a, structure, 1e-10)
        assert ssvd.counts == truth.counts
        leads = ssvd.sigma[: spec.nu]
        want = np.asarray(spec.sigmas)
        assert np.max(np.abs(leads - want) / want, initial=0.0) <= 1e-9


@pytest.mark.parametrize("seed, sigma_cap", [(0, 1e4), (3, 1e6)])
def test_sigma_within_one_floor_of_the_mpmath_spectrum(seed, sigma_cap):
    # an oracle that shares neither LAPACK nor the generator: the stored matrix's
    # spectrum at 40 digits; a mismatch is a fault to report, not a bound to widen
    rng = np.random.default_rng(seed)
    for i in range(60):
        structure = list(SC)[i % 4]
        spec = random_spec(structure, rng, n_max=8, sigma_cap=sigma_cap, with_phases=True)
        a, _ = gen_structured(structure, spec)
        reference = mp_singular_values(a)
        sigma = np.sort(restructure(a, structure).sigma)[::-1]
        assert np.max(np.abs(sigma - reference)) <= _svd_floor(spec.n, reference[0])


def value_blocks(ssvd, s):
    """The record's columns by value: each lead sigma with its partner, leads closer than s
    in one block, then the unit cluster (the singles); empty blocks left out."""
    lead, part, single = ssvd.columns()
    cuts = np.flatnonzero(-np.diff(ssvd.sigma[lead]) >= s) + 1  # leads are non-increasing
    blocks = [np.concatenate(b) for b in zip(np.split(lead, cuts), np.split(part, cuts))]
    return [b for b in blocks + [single] if b.size]


def test_vectors_span_the_mpmath_subspaces():
    # the 40-digit right singular vectors of the stored matrix: each block of values holds
    # as many mpmath values within the floor s as it has columns, and its V columns lie in
    # the span of those mpmath vectors to s / gap (Wedin), gap the distance to the nearest
    # other value; a mismatch is a fault to report, not a bound to widen
    for seed, sigma_cap in ((5, 1e2), (6, 1e4), (7, 1e6)):
        rng = np.random.default_rng(seed)
        for i in range(16):
            structure = list(SC)[i % 4]
            spec = random_spec(structure, rng, n_max=8, sigma_cap=sigma_cap, with_phases=True)
            a, _ = gen_structured(structure, spec)
            reference, x = mp_right_singular_vectors(a)
            ssvd = restructure(a, structure)
            s = _svd_floor(spec.n, reference[0])
            for block in value_blocks(ssvd, s):
                near = np.min(np.abs(np.subtract.outer(reference, ssvd.sigma[block])), axis=1)
                inside = near < s
                assert np.count_nonzero(inside) == block.size, (seed, i, block)
                if inside.all():
                    continue
                y, basis = ssvd.v[:, block], x[:, inside]
                missed = np.linalg.norm(y - basis @ (basis.conj().T @ y), 2)
                assert missed <= s / np.min(near[~inside]), (seed, i, block)


def class_preserving_transforms(structure, a, q):
    """(B, swap) for maps that keep A in its class: B's counts are A's, with eta1 and eta2
    exchanged where ``swap``.  q is unitary."""
    flips = structure is SC.SKEW_INVOLUTORY  # A^H and conj(A): eigenvalue +-i goes to -+i
    yield a.T, False
    yield a.conj().T, flips
    yield a.conj(), flips
    if structure in (SC.INVOLUTORY, SC.SKEW_INVOLUTORY):
        yield q @ a @ q.conj().T, False
        yield -a, True
    else:
        yield q @ a @ q.T, False
        yield np.exp(0.7j) * a, False


@pytest.mark.parametrize("seed, n_max, sigma_cap", [(0, 40, 1e4), (3, 60, 1e6)])
def test_class_preserving_transforms_keep_the_counts(seed, n_max, sigma_cap):
    # metamorphic: no generator truth, only restructure's reading of A against B
    rng = np.random.default_rng(seed)
    for i in range(24):
        structure = list(SC)[i % 4]
        spec = random_spec(structure, rng, n_max=n_max, sigma_cap=sigma_cap, with_phases=True)
        a, _ = gen_structured(structure, spec)
        first = restructure(a, structure)
        counts = first.counts
        swapped = replace(counts, eta1=counts.eta2, eta2=counts.eta1)
        sigma = np.sort(first.sigma)
        floor = _svd_floor(spec.n, sigma[-1])
        q = haar_unitary(spec.n, np.random.default_rng(i))
        for b, swap in class_preserving_transforms(structure, a, q):
            ssvd = restructure(b, structure)
            assert ssvd.counts == (swapped if swap else counts)
            assert np.max(np.abs(np.sort(ssvd.sigma) - sigma)) <= floor


@pytest.mark.parametrize("draw", [2, 5, 8, 11])
def test_members_above_n_80_at_the_cap(draw):
    # coninvolutory n = 121, skew-involutory n = 83, involutory n = 167 and
    # skew-coninvolutory n = 166, all at sigma cap 1e6; other draws of the family are
    # refused by extract_T (test_member_at_the_cap_passes_extract_t, ROADMAP item 8)
    structure, spec = cap_family(draw + 1)[draw]
    a, truth = gen_structured(structure, spec)
    ssvd = restructure(a, structure)
    extract_T(ssvd.u, ssvd.v, structure)
    assert ssvd.counts == truth.counts
    assert reconstruction_residual(a, ssvd) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=CouplingError,
    reason="at sigma_max near 1e6, V is unitary only to about eps sigma_max, so extract_T "
    "refuses restructure's own output with a coupling entry of about 1e-10",
)
@pytest.mark.parametrize("draw", [242, 257, 332, 443])
def test_member_at_the_cap_passes_extract_t(draw):
    # coninvolutory n = 119, skew-involutory n = 166, involutory n = 161 and
    # skew-coninvolutory n = 70, each refused at 1 and 2 BLAS threads
    structure, spec = cap_family(draw + 1)[draw]
    a, truth = gen_structured(structure, spec)
    ssvd = restructure(a, structure)
    assert ssvd.counts == truth.counts
    assert reconstruction_residual(a, ssvd) <= 1e-12
    extract_T(ssvd.u, ssvd.v, structure)


@pytest.mark.xfail(
    strict=True,
    raises=CouplingError,
    reason="rounded to 12 digits, the member stays in the gate, but V is unitary only to "
    "5.6e-9 and extract_T refuses coupling entry (2, 0) = 8.4e-10+3.4e-9j",
)
def test_member_rounded_to_12_digits_passes_extract_t():
    a = rounded(gen_structured(SC.INVOLUTORY, ROUNDED_SPEC)[0], 12)
    ssvd = restructure(a, SC.INVOLUTORY)
    assert ssvd.counts == StructureCounts(nu=2, mu=0, delta=1, eta=1, eta1=1, eta2=1)
    assert reconstruction_residual(a, ssvd) <= 1e-12
    extract_T(ssvd.u, ssvd.v, SC.INVOLUTORY)


@st.composite
def near_unit_inputs(draw):
    """One reciprocal pair at 1 + d, d log-uniform in [1e-9, 1e-3], beside a
    lead sigma_max in [3, 1e6]; n in 4..7 (4 or 6 in the skew-coninvolutory
    class, whose other pairs sit at 1), coninvolutory singles with phases."""
    structure = draw(st.sampled_from(list(SC)))
    d = 10.0 ** draw(st.floats(-9.0, -3.0))
    sigmas = (10.0 ** draw(st.floats(np.log10(3.0), 6.0)), 1.0 + d)
    seed = draw(st.integers(0, 2**31 - 1))
    if structure is SC.SKEW_CONINVOLUTORY:
        n = draw(st.sampled_from([4, 6]))
        return structure, d, GeneratorSpec(n=n, nu=n // 2, seed=seed,
                                           sigmas=sigmas + (1.0,) * (n // 2 - 2))
    n = draw(st.integers(4, 7))
    eta1 = draw(st.integers(0, n - 4))
    phases = None
    if structure is SC.CONINVOLUTORY and n > 4:
        phases = tuple(draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=n - 4,
                                     max_size=n - 4)))
    return structure, d, GeneratorSpec(n=n, nu=2, sigmas=sigmas, eta1=eta1,
                                       eta2=n - 4 - eta1, phases=phases, seed=seed)


def singles_reading(structure, counts):
    """The counts with the near-unit pair read as two unit singles, one of
    each sign (both in eta1 for coninvolutory); skew-coninvolutory has no
    singles, so its counts stay."""
    if structure is SC.SKEW_CONINVOLUTORY:
        return counts
    k = counts.delta + counts.eta + 2
    plus = 2 if structure is SC.CONINVOLUTORY else 1
    return StructureCounts(nu=counts.nu - 1, mu=0, delta=(k + 1) // 2, eta=k // 2,
                           eta1=counts.eta1 + plus, eta2=counts.eta2 + 2 - plus)


@settings(max_examples=200, deadline=None)
@given(near_unit_inputs())
def test_near_unit_pair_is_counted_outside_the_band(case):
    # the kernel SVD moves each sigma by up to 64 n eps sigma_max; a pair
    # clear of twice that is counted, one inside half of it is read as two
    # unit singles, and in between either reading stands
    structure, d, spec = case
    a, truth = gen_structured(structure, spec)
    backward = 64 * spec.n * EPS * spec.sigmas[0]
    readings = [truth.counts, singles_reading(structure, truth.counts)]
    if d > 2 * backward:
        readings = readings[:1]
    elif d < backward / 2:
        readings = readings[1:]
    ssvd = restructure(a, structure, 1e-10)
    assert ssvd.counts in readings
    if d < backward / 2:
        assert reconstruction_residual(a, ssvd) <= 1e-12


@st.composite
def small_members(draw):
    """(structure, spec) at n <= 8 in all four classes: a near-unit member, or a
    ``random_spec`` draw (with phases) at a sigma cap log-uniform in [10, 1e6]."""
    if draw(st.booleans()):
        structure, _, spec = draw(near_unit_inputs())
        return structure, spec
    structure = draw(st.sampled_from(list(SC)))
    cap = 10.0 ** draw(st.floats(1.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return structure, random_spec(structure, rng, n_max=8, sigma_cap=cap, with_phases=True)


@settings(max_examples=120, deadline=None)
@given(small_members())
def test_counts_are_ones_the_mpmath_spectrum_supports(case):
    # the 40-digit spectrum of the stored matrix, against _read's band on each
    # mirrored couple (its floor plus the couple's width): a couple farther from 1
    # than twice the band is read as a pair, one within half of it as cluster (two
    # unit singles; unit pairs of sigma exactly 1 in the skew-coninvolutory class);
    # a mismatch is a fault to report, not a bound to widen.  A clear refusal of the
    # cluster reports no counts and is not drawn here (the refusal of a coninvolutory
    # near-unit member is held by test_near_unit_member_with_a_single_is_not_refused)
    structure, spec = case
    a, _ = gen_structured(structure, spec)
    reference, n = mp_singular_values(a), spec.n
    try:
        ssvd = restructure(a, structure)
    except StructureViolationError:
        assume(False)
    base, floor, _, _ = _read(a, structure, 1e-10)
    assert np.max(np.abs(np.sort(ssvd.sigma)[::-1] - reference)) <= floor
    widths = _couple_widths(a, structure, base)
    pairs = ssvd.counts.nu
    if structure is SC.SKEW_CONINVOLUTORY:  # the cluster's pairs follow the read ones
        pairs = int(np.count_nonzero(ssvd.sigma[:pairs] != 1.0))
    for i in range((n + 1) // 2):
        distance = max(abs(reference[i] - 1.0), abs(reference[n - 1 - i] - 1.0))
        band = floor + widths[i]
        if distance > 2.0 * band:
            assert i < pairs
        elif distance < band / 2.0:
            assert i >= pairs


@pytest.mark.xfail(
    strict=True,
    raises=StructureViolationError,
    reason="beside the pair at 1 + 1e-8, the one-value cluster's restricted matrix is "
    "unitary only to 1.65e-6, over its limit 7.1e-7, so restructure refuses the member",
)
def test_near_unit_member_with_a_single_is_not_refused():
    # drawn by test_counts_are_ones_the_mpmath_spectrum_supports; the gate accepts it,
    # and 2 of 2,000 coninvolutory near_unit_inputs-like draws are refused the same way
    spec = GeneratorSpec(n=5, nu=2, sigmas=(1e5, 1.0 + 1e-8), eta2=1, phases=(0.0,), seed=304)
    a, truth = gen_structured(SC.CONINVOLUTORY, spec)
    assert class_gate(a, SC.CONINVOLUTORY, 1e-10)[2]
    assert restructure(a, SC.CONINVOLUTORY).counts == truth.counts


@pytest.mark.xfail(
    strict=True,
    reason="a pair at 1 + d reconstructs A only to about eps / (n d): its partner "
    "columns are the lead's left vectors, which the kernel SVD mixes with the "
    "unit cluster's by eps sigma_max / d",
)
@pytest.mark.parametrize("structure, spec", [
    # members of near_unit_inputs with the pair well clear of the band, each
    # reconstructing to 1e-10 or worse; fixed, so no run records an example
    (SC.INVOLUTORY, GeneratorSpec(n=5, nu=2, sigmas=(3.0, 1.0 + 1e-9), eta1=1, seed=0)),
    (SC.SKEW_INVOLUTORY, GeneratorSpec(n=6, nu=2, sigmas=(1e3, 1.0 + 1e-8), eta1=1,
                                       eta2=1, seed=1)),
    (SC.CONINVOLUTORY, GeneratorSpec(n=7, nu=2, sigmas=(1e3, 1.0 + 1e-9), eta1=2, eta2=1,
                                     phases=(0.7, 2.0, 4.5), seed=2)),
    # no singles: the pair sits beside a unit pair, and extract_T refuses the record
    (SC.SKEW_CONINVOLUTORY, GeneratorSpec(n=6, nu=3, sigmas=(2.0, 1.0 + 1e-9, 1.0), seed=5)),
], ids=["involutory", "skew-involutory", "coninvolutory", "skew-coninvolutory"])
def test_near_unit_pair_reconstructs_to_1e_12(structure, spec):
    a, _ = gen_structured(structure, spec)
    assert reconstruction_residual(a, restructure(a, structure, 1e-10)) <= 1e-12


@pytest.mark.parametrize("structure, spec, scales", [
    # draws 38 and 364 of ROADMAP item 13's spread-cluster family (default_rng(100), spread
    # 1e-7); the gate accepts each at the default tol, with residual 6.0e-11 and 1.7e-13
    (SC.CONINVOLUTORY, GeneratorSpec(n=4, nu=1, sigmas=(37.75121718490906,), eta1=2,
                                     seed=1942929595),
     (0.9999999118065989, 1.0000001284170228)),
    (SC.INVOLUTORY, GeneratorSpec(n=4, nu=1, sigmas=(525.3096102268667,), eta1=1, eta2=1,
                                  seed=1351393779),
     (0.9999999395899258, 1.000000051929286)),
], ids=["coninvolutory", "involutory"])
def test_spread_unit_values_are_refused_or_reconstructed(structure, spec, scales):
    # a refusal passes; a result must have the spec's counts and reconstruct to 1e-12
    a, truth = gen_structured(structure, spec)
    u, g, vh = np.linalg.svd(a)
    g[1:3] *= scales  # the two unit values
    a = (u * g) @ vh
    try:
        ssvd = restructure(a, structure)
    except InvolSvdError:
        return
    assert ssvd.counts == truth.counts
    assert reconstruction_residual(a, ssvd) <= 1e-12


def spread_unit_values(structure, spec, scales):
    """The member of ``spec`` with each unit singular value (``|g - 1| < 1e-12``) multiplied
    by its entry of ``scales``, in the SVD's order."""
    a, truth = gen_structured(structure, spec)
    u, g, vh = np.linalg.svd(a)
    g[np.abs(g - 1.0) < 1e-12] *= scales
    return (u * g) @ vh, truth


@pytest.mark.parametrize("draw, spec, scales", [
    # draws 27 (spread 1e-7) and 383 (1e-9) of the spread family: the gate accepts each, and
    # the record had the spec's counts but reconstructed A only to 5.7e-4 and 4.7e-5
    ((1e-7, 100, 27),
     GeneratorSpec(n=8, nu=4, sigmas=(223.1539643264069, 2.3239316881481114, 1.0, 1.0),
                   seed=2135494322),
     (1.0000000435087886, 0.9999999464037238, 1.000000039494823, 0.999999963826333)),
    ((1e-9, 101, 383),
     GeneratorSpec(n=10, nu=5, sigmas=(124.32605662779214, 74.37642097659655,
                                       42.93164569456357, 1.0, 1.0), seed=776938889),
     (0.9999999989096855, 1.0000000008795338, 1.0000000009181487, 0.9999999989745606)),
    # just above the limit: gate residual 3.4e-13, reconstruction 4.2e-6
    (None,
     GeneratorSpec(n=10, nu=5, sigmas=(304.83776944639686, 294.40992616073686,
                                       12.075641653602625, 1.0, 1.0), seed=1078843069),
     (0.9999999702208989, 1.0000000851829958, 1.0000000164556366, 0.9999999501216781)),
], ids=["draw-27", "draw-383", "above-limit"])
def test_result_that_does_not_reconstruct_is_refused(draw, spec, scales):
    a, _ = spread_unit_values(SC.SKEW_CONINVOLUTORY, spec, scales)
    if draw is not None:  # the pinned member is the family's draw
        spread, seed, i = draw
        structure, drawn, drawn_scales, member = spread_family(spread, seed, i + 1)[i]
        assert (structure, drawn, tuple(drawn_scales)) == (SC.SKEW_CONINVOLUTORY, spec, scales)
        assert np.array_equal(member, a)
    assert class_gate(a, SC.SKEW_CONINVOLUTORY, 1e-10)[2]
    text = rf"does not reconstruct the input: residual \S+ > {RECONSTRUCTION_LIMIT:.0e}"
    with pytest.raises(NumericalError, match=text):
        restructure(a, SC.SKEW_CONINVOLUTORY)


def test_result_just_below_the_reconstruction_limit_is_returned():
    # a pair at 1 + 3e-11 beside two unit singles reconstructs to 4.4e-7 (the near-unit
    # fault): returned, with the spec's counts; with the refusal above, a limit of 1e-5 or
    # 1e-7 fails one of these tests
    spec = GeneratorSpec(n=6, nu=2, sigmas=(3.0, 1 + 3e-11), eta1=1, eta2=1, seed=2)
    a, truth = gen_structured(SC.INVOLUTORY, spec)
    ssvd = restructure(a, SC.INVOLUTORY)
    assert ssvd.counts == truth.counts
    assert 1e-7 < reconstruction_residual(a, ssvd) <= RECONSTRUCTION_LIMIT


KRONECKER_CLASS = {  # the class of A (x) B, as (A (x) B)(A (x) B)* = (A A*) (x) (B B*)
    (SC.INVOLUTORY, SC.INVOLUTORY): SC.INVOLUTORY,
    (SC.SKEW_INVOLUTORY, SC.SKEW_INVOLUTORY): SC.INVOLUTORY,
    (SC.INVOLUTORY, SC.SKEW_INVOLUTORY): SC.SKEW_INVOLUTORY,
    (SC.SKEW_INVOLUTORY, SC.INVOLUTORY): SC.SKEW_INVOLUTORY,
    (SC.CONINVOLUTORY, SC.CONINVOLUTORY): SC.CONINVOLUTORY,
    (SC.SKEW_CONINVOLUTORY, SC.SKEW_CONINVOLUTORY): SC.CONINVOLUTORY,
    (SC.CONINVOLUTORY, SC.SKEW_CONINVOLUTORY): SC.SKEW_CONINVOLUTORY,
    (SC.SKEW_CONINVOLUTORY, SC.CONINVOLUTORY): SC.SKEW_CONINVOLUTORY,
}


def restructure_exact_member(a, structure, sigma):
    """``restructure(a)`` of a member of ``structure`` whose singular values are exactly
    ``sigma``: the class is accepted, A reconstructs to 1e-13, the sorted sigma lies within
    one floor ``64 n eps max(1, sigma_max)`` of ``sigma``'s, and extract_T rebuilds T exactly."""
    assert structure in classify(a).accepted
    ssvd = restructure(a, structure)
    assert reconstruction_residual(a, ssvd) <= 1e-13
    want = np.sort(sigma)
    assert np.max(np.abs(np.sort(ssvd.sigma) - want)) <= _svd_floor(a.shape[0], want[-1])
    assert np.array_equal(extract_T(ssvd.u, ssvd.v, structure), ssvd.t)
    return ssvd


def test_kronecker_products_are_exact_tie_oracles():
    # A (x) B has singular values exactly {sigma_i tau_j}: exact ties, and a unit cluster of
    # the products equal to 1; every second B is eta-free and carries A's sigmas above 1, so
    # sigma (1 / sigma) lands in the cluster.  The trace is tr A tr B: a pair holds +-omega,
    # a single omega d, so eta1 - eta2 is its real part (involutory) or imaginary part (skew)
    rng = np.random.default_rng(0)
    classes = list(KRONECKER_CLASS.items())
    for i in range(200):
        (class_a, class_b), structure = classes[i % len(classes)]
        a, truth_a = gen_structured(class_a, random_spec(class_a, rng, n_max=6, sigma_cap=1e2,
                                                         with_phases=True))
        above = tuple(s for s in truth_a.sigma if s > 1.0)
        if i % 2 and above:
            spec_b = GeneratorSpec(n=2 * len(above), nu=len(above), sigmas=above, seed=i)
        else:
            spec_b = random_spec(class_b, rng, n_max=6, sigma_cap=1e2, with_phases=True)
        b, truth_b = gen_structured(class_b, spec_b)
        products = np.outer(truth_a.sigma, truth_b.sigma).ravel()
        counts = restructure_exact_member(np.kron(a, b), structure, products).counts
        unit = int(np.sum(np.abs(products - 1.0) <= 1e-9))
        assert counts.delta + counts.eta == (0 if structure is SC.SKEW_CONINVOLUTORY else unit)
        trace = complex(np.trace(a)) * complex(np.trace(b))
        if structure in (SC.INVOLUTORY, SC.SKEW_INVOLUTORY):
            imbalance = trace.real if structure is SC.INVOLUTORY else trace.imag
            assert counts.eta1 - counts.eta2 == round(imbalance)


def test_direct_sums_add_their_counts():
    # diag(A, B) of two members of one class is a member with the spectra and counts of both
    rng = np.random.default_rng(1)
    for i in range(40):
        structure = list(SC)[i % len(SC)]
        (a, ta), (b, tb) = [
            gen_structured(structure, random_spec(structure, rng, n_max=6, sigma_cap=1e2,
                                                  with_phases=True)) for _ in range(2)]
        zero = np.zeros((a.shape[0], b.shape[0]))
        direct_sum = np.block([[a, zero], [zero.T, b]])
        sigma = np.concatenate([ta.sigma, tb.sigma])
        got = restructure_exact_member(direct_sum, structure, sigma).counts
        for name in ("nu", "eta1", "eta2"):
            assert getattr(got, name) == getattr(ta.counts, name) + getattr(tb.counts, name)
        assert got.delta + got.eta == sum(c.delta + c.eta for c in (ta.counts, tb.counts))


@pytest.mark.parametrize("structure", list(SC))
@pytest.mark.parametrize("sigma_max", [1e3, 1e6])
@pytest.mark.parametrize("e", [1e-10, 1e-9, 1e-7])
def test_scaled_members_keep_their_counts(structure, sigma_max, e):
    # (1 + e) A moves every sigma by the factor 1 + e, so the unit singles
    # sit at 1 + e and each product sigma_i sigma_(n-1-i) at (1 + e)^2,
    # while the gate sees only ||A A* -+ I||_F / ||A||_F^2 ~ e / sigma_max^2
    if structure is SC.SKEW_CONINVOLUTORY:
        spec = GeneratorSpec(n=6, nu=3, sigmas=(sigma_max, 2.0, 1.0), seed=5)
    else:
        spec = GeneratorSpec(n=6, nu=2, sigmas=(sigma_max, 2.0), eta1=1, eta2=1, seed=5)
    a, truth = gen_structured(structure, spec)
    a = (1.0 + e) * a
    assert class_gate(a, structure, 1e-10)[2]
    ssvd = restructure(a, structure, 1e-10)
    assert ssvd.counts == truth.counts
    assert reconstruction_residual(a, ssvd) <= e


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(SC)), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-13, 1e-12, 1e-11]))
@example(SC.SKEW_CONINVOLUTORY, 317, 1e-12)
@example(SC.SKEW_CONINVOLUTORY, 294, 1e-11)
def test_perturbed_inputs_keep_their_counts(structure, seed, eps):
    # random_spec inputs moved by eps ||A||_F that the default gate still
    # accepts: the pairing reads their measured distance from the class (in
    # the two examples, the unit couples' own defects miss part of the
    # cluster's spread, which the floor's ||A A* -+ I||_F / s term covers)
    rng = np.random.default_rng(seed)
    spec = random_spec(structure, rng, n_max=60, sigma_cap=1e6, with_phases=True)
    a, truth = gen_structured(structure, spec)
    e = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
    a = a + eps * np.linalg.norm(a) * e / np.linalg.norm(e)
    if not class_gate(a, structure, 1e-10)[2]:
        return
    assert restructure(a, structure, 1e-10).counts == truth.counts


@pytest.mark.parametrize(
    "structure, n", [(c, n) for c in SC for n in (5, 6, 7) if n == 6 or c is not SC.SKEW_CONINVOLUTORY]
)
def test_couple_widths_stay_at_rounding_on_exact_members(structure, n):
    # the widths measure the class defect on each couple's own vectors, so on
    # an exact member every couple but the lead's (where A draws eps
    # sigma_max^2) stays below the backward error, the middle value of an odd
    # spectrum, its own couple, included
    if structure is SC.SKEW_CONINVOLUTORY:
        spec = GeneratorSpec(n=n, nu=n // 2, sigmas=(1e4,) + (3.0,) * (n // 2 - 1), seed=2)
    else:
        spec = GeneratorSpec(n=n, nu=2, sigmas=(1e4, 3.0), eta1=n - 4, seed=2)
    a, _ = gen_structured(structure, spec)
    widths = _couple_widths(a, structure, kernel_svd(a))
    assert widths.size == (n + 1) // 2
    assert np.all(widths[1:] <= 64 * n * EPS * 1e4)


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("structure", [c for c in SC if c is not SC.SKEW_CONINVOLUTORY])
def test_couple_widths_equal_the_defect_on_each_couple(structure, n):
    # width i is ||X^H E X||_F, E = A A* - omega^2 I, on the right vectors X of the
    # couple (i, n-1-i); for the middle value of an odd spectrum X is its one
    # vector and the width |x^H E x|
    spec = GeneratorSpec(n=n, nu=1, sigmas=(3.0,), eta1=n - 3, eta2=1, seed=4)
    a, _ = gen_structured(structure, spec)
    rng = np.random.default_rng(4)
    a = a + 1e-6 * (rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape))
    base = kernel_svd(a)
    e = a @ (a.conj() if structure.is_con else a) - structure.omega ** 2 * np.eye(n)
    x = base.v.conj() if structure.is_con else base.v
    widths = _couple_widths(a, structure, base)
    assert widths.size == (n + 1) // 2
    for i, width in enumerate(widths):
        couple = x[:, sorted({i, n - 1 - i})]
        direct = np.linalg.norm(couple.conj().T @ e @ couple)
        assert abs(width - direct) <= 1e-9 * direct


def test_couple_widths_stay_within_the_defect_plus_rounding_on_rounded_members():
    # _read's claim: a width is at most ||A A* - omega^2 I||_F + 64 n^2 eps s^2, so its
    # bound, twice that, holds every width; over the rounded sets (400 random_spec draws
    # per cap, n <= 20, every part rounded to 12 digits) the largest ratio is 0.965
    for cap in (1e4, 1e6):
        rng = np.random.default_rng(0)
        for i in range(400):
            structure = list(SC)[i % 4]
            spec = random_spec(structure, rng, n_max=20, sigma_cap=cap)
            a = rounded(gen_structured(structure, spec)[0], 12)
            defect = class_gate(a, structure, 1e-10)[0]
            base = kernel_svd(a)
            n, scale = spec.n, max(1.0, base.sigma[0])
            widths = _couple_widths(a, structure, base)
            assert widths.max() <= defect + 64.0 * n * n * EPS * scale * scale, (cap, i)


SPREADS = st.sampled_from([0.0, 1e-10, 1e-8, 1e-6])


@st.composite
def gated_inputs(draw):
    """random_spec inputs (n <= 60, sigma cap 1e4 or 1e6, with phases) or the
    near-unit family, moved by eps ||A||_F (eps in {0, 1e-13, 1e-12, 1e-11}),
    then each unit singular value scaled by 1 + f N(0, 1) (f in {0, 1e-10,
    1e-8, 1e-6}), which spreads the cluster where only the widths decide."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        structure, _, spec = draw(near_unit_inputs())
    else:
        structure = draw(st.sampled_from(list(SC)))
        spec = random_spec(structure, rng, 60, draw(st.sampled_from([1e4, 1e6])), with_phases=True)
    a, _ = gen_structured(structure, spec)
    e = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
    eps = draw(st.sampled_from([0.0, 1e-13, 1e-12, 1e-11]))
    a = a + eps * np.linalg.norm(a) * e / np.linalg.norm(e)
    base = kernel_svd(a)
    unit = np.abs(base.sigma - 1.0) < 1e-6
    sigma = base.sigma * np.where(unit, 1.0 + draw(SPREADS) * rng.standard_normal(unit.size), 1.0)
    return structure, (base.u * sigma) @ base.v.conj().T


@settings(max_examples=200, deadline=None)
@given(gated_inputs())
def test_widths_computed_only_where_they_decide(case):
    # restructure reads the spectrum at width 0 unless some couple lies in a
    # band only a width can decide; its pairs and cluster (or pairing error)
    # are the ones every couple's computed width gives, and each width stays
    # below the bound M = 2 (||A A* -+ I||_F + 64 n^2 eps s^2) that sets the band
    structure, a = case
    defect, _, accepted = class_gate(a, structure, 1e-10)
    if not accepted:
        return
    base = kernel_svd(a)
    sig = base.sigma.tolist()
    n, scale = a.shape[0], max(1.0, sig[0])
    widths = _couple_widths(a, structure, base)
    assert widths.max() <= 2.0 * (defect + 64.0 * n * n * EPS * scale * scale)
    want = pairing_outcome(settled, sig, _svd_floor(n, scale) + defect / scale, widths.tolist())
    if structure is SC.SKEW_CONINVOLUTORY and not isinstance(want[0], type):
        want = want[0] + want[1] // 2, 0  # the cluster resolves into sigma = 1 pairs
    try:
        counts = restructure(a, structure, 1e-10).counts
    except PairingError as exc:
        assert want == (PairingError, str(exc), exc.orphan)
    except StructureViolationError:  # the cluster's resolution refuses after the pairing settled
        assert not isinstance(want[0], type)
    except NumericalError as exc:  # a settled record that does not reconstruct A
        assert str(exc).startswith("result does not reconstruct the input")
        with mock.patch.object(structured_svd, "RECONSTRUCTION_LIMIT", math.inf):
            ssvd = restructure(a, structure, 1e-10)
        assert reconstruction_residual(a, ssvd) > RECONSTRUCTION_LIMIT
        assert (ssvd.counts.nu, ssvd.counts.delta + ssvd.counts.eta) == want
    else:
        assert (counts.nu, counts.delta + counts.eta) == want


def near_unit_pair_matrix(structure):
    """sigma = (10, 1 + 1e-6), with one +1 and one -1 single (n = 6), or
    without singles in the skew-coninvolutory class (n = 4)."""
    if structure is SC.SKEW_CONINVOLUTORY:
        spec = GeneratorSpec(n=4, nu=2, sigmas=(10.0, 1.0 + 1e-6), seed=9)
    else:
        spec = GeneratorSpec(n=6, nu=2, sigmas=(10.0, 1.0 + 1e-6), eta1=1, eta2=1, seed=9)
    return gen_structured(structure, spec)[0]


@pytest.mark.parametrize("structure", list(SC))
def test_output_does_not_depend_on_tol(structure):
    a = near_unit_pair_matrix(structure)
    ref = restructure(a, structure, 1e-10)
    assert ref.counts.nu == 2
    for tol in (1e-8, 1e-6):
        ssvd = restructure(a, structure, tol)
        for name in ("u", "v", "sigma", "t"):
            assert np.array_equal(getattr(ssvd, name), getattr(ref, name))
        assert ssvd.counts == ref.counts


def assert_exact_coupling(ssvd):
    """U = V T (or conj(V) T) holds exactly, each partner column of V is its
    lead's U column (conjugated in the coninvolutory classes), and the
    nonzeros of T sit exactly at the pair and single positions of
    ``columns()``."""
    assert np.array_equal(ssvd.u, ssvd.structure.star(ssvd.v) @ ssvd.t)
    lead, part, single = ssvd.columns()
    pattern = np.zeros(ssvd.t.shape, dtype=bool)
    pattern[part, lead] = pattern[lead, part] = pattern[single, single] = True
    assert np.array_equal(ssvd.t != 0, pattern)
    lead_u, part_v = ssvd.u[:, lead], ssvd.v[:, part]
    assert np.array_equal(part_v, lead_u.conj() if ssvd.structure.is_con else lead_u)


def test_layout_positions_match_the_concatenated_blocks():
    # every layout with n <= 12: the positions and sigma read off the block
    # order lead, delta singles, partners, eta singles, built block by block
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        for npairs in range(n // 2 + 1):
            delta = (n - 2 * npairs + 1) // 2
            lead, part, single = layout_columns(npairs, n)
            assert np.array_equal(lead, np.arange(npairs))
            assert np.array_equal(part, np.arange(npairs) + npairs + delta)
            assert np.array_equal(single, np.concatenate(
                [np.arange(npairs, npairs + delta), np.arange(2 * npairs + delta, n)]))
        for nu in range(n // 2 + 1):
            for mu in range(n // 2 - nu + 1):
                k = n - 2 * (nu + mu)
                lead_s = np.sort(1.0 + rng.exponential(3.0, nu))[::-1]
                signs = rng.choice([-1.0, 1.0], k)
                ssvd = layout_svd(SC.INVOLUTORY, np.eye(n), lead_s, signs, mu)
                delta, eta = (k + 1) // 2, k // 2
                want = np.concatenate(
                    [lead_s, np.ones(mu + delta), 1.0 / lead_s, np.ones(mu + eta)])
                assert np.array_equal(ssvd.sigma, want)


@pytest.mark.parametrize("structure", list(SC))
def test_every_layout_coupling_satisfies_the_class_identity(structure):
    # T T* = omega^2 I (T* = T, or conj(T) in the con classes) for every layout
    # with n <= 12, random signs, phases and mu: the builder's T is a member of
    # the class that omega names
    rng = np.random.default_rng(17)
    for n in range(1, 13):
        for npairs in range(n // 2 + 1):
            k = n - 2 * npairs
            if structure is SC.SKEW_CONINVOLUTORY and k:
                continue
            mu = int(rng.integers(npairs + 1))
            lead_s = np.sort(rng.uniform(1.5, 1e3, npairs - mu))[::-1]
            if structure is SC.CONINVOLUTORY:
                diag = np.exp(2j * np.pi * rng.random(k))
            else:
                diag = rng.choice([-1.0, 1.0], k)
            t = layout_svd(structure, np.eye(n), lead_s, diag, mu).t
            product = t @ (t.conj() if structure.is_con else t)
            assert np.abs(product - structure.omega ** 2 * np.eye(n)).max() <= 1e-15


def test_layout_columns_are_cached_and_read_only():
    ssvd = layout_svd(SC.INVOLUTORY, np.eye(7), [3.0, 2.0], [1.0, -1.0, 1.0])
    columns = ssvd.columns()
    assert columns is layout_columns(2, 7)
    assert not any(c.flags.writeable for c in columns)
    assert layout_columns.cache_info().maxsize is not None


def test_layout_columns_cache_holds_every_small_layout():
    # restructure asks for (p, n): 440 keys for n <= 40, each missed once; a cache
    # that evicts misses all of them again in the second sweep
    layout_columns.cache_clear()
    for _ in range(2):
        for n in range(1, 41):
            for p in range(n // 2 + 1):
                layout_columns(p, n)
    assert layout_columns.cache_info().misses == 440


def _edge_specs(structure):
    """An input with an empty unit cluster and one that is all cluster."""
    no_cluster = GeneratorSpec(n=6, nu=3, sigmas=(9.0, 3.0, 1.5), seed=3)
    if structure is SC.SKEW_CONINVOLUTORY:
        return no_cluster, GeneratorSpec(n=6, nu=3, sigmas=(1.0, 1.0, 1.0), seed=4)
    return no_cluster, GeneratorSpec(n=5, eta1=3, eta2=2, seed=4)


class TestCouplingLawByConstruction:
    @pytest.mark.parametrize("structure", list(SC))
    def test_restructure_and_truth(self, structure):
        corpus = build_corpus(structure, 20, seed=77 + sum(structure.value.encode()),
                              n_max=24, with_phases=True)
        for _, truth, ssvd in corpus:
            assert_exact_coupling(truth)
            assert_exact_coupling(ssvd)

    @pytest.mark.parametrize("structure", list(SC))
    def test_empty_and_full_unit_cluster(self, structure):
        no_cluster, all_cluster = _edge_specs(structure)
        a, truth = gen_structured(structure, no_cluster)
        ssvd = restructure(a, structure)
        assert np.all(ssvd.sigma[:3] > 1.0) and ssvd.columns()[2].size == 0
        assert_exact_coupling(truth)
        assert_exact_coupling(ssvd)
        a, truth = gen_structured(structure, all_cluster)
        ssvd = restructure(a, structure)
        assert_allclose(ssvd.sigma, np.ones(ssvd.dim), atol=1e-12)
        if structure is not SC.SKEW_CONINVOLUTORY:
            assert ssvd.counts.nu == 0 and ssvd.columns()[2].size == 5
        assert_exact_coupling(truth)
        assert_exact_coupling(ssvd)

    def test_paired_one_display_every_mu(self):
        # the display re-pairs every couple it can, and its result is also a
        # valid input downstream: the eigendecomposition and both projector
        # SVDs work from it as from the mu = 0 layout
        seen = set()
        for a, truth, ssvd in build_corpus(SC.INVOLUTORY, 12, seed=5, n_max=16):
            n = ssvd.dim
            for base in (truth, ssvd):
                _, _, single = base.columns()
                signs = base.t[single, single].real.tolist()
                plain = {s: np.sort(projector_svd(base, s).svd.sigma) for s in (1, -1)}
                disp = paired_one_display(base)
                mu = min(signs.count(1), signs.count(-1))
                assert disp.counts.mu == mu
                assert (disp.counts.eta1, disp.counts.eta2) == (
                    signs.count(1) - mu, signs.count(-1) - mu
                )
                seen.add(mu)
                assert_exact_coupling(disp)
                eig = eigendecompose(disp)
                scale = n * max(1.0, np.linalg.norm(a)) * max(1.0, np.linalg.norm(eig.x))
                assert eigen_residual(a, eig) <= 1e-12 * scale
                for sign in (1, -1):
                    res = projector_svd(disp, sign).svd
                    assert_allclose(np.sort(res.sigma), plain[sign], atol=1e-11)
                    b = (np.eye(n) + sign * a) / 2.0
                    assert np.linalg.norm(b - res.reconstruct()) <= 1e-11 * n * max(
                        1.0, np.linalg.norm(b)
                    )
        assert len(seen) >= 3  # the corpus's sign splits reach several mu


_THREADS_WORKER = """
import pickle, sys
from dataclasses import astuple
import numpy as np
from involsvd import StructureClass, reconstruction_residual, restructure

with open(sys.argv[1], "rb") as fh:
    cases = pickle.load(fh)
out = []
for name, a in cases:
    ssvd = restructure(a, StructureClass(name), 1e-10)
    out.append({
        "counts": astuple(ssvd.counts),
        "t": ssvd.t,
        "sigma": ssvd.sigma,
        "reconstruction": reconstruction_residual(a, ssvd),
        "coupling": bool(np.array_equal(ssvd.u, ssvd.structure.star(ssvd.v) @ ssvd.t)),
    })
with open(sys.argv[2], "wb") as fh:
    pickle.dump(out, fh)
"""


def _threads_cases():
    """Fixed-seed inputs of every class: three random_spec ones (n <= 60,
    sigma_max <= 1e4, coninvolutory phases) and one at n=80, large enough
    for OpenBLAS to split its work across threads."""
    rng = np.random.default_rng(2718)
    cases = []
    for structure in SC:
        if structure is SC.SKEW_CONINVOLUTORY:
            big = GeneratorSpec(n=80, nu=40, seed=31,
                                sigmas=tuple(np.geomspace(1e4, 1.3, 36)) + (1.0,) * 4)
        else:
            big = GeneratorSpec(n=80, nu=30, sigmas=tuple(np.geomspace(1e4, 1.3, 30)),
                                eta1=12, eta2=8, seed=31)
        specs = [random_spec(structure, rng, n_max=60, with_phases=True) for _ in range(3)]
        for spec in specs + [big]:
            cases.append((structure.value, gen_structured(structure, spec)[0]))
    return cases


def _restructure_with_blas_threads(threads, cases_path, out_path):
    subprocess.run([sys.executable, "-c", _THREADS_WORKER, str(cases_path), str(out_path)],
                   env=package_env(OPENBLAS_NUM_THREADS=str(threads)), check=True)
    with open(out_path, "rb") as fh:
        return pickle.load(fh)


def test_results_agree_across_blas_thread_counts(tmp_path):
    # LAPACK factors may differ in the last bits between thread counts, and
    # vectors inside the +-1 eigenspaces are not unique, so only the
    # structural outputs must match exactly
    cases_path = tmp_path / "cases.pkl"
    with open(cases_path, "wb") as fh:
        pickle.dump(_threads_cases(), fh)
    one = _restructure_with_blas_threads(1, cases_path, tmp_path / "one.pkl")
    two = _restructure_with_blas_threads(2, cases_path, tmp_path / "two.pkl")
    assert len(one) == len(two) == 4 * len(SC)
    for r1, r2 in zip(one, two):
        assert r1["counts"] == r2["counts"]
        assert np.array_equal(r1["t"], r2["t"])
        assert_allclose(r2["sigma"], r1["sigma"], rtol=1e-12, atol=0)
        for r in (r1, r2):
            assert r["reconstruction"] <= 1e-10
            assert r["coupling"]


class TestExtractT:
    def test_equal_factors_give_identity(self):
        rng = np.random.default_rng(4)
        v = haar_unitary(5, rng)
        t = extract_T(v, v, SC.INVOLUTORY)
        assert_allclose(t, np.eye(5), atol=0)

    def test_involutory_pair(self):
        ssvd = restructure(np.array([[0.0, 2.0], [0.5, 0.0]]), SC.INVOLUTORY)
        t = extract_T(ssvd.u, ssvd.v, SC.INVOLUTORY)
        assert_allclose(t, [[0.0, 1.0], [1.0, 0.0]], atol=0)

    def test_skew_coninvolutory_is_minus_j(self):
        ssvd = restructure(np.array([[0.0, -1.0], [1.0, 0.0]]), SC.SKEW_CONINVOLUTORY)
        t = extract_T(ssvd.u, ssvd.v, SC.SKEW_CONINVOLUTORY)
        assert_allclose(t, [[0.0, -1.0], [1.0, 0.0]], atol=0)

    @pytest.mark.parametrize("structure", list(SC))
    def test_matches_restructure_pattern(self, structure):
        corpus = build_corpus(structure, 8, seed=5, n_max=16, sigma_cap=100.0)
        for _, _, ssvd in corpus:
            t = extract_T(ssvd.u, ssvd.v, structure)
            assert np.array_equal(t, ssvd.t)

    @pytest.mark.parametrize("tol", [1e-10, 1.0])
    def test_skew_coninvolutory_single_rejected(self, tol):
        v = haar_unitary(4, np.random.default_rng(8))
        with pytest.raises(CouplingError, match="violates the skew-coninvolutory") as err:
            extract_T(v.conj(), v, SC.SKEW_CONINVOLUTORY, tol)  # T = I: four singles
        assert err.value.entry == (0, 0)

    def test_unrelated_factors_rejected(self):
        rng = np.random.default_rng(12)
        u, v = haar_unitary(4, rng), haar_unitary(4, rng)
        with pytest.raises(CouplingError) as err:
            extract_T(u, v, SC.INVOLUTORY)
        assert err.value.entry is not None

    @pytest.mark.parametrize("picks", [(1, -1), (-2, 2)])
    @pytest.mark.parametrize("structure", list(SC))
    def test_reports_first_broken_entry_row_major(self, structure, picks):
        if structure is SC.SKEW_CONINVOLUTORY:
            spec = GeneratorSpec(n=6, nu=3, sigmas=(5.0, 2.0, 1.0), seed=3)
        else:
            spec = GeneratorSpec(n=6, nu=2, sigmas=(5.0, 2.0), eta1=1, eta2=1, seed=3)
        a, _ = gen_structured(structure, spec)
        ssvd = restructure(a, structure)
        nonzeros = list(zip(*np.nonzero(ssvd.t)))  # row-major
        broken = sorted(tuple(map(int, nonzeros[k])) for k in picks)
        t = ssvd.t.copy()
        for pos in broken:  # large enough to stay in the pattern, wrong value
            t[pos] *= 0.9
        v = ssvd.v
        u = (v.conj() if structure.is_con else v) @ t
        raw = (v.T @ u) if structure.is_con else (v.conj().T @ u)
        with pytest.raises(CouplingError) as err:
            extract_T(u, v, structure)
        i, j = broken[0]
        assert err.value.entry == (i, j)
        assert err.value.value == complex(raw[i, j])
        assert str(err.value) == (
            f"coupling entry ({i}, {j}) = {complex(raw[i, j])!r} violates the "
            f"{structure.value} pattern"
        )

    def test_perturbed_pattern_rejected(self):
        ssvd = restructure(np.array([[0.0, 2.0], [0.5, 0.0]]), SC.INVOLUTORY)
        u = ssvd.u.copy()
        u[:, 0] *= np.exp(0.001j)
        with pytest.raises(CouplingError):
            extract_T(u, ssvd.v, SC.INVOLUTORY)

    @pytest.mark.parametrize("structure", [SC.INVOLUTORY, SC.CONINVOLUTORY])
    def test_off_pattern_entry_bound_is_max_tol_1e_12(self, structure):
        # U = V* (T + eps E), E one entry off T's pattern: at tol 0 the bound is 1e-12, so
        # eps 1e-11 is refused and 1e-13 read as 0; tol 1e-10 admits 1e-11 (T as at eps 0)
        spec = GeneratorSpec(n=6, nu=2, sigmas=(5.0, 2.0), eta1=1, eta2=1, seed=3)
        _, truth = gen_structured(structure, spec)
        i, j = map(int, np.argwhere(truth.t == 0)[0])

        def factors(eps):
            t = truth.t.copy()
            t[i, j] = eps
            return structure.star(truth.v) @ t, truth.v

        with pytest.raises(CouplingError, match="should vanish") as err:
            extract_T(*factors(1e-11), structure, 0.0)
        assert err.value.entry == (i, j)
        for eps, tol in [(1e-11, 1e-10), (1e-13, 0.0)]:
            assert np.array_equal(extract_T(*factors(eps), structure, tol),
                                  extract_T(*factors(0.0), structure, 0.0))

    def test_generator_truth_is_the_pattern_extract_t_rebuilds(self):
        # the generator writes a coninvolutory single's default sign as exactly -1, not as
        # exp(1j * pi) = -1 + 1.2e-16j, so T rebuilt from its U and V equals its T bitwise
        spec = GeneratorSpec(n=6, nu=2, sigmas=(5.0, 2.0), eta1=1, eta2=1, seed=3)
        _, truth = gen_structured(SC.CONINVOLUTORY, spec)
        t = extract_T(truth.u, truth.v, SC.CONINVOLUTORY)
        assert t.tobytes() == truth.t.tobytes()

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tol_rejected(self, tol):
        ssvd = restructure(np.array([[0.0, 2.0], [0.5, 0.0]]), SC.INVOLUTORY)
        u = ssvd.u.copy()
        u[:, 0] *= 0.9  # a broken entry no comparison with tol could catch
        with pytest.raises(InvalidInputError, match="tol must be finite"):
            extract_T(u, ssvd.v, SC.INVOLUTORY, tol)

    @pytest.mark.parametrize("phase", [1e-9, np.pi - 1e-9])
    def test_phase_near_plus_or_minus_one_reads_back(self, phase):
        # the phase snap shares the entry bound max(tol, 1e-12): a snap to +-1
        # from 1e-9 away would leave the entry 1e-9 off its target and refuse
        # the generator's own truth
        spec = GeneratorSpec(n=3, nu=1, sigmas=(2.0,), eta1=1, phases=(phase,), seed=1)
        _, truth = gen_structured(SC.CONINVOLUTORY, spec)
        t = extract_T(truth.u, truth.v, SC.CONINVOLUTORY)
        assert np.abs(t - truth.t).max() <= 1e-12

    @pytest.mark.parametrize("structure", list(SC))
    def test_reads_back_every_layout_bitwise(self, structure):
        # V is a random permutation with entries +-1, +-1j, unitary to the last
        # bit, so V^H U (V^T U) is the built T itself, and the coninvolutory
        # phases are unit to the last bit, so their snap keeps them
        rng = np.random.default_rng(31)
        for n in range(1, 13):
            for npairs in range(n // 2 + 1):
                k = n - 2 * npairs
                if structure is SC.SKEW_CONINVOLUTORY and k:
                    continue
                mu = int(rng.integers(npairs + 1))
                lead_s = np.sort(rng.uniform(1.5, 1e3, npairs - mu))[::-1]
                if structure is SC.CONINVOLUTORY:
                    z = np.exp(2j * np.pi * rng.random(4 * k + 8))
                    diag = z[np.hypot(z.real, z.imag) == 1.0][:k]
                else:
                    diag = rng.choice([-1.0, 1.0], k)
                v = np.eye(n)[:, rng.permutation(n)] * rng.choice([1, -1, 1j, -1j], n)
                ssvd = layout_svd(structure, v, lead_s, diag, mu)
                t = extract_T(ssvd.u, ssvd.v, structure)
                assert t.tobytes() == ssvd.t.tobytes()

    @pytest.mark.parametrize("cycle", [(0, 1, 2), (0, 2, 1), (0, 1, 2, 3), (0, 2, 1, 3)],
                             ids=["3-cycle", "3-cycle-reversed", "4-cycle", "4-cycle-crossed"])
    @pytest.mark.parametrize("structure", list(SC))
    def test_cyclic_pattern_rejected(self, structure, cycle):
        # a cycle of length >= 3, each entry +-1 by the pairs' sign rule (1
        # below the diagonal, omega^2 above it): every row and
        # column has one unit entry, but no layout couples three columns
        n = len(cycle)
        p = np.zeros((n, n))
        for j, i in zip(cycle, cycle[1:] + cycle[:1]):
            p[i, j] = (structure.omega ** 2).real if i < j else 1.0
        v = haar_unitary(n, np.random.default_rng(n))
        u = (v.conj() if structure.is_con else v) @ p
        for tol in (1e-10, 1.0):  # an entry where the rebuilt T is 0 fails at any tol
            with pytest.raises(CouplingError, match="violates the") as err:
                extract_T(u, v, structure, tol)
            i, j = err.value.entry
            assert i < j and p[i, j] != 0.0 and p[j, i] == 0.0


class TestPairedOneDisplay:
    def test_repairing_keeps_svd_valid(self):
        spec = GeneratorSpec(n=9, nu=2, sigmas=(4.0, 1.5), eta1=3, eta2=2, seed=6)
        a, _ = gen_structured(SC.INVOLUTORY, spec)
        ssvd = restructure(a, SC.INVOLUTORY)
        disp = paired_one_display(ssvd)
        assert disp.counts.mu == 2
        assert disp.counts.eta1 == 1 and disp.counts.eta2 == 0
        assert reconstruction_residual(a, disp) <= 1e-10
        assert np.array_equal(disp.u, disp.structure.star(disp.v) @ disp.t)
        # two reciprocal pairs, then two (1, 1) pairs, and one single
        lead, _, single = disp.columns()
        assert disp.counts.nu == 2 and lead.size == 4 and single.size == 1
        assert np.all(disp.sigma[lead[:2]] > 1.0)
        assert np.array_equal(disp.sigma[lead[2:]], np.ones(2))
        t = extract_T(disp.u, disp.v, SC.INVOLUTORY)
        assert np.array_equal(t, disp.t)

    def test_partial_mu(self):
        # example 1 has three +1 singles and one -1: one couple, two singles left
        a = example1_matrix()
        ssvd = restructure(a, SC.INVOLUTORY)
        disp = paired_one_display(ssvd)
        assert disp.counts.mu == 1
        assert disp.counts.eta1 == 2
        assert reconstruction_residual(a, disp) <= 1e-12

    def test_wrong_class(self):
        from involsvd import WrongClassError

        ssvd = restructure(np.array([[0.0, -1.0], [1.0, 0.0]]), SC.SKEW_CONINVOLUTORY)
        with pytest.raises(WrongClassError):
            paired_one_display(ssvd)
