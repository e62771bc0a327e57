"""Restructuring: reciprocal pairing, cluster resolution, coupling matrices."""

import pickle
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from involsvd import (
    GeneratorSpec,
    PairingError,
    CouplingError,
    StructureClass,
    StructureViolationError,
    coupling_residual,
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
from involsvd.kernel import j_matrix
from helpers import (
    build_corpus,
    degenerate_skew_pairing_matrix,
    example1_matrix,
    package_env,
    random_spec,
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


class TestRestructure:
    def test_involutory_2x2(self):
        a = np.array([[0.0, 2.0], [0.5, 0.0]])
        ssvd = restructure(a, SC.INVOLUTORY)
        assert_allclose(ssvd.sigma, [2.0, 0.5], rtol=1e-14)
        assert ssvd.counts.as_tuple() == (1, 0, 0, 0, 0, 0)
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
            assert ssvd.counts.as_tuple() == (k, 0, 0, 0, 0, 0)
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
def test_recovery_invariants(structure):
    corpus = build_corpus(structure, 30, seed=sum(structure.value.encode()),
                          n_max=24, sigma_cap=1e3, with_phases=True)
    for a, truth, ssvd in corpus:
        n = ssvd.dim
        assert ssvd.counts.nu == truth.counts.nu
        assert ssvd.counts.as_tuple() == truth.counts.as_tuple()
        got = np.sort(ssvd.sigma)
        want = np.sort(truth.sigma)
        assert np.max(np.abs(got - want) / np.maximum(want, 1e-30)) <= 1e-8
        assert reconstruction_residual(a, ssvd) <= 1e-10
        assert coupling_residual(ssvd) <= 1e-9
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
    assert coupling_residual(ssvd) <= 1e-9
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


def assert_exact_coupling(ssvd):
    """U = V T (or conj(V) T) holds exactly, each partner column of V is its
    lead's U column (conjugated in the coninvolutory classes), and the
    nonzeros of T sit exactly at the pair and single positions of
    ``columns()``."""
    assert np.array_equal(ssvd.u, ssvd.coupled_u())
    lead, part, single = ssvd.columns()
    pattern = np.zeros(ssvd.t.shape, dtype=bool)
    pattern[part, lead] = pattern[lead, part] = pattern[single, single] = True
    assert np.array_equal(ssvd.t != 0, pattern)
    lead_u, part_v = ssvd.u[:, lead], ssvd.v[:, part]
    assert np.array_equal(part_v, lead_u.conj() if ssvd.structure.is_con else lead_u)


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
        # a display result is also a valid input downstream: the
        # eigendecomposition and both projector SVDs work from it as from
        # the mu = 0 layout
        for a, truth, ssvd in build_corpus(SC.INVOLUTORY, 12, seed=5, n_max=16):
            n = ssvd.dim
            for base in (truth, ssvd):
                _, _, single = base.columns()
                signs = base.t[single, single].real.tolist()
                plain = {s: np.sort(projector_svd(base, s).svd.sigma) for s in (1, -1)}
                for mu in range(min(signs.count(1), signs.count(-1)) + 1):
                    disp = paired_one_display(base, mu)
                    assert disp.counts.mu == mu
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


_THREADS_WORKER = """
import pickle, sys
from involsvd import StructureClass, coupling_residual, reconstruction_residual, restructure

with open(sys.argv[1], "rb") as fh:
    cases = pickle.load(fh)
out = []
for name, a in cases:
    ssvd = restructure(a, StructureClass(name), 1e-10)
    out.append({
        "counts": ssvd.counts.as_tuple(),
        "t": ssvd.t,
        "sigma": ssvd.sigma,
        "reconstruction": reconstruction_residual(a, ssvd),
        "coupling": coupling_residual(ssvd),
    })
with open(sys.argv[2], "wb") as fh:
    pickle.dump(out, fh)
"""


def _threads_cases():
    """Fixed-seed inputs of every class: a small random one and one at n=80,
    large enough for OpenBLAS to split its work across threads."""
    rng = np.random.default_rng(2718)
    cases = []
    for structure in SC:
        if structure is SC.SKEW_CONINVOLUTORY:
            big = GeneratorSpec(n=80, nu=40, seed=31,
                                sigmas=tuple(np.geomspace(1e4, 1.3, 36)) + (1.0,) * 4)
        else:
            big = GeneratorSpec(n=80, nu=30, sigmas=tuple(np.geomspace(1e4, 1.3, 30)),
                                eta1=12, eta2=8, seed=31)
        for spec in (random_spec(structure, rng, n_max=16), big):
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
    assert len(one) == len(two) == 2 * len(SC)
    for r1, r2 in zip(one, two):
        assert r1["counts"] == r2["counts"]
        assert np.array_equal(r1["t"], r2["t"])
        assert_allclose(r2["sigma"], r1["sigma"], rtol=1e-12, atol=0)
        for r in (r1, r2):
            assert r["reconstruction"] <= 1e-10
            assert r["coupling"] <= 1e-9


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
            f"coupling entry ({i}, {j}) = {raw[i, j]!r} violates the "
            f"{structure.value} pattern"
        )

    def test_perturbed_pattern_rejected(self):
        ssvd = restructure(np.array([[0.0, 2.0], [0.5, 0.0]]), SC.INVOLUTORY)
        u = ssvd.u.copy()
        u[:, 0] *= np.exp(0.001j)
        with pytest.raises(CouplingError):
            extract_T(u, ssvd.v, SC.INVOLUTORY)


class TestPairedOneDisplay:
    def test_repairing_keeps_svd_valid(self):
        spec = GeneratorSpec(n=9, nu=2, sigmas=(4.0, 1.5), eta1=3, eta2=2, seed=6)
        a, _ = gen_structured(SC.INVOLUTORY, spec)
        ssvd = restructure(a, SC.INVOLUTORY)
        disp = paired_one_display(ssvd)
        assert disp.counts.mu == 2
        assert disp.counts.eta1 == 1 and disp.counts.eta2 == 0
        assert reconstruction_residual(a, disp) <= 1e-10
        assert coupling_residual(disp) <= 1e-12
        # two reciprocal pairs, then two (1, 1) pairs, and one single
        lead, _, single = disp.columns()
        assert disp.counts.nu == 2 and lead.size == 4 and single.size == 1
        assert np.all(disp.sigma[lead[:2]] > 1.0)
        assert np.array_equal(disp.sigma[lead[2:]], np.ones(2))
        t = extract_T(disp.u, disp.v, SC.INVOLUTORY)
        assert np.array_equal(t, disp.t)

    def test_partial_mu(self):
        a = example1_matrix()
        ssvd = restructure(a, SC.INVOLUTORY)
        disp = paired_one_display(ssvd, mu=1)
        assert disp.counts.mu == 1
        assert disp.counts.eta1 == 2
        assert reconstruction_residual(a, disp) <= 1e-12

    def test_wrong_class(self):
        from involsvd import WrongClassError

        ssvd = restructure(np.array([[0.0, -1.0], [1.0, 0.0]]), SC.SKEW_CONINVOLUTORY)
        with pytest.raises(WrongClassError):
            paired_one_display(ssvd)
