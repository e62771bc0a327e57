"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Corpora: 500 generated matrices per structure class with n in {2..40} and
sigma_1 <= 1e4 (criteria 1-4, 8, 9), plus 500 involutory instances with
sigma_1 <= 1e3 for the projector-based criteria (5, 6).
"""

import time

import numpy as np
import pytest

from involsvd import (
    StructureClass,
    canonical_form,
    classify,
    coneigen_singles,
    consim_to_identity,
    consim_to_minusJ,
    consimilarity_residual,
    eigendecompose,
    householder_singular_values,
    minusj_residual,
    projector_svd,
    restructure,
    svd as kernel_svd,
)
from involsvd.projector import _projector
from helpers import build_corpus, example1_matrix, j_matrix

SC = StructureClass
COUNT = 500
RUNTIME_LIMIT_S = 60.0


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """500 instances per class; elapsed time covers generation+restructure."""
    t0 = time.perf_counter()
    data = {
        SC.INVOLUTORY: build_corpus(SC.INVOLUTORY, COUNT, seed=1001),
        SC.SKEW_INVOLUTORY: build_corpus(SC.SKEW_INVOLUTORY, COUNT, seed=1002),
        SC.CONINVOLUTORY: build_corpus(SC.CONINVOLUTORY, COUNT, seed=1003, with_phases=True),
        SC.SKEW_CONINVOLUTORY: build_corpus(SC.SKEW_CONINVOLUTORY, COUNT, seed=1004),
    }
    return {"data": data, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def involutory_1e3_corpus():
    return build_corpus(SC.INVOLUTORY, COUNT, seed=2001, sigma_cap=1e3)


def test_criterion_reciprocal_pairing(corpus):
    worst = 0.0
    for records in corpus["data"].values():
        for _, _, ssvd in records:
            s = np.sort(ssvd.sigma)[::-1]
            worst = max(worst, float(np.max(np.abs(s * s[::-1] - 1.0))))
    elapsed = corpus["elapsed"]
    ok = worst <= 1e-8 and elapsed <= RUNTIME_LIMIT_S
    _report(
        "reciprocal singular-value pairing",
        ok,
        f"max |s_j * s_(n+1-j) - 1| = {worst:.3e} (limit 1e-08), "
        f"4x{COUNT} instances restructured in {elapsed:.1f}s (limit {RUNTIME_LIMIT_S:.0f}s)",
    )


def test_criterion_coupling_law(corpus):
    records = [ssvd for records in corpus["data"].values() for _, _, ssvd in records]
    exact = sum(np.array_equal(ssvd.u, ssvd.structure.star(ssvd.v) @ ssvd.t) for ssvd in records)
    _report(
        "coupling law U = V T / conj(V) T / -conj(V) J",
        exact == len(records),
        f"{exact}/{len(records)} records hold U = V* T bitwise",
    )


def test_criterion_canonical_closure(corpus):
    failures = 0
    total = 0
    for structure, records in corpus["data"].items():
        for _, _, ssvd in records:
            total += 1
            form = canonical_form(ssvd)
            if structure not in classify(form.t_sigma, 1e-8).accepted:
                failures += 1
    _report(
        "canonical form closure (classify(T Sigma))",
        failures == 0,
        f"{total - failures}/{total} condensed forms accepted in their class",
    )


def test_criterion_eigenvalue_counts(corpus):
    bad = 0
    total = 0
    for a, truth, ssvd in corpus["data"][SC.INVOLUTORY]:
        total += 1
        eig = eigendecompose(ssvd)
        trace = int(round(np.trace(a).real))
        expected_plus = truth.counts.nu + truth.counts.mu + truth.counts.eta1
        if eig.n_plus - eig.n_minus != trace or eig.n_plus != expected_plus:
            bad += 1
    _report(
        "eigenvalue counts vs trace and ground truth",
        bad == 0,
        f"{total - bad}/{total} instances with n+ - n- = round(trace) and "
        "counts equal to ground truth",
    )


def test_criterion_householder_oracle(involutory_1e3_corpus):
    worst = 0.0
    for a, _, ssvd in involutory_1e3_corpus:
        vals = householder_singular_values(a)
        reference = np.sort(ssvd.sigma)[::-1]
        worst = max(
            worst, float(np.max(np.abs(vals - reference) / np.maximum(reference, 1e-30)))
        )
    _report(
        "rank-factorization singular-value oracle vs structured SVD",
        worst <= 1e-7,
        f"max relative disagreement = {worst:.3e} (limit 1e-07) over {COUNT} instances",
    )


def test_criterion_projector_svd(involutory_1e3_corpus):
    worst_kernel = 0.0
    worst_pattern = 0.0
    for idx, (a, _, ssvd) in enumerate(involutory_1e3_corpus):
        sign = 1 if idx % 2 == 0 else -1
        psvd = projector_svd(ssvd, sign)
        reference = kernel_svd(_projector(a, sign)).sigma
        worst_kernel = max(worst_kernel, float(np.max(np.abs(psvd.svd.sigma - reference))))
        lead, _, single = ssvd.columns()
        sig = ssvd.sigma[lead]
        signs = ssvd.t[single, single].real
        expected = np.concatenate(
            [(sig + 1.0 / sig) / 2.0, np.zeros(lead.size), np.where(signs == sign, 1.0, 0.0)]
        )
        worst_pattern = max(
            worst_pattern,
            float(np.max(np.abs(np.sort(psvd.svd.sigma) - np.sort(expected)))),
        )
    # worked 2x2 value: (2 + 1/2)/2 = 5/4, exact to 1e-12
    ssvd2 = restructure(np.array([[0.0, 2.0], [0.5, 0.0]]), SC.INVOLUTORY)
    five_fourth = float(projector_svd(ssvd2, 1).svd.sigma[0])
    ok = worst_kernel <= 1e-9 and worst_pattern <= 1e-9 and abs(five_fourth - 1.25) <= 1e-12
    _report(
        "projector SVD reproduction",
        ok,
        f"max |Sigma_B - kernel svd(B)| = {worst_kernel:.3e}, "
        f"max pattern defect = {worst_pattern:.3e} (limits 1e-09), "
        f"worked value {five_fourth!r} vs 5/4 (limit 1e-12)",
    )


def test_criterion_worked_examples(tmp_path, capsys):
    import json

    from involsvd.cli import main as cli_main
    from involsvd.mmio import write_matrix

    def decompose(matrix, name):
        path = tmp_path / name
        write_matrix(path, matrix)
        code = cli_main(["decompose", "--class", "involutory", str(path)])
        report = json.loads(capsys.readouterr().out)
        return code, report

    code4, rep4 = decompose(example1_matrix(), "swap4.mtx")
    signs4 = sorted(
        b["sign"] for b in rep4["blocks"] if b["kind"] == "single_one"
    )
    ok4 = code4 == 0 and rep4["sigma"] == [1.0] * 4 and signs4 == [-1, 1, 1, 1]

    code3, rep3 = decompose(np.diag([1.0, -1.0, -1.0]), "diag3.mtx")
    signs3 = sorted(
        b["sign"] for b in rep3["blocks"] if b["kind"] == "single_one"
    )
    ok3 = code3 == 0 and rep3["sigma"] == [1.0] * 3 and signs3 == [-1, -1, 1]
    with capsys.disabled():
        _report(
            "worked unit-spectrum examples via decompose",
            ok4 and ok3,
            f"4x4 swap-block matrix signs {signs4} (want [-1,1,1,1]); "
            f"diag(1,-1,-1) signs {signs3} (want [-1,-1,1])",
        )


def test_criterion_consimilarity(corpus):
    worst_id = 0.0
    for a, _, ssvd in corpus["data"][SC.CONINVOLUTORY]:
        s = consim_to_identity(ssvd)
        worst_id = max(
            worst_id,
            consimilarity_residual(a, s) / max(1.0, float(np.linalg.cond(s))),
        )
    worst_j = 0.0
    for a, _, ssvd in corpus["data"][SC.SKEW_CONINVOLUTORY]:
        z = consim_to_minusJ(ssvd)
        worst_j = max(
            worst_j, minusj_residual(a, z) / max(1.0, float(np.linalg.cond(z)))
        )
    ok = worst_id <= 1e-8 and worst_j <= 1e-8
    _report(
        "consimilarity to the identity and to -J",
        ok,
        f"max ||A - S conj(S)^-1|| / cond(S) = {worst_id:.3e}, "
        f"max ||A + conj(Z) J Z^-1|| / cond(Z) = {worst_j:.3e} (limits 1e-08)",
    )


def test_criterion_coneigenvectors(corpus):
    worst = 0.0
    total = 0
    for a, _, ssvd in corpus["data"][SC.CONINVOLUTORY]:
        n = ssvd.dim
        for q, lam in coneigen_singles(ssvd):
            total += 1
            assert lam == 1.0
            worst = max(worst, float(np.linalg.norm(a @ q.conj() - q)) / n)
    _report(
        "coneigenvalue property of unit singles",
        worst <= 1e-9,
        f"max ||A conj(q) - q|| / n = {worst:.3e} (limit 1e-09) over {total} columns",
    )


def test_criterion_odd_dimension_rejection():
    rng = np.random.default_rng(99)
    checked = 0
    ok = True
    for n in (1, 3, 5, 7, 9):
        candidates = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            np.eye(n, dtype=complex),
            1j * np.eye(n),
        ]
        if n >= 3:
            # embed an even-dimensional skew-coninvolutory block: the best
            # possible odd-n impostor still must be rejected
            m = np.eye(n, dtype=complex)
            m[: n - 1, : n - 1] = -j_matrix((n - 1) // 2)
            candidates.append(m)
        for a in candidates:
            checked += 1
            report = classify(a, tol=1e6)  # tolerance cannot rescue odd n
            ok = ok and SC.SKEW_CONINVOLUTORY not in report.accepted
    _report(
        "odd-dimension rejection for skew-coninvolutory",
        ok,
        f"{checked} odd-dimension candidates rejected regardless of residual",
    )
