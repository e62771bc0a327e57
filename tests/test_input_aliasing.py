"""Entry points take complex128 arrays without copying them, so none may
write into its argument or hand back an array that shares memory with it.
Their results do not depend on the memory layout of the input either: C
order, Fortran order and a strided view give the same counts and T, and
values and residuals equal to rounding."""

import dataclasses

import numpy as np
import pytest

from involsvd import (
    GeneratorSpec,
    StructureClass,
    canonical_residual,
    canonical_form,
    classify,
    consim_to_identity,
    consim_to_minusJ,
    consimilarity_residual,
    coupling_residual,
    eigen_residual,
    eigendecompose,
    extract_T,
    gen_structured,
    haar_unitary,
    householder_singular_values,
    minusj_residual,
    projector,
    projector_svd,
    reconstruction_residual,
    restructure,
    svd,
)
from involsvd.kernel import (
    hermitian_eig,
    qr_column_pivoted,
    skew_pair_unitary,
    takagi_symmetric_unitary,
)
from involsvd.structures import class_gate
from helpers import j_matrix, random_spec

SC = StructureClass
ORDERS = ["C", "F", "strided"]  # "strided": every other row and column of a larger array


def arrays_in(result):
    """Every ndarray reachable from a result: tuples, lists, dicts and
    dataclass fields, recursively."""
    if isinstance(result, np.ndarray):
        yield result
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from arrays_in(item)
    elif isinstance(result, dict):
        for item in result.values():
            yield from arrays_in(item)
    elif dataclasses.is_dataclass(result) and not isinstance(result, type):
        for f in dataclasses.fields(result):
            yield from arrays_in(getattr(result, f.name))


def laid_out(a, order):
    """``a`` as a complex128 array in C or F order, or as a strided view that is neither."""
    if order != "strided":
        out = np.asarray(a, dtype=np.complex128, order=order)
        assert out.flags[f"{order}_CONTIGUOUS"]
        return out
    rows, cols = np.shape(a)
    big = np.zeros((2 * rows, 2 * cols), dtype=np.complex128)
    big[::2, ::2] = a
    out = big[::2, ::2]
    assert not out.flags.c_contiguous and not out.flags.f_contiguous
    return out


def call_leaves_input_alone(func, matrices, *rest, order):
    """Call ``func(*matrices, *rest)`` with the matrices as complex128 arrays
    in the given memory layout, then check that they are unchanged and share
    no memory with the result."""
    inputs = [laid_out(a, order) for a in matrices]
    before = [a.copy() for a in inputs]
    result = func(*inputs, *rest)
    for a, kept in zip(inputs, before):
        assert a.tobytes() == kept.tobytes()  # both in C order
        for out in arrays_in(result):
            assert not np.shares_memory(out, a)
    return result


def member(structure):
    """A class member with pairs and singles (unit pairs in the
    skew-coninvolutory class, which has no singles)."""
    if structure is SC.SKEW_CONINVOLUTORY:
        spec = GeneratorSpec(n=6, nu=3, sigmas=(40.0, 3.0, 1.0), seed=5)
    else:
        phases = (0.3, 2.0, 4.0) if structure is SC.CONINVOLUTORY else None
        spec = GeneratorSpec(n=7, nu=2, sigmas=(40.0, 3.0), eta1=2, eta2=1, phases=phases,
                             seed=5)
    return gen_structured(structure, spec)[0]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("structure", list(SC))
def test_restructure_and_extract_t(structure, order):
    a = member(structure)
    ssvd = call_leaves_input_alone(restructure, [a], structure, order=order)
    call_leaves_input_alone(extract_T, [ssvd.u, ssvd.v], structure, order=order)


@pytest.mark.parametrize("order", ORDERS)
def test_classify_and_class_gate(order):
    a = member(SC.INVOLUTORY)
    call_leaves_input_alone(classify, [a], order=order)
    for structure in SC:
        call_leaves_input_alone(class_gate, [a], structure, 1e-10, order=order)


@pytest.mark.parametrize("order", ORDERS)
def test_kernels(order):
    rng = np.random.default_rng(8)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    q = haar_unitary(6, rng)
    call_leaves_input_alone(svd, [z], order=order)
    call_leaves_input_alone(hermitian_eig, [z + z.conj().T], order=order)
    call_leaves_input_alone(takagi_symmetric_unitary, [q @ q.T], order=order)
    call_leaves_input_alone(skew_pair_unitary, [q @ j_matrix(3) @ q.T], order=order)
    call_leaves_input_alone(qr_column_pivoted, [z[:, :4] @ z[:4, :]], 1e-10, order=order)


@pytest.mark.parametrize("order", ORDERS)
def test_projector_and_oracle(order):
    a = member(SC.INVOLUTORY)
    for sign in (1, -1):
        call_leaves_input_alone(projector, [a], sign, order=order)
    # B is shifted on its diagonal in place, whatever the memory order of A
    vals = call_leaves_input_alone(householder_singular_values, [a], order=order)
    assert np.allclose(vals, np.linalg.svd(a, compute_uv=False), rtol=1e-12, atol=0)


# ---------------------------------------------------------------- layout independence
# Equal to rounding, not bitwise: LAPACK and BLAS may round a transposed or
# strided operand differently in the last bits.


def inputs_of(structure):
    """The member above and two random ones with n up to 24 (phases in the
    coninvolutory class)."""
    rng = np.random.default_rng(sum(structure.value.encode()))
    out = [member(structure)]
    for _ in range(2):
        spec = random_spec(structure, rng, n_max=24, sigma_cap=1e3, with_phases=True)
        out.append(gen_structured(structure, spec)[0])
    return out


def close(x, y, scale=1.0):
    return np.max(np.abs(np.asarray(x) - np.asarray(y)), initial=0.0) <= 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("structure", list(SC))
def test_structured_svd_does_not_depend_on_layout(structure):
    for a in inputs_of(structure):
        runs = [restructure(laid_out(a, order), structure) for order in ORDERS]
        first = runs[0]
        for order, ssvd in zip(ORDERS, runs):
            assert ssvd.counts == first.counts
            assert np.array_equal(ssvd.t, first.t)
            assert close(ssvd.sigma, first.sigma, first.sigma.max())
            assert reconstruction_residual(laid_out(a, order), ssvd) <= 1e-12
            assert coupling_residual(ssvd) <= 1e-12
            t = extract_T(laid_out(ssvd.u, order), laid_out(ssvd.v, order), structure)
            assert np.array_equal(t, first.t)
            form = canonical_form(ssvd)
            assert canonical_residual(laid_out(a, order), form) <= 1e-12


@pytest.mark.parametrize("structure", list(SC))
def test_transforms_do_not_depend_on_layout(structure):
    # each residual scaled as the CLI report scales it, by n ||A|| and the factor's size
    for a in inputs_of(structure):
        scale = 1e-12 * a.shape[0] * max(1.0, float(np.linalg.norm(a)))
        eigenvalues = None
        for order in ORDERS:
            x = laid_out(a, order)
            ssvd = restructure(x, structure)
            if structure in (SC.INVOLUTORY, SC.SKEW_INVOLUTORY):
                eig = eigendecompose(ssvd)
                eigenvalues = eig.eigenvalues if eigenvalues is None else eigenvalues
                assert np.array_equal(eig.eigenvalues, eigenvalues)
                assert eigen_residual(x, eig) <= scale * max(1.0, float(np.linalg.norm(eig.x)))
            elif structure is SC.CONINVOLUTORY:
                s = consim_to_identity(ssvd)
                assert consimilarity_residual(x, s) <= scale * float(np.linalg.cond(s))
            else:
                z = consim_to_minusJ(ssvd)
                assert minusj_residual(x, z) <= scale * float(np.linalg.cond(z))


def test_gates_and_oracle_do_not_depend_on_layout():
    for structure in SC:
        for a in inputs_of(structure):
            reports = [classify(laid_out(a, order)) for order in ORDERS]
            for order, report in zip(ORDERS, reports):
                assert report.accepted == reports[0].accepted
                for c in SC:
                    assert close(report.residuals[c], reports[0].residuals[c])
                    gate = class_gate(laid_out(a, order), c, 1e-10)
                    assert close(gate[1], report.residuals[c]) and gate[2] == (c in report.accepted)
    for a in inputs_of(SC.INVOLUTORY):
        reference = np.linalg.svd(a, compute_uv=False)
        for order in ORDERS:
            x = laid_out(a, order)
            assert close(householder_singular_values(x), reference, reference[0])
            ssvd = restructure(x, SC.INVOLUTORY)
            for sign in (1, -1):
                psvd = projector_svd(ssvd, sign).svd
                b = projector(x, sign)
                assert close(psvd.sigma, np.linalg.svd(b, compute_uv=False), psvd.sigma[0])
                assert reconstruction_residual(b, psvd) <= 1e-12


@pytest.mark.parametrize("order", ORDERS)
def test_cluster_kernels_do_not_depend_on_layout(order):
    rng = np.random.default_rng(9)
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    q = haar_unitary(8, rng)
    h, sym, skew = z + z.conj().T, q @ q.T, q @ j_matrix(4) @ q.T
    w, lam = hermitian_eig(laid_out(h, order))
    assert close(lam, hermitian_eig(h)[1], float(np.abs(lam).max()))
    assert close((w * lam) @ w.conj().T, h, float(np.abs(lam).max()))
    f = takagi_symmetric_unitary(laid_out(sym, order))
    assert close(f @ f.T, sym) and close(f.conj().T @ f, np.eye(8))
    g = skew_pair_unitary(laid_out(skew, order))
    assert close(g @ j_matrix(4) @ g.T, skew) and close(g.conj().T @ g, np.eye(8))
