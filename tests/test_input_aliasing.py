"""Entry points take complex128 arrays without copying them, so none may
write into its argument or hand back an array that shares memory with it."""

import dataclasses

import numpy as np
import pytest

from involsvd import (
    GeneratorSpec,
    StructureClass,
    classify,
    extract_T,
    gen_structured,
    haar_unitary,
    householder_singular_values,
    projector,
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
from helpers import j_matrix

SC = StructureClass
ORDERS = ["C", "F"]


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


def call_leaves_input_alone(func, matrices, *rest, order):
    """Call ``func(*matrices, *rest)`` with the matrices as complex128 arrays
    in the given memory order, then check that they are unchanged and share
    no memory with the result."""
    inputs = [np.asarray(a, dtype=np.complex128, order=order) for a in matrices]
    for a in inputs:
        assert a.flags[f"{order}_CONTIGUOUS"]
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
