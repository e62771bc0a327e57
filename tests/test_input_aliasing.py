"""Entry points take C-ordered complex128 arrays without copying them, so none
may write into its argument or hand back an array that shares memory with it.
Their results do not depend on the memory layout of the input either: a
Fortran-ordered or strided input is copied into C order once, so it gives
results bitwise equal to the C-ordered one's.  And every array a public
function returns is C-contiguous, whatever the shape of the class's layout."""

import dataclasses
import inspect

import numpy as np
import pytest

import involsvd
from involsvd import (
    GeneratorSpec,
    StructureClass,
    canonical_residual,
    canonical_form,
    classify,
    coneigen_singles,
    consim_to_identity,
    consim_to_minusJ,
    consimilarity_residual,
    coupling_residual,
    eigen_residual,
    eigendecompose,
    extract_T,
    gen_consim,
    gen_structured,
    haar_unitary,
    householder_singular_values,
    idempotency_residual,
    minusj_residual,
    paired_one_display,
    pairing_spectrum_check,
    projector,
    projector_svd,
    read_matrix,
    reconstruction_residual,
    restructure,
    svd,
    write_matrix,
    write_values,
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


def leaves(result):
    """Every value reachable from a result through tuples, lists, dicts and
    dataclass fields, recursively."""
    if isinstance(result, (tuple, list)):
        for item in result:
            yield from leaves(item)
    elif isinstance(result, dict):
        for item in result.values():
            yield from leaves(item)
    elif dataclasses.is_dataclass(result) and not isinstance(result, type):
        for f in dataclasses.fields(result):
            yield from leaves(getattr(result, f.name))
    else:
        yield result


def arrays_in(result):
    """Every ndarray reachable from a result."""
    return (x for x in leaves(result) if isinstance(x, np.ndarray))


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


def member_spec(structure):
    """A class member with pairs and singles (unit pairs in the
    skew-coninvolutory class, which has no singles)."""
    if structure is SC.SKEW_CONINVOLUTORY:
        return GeneratorSpec(n=6, nu=3, sigmas=(40.0, 3.0, 1.0), seed=5)
    phases = (0.3, 2.0, 4.0) if structure is SC.CONINVOLUTORY else None
    return GeneratorSpec(n=7, nu=2, sigmas=(40.0, 3.0), eta1=2, eta2=1, phases=phases, seed=5)


def member(structure):
    return gen_structured(structure, member_spec(structure))[0]


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
    # B is shifted on its diagonal in place, in an array of its own
    vals = call_leaves_input_alone(householder_singular_values, [a], order=order)
    assert np.allclose(vals, np.linalg.svd(a, compute_uv=False), rtol=1e-12, atol=0)


# ---------------------------------------------------------------- layout independence
# Bitwise: every entry point reads its matrices through as_matrix, which hands
# the library C order, so no BLAS or LAPACK call sees the caller's layout.


# members on which a Fortran-ordered input once moved the last bits of the
# oracle's values (involutory) and of minusj_residual (skew-coninvolutory)
LAYOUT_SPECS = {
    SC.INVOLUTORY: GeneratorSpec(n=9, nu=0, eta1=8, eta2=1, seed=1856814679),
    SC.SKEW_CONINVOLUTORY: GeneratorSpec(n=4, nu=2, sigmas=(1.0, 1.0), seed=262864338),
}


def inputs_of(structure):
    """The member above, five random ones with n up to 24 (phases in the
    coninvolutory class) and the class's member of LAYOUT_SPECS."""
    rng = np.random.default_rng(sum(structure.value.encode()))
    specs = [random_spec(structure, rng, n_max=24, sigma_cap=1e3, with_phases=True)
             for _ in range(5)]
    specs += [LAYOUT_SPECS[structure]] if structure in LAYOUT_SPECS else []
    return [member(structure)] + [gen_structured(structure, spec)[0] for spec in specs]


def as_bytes(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def bits(result):
    """The leaves of a result, each array and number as its dtype, shape and
    bytes: equal only where the values are bitwise equal (signed zeros too)."""
    numbers = (np.ndarray, np.generic, float, complex)
    return [as_bytes(x) if isinstance(x, numbers) else x for x in leaves(result)]


def same_for_every_layout(compute):
    """``compute(lay)``, where ``lay(x)`` lays x out in one order of ORDERS,
    gives bitwise the C-ordered result in every order; returns that result."""
    runs = [compute(lambda x, order=order: laid_out(x, order)) for order in ORDERS]
    for order, run in zip(ORDERS[1:], runs[1:]):
        assert bits(run) == bits(runs[0]), order
    return runs[0]


def close(x, y, scale=1.0):
    return np.max(np.abs(np.asarray(x) - np.asarray(y)), initial=0.0) <= 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("structure", list(SC))
def test_structured_svd_does_not_depend_on_layout(structure):
    def compute(lay):
        ssvd = restructure(lay(a), structure)
        form = canonical_form(ssvd)
        return (ssvd, extract_T(lay(ssvd.u), lay(ssvd.v), structure),
                reconstruction_residual(lay(a), ssvd), coupling_residual(ssvd),
                form, canonical_residual(lay(a), form))

    for a in inputs_of(structure):
        ssvd, t, reconstruction, coupling, _, canonical = same_for_every_layout(compute)
        assert np.array_equal(t, ssvd.t)
        assert max(reconstruction, coupling, canonical) <= 1e-12


@pytest.mark.parametrize("structure", list(SC))
def test_transforms_do_not_depend_on_layout(structure):
    def compute(lay):
        x = lay(a)
        ssvd = restructure(x, structure)
        if structure in (SC.INVOLUTORY, SC.SKEW_INVOLUTORY):
            eig = eigendecompose(ssvd)
            return eig, eigen_residual(x, eig)
        if structure is SC.CONINVOLUTORY:
            s = consim_to_identity(ssvd)
            return s, consimilarity_residual(x, s)
        z = consim_to_minusJ(ssvd)
        return z, minusj_residual(x, z)

    # each residual scaled as the CLI report scales it, by n ||A|| and the factor's size
    for a in inputs_of(structure):
        made, residual = same_for_every_layout(compute)
        scale = 1e-12 * a.shape[0] * max(1.0, float(np.linalg.norm(a)))
        if structure in (SC.INVOLUTORY, SC.SKEW_INVOLUTORY):
            assert residual <= scale * max(1.0, float(np.linalg.norm(made.x)))
        else:
            assert residual <= scale * float(np.linalg.cond(made))


def test_gates_and_oracle_do_not_depend_on_layout():
    def gates(lay):
        report = classify(lay(a))
        return report.accepted, report.residuals, [class_gate(lay(a), c, 1e-10) for c in SC]

    def oracle(lay):
        x = lay(a)
        ssvd = restructure(x, SC.INVOLUTORY)
        projectors = []
        for sign in (1, -1):
            b, psvd = projector(x, sign), projector_svd(ssvd, sign).svd
            projectors.append((b, psvd, reconstruction_residual(b, psvd)))
        return householder_singular_values(x), projectors

    for structure in SC:
        for a in inputs_of(structure):
            accepted, residuals, gated = same_for_every_layout(gates)
            for c, gate in zip(SC, gated):
                assert close(gate[1], residuals[c]) and gate[2] == (c in accepted)
    for a in inputs_of(SC.INVOLUTORY):
        vals, projectors = same_for_every_layout(oracle)
        reference = np.linalg.svd(a, compute_uv=False)
        assert close(vals, reference, reference[0])
        for b, psvd, reconstruction in projectors:
            assert close(psvd.sigma, np.linalg.svd(b, compute_uv=False), psvd.sigma[0])
            assert reconstruction <= 1e-12


# The cluster kernels take M as built, C-ordered by the resolver, so on other
# layouts they agree only to rounding.
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


# ---------------------------------------------------------------- one layout out
# kernel.svd hands on LAPACK's V in C order and every result is built from C
# operands, so a product a caller forms with any result rounds the same way
# whatever the shape of the layout.


def layout_specs(structure, shape):
    """Members of the class whose layout holds pairs only, singles only (unit
    pairs only in the skew-coninvolutory class, which has no singles), or both:
    n from 2 to 16, one pair among many singles included."""
    if shape == "pairs":
        return [GeneratorSpec(n=2, nu=1, sigmas=(40.0,), seed=5),
                GeneratorSpec(n=6, nu=3, sigmas=(40.0, 3.0, 1.5), seed=5)]
    if structure is SC.SKEW_CONINVOLUTORY:
        if shape == "singles":
            return [GeneratorSpec(n=6, nu=3, sigmas=(1.0, 1.0, 1.0), seed=5)]
        return [member_spec(structure), GeneratorSpec(n=4, nu=2, sigmas=(3.0, 1.0), seed=5)]
    con = structure is SC.CONINVOLUTORY

    def mixed(n, nu, sigmas, eta1, eta2):
        phases = tuple(np.linspace(0.3, 6.0, eta1 + eta2)) if con else None
        return GeneratorSpec(n=n, nu=nu, sigmas=sigmas, eta1=eta1, eta2=eta2, phases=phases,
                             seed=5)

    if shape == "singles":
        return [mixed(5, 0, (), 3, 2)]
    return [member_spec(structure), mixed(5, 1, (40.0,), 2, 1), mixed(16, 1, (3.0,), 4, 10)]


def public_calls(structure, a, path):
    """Every function of the package, as a call on the class member a (or on
    what restructure makes of it), or None where it does not take the class."""
    ssvd, n = restructure(a, structure), a.shape[0]
    form, sigma = canonical_form(ssvd), svd(a).sigma

    def only(classes, call):
        return call if structure in classes else None

    inv, con, skew_con = (SC.INVOLUTORY,), (SC.CONINVOLUTORY,), (SC.SKEW_CONINVOLUTORY,)
    involutory = inv + (SC.SKEW_INVOLUTORY,)
    return {
        "canonical_form": lambda: form,
        "canonical_residual": lambda: canonical_residual(a, form),
        "classify": lambda: classify(a),
        "coneigen_singles": only(con, lambda: coneigen_singles(ssvd)),
        "consim_to_identity": only(con, lambda: consim_to_identity(ssvd)),
        "consim_to_minusJ": only(skew_con, lambda: consim_to_minusJ(ssvd)),
        "consimilarity_residual": only(
            con, lambda: consimilarity_residual(a, consim_to_identity(ssvd))),
        "coupling_residual": lambda: coupling_residual(ssvd),
        "eigen_residual": only(involutory, lambda: eigen_residual(a, eigendecompose(ssvd))),
        "eigendecompose": only(involutory, lambda: eigendecompose(ssvd)),
        "extract_T": lambda: extract_T(ssvd.u, ssvd.v, structure),
        "gen_consim": only(con + skew_con, lambda: gen_consim(structure, n, seed=2)),
        "gen_structured": lambda: gen_structured(structure, layout_specs(structure, "pairs")[1]),
        "haar_unitary": lambda: haar_unitary(n, np.random.default_rng(2)),
        "householder_singular_values": only(inv, lambda: householder_singular_values(a)),
        "idempotency_residual": only(inv, lambda: idempotency_residual(projector(a, 1))),
        "minusj_residual": only(skew_con, lambda: minusj_residual(a, consim_to_minusJ(ssvd))),
        "paired_one_display": only(inv, lambda: paired_one_display(ssvd)),
        "pairing_spectrum_check": lambda: pairing_spectrum_check(sigma),
        "projector": only(inv, lambda: [projector(a, s) for s in (1, -1)]),
        "projector_svd": only(inv, lambda: [projector_svd(ssvd, s) for s in (1, -1)]),
        "read_matrix": lambda: (write_matrix(path, a), read_matrix(path)),
        "reconstruction_residual": lambda: reconstruction_residual(a, ssvd),
        "restructure": lambda: ssvd,
        "svd": lambda: svd(a),
        "write_matrix": lambda: write_matrix(path, a),
        "write_values": lambda: write_values(path, sigma),
    }


@pytest.mark.parametrize("shape", ["pairs", "singles", "both"])
@pytest.mark.parametrize("structure", list(SC))
def test_every_returned_array_is_c_contiguous(structure, shape, tmp_path):
    public = {name for name in involsvd.__all__ if inspect.isfunction(getattr(involsvd, name))}
    for spec in layout_specs(structure, shape):
        calls = public_calls(structure, gen_structured(structure, spec)[0], tmp_path / "a.mtx")
        assert set(calls) == public
        not_c = sorted(name for name, call in calls.items() if call is not None
                       and not all(x.flags.c_contiguous for x in arrays_in(call())))
        assert not_c == [], spec
