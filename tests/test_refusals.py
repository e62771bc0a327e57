"""Every input check of the library refuses with its own error type and message.

One case per check; the CLI's refusals are in test_cli.py.
"""

import numpy as np
import pytest

from involsvd import (
    CouplingError,
    DimensionError,
    GeneratorSpec,
    InvalidInputError,
    InvalidSpecError,
    MatrixFormatError,
    NumericalError,
    StructureClass,
    StructureViolationError,
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
    extract_T,
    gen_consim,
    gen_structured,
    householder_singular_values,
    idempotency_residual,
    minusj_residual,
    paired_one_display,
    pairing_spectrum_check,
    projector_svd,
    read_matrix,
    reconstruction_residual,
    restructure,
    svd,
    write_matrix,
    write_values,
)
from involsvd.kernel import as_matrix, as_square_matrix
from involsvd.projector import projector
from involsvd.structured_svd import layout_svd

SC = StructureClass
REAL = "%%MatrixMarket matrix array real general\n"
STRINGS = [["0", "1"], ["1", "0"]]  # an involutory matrix, were its entries numbers
NAN = [[np.nan, 0.0], [0.0, 1.0]]
RAGGED = [[1.0, 2.0], [3.0]]


def signed_singles():
    """Involutory diag(1, -1, 1, -1): two singles of each sign, mu up to 2."""
    return restructure(np.diag([1.0, -1.0, 1.0, -1.0]), SC.INVOLUTORY)


def coninvolutory_identity():
    """restructure of I as a coninvolutory matrix: two phase-free singles."""
    return restructure(np.eye(2), SC.CONINVOLUTORY)


def skew_coninvolutory_j():
    """restructure of J(1) = [[0, 1], [-1, 0]]: one sigma = 1 pair."""
    return restructure([[0.0, 1.0], [-1.0, 0.0]], SC.SKEW_CONINVOLUTORY)


def read(text):
    """A call that reads ``text`` as a Matrix Market file."""
    def call():
        with open("m.mtx", "w", encoding="ascii") as handle:
            handle.write(text)
        return read_matrix("m.mtx")
    return call


def case(call, error, message, id):
    """``call()`` raises exactly ``error`` with ``message``."""
    return pytest.param(call, error, message, id=id)


def ragged(call, id):
    """``call`` refuses a matrix whose rows differ in length before numpy can."""
    return case(call, DimensionError, "matrix rows differ in length", f"ragged-{id}")


def mismatched(call, id):
    """``call`` refuses a 3 x 3 matrix checked against 2 x 2 factors before numpy can."""
    return case(call, DimensionError, "matrix and factor shapes differ: (3, 3) vs (2, 2)",
                f"size-{id}")


REFUSALS = [
    case(lambda: as_matrix(np.zeros(3)), DimensionError,
         "expected a 2-d matrix, got shape (3,)", "kernel-not-2d"),
    case(lambda: as_square_matrix(np.zeros((0, 0))), DimensionError,
         "matrix must be at least 1x1", "kernel-empty"),
    # only integer, real and complex entries are numbers; a str, bool or object
    # entry is refused before any conversion could read it as one
    case(lambda: restructure(STRINGS, SC.INVOLUTORY), InvalidInputError,
         "matrix entries must be numbers, got dtype <U1", "matrix-str-restructure"),
    case(lambda: svd(STRINGS), InvalidInputError,
         "matrix entries must be numbers, got dtype <U1", "matrix-str-svd"),
    case(lambda: extract_T(STRINGS, np.eye(2), SC.INVOLUTORY), InvalidInputError,
         "matrix entries must be numbers, got dtype <U1", "matrix-str-extract"),
    case(lambda: householder_singular_values(STRINGS), InvalidInputError,
         "matrix entries must be numbers, got dtype <U1", "matrix-str-householder"),
    case(lambda: write_matrix("m.mtx", STRINGS), InvalidInputError,
         "matrix entries must be numbers, got dtype <U1", "matrix-str-write"),
    case(lambda: classify([["abc"]]), InvalidInputError,
         "matrix entries must be numbers, got dtype <U3", "matrix-str-classify"),
    case(lambda: classify(np.array([[1.0]], dtype=object)), InvalidInputError,
         "matrix entries must be numbers, got dtype object", "matrix-object"),
    case(lambda: classify([[None]]), InvalidInputError,
         "matrix entries must be numbers, got dtype object", "matrix-none"),
    case(lambda: classify([[True]]), InvalidInputError,
         "matrix entries must be numbers, got dtype bool", "matrix-bool"),
    case(lambda: reconstruction_residual(NAN, restructure(np.eye(2), SC.INVOLUTORY)),
         InvalidInputError, "matrix entries must be finite", "residual-reconstruction"),
    case(lambda: canonical_residual(STRINGS, canonical_form(signed_singles())),
         InvalidInputError, "matrix entries must be numbers, got dtype <U1",
         "residual-canonical"),
    case(lambda: eigen_residual(NAN, eigendecompose(restructure(np.eye(2), SC.INVOLUTORY))),
         InvalidInputError, "matrix entries must be finite", "residual-eigen"),
    case(lambda: consimilarity_residual(NAN, consim_to_identity(coninvolutory_identity())),
         InvalidInputError, "matrix entries must be finite", "residual-consimilarity"),
    case(lambda: minusj_residual(STRINGS, consim_to_minusJ(skew_coninvolutory_j())),
         InvalidInputError, "matrix entries must be numbers, got dtype <U1",
         "residual-minus-j"),
    case(lambda: idempotency_residual(NAN), InvalidInputError,
         "matrix entries must be finite", "residual-idempotency"),
    ragged(lambda: classify(RAGGED), "classify"),
    ragged(lambda: restructure(RAGGED, SC.INVOLUTORY), "restructure"),
    ragged(lambda: svd(RAGGED), "svd"),
    ragged(lambda: extract_T(RAGGED, np.eye(2), SC.INVOLUTORY), "extract-u"),
    ragged(lambda: extract_T(np.eye(2), RAGGED, SC.INVOLUTORY), "extract-v"),
    ragged(lambda: householder_singular_values(RAGGED), "householder"),
    ragged(lambda: projector(RAGGED, 1), "projector"),
    ragged(lambda: write_matrix("m.mtx", RAGGED), "write"),
    ragged(lambda: idempotency_residual(RAGGED), "idempotency"),
    case(lambda: pairing_spectrum_check([[1.0], [2.0, 3.0]]), DimensionError,
         "expected a vector or one column, got ragged rows", "ragged-spectrum"),
    mismatched(lambda: reconstruction_residual(np.eye(3), restructure(np.eye(2), SC.INVOLUTORY)),
               "reconstruction"),
    mismatched(lambda: canonical_residual(np.eye(3), canonical_form(restructure(
        np.eye(2), SC.INVOLUTORY))), "canonical"),
    mismatched(lambda: eigen_residual(np.eye(3), eigendecompose(restructure(
        np.eye(2), SC.INVOLUTORY))), "eigen"),
    mismatched(lambda: consimilarity_residual(np.eye(3), consim_to_identity(
        coninvolutory_identity())), "consimilarity"),
    mismatched(lambda: minusj_residual(np.eye(3), consim_to_minusJ(skew_coninvolutory_j())),
               "minus-j"),
    case(lambda: layout_svd(SC.SKEW_CONINVOLUTORY, np.eye(2), [], [1.0, 1.0]),
         InvalidInputError, "skew-coninvolutory coupling has no singles",
         "layout-skew-coninvolutory-singles"),
    case(lambda: pairing_spectrum_check([1.0, 0.0]), InvalidInputError,
         "singular values must be positive and finite", "spectrum-zero"),
    case(lambda: pairing_spectrum_check([np.nan, 1.0]), InvalidInputError,
         "singular values must be positive and finite", "spectrum-nan"),
    case(lambda: pairing_spectrum_check([0.5, 2.0]), InvalidInputError,
         "singular values must be non-increasing", "spectrum-increasing"),
    case(lambda: pairing_spectrum_check(np.array([[2.0, 1.0], [1.0, 0.5]])), DimensionError,
         "expected a vector or one column, got shape (2, 2)", "spectrum-2d"),
    case(lambda: pairing_spectrum_check(1.0), DimensionError,
         "expected a vector or one column, got shape ()", "spectrum-float"),
    case(lambda: pairing_spectrum_check(np.array(1.0)), DimensionError,
         "expected a vector or one column, got shape ()", "spectrum-0d"),
    case(lambda: pairing_spectrum_check([2 + 0j, 0.5]), InvalidInputError,
         "singular value (2+0j) is not a real number", "spectrum-complex"),
    case(lambda: pairing_spectrum_check(["2", "0.5"]), InvalidInputError,
         "singular value '2' is not a real number", "spectrum-str"),
    case(lambda: pairing_spectrum_check([True, True]), InvalidInputError,
         "singular value True is not a real number", "spectrum-bool"),
    case(lambda: restructure(np.eye(2), "involutory"), InvalidInputError,
         "structure must be a StructureClass, got 'involutory'", "restructure-structure-str"),
    # I: ||A conj(A) + I||_F = 2 sqrt(n) over max(1, ||A||_F^2) = n; only in odd
    # dimension does the refusal add that no tol admits the class
    case(lambda: restructure(np.eye(2), SC.SKEW_CONINVOLUTORY), StructureViolationError,
         "matrix is not skew-coninvolutory at tolerance 1e-10 (residual 1.414e+00)",
         "restructure-gate"),
    case(lambda: restructure(np.eye(3), SC.SKEW_CONINVOLUTORY), StructureViolationError,
         "matrix is not skew-coninvolutory at tolerance 1e-10 (residual 1.155e+00); "
         "skew-coninvolutory matrices exist only for even dimension", "restructure-gate-odd"),
    case(lambda: restructure(np.eye(3), SC.SKEW_CONINVOLUTORY, 10.0), StructureViolationError,
         "matrix is not skew-coninvolutory at tolerance 10 (residual 1.155e+00); "
         "skew-coninvolutory matrices exist only for even dimension",
         "restructure-gate-odd-loose-tol"),
    case(lambda: extract_T(np.eye(2), np.eye(2), "involutory"), InvalidInputError,
         "structure must be a StructureClass, got 'involutory'", "extract-structure-str"),
    case(lambda: extract_T(np.eye(2), np.eye(3), SC.INVOLUTORY), DimensionError,
         "factor shapes differ: (2, 2) vs (3, 3)", "extract-shapes"),
    case(lambda: extract_T([[1.0, 1.0], [0.0, 0.0]], np.eye(2), SC.INVOLUTORY), CouplingError,
         "coupling matrix is not a generalized permutation", "extract-two-in-a-row"),
    case(lambda: extract_T([[1.0, 0.0], [1.0, 0.0]], np.eye(2), SC.INVOLUTORY), CouplingError,
         "coupling matrix is not a generalized permutation", "extract-two-in-a-column"),
    case(lambda: paired_one_display(paired_one_display(signed_singles())),
         WrongClassError, "input already carries paired ones", "paired-one-twice"),
    case(lambda: paired_one_display(coninvolutory_identity()), WrongClassError,
         "paired_one_display needs involutory, got coninvolutory", "paired-one-class"),
    case(lambda: eigendecompose(coninvolutory_identity()), WrongClassError,
         "eigendecompose needs an involutory class, got coninvolutory", "eigen-class"),
    case(lambda: consim_to_identity(signed_singles()), WrongClassError,
         "consim_to_identity needs coninvolutory, got involutory", "consim-identity-class"),
    case(lambda: consim_to_minusJ(signed_singles()), WrongClassError,
         "consim_to_minusJ needs skew-coninvolutory, got involutory", "consim-minus-j-class"),
    case(lambda: coneigen_singles(signed_singles()), WrongClassError,
         "coneigen_singles needs coninvolutory, got involutory", "coneigen-class"),
    case(lambda: projector_svd(coninvolutory_identity(), 1), WrongClassError,
         "projector_svd needs an involutory matrix, got coninvolutory", "projector-svd-class"),
    # diag(1, 2): ||A^2 - I||_F = 3 over ||A||_F^2 = 5
    case(lambda: projector(np.diag([1.0, 2.0]), 1), StructureViolationError,
         "matrix is not involutory at tolerance 1e-10 (residual 6.000e-01)", "projector-gate"),
    case(lambda: householder_singular_values(np.diag([1.0, 2.0])), StructureViolationError,
         "matrix is not involutory at tolerance 1e-10 (residual 6.000e-01)", "householder-gate"),
    case(lambda: projector(np.eye(2), 0), InvalidInputError,
         "sign must be +1 or -1, got 0", "projector-sign"),
    # True == 1, but a bool says nothing about which projector is meant
    case(lambda: projector(np.eye(2), True), InvalidInputError,
         "sign must be +1 or -1, got True", "projector-sign-bool"),
    case(lambda: projector(np.eye(2), np.True_), InvalidInputError,
         "sign must be +1 or -1, got np.True_", "projector-sign-numpy-bool"),
    case(lambda: projector_svd(signed_singles(), 2), InvalidInputError,
         "sign must be +1 or -1, got 2", "projector-svd-sign"),
    case(lambda: projector_svd(signed_singles(), True), InvalidInputError,
         "sign must be +1 or -1, got True", "projector-svd-sign-bool"),
    # 1.2 I passes the gate at tol 1 (residual 0.44 sqrt(3) / 4.32); its trace
    # 3.6 is no difference of +-1 eigenvalue counts
    case(lambda: householder_singular_values(1.2 * np.eye(3), 1.0), NumericalError,
         "trace (3.5999999999999996+0j) is not consistent with +-1 eigenvalues",
         "householder-trace"),
    case(lambda: gen_structured(SC.INVOLUTORY, GeneratorSpec(n=0)), InvalidSpecError,
         "dimension must be positive, got 0", "spec-dimension"),
    case(lambda: gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2.0, eta1=2)),
         InvalidSpecError, "n must be an integer, got 2.0", "spec-n-type"),
    case(lambda: gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2, nu=1.0, sigmas=(3.0,))),
         InvalidSpecError, "nu must be an integer, got 1.0", "spec-nu-type"),
    case(lambda: gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2, eta1=True, eta2=1)),
         InvalidSpecError, "eta1 must be an integer, got True", "spec-eta1-type"),
    case(lambda: gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2, eta1=1, eta2=np.float64(1))),
         InvalidSpecError, "eta2 must be an integer, got np.float64(1.0)", "spec-eta2-type"),
    case(lambda: gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2, eta1=2, seed=1.5)),
         InvalidSpecError, "seed must be an integer, got 1.5", "spec-seed-type"),
    case(lambda: gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2, eta1=3, eta2=-1)),
         InvalidSpecError, "counts must be nonnegative", "spec-negative-count"),
    case(lambda: gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2, nu=1)),
         InvalidSpecError, "expected 1 sigmas, got 0", "spec-sigma-count"),
    case(lambda: gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2, nu=1, sigmas=("3",))),
         InvalidSpecError, "sigma '3' is not a real number", "spec-sigma-type"),
    case(lambda: gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2, nu=1, sigmas=3.0)),
         InvalidSpecError, "sigmas must be a sequence of real numbers, got 3.0",
         "spec-sigmas-number"),
    case(lambda: gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2, nu=1, sigmas="3")),
         InvalidSpecError, "sigmas must be a sequence of real numbers, got '3'",
         "spec-sigmas-str"),
    case(lambda: gen_structured(SC.CONINVOLUTORY, GeneratorSpec(n=2, eta1=2, phases=(0.1,))),
         InvalidSpecError, "expected 2 phases, got 1", "spec-phase-count"),
    case(lambda: gen_structured(SC.CONINVOLUTORY, GeneratorSpec(n=2, eta1=2, phases=(0.0, "a"))),
         InvalidSpecError, "phase 'a' is not a real number", "spec-phase-type"),
    case(lambda: gen_structured(SC.CONINVOLUTORY, GeneratorSpec(n=2, eta1=2, phases=0.5)),
         InvalidSpecError, "phases must be a sequence of real numbers, got 0.5",
         "spec-phases-number"),
    case(lambda: gen_structured("involutory", GeneratorSpec(n=2, eta1=2)), InvalidInputError,
         "structure must be a StructureClass, got 'involutory'", "spec-structure-str"),
    case(lambda: gen_consim(SC.CONINVOLUTORY, 0), InvalidSpecError,
         "dimension must be positive, got 0", "consim-dimension"),
    case(lambda: gen_consim(SC.CONINVOLUTORY, 2.0), InvalidSpecError,
         "n must be an integer, got 2.0", "consim-n-type"),
    case(lambda: gen_consim(SC.CONINVOLUTORY, 2, 1.5), InvalidSpecError,
         "seed must be an integer, got 1.5", "consim-seed-type"),
    case(lambda: gen_consim(SC.CONINVOLUTORY, 2, True), InvalidSpecError,
         "seed must be an integer, got True", "consim-seed-bool"),
    case(lambda: gen_consim("coninvolutory", 2), InvalidInputError,
         "structure must be a StructureClass, got 'coninvolutory'", "consim-structure-str"),
    case(read("\n  \n"), MatrixFormatError, "empty file", "mmio-empty"),
    case(read("%%MatrixMarket matrix array real\n1 1\n1\n"), MatrixFormatError,
         "line 1: expected '%%MatrixMarket matrix array <field> general'", "mmio-header"),
    case(read("%%MatrixMarket matrix array pattern general\n1 1\n1\n"), MatrixFormatError,
         "line 1: unsupported field 'pattern'", "mmio-field"),
    case(read("%%MatrixMarket matrix array real symmetric\n1 1\n1\n"), MatrixFormatError,
         "line 1: unsupported symmetry 'symmetric' (need 'general')", "mmio-symmetry"),
    case(read(REAL + "1 1 1\n1\n"), MatrixFormatError,
         "line 2: expected 'rows cols', got '1 1 1'", "mmio-size-tokens"),
    case(read(REAL + "1 x\n1\n"), MatrixFormatError,
         "line 2: non-integer dimensions '1 x'", "mmio-size-integer"),
    case(read(REAL + "0 1\n"), MatrixFormatError,
         "line 2: dimensions must be positive, got 0 x 1", "mmio-size-positive"),
    case(read(REAL + "1 1\n1 2\n"), MatrixFormatError,
         "line 3: expected 1 number(s) per entry, got '1 2'", "mmio-entry-width"),
    case(read(REAL + "% only a comment\n"), MatrixFormatError,
         "missing size line", "mmio-no-size"),
    case(lambda: write_values("s.txt", [1.0, np.inf]), InvalidInputError,
         "values must be finite", "mmio-write-non-finite"),
    case(lambda: write_values("s.txt", ["1", "2"]), InvalidInputError,
         "value '1' is not a real number", "mmio-write-str"),
    case(lambda: write_values("s.txt", [True]), InvalidInputError,
         "value True is not a real number", "mmio-write-bool"),
    case(lambda: write_values("s.txt", [1.0, 2j]), InvalidInputError,
         "value 2j is not a real number", "mmio-write-complex"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal(tmp_path, monkeypatch, call, error, message):
    monkeypatch.chdir(tmp_path)  # the Matrix Market cases write their files here
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
