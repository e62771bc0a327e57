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
    WrongClassError,
    extract_T,
    gen_consim,
    gen_structured,
    householder_singular_values,
    paired_one_display,
    pairing_spectrum_check,
    projector_svd,
    read_matrix,
    restructure,
    write_values,
)
from involsvd.kernel import as_matrix, as_square_matrix
from involsvd.projector import projector
from involsvd.structured_svd import layout_svd

SC = StructureClass
REAL = "%%MatrixMarket matrix array real general\n"


def signed_singles():
    """Involutory diag(1, -1, 1, -1): two singles of each sign, mu up to 2."""
    return restructure(np.diag([1.0, -1.0, 1.0, -1.0]), SC.INVOLUTORY)


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


REFUSALS = [
    case(lambda: as_matrix(np.zeros(3)), DimensionError,
         "expected a 2-d matrix, got shape (3,)", "kernel-not-2d"),
    case(lambda: as_square_matrix(np.zeros((0, 0))), DimensionError,
         "matrix must be at least 1x1", "kernel-empty"),
    case(lambda: layout_svd(SC.SKEW_CONINVOLUTORY, np.eye(2), [], [1.0, 1.0]),
         InvalidInputError, "skew-coninvolutory coupling has no singles",
         "layout-skew-coninvolutory-singles"),
    case(lambda: pairing_spectrum_check([1.0, 0.0]), InvalidInputError,
         "singular values must be positive and finite", "spectrum-zero"),
    case(lambda: pairing_spectrum_check([np.nan, 1.0]), InvalidInputError,
         "singular values must be positive and finite", "spectrum-nan"),
    case(lambda: pairing_spectrum_check([0.5, 2.0]), InvalidInputError,
         "singular values must be non-increasing", "spectrum-increasing"),
    case(lambda: extract_T(np.eye(2), np.eye(3), SC.INVOLUTORY), DimensionError,
         "factor shapes differ: (2, 2) vs (3, 3)", "extract-shapes"),
    case(lambda: extract_T([[1.0, 1.0], [0.0, 0.0]], np.eye(2), SC.INVOLUTORY), CouplingError,
         "coupling matrix is not a generalized permutation", "extract-two-in-a-row"),
    case(lambda: extract_T([[1.0, 0.0], [1.0, 0.0]], np.eye(2), SC.INVOLUTORY), CouplingError,
         "coupling matrix is not a generalized permutation", "extract-two-in-a-column"),
    case(lambda: paired_one_display(paired_one_display(signed_singles(), 1)),
         WrongClassError, "input already carries paired ones", "paired-one-twice"),
    case(lambda: paired_one_display(signed_singles(), 3), InvalidInputError,
         "mu must lie in [0, 2], got 3", "paired-one-mu-range"),
    case(lambda: projector(np.eye(2), 0), InvalidInputError,
         "sign must be +1 or -1, got 0", "projector-sign"),
    case(lambda: projector_svd(signed_singles(), 2), InvalidInputError,
         "sign must be +1 or -1, got 2", "projector-svd-sign"),
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
    case(lambda: gen_structured(SC.CONINVOLUTORY, GeneratorSpec(n=2, eta1=2, phases=(0.1,))),
         InvalidSpecError, "expected 2 phases, got 1", "spec-phase-count"),
    case(lambda: gen_structured(SC.INVOLUTORY, GeneratorSpec(n=2, eta1=2), transform=np.eye(3)),
         InvalidSpecError, "transform is 3x3, spec wants n=2", "generator-transform"),
    case(lambda: gen_consim(SC.CONINVOLUTORY, 0), InvalidSpecError,
         "dimension must be positive, got 0", "consim-dimension"),
    case(lambda: gen_consim(SC.CONINVOLUTORY, 2, transform=np.eye(3)), InvalidSpecError,
         "transform is 3x3, expected n=2", "consim-transform"),
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
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal(tmp_path, monkeypatch, call, error, message):
    monkeypatch.chdir(tmp_path)  # the Matrix Market cases write their files here
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
