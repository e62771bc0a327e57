"""Structure classes, classification, and generator specifications.

The four classes share one identity, ``A A* = omega^2 I``, and one coupling
law, ``U = V* T``.  Both the star and omega belong to :class:`StructureClass`:
:meth:`StructureClass.star` gives ``x*`` (conj(x) in the coninvolutory
classes, x in the others), :meth:`StructureClass.star_h` its conjugate
transpose ``(x*)^H``, and :attr:`StructureClass.omega` is 1 or 1j (skew
classes):

* involutory           A @ A = I
* skew-involutory      A @ A = -I
* coninvolutory        A @ A.conj() = I
* skew-coninvolutory   A @ A.conj() = -I   (exists only in even dimension)

Every sign the pairing laws put on the coupling matrix T follows from omega.
A matrix may satisfy several identities at once (every real involutory
matrix is also coninvolutory), so classification reports all residuals and
the full accepted set.  :func:`class_gate` owns ``tol``: it refuses a bool, a
non-number and a NaN, infinite or negative one, and ``tol`` gates the class and nothing else.
Refusals: ``_admit`` owns the gate's, ``_require`` a wrong class's, ``_check_*`` the arguments'.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, StructureViolationError, WrongClassError
from .kernel import _frobenius, _residual_scale, as_square_matrix

CONDITIONING_CAP = 1e6  # the generator's largest sigma
DEFAULT_TOL = 1e-10  # the one default tol: the library's functions and the CLI's --tol
RECONSTRUCTION_LIMIT = 1e-6  # restructure refuses a result that reconstructs A worse
_ODD_SKEW_CON = "skew-coninvolutory matrices exist only for even dimension"  # gate, generator


class StructureClass(enum.Enum):
    INVOLUTORY = "involutory"
    SKEW_INVOLUTORY = "skew-involutory"
    CONINVOLUTORY = "coninvolutory"
    SKEW_CONINVOLUTORY = "skew-coninvolutory"

    def __init__(self, value: str):
        # plain attributes: the pipeline reads them many times per call
        self.is_con = value.endswith("coninvolutory")  # coupled through conjugation
        self.omega = 1j if value.startswith("skew") else 1  # A A* = omega^2 I

    def star(self, x: np.ndarray) -> np.ndarray:
        """``x*`` in ``A A* = omega^2 I`` and ``U = V* T``: conj(x) in the con classes, else x."""
        return x.conj() if self.is_con else x

    def star_h(self, x: np.ndarray) -> np.ndarray:
        """``(x*)^H``, as in ``M = (Q*)^H A Q``: x^T in the con classes, else conj(x)^T."""
        return x.T if self.is_con else x.conj().T

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ClassificationReport:
    """Per-class structure residuals and the accepted class set."""

    residuals: Mapping[StructureClass, float]
    accepted: frozenset
    tol: float


def _check_size(n: int, seed: int, **counts) -> None:
    """The generators' rule: n, the counts and seed are integers, n >= 1 and seed >= 0."""
    for field, value in dict(n=n, **counts, seed=seed).items():  # a bool is an int to isinstance
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidSpecError(f"{field} must be an integer, got {value!r}")
    if n < 1:
        raise InvalidSpecError(f"dimension must be positive, got {n}")
    if seed < 0:
        raise InvalidSpecError(f"seed must be nonnegative, got {seed}")


def _check_reals(what: str, values, error) -> None:
    """Raise ``error`` unless ``values`` is a sequence, not a string, of real numbers, no bool."""
    if not isinstance(values, (list, tuple)) and np.ndim(values) != 1:  # a str has ndim 0
        raise error(f"{what}s must be a sequence of real numbers, got {values!r}")
    for x in values:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise error(f"{what} {x!r} is not a real number")


def _check_tol(tol: float) -> None:
    if (type(tol) is not float and (isinstance(tol, bool) or not isinstance(tol, numbers.Real))
            or not 0.0 <= tol < math.inf):
        raise InvalidInputError(f"tol must be finite and >= 0, got {tol!r}")


def _check_structure(structure) -> None:
    if not isinstance(structure, StructureClass):
        raise InvalidInputError(f"structure must be a StructureClass, got {structure!r}")


def _require(structure: StructureClass, classes, what: str) -> None:
    """Raise :class:`WrongClassError` ``"<what>, got <class>"`` unless structure is in classes."""
    if structure not in classes:
        raise WrongClassError(f"{what}, got {structure.value}")


def class_gate(a: np.ndarray, structure: StructureClass, tol: float) -> Tuple[float, float, bool]:
    """One class's absolute defect, residual, and whether it is accepted at tol.

    ``a`` is a square matrix already checked by :func:`as_square_matrix`.
    The defect is the Frobenius norm ``||A A* - omega^2 I||_F`` of the class's
    identity, the residual that defect relative to the squared scale
    ``max(1, ||a||_F)^2``, the square of ``kernel._residual_scale``.  It is accepted when the
    residual is at most tol; skew-coninvolutory is never accepted in odd dimension
    (det(A @ A.conj()) = |det A|^2 >= 0 rules out -I there).  A bool, a
    non-number, or a NaN, infinite or negative tol, or a structure that is not a
    :class:`StructureClass` raises :class:`InvalidInputError`, and so does a matrix whose
    ``||A||_F^2`` (refused by ``_residual_scale``) or defect overflows: its residual, 0 or
    inf, would not read the class.

    A class and its skew partner differ in ``A A*`` by 2 I, so a member's
    residual in the partner class is about ``2 sqrt(n) / ||a||_F^2`` and
    passes tol 1e-10 once ``||a||_F`` reaches a few 1e5: the involutory n = 2
    member at sigma 1e6 has residuals 9.6e-17 and 2.8e-12 (skew-involutory).
    The CLI's ``auto`` picks the class of least residual, the true one; a
    request for the partner class is accepted.
    """
    _check_tol(tol)
    _check_structure(structure)
    n = a.shape[0]
    scale = _residual_scale(a) ** 2  # refused before A A* is formed; its square is finite
    prod = a @ structure.star(a)
    prod.reshape(-1)[:: n + 1] -= (structure.omega ** 2).real
    defect = _frobenius(prod)
    if not math.isfinite(defect):
        raise InvalidInputError(
            f"matrix too large for the class gate: its {structure} defect overflows")
    residual = defect / scale
    odd_skew_con = structure is StructureClass.SKEW_CONINVOLUTORY and n % 2 != 0
    return defect, residual, residual <= tol and not odd_skew_con


def _admit(a: np.ndarray, structure: StructureClass, tol: float) -> float:
    """:func:`class_gate`'s defect, or its refusal: a :class:`StructureViolationError` with
    the residual, and in odd dimension, for skew-coninvolutory, why no tol admits it."""
    defect, residual, accepted = class_gate(a, structure, tol)
    if not accepted:
        message = f"matrix is not {structure} at tolerance {tol:g} (residual {residual:.3e})"
        if structure is StructureClass.SKEW_CONINVOLUTORY and a.shape[0] % 2:
            message += f"; {_ODD_SKEW_CON}"
        raise StructureViolationError(message, residual=residual)
    return defect


def classify(a, tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Measure all four structure residuals of a square matrix: :func:`class_gate` per class."""
    a = as_square_matrix(a)
    gates = {c: class_gate(a, c, tol) for c in StructureClass}
    return ClassificationReport(
        residuals={c: r for c, (_, r, _) in gates.items()},
        accepted=frozenset(c for c, (_, _, ok) in gates.items() if ok),
        tol=tol,
    )


@dataclass(frozen=True)
class GeneratorSpec:
    """Prescription for a random structured matrix with known ground truth.

    ``nu`` reciprocal pairs with the given ``sigmas``, plus ``eta1`` single
    unit triplets of sign +1 (phase 0 for coninvolutory) and ``eta2`` of
    sign -1 (phase pi).  ``phases`` optionally overrides the coninvolutory
    single phases.  No sigma may exceed :data:`CONDITIONING_CAP`.
    """

    n: int
    nu: int = 0
    sigmas: Tuple[float, ...] = ()
    eta1: int = 0
    eta2: int = 0
    phases: Optional[Tuple[float, ...]] = None
    seed: int = 0

    def validate(self, structure: StructureClass) -> None:
        _check_structure(structure)
        _check_size(self.n, self.seed, nu=self.nu, eta1=self.eta1, eta2=self.eta2)
        if self.nu < 0 or self.eta1 < 0 or self.eta2 < 0:
            raise InvalidSpecError("counts must be nonnegative")
        if 2 * self.nu + self.eta1 + self.eta2 != self.n:
            raise InvalidSpecError(
                f"2*nu + eta1 + eta2 = {2 * self.nu + self.eta1 + self.eta2} != n = {self.n}"
            )
        _check_reals("sigma", self.sigmas, InvalidSpecError)
        if len(self.sigmas) != self.nu:
            raise InvalidSpecError(
                f"expected {self.nu} sigmas, got {len(self.sigmas)}"
            )
        floor = 1.0 if structure is StructureClass.SKEW_CONINVOLUTORY else 1.0 + 1e-12
        for s in self.sigmas:
            if not np.isfinite(s) or s < floor:
                raise InvalidSpecError(f"sigma {s} out of range (must be >= {floor!r})")
            if s > CONDITIONING_CAP:
                raise InvalidSpecError(f"sigma {s} exceeds conditioning cap {CONDITIONING_CAP}")
        # without singles 2 nu = n, so this also refuses an odd skew-coninvolutory n
        if structure is StructureClass.SKEW_CONINVOLUTORY and (self.eta1 or self.eta2):
            raise InvalidSpecError("skew-coninvolutory matrices have no single unit triplets")
        if self.phases is not None:
            if structure is not StructureClass.CONINVOLUTORY:
                raise InvalidSpecError("phases apply to coninvolutory singles only")
            _check_reals("phase", self.phases, InvalidSpecError)
            if len(self.phases) != self.eta1 + self.eta2:
                raise InvalidSpecError(
                    f"expected {self.eta1 + self.eta2} phases, got {len(self.phases)}"
                )
            for p in self.phases:
                if not np.isfinite(p):
                    raise InvalidSpecError(f"phase {p} is not finite")
