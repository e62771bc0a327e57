"""Structure classes, classification, and generator specifications.

The four classes are defined by a single quadratic identity each:

* involutory           A @ A = I
* skew-involutory      A @ A = -I
* coninvolutory        A @ A.conj() = I
* skew-coninvolutory   A @ A.conj() = -I   (exists only in even dimension)

A matrix may satisfy several identities at once (every real involutory
matrix is also coninvolutory), so classification reports all residuals and
the full accepted set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import numpy as np

from .errors import InvalidSpecError
from .kernel import as_square_matrix


class StructureClass(enum.Enum):
    INVOLUTORY = "involutory"
    SKEW_INVOLUTORY = "skew-involutory"
    CONINVOLUTORY = "coninvolutory"
    SKEW_CONINVOLUTORY = "skew-coninvolutory"

    def __str__(self) -> str:
        return self.value

    @property
    def is_con(self) -> bool:
        """True for the classes coupled through conjugation."""
        return self in (StructureClass.CONINVOLUTORY, StructureClass.SKEW_CONINVOLUTORY)

    @property
    def is_skew(self) -> bool:
        return self in (StructureClass.SKEW_INVOLUTORY, StructureClass.SKEW_CONINVOLUTORY)


@dataclass(frozen=True)
class ClassificationReport:
    """Per-class structure residuals and the accepted class set."""

    residuals: Mapping[StructureClass, float]
    accepted: frozenset
    tol: float


def class_gate(a: np.ndarray, structure: StructureClass, tol: float) -> Tuple[float, bool]:
    """One class's residual, and whether it is accepted at tol.

    ``a`` is a square matrix already checked by :func:`as_square_matrix`.
    The residual is the Frobenius norm of the class's identity defect,
    relative to the squared scale ``max(1, ||a||_F^2)``.  It is accepted
    when at most tol; skew-coninvolutory is never accepted in odd dimension
    (det(A @ A.conj()) = |det A|^2 >= 0 rules out -I there).
    """
    n = a.shape[0]
    prod = a @ (a.conj() if structure.is_con else a)
    eye = np.eye(n)
    defect = prod + eye if structure.is_skew else prod - eye
    residual = float(np.linalg.norm(defect)) / max(1.0, float(np.linalg.norm(a)) ** 2)
    odd_skew_con = structure is StructureClass.SKEW_CONINVOLUTORY and n % 2 != 0
    return residual, residual <= tol and not odd_skew_con


def classify(a, tol: float = 1e-10) -> ClassificationReport:
    """Measure all four structure residuals of a square matrix, see :func:`class_gate`."""
    a = as_square_matrix(a)
    gates = {c: class_gate(a, c, tol) for c in StructureClass}
    return ClassificationReport(
        residuals={c: r for c, (r, _) in gates.items()},
        accepted=frozenset(c for c, (_, ok) in gates.items() if ok),
        tol=tol,
    )


@dataclass(frozen=True)
class GeneratorSpec:
    """Prescription for a random structured matrix with known ground truth.

    ``nu`` reciprocal pairs with the given ``sigmas``, plus ``eta1`` single
    unit triplets of sign +1 (phase 0 for coninvolutory) and ``eta2`` of
    sign -1 (phase pi).  ``phases`` optionally overrides the coninvolutory
    single phases.  ``conditioning`` caps the largest singular value.
    """

    n: int
    nu: int = 0
    sigmas: Tuple[float, ...] = ()
    eta1: int = 0
    eta2: int = 0
    phases: Optional[Tuple[float, ...]] = None
    seed: int = 0
    conditioning: float = 1e6

    def validate(self, structure: StructureClass) -> None:
        if self.n < 1:
            raise InvalidSpecError(f"dimension must be positive, got {self.n}")
        if self.nu < 0 or self.eta1 < 0 or self.eta2 < 0:
            raise InvalidSpecError("counts must be nonnegative")
        if 2 * self.nu + self.eta1 + self.eta2 != self.n:
            raise InvalidSpecError(
                f"2*nu + eta1 + eta2 = {2 * self.nu + self.eta1 + self.eta2} != n = {self.n}"
            )
        if len(self.sigmas) != self.nu:
            raise InvalidSpecError(
                f"expected {self.nu} sigmas, got {len(self.sigmas)}"
            )
        floor = 1.0 if structure is StructureClass.SKEW_CONINVOLUTORY else 1.0 + 1e-12
        for s in self.sigmas:
            if not np.isfinite(s) or s < floor:
                raise InvalidSpecError(f"sigma {s} out of range (must be > 1)")
            if s > self.conditioning:
                raise InvalidSpecError(
                    f"sigma {s} exceeds conditioning cap {self.conditioning}"
                )
        if structure is StructureClass.SKEW_CONINVOLUTORY:
            if self.eta1 != 0 or self.eta2 != 0:
                raise InvalidSpecError(
                    "skew-coninvolutory matrices have no single unit triplets"
                )
            if self.n % 2 != 0:
                raise InvalidSpecError(
                    "skew-coninvolutory matrices exist only in even dimension"
                )
        if self.phases is not None:
            if structure is not StructureClass.CONINVOLUTORY:
                raise InvalidSpecError("phases apply to coninvolutory singles only")
            if len(self.phases) != self.eta1 + self.eta2:
                raise InvalidSpecError(
                    f"expected {self.eta1 + self.eta2} phases, got {len(self.phases)}"
                )
            for p in self.phases:
                if not np.isfinite(p):
                    raise InvalidSpecError(f"phase {p} is not finite")

    def single_phases(self) -> np.ndarray:
        """Coninvolutory single phases: explicit list, or 0s then pis."""
        if self.phases is not None:
            return np.asarray(self.phases, dtype=np.float64)
        return np.concatenate([np.zeros(self.eta1), np.full(self.eta2, np.pi)])

    def single_signs(self) -> np.ndarray:
        """Involutory single signs: +1 block first, then -1 block."""
        return np.concatenate([np.ones(self.eta1), -np.ones(self.eta2)])
