"""Matrix Market dense-array file I/O.

One interchange format: ``matrix array complex general``, entries listed
column-major, one ``real imag`` pair per line.  Real and integer typed files
are promoted to complex on read; an integer file takes only integers, and no
file takes a digit separator ``_``.  Each entry line is judged and parsed
once, where it is read (its width, then a ``_`` or a token ``float()`` cannot
read, then integer syntax in an integer file), and the first bad one is
refused by its line number and reason.  The matrix read is returned in C
order, the one layout the library works in (see :mod:`involsvd.kernel`), so
no public call copies it again.  The writer formats one column at a time,
with Python's shortest-round-trip repr, so read(write(m)) reproduces m
bit-exactly for finite doubles.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import InvalidInputError, MatrixFormatError
from .kernel import as_matrix
from .structures import _check_reals

_HEADER = "%%MatrixMarket"
_INTEGER = re.compile(r"[+-]?[0-9]+")


def read_matrix(path) -> np.ndarray:
    """Parse a Matrix Market array file into a C-ordered complex128 matrix."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        lines = raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        # lines counted as splitlines() counts them for every other error
        lineno = len((raw[: exc.start].decode("ascii") + "?").splitlines())
        raise MatrixFormatError(
            f"line {lineno}: non-ASCII byte {raw[exc.start]:#04x}", line=lineno
        ) from None

    numbered = enumerate(lines, start=1)  # one pass: the header, the size line, the entries
    for lineno, text in numbered:
        if text.strip():
            break
    else:
        raise MatrixFormatError("empty file", line=1)
    tokens = text.split()
    if len(tokens) != 5 or tokens[0] != _HEADER:
        raise MatrixFormatError(
            f"line {lineno}: expected '%%MatrixMarket matrix array <field> general'",
            line=lineno,
        )
    _, obj, fmt, field, symmetry = (tok.lower() for tok in tokens)
    if obj != "matrix" or fmt != "array":
        raise MatrixFormatError(
            f"line {lineno}: unsupported layout '{obj} {fmt}' (need 'matrix array')",
            line=lineno,
        )
    if field not in ("complex", "real", "integer"):
        raise MatrixFormatError(f"line {lineno}: unsupported field '{field}'", line=lineno)
    if symmetry != "general":
        raise MatrixFormatError(
            f"line {lineno}: unsupported symmetry '{symmetry}' (need 'general')",
            line=lineno,
        )

    for lineno, text in numbered:  # the size line: the first neither blank nor a comment
        parts = text.split()
        if parts and not parts[0].startswith("%"):
            break
    else:
        raise MatrixFormatError("missing size line", line=len(lines) or 1)
    text = text.strip()
    if len(parts) != 2:
        raise MatrixFormatError(f"line {lineno}: expected 'rows cols', got {text!r}", line=lineno)
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixFormatError(
            f"line {lineno}: non-integer dimensions {text!r}", line=lineno
        ) from None
    if rows < 1 or cols < 1:
        raise MatrixFormatError(
            f"line {lineno}: dimensions must be positive, got {rows} x {cols}", line=lineno
        )

    values: list = []
    per_entry = 2 if field == "complex" else 1
    for lineno, text in numbered:
        parts = text.split()
        try:  # the width, then a "_" (float() reads "1_0" as 10) or a token float() cannot read
            if len(parts) != per_entry or "_" in text:
                raise ValueError
            for token in parts:
                values.append(float(token))
        except ValueError:
            if not parts or parts[0].startswith("%"):
                continue  # a blank line or a comment: each fails above, float() reads no "%"
            if len(parts) != per_entry:
                reason = f"expected {per_entry} number(s) per entry, got {text.strip()!r}"
            else:
                reason = f"cannot parse entry {text.strip()!r}"
            raise MatrixFormatError(f"line {lineno}: {reason}", line=lineno) from None
        # then integer syntax: float() reads "1.5" and "1e3" too
        if field == "integer" and not _INTEGER.fullmatch(parts[0]):
            raise MatrixFormatError(
                f"line {lineno}: non-integer entry {text.strip()!r} in an integer file",
                line=lineno,
            )

    expected = rows * cols
    found = len(values) // per_entry
    if found < expected:
        raise MatrixFormatError(
            f"file ends after {found} of {expected} entries "
            f"(entry {found + 1} missing)",
            line=len(lines),
        )
    if found > expected:
        raise MatrixFormatError(
            f"file has {found} entries, expected {expected}", line=len(lines)
        )
    flat = np.array(values)
    if field == "complex":
        flat = flat.view(np.complex128)  # (real, imag) pairs, signed zeros kept
    # entries are column-major; one copy converts them and lays them out in C order
    matrix = flat.reshape((cols, rows)).T.astype(np.complex128, order="C")
    if not np.isfinite(matrix).all():
        raise InvalidInputError(f"matrix in {path} contains non-finite entries")
    return matrix


def write_matrix(path, m) -> None:
    """Write a matrix as Matrix Market 'array complex general', one column at a time."""
    m = as_matrix(m)
    rows, cols = m.shape
    entries = "%r %r\n" * rows
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{_HEADER} matrix array complex general\n{rows} {cols}\n")
        for column in m.T:  # column-major; each entry's real and imaginary parts side by side
            handle.write(entries % tuple(np.ascontiguousarray(column).view(np.float64).tolist()))


def write_values(path, values) -> None:
    """One shortest-round-trip decimal per line (sigma files)."""
    _check_reals("value", values, InvalidInputError)
    values = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("values must be finite")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(repr(float(v)) for v in values) + "\n")
