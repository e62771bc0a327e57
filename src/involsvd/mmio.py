"""Matrix Market dense-array file I/O.

One interchange format: ``matrix array complex general``, entries listed
column-major, one ``real imag`` pair per line.  Real and integer typed files
are promoted to complex on read; an integer file takes only integers, and no
file takes a digit separator ``_``.  Each entry line is judged once, as it
is read, and the first bad one is refused by its line number.  The matrix
read is returned in C order, the one layout the library works in (see
:mod:`involsvd.kernel`), so no public call copies it again.  Floats are
written with Python's shortest-round-trip repr, so read(write(m)) reproduces
m bit-exactly for finite doubles.
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

    header = None
    body_start = 0
    for lineno, text in enumerate(lines, start=1):
        if text.strip():
            header = (lineno, text.strip())
            body_start = lineno
            break
    if header is None:
        raise MatrixFormatError("empty file", line=1)
    lineno, text = header
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

    shape = None
    tokens: list = []
    entry_lines: list = []
    per_entry = 2 if field == "complex" else 1
    integer = field == "integer"
    bad = None  # the first entry line found wrong: width, "_" or (integer file) syntax
    for lineno, text in enumerate(lines[body_start:], start=body_start + 1):
        parts = text.split()
        if not parts or parts[0].startswith("%"):
            continue
        if shape is None:
            text = text.strip()
            if len(parts) != 2:
                raise MatrixFormatError(
                    f"line {lineno}: expected 'rows cols', got {text!r}", line=lineno
                )
            try:
                rows, cols = int(parts[0]), int(parts[1])
            except ValueError:
                raise MatrixFormatError(
                    f"line {lineno}: non-integer dimensions {text!r}", line=lineno
                ) from None
            if rows < 1 or cols < 1:
                raise MatrixFormatError(
                    f"line {lineno}: dimensions must be positive, got {rows} x {cols}",
                    line=lineno,
                )
            shape = (rows, cols)
            continue
        # float() reads "1_0" as 10, and "1.5" in an integer file would be taken
        if (len(parts) != per_entry or "_" in text
                or (integer and not _INTEGER.fullmatch(parts[0]))):
            bad = lineno
            break
        tokens.extend(parts)
        entry_lines.append(lineno)
    try:
        flat = np.array(tokens, dtype=np.float64)
    except ValueError:  # numpy reads each token alone: an earlier line failed, and wins
        bad = next(n for n in entry_lines if not _parses(lines[n - 1]))
    if bad is not None:
        text = lines[bad - 1].strip()
        if len(text.split()) != per_entry:
            reason = f"expected {per_entry} number(s) per entry, got {text!r}"
        elif "_" in text or not _parses(text):
            reason = f"cannot parse entry {text!r}"
        else:
            reason = f"non-integer entry {text!r} in an integer file"
        raise MatrixFormatError(f"line {bad}: {reason}", line=bad)

    if shape is None:
        raise MatrixFormatError("missing size line", line=len(lines) or 1)
    rows, cols = shape
    expected = rows * cols
    found = len(entry_lines)
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
    if field == "complex":
        flat = flat.view(np.complex128)  # (real, imag) pairs, signed zeros kept
    # entries are column-major; one copy converts them and lays them out in C order
    matrix = flat.reshape((cols, rows)).T.astype(np.complex128, order="C")
    if not np.isfinite(matrix).all():
        raise InvalidInputError(f"matrix in {path} contains non-finite entries")
    return matrix


def _parses(text: str) -> bool:
    """Whether numpy reads every token of the line ``text`` as a float."""
    try:
        np.array(text.split(), dtype=np.float64)
    except ValueError:
        return False
    return True


def write_matrix(path, m) -> None:
    """Write a matrix as Matrix Market 'array complex general'."""
    m = as_matrix(m)
    rows, cols = m.shape
    lines = [f"{_HEADER} matrix array complex general", f"{rows} {cols}"]
    flat = m.T.ravel()  # column-major
    pairs = zip(flat.real.tolist(), flat.imag.tolist())
    lines.extend(f"{re!r} {im!r}" for re, im in pairs)
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def write_values(path, values) -> None:
    """One shortest-round-trip decimal per line (sigma files)."""
    _check_reals("value", values, InvalidInputError)
    values = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("values must be finite")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(repr(float(v)) for v in values) + "\n")
