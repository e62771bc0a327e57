"""Matrix Market array I/O round-trips and diagnostics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involsvd import InvalidInputError, MatrixFormatError, read_matrix, write_matrix


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    m[0, 0] = np.pi + 1j / 3.0
    m[1, 0] = -0.0 + 0.0j
    m[2, 1] = 1e-308 - 1e300j
    m[3, 2] = 2**-52 + 0j
    path = tmp_path / "m.mtx"
    write_matrix(path, m)
    back = read_matrix(path)
    assert np.array_equal(back, m.astype(complex))


def test_round_trip_twice_is_stable(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    p1, p2 = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(p1, m)
    write_matrix(p2, read_matrix(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_real_file_promotes(tmp_path):
    path = tmp_path / "r.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "2 2\n1.5\n-2.0\n0.25\n4.0\n"
    )
    m = read_matrix(path)
    assert m.dtype == np.complex128
    assert np.array_equal(m, np.array([[1.5, 0.25], [-2.0, 4.0]], dtype=complex))


def test_column_major_order(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix array complex general\n"
        "2 2\n1 0\n2 0\n3 0\n4 0\n"
    )
    m = read_matrix(path)
    assert np.array_equal(m, np.array([[1.0, 3.0], [2.0, 4.0]], dtype=complex))


@pytest.mark.parametrize("field, entries", [("complex", "1 -1\n2 0\n3 0.5\n4 0\n5 0\n6 0"),
                                            ("real", "1\n2\n3\n4\n5\n6"),
                                            ("integer", "1\n2\n3\n4\n5\n6")],
                         ids=["complex", "real", "integer"])
def test_matrix_is_returned_in_c_order(tmp_path, field, entries):
    # the library works in C order, so no public call copies the matrix read again
    path = tmp_path / "c.mtx"
    path.write_text(f"%%MatrixMarket matrix array {field} general\n2 3\n{entries}\n")
    m = read_matrix(path)
    assert m.dtype == np.complex128 and m.flags.c_contiguous and m.flags.owndata
    assert np.array_equal(m.real, [[1, 3, 5], [2, 4, 6]])


def test_comments_skipped(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% a comment\n1 1\n% another\n7.0\n"
    )
    assert read_matrix(path)[0, 0] == 7.0


def test_truncated_names_missing_entry(tmp_path):
    path = tmp_path / "t.mtx"
    path.write_text(
        "%%MatrixMarket matrix array complex general\n2 2\n1 0\n2 0\n3 0\n"
    )
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert "entry 4" in str(err.value)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "p.mtx"
    path.write_text(
        "%%MatrixMarket matrix array complex general\n2 1\n1 0\nnot-a-number 0\n"
    )
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert err.value.line == 4


def test_non_ascii_byte_reports_line(tmp_path):
    path = tmp_path / "u.mtx"
    path.write_bytes(
        b"%%MatrixMarket matrix array real general\r\n% caf\xe9\r\n1 1\r\n7.0\r\n"
    )
    with pytest.raises(MatrixFormatError, match="line 2: non-ASCII byte 0xe9") as err:
        read_matrix(path)
    assert err.value.line == 2


def test_bad_header(tmp_path):
    path = tmp_path / "h.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n")
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


def test_too_many_entries(tmp_path):
    path = tmp_path / "x.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n1 1\n1.0\n2.0\n"
    )
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


def test_nan_rejected_on_read(tmp_path):
    path = tmp_path / "n.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n1 1\nnan\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert err.value.line == 3


@pytest.mark.parametrize("imag", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_imaginary_part_rejected_on_read(tmp_path, imag):
    """Refused at its own line, past comments and blank lines, in a complex
    and in a real file (float() reads all four, "1e400" as inf)."""
    files = {
        "c.mtx": ("%%MatrixMarket matrix array complex general\n% c\n1 2\n1.0 0.0\n"
                  f"% mid\n\n2.0 {imag}\n", 7, f"2.0 {imag}"),
        "r.mtx": (f"%%MatrixMarket matrix array real general\n2 1\n\n1.0\n{imag}\n", 5, imag),
    }
    for name, (text, line, entry) in files.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(path)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: non-finite entry {entry!r}"


def test_write_rejects_nan(tmp_path):
    m = np.array([[np.nan]])
    with pytest.raises(InvalidInputError):
        write_matrix(tmp_path / "w.mtx", m)


def test_parse_error_deep_in_large_file_reports_line(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "big.mtx"
    write_matrix(path, rng.standard_normal((100, 100)))
    lines = path.read_text().splitlines()
    lines[7345] = "0.5 1.2.3"  # line 7346, entry 7344
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert err.value.line == 7346
    assert "line 7346: cannot parse entry '0.5 1.2.3'" in str(err.value)


def test_round_trip_keeps_signed_zeros(tmp_path):
    m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 1.0]])
    path = tmp_path / "z.mtx"
    write_matrix(path, m)
    back = read_matrix(path)
    assert np.array_equal(np.signbit(back.real), np.signbit(m.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(m.imag))


@pytest.mark.parametrize("entry", ["1.5", "1e3", "2.", "0x10", "1_0"])
def test_integer_file_takes_only_integers(tmp_path, entry):
    # float() reads every one of these, "1_0" as 10
    path = tmp_path / "i.mtx"
    path.write_text(f"%%MatrixMarket matrix array integer general\n3 1\n-4\n+2\n{entry}\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert err.value.line == 5 and str(err.value).startswith("line 5: ")


def test_integer_file_reads_signed_integers(tmp_path):
    path = tmp_path / "i.mtx"
    path.write_text("%%MatrixMarket matrix array integer general\n2 2\n-4\n+2\n0\n12\n")
    assert np.array_equal(read_matrix(path), [[-4, 0], [2, 12]])


@pytest.mark.parametrize("field, entry", [("real", "1_000.5"), ("complex", "1.0 2_0"),
                                          ("real", "1_0")])
def test_digit_separators_are_refused(tmp_path, field, entry):
    # float() reads "1_000.5" as 1000.5 and "1_0" as 10
    path = tmp_path / "u.mtx"
    first = "0.5 0" if field == "complex" else "0.5"
    path.write_text(f"%%MatrixMarket matrix array {field} general\n2 1\n{first}\n{entry}\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert str(err.value) == f"line 4: cannot parse entry {entry!r}"


def test_underscore_in_a_comment_is_no_entry(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n% made_by_hand\n1 1\n2.5\n")
    assert np.array_equal(read_matrix(path), [[2.5]])


COMPLEX = "%%MatrixMarket matrix array complex general\n3 1\n"
INTEGER = "%%MatrixMarket matrix array integer general\n3 1\n"
FIRST_BAD = [  # (file, refusal) with two bad entry lines: the earlier one is named
    (COMPLEX + "1_0 0\nx 0\n1\n", "line 3: cannot parse entry '1_0 0'"),
    (COMPLEX + "1 0\nx 0\n1\n", "line 4: cannot parse entry 'x 0'"),
    (COMPLEX + "1 0\nx 0\n1_0 0\n", "line 4: cannot parse entry 'x 0'"),
    (COMPLEX + "1 0\n1\nx 0\n", "line 4: expected 2 number(s) per entry, got '1'"),
    (INTEGER + "1\nx\n1.5\n", "line 4: cannot parse entry 'x'"),
    (INTEGER + "1\n1.5\nx\n", "line 4: non-integer entry '1.5' in an integer file"),
    (INTEGER + "1\n1 2\n1.5\n", "line 4: expected 1 number(s) per entry, got '1 2'"),
]


def test_first_bad_entry_is_named(tmp_path):
    path = tmp_path / "b.mtx"
    for text, message in FIRST_BAD:
        path.write_text(text)
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(path)
        assert (str(err.value), err.value.line) == (message, int(message.split()[1][:-1])), text


def test_write_holds_one_column_at_a_time(tmp_path):
    # no list of every line and no joined file: at n = 200 these took 8.3 MiB
    rng = np.random.default_rng(9)
    m = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "m.mtx", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * m.nbytes


LINE_ENDS = [  # a matrix with a comment and a blank line, a bad entry, a missing entry
    "%%MatrixMarket matrix array complex general\n% note_1\n\n2 1\n1.5 -0.0\n-2 1e-300\n",
    "%%MatrixMarket matrix array integer general\n2 1\n7\n1.5\n",
    "%%MatrixMarket matrix array real general\n1 2\n1\n",
]


def _read_or_refusal(path):
    try:
        m = read_matrix(path)
    except MatrixFormatError as exc:
        return str(exc), exc.line
    return m.dtype, m.shape, m.tobytes()


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_read_alike(tmp_path, end):
    unix, other = tmp_path / "unix.mtx", tmp_path / "other.mtx"
    for text in LINE_ENDS:
        unix.write_bytes(text.encode("ascii"))
        other.write_bytes(text.replace("\n", end).encode("ascii"))
        assert _read_or_refusal(other) == _read_or_refusal(unix), text


def test_form_feed_breaks_an_entry_line(tmp_path):
    # as in str.splitlines, "1.0\x0c2.0" is two lines, so its first half is refused
    path = tmp_path / "f.mtx"
    path.write_bytes(b"%%MatrixMarket matrix array complex general\n1 1\n1.0\x0c2.0\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert (str(err.value), err.value.line) == (
        "line 3: expected 2 number(s) per entry, got '1.0'", 3)


# after the header, a blank line or a comment may stand anywhere, before the size line too
FILLERS = ["", "  \t", "%", "% a comment", "  % x_1 2.5", "%%MatrixMarket"]
NON_FINITE = ["nan", "inf", "-inf", "1e400"]


@st.composite
def matrix_market_files(draw, fields=("complex", "real", "integer"), poison=False):
    """A drawn matrix up to 4 x 4 as Matrix Market text with blank and comment lines
    between its lines and one line end throughout: (bytes, matrix, refusal or None).
    With ``poison``, one part of one entry is a token float() reads as non-finite,
    and the refusal names that entry's own line."""
    field = draw(st.sampled_from(fields))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    per_entry = 2 if field == "complex" else 1
    if field == "integer":
        number = st.integers(-10**6, 10**6).map(str)
    else:
        number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    entries = [draw(st.lists(number, min_size=per_entry, max_size=per_entry))
               for _ in range(rows * cols)]
    m = np.zeros((rows, cols), dtype=np.complex128)
    for k, entry in enumerate(entries):  # column-major
        m[k % rows, k // rows] = complex(*map(float, entry))
    refusal = None
    if poison:
        k = draw(st.integers(0, rows * cols - 1))
        entries[k][draw(st.integers(0, per_entry - 1))] = draw(st.sampled_from(NON_FINITE))
    fillers = st.lists(st.sampled_from(FILLERS), max_size=2)
    lines = [f"%%MatrixMarket matrix array {field} general", *draw(fillers), f"{rows} {cols}"]
    for j, entry in enumerate(entries):
        lines += draw(fillers) + [" ".join(entry)]
        if poison and j == k:
            refusal = (f"line {len(lines)}: non-finite entry {lines[-1]!r}", len(lines))
    lines += draw(fillers)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (end.join(lines) + end).encode("ascii"), m, refusal


@settings(max_examples=100, deadline=None)
@given(matrix_market_files())
def test_read_returns_the_drawn_matrix_bitwise(tmp_path_factory, drawn):
    data, m, _ = drawn
    path = tmp_path_factory.getbasetemp() / "drawn_m.mtx"
    path.write_bytes(data)
    back = read_matrix(path)
    assert back.flags.c_contiguous
    assert (back.dtype, back.shape, back.tobytes()) == (m.dtype, m.shape, m.tobytes()), data


@settings(max_examples=100, deadline=None)
@given(matrix_market_files(fields=("complex", "real"), poison=True))
def test_non_finite_entry_is_named_by_its_own_line(tmp_path_factory, drawn):
    data, _, (message, line) = drawn
    path = tmp_path_factory.getbasetemp() / "drawn_n.mtx"
    path.write_bytes(data)
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert (str(err.value), err.value.line) == (message, line), data
