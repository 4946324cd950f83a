import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runblock import (
    CompressedDoc,
    FormatError,
    ValidationError,
    decode_image,
    encode_image,
    is_canonical,
    read_pbm,
    read_rle,
    write_pbm,
    write_rle,
)
from runblock.core import ECHO_CHARS
from runblock.formats import pbm_header, rle_header

from helpers import random_doc, random_grid, text_like_doc


def reference_read_rle(data: bytes) -> CompressedDoc:
    """RLC1 reader written as one loop over the rows: the reference that
    `read_rle`'s results and diagnostics must match."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"RLC1 file is not ASCII: {exc}") from None
    if not text.endswith("\n"):
        raise FormatError("RLC1 file must end with a newline")
    lines = text[:-1].split("\n")
    if lines[0] != "RLC1":
        raise FormatError(f"not an RLC1 file (first line {lines[0]!r})")
    if len(lines) < 2:
        raise FormatError("missing RLC1 dimension line")
    dims = lines[1].split(" ")
    if len(dims) != 2 or not all(d.isdigit() for d in dims):
        raise FormatError(f"bad RLC1 dimension line {lines[1]!r}")
    width, height = int(dims[0]), int(dims[1])
    if not 1 <= width <= 2**31 - 1 or not 1 <= height <= 2**31 - 1:
        raise FormatError(f"bad RLC1 dimensions {width} x {height}")
    body = lines[2:]
    if len(body) != height:
        raise FormatError(f"got {len(body)} run rows, expected {height}")
    rows = []
    for number, line in enumerate(body, 1):
        tokens = line.split(" ")
        if any(not t.isdigit() for t in tokens):
            raise FormatError(f"row {number}: non-numeric run token in {line!r}")
        runs = tuple(int(t) for t in tokens)
        if sum(runs) != width:
            raise FormatError(f"row {number}: runs sum to {sum(runs)}, expected width {width}")
        if not is_canonical(runs):
            raise FormatError(f"row {number}: runs are not canonical: {line!r}")
        rows.append(runs)
    return CompressedDoc(width=width, height=height, rows=tuple(rows))


def outcome(reader, data: bytes):
    try:
        return reader(data)
    except FormatError as exc:
        return f"FormatError: {exc}"


class TestReadPbm:
    def test_plain(self):
        assert read_pbm(b"P1\n3 1\n1 1 0\n").tolist() == [[1, 1, 0]]

    def test_plain_packed_digits(self):
        assert read_pbm(b"P1\n3 2\n110\n001\n").tolist() == [[1, 1, 0], [0, 0, 1]]

    def test_plain_with_comment(self):
        data = b"P1\n# a comment\n3 1\n1 1 0\n"
        assert read_pbm(data).tolist() == [[1, 1, 0]]

    def test_plain_comments_inside_the_raster(self):
        # a comment may hold digits, sit against a pixel and end the file
        data = b"P1\n3 2\n1 0#1 1 1 digits\n1 # 0\n0 1 0 # end"
        assert read_pbm(data).tolist() == [[1, 0, 1], [0, 1, 0]]

    def test_packed(self):
        assert read_pbm(b"P4\n3 1\n" + bytes([0b11000000])).tolist() == [[1, 1, 0]]

    @pytest.mark.parametrize("data", [b"P4\n8 1", b"P4\n8 1#\n\x00", b"P4\n8 1x"])
    def test_packed_header_needs_one_separator(self, data):
        # the height ends at byte 6; what follows must be one whitespace byte
        with pytest.raises(FormatError, match=r"^missing separator after PBM header at byte 6$"):
            read_pbm(data)

    def test_packed_padding_ignored(self):
        assert read_pbm(b"P4\n3 1\n" + bytes([0b11011111])).tolist() == [[1, 1, 0]]

    def test_packed_multi_row(self):
        data = b"P4\n9 2\n" + bytes([0b10000000, 0b10000000, 0b01000000, 0b00000000])
        grid = read_pbm(data)
        assert grid.shape == (2, 9)
        assert grid[0].tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 1]
        assert grid[1].tolist() == [0, 1, 0, 0, 0, 0, 0, 0, 0]

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_pbm(b"P5\n1 1\n0")

    def test_magic_requires_separator(self):
        with pytest.raises(FormatError):
            read_pbm(b"P13 1\n1 1 0\n")

    def test_truncated_payload(self):
        with pytest.raises(FormatError):
            read_pbm(b"P4\n16 2\n\x00")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FormatError):
            read_pbm(b"P4\n3 1\n\x00\x00")

    def test_plain_wrong_pixel_count(self):
        with pytest.raises(FormatError):
            read_pbm(b"P1\n3 1\n1 1\n")

    def test_plain_bad_token(self):
        with pytest.raises(FormatError):
            read_pbm(b"P1\n3 1\n1 2 0\n")

    def test_zero_dimension_rejected(self):
        with pytest.raises(FormatError):
            read_pbm(b"P1\n0 1\n\n")

    def test_dimensions_beyond_int_digit_limit(self):
        assert read_pbm(b"P1\n" + b"0" * 5000 + b"1 1\n0\n").tolist() == [[0]]
        assert pbm_header(b"P4\n8 " + b"0" * 5000 + b"1\n\x00") == (8, 1)
        with pytest.raises(FormatError, match=r"^bad PBM dimensions 1{10}\.\.\. \(5000 digits\) x 1$") as exc:
            pbm_header(b"P1\n" + b"1" * 5000 + b" 1\n0\n")
        assert len(str(exc.value)) < 200

    def test_plain_raster_larger_than_file_rejected_before_allocation(self):
        # 4e10 pixels declared in 19 bytes; each P1 pixel needs a byte
        with pytest.raises(FormatError, match="P1 raster is 3 bytes, too short for 40000000000 pixels"):
            read_pbm(b"P1\n200000 200000\n0\n")


class TestWritePbm:
    def test_round_trip_packed(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            grid = random_grid(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            assert np.array_equal(read_pbm(write_pbm(grid)), grid)

    def test_round_trip_plain(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            grid = random_grid(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            assert np.array_equal(read_pbm(write_pbm(grid, plain=True)), grid)

    def test_bad_grids_rejected(self):
        """Only a rectangular 2-D grid of 0/1 pixels is written, as
        `encode_image` takes it, not a file that `read_pbm` rejects."""
        for grid in ([[2, 0]], [[1.7, 0]], [["1", "0"]], [[256]], [[-1]], [[0, 1], [0]]):
            for plain in (False, True):
                with pytest.raises(ValidationError):
                    write_pbm(grid, plain=plain)

    def test_plain_lines_stay_short(self):
        grid = np.ones((2, 300), dtype=np.uint8)
        for line in write_pbm(grid, plain=True).decode().splitlines():
            assert len(line) <= 70

    @pytest.mark.parametrize("width", [1, 31, 32, 33, 64, 65])
    def test_plain_layout(self, width):
        """32 digits per line, joined by spaces, and a row's last digit
        ends its line, across the boundaries of the 32-digit lines."""
        grid = random_grid(np.random.default_rng(width), 3, width)
        lines = [
            " ".join(str(d) for d in row[start : start + 32])
            for row in grid.tolist()
            for start in range(0, width, 32)
        ]
        expected = f"P1\n{width} 3\n" + "".join(line + "\n" for line in lines)
        assert write_pbm(grid, plain=True) == expected.encode("ascii")


class TestRle:
    def test_read_minimal(self):
        doc = read_rle(b"RLC1\n8 1\n4 4\n")
        assert doc == CompressedDoc(width=8, height=1, rows=((4, 4),))

    def test_row_sum_error_names_row(self):
        with pytest.raises(FormatError, match="row 1"):
            read_rle(b"RLC1\n8 1\n3 3\n")

    def test_non_numeric_token(self):
        with pytest.raises(FormatError, match="row 2"):
            read_rle(b"RLC1\n8 2\n8\n4 x\n")

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_rle(b"RLC2\n8 1\n8\n")

    def test_row_count_mismatch(self):
        with pytest.raises(FormatError):
            read_rle(b"RLC1\n8 2\n8\n")

    def test_missing_final_newline(self):
        with pytest.raises(FormatError):
            read_rle(b"RLC1\n8 1\n4 4")

    def test_non_canonical_row_rejected(self):
        with pytest.raises(FormatError, match="canonical"):
            read_rle(b"RLC1\n8 1\n4 0 4\n")

    def test_negative_impossible_by_grammar(self):
        with pytest.raises(FormatError):
            read_rle(b"RLC1\n8 1\n-4 12\n")

    def test_header_probe(self):
        assert rle_header(b"RLC1\n8 2\n8\n8\n") == (8, 2)
        # a dimension line that ends past the first 64 bytes
        assert rle_header(b"RLC1\n" + b"0" * 70 + b"8 2\n8\n8\n") == (8, 2)
        with pytest.raises(FormatError):
            rle_header(b"RLC1\n8\n8\n")
        with pytest.raises(FormatError):
            rle_header(b"nope")

    def test_write_read_round_trip(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            doc = random_doc(rng, 6, 40)
            data = write_rle(doc)
            assert read_rle(data) == doc
            assert write_rle(read_rle(data)) == data


    def test_header_probe_agrees_with_reader(self):
        for data in (b"RLC1\n", b"RLC1\n\n", b"RLC1\n8 x\n", b"RLC2\n8 1\n8\n", b"RLC1\n0 1\n8\n"):
            with pytest.raises(FormatError) as probe:
                rle_header(data)
            with pytest.raises(FormatError) as reader:
                read_rle(data)
            assert str(probe.value) == str(reader.value)

    def test_dimensions_beyond_int_digit_limit(self):
        assert rle_header(b"RLC1\n" + b"0" * 5000 + b"8 1\n") == (8, 1)
        with pytest.raises(FormatError, match=r"^bad RLC1 dimensions 9{10}\.\.\. \(5000 digits\) x 1$") as exc:
            rle_header(b"RLC1\n" + b"9" * 5000 + b" 1\n")
        assert len(str(exc.value)) < 200

    def test_zero_padded_run_beyond_int_digit_limit(self):
        doc = read_rle(b"RLC1\n8 1\n" + b"0" * 5000 + b"8\n")
        assert doc.rows == ((8,),)

    def test_run_beyond_int_digit_limit(self):
        with pytest.raises(FormatError, match=r"^row 1: runs sum to a number of over \d+ digits, expected width 8$"):
            read_rle(b"RLC1\n8 1\n" + b"9" * 5000 + b"\n")

    def test_saturated_runs_cannot_wrap_to_the_width(self):
        # as int64, the two overlong runs saturate and the row sum wraps to 8
        with pytest.raises(FormatError, match=r"^row 1: runs sum to 200000000000000000008, expected width 8$"):
            read_rle(b"RLC1\n8 1\n99999999999999999999 99999999999999999999 10\n")

    def test_long_run_with_only_its_first_digit_set(self):
        # 11 digits whose last ten read 8: the leading 1 still counts
        for row in (b"10000000008", b"4 10000000004"):
            data = b"RLC1\n8 1\n" + row + b"\n"
            total = sum(int(t) for t in row.split())
            with pytest.raises(FormatError, match=rf"^row 1: runs sum to {total}, expected width 8$"):
                read_rle(data)
            assert outcome(reference_read_rle, data) == outcome(read_rle, data)
        assert read_rle(b"RLC1\n8 1\n00000000000000000008\n").rows == ((8,),)

    def test_rows_are_tuples_of_python_ints(self):
        doc = read_rle(b"RLC1\n8 2\n4 4\n0 3 5\n")
        assert doc.rows == ((4, 4), (0, 3, 5))
        for row in doc.rows:
            assert type(row) is tuple
            assert all(type(r) is int for r in row)

    @pytest.mark.parametrize("rows, message", [
        (b"L\n5\n5", "row 1: runs sum to 999998, expected width 5"),
        (b"5\n2 3\nL", "row 3: runs sum to 999998, expected width 5"),
        (b"5\n2 x\nL", "row 2: non-numeric run token in '2 x'"),
        (b"5\n5\nZ", f"row 3: runs are not canonical: {('5' + ' 0' * 499 + ' ')!r}... (1999999 characters)"),
        (b"5\n" * 40_000 + b"L", "row 40001: runs sum to 999998, expected width 5"),
        (b"5\n" * 10 + b"0 0" + b" 1" * 29_998 + b"\n5" * 10, "row 11: runs sum to 29998, expected width 5"),
    ], ids=["long first row", "long last row", "bad row before", "zero runs", "long row after chunks",
            "long row inside a chunk"])
    def test_tokens_past_the_page_in_memory_of_the_page(self, rows, message):
        """A 5 x n page holds at most 6n runs, and row L or Z holds a
        million, past the page after 40,000 rows of 80,000 bytes too. The
        last case's long row is 60,000 bytes with 10 rows on either side,
        all in one chunk of the reader. The first bad row is named, and the
        reader's memory stays within a few times the file's size: an int64
        per token would take 4 times the file and an int64 count per byte 8
        times, on top of the copies of the row that its diagnosis reads."""
        height = rows.count(b"\n") + 1
        rows = rows.replace(b"L", b"0 0" + b" 1" * 999_998).replace(b"Z", b"5" + b" 0" * 999_999)
        data = b"RLC1\n5 %d\n" % height + rows + b"\n"
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as exc:
                read_rle(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == message
        assert peak < 5 * len(data)

    def test_page_scale_read_matches_reference(self):
        doc = text_like_doc(np.random.default_rng(34), 700, 900)
        data = write_rle(doc)
        assert read_rle(data) == reference_read_rle(data) == doc


# One malformed row per case; row 1 is good, so the number is the bad row's.
MALFORMED_ROWS = [
    ("empty line", b"", "row 2: non-numeric run token in ''"),
    ("double space", b"4  4", "row 2: non-numeric run token in '4  4'"),
    ("leading space", b" 4 4", "row 2: non-numeric run token in ' 4 4'"),
    ("trailing space", b"4 4 ", "row 2: non-numeric run token in '4 4 '"),
    ("plus sign", b"+4 4", "row 2: non-numeric run token in '+4 4'"),
    ("underscore", b"4_0", "row 2: non-numeric run token in '4_0'"),
    ("tab", b"4\t4", "row 2: non-numeric run token in '4\\t4'"),
    ("carriage return", b"4 4\r", "row 2: non-numeric run token in '4 4\\r'"),
    ("minus sign", b"-4 12", "row 2: non-numeric run token in '-4 12'"),
    ("non-canonical", b"4 0 4", "row 2: runs are not canonical: '4 0 4'"),
    ("trailing zero", b"8 0", "row 2: runs are not canonical: '8 0'"),
    ("bad sum", b"3 3", "row 2: runs sum to 6, expected width 8"),
    ("run above width", b"9", "row 2: runs sum to 9, expected width 8"),
]


@pytest.mark.parametrize("row, message", [case[1:] for case in MALFORMED_ROWS],
                         ids=[case[0] for case in MALFORMED_ROWS])
def test_malformed_row_message(row, message):
    data = b"RLC1\n8 3\n0 8\n" + row + b"\n4 4\n"
    with pytest.raises(FormatError) as exc:
        read_rle(data)
    assert str(exc.value) == message
    assert outcome(reference_read_rle, data) == f"FormatError: {message}"


# Each echo of input in an RLC1 diagnostic: (the echoed line of n
# characters, the file, the message before the echo).
ECHOES = {
    "first line": lambda n: ("RLC1" + "x" * (n - 4), "{}\n8 1\n8\n", "not an RLC1 file (first line {})"),
    "dimension line": lambda n: ("8" * n, "RLC1\n{}\n8\n", "bad RLC1 dimension line {}"),
    "non-numeric row": lambda n: (("1 " * n)[: n - 1] + "x", "RLC1\n8 1\n{}\n", "row 1: non-numeric run token in {}"),
    # zero padding keeps the row's sum at its width
    "non-canonical row": lambda n: ("0 0 " + "0" * (n - 5) + "5", "RLC1\n5 1\n{}\n", "row 1: runs are not canonical: {}"),
}


@pytest.mark.parametrize("extra", [0, 1, 2_000_000])
@pytest.mark.parametrize("case", sorted(ECHOES))
def test_rlc1_diagnostics_echo_long_lines_by_a_prefix(case, extra):
    """A line of up to ECHO_CHARS characters is echoed whole, a longer one by
    its first ECHO_CHARS characters and its length."""
    line, layout, message = ECHOES[case](ECHO_CHARS + extra)
    assert len(line) == ECHO_CHARS + extra
    echo = repr(line) if not extra else f"{line[:ECHO_CHARS]!r}... ({len(line)} characters)"
    data = layout.format(line).encode()
    with pytest.raises(FormatError) as exc:
        read_rle(data)
    assert str(exc.value) == message.format(echo)
    if not extra:
        assert outcome(reference_read_rle, data) == f"FormatError: {message.format(echo)}"


def test_first_bad_row_wins_across_checks_and_chunks():
    rows = [b"8"] * 600
    rows[300] = b"3 3"  # bad sum in a later chunk ...
    rows[450] = b"4\t4"  # ... before a bad character, which the text check sees first
    data = b"RLC1\n8 600\n" + b"\n".join(rows) + b"\n"
    with pytest.raises(FormatError, match=r"^row 301: runs sum to 6, expected width 8$"):
        read_rle(data)


def test_mutated_files_match_reference():
    """Results and diagnostics equal the one-loop reader's on damaged files."""
    rng = np.random.default_rng(35)
    alphabet = b"0123456789  \n\n0\t-+x\r\xff"
    for _ in range(400):
        data = bytearray(write_rle(random_doc(rng, 1, 12)))
        body = data.index(b"\n", 5) + 1  # header damage has tests of its own
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(body, len(data)))
            kind = rng.integers(0, 3)
            if kind == 0:
                data[pos] = alphabet[int(rng.integers(0, len(alphabet)))]
            elif kind == 1:
                data.insert(pos, alphabet[int(rng.integers(0, len(alphabet)))])
            elif len(data) > body + 1:
                del data[pos]
        data = bytes(data)
        assert outcome(read_rle, data) == outcome(reference_read_rle, data), data


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.lists(
        st.lists(
            st.tuples(st.integers(0, 12), st.one_of(st.integers(0, 50), st.integers(0, 10**25))),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_zero_padded_and_long_tokens_match_reference(width, rows):
    """Tokens of up to 38 digits, zero-padded or not, give the reference
    reader's documents and diagnostics."""
    text = b"\n".join(
        b" ".join(b"0" * zeros + str(value).encode() for zeros, value in row) for row in rows
    )
    data = b"RLC1\n%d %d\n" % (width, len(rows)) + text + b"\n"
    assert outcome(read_rle, data) == outcome(reference_read_rle, data)


def test_pipeline_pbm_rle_pbm_is_identity():
    rng = np.random.default_rng(33)
    for _ in range(20):
        grid = random_grid(rng, int(rng.integers(1, 32)), int(rng.integers(1, 32)))
        pbm = write_pbm(grid)
        doc = encode_image(read_pbm(pbm))
        doc2 = read_rle(write_rle(doc))
        assert write_pbm(decode_image(doc2)) == pbm


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P1 3", "^truncated PBM header at byte 4$"),
        (b"P1 3 x", "^unexpected byte b'x' at byte 5 in PBM header$"),
    ],
)
def test_pbm_header_errors(data, message):
    with pytest.raises(FormatError, match=message):
        read_pbm(data)


def test_p1_pixels_past_the_raster_rejected():
    with pytest.raises(FormatError, match="^trailing pixels after P1 raster$"):
        read_pbm(b"P1\n3 1\n1 1 0 1\n")


def test_rle_header_without_final_newline():
    # the dimension line ends at the end of the data
    assert rle_header(b"RLC1\n3 2") == (3, 2)
