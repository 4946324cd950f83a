import importlib.util
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from runblock import (
    CompressedDoc,
    FormatError,
    ValidationError,
    encode_image,
    mh_decode_image,
    mh_decode_row,
    mh_encode_image,
    mh_encode_row,
)
from runblock import mh
from runblock.core import MAX_DIM, canonicalize_row, is_canonical
from runblock.mh import (
    BLACK_MAKEUP,
    BLACK_TERMINATING,
    EOL,
    EXTENDED_MAKEUP,
    WHITE_MAKEUP,
    WHITE_TERMINATING,
    _BLACK,
    _CODE,
    _INSIDE,
    _PEEK,
    _RUNS,
    _SLOTS,
    _STUCK,
    _USED,
)

from helpers import letter_like_doc, random_grid, text_like_doc, text_like_row

FRAMINGS = [(True, True), (True, False), (False, True), (False, False)]
FRAMING_IDS = ["eol-aligned", "eol", "bare-aligned", "bare"]


def load_mh_skew():
    """`tools/mh_skew.py`, whose pages time lock step against the serial loop."""
    path = Path(__file__).resolve().parent.parent / "tools" / "mh_skew.py"
    spec = importlib.util.spec_from_file_location("mh_skew", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mh_skew = load_mh_skew()


# The codec as it was written on '0'/'1' strings: one dict probe per prefix
# length when decoding, string joins when encoding. It is the reference that
# the integer codec's bytes, documents and diagnostics must match.

_REF_WHITE_MAKEUP = {**WHITE_MAKEUP, **EXTENDED_MAKEUP}
_REF_BLACK_MAKEUP = {**BLACK_MAKEUP, **EXTENDED_MAKEUP}


def ref_codewords(length: int, white: bool) -> list[str]:
    if length < 0:
        raise ValidationError(f"negative run length {length}")
    terminating = WHITE_TERMINATING if white else BLACK_TERMINATING
    makeup = _REF_WHITE_MAKEUP if white else _REF_BLACK_MAKEUP
    parts = []
    while length > 2623:
        parts.append(makeup[2560])
        length -= 2560
    if length >= 64:
        parts.append(makeup[(length // 64) * 64])
        length %= 64
    parts.append(terminating[length])
    return parts


def ref_row_codewords(row) -> list[str]:
    if not is_canonical(row):
        raise ValidationError(f"run row is not canonical: {list(row)}")
    return [code for i, length in enumerate(row) for code in ref_codewords(length, i % 2 == 0)]


def ref_frame(rows: list[list[str]], eol: bool, byte_align: bool) -> list[str]:
    """The framed stream of the given rows' codewords, as chunks: each fill,
    end-of-line code and codeword is one chunk, the final pad the last."""
    chunks = []
    length = 0
    for codewords in rows:
        if eol:
            if byte_align:
                fill = -(length + len(EOL)) % 8
                chunks.append("0" * fill)
                length += fill
            chunks.append(EOL)
            length += len(EOL)
        chunks += codewords
        length += sum(map(len, codewords))
        if not eol and byte_align:
            fill = -length % 8
            chunks.append("0" * fill)
            length += fill
    chunks.append("0" * (-length % 8))
    return chunks


def pack(bits: str) -> bytes:
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def ref_encode_image(doc, eol: bool, byte_align: bool) -> bytes:
    return pack("".join(ref_frame([ref_row_codewords(r) for r in doc.rows], eol, byte_align)))


def _ref_decode_table(terminating, makeup):
    table = {code: (True, value) for value, code in enumerate(terminating)}
    table.update((code, (False, value)) for value, code in makeup.items())
    return table


_REF_WHITE_DECODE = _ref_decode_table(WHITE_TERMINATING, _REF_WHITE_MAKEUP)
_REF_BLACK_DECODE = _ref_decode_table(BLACK_TERMINATING, _REF_BLACK_MAKEUP)


def ref_decode_run(bits: str, pos: int, white: bool) -> tuple[int, int]:
    table = _REF_WHITE_DECODE if white else _REF_BLACK_DECODE
    color = "white" if white else "black"
    total = 0
    while True:
        match = None
        for n in range(2, min(13, len(bits) - pos) + 1):
            match = table.get(bits[pos : pos + n])
            if match is not None:
                pos += n
                break
        if match is None:
            if len(bits) - pos >= len(EOL) and bits[pos : pos + len(EOL)] == EOL:
                raise FormatError(f"unexpected end-of-line code at bit {pos}")
            if len(bits) - pos < 13:
                raise FormatError(f"bit stream ended inside a {color} run at bit {pos}")
            raise FormatError(f"invalid {color} codeword at bit {pos}")
        is_terminating, value = match
        total += value
        if is_terminating:
            return total, pos


def ref_decode_row_at(bits: str, width: int, pos: int):
    runs = []
    total = 0
    white = True
    while total < width:
        length, pos = ref_decode_run(bits, pos, white)
        runs.append(length)
        total += length
        if total > width:
            raise FormatError(f"runs overrun the declared width {width} ({total} pixels)")
        white = not white
    return canonicalize_row(runs), pos


def ref_decode_image(data: bytes, width: int, height: int, *, eol: bool, byte_align: bool = False):
    if not 1 <= width <= 2**31 - 1 or not 1 <= height <= 2**31 - 1:
        raise ValidationError(f"bad dimensions {width} x {height}")
    bits = "".join(f"{b:08b}" for b in data)
    pos = 0
    rows = []
    for number in range(1, height + 1):
        if eol:
            p = pos
            while p < len(bits) and bits[p] == "0":
                p += 1
            if p >= len(bits):
                raise FormatError(f"stream ended while seeking the end-of-line code of row {number}")
            if p - pos < len(EOL) - 1:
                raise FormatError(f"missing end-of-line code before row {number} (bit {pos})")
            pos = p + 1
        elif byte_align and pos % 8:
            fill = 8 - pos % 8
            if bits[pos : pos + fill].strip("0"):
                raise FormatError(f"nonzero padding bits before row {number}")
            pos += fill
        try:
            row, pos = ref_decode_row_at(bits, width, pos)
        except FormatError as exc:
            raise FormatError(f"row {number}: {exc}") from None
        rows.append(row)
    tail = bits[pos:]
    if len(tail) >= 8 or tail.strip("0"):
        raise FormatError(f"trailing data after the last row at bit {pos}")
    return CompressedDoc(width, height, tuple(rows))


def outcome(decoder, data: bytes, width: int, height: int, eol: bool, byte_align: bool):
    try:
        return decoder(data, width, height, eol=eol, byte_align=byte_align)
    except (FormatError, ValidationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def decoder_outcomes(data: bytes, width: int, height: int, eol: bool, byte_align: bool) -> list:
    """The decoder's outcome as it is and, in the EOL framings, with lock
    step down to one open row, so that it decodes every row, and to two,
    so that it hands its last open row on to the serial loop. Lock step
    must fall back to the serial loop exactly when the stream is invalid."""
    results = [outcome(mh_decode_image, data, width, height, eol, byte_align)]
    for rows in (1, 2) if eol else ():
        fallbacks = []

        def spy(*args, serial=mh._decode_serial):
            fallbacks.append(args)
            return serial(*args)

        with patch.object(mh, "LOCKSTEP_ROWS", rows), patch.object(mh, "_decode_serial", spy):
            got = outcome(mh_decode_image, data, width, height, eol, byte_align)
        if height >= rows:  # a shorter stream goes to the serial loop at once
            assert bool(fallbacks) != isinstance(got, CompressedDoc), (rows, got)
        results.append(got)
    return results


class TestCodeTables:
    def test_terminating_tables_cover_0_to_63(self):
        assert len(WHITE_TERMINATING) == 64
        assert len(BLACK_TERMINATING) == 64

    def test_makeup_tables_cover_multiples_of_64(self):
        assert sorted(WHITE_MAKEUP) == list(range(64, 1729, 64))
        assert sorted(BLACK_MAKEUP) == list(range(64, 1729, 64))
        assert sorted(EXTENDED_MAKEUP) == list(range(1792, 2561, 64))

    @pytest.mark.parametrize(
        "codes",
        [
            WHITE_TERMINATING + tuple(WHITE_MAKEUP.values()) + tuple(EXTENDED_MAKEUP.values()),
            BLACK_TERMINATING + tuple(BLACK_MAKEUP.values()) + tuple(EXTENDED_MAKEUP.values()),
        ],
        ids=["white", "black"],
    )
    def test_codes_are_prefix_free(self, codes):
        assert len(set(codes)) == len(codes)
        by_length = sorted(codes, key=len)
        for i, short in enumerate(by_length):
            for long in by_length[i + 1 :]:
                assert not (long != short and long.startswith(short)), (short, long)

    def test_no_codeword_shadows_eol(self):
        for code in (
            WHITE_TERMINATING + BLACK_TERMINATING
            + tuple(WHITE_MAKEUP.values()) + tuple(BLACK_MAKEUP.values())
            + tuple(EXTENDED_MAKEUP.values())
        ):
            assert not EOL.startswith(code)

    def test_no_two_codewords_hold_eleven_zeros(self):
        # so that the end-of-line code, eleven zeros and a one, shows where
        # every row of an EOL-framed stream starts without decoding a bit
        codes = set(
            WHITE_TERMINATING + BLACK_TERMINATING
            + tuple(WHITE_MAKEUP.values()) + tuple(BLACK_MAKEUP.values())
            + tuple(EXTENDED_MAKEUP.values())
        )
        assert not [(a, b) for a in codes for b in codes if "0" * 11 in a + b]

    def test_white_4_is_the_documented_codeword(self):
        assert mh_encode_row((4,)) == "1011"


class TestRowCodec:
    def test_all_black_row_starts_with_white_zero(self):
        bits = mh_encode_row((0, 5))
        assert bits.startswith(WHITE_TERMINATING[0])
        assert mh_decode_row(bits, 5) == (0, 5)

    def test_round_trip_boundary_lengths(self):
        for length in (1, 63, 64, 127, 128, 1663, 1664, 1728, 1729, 1792, 2559, 2560, 2623, 2624, 5200):
            assert mh_decode_row(mh_encode_row((length,)), length) == (length,)
            assert mh_decode_row(mh_encode_row((0, length)), length) == (0, length)

    def test_round_trip_random_rows(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            width = int(rng.integers(1, 400))
            row = text_like_row(rng, width)
            assert mh_decode_row(mh_encode_row(row), width) == row

    def test_non_canonical_row_rejected(self):
        with pytest.raises(ValidationError):
            mh_encode_row((4, 0, 4))

    def test_trailing_bits_rejected(self):
        bits = mh_encode_row((4,)) + "0000000"
        with pytest.raises(FormatError, match="unconsumed"):
            mh_decode_row(bits, 4)

    @pytest.mark.parametrize("width", [0, -3])
    def test_width_below_one_rejected(self, width):
        with pytest.raises(ValidationError, match=f"bad width {width}"):
            mh_decode_row("", width)

    def test_row_overrun(self):
        bits = mh_encode_row((5, 3))
        with pytest.raises(FormatError, match="overrun"):
            mh_decode_row(bits, 6)

    def test_premature_end(self):
        with pytest.raises(FormatError, match="ended"):
            mh_decode_row("10", 4)

    def test_unexpected_eol(self):
        with pytest.raises(FormatError, match="end-of-line"):
            mh_decode_row(EOL + mh_encode_row((4,)), 4)

    def test_invalid_codeword(self):
        # a run of 13+ zeros matches no codeword and is not an EOL
        with pytest.raises(FormatError, match="invalid"):
            mh_decode_row("0" * 20, 4000)


# white 1, black 0, white 1, black 1, white 0, black 1: a foreign encoder's
# row of width 4 with a zero-length run of each color inside it
ZERO_RUNS_ROW = "".join([
    WHITE_TERMINATING[1], BLACK_TERMINATING[0], WHITE_TERMINATING[1],
    BLACK_TERMINATING[1], WHITE_TERMINATING[0], BLACK_TERMINATING[1],
])


def test_run_codec_exhaustive_sample():
    # white runs as (length,), black runs as (0, length)
    for length in list(range(1, 200)) + [1728, 1792, 2560, 2623, 2624, 3000]:
        for row in ((length,), (0, length)):
            bits = mh_encode_row(row)
            assert bits == "".join(ref_row_codewords(row))
            assert mh_decode_row(bits, length) == row
    assert mh_decode_row(ZERO_RUNS_ROW, 4) == (2, 2)


class TestImageCodec:
    @pytest.mark.parametrize("eol", [True, False])
    @pytest.mark.parametrize("byte_align", [True, False])
    def test_round_trip(self, eol, byte_align):
        rng = np.random.default_rng(41)
        for _ in range(25):
            doc = text_like_doc(rng, int(rng.integers(1, 12)), int(rng.integers(1, 80)))
            data = mh_encode_image(doc, eol=eol, byte_align=byte_align)
            assert mh_decode_image(data, doc.width, doc.height, eol=eol, byte_align=byte_align) == doc

    def test_single_all_white_row(self):
        doc = CompressedDoc.from_rows([(3000,)])
        data = mh_encode_image(doc, eol=False)
        assert mh_decode_image(data, 3000, 1, eol=False) == doc

    def test_empty_stream_errors(self):
        with pytest.raises(FormatError):
            mh_decode_image(b"", 8, 1, eol=False)

    def test_missing_eol(self):
        doc = CompressedDoc.from_rows([(8,)])
        data = mh_encode_image(doc, eol=False)
        with pytest.raises(FormatError, match="end-of-line"):
            mh_decode_image(data, 8, 1, eol=True)

    def test_error_names_row(self):
        doc = CompressedDoc.from_rows([(8,), (8,)])
        data = mh_encode_image(doc, eol=False)
        with pytest.raises(FormatError, match="row 3"):
            mh_decode_image(data, 8, 3, eol=False)

    def test_trailing_data_rejected(self):
        doc = CompressedDoc.from_rows([(8,)])
        data = mh_encode_image(doc, eol=False) + b"\x00"
        with pytest.raises(FormatError, match="trailing"):
            mh_decode_image(data, 8, 1, eol=False)

    def test_nonzero_padding_rejected(self):
        # white-1 is 6 bits; force a nonzero pad bit before row 2
        bits = mh_encode_row((1,)) + "01" + "000000" + mh_encode_row((1,))
        data = bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
        with pytest.raises(FormatError, match="padding"):
            mh_decode_image(data, 1, 2, eol=False, byte_align=True)

    def test_byte_align_starts_rows_on_byte_boundaries(self):
        doc = CompressedDoc.from_rows([(5,), (5,)])
        data = mh_encode_image(doc, eol=False, byte_align=True)
        # white-5 is 4 bits; with alignment each row occupies its own byte
        assert len(data) == 2
        data_eol = mh_encode_image(doc, eol=True, byte_align=True)
        # each EOL is zero-filled to END on a byte boundary: 4+12 bits EOL,
        # 4-bit row (bit 20), 12-bit EOL landing exactly on bit 32, 4-bit row,
        # final pad -> 40 bits
        assert len(data_eol) == 5
        assert mh_decode_image(data_eol, 5, 2, eol=True, byte_align=True) == doc


def test_bit_string_must_be_binary():
    with pytest.raises(ValidationError, match="only '0' and '1'"):
        mh_decode_row("1011 ", 4)


@pytest.fixture(scope="module")
def a4_doc():
    """A text page at A4 size and 300 dpi, about 163 runs per row."""
    return text_like_doc(np.random.default_rng(1), 3508, 2480)


@pytest.fixture(scope="module")
def letter_doc():
    """A page in T.4 fax geometry whose rows take make-up codes."""
    return letter_like_doc(np.random.default_rng(2), 1143)


def criterion_6_corpus():
    """The documents and rows of acceptance criterion 6, drawn the same way."""
    rng = np.random.default_rng(0xC6)
    docs = [
        encode_image(random_grid(rng, int(rng.integers(1, 65)), int(rng.integers(1, 65)), rng.uniform(0, 1)))
        for _ in range(500)
    ]
    rows = [(length,) for length in range(1, 2601)] + [(0, length) for length in range(1, 2601)]
    for _ in range(1000):
        rows.append(text_like_row(rng, int(rng.integers(1, 600))))
    return docs, rows


LONG_RUN_DOC = CompressedDoc.from_rows(
    [(9000,), (0, 9000), (3000, 3000, 3000), (2623, 2624, 3753), (1, 8998, 1)]
)


class TestEncodeMatchesReference:
    def test_criterion_6_corpus(self):
        docs, rows = criterion_6_corpus()
        for doc in docs:
            for eol, byte_align in FRAMINGS:
                assert mh_encode_image(doc, eol=eol, byte_align=byte_align) == ref_encode_image(doc, eol, byte_align)
        for row in rows:
            assert mh_encode_row(row) == "".join(ref_row_codewords(row))
        for length in (2623, 2624, 5183, 5184, 9000):
            for row in ((length,), (0, length)):
                assert mh_encode_row(row) == "".join(ref_row_codewords(row))

    @pytest.mark.parametrize("page", ["a4_doc", "letter_doc"])
    def test_pages(self, page, request):
        doc = request.getfixturevalue(page)
        codewords = [ref_row_codewords(row) for row in doc.rows]
        for eol, byte_align in FRAMINGS:
            expected = pack("".join(ref_frame(codewords, eol, byte_align)))
            assert mh_encode_image(doc, eol=eol, byte_align=byte_align) == expected
        for row, codes in zip(doc.rows, codewords):
            assert mh_encode_row(row) == "".join(codes)

    def test_repeated_2560_makeup_codes(self):
        for eol, byte_align in FRAMINGS:
            data = mh_encode_image(LONG_RUN_DOC, eol=eol, byte_align=byte_align)
            assert data == ref_encode_image(LONG_RUN_DOC, eol, byte_align)
            assert mh_decode_image(data, 9000, 5, eol=eol, byte_align=byte_align) == LONG_RUN_DOC
            assert ref_decode_image(data, 9000, 5, eol=eol, byte_align=byte_align) == LONG_RUN_DOC

    @pytest.mark.parametrize("width, height", [(0, 1), (1, 0), (MAX_DIM + 1, 1), (1, MAX_DIM + 1)])
    def test_decode_rejects_bad_dimensions(self, width, height):
        with pytest.raises(ValidationError, match=rf"^bad dimensions {width} x {height}$"):
            mh_decode_image(b"\x00", width, height, eol=False)

    def test_negative_leading_run_rejected(self):
        with pytest.raises(ValidationError, match="not canonical"):
            CompressedDoc.from_rows([(-1, 5)])
        with pytest.raises(ValidationError, match="not canonical"):
            mh_encode_row((-1, 5))


def mutated_streams(rng, doc, eol, byte_align):
    """(data, width, height) cases around one valid stream: the stream itself,
    wrong dimensions, bit flips, truncations at random bytes, at codeword
    boundaries and one bit inside codewords, and appended bytes."""
    chunks = ref_frame([ref_row_codewords(r) for r in doc.rows], eol, byte_align)
    bits = "".join(chunks)
    data = pack(bits)
    w, h = doc.width, doc.height
    yield data, w, h
    yield data, w, h + 1
    yield data, w + 1, h
    yield data, max(w - 1, 1), h
    for _ in range(4):
        flipped = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            p = int(rng.integers(0, len(bits)))
            flipped[p // 8] ^= 0x80 >> p % 8
        yield bytes(flipped), w, h
    yield data[: int(rng.integers(0, len(data)))], w, h
    ends = np.cumsum([len(c) for c in chunks])
    codewords = [i for i, c in enumerate(chunks) if len(c) > 1 and "1" in c]
    for i in rng.choice(codewords, size=min(3, len(codewords)), replace=False):
        end = int(ends[i])
        start = end - len(chunks[i])
        yield pack(bits[:end]), w, h
        yield pack(bits[: start + 1]), w, h
        yield pack(bits[: end - 1]), w, h
    yield data + rng.integers(0, 256, int(rng.integers(1, 4)), dtype=np.uint8).tobytes(), w, h
    yield data + b"\x80", w, h


def small_mh_doc(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return text_like_doc(rng, int(rng.integers(1, 7)), int(rng.integers(1, 121)))
    if kind == 1:
        return letter_like_doc(rng, int(rng.integers(1, 4)))
    return encode_image(random_grid(rng, int(rng.integers(1, 7)), int(rng.integers(1, 90))))


class TestDecodeMatchesReference:
    @pytest.mark.parametrize("page", ["a4_doc", "letter_doc"])
    def test_pages_round_trip(self, page, request):
        doc = request.getfixturevalue(page)
        for eol, byte_align in FRAMINGS:
            data = mh_encode_image(doc, eol=eol, byte_align=byte_align)
            assert mh_decode_image(data, doc.width, doc.height, eol=eol, byte_align=byte_align) == doc

    @pytest.mark.parametrize("page", ["a4_doc", "letter_doc"])
    @pytest.mark.parametrize("byte_align", [True, False], ids=["eol-aligned", "eol"])
    def test_valid_eol_pages_decode_in_lock_step(self, page, byte_align, request, monkeypatch):
        doc = request.getfixturevalue(page)
        data = mh_encode_image(doc, eol=True, byte_align=byte_align)

        def serial(*args):
            raise AssertionError("a valid EOL-framed page fell back to the serial loop")

        monkeypatch.setattr(mh, "_decode_serial", serial)
        assert mh_decode_image(data, doc.width, doc.height, eol=True, byte_align=byte_align) == doc

    def test_letter_page_matches_reference(self, letter_doc):
        doc = letter_doc
        data = mh_encode_image(doc, eol=False)
        assert ref_decode_image(data, doc.width, doc.height, eol=False) == doc

    @pytest.mark.parametrize("eol,byte_align", FRAMINGS, ids=FRAMING_IDS)
    def test_mutated_streams(self, eol, byte_align):
        rng = np.random.default_rng([42, eol, byte_align])
        seen = []
        for _ in range(40):
            doc = small_mh_doc(rng)
            for data, w, h in mutated_streams(rng, doc, eol, byte_align):
                expected = outcome(ref_decode_image, data, w, h, eol, byte_align)
                got = decoder_outcomes(data, w, h, eol, byte_align)
                assert got == [expected] * len(got), (data, w, h)
                seen.append(expected)
        # the corpus reaches every diagnosis the decoder gives in this framing
        kinds = [
            "invalid white codeword", "invalid black codeword", "ended inside a white run",
            "ended inside a black run", "overrun the declared width", "trailing data",
        ]
        if eol:
            kinds += ["unexpected end-of-line code", "missing end-of-line code", "while seeking"]
        elif byte_align:
            kinds += ["nonzero padding bits"]
        for kind in kinds:
            assert any(isinstance(s, str) and kind in s for s in seen), kind
        assert any(isinstance(s, CompressedDoc) for s in seen)

    @pytest.mark.parametrize("eol,byte_align", FRAMINGS, ids=FRAMING_IDS)
    def test_stream_ends_where_a_row_needs_a_code(self, eol, byte_align):
        # white-4 is 1011, so two rows fill whole bytes in the bare framings
        # and the third row starts exactly at the end of the stream
        doc = CompressedDoc.from_rows([(4,), (4,)])
        data = mh_encode_image(doc, eol=eol, byte_align=byte_align)
        if eol:
            expected = "FormatError: stream ended while seeking the end-of-line code of row 3"
        else:
            expected = f"FormatError: row 3: bit stream ended inside a white run at bit {8 * len(data)}"
        got = decoder_outcomes(data, 4, 3, eol, byte_align)
        assert got == [expected] * len(got)
        assert outcome(ref_decode_image, data, 4, 3, eol, byte_align) == expected

    def test_stream_ends_right_after_an_eol(self):
        data = pack("0000" + EOL)  # fill and end-of-line code fill two bytes
        expected = "FormatError: row 1: bit stream ended inside a white run at bit 16"
        assert decoder_outcomes(data, 4, 1, True, True) == [expected] * 3
        assert outcome(ref_decode_image, data, 4, 1, True, True) == expected

    @pytest.mark.parametrize(
        "codes,width,row",
        [
            ([WHITE_TERMINATING[10], BLACK_TERMINATING[0], WHITE_TERMINATING[5]], 15, (15,)),
            ([WHITE_TERMINATING[0], BLACK_TERMINATING[5], WHITE_TERMINATING[0], BLACK_TERMINATING[3]], 8, (0, 8)),
            ([WHITE_TERMINATING[0], BLACK_TERMINATING[0], WHITE_TERMINATING[5]], 5, (5,)),
            ([WHITE_MAKEUP[64], WHITE_TERMINATING[0], BLACK_TERMINATING[0], WHITE_TERMINATING[6],
              BLACK_TERMINATING[2]], 72, (70, 2)),
            ([EXTENDED_MAKEUP[2560], WHITE_TERMINATING[0], BLACK_TERMINATING[0], EXTENDED_MAKEUP[2560],
              WHITE_TERMINATING[3], BLACK_TERMINATING[1]], 5124, (5123, 1)),
        ],
    )
    def test_interior_zero_terminators_canonicalize(self, codes, width, row):
        # foreign encoders write such rows; the decoder merges the runs
        assert mh_decode_row("".join(codes), width) == row
        for eol, byte_align in FRAMINGS:
            data = pack("".join(ref_frame([codes, codes], eol, byte_align)))
            expected = ref_decode_image(data, width, 2, eol=eol, byte_align=byte_align)
            assert expected.rows == (row, row)
            got = decoder_outcomes(data, width, 2, eol, byte_align)
            assert got == [expected] * len(got)

    @pytest.mark.parametrize(
        "bits,height,eol,byte_align,message",
        [
            # a one in the pad after row 1 (white-1 is six bits)
            (WHITE_TERMINATING[1] + "01" + WHITE_TERMINATING[1] + "00", 2, False, True,
             "nonzero padding bits before row 2"),
            # a one in the fill before the second end-of-line code
            ("0000" + EOL + WHITE_TERMINATING[1] + "01" + EOL + WHITE_TERMINATING[1] + "00", 2, True, True,
             "missing end-of-line code before row 2 (bit 22)"),
            (WHITE_TERMINATING[1] + "00", 1, True, False, "missing end-of-line code before row 1 (bit 0)"),
            (WHITE_TERMINATING[1] + "01", 1, False, False, "trailing data after the last row at bit 6"),
            (WHITE_TERMINATING[1] + "00" + "00000000", 1, False, False,
             "trailing data after the last row at bit 6"),
            (EOL + WHITE_TERMINATING[1] + "000000" + "00000000", 1, True, False,
             "trailing data after the last row at bit 18"),
        ],
    )
    def test_framing_faults(self, bits, height, eol, byte_align, message):
        data = pack(bits)
        expected = f"FormatError: {message}"
        got = decoder_outcomes(data, 1, height, eol, byte_align)
        assert got == [expected] * len(got)
        assert outcome(ref_decode_image, data, 1, height, eol, byte_align) == expected

    @pytest.mark.parametrize(
        "bits,width,message",
        [
            # white 20 ends in three zeros, which with eight more and a one
            # look like an end-of-line code that starts inside row 1
            (EOL + WHITE_TERMINATING[20] + "0" * 8 + "1" + WHITE_TERMINATING[20], 20,
             "missing end-of-line code before row 2 (bit 19)"),
            # the make-up code takes row 1 past its width inside a run, and
            # the next end-of-line code follows where its terminating code should
            (EOL + WHITE_MAKEUP[64] + EOL + WHITE_TERMINATING[63], 63,
             "row 1: unexpected end-of-line code at bit 17"),
            # eight zeros start no codeword, though the bits after the next two
            # are white 29, the whole row
            (EOL + "00" + WHITE_TERMINATING[29] + EOL + WHITE_TERMINATING[29], 29,
             "row 1: invalid white codeword at bit 12"),
            # the same in row 2, which is stuck when row 1 ends and lock step
            # hands it on
            (EOL + WHITE_TERMINATING[29] + EOL + "00" + WHITE_TERMINATING[29], 29,
             "row 2: invalid white codeword at bit 32"),
            # row 2 reads white 2 and black 1 (010) in one step, past the
            # data, and is still open when row 1 ends and lock step hands it on
            ("0" * 6 + EOL + WHITE_TERMINATING[5] + EOL + WHITE_TERMINATING[2] + BLACK_TERMINATING[1][:2],
             5, "row 2: bit stream ended inside a black run at bit 38"),
            # the last row's final codeword, black 1 (010), runs past the
            # data, whose windows read the missing bit as a zero
            ("000" + EOL + WHITE_TERMINATING[4] + BLACK_TERMINATING[1] + EOL + WHITE_TERMINATING[4]
             + BLACK_TERMINATING[1][:2], 5, "row 2: bit stream ended inside a black run at bit 38"),
        ],
    )
    def test_invalid_eol_rows_give_the_serial_diagnosis(self, bits, width, message):
        data = pack(bits)
        expected = f"FormatError: {message}"
        got = decoder_outcomes(data, width, 2, True, False)
        assert got == [expected] * len(got)
        assert outcome(ref_decode_image, data, width, 2, True, False) == expected

    def test_exactly_one_trailing_zero_byte(self):
        # two rows of white-4 (1011) fill one byte, and the zero byte after it is data
        data = pack(WHITE_TERMINATING[4] * 2 + "0" * 8)
        expected = "FormatError: trailing data after the last row at bit 8"
        assert outcome(mh_decode_image, data, 4, 2, False, False) == expected
        assert outcome(ref_decode_image, data, 4, 2, False, False) == expected

    @pytest.mark.parametrize(
        "bits,message",
        [
            ("0" * 13, "invalid white codeword at bit 0"),
            ("0" * 12, "bit stream ended inside a white run at bit 0"),
            (EOL, "unexpected end-of-line code at bit 0"),
            (WHITE_TERMINATING[4] + EOL[:-1], "bit stream ended inside a black run at bit 4"),
            (WHITE_TERMINATING[4] + "0" * 13, "invalid black codeword at bit 4"),
            (WHITE_TERMINATING[4] + BLACK_MAKEUP[512], "bit stream ended inside a black run at bit 17"),
            (WHITE_TERMINATING[4] + BLACK_MAKEUP[512][:-1], "bit stream ended inside a black run at bit 4"),
        ],
    )
    def test_codeword_diagnoses_near_the_stream_end(self, bits, message):
        with pytest.raises(FormatError) as exc:
            mh_decode_row(bits, 4000)
        assert str(exc.value) == message
        with pytest.raises(FormatError) as exc:
            ref_decode_row_at(bits, 4000, 0)
        assert str(exc.value) == message


def ref_first_code(window: int, white: bool):
    """(bits, is terminating, run value) of the codeword at the start of a
    13-bit window, by the string codebooks, or None."""
    table = _REF_WHITE_DECODE if white else _REF_BLACK_DECODE
    bits = f"{window:0{_PEEK}b}"
    for n in range(2, _PEEK + 1):
        if bits[:n] in table:
            return (n, *table[bits[:n]])
    return None


def test_decode_table_matches_reference_codebooks():
    table, entries, slot_runs, steps = mh._tables()
    assert table.shape == (2 * _CODE,) and entries.tolist() == table.tolist()
    for state in (0, _BLACK, _INSIDE, _INSIDE | _BLACK):
        black, inside = bool(state & _BLACK), bool(state & _INSIDE)
        for window in range(1 << _PEEK):
            key = state | window
            # the codeword entry
            code = ref_first_code(window, not black)
            if code is None:
                expected = _CODE | _STUCK
            else:
                n, terminating, value = code
                # a make-up code that enters a run counts one pixel less, and
                # the terminating code that leaves it one more
                pixels = value - (not terminating and not inside) + (terminating and inside)
                flips = _BLACK * terminating | _INSIDE * (terminating == inside)
                expected = n << _USED | terminating << _RUNS | _CODE | flips | pixels
            assert table[_CODE | key] == expected, key
            # the whole-code step: terminating codes while they end inside the window
            used, runs, color = 0, [], black
            while not inside:
                code = ref_first_code(window << used & (1 << _PEEK) - 1, not color)
                if code is None or not code[1] or used + code[0] > _PEEK:
                    break
                used += code[0]
                runs.append(code[2])
                color = not color
            if runs:
                step = used << _USED | len(runs) << _RUNS | len(runs) % 2 * _BLACK | sum(runs)
                assert table[key] == steps[key] == step, key
                assert slot_runs[key].tolist() == runs + [0] * (_SLOTS - len(runs)), key
            else:
                assert table[key] == table[_CODE | key], key
                if not inside:
                    # so that the serial loop reads one run for any stream
                    assert steps[key] >> _USED >= 2**40, key


@st.composite
def foreign_rows(draw, width):
    """A run list summing to `width`, in the order of its codes, which may
    hold zero-length runs anywhere: a foreign encoder's row. Multiples of 64
    end in a make-up code and a zero-length terminating code."""
    lengths = draw(st.lists(
        st.one_of(
            st.just(0), st.integers(0, 12), st.integers(0, 63), st.integers(64, 2700),
            st.integers(1, 40).map(lambda k: 64 * k),
        ),
        max_size=24,
    ))
    runs, total = [], 0
    for length in lengths:
        length = min(length, width - total)
        runs.append(length)
        total += length
        if total == width:
            break
    if total < width:
        runs.append(width - total)
    return runs


@st.composite
def mh_streams(draw, framings=FRAMINGS, cuts=(0, 0, *range(1, 14))):
    """(data, width, height, eol, byte_align): a framed stream of foreign
    rows, whole or cut inside its last 13 bits."""
    eol, byte_align = draw(st.sampled_from(framings))
    # narrow rows end inside a window; wide ones take make-up codes mid-row
    width = draw(st.one_of(st.integers(1, 40), st.integers(41, 6000)))
    height = draw(st.integers(1, 4))
    rows = [draw(foreign_rows(width)) for _ in range(height)]
    codewords = [
        [code for i, length in enumerate(row) for code in ref_codewords(length, i % 2 == 0)]
        for row in rows
    ]
    bits = "".join(ref_frame(codewords, eol, byte_align)[:-1])  # without the final pad
    cut = draw(st.sampled_from(cuts))
    return pack(bits[: len(bits) - cut]), width, height, eol, byte_align


@settings(max_examples=400, deadline=None)
@given(mh_streams())
# a row (67, 2) ends on black 2, whose 2-bit code shares a window with the
# next row's white 0: the window may not run past the end of the row
@example((pack(WHITE_MAKEUP[64] + WHITE_TERMINATING[3] + BLACK_TERMINATING[2]
               + WHITE_TERMINATING[0] + BLACK_TERMINATING[5]), 69, 2, False, False))
def test_decoder_matches_reference_on_foreign_streams(stream):
    data, width, height, eol, byte_align = stream
    expected = outcome(ref_decode_image, data, width, height, eol, byte_align)
    got = decoder_outcomes(data, width, height, eol, byte_align)
    assert got == [expected] * len(got)


def assert_lockstep_records_are_serial(data: bytes, width: int, height: int, byte_align: bool):
    """Lock step, with as many open rows as shipped and down to one and two,
    gives the records and row ends of the serial loop, element by element."""
    win = mh._windows(data)
    records, row_ends = mh._decode_serial(win, 8 * len(data), width, height, True, byte_align)
    for rows in (1, 2, mh.LOCKSTEP_ROWS):
        with patch.object(mh, "LOCKSTEP_ROWS", rows):
            got = mh._decode_lockstep(win, 8 * len(data), width, height)
        assert got is not None, rows
        assert got[0].tolist() == records.tolist(), rows
        assert got[1].tolist() == row_ends, rows


@pytest.mark.parametrize("byte_align", [True, False], ids=["eol-aligned", "eol"])
def test_lockstep_records_match_serial_on_letter_page(letter_doc, byte_align):
    data = mh_encode_image(letter_doc, eol=True, byte_align=byte_align)
    assert_lockstep_records_are_serial(data, letter_doc.width, letter_doc.height, byte_align)


@settings(max_examples=200, deadline=None)
@given(mh_streams(framings=FRAMINGS[:2], cuts=(0,)))
def test_lockstep_records_match_serial_on_foreign_streams(stream):
    data, width, height, _, byte_align = stream
    assert_lockstep_records_are_serial(data, width, height, byte_align)


def test_lockstep_takes_no_record_twice(letter_doc):
    # Lock step, with as many open rows as shipped and down to two, takes
    # each record of the stream once: itself, or in `_decode_row_at` for a
    # row that it hands on. The skewed page hands on eight dense rows.
    handed_on = 0
    for doc in (letter_doc, mh_skew.skewed_page(8)):
        data = mh_encode_image(doc, eol=True, byte_align=True)
        win, nbits, height = mh._windows(data), 8 * len(data), doc.height
        records, row_ends = mh._decode_serial(win, nbits, doc.width, height, True, True)
        serial = [records[a:b].tolist() for a, b in zip(row_ends, row_ends[1:])]
        for rows in (2, mh.LOCKSTEP_ROWS):
            calls = []

            def spy(*args, decode_row_at=mh._decode_row_at):
                appended = args[4]
                taken = len(appended)
                end = decode_row_at(*args)
                calls.append((end, appended[taken:].tolist()))
                return end

            with patch.object(mh, "LOCKSTEP_ROWS", rows), patch.object(mh, "_decode_row_at", spy):
                assert mh._decode_lockstep(win, nbits, doc.width, height) is not None
            handed_on += len(calls)
            # again, with a `_decode_row_at` that appends nothing, so that
            # lock step returns only the records it took itself
            ends = iter(calls)
            with patch.object(mh, "LOCKSTEP_ROWS", rows), patch.object(mh, "_decode_row_at", lambda *a: next(ends)[0]):
                own, own_ends = mh._decode_lockstep(win, nbits, doc.width, height)
            taken = [own[a:b].tolist() for a, b in zip(own_ends, own_ends[1:])]
            resumed = [r for r in range(height) if len(taken[r]) < len(serial[r])]
            assert len(resumed) == len(calls), rows
            for r, (_, appended) in zip(resumed, calls):
                taken[r] += appended
            assert taken == serial, rows
    assert handed_on


def test_lockstep_hands_on_no_row_inside_a_run():
    # Row 2 has read black's 2560 make-up code when row 1 ends, and with two
    # rows lock step hands row 2 on only once it has read the terminating code.
    doc = CompressedDoc.from_rows([(2623,), (0, 2623)])
    data = mh_encode_image(doc, eol=True)
    assert_lockstep_records_are_serial(data, doc.width, doc.height, False)
    assert decoder_outcomes(data, doc.width, doc.height, True, False) == [doc] * 3


@pytest.mark.parametrize("dense", sorted({1, 8, 16, 32, mh.LOCKSTEP_ROWS}))
def test_lockstep_on_skewed_pages(dense):
    # a few dense rows outlast the blank ones: lock step goes on while
    # `LOCKSTEP_ROWS` of them are open, and hands the rest to the serial loop
    doc = mh_skew.skewed_page(dense)
    data = mh_encode_image(doc, eol=True, byte_align=True)
    assert_lockstep_records_are_serial(data, doc.width, doc.height, True)
    assert decoder_outcomes(data, doc.width, doc.height, True, True) == [doc] * 3
    assert ref_decode_image(data, doc.width, doc.height, eol=True, byte_align=True) == doc


def test_mh_skew_pages_decode_to_their_documents():
    for name, doc in mh_skew.pages():
        data = mh_encode_image(doc, eol=True, byte_align=True)
        assert mh_decode_image(data, doc.width, doc.height, eol=True, byte_align=True) == doc, name


@pytest.mark.parametrize(
    "width, height, message",
    [
        (3.0, 1, "^width must be an integer, got 3.0$"),
        (True, 1, "^width must be an integer, got True$"),
        (3, 1.0, "^height must be an integer, got 1.0$"),
        (3, "1", "^height must be an integer, got '1'$"),
    ],
)
def test_decoders_take_integer_dimensions_only(width, height, message):
    data = mh_encode_image(CompressedDoc(3, 1, [(3,)]), eol=False)
    with pytest.raises(ValidationError, match=message):
        mh_decode_image(data, width, height, eol=False)


@pytest.mark.parametrize("width", [3.0, True, "3"])
def test_row_decoder_takes_an_integer_width_only(width):
    with pytest.raises(ValidationError, match=f"^width must be an integer, got {width!r}$"):
        mh_decode_row(mh_encode_row((3,)), width)
