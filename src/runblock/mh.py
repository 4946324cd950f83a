"""ITU-T T.4 one-dimensional Modified Huffman fax codec.

Each row is coded as alternating white/black run lengths starting with a
white run (a zero-length white code leads rows that start black). Runs of
0..63 pixels use a terminating code; longer runs use one or more make-up
codes (multiples of 64, color-specific up to 1728, shared "extended" codes
up to 2560) followed by a terminating code. Runs longer than 2623 are
handled by repeating the 2560 make-up code.

Codewords travel as integers. The encoder looks up the (code, bit count)
pair of each codeword and packs the pairs into an integer, from which it
moves whole bytes out as it grows. The decoder first computes, for every
bit position of the stream, the 13 bits that start there (zero past the
end), then reads each codeword with one lookup of that window in a
per-color table of 8192 entries, which gives the code length, the run
value and whether the code ends the run. The codes are prefix-free, so the
zero-padded window names exactly the codeword a bit-by-bit search would
find. `mh_encode_row` and `mh_decode_row` keep a '0'/'1' string interface
over the same code.

At the image level bits are packed into bytes MSB-first with two framing
options:

* ``eol=True``: every row is preceded by the 12-bit end-of-line code
  (eleven zeros and a one); with ``byte_align`` zero fill is inserted so
  each end-of-line code ends on a byte boundary.
* ``eol=False``: rows are concatenated directly; with ``byte_align`` each
  row is zero-padded to a byte boundary.

The final byte is always zero-padded. Decoders validate strictly: bad
prefixes, rows that overrun the declared width, missing end-of-line codes
and premature stream ends all raise FormatError with a bit offset.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

from .core import MAX_DIM, CompressedDoc, RunRow, canonicalize_row, is_canonical
from .errors import FormatError, ValidationError

EOL = "000000000001"

# Terminating codes, indexed by run length 0..63.
WHITE_TERMINATING = (
    "00110101", "000111", "0111", "1000", "1011", "1100", "1110", "1111",
    "10011", "10100", "00111", "01000", "001000", "000011", "110100", "110101",
    "101010", "101011", "0100111", "0001100", "0001000", "0010111", "0000011", "0000100",
    "0101000", "0101011", "0010011", "0100100", "0011000", "00000010", "00000011", "00011010",
    "00011011", "00010010", "00010011", "00010100", "00010101", "00010110", "00010111", "00101000",
    "00101001", "00101010", "00101011", "00101100", "00101101", "00000100", "00000101", "00001010",
    "00001011", "01010010", "01010011", "01010100", "01010101", "00100100", "00100101", "01011000",
    "01011001", "01011010", "01011011", "01001010", "01001011", "00110010", "00110011", "00110100",
)

BLACK_TERMINATING = (
    "0000110111", "010", "11", "10", "011", "0011", "0010", "00011",
    "000101", "000100", "0000100", "0000101", "0000111", "00000100", "00000111", "000011000",
    "0000010111", "0000011000", "0000001000", "00001100111", "00001101000", "00001101100", "00000110111", "00000101000",
    "00000010111", "00000011000", "000011001010", "000011001011", "000011001100", "000011001101", "000001101000", "000001101001",
    "000001101010", "000001101011", "000011010010", "000011010011", "000011010100", "000011010101", "000011010110", "000011010111",
    "000001101100", "000001101101", "000011011010", "000011011011", "000001010100", "000001010101", "000001010110", "000001010111",
    "000001100100", "000001100101", "000001010010", "000001010011", "000000100100", "000000110111", "000000111000", "000000100111",
    "000000101000", "000001011000", "000001011001", "000000101011", "000000101100", "000001011010", "000001100110", "000001100111",
)

# Make-up codes for runs 64..1728, color-specific.
WHITE_MAKEUP = {
    64: "11011", 128: "10010", 192: "010111", 256: "0110111",
    320: "00110110", 384: "00110111", 448: "01100100", 512: "01100101",
    576: "01101000", 640: "01100111", 704: "011001100", 768: "011001101",
    832: "011010010", 896: "011010011", 960: "011010100", 1024: "011010101",
    1088: "011010110", 1152: "011010111", 1216: "011011000", 1280: "011011001",
    1344: "011011010", 1408: "011011011", 1472: "010011000", 1536: "010011001",
    1600: "010011010", 1664: "011000", 1728: "010011011",
}

BLACK_MAKEUP = {
    64: "0000001111", 128: "000011001000", 192: "000011001001", 256: "000001011011",
    320: "000000110011", 384: "000000110100", 448: "000000110101", 512: "0000001101100",
    576: "0000001101101", 640: "0000001001010", 704: "0000001001011", 768: "0000001001100",
    832: "0000001001101", 896: "0000001110010", 960: "0000001110011", 1024: "0000001110100",
    1088: "0000001110101", 1152: "0000001110110", 1216: "0000001110111", 1280: "0000001010010",
    1344: "0000001010011", 1408: "0000001010100", 1472: "0000001010101", 1536: "0000001011010",
    1600: "0000001011011", 1664: "0000001100100", 1728: "0000001100101",
}

# Extended make-up codes for 1792..2560, shared by both colors.
EXTENDED_MAKEUP = {
    1792: "00000001000", 1856: "00000001100", 1920: "00000001101",
    1984: "000000010010", 2048: "000000010011", 2112: "000000010100",
    2176: "000000010101", 2240: "000000010110", 2304: "000000010111",
    2368: "000000011100", 2432: "000000011101", 2496: "000000011110",
    2560: "000000011111",
}

MAX_MAKEUP = 2560
MAX_SINGLE_RUN = MAX_MAKEUP + 63  # longest run one make-up + terminating pair covers

_WHITE_MAKEUP_ALL = {**WHITE_MAKEUP, **EXTENDED_MAKEUP}
_BLACK_MAKEUP_ALL = {**BLACK_MAKEUP, **EXTENDED_MAKEUP}


def _int_code(code: str) -> tuple[int, int]:
    return int(code, 2), len(code)


# (code, bit count) pairs for the encoder
_WHITE_CODES = [_int_code(c) for c in WHITE_TERMINATING]
_BLACK_CODES = [_int_code(c) for c in BLACK_TERMINATING]
_WHITE_MAKEUP_CODES = {run: _int_code(c) for run, c in _WHITE_MAKEUP_ALL.items()}
_BLACK_MAKEUP_CODES = {run: _int_code(c) for run, c in _BLACK_MAKEUP_ALL.items()}

# The encoder moves whole bytes out of its integer accumulator once it holds
# more bits than this, so that shifting the accumulator costs the same at
# any row width.
_FLUSH_BITS = 1024


def _run_code(length: int, white: bool) -> tuple[int, int]:
    """(code, bit count) of the codewords for one run of the given color."""
    if length < 0:
        raise ValidationError(f"negative run length {length}")
    repeats = max(0, -(-(length - MAX_SINGLE_RUN) // MAX_MAKEUP))
    length -= repeats * MAX_MAKEUP
    code, n = (_WHITE_CODES if white else _BLACK_CODES)[length % 64]
    if length >= 64:
        head, bits = (_WHITE_MAKEUP_CODES if white else _BLACK_MAKEUP_CODES)[length - length % 64]
        code, n = head << n | code, bits + n
    if repeats:
        # built from a string: shifting the code in one make-up code at a
        # time would take time quadratic in the run length
        longest = EXTENDED_MAKEUP[MAX_MAKEUP]
        code, n = int(longest * repeats, 2) << n | code, len(longest) * repeats + n
    return code, n


def _flush(out: bytearray, acc: int, nbits: int) -> tuple[int, int]:
    """Move the whole bytes of the `nbits` low bits of `acc` to `out`."""
    keep = nbits % 8
    out += (acc >> keep).to_bytes(nbits // 8, "big")
    return acc & (1 << keep) - 1, keep


def _put_row(out: bytearray, acc: int, nbits: int, row: Sequence[int]) -> tuple[int, int]:
    """Append one row's codewords to the bit stream held in `out` and in the
    `nbits` low bits of `acc`; returns the new (acc, nbits)."""
    codes, other = _WHITE_CODES, _BLACK_CODES
    for length in row:
        if 0 <= length < 64:
            code, n = codes[length]
        else:
            code, n = _run_code(length, codes is _WHITE_CODES)
        acc = acc << n | code
        nbits += n
        if nbits > _FLUSH_BITS:
            acc, nbits = _flush(out, acc, nbits)
        codes, other = other, codes
    return acc, nbits


def _bit_string(code: int, nbits: int) -> str:
    return f"{code:0{nbits}b}" if nbits else ""


def _encode_run(length: int, white: bool) -> str:
    """Codeword sequence for one run of the given color."""
    return _bit_string(*_run_code(length, white))


# Bits in a decoder window: the longest codeword (black make-up codes of
# 13 bits). A window starting at an end-of-line code reads 12 bits of it.
_PEEK = 13


# A window that starts no codeword decodes to a code longer than any stream
# has bits left, so one bounds test covers both a miss and a code cut off by
# the end of the stream.
_NO_CODE = (1 << 62, 0, False)


def _build_decode_table(terminating, makeup) -> list[tuple[int, int, bool]]:
    """(code length, run value, is terminating) for every 13-bit window."""
    table = [_NO_CODE] * (1 << _PEEK)
    codes = [(code, value, True) for value, code in enumerate(terminating)]
    codes += [(code, value, False) for value, code in makeup.items()]
    for code, value, terminating_code in codes:
        span = 1 << (_PEEK - len(code))
        start = int(code, 2) * span
        table[start : start + span] = [(len(code), value, terminating_code)] * span
    return table


_WHITE_DECODE = _build_decode_table(WHITE_TERMINATING, _WHITE_MAKEUP_ALL)
_BLACK_DECODE = _build_decode_table(BLACK_TERMINATING, _BLACK_MAKEUP_ALL)


def _windows(data: bytes) -> memoryview:
    """The _PEEK bits that start at each bit position of `data`, MSB first
    and zero past its end, with one more all-zero window at the end position.

    Two bytes per bit, as an unsigned 16-bit buffer: indexing it gives plain
    ints without a Python object per bit."""
    n = len(data)
    b = np.zeros(n + 2, dtype=np.uint32)
    b[:n] = np.frombuffer(data, dtype=np.uint8)
    words = b[:-2] << 16 | b[1:-1] << 8 | b[2:]  # the 24 bits from each byte on
    win = np.zeros(8 * n + 1, dtype=np.uint16)
    lanes = win[: 8 * n].reshape(n, 8)
    for shift in range(8):
        lanes[:, shift] = words >> (24 - _PEEK - shift) & (1 << _PEEK) - 1
    return memoryview(win)


def _bit_string_windows(bits: str) -> memoryview:
    if not set(bits) <= {"0", "1"}:
        raise ValidationError("a bit string holds only '0' and '1'")
    padded = bits + "0" * (-len(bits) % 8)
    return _windows(int(padded or "0", 2).to_bytes(len(padded) // 8, "big"))


def _codeword_error(win, nbits: int, pos: int, white: bool) -> FormatError:
    """Why no codeword of the given color fits at `pos`."""
    if nbits - pos >= len(EOL) and win[pos] >> (_PEEK - len(EOL)) == 1:
        return FormatError(f"unexpected end-of-line code at bit {pos}")
    color = "white" if white else "black"
    if nbits - pos < _PEEK:
        return FormatError(f"bit stream ended inside a {color} run at bit {pos}")
    return FormatError(f"invalid {color} codeword at bit {pos}")


def _run_at(win, nbits: int, pos: int, white: bool) -> tuple[int, int]:
    """Decode one run (make-up codes plus terminating code) at `pos`.

    Returns (run length, new position)."""
    table = _WHITE_DECODE if white else _BLACK_DECODE
    total = 0
    while True:
        n, value, terminating = table[win[pos]]
        if pos + n > nbits:
            raise _codeword_error(win, nbits, pos, white)
        pos += n
        total += value
        if terminating:
            return total, pos


def _decode_run(bits: str, pos: int, white: bool) -> tuple[int, int]:
    """Decode one run (make-up codes plus terminating code) of a '0'/'1'
    string at `pos`.

    Returns (run length, new position).
    """
    return _run_at(_bit_string_windows(bits), len(bits), pos, white)


def _decode_row_at(win, nbits: int, width: int, pos: int) -> tuple[RunRow, int]:
    runs = []
    total = 0
    table, other = _WHITE_DECODE, _BLACK_DECODE
    while total < width:
        n, length, terminating = table[win[pos]]
        if terminating and pos + n <= nbits:
            pos += n  # the common case: one terminating code
        else:
            length, pos = _run_at(win, nbits, pos, table is _WHITE_DECODE)
        runs.append(length)
        total += length
        table, other = other, table
    if total > width:
        raise FormatError(f"runs overrun the declared width {width} ({total} pixels)")
    if 0 in runs[1:]:
        # foreign encoders may split very long runs with zero-length
        # terminators; normalizing keeps the background-first canonical form
        return canonicalize_row(runs), pos
    return tuple(runs), pos


def mh_encode_row(row: Sequence[int]) -> str:
    """Encode one canonical run row as a '0'/'1' codeword string."""
    if not is_canonical(row):
        raise ValidationError(f"run row is not canonical: {list(row)}")
    out = bytearray()
    acc, nbits = _put_row(out, 0, 0, row)
    return _bit_string(int.from_bytes(out, "big"), 8 * len(out)) + _bit_string(acc, nbits)


def mh_decode_row(bits: str, width: int) -> RunRow:
    """Decode a single row's codewords; all bits must be consumed."""
    row, pos = _decode_row_at(_bit_string_windows(bits), len(bits), width, 0)
    if pos != len(bits):
        raise FormatError(f"{len(bits) - pos} unconsumed bits after the row")
    return row


def mh_encode_image(doc: CompressedDoc, *, eol: bool, byte_align: bool = False) -> bytes:
    """Encode a whole document under the chosen framing (see module docs)."""
    out = bytearray()
    # the stream is `out`, which holds whole bytes, then the `nbits` low
    # bits of `acc`; so `nbits` modulo 8 is the stream's, which sets the fill
    acc = nbits = 0
    for row in doc.rows:
        if eol:
            fill = -(nbits + len(EOL)) % 8 if byte_align else 0
            acc = acc << (fill + len(EOL)) | 1  # EOL: eleven zeros and a one
            nbits += fill + len(EOL)
        acc, nbits = _put_row(out, acc, nbits, row)
        if not eol and byte_align:
            fill = -nbits % 8
            acc <<= fill
            nbits += fill
    pad = -nbits % 8
    _flush(out, acc << pad, nbits + pad)
    return bytes(out)


def _expect_eol(win, nbits: int, pos: int, row_number: int) -> int:
    """Consume optional zero fill plus one end-of-line code."""
    p = pos
    while p < nbits and not win[p]:
        p += _PEEK
    if p >= nbits:
        raise FormatError(f"stream ended while seeking the end-of-line code of row {row_number}")
    p += _PEEK - win[p].bit_length()  # the first one bit
    if p - pos < len(EOL) - 1:
        raise FormatError(f"missing end-of-line code before row {row_number} (bit {pos})")
    return p + 1


def mh_decode_image(
    data: bytes, width: int, height: int, *, eol: bool, byte_align: bool = False
) -> CompressedDoc:
    """Decode `height` rows of `width` pixels from packed bytes."""
    if not 1 <= width <= MAX_DIM or not 1 <= height <= MAX_DIM:
        raise ValidationError(f"bad dimensions {width} x {height}")
    win = _windows(data)
    nbits = 8 * len(data)
    pos = 0
    # grown row by row, so a stream that ends early costs no more than it holds
    runs = array("q")  # every row's runs back to back
    offsets = array("q", [0])
    for number in range(1, height + 1):
        if eol:
            pos = _expect_eol(win, nbits, pos, number)
        elif byte_align and pos % 8:
            fill = 8 - pos % 8
            if win[pos] >> (_PEEK - fill):
                raise FormatError(f"nonzero padding bits before row {number}")
            pos += fill
        try:
            row, pos = _decode_row_at(win, nbits, width, pos)
        except FormatError as exc:
            raise FormatError(f"row {number}: {exc}") from None
        runs.extend(row)
        offsets.append(len(runs))
    if nbits - pos >= 8 or win[pos]:
        raise FormatError(f"trailing data after the last row at bit {pos}")
    return CompressedDoc._trusted(
        width, height, np.frombuffer(runs, dtype=np.int64), np.frombuffer(offsets, dtype=np.int64)
    )
