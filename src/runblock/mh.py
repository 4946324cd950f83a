"""ITU-T T.4 one-dimensional Modified Huffman fax codec.

Each row is coded as alternating white/black run lengths starting with a
white run (a zero-length white code leads rows that start black). Runs of
0..63 pixels use a terminating code; longer runs use one or more make-up
codes (multiples of 64, color-specific up to 1728, shared "extended" codes
up to 2560) followed by a terminating code. Runs longer than 2623 are
handled by repeating the 2560 make-up code.

At the row level, bits travel as strings of '0'/'1'. At the image level
they are packed into bytes MSB-first with two framing options:

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

from typing import Sequence

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


def _build_decode_table(terminating, makeup):
    table = {}
    for value, code in enumerate(terminating):
        table[code] = (True, value)
    for value, code in makeup.items():
        table[code] = (False, value)
    return table


_WHITE_DECODE = _build_decode_table(WHITE_TERMINATING, _WHITE_MAKEUP_ALL)
_BLACK_DECODE = _build_decode_table(BLACK_TERMINATING, _BLACK_MAKEUP_ALL)
_MIN_CODE = 2
_MAX_CODE = 13


def _encode_run(length: int, white: bool) -> str:
    """Codeword sequence for one run of the given color."""
    if length < 0:
        raise ValidationError(f"negative run length {length}")
    terminating = WHITE_TERMINATING if white else BLACK_TERMINATING
    makeup = _WHITE_MAKEUP_ALL if white else _BLACK_MAKEUP_ALL
    parts = []
    while length > MAX_SINGLE_RUN:
        parts.append(makeup[MAX_MAKEUP])
        length -= MAX_MAKEUP
    if length >= 64:
        parts.append(makeup[(length // 64) * 64])
        length %= 64
    parts.append(terminating[length])
    return "".join(parts)


def _decode_run(bits: str, pos: int, white: bool) -> tuple[int, int]:
    """Decode one run (make-up codes plus terminating code) at `pos`.

    Returns (run length, new position).
    """
    table = _WHITE_DECODE if white else _BLACK_DECODE
    color = "white" if white else "black"
    total = 0
    while True:
        limit = min(_MAX_CODE, len(bits) - pos)
        match = None
        for n in range(_MIN_CODE, limit + 1):
            match = table.get(bits[pos : pos + n])
            if match is not None:
                pos += n
                break
        if match is None:
            if len(bits) - pos >= len(EOL) and bits[pos : pos + len(EOL)] == EOL:
                raise FormatError(f"unexpected end-of-line code at bit {pos}")
            if len(bits) - pos < _MAX_CODE:
                raise FormatError(f"bit stream ended inside a {color} run at bit {pos}")
            raise FormatError(f"invalid {color} codeword at bit {pos}")
        is_terminating, value = match
        total += value
        if is_terminating:
            return total, pos


def _decode_row_at(bits: str, width: int, pos: int) -> tuple[RunRow, int]:
    runs = []
    total = 0
    white = True
    while total < width:
        length, pos = _decode_run(bits, pos, white)
        runs.append(length)
        total += length
        if total > width:
            raise FormatError(f"runs overrun the declared width {width} ({total} pixels)")
        white = not white
    # foreign encoders may split very long runs with zero-length terminators;
    # normalizing keeps the background-first canonical form
    return canonicalize_row(runs), pos


def mh_encode_row(row: Sequence[int]) -> str:
    """Encode one canonical run row as a '0'/'1' codeword string."""
    if not is_canonical(row):
        raise ValidationError(f"run row is not canonical: {list(row)}")
    return "".join(_encode_run(length, white=(i % 2 == 0)) for i, length in enumerate(row))


def mh_decode_row(bits: str, width: int) -> RunRow:
    """Decode a single row's codewords; all bits must be consumed."""
    row, pos = _decode_row_at(bits, width, 0)
    if pos != len(bits):
        raise FormatError(f"{len(bits) - pos} unconsumed bits after the row")
    return row


def _pack_bits(bits: str) -> bytes:
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def _unpack_bits(data: bytes) -> str:
    return "".join(f"{b:08b}" for b in data)


def mh_encode_image(doc: CompressedDoc, *, eol: bool, byte_align: bool = False) -> bytes:
    """Encode a whole document under the chosen framing (see module docs)."""
    chunks = []
    length = 0
    for row in doc.rows:
        if eol:
            if byte_align:
                fill = -(length + len(EOL)) % 8
                chunks.append("0" * fill)
                length += fill
            chunks.append(EOL)
            length += len(EOL)
        row_bits = mh_encode_row(row)
        chunks.append(row_bits)
        length += len(row_bits)
        if not eol and byte_align:
            fill = -length % 8
            chunks.append("0" * fill)
            length += fill
    chunks.append("0" * (-length % 8))
    return _pack_bits("".join(chunks))


def _expect_eol(bits: str, pos: int, row_number: int) -> int:
    """Consume optional zero fill plus one end-of-line code."""
    p = pos
    while p < len(bits) and bits[p] == "0":
        p += 1
    if p >= len(bits):
        raise FormatError(f"stream ended while seeking the end-of-line code of row {row_number}")
    if p - pos < len(EOL) - 1:
        raise FormatError(f"missing end-of-line code before row {row_number} (bit {pos})")
    return p + 1


def mh_decode_image(
    data: bytes, width: int, height: int, *, eol: bool, byte_align: bool = False
) -> CompressedDoc:
    """Decode `height` rows of `width` pixels from packed bytes."""
    if not 1 <= width <= MAX_DIM or not 1 <= height <= MAX_DIM:
        raise ValidationError(f"bad dimensions {width} x {height}")
    bits = _unpack_bits(data)
    pos = 0
    rows = []
    for number in range(1, height + 1):
        if eol:
            pos = _expect_eol(bits, pos, number)
        elif byte_align and pos % 8:
            fill = 8 - pos % 8
            if bits[pos : pos + fill].strip("0"):
                raise FormatError(f"nonzero padding bits before row {number}")
            pos += fill
        try:
            row, pos = _decode_row_at(bits, width, pos)
        except FormatError as exc:
            raise FormatError(f"row {number}: {exc}") from None
        rows.append(row)
    tail = bits[pos:]
    if len(tail) >= 8 or tail.strip("0"):
        raise FormatError(f"trailing data after the last row at bit {pos}")
    return CompressedDoc._trusted(width, height, tuple(rows))
