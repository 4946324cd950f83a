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
end). The codes are prefix-free, so a lookup of the zero-padded window
names exactly the codeword a bit-by-bit search would find. Each step of
the decoder looks the window up in a per-color table of 8192 entries that
covers every whole terminating code in it, colors alternating, and takes
them all at once: on text rows, three or four codes a step. A window that
starts with a make-up code, or whose codes would reach the end of the row
or of the stream, is read one codeword at a time instead, with a per-color
table of (code length, run value, is terminating), which also gives every
diagnosis. The loop records one key per step; after the last row, one
numpy gather turns the keys into the document's runs. `mh_encode_row` and
`mh_decode_row` keep a '0'/'1' string interface over the same code.

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

import functools
import itertools
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


# A row decodes as one key per step of the loop. A key of 0 or more is
# `color << _PEEK | window`, with color 0 for white and 1 for black; it
# stands for the whole terminating codes at the start of that window,
# colors alternating. A negative key is `~length`, one run decoded code by
# code. `_gather` turns the keys into runs once all rows are read.
_BLACK = 1 << _PEEK
# At most 4 whole terminating codes fit in a window: white codes take 4 bits
# or more and black codes 2 or more, so 5 take at least 2 + 4 + 2 + 4 + 2 = 14.
_SLOTS = 4
# A step of the loop packs, per key, `bits used << _STEP_BITS | color flip |
# pixel sum`: the flip is 0 or _BLACK, and the sum of 4 runs of at most 63
# pixels stays below _BLACK.
_STEP_BITS = _PEEK + 1
_STEP_PIXELS = _BLACK - 1


@functools.cache
def _window_tables() -> tuple[list[int], np.ndarray, np.ndarray]:
    """The whole terminating codes at the start of every window.

    For each key, codes are read from the window's first bit, in the key's
    color and then alternating, up to the first code that is not
    terminating or does not end inside the window. Returns, per key:

    * steps: the packed step, where a key without such a code uses more
      bits than any stream holds, so that the loop falls back to `_run_at`;
    * slot_runs: the run of each code, by slot;
    * counts: the number of codes.

    `slot_runs` and `counts` have one more row, for the key of a single run:
    one code, whose run `_gather` fills in.
    """
    # the length and run of the terminating code that starts each window, by
    # color; a window that starts none gets a length longer than the window
    lengths = np.full((2, 1 << _PEEK), _PEEK + 1, dtype=np.int32)
    values = np.zeros((2, 1 << _PEEK), dtype=np.int32)
    for color, terminating in enumerate((WHITE_TERMINATING, BLACK_TERMINATING)):
        for value, code in enumerate(terminating):
            span = 1 << (_PEEK - len(code))
            start = int(code, 2) * span
            lengths[color, start : start + span] = len(code)
            values[color, start : start + span] = value
    keys = np.arange(2 << _PEEK, dtype=np.int32)
    window = keys & (1 << _PEEK) - 1
    color = keys >> _PEEK
    used = np.zeros_like(keys)
    counts = np.zeros_like(keys)
    slot_runs = np.zeros((keys.size + 1, _SLOTS), dtype=np.uint8)
    reading = np.ones(keys.size, dtype=bool)
    for slot in range(_SLOTS):
        rest = window << used & (1 << _PEEK) - 1  # the bits after `used`, zero filled
        n = lengths[color, rest]
        reading &= used + n <= _PEEK
        slot_runs[:-1, slot] = np.where(reading, values[color, rest], 0)
        used += np.where(reading, n, 0)
        counts += reading
        color ^= reading
    # 2**48 bits, more than any stream holds, and the packed step fits in 64 bits
    bits = used.astype(np.int64)
    bits[counts == 0] = _NO_CODE[0] >> _STEP_BITS
    steps = bits << _STEP_BITS | (counts & 1) << _PEEK | slot_runs[:-1].sum(axis=1, dtype=np.int64)
    # one int object per distinct step: the keys share a few hundred
    distinct = {}
    steps = [distinct.setdefault(step, step) for step in steps.tolist()]
    return steps, slot_runs, np.append(counts, 1).astype(np.uint8)


def _decode_row_at(win, nbits: int, width: int, pos: int, keys: array) -> int:
    """Decode one row at `pos`, appending its keys to `keys`.

    Returns the new position."""
    steps = _window_tables()[0]
    append = keys.append
    total = 0
    color = 0
    while total < width:
        key = color | win[pos]
        step = steps[key]
        pixels = step & _STEP_PIXELS
        bits = step >> _STEP_BITS
        # whole codes that leave the row open: the common case
        if total + pixels < width and pos + bits <= nbits:
            total += pixels
            pos += bits
            color ^= step & _BLACK
            append(key)
        else:
            length, pos = _run_at(win, nbits, pos, not color)
            total += length
            color ^= _BLACK
            append(~length)
    if total > width:
        raise FormatError(f"runs overrun the declared width {width} ({total} pixels)")
    return pos


def _gather(keys: array, row_ends: list) -> tuple[np.ndarray, np.ndarray]:
    """(runs, offsets) of decoded rows, from their keys and the number of
    keys at the end of each row. Rows with a zero run after their first
    are canonicalized."""
    _, slot_runs, counts = _window_tables()
    # the keys become table rows in place, in the buffer of `keys`
    index = np.frombuffer(keys, dtype=np.int64)
    single = index < 0
    lengths = ~index[single]
    index[single] = len(counts) - 1
    key_counts = counts.take(index)
    ends = np.cumsum(key_counts, dtype=np.int64)
    runs = slot_runs.take(index, axis=0)[np.arange(_SLOTS) < key_counts[:, None]].astype(np.int64)
    runs[ends[single] - 1] = lengths
    offsets = np.concatenate(([0], ends))[row_ends]
    zeros = np.flatnonzero(runs == 0)
    rows_of_zeros = np.searchsorted(offsets, zeros, side="right") - 1
    split = rows_of_zeros[zeros != offsets[rows_of_zeros]]
    if split.size:
        # foreign encoders may split very long runs with zero-length
        # terminators; normalizing keeps the background-first canonical form
        rows = np.split(runs, offsets[1:-1])
        for i in set(split.tolist()):
            rows[i] = canonicalize_row(rows[i])
        runs = np.concatenate(rows).astype(np.int64)
        offsets = np.array([0, *itertools.accumulate(map(len, rows))], dtype=np.int64)
    return runs, offsets


def mh_encode_row(row: Sequence[int]) -> str:
    """Encode one canonical run row as a '0'/'1' codeword string."""
    if not is_canonical(row):
        raise ValidationError(f"run row is not canonical: {list(row)}")
    out = bytearray()
    acc, nbits = _put_row(out, 0, 0, row)
    return _bit_string(int.from_bytes(out, "big"), 8 * len(out)) + _bit_string(acc, nbits)


def mh_decode_row(bits: str, width: int) -> RunRow:
    """Decode a single row's codewords; all bits must be consumed."""
    keys = array("q")
    pos = _decode_row_at(_bit_string_windows(bits), len(bits), width, 0, keys)
    if pos != len(bits):
        raise FormatError(f"{len(bits) - pos} unconsumed bits after the row")
    return tuple(_gather(keys, [0, len(keys)])[0].tolist())


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
    keys = array("q")
    row_ends = [0]
    for number in range(1, height + 1):
        if eol:
            pos = _expect_eol(win, nbits, pos, number)
        elif byte_align and pos % 8:
            fill = 8 - pos % 8
            if win[pos] >> (_PEEK - fill):
                raise FormatError(f"nonzero padding bits before row {number}")
            pos += fill
        try:
            pos = _decode_row_at(win, nbits, width, pos, keys)
        except FormatError as exc:
            raise FormatError(f"row {number}: {exc}") from None
        row_ends.append(len(keys))
    if nbits - pos >= 8 or win[pos]:
        raise FormatError(f"trailing data after the last row at bit {pos}")
    del win  # two bytes per bit of input, not needed to build the runs
    return CompressedDoc._trusted(width, height, *_gather(keys, row_ends))
