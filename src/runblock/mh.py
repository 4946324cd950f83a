"""ITU-T T.4 one-dimensional Modified Huffman fax codec.

Each row is coded as alternating white/black run lengths starting with a
white run (a zero-length white code leads rows that start black). Runs of
0..63 pixels use a terminating code; longer runs use one or more make-up
codes (multiples of 64, color-specific up to 1728, shared "extended" codes
up to 2560) followed by a terminating code. Runs longer than 2623 are
handled by repeating the 2560 make-up code.

Both directions read one table of (code, bit count) pairs, `_code_table`,
built once from the codebooks. The encoder is array code over it:
`np.repeat` turns each run into its codewords, `np.insert` adds one
pseudo-codeword per row for the framing (fill and end-of-line code, or fill
alone), and each codeword, left-aligned in 24 bits, is unpacked to one byte
per bit and cut to its length. It works on a chunk of rows at a time, so
its temporaries follow a chunk, not the page. The decoder builds its own
table of windows from the same pairs. It first computes, for every bit
position of the stream, the 13 bits that start there (zero past the end).
The codes are prefix-free, so a lookup of the zero-padded window names
exactly the codeword a bit-by-bit search would find.

The decoder reads one table of two entries per key, a window together with
the row's color and whether the row is inside a run. The whole-code entry
takes every whole terminating code at the start of the window, colors
alternating: on text rows, three or four codes at once. The codeword entry
takes the window's first codeword alone, and a key whose window starts no
codeword marks the row stuck. Each step of a row takes one entry and
records the entry's index in the table; after the last row, one numpy
gather turns the records into the document's runs. The serial loop decodes
row by row. It takes the whole-code entry while the row stays open after
it, and otherwise reads one run code by code, which also gives every
diagnosis. `mh_encode_row` and `mh_decode_row` keep a '0'/'1' string
interface over the same code.

With end-of-line codes, both loops take the codes from one array scan of
the windows, `_eol_starts`, and check the fill before each by one rule: the
bits from where the fill starts to the first code at or after it are all
zero exactly when the 11 bits where it starts are. The serial loop raises
at a one among those 11 bits, and otherwise goes on after that first code,
or raises if there is none.

A stream with end-of-line codes and at least `LOCKSTEP_ROWS` rows is first
decoded in lock step, every row at once. No two consecutive codewords hold
eleven zeros in a row (a codeword starts with at most seven and ends with
at most three), so one array scan of the windows finds every end-of-line
code, and so every row start, before a bit is decoded. Each numpy
iteration then takes one entry for every open row, the one the serial loop
would take, and so records what the serial loop records. Once fewer than
`LOCKSTEP_ROWS` rows are open and none of them is inside a run, each goes
on in the serial loop from its bit position, pixels read and color, and
one stable sort by row puts every record in place. Array checks then
confirm what the serial loop checks: exactly `height` end-of-line codes,
each row ending at exactly its width outside a run, each row's code at or
after the end of the row above with 11 zero bits there, and the rule on
trailing data, which the last row fails if it read past the end of the
stream. If any check fails, or a row is stuck or past the stream when lock
step hands it on, the serial loop decodes the whole stream and gives the
diagnosis, so lock step has no error of its own. Streams without end-of-line codes stay on the serial
loop: a row's start is known only once the row above it is decoded.

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

from . import core
from .core import MAX_DIM, CompressedDoc, RunRow, canonicalize_row
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


# Bits in a decoder window: the longest codeword (black make-up codes of
# 13 bits). A window starting at an end-of-line code reads 12 bits of it.
_PEEK = 13


@functools.cache
def _code_table() -> np.ndarray:
    """(code, bit count) of every codeword, by color: the terminating code of
    a run of v pixels at index v, and the make-up code of v at 63 + v // 64."""
    table = np.zeros((2, 64 + MAX_MAKEUP // 64, 2), dtype=np.int32)
    for color, (terminating, makeup) in enumerate(((WHITE_TERMINATING, WHITE_MAKEUP), (BLACK_TERMINATING, BLACK_MAKEUP))):
        codes = [*enumerate(terminating), *((63 + v // 64, c) for v, c in {**makeup, **EXTENDED_MAKEUP}.items())]
        for index, code in codes:
            table[color, index] = int(code, 2), len(code)
    table.flags.writeable = False  # shared by every call
    return table


def _row_bits(runs: np.ndarray, offsets: np.ndarray, eol: bool, byte_align: bool, carry: int) -> np.ndarray:
    """The framed codewords of the rows (runs, offsets), one uint8 per bit.

    `carry` is the number of stream bits before the rows, or that number
    modulo 8: it sets the fill before the first end-of-line code."""
    # a run's color is the parity of its index within its row
    color = (np.arange(runs.size) - np.repeat(offsets[:-1], np.diff(offsets))) & 1
    # A run becomes three slots of codewords: the 2560 make-up code
    # `repeats` times, a make-up code for the rest when it is over 63, and
    # the terminating code of the rest.
    repeats = np.maximum(-(-(runs - MAX_SINGLE_RUN) // MAX_MAKEUP), 0)
    rest = runs - repeats * MAX_MAKEUP
    table = _code_table()
    index = np.stack([np.full_like(rest, 63 + MAX_MAKEUP // 64), 63 + rest // 64, rest % 64], axis=1)
    index += table.shape[1] * color[:, None]  # black's codes follow white's in the flat table
    times = np.stack([repeats, rest > 63, np.ones_like(rest)], axis=1).ravel()
    words = table.reshape(-1, 2).take(np.repeat(index.ravel(), times), axis=0)
    # the first codeword and the first bit of each row
    starts = np.concatenate(([0], np.cumsum(times)))[3 * offsets]
    row_bits = np.diff(np.concatenate(([0], np.cumsum(words[:, 1])))[starts])
    # One pseudo-codeword per row frames it: the fill and the end-of-line
    # code before the row, or without end-of-line codes the row's own fill
    # after it. `ahead` counts the bits from the last byte boundary to where
    # the fill goes; without end-of-line codes an aligned stream is at a
    # byte boundary after every row.
    ahead = np.concatenate(([carry], row_bits[:-1])) + len(EOL) if eol else row_bits
    fill = -ahead % 8 * byte_align
    frame = np.stack([np.full_like(fill, eol), fill + eol * len(EOL)], axis=1)
    code, length = np.insert(words, starts[:-1] if eol else starts[1:], frame, axis=0).T
    # each codeword left-aligned in 24 bits, cut to its length; fill and
    # end-of-line code take at most 7 + 12
    aligned = (code << 24 - length).astype(">u4").view(np.uint8).reshape(-1, 4)[:, 1:]
    return np.unpackbits(aligned, axis=1)[np.arange(24, dtype=length.dtype) < length[:, None]]


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


# A key is `state | window`. The state holds the row's color in bit _PEEK
# (0 for white, _BLACK for black) and, in the next bit, whether the row is
# inside a run whose make-up codes have been read but not its terminating
# code.
_BLACK = 1 << _PEEK
_INSIDE = _BLACK << 1
# The decode table holds two entries per key: its whole-code step at `key`
# and its first codeword at `_CODE | key`. Each step of a decoder loop
# records the index of the entry it took, and `_gather` turns the records
# into runs.
_CODE = _INSIDE << 1
# A window that starts no codeword enters the stuck state, whose keys lie
# past the table.
_STUCK = _CODE << 1
# An entry packs `bits used << _USED | runs ended << _RUNS | flags | pixels`.
# The flags are _CODE in a codeword entry and the state bits the entry
# flips. A whole-code step ends at most 4 runs: white codes take 4 bits or
# more and black codes 2 or more, so 5 take at least 2 + 4 + 2 + 4 + 2 = 14.
_SLOTS = 4
_RUNS = _STUCK.bit_length()
_ENDS = 1 << _RUNS  # a codeword that ends a run
_USED = _RUNS + 3
_PIXELS = _BLACK - 1


@functools.cache
def _tables() -> tuple[np.ndarray, memoryview, np.ndarray, list[int]]:
    """The decode table and the views of it that the decoder reads:

    * table: for each key, its whole-code step, then for each key its first
      codeword. A whole-code step takes the terminating codes at the start
      of the window, colors alternating, up to the first code that is not
      terminating or does not end inside the window. A key outside a run
      without such a code, and every key inside a run, has its codeword
      entry as its step. A make-up code that enters a run counts one pixel
      less, and the terminating code that leaves it one more, so that a row
      whose runs reach its width only with the terminating code stays open
      until then.
    * entries: the table as a memoryview, whose items are plain ints.
    * slot_runs: the runs of the whole-code step of each key outside a run.
    * steps: those steps for the serial loop, where a key without one uses
      more bits than any stream holds.
    """
    table = np.full(2 * _CODE, _CODE | _STUCK, dtype=np.int32)
    step, code = table[:_CODE], table[_CODE:]
    for color, codes in enumerate(_code_table().tolist()):
        for index, (word, length) in enumerate(codes):
            windows = slice(word << _PEEK - length, word + 1 << _PEEK - length)  # that start with it
            # a terminating code (of `index` pixels) ends the run and flips
            # the color; a make-up code (of 64 * (index - 63)) enters the
            # run, or keeps the row inside it
            value = index if index < 64 else 64 * (index - 63)
            entry = length << _USED | _CODE | (_ENDS | _BLACK | value if index < 64 else _INSIDE | value - 1)
            code[color << _PEEK :][windows] = entry
            code[_INSIDE | color << _PEEK :][windows] = (entry ^ _INSIDE) + 1
    step[:] = code
    key = np.arange(_INSIDE)
    state = key & _BLACK
    used = np.zeros_like(key)
    runs = np.zeros_like(key)
    slot_runs = np.zeros((_INSIDE, _SLOTS), dtype=np.uint8)
    reading = np.ones(_INSIDE, dtype=bool)
    for slot in range(_SLOTS):
        entry = code.take(state | key << used & _PIXELS)  # the bits after `used`, zero filled
        reading &= (entry & _ENDS != 0) & (used + (entry >> _USED) <= _PEEK)
        slot_runs[:, slot] = reading * (entry & _PIXELS)
        used += reading * (entry >> _USED)
        runs += reading
        state ^= reading * _BLACK
    whole = runs > 0
    pixels = slot_runs.sum(axis=1, dtype=np.int64)
    step[:_INSIDE][whole] = (used << _USED | runs << _RUNS | (runs & 1) << _PEEK | pixels)[whole]
    table.flags.writeable = False  # shared by every call
    # one int object per distinct step: the keys share some hundreds
    distinct = {}
    steps = [distinct.setdefault(s, s) if not s & _CODE else 1 << 62 for s in step[:_INSIDE].tolist()]
    return table, memoryview(table), slot_runs, steps


def _decode_row_at(win, nbits: int, width: int, pos: int, records: array, total: int = 0, color: int = 0) -> int:
    """Decode one row at `pos`, appending its records to `records`. A row
    that lock step has begun goes on from its pixels read, `total`, and its
    color, `color` (0 or _BLACK), outside a run.

    Returns the new position."""
    _, entries, _, steps = _tables()
    append = records.append
    while total < width:
        key = color | win[pos]
        step = steps[key]
        pixels = step & _PIXELS
        bits = step >> _USED
        # whole codes that leave the row open: the common case
        if total + pixels < width and pos + bits <= nbits:
            total += pixels
            pos += bits
            color ^= step & _BLACK
            append(key)
            continue
        # one run, code by code
        while True:
            index = _CODE | color | win[pos]
            entry = entries[index]
            bits = entry >> _USED
            if entry & _STUCK or pos + bits > nbits:
                raise _codeword_error(win, nbits, pos, not color & _BLACK)
            total += entry & _PIXELS
            pos += bits
            color ^= entry & (_BLACK | _INSIDE)
            append(index)
            if entry & _ENDS:
                break
    if total > width:
        raise FormatError(f"runs overrun the declared width {width} ({total} pixels)")
    return pos


def _gather(records, row_ends) -> tuple[np.ndarray, np.ndarray]:
    """(runs, offsets) of decoded rows, from their records and the number of
    records at the end of each row. Rows with a zero run after their first
    are canonicalized."""
    table, _, slot_runs, _ = _tables()
    records = np.asarray(records, dtype=np.uint16)
    entry = table.take(records)
    counts = entry >> _RUNS & 7
    ends = np.cumsum(counts)
    # A whole-code step's runs are the first `count` slots of its key, and a
    # codeword that ends a run takes one slot, filled below. The slots are
    # picked by one lookup per record: numpy is slow on rows of 4 elements.
    first = np.arange(_SLOTS) < np.arange(_SLOTS + 1)[:, None]
    slots = slot_runs.take(records & _INSIDE - 1, axis=0)
    runs = np.compress(first.take(counts, axis=0).ravel(), slots.ravel()).astype(np.int64)
    # a run read code by code holds the pixels of the codewords since the
    # last codeword that ended a run
    coded = records >= _CODE
    code = entry[coded]
    ending = (code & _ENDS) != 0
    runs[ends[coded][ending] - 1] = np.diff(np.cumsum(code & _PIXELS)[ending], prepend=0)
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
    doc = CompressedDoc.from_rows([row])
    bits = _row_bits(doc.runs, doc.offsets, eol=False, byte_align=False, carry=0)
    return (bits + ord("0")).tobytes().decode()


def mh_decode_row(bits: str, width: int) -> RunRow:
    """Decode a single row's codewords; all bits must be consumed."""
    core._check_integers(width=width)
    if width < 1:
        raise ValidationError(f"bad width {width}")
    records = array("H")
    pos = _decode_row_at(_bit_string_windows(bits), len(bits), width, 0, records)
    if pos != len(bits):
        raise FormatError(f"{len(bits) - pos} unconsumed bits after the row")
    return tuple(_gather(records, [0, len(records)])[0].tolist())


def mh_encode_image(doc: CompressedDoc, *, eol: bool, byte_align: bool = False) -> bytes:
    """Encode a whole document under the chosen framing (see module docs).

    The rows go to `_row_bits` in the row chunks of `core.decode_image`, so
    that its temporaries follow a chunk, not the page. Each chunk's whole
    bytes are packed, and its last bits carried into the next chunk."""
    parts, tail = [], np.zeros(0, dtype=np.uint8)
    step = max(1, core.CHUNK_PIXELS // doc.width)
    for top in range(0, doc.height, step):
        bounds = doc.offsets[top : top + step + 1]
        rows = _row_bits(doc.runs[bounds[0] : bounds[-1]], bounds - bounds[0], eol, byte_align, tail.size)
        bits = np.concatenate((tail, rows))
        whole, tail = np.split(bits, [bits.size & -8])
        parts.append(np.packbits(whole).tobytes())
    parts.append(np.packbits(tail).tobytes())
    return b"".join(parts)


# Lock step decodes the rows of an EOL-framed stream side by side while at
# least this many are open, and hands the rest to `_decode_row_at` where
# they stand; a stream of fewer rows goes to the serial loop alone. An
# iteration of lock step makes a fixed number of numpy calls for all its
# rows, where a serial step is one Python iteration, so this is the
# break-even of the two loops on pages whose rows all end at the same step:
# of the uniform pages of `tools/mh_skew.py`, 16 rows decode faster
# serially and 60 in lock step, and pages of that kind break even at 52 to
# 56 rows.
LOCKSTEP_ROWS = 56

# windows per slice of the end-of-line scan
_SCAN = 1 << 16

# A window shifted right by _FILL is its first 11 bits, the zeros of an
# end-of-line code.
_FILL = _PEEK - len(EOL) + 1


def _eol_starts(bits: np.ndarray) -> np.ndarray:
    """The bit positions, in order, where an end-of-line code starts, from
    the windows `bits` of a stream.

    Both decoder loops check the zero fill before a row's end-of-line code
    by one rule. Let f be where the fill starts, and e the first code that
    starts at or after f: the bits in [f, e) are all zero exactly when the
    11 bits at f are. A one bit before f + 11 lies before e, because the
    code at e has its one bit at e + 11 >= f + 11. And if the first one bit
    after f is at p >= f + 11, a code ends there and starts at p - 11 >= f,
    so e <= p - 11. So when the 11 bits at f are zero and no code starts at
    or after f, no one bit follows f at all.
    """
    # in slices, so that the scan's scratch stays small next to the windows
    return np.concatenate([np.flatnonzero((bits[i : i + _SCAN] >> 1) == 1) + i for i in range(0, len(bits), _SCAN)])


def _decode_lockstep(win, nbits: int, width: int, height: int):
    """Decode the rows of an EOL-framed stream side by side, one numpy
    iteration per step of every open row.

    Returns the records and row ends that `_decode_serial` would return, or
    None wherever `_decode_serial` might not return: it then decodes the
    whole stream and gives the diagnosis. Every row follows an end-of-line
    code, which no codeword sequence holds (no two consecutive codewords
    hold 11 zeros in a row), so one scan finds where every row starts, and
    a row other than the last cannot read past the next end-of-line code.
    The last row can read past the end of the stream, where the serial loop
    stops, but then it ends past it too; the rows are checked to fill the
    stream as the serial loop reads it.
    """
    bits = np.frombuffer(win, dtype=np.uint16)
    eols = _eol_starts(bits)
    if len(eols) != height:
        return None
    table = _tables()[0]
    step_half, code_half = table[:_CODE], table[_CODE:]
    row_end = np.empty(height, dtype=np.int64)
    # Each row's bit position, pixels left, state and number. A row whose
    # pixels are all read stays, reading nothing, until a quarter of the
    # rows are read.
    pos = eols + len(EOL)
    left = np.full(height, width, dtype=np.int64)
    state = np.zeros(height, dtype=np.int32)
    rid = np.arange(height, dtype=np.int32)
    # the row numbers and the records of each iteration, then those of the
    # rows handed on
    rows, keys = [], []
    try:
        while True:
            is_open = left > 0
            n_open = np.count_nonzero(is_open)
            tail = n_open < LOCKSTEP_ROWS
            if tail or 4 * n_open <= 3 * len(rid):
                read = ~is_open
                # runs that overrun the width, or a make-up code past it
                if (left[read] < (state[read] & _INSIDE)).any():
                    return None
                row_end[rid[read]] = pos[read]
                pos, left, state, rid = pos[is_open], left[is_open], state[is_open], rid[is_open]
                if tail and not (state & _INSIDE).any():
                    break
                is_open = True
            key = bits.take(pos) | state
            # A read row takes key 0. No codeword starts with 13 zeros, so it
            # reads no bits and no pixels, and it records `_CODE`, which no
            # decoded row holds.
            key *= is_open
            step = step_half.take(key)
            entry = np.where((step & _PIXELS) < left, step, code_half.take(key))
            pos += entry >> _USED
            left -= entry & _PIXELS
            state ^= entry & (_BLACK | _INSIDE | _STUCK)
            key |= entry & _CODE
            rows.append(rid)
            keys.append(key)
        # The rows still open, none inside a run, go on in the serial loop
        # from where they stand. A stuck row raises there, and so does a row
        # that has read past the stream's windows.
        records = array("H")
        for r, at, rest, s in zip(rid.tolist(), pos.tolist(), left.tolist(), state.tolist()):
            taken = len(records)
            row_end[r] = _decode_row_at(win, nbits, width, at, records, width - rest, s & _BLACK)
            rows.append(np.full(len(records) - taken, r, dtype=np.int32))
        keys.append(np.frombuffer(records, dtype=np.uint16))
    except (IndexError, FormatError):  # a row is stuck, or read past the stream
        return None
    # only zero fill before each end-of-line code, by the rule of
    # `_eol_starts`: `eols` holds every code, so row i's is the first at or
    # after the end of row i - 1
    fill = np.concatenate(([0], row_end[:-1]))
    if (eols < fill).any() or (bits.take(fill) >> _FILL).any():
        return None
    last = int(row_end[-1])
    if not 0 <= nbits - last < 8 or win[last]:
        return None
    # a record fits in 16 bits: a stuck row's key raises before it is logged
    rows, keys = np.concatenate(rows), np.concatenate(keys, dtype=np.uint16, casting="unsafe")
    keep = keys != _CODE
    rows = rows[keep]
    # each row's records in the order they were taken
    records = keys[keep][np.argsort(rows, kind="stable")]
    return records, np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=height))))


def mh_decode_image(
    data: bytes, width: int, height: int, *, eol: bool, byte_align: bool = False
) -> CompressedDoc:
    """Decode `height` rows of `width` pixels from packed bytes."""
    core._check_integers(width=width, height=height)
    if not 1 <= width <= MAX_DIM or not 1 <= height <= MAX_DIM:
        raise ValidationError(f"bad dimensions {width} x {height}")
    win = _windows(data)
    nbits = 8 * len(data)
    decoded = None
    if eol and height >= LOCKSTEP_ROWS:
        decoded = _decode_lockstep(win, nbits, width, height)
    if decoded is None:
        decoded = _decode_serial(win, nbits, width, height, eol, byte_align)
    del win  # two bytes per bit of input, not needed to build the runs
    return CompressedDoc._trusted(width, height, *_gather(*decoded))


def _decode_serial(win, nbits: int, width: int, height: int, eol: bool, byte_align: bool):
    """Decode and check the stream row by row; returns (records, row ends)."""
    pos = 0
    # grown row by row, so a stream that ends early costs no more than it holds
    records = array("H")
    row_ends = [0]
    if eol:
        eols = _eol_starts(np.frombuffer(win, dtype=np.uint16))
        k = 0  # the first code that may end the next row's fill
    for number in range(1, height + 1):
        if eol:
            # zero fill and an end-of-line code, by the rule of `_eol_starts`
            if win[pos] >> _FILL:
                raise FormatError(f"missing end-of-line code before row {number} (bit {pos})")
            while k < eols.size and eols[k] < pos:
                k += 1
            if k == eols.size:
                raise FormatError(f"stream ended while seeking the end-of-line code of row {number}")
            pos = int(eols[k]) + len(EOL)
        elif byte_align and pos % 8:
            fill = 8 - pos % 8
            if win[pos] >> (_PEEK - fill):
                raise FormatError(f"nonzero padding bits before row {number}")
            pos += fill
        try:
            pos = _decode_row_at(win, nbits, width, pos, records)
        except FormatError as exc:
            raise FormatError(f"row {number}: {exc}") from None
        row_ends.append(len(records))
    if nbits - pos >= 8 or win[pos]:
        raise FormatError(f"trailing data after the last row at bit {pos}")
    return records, row_ends
