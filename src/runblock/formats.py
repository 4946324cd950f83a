"""File formats: Netpbm PBM rasters and the RLC1 plain run-length format.

PBM follows the usual conventions: P1 is ASCII with one digit per pixel,
P4 is packed MSB-first with each row padded to a byte boundary; bit 1 is
black, which this package calls foreground (1). `#` comments are allowed in
headers (and anywhere in P1).

RLC1 is a line-oriented text format chosen for diffability:

    RLC1\n
    <width> <height>\n
    <run> <run> ...\n        (one line per row, height lines)

Runs are decimal, space-separated, background-first and canonical; every
row must sum to the declared width. Readers here reject malformed input
instead of repairing it, naming the offending row.
"""

from __future__ import annotations

import re
import sys
from typing import NoReturn

import numpy as np

from .core import MAX_DIM, CompressedDoc, _check_pixels, _pixel_grid, _rows_valid, is_canonical
from .errors import ConsistencyError, FormatError

RLC_MAGIC = "RLC1"


def _dimensions(fields: list[bytes], kind: str) -> tuple[int, int]:
    """(width, height) from the two decimal fields of a `kind` header.

    Zero padding is allowed: the fields are read as str(int(field)) without
    int()'s limit on the length of a field, which a long one would raise as
    a ValueError. A bad field is echoed in full up to 20 digits, and beyond
    that by its first 10 digits and its length."""
    numbers = [f.lstrip(b"0").decode() or "0" for f in fields]
    if any(len(n) > len(str(MAX_DIM)) or not 1 <= int(n) <= MAX_DIM for n in numbers):
        w, h = (n if len(n) <= 20 else f"{n[:10]}... ({len(n)} digits)" for n in numbers)
        raise FormatError(f"bad {kind} dimensions {w} x {h}")
    return int(numbers[0]), int(numbers[1])


# ---------------------------------------------------------------- PBM

# Byte kinds in a P1 raster: 0 whitespace, 1 a pixel digit, 2 anything else.
_P1_KIND = np.full(256, 2, dtype=np.uint8)
_P1_KIND[list(b" \t\r\n")] = 0
_P1_KIND[list(b"01")] = 1


# A token of a PBM header: whitespace, a comment, a decimal field (group 1)
# or any other byte (group 2).
_PBM_TOKEN = re.compile(rb"[ \t\r\n]+|#[^\r\n]*|([0-9]+)|(.)")


def _parse_pbm_header(data: bytes) -> tuple[bytes, int, int, int]:
    """Return (magic, width, height, offset of the raster payload)."""
    magic = data[:2]
    if magic not in (b"P1", b"P4"):
        raise FormatError(f"not a PBM file (magic {magic!r})")
    if len(data) < 3 or data[2] not in b" \t\r\n#":
        raise FormatError("missing whitespace after PBM magic")
    pos = 2
    fields = []
    while len(fields) < 2:
        token = _PBM_TOKEN.match(data, pos)
        if token is None:
            raise FormatError(f"truncated PBM header at byte {pos}")
        if token[2] is not None:
            raise FormatError(f"unexpected byte {token[2]!r} at byte {pos} in PBM header")
        if token[1] is not None:
            fields.append(token[1])
        pos = token.end()
    width, height = _dimensions(fields, "PBM")
    if magic == b"P4":
        # exactly one whitespace byte separates the header from the raster
        if pos >= len(data) or data[pos] not in b" \t\r\n":
            raise FormatError(f"missing separator after PBM header at byte {pos}")
        pos += 1
    return magic, width, height, pos


def pbm_header(data: bytes) -> tuple[int, int]:
    """Parse just the PBM header; returns (width, height)."""
    _, width, height, _ = _parse_pbm_header(data)
    return width, height


def read_pbm(data: bytes) -> np.ndarray:
    """Parse P1 or P4 bytes into a (height, width) uint8 array of 0/1,
    rejecting a raster beyond the pixel budget before allocating it."""
    magic, width, height, pos = _parse_pbm_header(data)
    if magic == b"P1":
        # every pixel takes a byte, so a short file cannot declare a huge raster
        if width * height > len(data) - pos:
            raise FormatError(
                f"P1 raster is {len(data) - pos} bytes, too short for {width * height} pixels"
            )
        _check_pixels(width, height)
        if data.find(b"#", pos) >= 0:
            # a comment runs to the end of its line: blank it, keeping offsets
            data = data[:pos] + re.sub(rb"#[^\r\n]*", lambda m: b" " * len(m[0]), data[pos:])
        raster = np.frombuffer(data, dtype=np.uint8)[pos:]
        kind = _P1_KIND[raster]
        pixel, other = kind == 1, kind == 2
        bad = int(other.argmax()) if other.any() else raster.size  # the first other byte
        # the errors in the order of a left-to-right read
        count = np.count_nonzero(pixel[:bad])
        if count > width * height:
            raise FormatError("trailing pixels after P1 raster")
        if bad < raster.size:
            raise FormatError(f"unexpected byte {data[pos + bad : pos + bad + 1]!r} at byte {pos + bad} in P1 raster")
        if count != width * height:
            raise FormatError(f"P1 raster has {count} pixels, expected {width * height}")
        return (raster[pixel] - ord("0")).reshape(height, width)
    # P4
    row_bytes = (width + 7) // 8
    payload = data[pos:]
    if len(payload) < row_bytes * height:
        raise FormatError(
            f"P4 payload is {len(payload)} bytes, expected {row_bytes * height}"
        )
    if len(payload) > row_bytes * height:
        raise FormatError("trailing bytes after P4 raster")
    _check_pixels(width, height)
    packed = np.frombuffer(payload, dtype=np.uint8).reshape(height, row_bytes)
    return np.unpackbits(packed, axis=1)[:, :width]


def write_pbm(grid, plain: bool = False) -> bytes:
    """Serialize a 0/1 grid as P4 (default) or P1 (`plain=True`) bytes."""
    arr = _pixel_grid(grid).astype(np.uint8, copy=False)
    height, width = arr.shape
    header = f"{'P1' if plain else 'P4'}\n{width} {height}\n".encode("ascii")
    if plain:
        # each pixel's digit and the separator after it: a newline after
        # every 32nd pixel of a row, which keeps lines comfortably under the
        # 70-character convention, and after its last pixel; a space otherwise
        text = np.full((height, width, 2), ord(" "), dtype=np.uint8)
        text[:, :, 0] = arr + ord("0")
        text[:, 31::32, 1] = text[:, -1, 1] = ord("\n")
        return header + text.tobytes()
    return header + np.packbits(arr, axis=1).tobytes()


# ---------------------------------------------------------------- RLC1


def _parse_rle_header(data: bytes) -> tuple[int, int, int]:
    """Return (width, height, offset of the first run row).

    A line ends at a newline or at the end of `data`, so the dimensions of a
    file can be read before (or without) the rest of it.
    """
    end = data.find(b"\n")
    magic = data if end < 0 else data[:end]
    if magic != RLC_MAGIC.encode():
        raise FormatError(f"not an RLC1 file (first line {_text(magic)!r})")
    if end < 0 or end == len(data) - 1:
        raise FormatError("missing RLC1 dimension line")
    start = end + 1
    end = data.find(b"\n", start)
    if end < 0:
        end = len(data)
    line = data[start:end]
    dims = line.split(b" ")
    if len(dims) != 2 or not all(d.isdigit() for d in dims):
        raise FormatError(f"bad RLC1 dimension line {_text(line)!r}")
    return *_dimensions(dims, "RLC1"), end + 1


def _text(line: bytes) -> str:
    return line.decode("ascii", errors="replace")


def rle_header(data: bytes) -> tuple[int, int]:
    """Parse just the RLC1 magic and dimension lines; returns (width, height).

    Lets callers validate block coordinates against the declared dimensions
    before the body is parsed.
    """
    width, height, _ = _parse_rle_header(data)
    return width, height


# Bytes of whole rows tokenized per numpy call: bounds the scratch arrays at
# a small share of a page.
_CHUNK_BYTES = 1 << 16


def read_rle(data: bytes) -> CompressedDoc:
    """Parse RLC1 bytes into a CompressedDoc, validating every row.

    The rows are read in chunks of whole rows. Each chunk is first checked
    as text: only digits, single spaces and newlines. Every token then ends
    at a separator, and numpy adds up its digits, last digit first, into
    the preallocated runs array. A token with more than ten significant
    digits, more than any width has, is marked as above the width. The
    chunk is checked as a whole: no empty token, and then the row rule of
    `CompressedDoc`, from `core._rows_valid`: no run above the width, every
    row summing to the width, and no zero run past the first of its row. A
    failed check is reported for the first bad row by `_row_error`, with the
    row's number.
    """
    if not data.isascii():
        try:
            data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"RLC1 file is not ASCII: {exc}") from None
    if not data.endswith(b"\n"):
        raise FormatError("RLC1 file must end with a newline")
    width, height, pos = _parse_rle_header(data)
    count = data.count(b"\n", pos)
    if count != height:
        raise FormatError(f"got {count} run rows, expected {height}")
    # one token per separator, a space or a newline, the bytes below "0"
    runs = np.empty(np.count_nonzero(np.frombuffer(data, dtype=np.uint8)[pos:] < ord("0")), dtype=np.int64)
    offsets = np.zeros(height + 1, dtype=np.int64)
    row = 0  # rows read so far
    while pos < len(data):
        stop = data.find(b"\n", min(pos + _CHUNK_BYTES, len(data) - 1))
        chunk = data[pos:stop]
        if chunk.translate(None, b"0123456789 \n") or not (chunk[:1].isdigit() and chunk[-1:].isdigit()):
            _row_error(chunk.split(b"\n"), row, width)
        chars = np.frombuffer(data, dtype=np.uint8, count=stop + 1 - pos, offset=pos)
        pos = stop + 1
        ends = (chars < ord("0")).nonzero()[0]  # the separator after each token
        lengths = np.diff(ends, prepend=-1) - 1
        first = offsets[row]
        tokens = runs[first : first + ends.size]
        tokens[:] = chars[ends - 1] - ord("0")
        place = 10
        for digit in range(1, min(int(lengths.max()), 10)):
            more = (lengths > digit).nonzero()[0]
            tokens[more] += (chars[ends[more] - 1 - digit] - ord("0")).astype(np.int64) * place
            place *= 10
        long = (lengths > 10).nonzero()[0]
        if long.size:
            # zero padding is fine, any other digit before the last ten is not
            nonzero = np.zeros(chars.size + 1, dtype=np.int64)  # nonzero digits before each byte
            np.add.accumulate(chars > ord("0"), out=nonzero[1:])
            high = nonzero[ends[long] - 10] - nonzero[ends[long] - lengths[long]]
            tokens[long[high > 0]] = width + 1
        row_ends = (chars[ends] == ord("\n")).nonzero()[0] + 1
        if not lengths.min() or not _rows_valid(tokens, np.concatenate(([0], row_ends)), width):
            _row_error(chunk.split(b"\n"), row, width)
        offsets[row + 1 : row + 1 + row_ends.size] = first + row_ends
        row += row_ends.size
    return CompressedDoc._trusted(width, height, runs, offsets)


def _row_error(lines: list[bytes], first: int, width: int) -> NoReturn:
    """Raise the error of the first bad row among `lines`, which are rows
    first + 1, first + 2, ... of the file."""
    for number, raw in enumerate(lines, first + 1):
        line = raw.decode("ascii")
        tokens = line.split(" ")
        if any(not t.isdigit() for t in tokens):
            raise FormatError(f"row {number}: non-numeric run token in {line!r}")
        try:
            # without zero padding, which counts against int()'s digit limit
            runs = tuple(int(t.lstrip("0") or "0") for t in tokens)
            total = str(sum(runs))
        except ValueError:  # past the digit limit of int() or str()
            total = f"a number of over {sys.get_int_max_str_digits()} digits"
        if total != str(width):
            raise FormatError(f"row {number}: runs sum to {total}, expected width {width}")
        if not is_canonical(runs):
            raise FormatError(f"row {number}: runs are not canonical: {line!r}")
    raise ConsistencyError("an RLC1 row failed a check that no row fails on its own")


# Runs per chunk of rows in serialization.
_CHUNK_RUNS = 1 << 16


def write_rle(doc: CompressedDoc) -> bytes:
    """Serialize a CompressedDoc as RLC1 bytes (canonical, newline per row,
    no trailing whitespace).

    Digits are written by array operations, one pass per decimal place, in
    chunks of rows of about `_CHUNK_RUNS` runs each."""
    parts = [f"{RLC_MAGIC}\n{doc.width} {doc.height}\n".encode("ascii")]
    # each run's digits and separator, counted in uint8, which numpy adds to
    # faster than int64
    widths = np.full(doc.runs.size, 2, dtype=np.uint8)
    place, largest = 10, doc.runs.max()
    while place <= largest:
        widths += doc.runs >= place
        place *= 10
    step = max(1, _CHUNK_RUNS * doc.height // doc.total_runs())
    for top in range(0, doc.height, step):
        bottom = min(top + step, doc.height)
        first, last = doc.offsets[top], doc.offsets[bottom]
        # where the last digit of each run goes, before its separator; numpy
        # adds up int64 several times faster than it widens uint8 as it goes
        where = widths[first:last].astype(np.int64)
        where[0] -= 2
        np.add.accumulate(where, out=where)
        text = np.full(where[-1] + 2, ord(" "), dtype=np.uint8)
        # the separator after a row's last digit is a newline
        text[1:][where[doc.offsets[top + 1 : bottom + 1] - (first + 1)]] = ord("\n")
        # digits from the last: each pass keeps the runs with digits left.
        # uint32 holds any run, since no width exceeds MAX_DIM, and numpy
        # divides it several times faster than int64.
        value = doc.runs[first:last].astype(np.uint32)
        while True:
            rest = value // 10
            value -= rest * 10
            value += ord("0")
            text[where] = value
            # numpy finds the nonzero entries of a boolean array several
            # times faster than those of an integer one
            more = (rest != 0).nonzero()[0]
            if not more.size:
                break
            value, where = rest.take(more), where.take(more)
            where -= 1
        parts.append(text.tobytes())
    return b"".join(parts)
