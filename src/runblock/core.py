"""Run-length data model for binary document images.

An image row is stored as a sequence of run lengths that alternate colors,
always starting with background (white = 0). A row whose first pixel is
foreground (black = 1) carries a zero-length leading background run, so the
parity rule "odd run index = background, even run index = foreground"
(1-indexed) holds for every row.

Canonical form: apart from that optional leading zero, every run has length
>= 1. All functions here produce canonical rows.

Layout: a document is stored in compressed-sparse-row (CSR) form, the layout
of `scipy.sparse.csr_matrix`. One read-only int64 array `runs` holds every
row's runs back to back, and row i is `runs[offsets[i]:offsets[i + 1]]`.
The global cumulative run sum, the tuple view `rows` and the transition and
ink counts that the features share are built on first use and cached.
Whole-page work runs in bounded row chunks on the calling thread, so its
temporaries stay small; the package starts no threads. Compression
(`encode_image`) first counts each chunk's runs, so that the chunks fill
their own slices of one `runs` array and the page's runs are never
concatenated into a second copy.

Validation happens once, where rows enter the package, and the row rule is
stated once: `_rows_valid` checks with array operations that every row is
canonical and sums to the width. `CompressedDoc(...)` converts the caller's
runs with `_flatten`, which rejects a run length that is not an integer, and
then checks the dimensions and the rows with `_rows_valid`. Every caller's
run row goes through it: `from_rows` and the public helpers that take one
run row build their documents with it, and `canonicalize_row`, which takes
non-canonical rows, reads its runs with `_flatten`. `read_rle` checks the
text of each chunk of rows it parses and then the chunk's rows with
`_rows_valid`. Both name the first bad row. `read_rle` and the internal producers whose rows are valid
by construction (`encode_image`, `extract_block_detailed` and
`mh_decode_image`) build documents with `CompressedDoc._trusted`, which
skips the constructor's check. A pixel grid is checked once as well, by
`_pixel_grid`, for `encode_image`, `formats.write_pbm` and
`oracle.accuracy_pixel`, and so is an integer dimension or coordinate, by
`_check_integers`, for `CompressedDoc`, `BlockSpec`, `FeatureContext` and
the MH decoders.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, ValidationError

RunRow = tuple[int, ...]

BACKGROUND = 0
FOREGROUND = 1

# Dimension cap; keeps every pixel/run accumulator exact in a 64-bit int.
MAX_DIM = 2**31 - 1

# Pixels per chunk of rows in whole-page compression and expansion. Small
# enough that a chunk's scratch stays a small share of a page.
CHUNK_PIXELS = 1 << 18

# Pixel budget of every pixel grid the package allocates: 2**28 pixels, a
# 256 MiB grid, well above a 600 dpi A3 page (70 million pixels).
MAX_PIXELS = 1 << 28


def _check_pixels(width: int, height: int) -> None:
    """Reject a grid of more than MAX_PIXELS pixels, before it is allocated."""
    if width * height > MAX_PIXELS:
        raise ValidationError(f"{width} x {height} pixels exceed the pixel budget of {MAX_PIXELS}")


def _check_integers(**values) -> None:
    """Raise a ValidationError for the first of `values` that is not an
    integer: a bool, or a value without `__index__`, such as a float or a
    numeric string."""
    for name, value in values.items():
        if isinstance(value, bool) or not hasattr(type(value), "__index__"):
            raise ValidationError(f"{name} must be an integer, got {value!r}")


def _is_integer(value) -> bool:
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def _flatten(rows: Iterable[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(runs, offsets) of a sequence of run rows, whose run lengths must be
    integers that fit in 64 bits."""
    rows = [tuple(r) for r in rows]
    flat = [r for row in rows for r in row]
    try:
        runs = np.array(flat, dtype=np.int64)
        exact = runs.tolist() == flat  # no float truncated, no string parsed
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        bad = next(((i, r) for i, row in enumerate(rows, 1) for r in row if not _is_integer(r)), None)
        if bad is None:
            raise ValidationError("a run length does not fit in 64 bits")
        raise ValidationError(f"row {bad[0]} holds a run length that is not an integer: {bad[1]!r}")
    return runs, np.array([0, *itertools.accumulate(map(len, rows))], dtype=np.int64)


def is_canonical(runs: Sequence[int]) -> bool:
    """True if `runs` is in canonical form (zero length only allowed for the
    leading background run, and only when followed by more runs; no negative
    lengths)."""
    if len(runs) == 0:
        return True
    if any(r < 1 for r in runs[1:]):
        return False
    return runs[0] >= 1 or (runs[0] == 0 and len(runs) >= 2)


def encode_row(pixels: Sequence[int]) -> RunRow:
    """Compress one pixel row (values 0/1) into a canonical run row."""
    pixels = list(pixels)
    if not pixels:
        raise ValidationError("cannot encode an empty pixel row")
    bad = [p for p in pixels if p not in (0, 1)]
    if bad:
        raise ValidationError(f"pixel value {bad[0]!r} is not 0 or 1")
    # the row between a white pixel and an end mark: the runs end at the
    # changes, and a change right after the white pixel ends the leading zero
    framed = np.array([0, *pixels, 2], dtype=np.int8)
    ends = (framed[1:] != framed[:-1]).nonzero()[0].tolist()
    return tuple(b - a for a, b in zip([0, *ends], ends))


def decode_row(runs: Sequence[int], width: int) -> list[int]:
    """Expand a run row back into a list of 0/1 pixels of length `width`.

    The row may be non-canonical: it is canonicalized first, which rejects
    a negative run with a `FormatError`, and must then sum to `width`, which
    must be at least 1."""
    row = canonicalize_row(runs)
    if sum(row) != width:
        raise FormatError(f"row sums to {sum(row)}, expected width {width}")
    return decode_image(CompressedDoc.from_rows([row]))[0].tolist()


def canonicalize_row(runs: Sequence[int]) -> RunRow:
    """Return the canonical run row with the same pixel expansion.

    Zero-length interior runs are removed by merging the equal-color runs
    they separate; a leading zero is kept only when the first pixel is
    foreground. Run lengths must be integers, as for `CompressedDoc`; a
    negative one raises a `FormatError`. A row of no pixels gives `()`.
    """
    runs = _flatten([runs])[0]
    if (runs < 0).any():
        raise FormatError(f"negative run length {runs[runs < 0][0]}")
    colors = np.flatnonzero(runs) & 1
    groups = np.flatnonzero(np.diff(colors, prepend=-1))  # first run of each color group
    merged = np.add.reduceat(runs[runs > 0], groups) if groups.size else groups
    return (0,) * int(colors[:1].sum()) + tuple(merged.tolist())


def _rows_valid(runs: np.ndarray, offsets: np.ndarray, width: int) -> bool:
    """True if every row of the CSR arrays `runs` and `offsets`, the latter
    starting at 0, is canonical and sums to `width`."""
    starts = offsets[:-1]
    return bool(
        # no row is empty, so each start is a run of its row
        np.diff(offsets).all()
        # as unsigned, a negative run is above any width too, and then no
        # row sum can wrap around
        and int(np.maximum.reduce(runs.view(np.uint64))) <= width
        and (np.add.reduceat(runs, starts) == width).all()
        # so a one-run row has no zero run: the row is canonical if only its
        # first run may be zero
        and runs.size - np.count_nonzero(runs) == starts.size - np.count_nonzero(runs[starts])
    )


class CompressedDoc:
    """A run-length compressed binary image: `height` canonical run rows,
    each summing to `width`, in CSR layout. Immutable; safe to share across
    threads."""

    width: int
    height: int
    runs: np.ndarray  # int64, every row's runs back to back; read-only
    offsets: np.ndarray  # int64, height + 1 entries; read-only

    def __init__(self, width: int, height: int, rows: Iterable[Sequence[int]]):
        self._init(width, height, *_flatten(rows))
        self.__post_init__()

    def __post_init__(self):
        """Check the dimensions, the row count and every row. The rows are
        checked as arrays; a failure names the first bad row, with the
        message of a row-by-row check."""
        _check_integers(width=self.width, height=self.height)
        if not 1 <= self.width <= MAX_DIM:
            raise ValidationError(f"width {self.width} out of range 1..{MAX_DIM}")
        if not 1 <= self.height <= MAX_DIM:
            raise ValidationError(f"height {self.height} out of range 1..{MAX_DIM}")
        if len(self.offsets) - 1 != self.height:
            raise ValidationError(
                f"got {len(self.offsets) - 1} rows, expected height {self.height}"
            )
        if not _rows_valid(self.runs, self.offsets, self.width):
            for i, row in enumerate(self.rows, 1):
                if not is_canonical(row):
                    raise ValidationError(f"row {i} is not canonical: {list(row)}")
                if sum(row) != self.width:
                    raise ValidationError(f"row {i} sums to {sum(row)}, expected width {self.width}")

    def _init(self, width: int, height: int, runs: np.ndarray, offsets: np.ndarray) -> None:
        runs.setflags(write=False)
        offsets.setflags(write=False)
        self.__dict__.update(width=width, height=height, runs=runs, offsets=offsets)

    @classmethod
    def _trusted(cls, width: int, height: int, runs: np.ndarray, offsets: np.ndarray) -> "CompressedDoc":
        """Build a document from int64 arrays in CSR layout without checking
        it. Only for producers that guarantee what `__post_init__` checks:
        dimensions in range, `height` rows, each canonical and summing to
        `width`."""
        doc = object.__new__(cls)
        doc._init(width, height, runs, offsets)
        return doc

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "CompressedDoc":
        """Build a document from run rows, inferring width and height, with
        the constructor's checks."""
        runs, offsets = _flatten(rows)
        if offsets.size == 1:
            raise ValidationError("a document needs at least one row")
        # in Python ints, so that no int64 sum wraps into the width range
        doc = cls._trusted(sum(runs[: offsets[1]].tolist()), offsets.size - 1, runs, offsets)
        doc.__post_init__()
        return doc

    def __setattr__(self, name, value):
        raise AttributeError(f"CompressedDoc is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            (self.width, self.height) == (other.width, other.height)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.runs, other.runs)
        )

    def __hash__(self):
        return hash((self.width, self.height, self.offsets.tobytes(), self.runs.tobytes()))

    def __repr__(self):
        return f"CompressedDoc(width={self.width}, height={self.height}, rows={self.rows!r})"

    def total_runs(self) -> int:
        return len(self.runs)

    @cached_property
    def rows(self) -> tuple[RunRow, ...]:
        """The rows as tuples of Python ints."""
        flat, ends = self.runs.tolist(), self.offsets.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(ends, ends[1:]))

    @cached_property
    def cumsum(self) -> np.ndarray:
        """Global cumulative run sum: row i's runs end at i * width plus
        their cumulative sum within the row."""
        cumsum = np.add.accumulate(self.runs)
        cumsum.setflags(write=False)
        return cumsum

    @cached_property
    def row_transitions(self) -> np.ndarray:
        """Color transitions per row: the nonzero runs less one."""
        starts = self.offsets[:-1]
        # a leading zero run is the only zero run of a row
        return (self.offsets[1:] - 1) - starts - np.logical_not(self.runs[starts])

    @cached_property
    def transitions(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) of every color transition, row by row: the 0-based
        row, and the 1-based column of the last pixel before the change,
        which is the cumulative run sum at that boundary within the row."""
        row, column = np.divmod(self.cumsum, self.width)
        # the leading zero run ends at column 0 and the last run at the
        # width, which is column 0 of the next row
        inner = column != 0
        return row[inner], column[inner]

    @cached_property
    def foreground(self) -> int:
        """Foreground pixel count: the runs at odd 0-based positions within
        their row, from a prefix sum of the runs at odd global positions."""
        odd = np.zeros(self.runs.size // 2 + 1, dtype=np.int64)
        np.add.accumulate(self.runs[1::2], out=odd[1:])
        starts, ends = self.offsets[:-1], self.offsets[1:]
        in_row = odd[ends >> 1] - odd[starts >> 1]
        # in a row that starts at an odd global position, ink is the even runs
        flipped = (starts & 1).astype(bool)
        in_row[flipped] = self.width - in_row[flipped]
        return int(np.add.reduce(in_row))


def _pixel_grid(grid) -> np.ndarray:
    """`grid` as an array, checked to be a non-empty rectangular 2-D grid of
    0/1 pixels with at most MAX_DIM per side."""
    try:
        arr = np.asarray(grid)
    except ValueError as exc:
        raise ValidationError(f"grid is not rectangular: {exc}") from None
    if arr.dtype == object or arr.ndim != 2:
        raise ValidationError("grid must be a rectangular 2-D array of 0/1 pixels")
    if arr.size == 0:
        raise ValidationError("grid must contain at least one pixel")
    # the test without the page-sized temporaries of the general one: for
    # unsigned and boolean pixels the maximum decides, for signed ones a shift
    if arr.dtype.kind in "bu":
        binary = arr.max() <= 1
    elif arr.dtype.kind == "i":
        binary = not np.count_nonzero(arr >> 1)
    else:
        binary = ((arr == 0) | (arr == 1)).all()
    if not binary:
        raise ValidationError("grid contains pixel values other than 0 and 1")
    height, width = arr.shape
    if max(height, width) > MAX_DIM:
        raise ValidationError(f"grid of {height} x {width} pixels exceeds {MAX_DIM} per side")
    return arr


def encode_image(grid) -> CompressedDoc:
    """Compress a rectangular 0/1 pixel grid (nested sequences or a 2-D
    numpy array) into a CompressedDoc."""
    arr = _pixel_grid(grid)
    height, width = arr.shape
    # each row's run count, summed up into offsets once every chunk is done
    offsets = np.zeros(height + 1, dtype=np.int64)
    step = max(1, CHUNK_PIXELS // width)
    tops = range(0, height, step)
    # the chunks' run counts first, so that each fills its own slice of one
    # runs array, and the chunks' runs are not concatenated into a second,
    # page-sized copy
    starts = list(itertools.accumulate((_count_runs(arr[top : top + step]) for top in tops), initial=0))
    runs = np.empty(starts[-1], dtype=np.int64)
    for top, first, last in zip(tops, starts, starts[1:]):
        _encode_rows(arr[top : top + step], offsets[top + 1 : top + step + 1], runs[first:last])
    np.add.accumulate(offsets, out=offsets)
    return CompressedDoc._trusted(width, height, runs, offsets)


def _count_runs(part: np.ndarray) -> int:
    """Runs of the pixel rows `part`: one per row, and one more per change
    from white at its start or between two of its pixels."""
    return part.shape[0] + int(np.count_nonzero(part[:, 0]) + np.count_nonzero(part[:, 1:] != part[:, :-1]))


def _encode_rows(part: np.ndarray, counts: np.ndarray, runs: np.ndarray) -> None:
    """Write the runs of the pixel rows `part` into `runs` and each row's
    run count into `counts`."""
    rows, width = part.shape
    # a row has a slot before each pixel and one past its end: slot 0 holds
    # a change from white, the leading-zero run, and the last slot the row's end
    changes = np.empty((rows, width + 1), dtype=bool)
    changes[:, 0] = part[:, 0]
    np.not_equal(part[:, 1:], part[:, :-1], out=changes[:, 1:-1])
    changes[:, -1] = True
    ends = changes.reshape(-1).nonzero()[0]
    row = ends // (width + 1)
    counts[:] = np.bincount(row, minlength=rows)
    # where each run ends, counted from the chunk's start: a row's end slot
    # and the next row's slot 0 are the same pixel boundary
    ends -= row
    runs[:] = ends
    runs[1:] -= ends[:-1]


def decode_image(doc: CompressedDoc) -> np.ndarray:
    """Expand a CompressedDoc into a (height, width) uint8 array of 0/1."""
    _check_pixels(doc.width, doc.height)
    out = np.empty((doc.height, doc.width), dtype=np.uint8)
    pixels = out.reshape(-1)
    offsets = doc.offsets
    step = max(1, CHUNK_PIXELS // doc.width)
    for top in range(0, doc.height, step):
        bounds = offsets[top : top + step + 1]
        first, last = int(bounds[0]), int(bounds[-1])
        # a run's color is the parity of its index within the row
        colors = np.arange(last - first, dtype=np.uint8) & 1
        colors ^= ((bounds[:-1] - first) & 1).astype(np.uint8).repeat(bounds[1:] - bounds[:-1])
        pixels[top * doc.width : (top + bounds.size - 1) * doc.width] = colors.repeat(doc.runs[first:last])
    return out
