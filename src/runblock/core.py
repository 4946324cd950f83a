"""Run-length data model for binary document images.

An image row is stored as a sequence of run lengths that alternate colors,
always starting with background (white = 0). A row whose first pixel is
foreground (black = 1) carries a zero-length leading background run, so the
parity rule "odd run index = background, even run index = foreground"
(1-indexed) holds for every row.

Canonical form: apart from that optional leading zero, every run has length
>= 1. All functions here produce canonical rows.

Validation happens once, where rows enter the package. `CompressedDoc(...)`
checks the dimensions and every row, and rejects anything else. Internal
producers whose rows are valid by construction (`read_rle`, which checks the
rows as it parses them, `encode_image`, `extract_block_detailed` and
`mh_decode_image`) build documents with `CompressedDoc._trusted`, which skips
that second check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, ValidationError

RunRow = tuple[int, ...]

BACKGROUND = 0
FOREGROUND = 1

# Dimension cap; keeps every pixel/run accumulator exact in a 64-bit int.
MAX_DIM = 2**31 - 1


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
    runs = [0] if pixels[0] else []
    for value, group in itertools.groupby(pixels):
        if value not in (0, 1):
            raise ValidationError(f"pixel value {value!r} is not 0 or 1")
        runs.append(sum(1 for _ in group))
    return tuple(runs)


def decode_row(runs: Sequence[int], width: int) -> list[int]:
    """Expand a run row back into a list of 0/1 pixels of length `width`."""
    total = 0
    for r in runs:
        if r < 0:
            raise FormatError(f"negative run length {r}")
        total += r
    if total != width:
        raise FormatError(f"row sums to {total}, expected width {width}")
    out: list[int] = []
    color = BACKGROUND
    for length in runs:
        out.extend([color] * length)
        color ^= 1
    return out


def canonicalize_row(runs: Sequence[int]) -> RunRow:
    """Return the canonical run row with the same pixel expansion.

    Zero-length interior runs are removed by merging the equal-color runs
    they separate; a leading zero is kept only when the first pixel is
    foreground.
    """
    merged: list[list[int]] = []  # [color, length] pairs, zero runs dropped
    color = BACKGROUND
    for length in runs:
        if length < 0:
            raise FormatError(f"negative run length {length}")
        if length:
            if merged and merged[-1][0] == color:
                merged[-1][1] += length
            else:
                merged.append([color, length])
        color ^= 1
    out = [0] if merged and merged[0][0] == FOREGROUND else []
    out.extend(length for _, length in merged)
    return tuple(out)


@dataclass(frozen=True)
class CompressedDoc:
    """A run-length compressed binary image: `height` canonical run rows,
    each summing to `width`. Immutable; safe to share across threads."""

    width: int
    height: int
    rows: tuple[RunRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if not 1 <= self.width <= MAX_DIM:
            raise ValidationError(f"width {self.width} out of range 1..{MAX_DIM}")
        if not 1 <= self.height <= MAX_DIM:
            raise ValidationError(f"height {self.height} out of range 1..{MAX_DIM}")
        if len(self.rows) != self.height:
            raise ValidationError(
                f"got {len(self.rows)} rows, expected height {self.height}"
            )
        for i, row in enumerate(self.rows, 1):
            if not is_canonical(row):
                raise ValidationError(f"row {i} is not canonical: {list(row)}")
            if sum(row) != self.width:
                raise ValidationError(
                    f"row {i} sums to {sum(row)}, expected width {self.width}"
                )

    @classmethod
    def _trusted(cls, width: int, height: int, rows: tuple[RunRow, ...]) -> "CompressedDoc":
        """Build a document without checking it. Only for producers that
        guarantee what `__post_init__` checks: dimensions in range, `height`
        rows, each a canonical tuple of ints summing to `width`."""
        doc = object.__new__(cls)
        object.__setattr__(doc, "width", width)
        object.__setattr__(doc, "height", height)
        object.__setattr__(doc, "rows", rows)
        return doc

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "CompressedDoc":
        """Build a document from run rows, inferring width and height."""
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValidationError("a document needs at least one row")
        return cls(width=sum(rows[0]), height=len(rows), rows=rows)

    def total_runs(self) -> int:
        return sum(len(r) for r in self.rows)


def encode_image(grid) -> CompressedDoc:
    """Compress a rectangular 0/1 pixel grid (nested sequences or a 2-D
    numpy array) into a CompressedDoc."""
    try:
        arr = np.asarray(grid)
    except ValueError as exc:
        raise ValidationError(f"grid is not rectangular: {exc}") from None
    if arr.dtype == object or arr.ndim != 2:
        raise ValidationError("grid must be a rectangular 2-D array of 0/1 pixels")
    if arr.size == 0:
        raise ValidationError("grid must contain at least one pixel")
    # for unsigned and boolean pixels the maximum decides, without the three
    # page-sized temporaries of the general test
    binary = arr.max() <= 1 if arr.dtype.kind in "bu" else ((arr == 0) | (arr == 1)).all()
    if not binary:
        raise ValidationError("grid contains pixel values other than 0 and 1")
    height, width = arr.shape
    if max(height, width) > MAX_DIM:
        raise ValidationError(f"grid of {height} x {width} pixels exceeds {MAX_DIM} per side")
    arr = arr.astype(np.uint8, copy=False)
    rows = []
    for row in arr:
        starts = np.flatnonzero(row[1:] != row[:-1]) + 1
        bounds = np.concatenate(([0], starts, [width]))
        runs = np.diff(bounds).tolist()
        if row[0]:
            runs.insert(0, 0)
        rows.append(tuple(runs))
    return CompressedDoc._trusted(width, height, tuple(rows))


def decode_image(doc: CompressedDoc) -> np.ndarray:
    """Expand a CompressedDoc into a (height, width) uint8 array of 0/1."""
    out = np.empty((doc.height, doc.width), dtype=np.uint8)
    for i, row in enumerate(doc.rows):
        colors = (np.arange(len(row)) & 1).astype(np.uint8)
        out[i] = np.repeat(colors, row)
    return out
