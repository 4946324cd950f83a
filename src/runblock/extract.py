"""Block extraction directly on run-length data.

Given a rectangle (rows x1..x2, columns y1..y2, all 1-indexed inclusive),
the block is located inside each selected run row by a binary search over
the cumulative run sum of the selected rows, offset by the pixels above
them. It is monotone, so each row's search is confined to that row's runs,
and building it costs the block's rows, not the page's. All selected rows
are searched at once by one lock-step binary search, first for y1 and then
for y2 from the start run on. It marks every run entry it reads, which
gives `extract_block_detailed` its count. The result is a boundary record
per row (start run index, start residue, end run index, end residue), and
the block is cut out by one gather of the runs from the start run to the
end run of every row, plus fixes to the two edge runs. No pixel buffer is
ever materialized; a row's searches probe about twice the base-2 logarithm
of its run count. The row locators `locate_start` and `locate_end` run the
same search on a one-row document.

Residue semantics: `start_residue` counts the pixels of the start run that
lie inside the block (from y1 to the run's end); `end_residue` counts the
pixels of the end run that lie beyond y2 and must be dropped.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .core import CompressedDoc, RunRow, _one_row
from .errors import ConsistencyError, ValidationError


@dataclass(frozen=True)
class BlockSpec:
    """A rectangle to extract: x1/x2 select rows, y1/y2 select columns,
    1-indexed and inclusive on both ends."""

    x1: int
    x2: int
    y1: int
    y2: int

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            try:
                if isinstance(value, bool):  # an int to Python, but no coordinate
                    raise TypeError
                operator.index(value)
            except TypeError:
                raise ValidationError(f"{field.name} must be an integer, got {value!r}") from None
        if self.x1 < 1:
            raise ValidationError(f"x1 must be >= 1, got {self.x1}")
        if self.y1 < 1:
            raise ValidationError(f"y1 must be >= 1, got {self.y1}")
        if self.x2 < self.x1:
            raise ValidationError(f"x2 ({self.x2}) is smaller than x1 ({self.x1})")
        if self.y2 < self.y1:
            raise ValidationError(f"y2 ({self.y2}) is smaller than y1 ({self.y1})")

    @property
    def height(self) -> int:
        return self.x2 - self.x1 + 1

    @property
    def width(self) -> int:
        return self.y2 - self.y1 + 1

    def validate_for(self, width: int, height: int) -> None:
        """Check the rectangle fits a width x height image."""
        if self.x2 > height:
            raise ValidationError(f"x2 ({self.x2}) exceeds image height {height}")
        if self.y2 > width:
            raise ValidationError(f"y2 ({self.y2}) exceeds image width {width}")


class BoundaryRecord(NamedTuple):
    """Where one row crosses the block's column boundaries.

    Run indices are 1-based (odd = background, even = foreground).
    """

    start_run: int
    start_residue: int
    end_run: int
    end_residue: int


@dataclass
class ExtractionStats:
    """Operation counters for one extraction call."""

    rows: int = 0
    # distinct run entries whose cumulative sum the two binary searches read:
    # their probes and the runs they settle on
    runs_visited: int = 0
    runs_emitted: int = 0


def _search(cumsum, lo, hi, target, seen):
    """Lock-step binary search: per row, the first run index in lo..hi
    whose cumulative sum reaches `target`, which run `hi` always does.
    Every entry read is marked in `seen`. A row whose search has ended
    stays put, since its `mid` is its answer, so all rows take the steps
    of the longest range."""
    for _ in range(int(np.maximum.reduce(hi - lo)).bit_length()):
        mid = lo + hi
        mid >>= 1
        seen[mid] = True
        reached = cumsum[mid] >= target
        hi = np.where(reached, mid, hi)
        mid += 1
        lo = np.where(reached, lo, mid)
    seen[lo] = True
    return lo


def _bounds(doc: CompressedDoc, x1: int, x2: int, y1: int, y2: int):
    """Run indices and residues of the boundaries of rows x1..x2 (0-based,
    exclusive end) at columns y1 and y2 (1-based), and `seen`, a boolean
    array over those rows' runs that marks every entry the searches read.
    The indices count from the first run of row x1.

    Lock-step binary searches read the cumulative sum of those rows' runs
    alone, offset by the pixels above them, so their cost follows the block,
    not the page."""
    width, base = doc.width, doc.offsets[x1]
    cumsum = np.add.accumulate(doc.runs[base : doc.offsets[x2]])
    cumsum += x1 * width
    seen = np.zeros(cumsum.size, dtype=bool)
    starts = doc.offsets[x1:x2] - base
    last = doc.offsets[x1 + 1 : x2 + 1] - (base + 1)
    # the targets: the pixels above each row plus the column
    start_at = np.arange(x1 * width + y1, x2 * width + y1, width)
    end_at = start_at + (y2 - y1)
    p1 = _search(cumsum, starts, last, start_at, seen)
    p2 = _search(cumsum, p1, last, end_at, seen)
    return (starts, p1, cumsum[p1] - start_at + 1, p2, cumsum[p2] - end_at), seen


def _cut(runs, starts, p1, r1, p2, r2) -> tuple[np.ndarray, np.ndarray]:
    """Trimmed rows (runs, offsets) from boundary runs p1..p2 of rows that
    start at `starts`, all indices into `runs`.

    One gather copies runs p1..p2 of every row, and one run before p1 when
    p1 is foreground, whose slot becomes the leading zero. The start run
    then shrinks to r1 and the end run loses r2 pixels, which, when both are
    the same run, leaves r1 - r2.
    """
    lead = p1 - starts
    lead &= 1  # the start run is foreground
    first = p1 - lead
    base = first[0]
    # +1 where a row's range opens and -1 past where it closes, summed up
    mark = np.zeros(p2[-1] + 2 - base, dtype=np.int8)
    mark[first - base] = 1
    mark[p2 + 1 - base] -= 1  # a row may open where the one above closes
    out = runs[base : p2[-1] + 1][np.add.accumulate(mark[:-1], dtype=np.int8).view(bool)]
    offsets = np.zeros(p1.size + 1, dtype=np.int64)
    np.add.accumulate(p2 + 1 - first, out=offsets[1:])
    heads = offsets[:-1]
    out[heads] = 0
    out[heads + lead] = r1
    out[offsets[1:] - 1] -= r2
    return out, offsets


def _records(starts, p1, r1, p2, r2) -> list[BoundaryRecord]:
    columns = (p1 - starts + 1, r1, p2 - starts + 1, r2)
    # tuple.__new__ skips the namedtuple's Python-level __new__
    return list(map(tuple.__new__, repeat(BoundaryRecord), zip(*(c.tolist() for c in columns))))


def _locate(row: Sequence[int], column: int, which: str) -> BoundaryRecord:
    """The boundary record of a one-row block that starts and ends at
    `column`, from the same search as extraction's."""
    if column < 1:
        raise ValidationError(f"{which} column must be >= 1, got {column}")
    doc = _one_row(row)
    if column > doc.width:
        raise ValidationError(f"{which} column {column} is beyond the row width {doc.width}")
    return _records(*_bounds(doc, 0, 1, column, column)[0])[0]


def locate_start(row: Sequence[int], y1: int) -> tuple[int, int]:
    """Find the run containing column y1.

    Returns (run index, residue), where the residue is the number of pixels
    of that run from y1 through the run's end.
    """
    return _locate(row, y1, "start")[:2]


def locate_end(row: Sequence[int], y2: int) -> tuple[int, int]:
    """Find the run containing column y2.

    Returns (run index, residue), where the residue is the number of pixels
    of that run lying beyond y2 (0 when the run ends exactly at y2).
    """
    return _locate(row, y2, "end")[2:]


def build_position_table(doc: CompressedDoc, spec: BlockSpec) -> list[BoundaryRecord]:
    """Boundary records for every row of the block, top to bottom.

    Rows outside x1..x2 are never touched; selecting them is the whole of
    the horizontal segmentation.
    """
    spec.validate_for(doc.width, doc.height)
    return _records(*_bounds(doc, spec.x1 - 1, spec.x2, spec.y1, spec.y2)[0])


def trim_row(row: Sequence[int], rec: BoundaryRecord, width: int | None = None) -> RunRow:
    """Cut the block's portion out of one run row using its boundary record.

    When both boundaries fall in the same run the result is the single span
    start_residue - end_residue; otherwise the start run shrinks to
    start_residue, interior runs are copied unchanged, and the end run loses
    end_residue pixels. A zero-length background run is prepended when the
    start run is foreground so the output stays background-first.

    For a canonical `row` the output is canonical by construction: the first
    and last runs are at least 1 by the residue checks, the interior runs are
    copied from the row, and the leading zero appears exactly when p1 is even.

    `width`, when given, is the expected block width; a mismatch means the
    record does not belong to this row.
    """
    p1, r1, p2, r2 = rec.start_run, rec.start_residue, rec.end_run, rec.end_residue
    if not 1 <= p1 <= p2 <= len(row):
        raise ConsistencyError(f"boundary runs ({p1}, {p2}) out of range for {len(row)} runs")
    if not 1 <= r1 <= row[p1 - 1]:
        raise ConsistencyError(f"start residue {r1} does not fit run {p1} of length {row[p1 - 1]}")
    if not 0 <= r2 < row[p2 - 1]:
        raise ConsistencyError(f"end residue {r2} does not fit run {p2} of length {row[p2 - 1]}")
    if p1 == p2 and r1 <= r2:
        raise ConsistencyError(f"single-run record with start residue {r1} <= end residue {r2}")
    bounds = (np.array([v]) for v in (0, p1 - 1, r1, p2 - 1, r2))
    out = tuple(_cut(np.asarray(row, dtype=np.int64), *bounds)[0].tolist())
    if width is not None and sum(out) != width:
        raise ConsistencyError(
            f"trimmed row sums to {sum(out)}, expected block width {width}"
        )
    return out


def _extract(doc: CompressedDoc, spec: BlockSpec):
    """The block, its boundaries and the run entries that the searches read,
    marked over the runs of the selected rows."""
    spec.validate_for(doc.width, doc.height)
    bounds, seen = _bounds(doc, spec.x1 - 1, spec.x2, spec.y1, spec.y2)
    first = doc.offsets[spec.x1 - 1]
    return CompressedDoc._trusted(spec.width, spec.height, *_cut(doc.runs[first:], *bounds)), bounds, seen


def extract_block_detailed(
    doc: CompressedDoc, spec: BlockSpec
) -> tuple[CompressedDoc, list[BoundaryRecord], ExtractionStats]:
    """Extract a block and report the position table and work counters."""
    block, bounds, seen = _extract(doc, spec)
    stats = ExtractionStats(
        rows=spec.height, runs_visited=int(np.count_nonzero(seen)), runs_emitted=block.total_runs()
    )
    return block, _records(*bounds), stats


def extract_block(doc: CompressedDoc, spec: BlockSpec) -> CompressedDoc:
    """Extract the specified rectangle as a new CompressedDoc, working
    entirely on run data."""
    return _extract(doc, spec)[0]
