"""Block extraction directly on run-length data.

Given a rectangle (rows x1..x2, columns y1..y2, all 1-indexed inclusive),
the block is located inside each selected run row by a single left-to-right
scan of the cumulative run sum, recorded as a boundary record (start run
index, start residue, end run index, end residue), and cut out by trimming
the two boundary runs. No pixel buffer is ever materialized; the work per
row is bounded by that row's run count.

Residue semantics: `start_residue` counts the pixels of the start run that
lie inside the block (from y1 to the run's end); `end_residue` counts the
pixels of the end run that lie beyond y2 and must be dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import CompressedDoc, RunRow
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

    def compose(self, inner: "BlockSpec") -> "BlockSpec":
        """Translate `inner`, expressed in this block's local coordinates,
        into the coordinates of the original image."""
        inner.validate_for(self.width, self.height)
        return BlockSpec(
            x1=self.x1 + inner.x1 - 1,
            x2=self.x1 + inner.x2 - 1,
            y1=self.y1 + inner.y1 - 1,
            y2=self.y1 + inner.y2 - 1,
        )


@dataclass(frozen=True)
class BoundaryRecord:
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
    runs_visited: int = 0  # run entries touched by the boundary scans
    runs_emitted: int = 0


def locate_start(row: Sequence[int], y1: int) -> tuple[int, int]:
    """Find the run containing column y1.

    Returns (run index, residue), where the residue is the number of pixels
    of that run from y1 through the run's end. The scan stops at the first
    run whose cumulative sum reaches y1 and never looks further right.
    """
    if y1 < 1:
        raise ValidationError(f"start column must be >= 1, got {y1}")
    run_sum = 0
    for j, length in enumerate(row, 1):
        run_sum += length
        if run_sum >= y1:
            return j, run_sum - y1 + 1
    raise ValidationError(f"start column {y1} is beyond the row width {run_sum}")


def locate_end(row: Sequence[int], y2: int) -> tuple[int, int]:
    """Find the run containing column y2.

    Returns (run index, residue), where the residue is the number of pixels
    of that run lying beyond y2 (0 when the run ends exactly at y2).
    """
    if y2 < 1:
        raise ValidationError(f"end column must be >= 1, got {y2}")
    run_sum = 0
    for j, length in enumerate(row, 1):
        run_sum += length
        if run_sum >= y2:
            return j, run_sum - y2
    raise ValidationError(f"end column {y2} is beyond the row width {run_sum}")


def _scan_bounds(row: RunRow, y1: int, y2: int) -> tuple[BoundaryRecord, int]:
    """Locate both column boundaries in one monotone scan.

    Returns (record, runs visited); the visit count equals the end run index
    because the scan resumes from the start boundary instead of restarting.
    """
    run_sum = 0
    start_run = start_residue = 0
    runs_iter = enumerate(row, 1)
    j = 0
    for j, length in runs_iter:
        run_sum += length
        if run_sum >= y1:
            start_run = j
            start_residue = run_sum - y1 + 1
            break
    else:
        raise ValidationError(f"start column {y1} is beyond the row width {run_sum}")
    if run_sum < y2:
        for j, length in runs_iter:
            run_sum += length
            if run_sum >= y2:
                break
        else:
            raise ValidationError(f"end column {y2} is beyond the row width {run_sum}")
    return BoundaryRecord(start_run, start_residue, j, run_sum - y2), j


def build_position_table(doc: CompressedDoc, spec: BlockSpec) -> list[BoundaryRecord]:
    """Boundary records for every row of the block, top to bottom.

    Rows outside x1..x2 are never touched; selecting them is the whole of
    the horizontal segmentation.
    """
    spec.validate_for(doc.width, doc.height)
    return [
        _scan_bounds(doc.rows[i], spec.y1, spec.y2)[0]
        for i in range(spec.x1 - 1, spec.x2)
    ]


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
    if p1 == p2:
        if r1 <= r2:
            raise ConsistencyError(f"single-run record with start residue {r1} <= end residue {r2}")
        out = (r1 - r2,)
    else:
        out = (r1, *row[p1:p2 - 1], row[p2 - 1] - r2)
    if p1 % 2 == 0:  # start boundary lies inside a foreground run
        out = (0, *out)
    if width is not None and sum(out) != width:
        raise ConsistencyError(
            f"trimmed row sums to {sum(out)}, expected block width {width}"
        )
    return out


def extract_block_detailed(
    doc: CompressedDoc, spec: BlockSpec
) -> tuple[CompressedDoc, list[BoundaryRecord], ExtractionStats]:
    """Extract a block and report the position table and work counters."""
    spec.validate_for(doc.width, doc.height)
    stats = ExtractionStats()
    table: list[BoundaryRecord] = []
    rows: list[RunRow] = []
    for i in range(spec.x1 - 1, spec.x2):
        rec, visited = _scan_bounds(doc.rows[i], spec.y1, spec.y2)
        trimmed = trim_row(doc.rows[i], rec, width=spec.width)
        table.append(rec)
        rows.append(trimmed)
        stats.rows += 1
        stats.runs_visited += visited
        stats.runs_emitted += len(trimmed)
    block = CompressedDoc._trusted(spec.width, spec.height, tuple(rows))
    return block, table, stats


def extract_block(doc: CompressedDoc, spec: BlockSpec) -> CompressedDoc:
    """Extract the specified rectangle as a new CompressedDoc, working
    entirely on run data."""
    block, _, _ = extract_block_detailed(doc, spec)
    return block
