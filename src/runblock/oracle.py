"""Pixel-domain reference implementations and accuracy metrics.

Everything here works on expanded pixels (or, for the compressed accuracy
metric, on raw run matrices) and deliberately shares no computation helpers
with the run-domain modules: agreement between the two paths is evidence,
not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CompressedDoc
from .errors import ValidationError
from .extract import BlockSpec
from .features import FeatureContext, FeatureReport

PIXEL = "pixel"
COMPRESSED = "compressed"

# Pixels per chunk of rows whose transitions `pixel_features` lists at once,
# so that its lists of positions stay small however dense the ink is
_CHUNK_PIXELS = 1 << 16


@dataclass(frozen=True)
class AccuracyResult:
    """Match percentage between an extracted block and its ground truth."""

    percentage: float
    mode: str


def oracle_crop(grid, spec: BlockSpec) -> np.ndarray:
    """Ground-truth crop: the literal sub-matrix rows x1..x2, columns
    y1..y2 (1-indexed inclusive) of a pixel grid."""
    arr = np.asarray(grid)
    if arr.ndim != 2:
        raise ValidationError("pixel grid must be 2-D")
    height, width = arr.shape
    spec.validate_for(width, height)
    return arr[spec.x1 - 1 : spec.x2, spec.y1 - 1 : spec.y2].copy()


def accuracy_pixel(a, b) -> AccuracyResult:
    """Percentage of agreeing pixels between two equally sized 0/1 grids:
    [1 - sum|A - B| / (m*n)] * 100."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2:
        raise ValidationError(f"grid dimensions differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValidationError("grid must contain at least one pixel")
    for grid in (a, b):
        # unsigned and boolean pixels are 0/1 when their maximum is
        if not (grid.max() <= 1 if grid.dtype.kind in "bu" else ((grid == 0) | (grid == 1)).all()):
            raise ValidationError("grid contains pixel values other than 0 and 1")
    # of two 0/1 pixels, |A - B| is 1 exactly where they differ
    mismatches = int(np.count_nonzero(a != b))
    pct = (1.0 - mismatches / a.size) * 100.0
    return AccuracyResult(percentage=pct, mode=PIXEL)


def accuracy_compressed(a: CompressedDoc, b: CompressedDoc) -> AccuracyResult:
    """Accuracy computed on the run matrices themselves.

    Rows are compared entry-wise with the shorter run list right-padded
    with zero-length runs; the mismatch mass is normalized by
    rows * (sum of the first row of A), which by the row-sum invariant is
    the pixel area. Mismatch mass larger than that area clamps to 0.
    """
    if a.height != b.height:
        raise ValidationError(f"heights differ: {a.height} vs {b.height}")
    if a.width != b.width:
        raise ValidationError(f"widths differ: {a.width} vs {b.width}")
    common = np.minimum(np.diff(a.offsets), np.diff(b.offsets))
    # the entries both rows hold, gathered row after row
    entry = np.arange(int(common.sum()))
    first = np.cumsum(common) - common  # of each row's entries in `entry`
    at_a = entry + np.repeat(a.offsets[:-1] - first, common)
    at_b = entry + np.repeat(b.offsets[:-1] - first, common)
    mismatch = int(np.abs(a.runs[at_a] - b.runs[at_b]).sum())
    # the longer row's tail meets zero-length runs: it adds its own sum
    for doc in (a, b):
        sums = np.concatenate(([0], np.cumsum(doc.runs)))
        mismatch += int((sums[doc.offsets[1:]] - sums[doc.offsets[:-1] + common]).sum())
    area = a.height * int(a.runs[a.offsets[0] : a.offsets[1]].sum())
    pct = max((1.0 - mismatch / area) * 100.0, 0.0)
    return AccuracyResult(percentage=pct, mode=COMPRESSED)


def _log(x: float, base: float) -> float:
    if base == 2.0:
        return math.log2(x)
    if base == 10.0:
        return math.log10(x)
    if base == math.e:
        return math.log(x)
    return math.log(x) / math.log(base)


def pixel_features(grid, ctx: FeatureContext) -> FeatureReport:
    """Density, ceq and seq evaluated by scanning raw pixels.

    Independent re-implementation of the run-domain feature definitions,
    used to validate them; transition counts and positions come from
    adjacent-pixel comparisons instead of run sums.
    """
    arr = np.asarray(grid)
    if arr.ndim != 2:
        raise ValidationError("pixel grid must be 2-D")
    if (arr.shape[0], arr.shape[1]) != ctx.block_dims:
        raise ValidationError(
            f"context is for a {ctx.block_dims} block, got {arr.shape}"
        )
    height, width = arr.shape
    if ctx.mode == "absolute":
        area = height * width
        ceq_normalizer = width
        m, n = height, width
        row_offset = col_offset = 0
    else:
        area = ctx.doc_dims[0] * ctx.doc_dims[1]
        ceq_normalizer = ctx.doc_dims[1]
        m, n = ctx.doc_dims
        row_offset = ctx.block_origin[0] - 1
        col_offset = ctx.block_origin[1] - 1

    base = ctx.log_base
    density = float(arr.sum()) / area
    # every pair of horizontally adjacent pixels at once; the terms are
    # still summed one at a time, row by row
    changed = arr[:, 1:] != arr[:, :-1]
    ceq_total = 0.0
    for t in changed.sum(axis=1).tolist():
        p = t / ceq_normalizer
        if 0.0 < p < 1.0:
            ceq_total += p * _log(1.0 / p, base) + (1.0 - p) * _log(1.0 / (1.0 - p), base)
    seq_total = 0.0
    rows = max(1, _CHUNK_PIXELS // width)
    for top in range(0, height, rows):
        chunk = np.nonzero(changed[top : top + rows])
        for i, col0 in zip(*(index.tolist() for index in chunk)):
            r = row_offset + top + i + 1
            pos = col_offset + col0 + 1  # column of the pixel before the change
            seq_total += (r / m) * (
                (pos / n) * _log(n / pos, base)
                + (m - pos / n) * _log(m / (m + n - pos), base)
            )
    return FeatureReport(density=density, ceq=ceq_total, seq=seq_total, context=ctx)


def baseline_cell_ops(doc_dims: tuple[int, int], block_dims: tuple[int, int]) -> int:
    """Elementary cell operations of the decompress-crop-recompress
    baseline: every document pixel is written once by the decompression,
    then every block pixel is copied by the crop and read again by the
    recompression scan."""
    doc_area = doc_dims[0] * doc_dims[1]
    block_area = block_dims[0] * block_dims[1]
    return doc_area + 2 * block_area
