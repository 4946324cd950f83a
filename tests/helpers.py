"""Synthetic document generators shared across the test suite, and the
row-by-row pixel oracle that `oracle.pixel_features` must match exactly."""

import math

import numpy as np

from runblock import BlockSpec, CompressedDoc, FeatureReport, ValidationError, encode_image
from runblock.oracle import _log


def random_grid(rng: np.random.Generator, height: int, width: int, density: float = 0.5):
    return (rng.random((height, width)) < density).astype(np.uint8)


def text_like_row(rng: np.random.Generator, width: int) -> tuple:
    """A row of ink blobs separated by wider gaps, occasionally black-first."""
    runs = []
    foreground = rng.random() < 0.1
    if foreground:
        runs.append(0)
    remaining = width
    while remaining > 0:
        limit = 12 if foreground else 40
        r = min(int(rng.integers(1, limit + 1)), remaining)
        runs.append(r)
        remaining -= r
        foreground = not foreground
    return tuple(runs)


def text_like_doc(rng: np.random.Generator, height: int, width: int) -> CompressedDoc:
    rows = []
    for _ in range(height):
        if rng.random() < 0.12:
            rows.append((width,))  # blank line
        else:
            rows.append(text_like_row(rng, width))
    return CompressedDoc(width=width, height=height, rows=tuple(rows))


def random_pixel_doc(rng: np.random.Generator, height: int, width: int) -> CompressedDoc:
    return encode_image(random_grid(rng, height, width, rng.uniform(0.05, 0.95)))


def log_uniform_dim(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def random_doc(rng: np.random.Generator, lo: int = 8, hi: int = 512) -> CompressedDoc:
    height = log_uniform_dim(rng, lo, hi)
    width = log_uniform_dim(rng, lo, hi)
    if rng.random() < 0.3:
        return random_pixel_doc(rng, height, width)
    return text_like_doc(rng, height, width)


def random_spec(rng: np.random.Generator, doc: CompressedDoc) -> BlockSpec:
    x1 = int(rng.integers(1, doc.height + 1))
    x2 = int(rng.integers(x1, doc.height + 1))
    y1 = int(rng.integers(1, doc.width + 1))
    y2 = int(rng.integers(y1, doc.width + 1))
    return BlockSpec(x1=x1, x2=x2, y1=y1, y2=y2)


def letter_like_doc(rng: np.random.Generator, height: int, width: int = 1728) -> CompressedDoc:
    """Rows in T.4 fax geometry: blank rows, and text rows between white
    margins of 120 pixels or more, so that both take make-up codes."""
    rows = []
    for _ in range(height):
        if rng.random() < 0.4:
            rows.append((width,))
            continue
        left, right = int(rng.integers(150, 260)), int(rng.integers(120, 200))
        middle = text_like_row(rng, width - left - right)
        runs = [left] + list(middle[1:]) if middle[0] == 0 else [left + middle[0], *middle[1:]]
        if len(runs) % 2:
            runs[-1] += right  # the row already ends white
        else:
            runs.append(right)
        rows.append(tuple(runs))
    return CompressedDoc(width=width, height=height, rows=tuple(rows))


def reference_pixel_features(grid, ctx) -> FeatureReport:
    """`oracle.pixel_features` as it was written: one row at a time, with
    its own comparisons, count and `np.flatnonzero` per row. The oracle
    must give the same floats, bit for bit."""
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
    ceq_total = 0.0
    seq_total = 0.0
    for i in range(height):
        row = arr[i]
        changed = row[1:] != row[:-1]
        t = int(np.count_nonzero(changed))
        p = t / ceq_normalizer
        if 0.0 < p < 1.0:
            ceq_total += p * _log(1.0 / p, base) + (1.0 - p) * _log(1.0 / (1.0 - p), base)
        r = row_offset + i + 1
        for col0 in np.flatnonzero(changed):
            pos = col_offset + int(col0) + 1  # column of the pixel before the change
            seq_total += (r / m) * (
                (pos / n) * _log(n / pos, base)
                + (m - pos / n) * _log(m / (m + n - pos), base)
            )
    return FeatureReport(density=density, ceq=ceq_total, seq=seq_total, context=ctx)
