"""Density and entropy characterization computed straight from run data.

Two entropy quantifiers describe a block:

* ceq ("conventional entropy quantifier") treats each row's color
  transitions as a probability p = transitions / row-normalizer and sums the
  binary entropy of p over all rows.
* seq ("sequential entropy quantifier") adds, for every transition, a
  positional entropy term weighted by the row index, so it is sensitive to
  where ink sits, not just how much changes.

Both come in two modes. Absolute mode normalizes by the block's own
dimensions. Relative mode normalizes by the source document's dimensions
and offsets row/column positions by the block's origin inside the document,
so the block is measured as a piece of its parent page. Transition counts
and positions come from cumulative run sums; pixels are never expanded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import CompressedDoc
from .errors import ConsistencyError, ValidationError
from .extract import BlockSpec, extract_block

ABSOLUTE = "absolute"
RELATIVE = "relative"

#: CLI-facing names for the supported logarithm bases.
LOG_BASES = {"2": 2.0, "e": math.e, "10": 10.0}


def _log(x: float, base: float) -> float:
    if base == 2.0:
        return math.log2(x)
    if base == 10.0:
        return math.log10(x)
    if base == math.e:
        return math.log(x)
    return math.log(x) / math.log(base)


def _entropy(p: float, base: float) -> float:
    # 0 * log(1/0) := 0 (entropy limit)
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return p * _log(1.0 / p, base) + (1.0 - p) * _log(1.0 / (1.0 - p), base)


@dataclass(frozen=True)
class FeatureContext:
    """Normalization context for one feature report.

    `block_dims` is (rows, columns) of the block itself. Relative mode
    additionally needs the source document's dimensions and the block's
    origin (x1, y1) inside it, 1-indexed.
    """

    mode: str
    block_dims: tuple[int, int]
    doc_dims: tuple[int, int] | None = None
    block_origin: tuple[int, int] | None = None
    log_base: float = math.e

    def __post_init__(self):
        if self.mode not in (ABSOLUTE, RELATIVE):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.block_dims[0] < 1 or self.block_dims[1] < 1:
            raise ValidationError(f"bad block dimensions {self.block_dims}")
        if self.log_base <= 0 or self.log_base == 1.0:
            raise ValidationError(f"bad logarithm base {self.log_base}")
        if self.mode == RELATIVE:
            if self.doc_dims is None or self.block_origin is None:
                raise ValidationError(
                    "relative mode needs the document dimensions and the block origin"
                )
            x1, y1 = self.block_origin
            if x1 < 1 or y1 < 1:
                raise ValidationError(f"bad block origin {self.block_origin}")
            if (
                x1 - 1 + self.block_dims[0] > self.doc_dims[0]
                or y1 - 1 + self.block_dims[1] > self.doc_dims[1]
            ):
                raise ValidationError(
                    f"block {self.block_dims} at {self.block_origin} does not fit "
                    f"inside document {self.doc_dims}"
                )

    @classmethod
    def absolute(cls, block: CompressedDoc, log_base: float = math.e) -> "FeatureContext":
        return cls(mode=ABSOLUTE, block_dims=(block.height, block.width), log_base=log_base)

    @classmethod
    def relative(
        cls,
        block: CompressedDoc,
        doc_dims: tuple[int, int],
        block_origin: tuple[int, int],
        log_base: float = math.e,
    ) -> "FeatureContext":
        return cls(
            mode=RELATIVE,
            block_dims=(block.height, block.width),
            doc_dims=doc_dims,
            block_origin=block_origin,
            log_base=log_base,
        )


@dataclass(frozen=True)
class FeatureReport:
    """Density, ceq and seq of one block under one context."""

    density: float
    ceq: float
    seq: float
    context: FeatureContext


def transitions_in_row(row: Sequence[int]) -> int:
    """Number of adjacent opposite-color pixel pairs in a canonical row."""
    if not row:
        return 0
    nonzero = len(row) - (1 if row[0] == 0 else 0)
    return max(nonzero - 1, 0)


def foreground_pixels(row: Sequence[int]) -> int:
    """Foreground pixel count of a canonical background-first row: the sum
    of the runs at even 1-indexed positions."""
    return sum(row[1::2])


def transition_columns(row: Sequence[int]) -> list[int]:
    """Columns of the color transitions in a canonical row, 1-indexed.

    Each value is the column of the last pixel before a color change, i.e.
    the cumulative run sum at that boundary.
    """
    cols = []
    run_sum = 0
    for length in row[:-1]:
        run_sum += length
        if run_sum > 0:  # skip the zero-length leading background run
            cols.append(run_sum)
    return cols


def foreground_total(block: CompressedDoc) -> int:
    """Total foreground pixel count of a document, from runs alone."""
    return sum(foreground_pixels(row) for row in block.rows)


def _check_block(block: CompressedDoc, ctx: FeatureContext) -> None:
    if (block.height, block.width) != ctx.block_dims:
        raise ValidationError(
            f"context is for a {ctx.block_dims} block, got {(block.height, block.width)}"
        )


def density(block: CompressedDoc, ctx: FeatureContext) -> float:
    """Foreground fraction: ink pixels over block area (absolute) or over
    the source document's area (relative)."""
    _check_block(block, ctx)
    if ctx.mode == ABSOLUTE:
        area = block.height * block.width
    else:
        area = ctx.doc_dims[0] * ctx.doc_dims[1]
    return foreground_total(block) / area


def ceq(block: CompressedDoc, ctx: FeatureContext) -> float:
    """Summed per-row transition entropy.

    For each row, p = transitions / T with T the block width in absolute
    mode and the document width in relative mode; the row contributes the
    binary entropy of p, and rows with p in {0, 1} contribute 0.
    """
    _check_block(block, ctx)
    normalizer = block.width if ctx.mode == ABSOLUTE else ctx.doc_dims[1]
    total = 0.0
    for row in block.rows:
        p = transitions_in_row(row) / normalizer
        total += _entropy(p, ctx.log_base)
    return total


def seq(block: CompressedDoc, ctx: FeatureContext) -> float:
    """Summed positional transition entropy.

    Every transition at column `pos` of row `r` contributes

        (r/m) * [ (pos/n) * log(n/pos) + (m - pos/n) * log(m/(m+n-pos)) ]

    with (m, n) the block dimensions in absolute mode. In relative mode
    (m, n) are the document dimensions and r and pos are offset by the
    block's origin so they are document coordinates.
    """
    _check_block(block, ctx)
    if ctx.mode == ABSOLUTE:
        m, n = block.height, block.width
        row_offset = col_offset = 0
    else:
        m, n = ctx.doc_dims
        row_offset = ctx.block_origin[0] - 1
        col_offset = ctx.block_origin[1] - 1
    base = ctx.log_base
    total = 0.0
    for local_row, row in enumerate(block.rows, 1):
        r = row_offset + local_row
        weight = r / m
        for local_col in transition_columns(row):
            pos = col_offset + local_col
            total += weight * (
                (pos / n) * _log(n / pos, base)
                + (m - pos / n) * _log(m / (m + n - pos), base)
            )
    return total


@dataclass(frozen=True)
class Characterization:
    """Bundle of absolute and (optionally) relative feature reports.

    The qualitative labels compare the block against its source document:
    density against the document's absolute density, and entropy against the
    document's per-row mean ceq (per-row so blocks and documents of
    different heights compare on one scale). They are present only when the
    source document was supplied.
    """

    absolute: FeatureReport
    relative: FeatureReport | None = None
    density_label: str | None = None
    entropy_label: str | None = None


def _report(block: CompressedDoc, ctx: FeatureContext) -> FeatureReport:
    """All three features of `block` under one context."""
    return FeatureReport(
        density=density(block, ctx), ceq=ceq(block, ctx), seq=seq(block, ctx), context=ctx
    )


def characterize(
    block: CompressedDoc,
    doc: CompressedDoc | None = None,
    spec: BlockSpec | None = None,
    log_base: float = math.e,
) -> Characterization:
    """Compute feature reports for a block.

    With only the block given, the result has just the absolute report.
    With the source document and the block's rectangle also given, the
    block is verified to be exactly the extraction of that rectangle, and
    the relative report plus the high/low density and entropy labels are
    filled in.
    """
    if (doc is None) != (spec is None):
        raise ValidationError("source document and block rectangle must be given together")
    absolute = _report(block, FeatureContext.absolute(block, log_base))
    if doc is None:
        return Characterization(absolute=absolute)

    if extract_block(doc, spec) != block:
        raise ConsistencyError(
            "block does not match the extraction of the given rectangle"
        )
    rel_ctx = FeatureContext.relative(
        block,
        doc_dims=(doc.height, doc.width),
        block_origin=(spec.x1, spec.y1),
        log_base=log_base,
    )
    relative = _report(block, rel_ctx)
    doc_ctx = FeatureContext.absolute(doc, log_base)
    doc_density = density(doc, doc_ctx)
    doc_row_ceq = ceq(doc, doc_ctx) / doc.height
    block_row_ceq = absolute.ceq / block.height
    return Characterization(
        absolute=absolute,
        relative=relative,
        density_label="high" if absolute.density >= doc_density else "low",
        entropy_label="high" if block_row_ceq >= doc_row_ceq else "low",
    )
