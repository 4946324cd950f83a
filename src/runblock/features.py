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
come from the row offsets and transition positions from the cumulative run
sum, as arrays that the document caches; pixels are never expanded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CompressedDoc, _check_integers
from .errors import ConsistencyError, ValidationError
from .extract import BlockSpec, extract_block

ABSOLUTE = "absolute"
RELATIVE = "relative"

#: CLI-facing names for the supported logarithm bases.
LOG_BASES = {"2": 2.0, "e": math.e, "10": 10.0}


_LOGS = {2.0: math.log2, 10.0: math.log10, math.e: math.log}


def _logger(base: float):
    """The scalar logarithm to `base`: math's own function for 2, e and 10."""
    return _LOGS.get(base) or (lambda x: math.log(x) / math.log(base))


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
        for name in ("block_dims", "doc_dims", "block_origin"):
            _check_integers(**{f"{name}[{i}]": v for i, v in enumerate(getattr(self, name) or ())})
        if self.block_dims[0] < 1 or self.block_dims[1] < 1:
            raise ValidationError(f"bad block dimensions {self.block_dims}")
        if not 0 < self.log_base < math.inf or self.log_base == 1.0:
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

    @property
    def frame(self) -> tuple[int, int, int, int]:
        """(m, n, row offset, column offset): the dimensions that normalize
        the features and the block's offset inside them. These are the
        block's own with offsets 0 in absolute mode, and the document's with
        the block's origin less one in relative mode."""
        if self.mode == ABSOLUTE:
            return (*self.block_dims, 0, 0)
        return (*self.doc_dims, self.block_origin[0] - 1, self.block_origin[1] - 1)

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
    return int(CompressedDoc.from_rows([row]).row_transitions[0])


def foreground_pixels(row: Sequence[int]) -> int:
    """Foreground pixel count of a canonical background-first row: the sum
    of the runs at even 1-indexed positions."""
    return CompressedDoc.from_rows([row]).foreground


def transition_columns(row: Sequence[int]) -> list[int]:
    """Columns of the color transitions in a canonical row, 1-indexed: the
    column of the last pixel before each color change."""
    return CompressedDoc.from_rows([row]).transitions[1].tolist()


def foreground_total(block: CompressedDoc) -> int:
    """Total foreground pixel count of a document, from runs alone."""
    return block.foreground


def _check_block(block: CompressedDoc, ctx: FeatureContext) -> None:
    if (block.height, block.width) != ctx.block_dims:
        raise ValidationError(
            f"context is for a {ctx.block_dims} block, got {(block.height, block.width)}"
        )


def density(block: CompressedDoc, ctx: FeatureContext) -> float:
    """Foreground fraction: ink pixels over block area (absolute) or over
    the source document's area (relative)."""
    _check_block(block, ctx)
    m, n, _, _ = ctx.frame
    return block.foreground / (m * n)


def _sum(terms: np.ndarray) -> float:
    """Sum from the first term to the last, one addition at a time, as a
    Python loop adds; the terms are never -0.0, so starting at the first
    term equals starting at 0.0. Not `np.sum`, which adds pairwise."""
    return float(np.add.accumulate(terms)[-1]) if terms.size else 0.0


def ceq(block: CompressedDoc, ctx: FeatureContext) -> float:
    """Summed per-row transition entropy.

    For each row, p = transitions / T with T the block width in absolute
    mode and the document width in relative mode; the row contributes the
    binary entropy of p, and rows with p in {0, 1} contribute 0. The entropy
    is computed once per distinct transition count.
    """
    _check_block(block, ctx)
    normalizer = ctx.frame[1]
    counts, log = block.row_transitions, _logger(ctx.log_base)
    present = sorted(set(counts.tolist()))
    table = np.zeros(present[-1] + 1)
    # p = 0 contributes 0 (the entropy's limit), and p < 1, since a row has
    # fewer transitions than pixels
    table[present] = [
        p * log(1.0 / p) + (1.0 - p) * log(1.0 / (1.0 - p)) if p else 0.0
        for p in [t / normalizer for t in present]
    ]
    return _sum(table[counts])


def seq(block: CompressedDoc, ctx: FeatureContext) -> float:
    """Summed positional transition entropy.

    Every transition at column `pos` of row `r` contributes

        (r/m) * [ (pos/n) * log(n/pos) + (m - pos/n) * log(m/(m+n-pos)) ]

    with (m, n) the block dimensions in absolute mode. In relative mode
    (m, n) are the document dimensions and r and pos are offset by the
    block's origin so they are document coordinates. The bracket depends on
    `pos` alone, so it is computed once per column of the block.
    """
    _check_block(block, ctx)
    m, n, row_offset, col_offset = ctx.frame
    log = _logger(ctx.log_base)
    # indexed by the column within the block; column 0 holds no transition
    table = [0.0] + [
        (pos / n) * log(n / pos) + (m - pos / n) * log(m / (m + n - pos))
        for pos in range(col_offset + 1, col_offset + block.width)
    ]
    rows, columns = block.transitions
    # the weight r / m, as a Python int division gives it: both convert
    # exactly to floats
    return _sum((rows + (row_offset + 1)) / m * np.array(table)[columns])


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
