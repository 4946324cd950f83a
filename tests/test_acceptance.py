"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a PASS/FAIL
line (visible with `pytest -s` or on failure). Tolerances are stated inline;
"exact" means ==.
"""

import itertools
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import runblock.core
from runblock import (
    BlockSpec,
    BoundaryRecord,
    CompressedDoc,
    FeatureContext,
    accuracy_compressed,
    accuracy_pixel,
    baseline_cell_ops,
    ceq,
    decode_image,
    density,
    encode_image,
    encode_row,
    extract_block,
    extract_block_detailed,
    locate_end,
    locate_start,
    mh_decode_row,
    mh_encode_row,
    oracle_crop,
    pixel_features,
    read_pbm,
    read_rle,
    seq,
    trim_row,
    write_pbm,
    write_rle,
)
from runblock.mh import BLACK_TERMINATING, WHITE_TERMINATING

from helpers import (
    log_uniform_dim,
    random_grid,
    random_pixel_doc,
    random_spec,
    text_like_doc,
    text_like_row,
)

LOG_BASES = (2.0, math.e, 10.0)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def _random_corpus_doc(rng):
    height = log_uniform_dim(rng, 8, 512)
    width = log_uniform_dim(rng, 8, 512)
    if rng.random() < 0.3:
        return random_pixel_doc(rng, height, width)
    return text_like_doc(rng, height, width)


def test_criterion_1_extraction_fidelity():
    """500 random documents x 5 random blocks: both accuracy metrics are
    exactly 100 against the pixel-domain oracle. Zero tolerance."""
    with criterion(1, "extraction fidelity"):
        rng = np.random.default_rng(0xC1)
        for _ in range(500):
            doc = _random_corpus_doc(rng)
            grid = decode_image(doc)
            for _ in range(5):
                spec = random_spec(rng, doc)
                block = extract_block(doc, spec)
                truth = oracle_crop(grid, spec)
                assert accuracy_pixel(decode_image(block), truth).percentage == 100.0
                assert accuracy_compressed(block, encode_image(truth)).percentage == 100.0


def test_criterion_2_exhaustive_small_cases():
    """1000 random pixel patterns up to 6x6, every valid rectangle each:
    extraction equals the oracle crop bit-exactly. Zero tolerance."""
    with criterion(2, "exhaustive small-case equivalence"):
        rng = np.random.default_rng(0xC2)
        for _ in range(1000):
            height = int(rng.integers(1, 7))
            width = int(rng.integers(1, 7))
            grid = random_grid(rng, height, width, rng.uniform(0, 1))
            doc = encode_image(grid)
            for x1 in range(1, height + 1):
                for x2 in range(x1, height + 1):
                    for y1 in range(1, width + 1):
                        for y2 in range(y1, width + 1):
                            spec = BlockSpec(x1, x2, y1, y2)
                            block = extract_block(doc, spec)
                            assert np.array_equal(
                                decode_image(block), grid[x1 - 1 : x2, y1 - 1 : y2]
                            )


def test_criterion_3_worked_example():
    """Row [4,4] with columns 3..6: boundary record (1, 2, 2, 2), trimmed
    row [2,2]. Exact."""
    with criterion(3, "worked example"):
        row = (4, 4)
        assert locate_start(row, 3) == (1, 2)
        assert locate_end(row, 6) == (2, 2)
        rec = BoundaryRecord(1, 2, 2, 2)
        assert trim_row(row, rec) == (2, 2)
        doc = CompressedDoc.from_rows([row, row])
        assert extract_block(doc, BlockSpec(1, 2, 3, 6)).rows == ((2, 2), (2, 2))


def test_criterion_4_density_cross_consistency():
    """Blocks with the published absolute densities inside a 1009 x 1542
    page reproduce the published relative densities within 5e-4, and the
    relative density equals absolute x (block area / page area) exactly in
    rational arithmetic."""
    with criterion(4, "density cross-consistency"):
        page = (1009, 1542)
        page_area = page[0] * page[1]
        assert page_area == 1_555_878
        cases = [
            # (rows, cols, origin, absolute density, published relative density)
            (300, 300, (100, 200), 0.1326, 0.0077),
            (300, 400, (500, 700), 0.1556, 0.0121),
            (300, 300, (700, 1200), 0.0677, 0.0039),
            (400, 300, (100, 1200), 0.0797, 0.0062),
        ]
        for rows, cols, origin, d_abs, d_rel in cases:
            ink = round(d_abs * rows * cols)
            # the published densities are exact pixel counts over the area
            assert abs(ink - d_abs * rows * cols) < 1e-6
            full, rem = divmod(ink, cols)
            run_rows = [(0, cols)] * full
            if rem:
                run_rows.append((0, rem, cols - rem))
            run_rows.extend([(cols,)] * (rows - len(run_rows)))
            block = CompressedDoc.from_rows(run_rows)
            abs_ctx = FeatureContext.absolute(block)
            rel_ctx = FeatureContext.relative(block, doc_dims=page, block_origin=origin)
            assert density(block, abs_ctx) == pytest.approx(d_abs, abs=1e-12)
            assert density(block, rel_ctx) == pytest.approx(d_rel, abs=5e-4)
            # the exact identity, on the integer counts
            block_area = rows * cols
            assert Fraction(ink, page_area) == Fraction(ink, block_area) * Fraction(
                block_area, page_area
            )
            assert density(block, rel_ctx) == ink / page_area


def test_criterion_5_feature_oracle_equivalence():
    """Run-domain density/ceq/seq match the pixel-domain oracle within
    1e-9 relative (1e-12 absolute floor for exact-zero cases) on 500 random
    blocks and on every grid up to 4x4, in both modes and all log bases."""
    with criterion(5, "feature oracle equivalence"):
        def check(block, grid, doc_dims, origin):
            for base in LOG_BASES:
                contexts = (
                    FeatureContext.absolute(block, log_base=base),
                    FeatureContext.relative(
                        block, doc_dims=doc_dims, block_origin=origin, log_base=base
                    ),
                )
                for ctx in contexts:
                    ref = pixel_features(grid, ctx)
                    assert density(block, ctx) == pytest.approx(ref.density, rel=1e-9, abs=1e-12)
                    assert ceq(block, ctx) == pytest.approx(ref.ceq, rel=1e-9, abs=1e-12)
                    assert seq(block, ctx) == pytest.approx(ref.seq, rel=1e-9, abs=1e-12)

        rng = np.random.default_rng(0xC5)
        for _ in range(500):
            height = log_uniform_dim(rng, 8, 96)
            width = log_uniform_dim(rng, 8, 96)
            doc = (
                random_pixel_doc(rng, height, width)
                if rng.random() < 0.3
                else text_like_doc(rng, height, width)
            )
            spec = random_spec(rng, doc)
            block = extract_block(doc, spec)
            check(block, decode_image(block), (doc.height, doc.width), (spec.x1, spec.y1))

        for height in range(1, 5):
            for width in range(1, 5):
                doc_dims = (height + 3, width + 2)
                for bits in itertools.product((0, 1), repeat=height * width):
                    pixel_rows = [
                        bits[r * width : (r + 1) * width] for r in range(height)
                    ]
                    block = CompressedDoc(
                        width=width,
                        height=height,
                        rows=tuple(encode_row(r) for r in pixel_rows),
                    )
                    check(block, np.array(pixel_rows, dtype=np.uint8), doc_dims, (3, 2))


def test_criterion_6_codec_round_trips():
    """PBM (P1 and P4) and RLC1 round-trip bit-exactly on 500 random
    images; the fax codec round-trips every single-run length 1..2600 in
    both colors, decodes zero-length runs of both colors inside a row, and
    round-trips 1000 random multi-run rows. Zero tolerance."""
    with criterion(6, "codec round-trips"):
        rng = np.random.default_rng(0xC6)
        for _ in range(500):
            grid = random_grid(
                rng, int(rng.integers(1, 65)), int(rng.integers(1, 65)), rng.uniform(0, 1)
            )
            assert np.array_equal(read_pbm(write_pbm(grid)), grid)
            assert np.array_equal(read_pbm(write_pbm(grid, plain=True)), grid)
            doc = encode_image(grid)
            data = write_rle(doc)
            assert read_rle(data) == doc
            assert write_rle(read_rle(data)) == data

        # white runs as (length,), black runs and white 0 as (0, length)
        for length in range(1, 2601):
            assert mh_decode_row(mh_encode_row((length,)), length) == (length,)
            assert mh_decode_row(mh_encode_row((0, length)), length) == (0, length)
        # white 1, black 0, white 1, black 1, white 0, black 1: zero-length
        # runs of both colors inside a row, as foreign encoders write them
        zero_runs = "".join([
            WHITE_TERMINATING[1], BLACK_TERMINATING[0], WHITE_TERMINATING[1],
            BLACK_TERMINATING[1], WHITE_TERMINATING[0], BLACK_TERMINATING[1],
        ])
        assert mh_decode_row(zero_runs, 4) == (2, 2)

        for _ in range(1000):
            width = int(rng.integers(1, 600))
            row = text_like_row(rng, width)
            assert mh_decode_row(mh_encode_row(row), width) == row


def test_criterion_7_no_decompression(monkeypatch):
    """Extraction touches at most the run count of the selected rows,
    never calls a pixel decoder, and needs at least 10x fewer elementary
    cell operations than decompress-crop-recompress on a 1009 x 1542 page
    at ~10% ink."""
    with criterion(7, "no-decompression guarantee"):
        rng = np.random.default_rng(0xC7)
        rows = []
        for _ in range(1009):
            runs = []
            remaining = 1542
            foreground = False
            while remaining > 0:
                limit = (30, 87) if not foreground else (1, 12)
                r = min(int(rng.integers(limit[0], limit[1] + 1)), remaining)
                runs.append(r)
                remaining -= r
                foreground = not foreground
            rows.append(tuple(runs))
        doc = CompressedDoc(width=1542, height=1009, rows=tuple(rows))
        ink = sum(sum(r[1::2]) for r in doc.rows) / (1009 * 1542)
        assert 0.05 < ink < 0.15  # the corpus really is ~10% ink

        spec = BlockSpec(x1=100, x2=399, y1=200, y2=499)
        assert (spec.height, spec.width) == (300, 300)

        # any attempt to expand pixels during extraction is an error
        def forbidden(*args, **kwargs):
            raise AssertionError("pixel decoder invoked during extraction")

        monkeypatch.setattr(runblock.core, "decode_row", forbidden)
        monkeypatch.setattr(runblock.core, "decode_image", forbidden)
        block, _, stats = extract_block_detailed(doc, spec)
        monkeypatch.undo()

        selected_runs = sum(len(doc.rows[i]) for i in range(spec.x1 - 1, spec.x2))
        assert stats.runs_visited <= selected_runs

        compressed_ops = stats.runs_visited + stats.runs_emitted
        baseline_ops = baseline_cell_ops((1009, 1542), (300, 300))
        assert baseline_ops >= 10 * compressed_ops, (baseline_ops, compressed_ops)

        assert np.array_equal(decode_image(block), oracle_crop(decode_image(doc), spec))


def test_criterion_8_ceq_bounds():
    """Every per-row ceq term lies in [0, log 2] and every total in
    [0, rows * log 2], across a randomized corpus and all log bases."""
    with criterion(8, "ceq bounds"):
        rng = np.random.default_rng(0xC8)
        for _ in range(150):
            doc = _random_corpus_doc(rng)
            for base in LOG_BASES:
                ctx = FeatureContext.absolute(doc, log_base=base)
                cap = math.log(2) / math.log(base)
                total = ceq(doc, ctx)
                assert 0.0 <= total <= doc.height * cap + 1e-9
                row_sum = 0.0
                for row in doc.rows:
                    one = CompressedDoc(width=doc.width, height=1, rows=(row,))
                    term = ceq(one, FeatureContext.absolute(one, log_base=base))
                    assert 0.0 <= term <= cap + 1e-12
                    row_sum += term
                assert total == pytest.approx(row_sum, rel=1e-12, abs=1e-12)
