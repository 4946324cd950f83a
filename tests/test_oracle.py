import itertools
import math
import tracemalloc
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runblock import (
    AccuracyResult,
    BlockSpec,
    CompressedDoc,
    FeatureContext,
    ValidationError,
    accuracy_compressed,
    accuracy_pixel,
    baseline_cell_ops,
    decode_image,
    encode_image,
    extract_block,
    oracle_crop,
    pixel_features,
)
from runblock import oracle

from helpers import (
    log_uniform_dim,
    random_doc,
    random_grid,
    random_pixel_doc,
    random_spec,
    reference_pixel_features,
    text_like_doc,
)


class TestOracleCrop:
    def test_full_grid_identity(self):
        grid = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        assert np.array_equal(oracle_crop(grid, BlockSpec(1, 2, 1, 2)), grid)

    def test_single_pixel(self):
        grid = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        assert oracle_crop(grid, BlockSpec(1, 1, 2, 2)).tolist() == [[1]]

    def test_out_of_bounds(self):
        grid = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(ValidationError):
            oracle_crop(grid, BlockSpec(1, 3, 1, 2))

    def test_crop_is_a_copy(self):
        grid = np.zeros((2, 2), dtype=np.uint8)
        crop = oracle_crop(grid, BlockSpec(1, 1, 1, 1))
        crop[0, 0] = 1
        assert grid[0, 0] == 0


class TestAccuracyPixel:
    def test_equal_grids(self):
        g = np.array([[0, 1]], dtype=np.uint8)
        assert accuracy_pixel(g, g).percentage == 100.0

    def test_opposite_grids(self):
        a = np.ones((3, 3), dtype=np.uint8)
        b = np.zeros((3, 3), dtype=np.uint8)
        assert accuracy_pixel(a, b).percentage == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(20)
        a = random_grid(rng, 5, 7)
        b = random_grid(rng, 5, 7)
        assert accuracy_pixel(a, b).percentage == accuracy_pixel(b, a).percentage

    def test_shifted_block_hand_value(self):
        # two-pixel-wide bar, shifted right by one: 8 of 16 cells disagree
        truth = np.array([[1, 1, 0, 0]] * 4, dtype=np.uint8)
        shifted = np.array([[0, 1, 1, 0]] * 4, dtype=np.uint8)
        assert accuracy_pixel(shifted, truth).percentage == pytest.approx(50.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            accuracy_pixel(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_every_dtype_gives_the_widened_difference(self):
        rng = np.random.default_rng(17)
        for shape in ((1, 1), (3, 5), (40, 33)):
            a, b = random_grid(rng, *shape), random_grid(rng, *shape, density=0.2)
            # the formula of the docstring on int64 pixels
            expected = (1.0 - np.abs(a.astype(np.int64) - b.astype(np.int64)).sum() / a.size) * 100.0
            for dtype in (np.uint8, bool, np.int64):
                assert accuracy_pixel(a.astype(dtype), b.astype(dtype)).percentage == expected
            assert accuracy_pixel(a.astype(bool), b.tolist()).percentage == expected

    @pytest.mark.parametrize(
        "dtype, bad",
        [(float, 2), (float, -1), (float, 0.5), (np.uint8, 255), (np.uint16, 256), (np.int8, -1), (np.int64, 2)],
    )
    def test_values_other_than_0_and_1_rejected(self, dtype, bad):
        good = np.zeros((2, 3), dtype=dtype)
        grid = good.copy()
        grid[1, 2] = bad
        for a, b in ((grid, good), (good, grid)):
            with pytest.raises(ValidationError, match="other than 0 and 1"):
                accuracy_pixel(a, b)

    def test_empty_grids_rejected(self):
        for grid in (np.zeros((0, 3), dtype=np.uint8), [[]]):
            with pytest.raises(ValidationError, match="at least one pixel"):
                accuracy_pixel(grid, grid)


class TestAccuracyCompressed:
    def test_equal_docs(self):
        doc = CompressedDoc.from_rows([(2, 2), (4,)])
        assert accuracy_compressed(doc, doc).percentage == 100.0

    def test_padded_hand_example(self):
        # rows [2,2] vs [4]: padded diff |2-4| + |2-0| = 4 over area 4
        a = CompressedDoc.from_rows([(2, 2)])
        b = CompressedDoc.from_rows([(4,)])
        assert accuracy_compressed(a, b).percentage == 0.0

    def test_symmetric_for_equal_width(self):
        rng = np.random.default_rng(21)
        a = text_like_doc(rng, 6, 20)
        b = text_like_doc(rng, 6, 20)
        assert accuracy_compressed(a, b).percentage == pytest.approx(
            accuracy_compressed(b, a).percentage
        )

    def test_clamps_at_zero(self):
        a = CompressedDoc.from_rows([(1, 1, 1, 1)])
        b = CompressedDoc.from_rows([(4,)])
        assert accuracy_compressed(a, b).percentage == 0.0

    def test_height_mismatch(self):
        a = CompressedDoc.from_rows([(4,)])
        b = CompressedDoc.from_rows([(4,), (4,)])
        with pytest.raises(ValidationError):
            accuracy_compressed(a, b)

    def test_width_mismatch(self):
        a = CompressedDoc.from_rows([(4,)])
        b = CompressedDoc.from_rows([(5,)])
        with pytest.raises(ValidationError):
            accuracy_compressed(a, b)


def ref_accuracy_compressed(a: CompressedDoc, b: CompressedDoc) -> float:
    """The metric as first written: a walk over the row tuples, run by run,
    the shorter row padded with zero-length runs."""
    if a.height != b.height:
        raise ValidationError(f"heights differ: {a.height} vs {b.height}")
    if a.width != b.width:
        raise ValidationError(f"widths differ: {a.width} vs {b.width}")
    mismatch = 0
    for row_a, row_b in zip(a.rows, b.rows):
        for ra, rb in zip_longest(row_a, row_b, fillvalue=0):
            mismatch += abs(ra - rb)
    area = a.height * sum(a.rows[0])
    return max((1.0 - mismatch / area) * 100.0, 0.0)


def accuracy_outcome(metric, a, b):
    try:
        result = metric(a, b)
    except ValidationError as exc:
        return f"ValidationError: {exc}"
    return result.percentage if isinstance(result, AccuracyResult) else result


@st.composite
def pixel_docs(draw, height, width):
    """A document from drawn pixels: rows of many or few runs, and rows that
    start black and so lead with a zero-length run."""
    density = draw(st.sampled_from([0.05, 0.5, 0.95]))
    seed = draw(st.integers(0, 2**32 - 1))
    return encode_image(random_grid(np.random.default_rng(seed), height, width, density))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_accuracy_compressed_equals_the_run_by_run_walk(data):
    height = data.draw(st.integers(1, 8))
    width = data.draw(st.integers(1, 40))
    a = data.draw(pixel_docs(height, width))
    # most pairs share their dimensions; the rest differ in height or width
    shape = data.draw(st.sampled_from(["same"] * 4 + ["height", "width", "both"]))
    b_height = height + data.draw(st.integers(1, 3)) if shape in ("height", "both") else height
    b_width = width + data.draw(st.integers(1, 3)) if shape in ("width", "both") else width
    b = data.draw(pixel_docs(b_height, b_width))
    for x, y in ((a, b), (b, a)):
        assert accuracy_outcome(accuracy_compressed, x, y) == accuracy_outcome(ref_accuracy_compressed, x, y)


def test_extraction_scores_100_both_ways():
    rng = np.random.default_rng(22)
    for _ in range(40):
        doc = random_doc(rng, 4, 64)
        grid = decode_image(doc)
        spec = random_spec(rng, doc)
        block = extract_block(doc, spec)
        truth_grid = oracle_crop(grid, spec)
        assert accuracy_pixel(decode_image(block), truth_grid).percentage == 100.0
        assert accuracy_compressed(block, encode_image(truth_grid)).percentage == 100.0


class TestPixelFeatures:
    def test_uniform_grids(self):
        blank = np.zeros((3, 4), dtype=np.uint8)
        solid = np.ones((3, 4), dtype=np.uint8)
        ctx = FeatureContext(mode="absolute", block_dims=(3, 4))
        for grid, expected_density in ((blank, 0.0), (solid, 1.0)):
            report = pixel_features(grid, ctx)
            assert report.density == expected_density
            assert report.ceq == 0.0
            assert report.seq == 0.0

    def test_dims_must_match_context(self):
        ctx = FeatureContext(mode="absolute", block_dims=(2, 2))
        with pytest.raises(ValidationError):
            pixel_features(np.zeros((3, 3)), ctx)

    def test_equals_the_row_by_row_oracle_on_criterion_5_grids(self):
        def grids():
            # the blocks of criterion 5's generators, and grids of up to 4x4
            # in its small-grid layout: all of up to nine pixels, 64 of each
            # larger shape
            rng = np.random.default_rng(0x5C)
            for _ in range(100):
                height, width = log_uniform_dim(rng, 8, 96), log_uniform_dim(rng, 8, 96)
                if rng.random() < 0.3:
                    doc = random_pixel_doc(rng, height, width)
                else:
                    doc = text_like_doc(rng, height, width)
                spec = random_spec(rng, doc)
                yield decode_image(extract_block(doc, spec)), (doc.height, doc.width), (spec.x1, spec.y1)
            for height, width in itertools.product(range(1, 5), repeat=2):
                if height * width <= 9:
                    patterns = itertools.product((0, 1), repeat=height * width)
                else:
                    patterns = rng.integers(0, 2, (64, height * width))
                for bits in patterns:
                    yield np.array(bits, dtype=np.uint8).reshape(height, width), (height + 3, width + 2), (3, 2)

        for grid, doc_dims, origin in grids():
            for base in (2.0, math.e, 10.0):
                for ctx in (
                    FeatureContext(mode="absolute", block_dims=grid.shape, log_base=base),
                    FeatureContext(mode="relative", block_dims=grid.shape, doc_dims=doc_dims,
                                   block_origin=origin, log_base=base),
                ):
                    assert pixel_features(grid, ctx) == reference_pixel_features(grid, ctx)

    @pytest.mark.parametrize("chunk_pixels", [1, 40])
    def test_row_chunks_keep_the_order_of_the_terms(self, monkeypatch, chunk_pixels):
        # chunks of one row, or of a few, on grids of up to 40 columns
        monkeypatch.setattr(oracle, "_CHUNK_PIXELS", chunk_pixels)
        rng = np.random.default_rng(0x5D)
        for _ in range(20):
            grid = random_grid(rng, int(rng.integers(1, 30)), int(rng.integers(1, 40)))
            for ctx in (
                FeatureContext(mode="absolute", block_dims=grid.shape),
                FeatureContext(mode="relative", block_dims=grid.shape,
                               doc_dims=(grid.shape[0] + 5, grid.shape[1] + 1), block_origin=(4, 2)),
            ):
                assert pixel_features(grid, ctx) == reference_pixel_features(grid, ctx)

    def test_memory_does_not_grow_with_the_ink(self):
        # noise of 512 x 512 pixels has about 131,000 transitions: listed
        # all at once as Python ints, their positions take over 8 MiB
        grid = random_grid(np.random.default_rng(1), 512, 512)
        ctx = FeatureContext(mode="absolute", block_dims=grid.shape)
        tracemalloc.start()
        try:
            pixel_features(grid, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def test_baseline_cell_ops():
    assert baseline_cell_ops((1009, 1542), (300, 300)) == 1009 * 1542 + 2 * 300 * 300
