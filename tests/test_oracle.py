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

from helpers import random_doc, random_grid, random_spec, text_like_doc


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


def test_baseline_cell_ops():
    assert baseline_cell_ops((1009, 1542), (300, 300)) == 1009 * 1542 + 2 * 300 * 300
