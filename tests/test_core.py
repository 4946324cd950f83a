import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from runblock import (
    CompressedDoc,
    FormatError,
    ValidationError,
    canonicalize_row,
    decode_image,
    decode_row,
    encode_image,
    encode_row,
    is_canonical,
)

from helpers import random_grid


class TestEncodeRow:
    def test_all_background(self):
        assert encode_row([0, 0, 0, 0, 0]) == (5,)

    def test_foreground_first_gets_leading_zero(self):
        assert encode_row([1, 1, 0]) == (0, 2, 1)

    def test_two_runs(self):
        assert encode_row([0, 0, 0, 0, 1, 1, 1, 1]) == (4, 4)

    def test_empty_row_rejected(self):
        with pytest.raises(ValidationError):
            encode_row([])

    def test_bad_pixel_rejected(self):
        with pytest.raises(ValidationError):
            encode_row([0, 2, 1])


class TestDecodeRow:
    def test_single_run(self):
        assert decode_row((5,), 5) == [0, 0, 0, 0, 0]

    def test_leading_zero(self):
        assert decode_row((0, 2, 1), 3) == [1, 1, 0]

    def test_sum_mismatch_rejected(self):
        with pytest.raises(FormatError):
            decode_row((3, 3), 8)

    def test_negative_run_rejected(self):
        with pytest.raises(FormatError):
            decode_row((-1, 9), 8)


def test_round_trip_exhaustive_small_widths():
    for width in range(1, 13):
        for pixels in itertools.product((0, 1), repeat=width):
            row = encode_row(pixels)
            assert is_canonical(row)
            assert sum(row) == width
            assert decode_row(row, width) == list(pixels)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=400))
def test_round_trip_random(pixels):
    assert decode_row(encode_row(pixels), len(pixels)) == pixels


@given(st.lists(st.integers(0, 6), min_size=1, max_size=30))
def test_canonicalize_preserves_expansion(runs):
    width = sum(runs)
    assert decode_row(canonicalize_row(runs), width) == decode_row(runs, width)


def test_canonicalize_examples():
    assert canonicalize_row((4, 0, 3)) == (7,)
    assert canonicalize_row((0, 2, 1)) == (0, 2, 1)
    assert canonicalize_row((2, 0, 0, 5)) == (2, 5)
    assert decode_row((2, 5), 7) == decode_row((2, 0, 0, 5), 7)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=30))
def test_canonicalize_output_is_canonical(runs):
    assert is_canonical(canonicalize_row(runs))


def test_is_canonical():
    assert is_canonical((5,))
    assert is_canonical((0, 5))
    assert is_canonical((4, 4))
    assert not is_canonical((4, 0, 3))
    assert not is_canonical((5, 0))
    assert not is_canonical((0,))


class TestCompressedDoc:
    def test_minimal(self):
        doc = CompressedDoc(width=1, height=1, rows=((1,),))
        assert doc.rows == ((1,),)

    def test_from_rows(self):
        doc = CompressedDoc.from_rows([(0, 2, 1), (3,)])
        assert (doc.width, doc.height) == (3, 2)

    def test_row_sum_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            CompressedDoc(width=8, height=1, rows=((3, 3),))

    def test_non_canonical_row_rejected(self):
        with pytest.raises(ValidationError):
            CompressedDoc(width=7, height=1, rows=((4, 0, 3),))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            CompressedDoc(width=3, height=2, rows=((3,),))

    def test_bad_dims_rejected(self):
        with pytest.raises(ValidationError):
            CompressedDoc(width=0, height=1, rows=((),))


class TestImageCodec:
    def test_single_pixel(self):
        doc = encode_image([[0]])
        assert (doc.width, doc.height, doc.rows) == (1, 1, ((1,),))

    def test_two_rows(self):
        doc = encode_image([[1, 1, 0], [0, 0, 0]])
        assert doc.rows == ((0, 2, 1), (3,))

    def test_ragged_grid_rejected(self):
        with pytest.raises(ValidationError):
            encode_image([[0, 1], [0]])

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            encode_image([[0, 2]])

    def test_bad_values_rejected_for_each_dtype(self):
        for grid in (
            np.array([[0, 2]], dtype=np.uint8),
            np.array([[255, 0]], dtype=np.uint8),
            np.array([[0, -1]]),
            np.array([[0.5, 1.0]]),
        ):
            with pytest.raises(ValidationError):
                encode_image(grid)

    def test_boolean_grid_accepted(self):
        assert encode_image(np.array([[True, False]])).rows == ((0, 1, 1),)

    def test_round_trip_random_grids(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            h, w = int(rng.integers(1, 65)), int(rng.integers(1, 65))
            grid = random_grid(rng, h, w, rng.uniform(0, 1))
            doc = encode_image(grid)
            assert np.array_equal(decode_image(doc), grid)

    def test_matches_row_encoder(self):
        rng = np.random.default_rng(99)
        grid = random_grid(rng, 40, 120, 0.3)
        doc = encode_image(grid)
        for run_row, pixel_row in zip(doc.rows, grid):
            assert run_row == encode_row(pixel_row.tolist())

    def test_no_interior_zero_runs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            grid = random_grid(rng, 8, 32, rng.uniform(0, 1))
            for row in encode_image(grid).rows:
                assert all(r >= 1 for r in row[1:])
