import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from runblock import (
    BlockSpec,
    CompressedDoc,
    FormatError,
    ValidationError,
    canonicalize_row,
    decode_image,
    decode_row,
    encode_image,
    encode_row,
    extract_block,
    is_canonical,
    mh_decode_image,
    mh_encode_image,
    read_rle,
    write_rle,
)

from helpers import random_doc, random_grid, text_like_doc


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


def test_canonicalize_rejects_negative_runs():
    with pytest.raises(FormatError, match=r"^negative run length -2$"):
        canonicalize_row((3, -2, 5))


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
    assert not is_canonical((-1, 5))


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


def reference_is_canonical(runs):
    if len(runs) == 0:
        return True
    if any(r < 1 for r in runs[1:]):
        return False
    return runs[0] >= 1 or (runs[0] == 0 and len(runs) >= 2)


def reference_check(width, height, rows):
    """The constructor's checks as a loop over the rows."""
    if not 1 <= width <= 2**31 - 1:
        raise ValidationError(f"width {width} out of range 1..{2**31 - 1}")
    if not 1 <= height <= 2**31 - 1:
        raise ValidationError(f"height {height} out of range 1..{2**31 - 1}")
    if len(rows) != height:
        raise ValidationError(f"got {len(rows)} rows, expected height {height}")
    for i, row in enumerate(rows, 1):
        if not reference_is_canonical(row):
            raise ValidationError(f"row {i} is not canonical: {list(row)}")
        if sum(row) != width:
            raise ValidationError(f"row {i} sums to {sum(row)}, expected width {width}")


def check_outcome(check, *args):
    try:
        check(*args)
    except ValidationError as exc:
        return str(exc)
    return None


@given(
    st.integers(-1, 9),
    st.lists(st.lists(st.integers(-3, 9), max_size=6), min_size=1, max_size=6),
    st.integers(-1, 1),
)
def test_constructor_messages_match_row_by_row_checks(width, rows, extra_rows):
    """The array checks raise the message of the first bad row, as the
    row-by-row checks do, or accept exactly what they accept."""
    rows = [tuple(r) for r in rows]
    height = len(rows) + extra_rows
    want = check_outcome(reference_check, width, height, rows)
    assert check_outcome(CompressedDoc, width, height, rows) == want
    assert is_canonical(rows[0]) == reference_is_canonical(rows[0])


@given(
    st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=5), min_size=1, max_size=5),
    st.data(),
)
def test_constructor_rejects_run_lengths_that_are_not_integers(rows, data):
    """A float with a fraction, a string or None is rejected, naming its
    row, instead of being truncated or parsed into a run length."""
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[i]) - 1))
    rows[i][j] = data.draw(st.sampled_from([1.5, -0.25, math.inf, math.nan, "1", "", "x", None]))
    with pytest.raises(ValidationError, match=f"^row {i + 1} holds a run length that is not an integer: "):
        CompressedDoc(width=5, height=len(rows), rows=rows)


@given(st.lists(st.integers(-2, 6), max_size=8))
def test_is_canonical_matches_reference(runs):
    assert is_canonical(runs) == reference_is_canonical(runs)


def _layout_docs():
    rng = np.random.default_rng(70)
    return [
        text_like_doc(rng, 1, 400),
        text_like_doc(rng, 30, 1),
        CompressedDoc.from_rows([(0, 1)]),
        CompressedDoc.from_rows([(0, 2, 1), (0, 3), (3,), (1, 1, 1)]),
        *(text_like_doc(rng, 50, 120) for _ in range(3)),
        *(random_doc(rng, 1, 60) for _ in range(20)),
    ]


def test_rows_view_round_trips():
    """The tuple view gives back the rows the document was built from, and
    every producer and reader agrees with it."""
    for doc in _layout_docs():
        rows = doc.rows
        assert all(type(row) is tuple and all(type(r) is int for r in row) for row in rows)
        assert doc.runs.tolist() == [r for row in rows for r in row]
        assert doc.offsets.tolist() == [0, *itertools.accumulate(len(row) for row in rows)]
        rebuilt = CompressedDoc(doc.width, doc.height, rows)
        assert rebuilt == doc and rebuilt.rows == rows
        assert read_rle(write_rle(doc)).rows == rows
        assert encode_image(decode_image(doc)).rows == rows
        assert mh_decode_image(mh_encode_image(doc, eol=True), doc.width, doc.height, eol=True).rows == rows
        assert int(doc.cumsum[-1]) == doc.width * doc.height


def test_runs_are_read_only():
    doc = text_like_doc(np.random.default_rng(71), 6, 40)
    produced = [
        doc,
        read_rle(write_rle(doc)),
        encode_image(decode_image(doc)),
        extract_block(doc, BlockSpec(2, 5, 3, 30)),
        mh_decode_image(mh_encode_image(doc, eol=False), 40, 6, eol=False),
    ]
    for d in produced:
        for array in (d.runs, d.offsets, d.cumsum):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(AttributeError):
            d.width = 3
