import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from runblock import (
    BlockSpec,
    BoundaryRecord,
    CompressedDoc,
    FormatError,
    ValidationError,
    canonicalize_row,
    decode_image,
    decode_row,
    encode_image,
    encode_row,
    extract_block,
    foreground_pixels,
    is_canonical,
    locate_end,
    locate_start,
    mh_decode_image,
    mh_encode_image,
    mh_encode_row,
    read_rle,
    transition_columns,
    transitions_in_row,
    trim_row,
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
@example([0, 0])
def test_canonicalize_preserves_expansion(runs):
    width = sum(runs)
    if width == 0:
        # no row is 0 pixels wide, before or after canonicalizing
        for row in (canonicalize_row(runs), runs):
            with pytest.raises(ValidationError, match="^width 0 out of range"):
                decode_row(row, width)
        return
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

    def test_from_rows_messages(self):
        for rows, message in [
            ([("3", "4")], "^row 1 holds a run length that is not an integer: '3'$"),
            ([(3,), (1.5, 1.5)], "^row 2 holds a run length that is not an integer: 1.5$"),
            ([], "^a document needs at least one row$"),
            ([()], "^width 0 out of range"),
            ([(0,), (1,)], "^width 0 out of range"),
            ([(3,), (2,)], "^row 2 sums to 2, expected width 3$"),
            # the width is summed without wrapping around 64 bits
            ([(2**62, 2**62, 2**62, 2**62)], f"^width {2**64} out of range"),
        ]:
            with pytest.raises(ValidationError, match=message):
                CompressedDoc.from_rows(rows)

    def test_from_rows_rejects_a_run_past_64_bits(self):
        with pytest.raises(ValidationError, match="^a run length does not fit in 64 bits$"):
            CompressedDoc.from_rows([(2**64,)])

    @pytest.mark.parametrize(
        "width, height, rows, message",
        [
            (3.0, 1, [(3,)], "^width must be an integer, got 3.0$"),
            (True, 1, [(1,)], "^width must be an integer, got True$"),
            ("3", 1, [(3,)], "^width must be an integer, got '3'$"),
            (3, 1.0, [(3,)], "^height must be an integer, got 1.0$"),
            (3, False, [], "^height must be an integer, got False$"),
        ],
    )
    def test_dimensions_must_be_integers(self, width, height, rows, message):
        with pytest.raises(ValidationError, match=message):
            CompressedDoc(width, height, rows)

    def test_numpy_integer_dimensions_accepted(self):
        doc = CompressedDoc(np.int64(3), np.int32(1), [(3,)])
        assert doc == CompressedDoc(3, 1, [(3,)])

    def test_repr_hash_and_equality(self):
        doc = CompressedDoc(3, 2, [(0, 3), (1, 2)])
        assert repr(doc) == "CompressedDoc(width=3, height=2, rows=((0, 3), (1, 2)))"
        same = CompressedDoc.from_rows([(0, 3), (1, 2)])
        assert doc == same and hash(doc) == hash(same)
        assert doc != 1 and doc.__eq__(1) is NotImplemented


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


# The public helpers that take one run row, each called with that row alone.
ROW_HELPERS = {
    "transitions_in_row": transitions_in_row,
    "foreground_pixels": foreground_pixels,
    "transition_columns": transition_columns,
    "locate_start": lambda row: locate_start(row, 1),
    "locate_end": lambda row: locate_end(row, 1),
    "trim_row": lambda row: trim_row(row, BoundaryRecord(1, 1, 1, 0)),
    "mh_encode_row": mh_encode_row,
    "canonicalize_row": canonicalize_row,
    "decode_row": lambda row: decode_row(row, 0),
}
# canonicalize_row and decode_row take non-canonical rows by design
CANONICAL_ONLY = [name for name in ROW_HELPERS if name not in ("canonicalize_row", "decode_row")]
BAD_ROW_CASES = [
    *(
        (name, row, ValidationError, "^row 1 holds a run length that is not an integer")
        for name in ROW_HELPERS
        for row in [(1.5, 2.5), ("3", "4")]
    ),
    *(
        (name, row, ValidationError, r"^row 1 is not canonical: \[" if sum(row) else "^width 0 out of range")
        for name in CANONICAL_ONLY
        for row in [(2, 0, 1), (-1, 4), (), (0,)]
    ),
    *(("decode_row", row, ValidationError, "^width 0 out of range") for row in [(), (0,)]),
    *((name, (-1, 4), FormatError, "^negative run length -1$") for name in ("canonicalize_row", "decode_row")),
]


@pytest.mark.parametrize(
    "name, row, error, message", BAD_ROW_CASES, ids=[f"{c[0]}-{c[1]!r}" for c in BAD_ROW_CASES]
)
def test_row_helpers_check_rows_as_the_constructor_does(name, row, error, message):
    """A run row a helper cannot take is rejected with the constructor's
    message, not truncated, parsed or computed on, and raises no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            ROW_HELPERS[name](row)


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


@pytest.mark.parametrize(
    "grid, message",
    [
        ([0, 1], "^grid must be a rectangular 2-D array of 0/1 pixels$"),
        ([[[0, 1]]], "^grid must be a rectangular 2-D array of 0/1 pixels$"),
        ([[]], "^grid must contain at least one pixel$"),
    ],
)
def test_encode_image_rejects_grids_that_are_not_2d_or_empty(grid, message):
    with pytest.raises(ValidationError, match=message):
        encode_image(grid)


def test_encode_image_rejects_a_side_past_max_dim():
    # a broadcast view: one pixel in memory, 2**31 columns to the checks
    grid = np.broadcast_to(np.zeros(1, dtype=bool), (1, 2**31))
    with pytest.raises(ValidationError, match=f"^grid of 1 x {2**31} pixels exceeds {2**31 - 1} per side$"):
        encode_image(grid)
