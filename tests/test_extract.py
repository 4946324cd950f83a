import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runblock import (
    BlockSpec,
    BoundaryRecord,
    CompressedDoc,
    ConsistencyError,
    ValidationError,
    build_position_table,
    decode_image,
    encode_image,
    extract_block,
    extract_block_detailed,
    is_canonical,
    locate_end,
    locate_start,
    oracle_crop,
    trim_row,
)

from helpers import random_doc, random_spec, text_like_doc


class TestLocateStart:
    def test_worked_example(self):
        assert locate_start((4, 4), 3) == (1, 2)

    def test_block_starts_at_column_one(self):
        assert locate_start((5,), 1) == (1, 5)

    def test_start_on_second_run(self):
        # run 2 spans columns 3..5
        assert locate_start((2, 3), 3) == (2, 3)

    def test_boundary_exactly_at_run_end(self):
        # cumulative sum equals y1: the boundary run keeps exactly one pixel
        assert locate_start((4, 4), 4) == (1, 1)

    def test_next_run_when_sum_falls_short(self):
        # cumulative sum stops one short of y1: the whole next run is inside
        assert locate_start((4, 4), 5) == (2, 4)

    def test_leading_zero_run_never_selected(self):
        assert locate_start((0, 8), 1) == (2, 8)

    def test_out_of_bounds(self):
        with pytest.raises(ValidationError):
            locate_start((4, 4), 9)

    def test_column_zero_rejected(self):
        with pytest.raises(ValidationError, match="^start column must be >= 1, got 0$"):
            locate_start((3,), 0)


class TestLocateEnd:
    def test_worked_example(self):
        assert locate_end((4, 4), 6) == (2, 2)

    def test_block_ends_at_row_end(self):
        assert locate_end((4, 4), 8) == (2, 0)

    def test_zero_residue_mid_row(self):
        assert locate_end((1, 1, 1, 1), 3) == (3, 0)

    def test_out_of_bounds(self):
        with pytest.raises(ValidationError):
            locate_end((4, 4), 9)

    def test_column_zero_rejected(self):
        with pytest.raises(ValidationError, match="^end column must be >= 1, got 0$"):
            locate_end((3,), 0)


def _enumerate_bounds(row, y1, y2):
    """Column-enumeration reference for the locate operations."""
    edges = []
    total = 0
    for length in row:
        total += length
        edges.append(total)
    p1 = next(j for j, e in enumerate(edges, 1) if e >= y1)
    p2 = next(j for j, e in enumerate(edges, 1) if e >= y2)
    return p1, edges[p1 - 1] - y1 + 1, p2, edges[p2 - 1] - y2


def _advance(runs, j, run_sum, column, which):
    """Linear scan forward to `column` over the (index, length) pairs left
    in `runs`, from run j with cumulative sum `run_sum`."""
    if run_sum >= column:
        return j, run_sum
    for j, length in runs:
        run_sum += length
        if run_sum >= column:
            return j, run_sum
    raise ValidationError(f"{which} column {column} is beyond the row width {run_sum}")


def linear_scan_record(row, y1, y2):
    """Boundary record from one left-to-right scan of the row, the end
    search resuming where the start search stopped: the reference for the
    binary searches."""
    runs = enumerate(row, 1)
    p1, start_sum = _advance(runs, 0, 0, y1, "start")
    p2, end_sum = _advance(runs, p1, start_sum, y2, "end")
    return BoundaryRecord(p1, start_sum - y1 + 1, p2, end_sum - y2)


def reference_trim(row, rec):
    """The block's part of one row, cut run by run."""
    p1, r1, p2, r2 = rec.start_run, rec.start_residue, rec.end_run, rec.end_residue
    out = (r1 - r2,) if p1 == p2 else (r1, *row[p1 : p2 - 1], row[p2 - 1] - r2)
    return (0, *out) if p1 % 2 == 0 else out


def reference_visits(doc, spec):
    """Distinct run entries that a scalar binary search reads per row: a
    search for y1 over the row's runs, then one for y2 from the start run.
    Each search reads every probe and the run it settles on."""
    total = 0
    for i in range(spec.x1 - 1, spec.x2):
        row = doc.rows[i]
        sums = list(itertools.accumulate(row))
        seen = set()

        def search(lo, column):
            hi = len(row) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                seen.add(mid)
                if sums[mid] >= column:
                    hi = mid
                else:
                    lo = mid + 1
            seen.add(lo)
            return lo

        search(search(0, spec.y1), spec.y2)
        total += len(seen)
    return total


def test_locate_agrees_with_column_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(200):
        doc = random_doc(rng, 4, 40)
        row = doc.rows[0]
        width = sum(row)
        y1 = int(rng.integers(1, width + 1))
        y2 = int(rng.integers(y1, width + 1))
        p1, r1 = locate_start(row, y1)
        p2, r2 = locate_end(row, y2)
        assert (p1, r1, p2, r2) == _enumerate_bounds(row, y1, y2)


def test_boundaries_monotone_in_column():
    rng = np.random.default_rng(43)
    for _ in range(50):
        row = random_doc(rng, 1, 60).rows[0]
        width = sum(row)
        starts = [locate_start(row, y)[0] for y in range(1, width + 1)]
        ends = [locate_end(row, y)[0] for y in range(1, width + 1)]
        assert starts == sorted(starts)
        assert ends == sorted(ends)


class TestPositionTable:
    def test_worked_example_rows(self):
        doc = CompressedDoc.from_rows([(4, 4), (4, 4)])
        table = build_position_table(doc, BlockSpec(1, 2, 3, 6))
        assert table == [BoundaryRecord(1, 2, 2, 2)] * 2

    def test_full_width(self):
        rng = np.random.default_rng(5)
        doc = random_doc(rng, 12, 50)
        table = build_position_table(doc, BlockSpec(1, doc.height, 1, doc.width))
        for rec, row in zip(table, doc.rows):
            first = 1 if row[0] else 2  # black-first rows start at run 2
            assert rec.start_run == first
            assert rec.start_residue == row[first - 1]
            assert rec.end_run == len(row)
            assert rec.end_residue == 0

    def test_table_and_visits_of_extraction(self):
        """The position table and the extraction share one search, whose
        visits are those of a scalar binary search."""
        rng = np.random.default_rng(10)
        for _ in range(4):
            doc = text_like_doc(rng, 40, 300)
            specs = [random_spec(rng, doc) for _ in range(20)] + [
                BlockSpec(1, doc.height, 1, doc.width),
                BlockSpec(1, doc.height, 150, 150),
                BlockSpec(17, 17, 1, doc.width),
            ]
            for spec in specs:
                _, table, stats = extract_block_detailed(doc, spec)
                assert build_position_table(doc, spec) == table
                assert stats.runs_visited == reference_visits(doc, spec)
                for rec, i in zip(table, range(spec.x1 - 1, spec.x2)):
                    assert (rec.start_run, rec.start_residue, rec.end_run, rec.end_residue) == (
                        _enumerate_bounds(doc.rows[i], spec.y1, spec.y2)
                    )

    def test_out_of_bounds_names_bound(self):
        doc = CompressedDoc.from_rows([(4, 4)])
        with pytest.raises(ValidationError, match="x2"):
            build_position_table(doc, BlockSpec(1, 2, 1, 8))
        with pytest.raises(ValidationError, match="y2"):
            build_position_table(doc, BlockSpec(1, 1, 1, 9))


class TestTrimRow:
    def test_worked_example(self):
        assert trim_row((4, 4), BoundaryRecord(1, 2, 2, 2)) == (2, 2)

    def test_single_run(self):
        # columns 4..7 of a 10-pixel background run
        assert trim_row((10,), BoundaryRecord(1, 7, 1, 3)) == (4,)

    def test_single_foreground_run_gets_leading_zero(self):
        # columns 2..5 of an all-black row
        assert trim_row((0, 8), BoundaryRecord(2, 7, 2, 3)) == (0, 4)

    def test_zero_end_residue_keeps_run(self):
        assert trim_row((4, 4), BoundaryRecord(1, 2, 2, 0)) == (2, 4)

    def test_width_cross_check(self):
        with pytest.raises(ConsistencyError):
            trim_row((4, 4), BoundaryRecord(1, 2, 2, 2), width=5)

    def test_inconsistent_record_rejected(self):
        with pytest.raises(ConsistencyError):
            trim_row((4, 4), BoundaryRecord(2, 2, 1, 0))
        with pytest.raises(ConsistencyError):
            trim_row((4, 4), BoundaryRecord(1, 5, 2, 0))
        with pytest.raises(ConsistencyError):
            trim_row((4, 4), BoundaryRecord(1, 2, 2, 4))
        with pytest.raises(ConsistencyError):
            trim_row((4, 4), BoundaryRecord(2, 1, 2, 3))


class TestExtractBlock:
    def test_full_document_identity(self):
        rng = np.random.default_rng(6)
        doc = random_doc(rng, 10, 30)
        spec = BlockSpec(1, doc.height, 1, doc.width)
        assert extract_block(doc, spec) == doc

    def test_worked_example(self):
        doc = CompressedDoc.from_rows([(4, 4), (4, 4)])
        block = extract_block(doc, BlockSpec(1, 2, 3, 6))
        assert block.rows == ((2, 2), (2, 2))

    def test_single_pixel_block(self):
        doc = CompressedDoc.from_rows([(2, 3), (5,)])
        block = extract_block(doc, BlockSpec(1, 1, 3, 3))
        assert (block.width, block.height) == (1, 1)
        assert block.rows == ((0, 1),)

    def test_matches_pixel_crop_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            doc = random_doc(rng, 4, 64)
            grid = decode_image(doc)
            for _ in range(4):
                spec = random_spec(rng, doc)
                block = extract_block(doc, spec)
                assert np.array_equal(decode_image(block), oracle_crop(grid, spec))

    def test_run_visits_bounded_by_selected_rows(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            doc = random_doc(rng, 4, 64)
            spec = random_spec(rng, doc)
            _, _, stats = extract_block_detailed(doc, spec)
            selected = sum(len(doc.rows[i]) for i in range(spec.x1 - 1, spec.x2))
            assert stats.runs_visited <= selected
            assert stats.rows == spec.height

    def test_composition(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            doc = random_doc(rng, 6, 48)
            outer = random_spec(rng, doc)
            block = extract_block(doc, outer)
            inner = random_spec(rng, block)
            # `inner` in the coordinates of `doc`
            composed = BlockSpec(
                x1=outer.x1 + inner.x1 - 1,
                x2=outer.x1 + inner.x2 - 1,
                y1=outer.y1 + inner.y1 - 1,
                y2=outer.y1 + inner.y2 - 1,
            )
            assert extract_block(block, inner) == extract_block(doc, composed)

    def test_trimmed_rows_sum_to_block_width(self):
        rng = np.random.default_rng(10)
        doc = random_doc(rng, 6, 48)
        spec = random_spec(rng, doc)
        block = extract_block(doc, spec)
        assert all(sum(row) == spec.width for row in block.rows)


def test_extraction_equals_linear_scan_reference():
    """Blocks, position tables and visit counts equal the tests-side linear
    scan, run-by-run trim and scalar binary search, on text and random
    pages with one row, one column, leading-zero rows and many rows."""
    rng = np.random.default_rng(62)
    docs = [
        text_like_doc(rng, 1, 300),
        text_like_doc(rng, 50, 1),
        CompressedDoc.from_rows([(0, 3, 2), (0, 5), (5,), (2, 3)]),
        *(text_like_doc(rng, 40, 200) for _ in range(3)),
        *(random_doc(rng, 1, 80) for _ in range(20)),
    ]
    for doc in docs:
        specs = [random_spec(rng, doc) for _ in range(8)] + [BlockSpec(1, doc.height, 1, doc.width)]
        for spec in specs:
            block, table, stats = extract_block_detailed(doc, spec)
            records = [linear_scan_record(doc.rows[i], spec.y1, spec.y2)
                       for i in range(spec.x1 - 1, spec.x2)]
            assert table == records == build_position_table(doc, spec)
            assert extract_block(doc, spec) == block
            assert block.rows == tuple(
                reference_trim(doc.rows[i], rec) for i, rec in zip(range(spec.x1 - 1, spec.x2), records)
            )
            assert stats.runs_visited == reference_visits(doc, spec)
            assert stats.runs_emitted == block.total_runs()


def test_all_specs_on_small_docs():
    rng = np.random.default_rng(61)
    for _ in range(15):
        height, width = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        grid = (rng.random((height, width)) < rng.uniform(0, 1)).astype(np.uint8)
        doc = encode_image(grid)
        for x1 in range(1, height + 1):
            for x2 in range(x1, height + 1):
                for y1 in range(1, width + 1):
                    for y2 in range(y1, width + 1):
                        block = extract_block(doc, BlockSpec(x1, x2, y1, y2))
                        assert np.array_equal(
                            decode_image(block), grid[x1 - 1 : x2, y1 - 1 : y2]
                        )
                        # blocks skip CompressedDoc's checks, so check here
                        assert all(
                            is_canonical(row) and sum(row) == block.width
                            for row in block.rows
                        )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_extraction_equals_crop_small(data):
    height = data.draw(st.integers(1, 8))
    width = data.draw(st.integers(1, 8))
    grid = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, 1), min_size=width, max_size=width),
                min_size=height,
                max_size=height,
            )
        ),
        dtype=np.uint8,
    )
    x1 = data.draw(st.integers(1, height))
    x2 = data.draw(st.integers(x1, height))
    y1 = data.draw(st.integers(1, width))
    y2 = data.draw(st.integers(y1, width))
    spec = BlockSpec(x1, x2, y1, y2)
    doc = encode_image(grid)
    block = extract_block(doc, spec)
    assert np.array_equal(decode_image(block), oracle_crop(grid, spec))
    assert all(is_canonical(row) and sum(row) == block.width for row in block.rows)


def test_bad_spec_construction():
    with pytest.raises(ValidationError):
        BlockSpec(2, 1, 1, 1)
    with pytest.raises(ValidationError):
        BlockSpec(1, 1, 0, 1)
    for field, name in enumerate(("x1", "x2", "y1", "y2")):
        for bad in (1.5, "2", None, True):
            coords = [1, 2, 1, 2]
            coords[field] = bad
            with pytest.raises(ValidationError, match=rf"^{name} must be an integer, got {bad!r}$"):
                BlockSpec(*coords)
    # numpy integers are coordinates like any other
    doc = random_doc(np.random.default_rng(61), 12, 16)
    coords = (2, 7, 3, 11)
    block = extract_block(doc, BlockSpec(*map(np.int64, coords)))
    assert block == extract_block(doc, BlockSpec(*coords))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: locate_start((2, 3), 1.5), r"^start column must be an integer, got 1.5$"),
        (lambda: locate_start((2, 3), True), r"^start column must be an integer, got True$"),
        (lambda: locate_end((2, 3), 4.0), r"^end column must be an integer, got 4.0$"),
        (lambda: locate_end((2, 3), "4"), r"^end column must be an integer, got '4'$"),
        (lambda: trim_row((2, 3), BoundaryRecord(1.0, 2, 2, 1)), r"^start_run must be an integer, got 1.0$"),
        (lambda: trim_row((2, 3), (1, 2, 2, False)), r"^end_residue must be an integer, got False$"),
        (lambda: trim_row((2, 3), BoundaryRecord(1, 2, 2, 1), 3.0), r"^width must be an integer, got 3.0$"),
    ],
    ids=["start float", "start bool", "end float", "end str", "record float", "record bool", "trim width"],
)
def test_locate_and_trim_take_integers_only(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize(
    "coords, message",
    [
        ((0, 1, 1, 1), r"^x1 must be >= 1, got 0$"),
        ((1, 1, 0, 1), r"^y1 must be >= 1, got 0$"),
        ((2, 1, 1, 1), r"^x2 \(1\) is smaller than x1 \(2\)$"),
        ((1, 1, 3, 2), r"^y2 \(2\) is smaller than y1 \(3\)$"),
    ],
)
def test_bad_spec_messages(coords, message):
    with pytest.raises(ValidationError, match=message):
        BlockSpec(*coords)


def test_page_scale_block_dims_are_inclusive():
    # coordinates spanning 100..400 select 301 rows, not 300
    rng = np.random.default_rng(60)
    doc = text_like_doc(rng, 1009, 1542)
    cases = [
        (BlockSpec(100, 400, 200, 500), (301, 301)),
        (BlockSpec(500, 800, 700, 1100), (301, 401)),
        (BlockSpec(700, 1000, 1200, 1500), (301, 301)),
        (BlockSpec(100, 500, 1200, 1500), (401, 301)),
    ]
    grid = decode_image(doc)
    for spec, (rows, cols) in cases:
        block = extract_block(doc, spec)
        assert (block.height, block.width) == (rows, cols)
        assert np.array_equal(decode_image(block), oracle_crop(grid, spec))
