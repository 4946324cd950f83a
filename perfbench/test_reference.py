"""The benchmark's reference on a 3 x 6 page worked out by hand.

Run with `python3 -m pytest perfbench/test_reference.py` from the root of
the repository.

    column  1 2 3 4 5 6
    row 1   0 0 1 1 1 0    runs 2 3 1      transitions after columns 2, 5
    row 2   1 1 0 0 0 0    runs 0 2 4      transition after column 2
    row 3   0 0 0 0 0 0    runs 6
"""

import math

import numpy as np
import pytest

import reference as ref

PAGE = np.array(
    [[0, 0, 1, 1, 1, 0],
     [1, 1, 0, 0, 0, 0],
     [0, 0, 0, 0, 0, 0]],
    dtype=np.uint8,
)
RLC = b"RLC1\n6 3\n2 3 1\n0 2 4\n6\n"
P4 = b"P4\n6 3\n\x38\xc0\x00"
BLOCK = (1, 2, 2, 5)  # rows 1..2, columns 2..5


def entropy(p):
    return p * math.log(1 / p) + (1 - p) * math.log(1 / (1 - p))


def seq_term(r, pos, m, n):
    return (r / m) * ((pos / n) * math.log(n / pos) + (m - pos / n) * math.log(m / (m + n - pos)))


def test_runs_and_rlc():
    assert [r.tolist() for r in ref.grid_runs(PAGE)] == [[2, 3, 1], [0, 2, 4], [6]]
    assert ref.rlc_bytes(PAGE) == RLC
    assert np.array_equal(ref.parse_rlc(RLC), PAGE)


@pytest.mark.parametrize("bad", [
    b"RLC1\n6 1\n2 0 4\n",   # interior zero run
    b"RLC1\n6 1\n0 6\n6\n",  # one row too many
    b"RLC1\n6 1\n2 3\n",     # row sums to 5
    b"RLC1\n6 1\n0\n",       # lone zero run
])
def test_parse_rlc_rejects(bad):
    with pytest.raises(ValueError):
        ref.parse_rlc(bad)


def test_pbm():
    assert ref.pbm_bytes(PAGE) == P4
    assert np.array_equal(ref.parse_pbm(P4), PAGE)


def test_fax_both_framings():
    row = np.array([[0, 0, 0, 1, 1, 0, 0, 0]], dtype=np.uint8)
    # white 3 = 1000, black 2 = 11, white 3 = 1000, then zero padding
    assert ref.fax_bytes(row, eol=False) == bytes([0b10001110, 0])
    # four fill bits make the end-of-line code end on a byte boundary
    assert ref.fax_bytes(row, eol=True) == bytes([0, 0b00000001, 0b10001110, 0])
    # a white run of 64 is the make-up code 11011 plus the terminating code for 0
    wide = np.zeros((1, 64), dtype=np.uint8)
    assert ref.fax_bytes(wide, eol=False) == bytes([0b11011001, 0b10101000])


def test_boundary_records():
    # row 1: runs end at 2, 5, 6: column 2 ends run 1 (1 pixel inside),
    # column 5 ends run 2 exactly. Row 2: runs end at 0, 2, 6.
    assert ref.boundary_records(PAGE, BLOCK) == [(1, 1, 2, 0), (2, 1, 3, 1)]


def test_absolute_features():
    density, ceq, seq = ref.features(PAGE)
    assert density == 5 / 18
    assert ceq == pytest.approx(entropy(2 / 6) + entropy(1 / 6), rel=1e-12)
    expected = seq_term(1, 2, 3, 6) + seq_term(1, 5, 3, 6) + seq_term(2, 2, 3, 6)
    assert seq == pytest.approx(expected, rel=1e-12)


def test_relative_features_of_block():
    block = ref.crop(PAGE, BLOCK)
    assert block.tolist() == [[0, 1, 1, 1], [1, 0, 0, 0]]
    density, ceq, seq = ref.features(block, math.e, PAGE.shape, (1, 2))
    assert density == 4 / 18
    assert ceq == pytest.approx(2 * entropy(1 / 6), rel=1e-12)
    # both block transitions sit after page column 2, in rows 1 and 2
    assert seq == pytest.approx(seq_term(1, 2, 3, 6) + seq_term(2, 2, 3, 6), rel=1e-12)
    base2 = ref.features(block, 2.0, PAGE.shape, (1, 2))
    assert base2[1] == pytest.approx(ceq / math.log(2), rel=1e-12)


def test_accuracy():
    other = PAGE.copy()
    other[2, 0] = 1  # row 3 becomes runs 0 1 5
    assert ref.accuracy_pixel(other, PAGE) == (1 - 1 / 18) * 100
    # row 3 runs 0 1 5 against 6 0 0: |0-6| + |1-0| + |5-0| = 12
    assert ref.accuracy_runs(other, PAGE) == pytest.approx((1 - 12 / 18) * 100, rel=1e-12)
    assert ref.accuracy_runs(PAGE, PAGE) == 100.0
