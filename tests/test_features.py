import math
from fractions import Fraction

import numpy as np
import pytest

from runblock import (
    BlockSpec,
    CompressedDoc,
    ConsistencyError,
    FeatureContext,
    ValidationError,
    canonicalize_row,
    ceq,
    characterize,
    decode_image,
    density,
    extract_block,
    foreground_pixels,
    foreground_total,
    pixel_features,
    seq,
    transition_columns,
    transitions_in_row,
)

from helpers import random_doc, random_spec, text_like_doc


def _log(x, base):
    if base == 2.0:
        return math.log2(x)
    if base == 10.0:
        return math.log10(x)
    if base == math.e:
        return math.log(x)
    return math.log(x) / math.log(base)


def reference_features(block, ctx):
    """(density, ceq, seq) by loops over the tuple rows, one term at a
    time, in the order of the feature definitions: the scalar reference
    that the array features must equal bit for bit."""
    if ctx.mode == "absolute":
        m, n = block.height, block.width
        row_offset = col_offset = 0
    else:
        m, n = ctx.doc_dims
        row_offset, col_offset = ctx.block_origin[0] - 1, ctx.block_origin[1] - 1
    base = ctx.log_base
    ceq_total = seq_total = 0.0
    ink = sum(sum(row[1::2]) for row in block.rows)
    for local_row, row in enumerate(block.rows, 1):
        transitions = len(row) - (1 if row[0] == 0 else 0) - 1
        p = transitions / n
        if 0.0 < p < 1.0:
            ceq_total += p * _log(1.0 / p, base) + (1.0 - p) * _log(1.0 / (1.0 - p), base)
        else:
            ceq_total += 0.0
        weight = (row_offset + local_row) / m
        run_sum = 0
        for length in row[:-1]:
            run_sum += length
            if run_sum > 0:
                pos = col_offset + run_sum
                seq_total += weight * (
                    (pos / n) * _log(n / pos, base) + (m - pos / n) * _log(m / (m + n - pos), base)
                )
    return ink / (m * n), ceq_total, seq_total


def test_features_equal_scalar_reference_exactly():
    """density, ceq and seq are == (not approximately equal) to the scalar
    loops, on whole text and random pages and on blocks cut from them, in
    both modes and all three bases."""
    rng = np.random.default_rng(18)
    for k in range(40):
        doc = text_like_doc(rng, 60, 300) if k % 4 == 0 else random_doc(rng, 1, 120)
        spec = BlockSpec(1, doc.height, 1, doc.width) if k % 5 == 0 else random_spec(rng, doc)
        block = extract_block(doc, spec)
        for base in (2.0, math.e, 10.0):
            contexts = [
                FeatureContext.absolute(block, log_base=base),
                FeatureContext.relative(
                    block, doc_dims=(doc.height, doc.width), block_origin=(spec.x1, spec.y1), log_base=base
                ),
            ]
            for ctx in contexts:
                got = (density(block, ctx), ceq(block, ctx), seq(block, ctx))
                assert got == reference_features(block, ctx)
                assert all(type(v) is float for v in got)


def test_transitions_in_row():
    assert transitions_in_row((8,)) == 0
    assert transitions_in_row((4, 4)) == 1
    assert transitions_in_row((0, 2, 1)) == 1
    assert transitions_in_row((1, 2, 3)) == 2


def test_transitions_match_pixel_pairs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        doc = random_doc(rng, 1, 50)
        row = doc.rows[0]
        pixels = decode_image(doc)[0]
        pairs = int(np.count_nonzero(pixels[1:] != pixels[:-1]))
        assert transitions_in_row(row) == pairs
        assert len(transition_columns(row)) == pairs


def test_foreground_pixels():
    assert foreground_pixels((8,)) == 0
    assert foreground_pixels((0, 3, 5)) == 3
    rng = np.random.default_rng(12)
    for _ in range(100):
        doc = random_doc(rng, 1, 50)
        assert foreground_pixels(doc.rows[0]) == int(decode_image(doc)[0].sum())


def test_transition_columns():
    assert transition_columns((8,)) == []
    assert transition_columns((4, 4)) == [4]
    assert transition_columns((0, 2, 1)) == [2]
    assert transition_columns((1, 2, 3)) == [1, 3]


class TestDensity:
    def test_uniform_blocks(self):
        blank = CompressedDoc.from_rows([(6,), (6,)])
        solid = CompressedDoc.from_rows([(0, 6), (0, 6)])
        assert density(blank, FeatureContext.absolute(blank)) == 0.0
        assert density(solid, FeatureContext.absolute(solid)) == 1.0

    def test_relative_mode_scales_by_document_area(self):
        # 39 full ink rows plus a partial one inside a 1009 x 1542 page
        rows = [(0, 300)] * 39 + [(0, 234, 66)] + [(300,)] * 260
        block = CompressedDoc.from_rows(rows)
        assert foreground_total(block) == 11934
        abs_density = density(block, FeatureContext.absolute(block))
        rel_density = density(
            block,
            FeatureContext.relative(block, doc_dims=(1009, 1542), block_origin=(100, 200)),
        )
        assert abs_density == pytest.approx(0.1326, abs=1e-9)
        assert rel_density == pytest.approx(0.0077, abs=5e-4)

    def test_relative_equals_absolute_times_area_ratio_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            doc = random_doc(rng, 8, 64)
            spec = random_spec(rng, doc)
            block = extract_block(doc, spec)
            fg = foreground_total(block)
            block_area = block.height * block.width
            doc_area = doc.height * doc.width
            assert Fraction(fg, doc_area) == Fraction(fg, block_area) * Fraction(
                block_area, doc_area
            )
            rel = density(
                block,
                FeatureContext.relative(
                    block, doc_dims=(doc.height, doc.width), block_origin=(spec.x1, spec.y1)
                ),
            )
            assert rel == fg / doc_area

    def test_relative_requires_context(self):
        block = CompressedDoc.from_rows([(4,)])
        with pytest.raises(ValidationError):
            FeatureContext(mode="relative", block_dims=(1, 4))


class TestCeq:
    def test_uniform_block_is_zero(self):
        blank = CompressedDoc.from_rows([(6,)] * 4)
        assert ceq(blank, FeatureContext.absolute(blank)) == 0.0

    def test_single_row_base2(self):
        block = CompressedDoc.from_rows([(4, 4)])
        ctx = FeatureContext.absolute(block, log_base=2.0)
        assert ceq(block, ctx) == pytest.approx(0.5436, abs=5e-5)

    def test_row_terms_bounded(self):
        rng = np.random.default_rng(14)
        for base in (2.0, math.e, 10.0):
            cap = math.log(2) / math.log(base)
            for _ in range(20):
                doc = random_doc(rng, 6, 64)
                ctx = FeatureContext.absolute(doc, log_base=base)
                total = ceq(doc, ctx)
                assert 0.0 <= total <= doc.height * cap + 1e-12

    def test_blank_rows_add_nothing(self):
        block = CompressedDoc.from_rows([(2, 3, 3)] * 3)
        padded = CompressedDoc.from_rows([(2, 3, 3)] * 3 + [(8,)] * 2)
        assert ceq(block, FeatureContext.absolute(block)) == pytest.approx(
            ceq(padded, FeatureContext.absolute(padded))
        )

    def test_change_of_base(self):
        rng = np.random.default_rng(15)
        doc = random_doc(rng, 8, 40)
        base2 = ceq(doc, FeatureContext.absolute(doc, log_base=2.0))
        basee = ceq(doc, FeatureContext.absolute(doc, log_base=math.e))
        assert basee == pytest.approx(base2 * math.log(2), rel=1e-12)


class TestSeq:
    def test_uniform_block_is_zero(self):
        blank = CompressedDoc.from_rows([(6,)] * 4)
        assert seq(blank, FeatureContext.absolute(blank)) == 0.0

    def test_single_row_natural_log(self):
        block = CompressedDoc.from_rows([(4, 4)])
        ctx = FeatureContext.absolute(block)
        # one transition at column 4 of a 1 x 8 block:
        # (1/1) * [ (4/8) ln(8/4) + (1 - 4/8) ln(1/(1+8-4)) ]
        assert seq(block, ctx) == pytest.approx(-0.4581, abs=1e-4)

    def test_relative_mode_uses_document_frame(self):
        block = CompressedDoc.from_rows([(4, 4)])
        ctx = FeatureContext.relative(block, doc_dims=(10, 20), block_origin=(3, 5))
        # row 3 of 10, transition at document column 8 of 20
        m, n, r, pos = 10, 20, 3, 8
        expected = (r / m) * (
            (pos / n) * math.log(n / pos) + (m - pos / n) * math.log(m / (m + n - pos))
        )
        assert seq(block, ctx) == pytest.approx(expected, rel=1e-12)


class TestOracleAgreement:
    def test_absolute_and_relative_all_bases(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            doc = random_doc(rng, 8, 64)
            spec = random_spec(rng, doc)
            block = extract_block(doc, spec)
            grid = decode_image(block)
            # the bases of the CLI, and two that take the general logarithm;
            # below 1, every entropy is negative
            for base in (2.0, math.e, 10.0, 3.0, 0.5):
                contexts = [
                    FeatureContext.absolute(block, log_base=base),
                    FeatureContext.relative(
                        block,
                        doc_dims=(doc.height, doc.width),
                        block_origin=(spec.x1, spec.y1),
                        log_base=base,
                    ),
                ]
                for ctx in contexts:
                    ref = pixel_features(grid, ctx)
                    assert density(block, ctx) == pytest.approx(ref.density, rel=1e-9, abs=1e-12)
                    assert ceq(block, ctx) == pytest.approx(ref.ceq, rel=1e-9, abs=1e-12)
                    assert seq(block, ctx) == pytest.approx(ref.seq, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(mode="diagonal"), r"^unknown mode 'diagonal'$"),
        (dict(block_dims=(0, 4)), r"^bad block dimensions \(0, 4\)$"),
        (dict(block_dims=(2, 0)), r"^bad block dimensions \(2, 0\)$"),
        (dict(log_base=1.0), r"^bad logarithm base 1.0$"),
        (dict(log_base=0.0), r"^bad logarithm base 0.0$"),
        (dict(mode="relative", block_origin=(1, 1)), r"^relative mode needs the document dimensions and the block origin$"),
        (dict(mode="relative", doc_dims=(5, 9)), r"^relative mode needs the document dimensions and the block origin$"),
        (dict(mode="relative", doc_dims=(5, 9), block_origin=(0, 1)), r"^bad block origin \(0, 1\)$"),
        (dict(mode="relative", doc_dims=(5, 9), block_origin=(1, 0)), r"^bad block origin \(1, 0\)$"),
        (dict(mode="relative", doc_dims=(5, 9), block_origin=(5, 1)), r"^block \(2, 4\) at \(5, 1\) does not fit inside document \(5, 9\)$"),
        (dict(mode="relative", doc_dims=(5, 9), block_origin=(1, 7)), r"^block \(2, 4\) at \(1, 7\) does not fit inside document \(5, 9\)$"),
        (dict(log_base=math.nan), r"^bad logarithm base nan$"),
        (dict(log_base=math.inf), r"^bad logarithm base inf$"),
        (dict(log_base=-math.inf), r"^bad logarithm base -inf$"),
    ],
)
def test_context_rejections(fields, message):
    with pytest.raises(ValidationError, match=message):
        FeatureContext(**{"mode": "absolute", "block_dims": (2, 4), **fields})


@pytest.mark.parametrize(
    "doc_dims, block_origin, message",
    [
        ((3.5, 4), (1, 1), r"^doc_dims\[0\] must be an integer, got 3.5$"),
        (("3", 4), (1, 1), r"^doc_dims\[0\] must be an integer, got '3'$"),
        ((3, 4), (1.5, 1), r"^block_origin\[0\] must be an integer, got 1.5$"),
        ((3, 4), (1, True), r"^block_origin\[1\] must be an integer, got True$"),
    ],
)
def test_context_takes_integer_dimensions_only(doc_dims, block_origin, message):
    block = CompressedDoc.from_rows([(2,), (0, 2)])
    with pytest.raises(ValidationError, match=message):
        FeatureContext.relative(block, doc_dims=doc_dims, block_origin=block_origin)
    with pytest.raises(ValidationError, match=r"^block_dims\[1\] must be an integer, got 2.0$"):
        FeatureContext(mode="absolute", block_dims=(2, 2.0))


@pytest.mark.parametrize("feature", [density, ceq, seq])
def test_features_reject_a_context_of_other_dimensions(feature):
    block = CompressedDoc.from_rows([(4,)])
    ctx = FeatureContext(mode="absolute", block_dims=(2, 4))
    with pytest.raises(ValidationError, match=r"^context is for a \(2, 4\) block, got \(1, 4\)$"):
        feature(block, ctx)


def test_features_invariant_under_canonicalization():
    # messy run lists describe the same pixels once canonicalized
    messy = [3, 0, 0, 2, 0, 3]
    clean = canonicalize_row(messy)
    assert clean == (3, 5)
    assert transitions_in_row(clean) == 1
    messy2 = canonicalize_row([0, 2, 0, 3, 1, 0, 2])
    assert messy2 == (0, 5, 3)
    assert foreground_pixels(messy2) == 5
    assert transition_columns(messy2) == [5]


class TestCharacterize:
    def test_self_characterization(self):
        rng = np.random.default_rng(17)
        doc = random_doc(rng, 8, 40)
        spec = BlockSpec(1, doc.height, 1, doc.width)
        result = characterize(doc, doc=doc, spec=spec)
        assert result.relative.density == result.absolute.density
        assert result.relative.ceq == pytest.approx(result.absolute.ceq)
        assert result.relative.seq == pytest.approx(result.absolute.seq)
        assert result.density_label in ("high", "low")

    def test_absolute_only(self):
        block = CompressedDoc.from_rows([(2, 2)])
        result = characterize(block)
        assert result.relative is None
        assert result.density_label is None

    def test_mismatched_block_rejected(self):
        doc = CompressedDoc.from_rows([(4, 4), (4, 4)])
        wrong = CompressedDoc.from_rows([(0, 4)])
        with pytest.raises(ConsistencyError):
            characterize(wrong, doc=doc, spec=BlockSpec(1, 1, 1, 4))

    def test_doc_without_spec_rejected(self):
        doc = CompressedDoc.from_rows([(4, 4)])
        with pytest.raises(ValidationError):
            characterize(doc, doc=doc)

    def test_labels_follow_document_thresholds(self):
        # ink-heavy busy block inside a mostly blank page
        page_rows = [(40,)] * 18 + [(2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 28)] * 2
        doc = CompressedDoc.from_rows(page_rows)
        spec = BlockSpec(19, 20, 1, 12)
        block = extract_block(doc, spec)
        result = characterize(block, doc=doc, spec=spec)
        assert result.density_label == "high"
        assert result.entropy_label == "high"
