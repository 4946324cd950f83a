"""Whole-page compression, serialization, expansion and MH encoding cut a
page into row chunks. These tests shrink the chunk constants so that small
pages split into many chunks, and check that the seams between chunks
change nothing, also when several threads encode at once."""

import os
import sys
import threading

import numpy as np
import pytest

import runblock.core as core
import runblock.formats as formats
from runblock import decode_image, encode_image, mh_encode_image, write_rle

from helpers import letter_like_doc, random_grid, text_like_doc
from test_mh import FRAMINGS, LONG_RUN_DOC, ref_encode_image


def ref_encode_row(row) -> tuple:
    """Run lengths of one 0/1 pixel row, background first, by a plain loop."""
    runs, color, length = [], 0, 0
    for pixel in row:
        if pixel != color:
            runs.append(length)
            color, length = pixel, 0
        length += 1
    runs.append(length)
    return tuple(runs)


def ref_encode(grid) -> tuple:
    return tuple(ref_encode_row(row) for row in grid.tolist())


def ref_write_rle(rows, width: int) -> bytes:
    body = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    return f"RLC1\n{width} {len(rows)}\n{body}".encode("ascii")


def seam_grid(rng, height: int, width: int) -> np.ndarray:
    """Random rows of several densities with all-white, all-ink and
    ink-first (leading-zero) rows among them, in runs of one to three, so
    that every kind of row meets a seam at every chunk size."""
    grid = random_grid(rng, height, width, 0.5)
    kinds = rng.integers(0, 5, height)
    grid[kinds == 0] = 0
    grid[kinds == 1] = 1
    grid[kinds == 2, 0] = 1
    sparse = kinds == 3
    grid[sparse] = random_grid(rng, int(sparse.sum()), width, 0.05)
    return grid


def seam_pages():
    rng = np.random.default_rng(2024)
    pages = [seam_grid(rng, 23, width) for width in (1, 7, 8, 9, 64)]
    pages += [decode_image(text_like_doc(rng, 40, 300)), decode_image(letter_like_doc(rng, 12))]
    return pages


@pytest.mark.parametrize("rows_per_chunk", [1, 2, 3, 7])
def test_chunked_codec_matches_one_chunk_and_references(monkeypatch, rows_per_chunk):
    for grid in seam_pages():
        height, width = grid.shape
        with monkeypatch.context() as m:
            m.setattr(core, "CHUNK_PIXELS", 1 << 40)
            m.setattr(formats, "_CHUNK_RUNS", 1 << 40)
            whole = encode_image(grid)
            whole_text = write_rle(whole)
        rows = ref_encode(grid)
        assert whole.rows == rows
        assert whole_text == ref_write_rle(rows, width)

        monkeypatch.setattr(core, "CHUNK_PIXELS", rows_per_chunk * width)
        # about rows_per_chunk rows of the page's mean run count per chunk
        monkeypatch.setattr(formats, "_CHUNK_RUNS", max(1, rows_per_chunk * whole.total_runs() // height))
        for pixels in (grid, grid.astype(bool), grid.astype(np.int64), grid.tolist()):
            doc = encode_image(pixels)
            assert np.array_equal(doc.runs, whole.runs) and np.array_equal(doc.offsets, whole.offsets)
            assert not doc.runs.flags.writeable and not doc.offsets.flags.writeable
        assert write_rle(whole) == whole_text
        assert np.array_equal(decode_image(whole), grid)
        for eol, byte_align in FRAMINGS:
            assert mh_encode_image(whole, eol=eol, byte_align=byte_align) == ref_encode_image(whole, eol, byte_align)
    monkeypatch.setattr(core, "CHUNK_PIXELS", rows_per_chunk * LONG_RUN_DOC.width)
    for eol, byte_align in FRAMINGS:
        data = mh_encode_image(LONG_RUN_DOC, eol=eol, byte_align=byte_align)
        assert data == ref_encode_image(LONG_RUN_DOC, eol, byte_align)


def test_concurrent_callers_encode_the_same(monkeypatch):
    """More callers than cores, each splitting its pages into many chunks,
    with frequent thread switches: every result matches the references."""
    pages = seam_pages()
    expected = [(ref_encode(grid), ref_write_rle(ref_encode(grid), grid.shape[1])) for grid in pages]
    monkeypatch.setattr(core, "CHUNK_PIXELS", 64)
    monkeypatch.setattr(formats, "_CHUNK_RUNS", 16)
    failures = []

    def caller(offset):
        try:
            for i in range(len(pages)):
                k = (i + offset) % len(pages)
                doc = encode_image(pages[k])
                if (doc.rows, write_rle(doc)) != expected[k]:
                    failures.append(k)
        except Exception as exc:  # a thread's exception is lost unless kept
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(n,)) for n in range(2 * (os.cpu_count() or 1) + 1)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert not failures
