"""Whole-page compression, serialization and expansion cut a page into row
chunks; compression runs them on the thread pool when there is more than
one. These tests shrink the chunk constants so that small pages split into
many chunks, and check that the seams between chunks change nothing."""

import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

import runblock.core as core
import runblock.formats as formats
from runblock import decode_image, encode_image, write_rle

from helpers import letter_like_doc, random_grid, text_like_doc


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


def test_one_chunk_call_leaves_the_pool_unstarted(monkeypatch):
    monkeypatch.setattr(core, "_pool", None)
    grid = np.random.default_rng(3).integers(0, 2, (4, 4), dtype=np.uint8)
    # a chunk exactly as large as the grid
    monkeypatch.setattr(core, "CHUNK_PIXELS", grid.size)
    doc = encode_image(grid)
    assert core._pool is None
    assert doc.rows == ref_encode(grid)


def test_concurrent_callers_share_the_pool(monkeypatch):
    """More callers than cores, each splitting its pages into many chunks,
    with frequent thread switches, starting from no pool: every result
    matches the references."""
    pages = seam_pages()
    expected = [(ref_encode(grid), ref_write_rle(ref_encode(grid), grid.shape[1])) for grid in pages]
    monkeypatch.setattr(core, "_pool", None)
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


def _encode_in_child(grid, conn):
    doc = encode_image(grid)
    conn.send((doc.runs.tobytes(), doc.offsets.tobytes(), write_rle(doc)))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_child_forked_after_the_pool_ran_encodes_the_same(monkeypatch):
    grid = seam_pages()[-2]
    monkeypatch.setattr(core, "CHUNK_PIXELS", 2 * grid.shape[1])
    monkeypatch.setattr(formats, "_CHUNK_RUNS", 64)
    doc = encode_image(grid)
    expected = (doc.runs.tobytes(), doc.offsets.tobytes(), write_rle(doc))
    assert core._pool is not None
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_encode_in_child, args=(grid, send))
    child.start()
    try:
        assert receive.poll(60), "the forked child sent nothing within 60 s"
        assert receive.recv() == expected
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
