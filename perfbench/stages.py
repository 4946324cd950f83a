"""Library stages of the ROADMAP baseline table, timed in-process.

Usage, from the root of the repository:

    PYTHONPATH=src python3 perfbench/stages.py

Times each stage on the seed-1 A4 text page of the benchmark
(workloads.text_page) and prints the best of 3 runs in milliseconds, one
stage per line.
This is a reference for the README, not part of the benchmark command.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import runblock as rb
from runblock.features import FeatureContext
from workloads import A4_SHAPE, TEXT_MODEL, text_page

SEED = 1
REPEAT = 3


def best_ms(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        gc.collect()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def main() -> None:
    grid = text_page(np.random.default_rng([SEED, 1]), A4_SHAPE, **TEXT_MODEL)
    doc = rb.encode_image(grid)
    rlc = rb.write_rle(doc)
    pbm = rb.write_pbm(grid)
    fax = rb.mh_encode_image(doc, eol=True, byte_align=True)
    full = rb.BlockSpec(1, doc.height, 1, doc.width)
    block_spec = rb.BlockSpec(1001, 2001, 601, 1801)
    block = rb.extract_block(doc, block_spec)
    page_ctx = FeatureContext.absolute(doc)
    print(f"page {doc.height}x{doc.width}, {doc.total_runs() / doc.height:.1f} runs/row, "
          f"RLC1 {len(rlc)} bytes, MH {len(fax)} bytes")
    stages = {
        "read_rle": lambda: rb.read_rle(rlc),
        "write_rle": lambda: rb.write_rle(doc),
        "CompressedDoc re-validation": lambda: rb.CompressedDoc(doc.width, doc.height, doc.rows),
        "extract_block, full page": lambda: rb.extract_block(doc, full),
        "position table, full page": lambda: rb.build_position_table(doc, full),
        "extract_block, 1001x1201": lambda: rb.extract_block(doc, block_spec),
        "characterize, absolute only": lambda: rb.characterize(block),
        "characterize with doc and spec": lambda: rb.characterize(block, doc=doc, spec=block_spec),
        "seq, full page": lambda: rb.seq(doc, page_ctx),
        "seq, full page, pixel oracle": lambda: rb.pixel_features(grid, page_ctx),
        "ceq, full page": lambda: rb.ceq(doc, page_ctx),
        "mh_decode_image (EOL framing)": lambda: rb.mh_decode_image(
            fax, doc.width, doc.height, eol=True, byte_align=True),
        "mh_encode_image": lambda: rb.mh_encode_image(doc, eol=True, byte_align=True),
        "read_pbm": lambda: rb.read_pbm(pbm),
        "write_pbm": lambda: rb.write_pbm(grid),
    }
    for name, fn in stages.items():
        print(f"{name:34s} {best_ms(fn, REPEAT):9.1f} ms")


if __name__ == "__main__":
    main()
