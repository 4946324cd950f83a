"""Decode times of EOL-framed MH pages whose rows end at different steps.

Usage, from the root of a checkout:

    python3 tools/mh_skew.py

Prints the median time of `mh_decode_image` over 15 calls, on byte-aligned
EOL-framed streams of two kinds of page:

* skewed: 1143 x 1728 pages in T.4 fax geometry, blank but for k rows of
  alternating one-pixel runs spread from the first row to the last, for
  k = 1, 8, 16, 32 and 128. Lock step reads the blank rows in a few steps,
  and the dense rows are left for the serial loop.
* uniform: 1000-pixel-wide pages of 16, 60 and 200 rows, each row the same
  129 runs of 1 to 15 pixels. Every row ends at the same step, where lock
  step does best.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from runblock import CompressedDoc, mh_decode_image, mh_encode_image  # noqa: E402

SKEWED = (1, 8, 16, 32, 128)
UNIFORM = (16, 60, 200)
CALLS = 15


def skewed_page(dense: int) -> CompressedDoc:
    """A page in fax geometry whose rows are blank but for `dense` rows of
    alternating one-pixel runs, spread from the first row to the last."""
    height, width = 1143, 1728
    rows = [(width,)] * height
    for r in np.linspace(0, height - 1, dense).astype(int).tolist():
        rows[r] = (1,) * width
    return CompressedDoc.from_rows(rows)


def uniform_page(height: int) -> CompressedDoc:
    """A 1000-pixel-wide page of `height` rows of runs cycling through 1 to
    15 pixels."""
    width = 1000
    runs = [1 + i % 15 for i in range(129)]
    runs[-1] -= sum(runs) - width
    return CompressedDoc.from_rows([tuple(runs)] * height)


def pages() -> list[tuple[str, CompressedDoc]]:
    return [(f"skewed k={k}", skewed_page(k)) for k in SKEWED] + [
        (f"uniform {h} rows", uniform_page(h)) for h in UNIFORM
    ]


def median_ms(doc: CompressedDoc) -> float:
    data = mh_encode_image(doc, eol=True, byte_align=True)
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        mh_decode_image(data, doc.width, doc.height, eol=True, byte_align=True)
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def main() -> int:
    print(f"{'page':<18}  {'ms':>7}")
    for name, doc in pages():
        print(f"{name:<18}  {median_ms(doc):7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
