"""Synthetic document generators shared across the test suite."""

import math

import numpy as np

from runblock import BlockSpec, CompressedDoc, encode_image


def random_grid(rng: np.random.Generator, height: int, width: int, density: float = 0.5):
    return (rng.random((height, width)) < density).astype(np.uint8)


def text_like_row(rng: np.random.Generator, width: int) -> tuple:
    """A row of ink blobs separated by wider gaps, occasionally black-first."""
    runs = []
    foreground = rng.random() < 0.1
    if foreground:
        runs.append(0)
    remaining = width
    while remaining > 0:
        limit = 12 if foreground else 40
        r = min(int(rng.integers(1, limit + 1)), remaining)
        runs.append(r)
        remaining -= r
        foreground = not foreground
    return tuple(runs)


def text_like_doc(rng: np.random.Generator, height: int, width: int) -> CompressedDoc:
    rows = []
    for _ in range(height):
        if rng.random() < 0.12:
            rows.append((width,))  # blank line
        else:
            rows.append(text_like_row(rng, width))
    return CompressedDoc(width=width, height=height, rows=tuple(rows))


def random_pixel_doc(rng: np.random.Generator, height: int, width: int) -> CompressedDoc:
    return encode_image(random_grid(rng, height, width, rng.uniform(0.05, 0.95)))


def log_uniform_dim(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def random_doc(rng: np.random.Generator, lo: int = 8, hi: int = 512) -> CompressedDoc:
    height = log_uniform_dim(rng, lo, hi)
    width = log_uniform_dim(rng, lo, hi)
    if rng.random() < 0.3:
        return random_pixel_doc(rng, height, width)
    return text_like_doc(rng, height, width)


def random_spec(rng: np.random.Generator, doc: CompressedDoc) -> BlockSpec:
    x1 = int(rng.integers(1, doc.height + 1))
    x2 = int(rng.integers(x1, doc.height + 1))
    y1 = int(rng.integers(1, doc.width + 1))
    y2 = int(rng.integers(y1, doc.width + 1))
    return BlockSpec(x1=x1, x2=x2, y1=y1, y2=y2)


def letter_like_doc(rng: np.random.Generator, height: int, width: int = 1728) -> CompressedDoc:
    """Rows in T.4 fax geometry: blank rows, and text rows between white
    margins of 120 pixels or more, so that both take make-up codes."""
    rows = []
    for _ in range(height):
        if rng.random() < 0.4:
            rows.append((width,))
            continue
        left, right = int(rng.integers(150, 260)), int(rng.integers(120, 200))
        middle = text_like_row(rng, width - left - right)
        runs = [left] + list(middle[1:]) if middle[0] == 0 else [left + middle[0], *middle[1:]]
        if len(runs) % 2:
            runs[-1] += right  # the row already ends white
        else:
            runs.append(right)
        rows.append(tuple(runs))
    return CompressedDoc(width=width, height=height, rows=tuple(rows))
