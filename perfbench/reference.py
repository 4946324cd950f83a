"""Independent reference for checking runblock's outputs.

Nothing here imports runblock, its tests or its oracle: agreement between
this module and the program is evidence, not tautology. Pages are numpy
uint8 grids of 0/1 (1 = black = foreground), indexed [row, column] from 0.
Block rectangles are (x1, x2, y1, y2), 1-indexed and inclusive, x selecting
rows and y selecting columns, as on runblock's command line.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------- runs


def row_runs(row: np.ndarray) -> np.ndarray:
    """Canonical background-first run lengths of one pixel row."""
    edges = np.flatnonzero(row[1:] != row[:-1]) + 1
    runs = np.diff(np.concatenate(([0], edges, [row.size])))
    if row[0]:
        runs = np.concatenate(([0], runs))
    return runs


def grid_runs(grid: np.ndarray) -> list[np.ndarray]:
    return [row_runs(row) for row in grid]


def transitions_per_row(grid: np.ndarray) -> np.ndarray:
    return np.count_nonzero(grid[:, 1:] != grid[:, :-1], axis=1)


def crop(grid: np.ndarray, rect) -> np.ndarray:
    x1, x2, y1, y2 = rect
    return grid[x1 - 1 : x2, y1 - 1 : y2]


# ---------------------------------------------------------------- RLC1


def rlc_bytes(grid: np.ndarray) -> bytes:
    height, width = grid.shape
    lines = [f"RLC1\n{width} {height}\n"]
    lines.extend(" ".join(map(str, runs.tolist())) + "\n" for runs in grid_runs(grid))
    return "".join(lines).encode("ascii")


def parse_rlc(data: bytes) -> np.ndarray:
    """Strict RLC1 reader: every row canonical and summing to the width.

    Returns the pixel grid; raises ValueError naming the first fault.
    """
    lines = data.decode("ascii").split("\n")
    if lines[0] != "RLC1" or lines[-1] != "":
        raise ValueError("not an RLC1 file ending in a newline")
    width, height = (int(v) for v in lines[1].split(" "))
    body = lines[2:-1]
    if len(body) != height:
        raise ValueError(f"{len(body)} rows, header says {height}")
    grid = np.empty((height, width), dtype=np.uint8)
    for i, line in enumerate(body):
        runs = np.array([int(t) for t in line.split(" ")], dtype=np.int64)
        if (runs[1:] < 1).any() or runs[0] < 0 or (runs[0] == 0 and runs.size < 2):
            raise ValueError(f"row {i + 1} is not canonical")
        if runs.sum() != width:
            raise ValueError(f"row {i + 1} sums to {runs.sum()}, width is {width}")
        grid[i] = np.repeat(np.arange(runs.size) % 2, runs)
    return grid


# ---------------------------------------------------------------- PBM


def pbm_bytes(grid: np.ndarray) -> bytes:
    """Packed P4, rows padded to whole bytes."""
    height, width = grid.shape
    return f"P4\n{width} {height}\n".encode("ascii") + np.packbits(grid, axis=1).tobytes()


def parse_pbm(data: bytes) -> np.ndarray:
    """P4 reader for the header layout `P4 <ws> width <ws> height <one ws>`."""
    fields = data.split(maxsplit=3)
    if fields[0] != b"P4" or len(fields) < 3:
        raise ValueError("not a P4 file")
    width, height = int(fields[1]), int(fields[2])
    header = len(data) - (height * ((width + 7) // 8))
    packed = np.frombuffer(data, dtype=np.uint8, offset=header)
    return np.unpackbits(packed.reshape(height, -1), axis=1)[:, :width]


# ---------------------------------------------------------------- fax (T.4 MH)

# ITU-T T.4 one-dimensional code tables: terminating codes for runs 0..63,
# then make-up codes for 64, 128, ..., 1728 (enough for 1728-pixel rows).
_WHITE_TERM = (
    "00110101 000111 0111 1000 1011 1100 1110 1111 10011 10100 00111 01000 "
    "001000 000011 110100 110101 101010 101011 0100111 0001100 0001000 0010111 "
    "0000011 0000100 0101000 0101011 0010011 0100100 0011000 00000010 00000011 "
    "00011010 00011011 00010010 00010011 00010100 00010101 00010110 00010111 "
    "00101000 00101001 00101010 00101011 00101100 00101101 00000100 00000101 "
    "00001010 00001011 01010010 01010011 01010100 01010101 00100100 00100101 "
    "01011000 01011001 01011010 01011011 01001010 01001011 00110010 00110011 00110100"
).split()
_BLACK_TERM = (
    "0000110111 010 11 10 011 0011 0010 00011 000101 000100 0000100 0000101 "
    "0000111 00000100 00000111 000011000 0000010111 0000011000 0000001000 "
    "00001100111 00001101000 00001101100 00000110111 00000101000 00000010111 "
    "00000011000 000011001010 000011001011 000011001100 000011001101 000001101000 "
    "000001101001 000001101010 000001101011 000011010010 000011010011 000011010100 "
    "000011010101 000011010110 000011010111 000001101100 000001101101 000011011010 "
    "000011011011 000001010100 000001010101 000001010110 000001010111 000001100100 "
    "000001100101 000001010010 000001010011 000000100100 000000110111 000000111000 "
    "000000100111 000000101000 000001011000 000001011001 000000101011 000000101100 "
    "000001011010 000001100110 000001100111"
).split()
_WHITE_MAKEUP = (
    "11011 10010 010111 0110111 00110110 00110111 01100100 01100101 01101000 "
    "01100111 011001100 011001101 011010010 011010011 011010100 011010101 "
    "011010110 011010111 011011000 011011001 011011010 011011011 010011000 "
    "010011001 010011010 011000 010011011"
).split()
_BLACK_MAKEUP = (
    "0000001111 000011001000 000011001001 000001011011 000000110011 000000110100 "
    "000000110101 0000001101100 0000001101101 0000001001010 0000001001011 "
    "0000001001100 0000001001101 0000001110010 0000001110011 0000001110100 "
    "0000001110101 0000001110110 0000001110111 0000001010010 0000001010011 "
    "0000001010100 0000001010101 0000001011010 0000001011011 0000001100100 "
    "0000001100101"
).split()
FAX_EOL = "000000000001"


def _fax_run(length: int, white: bool) -> str:
    term, makeup = (_WHITE_TERM, _WHITE_MAKEUP) if white else (_BLACK_TERM, _BLACK_MAKEUP)
    if length >= 64:
        return makeup[length // 64 - 1] + term[length % 64]
    return term[length]


def fax_bytes(grid: np.ndarray, eol: bool) -> bytes:
    """Modified Huffman coding of a page of at most 1728 columns.

    With `eol`, every row is preceded by the end-of-line code, zero-filled
    so that the code ends on a byte boundary; without it, rows follow each
    other bit for bit. The stream is zero-padded to a whole byte.
    """
    if grid.shape[1] > 64 * len(_WHITE_MAKEUP) + 63:
        raise ValueError("rows longer than the make-up tables cover")
    parts = []
    nbits = 0
    for row in grid:
        if eol:
            fill = "0" * (-(nbits + len(FAX_EOL)) % 8)
            parts.append(fill + FAX_EOL)
            nbits += len(fill) + len(FAX_EOL)
        runs = row_runs(row).tolist()
        code = "".join(_fax_run(r, i % 2 == 0) for i, r in enumerate(runs))
        parts.append(code)
        nbits += len(code)
    parts.append("0" * (-nbits % 8))
    bits = np.frombuffer("".join(parts).encode("ascii"), dtype=np.uint8) - ord("0")
    return np.packbits(bits).tobytes()


# ---------------------------------------------------------------- boundary records


def boundary_records(grid: np.ndarray, rect) -> list[tuple[int, int, int, int]]:
    """(start run, start residue, end run, end residue) per block row.

    Run indices are 1-based into the row's canonical runs. The start run
    is the first whose cumulative sum reaches y1, the end run the first
    whose cumulative sum reaches y2.
    """
    x1, x2, y1, y2 = rect
    records = []
    for row in grid[x1 - 1 : x2]:
        ends = np.cumsum(row_runs(row))
        j, k = np.searchsorted(ends, [y1, y2])  # first end >= column
        records.append((int(j) + 1, int(ends[j]) - y1 + 1, int(k) + 1, int(ends[k]) - y2))
    return records


# ---------------------------------------------------------------- features


def _log(values, base: float):
    return np.log(values) / math.log(base) if base != math.e else np.log(values)


def features(block: np.ndarray, base: float = math.e, page_shape=None, origin=(1, 1)):
    """(density, ceq, seq) of a block in absolute mode, or in relative mode
    when the source page's (rows, columns) and the block origin (x1, y1)
    are given. Sums are taken with math.fsum."""
    height, width = block.shape
    if page_shape is None:
        m, n = height, width
        row_offset = col_offset = 0
    else:
        m, n = page_shape
        row_offset, col_offset = origin[0] - 1, origin[1] - 1
    density = int(block.sum()) / (m * n)

    p = transitions_per_row(block) / n
    p = p[(p > 0) & (p < 1)]
    ceq = math.fsum((p * _log(1 / p, base) + (1 - p) * _log(1 / (1 - p), base)).tolist())

    rows, cols = np.nonzero(block[:, 1:] != block[:, :-1])
    r = (rows + 1 + row_offset).astype(np.float64)
    pos = (cols + 1 + col_offset).astype(np.float64)
    terms = (r / m) * ((pos / n) * _log(n / pos, base) + (m - pos / n) * _log(m / (m + n - pos), base))
    return density, ceq, math.fsum(terms.tolist())


# ---------------------------------------------------------------- accuracy


def accuracy_pixel(a: np.ndarray, b: np.ndarray) -> float:
    mismatches = int(np.count_nonzero(a != b))
    return (1.0 - mismatches / a.size) * 100.0


def accuracy_runs(a: np.ndarray, b: np.ndarray) -> float:
    """runblock's compressed-mode accuracy, from its definition: runs are
    compared entry by entry, the shorter row padded with zero runs, and the
    absolute differences over the pixel area are the error, clamped at 0 %."""
    mismatch = 0
    for ra, rb in zip(grid_runs(a), grid_runs(b)):
        size = max(ra.size, rb.size)
        pa = np.zeros(size, dtype=np.int64)
        pb = np.zeros(size, dtype=np.int64)
        pa[: ra.size] = ra
        pb[: rb.size] = rb
        mismatch += int(np.abs(pa - pb).sum())
    return max((1.0 - mismatch / a.size) * 100.0, 0.0)
