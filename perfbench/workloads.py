"""Seeded inputs, request lists and output checks of the three workloads.

Each workload writes its pages with the independent reference writers and
returns a fixed list of CLI requests. Every request carries a check that
compares what the program printed and wrote with what `reference` computes
from the generator's pixel grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

REL_TOL = 1e-9

# Text pages follow the statistics of the page behind the ROADMAP baseline:
# background runs of 1..40, ink runs of 1..12, 12 % blank rows, 10 % of the
# other rows starting on ink. That gives 160 to 164 runs per row at A4 width.
TEXT_MODEL = dict(bg_max=40, fg_max=12, blank=0.12)
# Fax pages model a typed letter in ITU-T T.4 page geometry: 1728 pixels
# over 215 mm (8 per mm) and 3.85 rows per mm at standard resolution. The
# layout values are a model, not measured from a fax: 25 mm left and 20 mm
# right, top and bottom margins, 6 lines per inch (16 rows, 10 of them
# ink), words of 24..120 pixels 12..28 apart, strokes of 1..3 pixels 2..10
# apart, and paragraphs of 6 lines, the last one short, with a blank line
# after each. Every ink row so starts and ends with a white run that needs
# a make-up code.
LETTER_MODEL = dict(left=200, right=160, top=77, line_rows=16, ink_rows=10,
                    word=(24, 120), word_gap=(12, 28), stroke=(1, 3), gap=(2, 10),
                    paragraph_lines=6)

A4_SHAPE = (3508, 2480)  # 300 dpi
FAX_SHAPE = (1143, 1728)  # T.4 standard resolution, 3.85 lines/mm
DENSE_SHAPE = (1024, 1024)
EVAL_PAIRS = 8
PERTURBED_PIXELS = 200


@dataclass
class Request:
    argv: list[str]  # the CLI command line; argv[0] is the command
    check: Callable[[str], list[str]]
    # rectangle and page shape of an extraction, for the work counters
    extract: tuple | None = None
    # block grid of a characterization, for the transition count
    characterized: np.ndarray | None = None


@dataclass
class Workload:
    requests: list[Request]
    main_page: str  # path of the page whose parsed size is measured
    inputs: dict  # description for the report


def text_page(rng: np.random.Generator, shape, bg_max: int, fg_max: int, blank: float):
    """Rows of alternating background and ink runs of uniform random length."""
    width = shape[1]
    grid = np.zeros(shape, dtype=np.uint8)
    # longest run per position, for rows starting on background (0) or ink (1)
    maxima = (np.array([bg_max, fg_max] * 64), np.array([fg_max, bg_max] * 64))
    for row in grid:
        if rng.random() < blank:
            continue
        first = int(rng.random() < 0.1)
        lengths = []
        covered = 0
        while covered < width:
            chunk = 1 + (rng.random(128) * maxima[first]).astype(np.int64)
            lengths.append(chunk)
            covered += int(chunk.sum())
        runs = np.concatenate(lengths)
        colors = (np.arange(runs.size) + first) % 2
        row[:] = np.repeat(colors, runs)[:width]
    return grid


def letter_page(rng: np.random.Generator, shape, left: int, right: int, top: int,
                line_rows: int, ink_rows: int, word, word_gap, stroke, gap,
                paragraph_lines: int):
    """Paragraphs of lines of words between page margins; each ink row of a
    line has random strokes inside the line's word extents."""
    height, width = shape
    grid = np.zeros(shape, dtype=np.uint8)
    text_end = width - right
    tops = range(top, height - top - line_rows + 1, line_rows)
    # last lines of paragraphs end at evenly spaced shares of the text width,
    # in seeded order, so every page has the same mix
    shares = rng.permutation(np.linspace(0.2, 0.9, -(-len(tops) // (paragraph_lines + 1))))
    for line, line_top in enumerate(tops):
        paragraph, place = divmod(line, paragraph_lines + 1)
        if place == paragraph_lines:
            continue  # the blank line between paragraphs
        end = text_end - int(rng.integers(0, 60))  # ragged right edge
        if place == paragraph_lines - 1:
            end = left + int(shares[paragraph] * (text_end - left))
        words = np.zeros(width, dtype=np.uint8)
        col = left
        while True:
            size = int(rng.integers(word[0], word[1] + 1))
            if col + size > end:
                break
            words[col : col + size] = 1
            col += size + int(rng.integers(word_gap[0], word_gap[1] + 1))
        for row in grid[line_top : line_top + ink_rows]:
            # alternating gaps and strokes from the left margin, cut to the words
            runs = np.empty(2 * width // (gap[0] + stroke[0]), dtype=np.int64)
            runs[0::2] = rng.integers(gap[0], gap[1] + 1, runs.size // 2)
            runs[1::2] = rng.integers(stroke[0], stroke[1] + 1, runs.size // 2)
            strokes = np.repeat(np.arange(runs.size) % 2, runs)[: width - left]
            row[left:] = strokes.astype(np.uint8) & words[left:]
    return grid


def letter_text_area(shape, left: int, right: int, top: int, line_rows: int,
                     ink_rows: int, **_) -> tuple[int, int, int, int]:
    """(first row, last row, first column, last column), 1-based, that the
    lines of a `letter_page` can ink."""
    height, width = shape
    lines = len(range(top, height - top - line_rows + 1, line_rows))
    return (top + 1, top + (lines - 1) * line_rows + ink_rows, left + 1, width - right)


def _rect(rng, shape, rows: int, cols: int, area=None):
    """A rows x cols rectangle at a seeded origin inside `area`, given as
    (first row, last row, first column, last column); the page by default."""
    x_lo, x_hi, y_lo, y_hi = area or (1, shape[0], 1, shape[1])
    x1 = int(rng.integers(x_lo, x_hi - rows + 2))
    y1 = int(rng.integers(y_lo, y_hi - cols + 2))
    return (x1, x1 + rows - 1, y1, y1 + cols - 1)


def _rect_args(rect) -> list[str]:
    x1, x2, y1, y2 = rect
    return ["--x1", str(x1), "--x2", str(x2), "--y1", str(y1), "--y2", str(y2)]


# ---------------------------------------------------------------- checks


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _json(stdout: str, problems: list[str]):
    try:
        return json.loads(stdout)
    except ValueError:
        problems.append(f"stdout is not one JSON report: {stdout[:80]!r}")
        return None


def _check_rlc(path: Path, expected: np.ndarray) -> list[str]:
    data = path.read_bytes()
    try:
        grid = ref.parse_rlc(data)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"{path.name}: {exc}"]
    if grid.shape != expected.shape or not np.array_equal(grid, expected):
        return [f"{path.name}: pixels differ from the reference"]
    if data != ref.rlc_bytes(expected):
        return [f"{path.name}: bytes differ from the canonical RLC1 serialization"]
    return []


def _check_pbm(path: Path, expected: np.ndarray) -> list[str]:
    data = path.read_bytes()
    try:
        grid = ref.parse_pbm(data)
    except ValueError as exc:
        return [f"{path.name}: {exc}"]
    if grid.shape != expected.shape or not np.array_equal(grid, expected):
        return [f"{path.name}: pixels differ from the reference"]
    if data != ref.pbm_bytes(expected):
        return [f"{path.name}: bytes differ from the P4 serialization"]
    return []


def extract_request(page: np.ndarray, src: str, rect, out: Path) -> Request:
    trace = out.with_suffix(".trace")

    def check(stdout: str) -> list[str]:
        block = ref.crop(page, rect)
        problems = _check_rlc(out, block)
        records = [tuple(map(int, line.split())) for line in trace.read_text().splitlines()]
        if records != ref.boundary_records(page, rect):
            problems.append(f"{trace.name}: boundary records differ from the reference")
        report = _json(stdout, problems)
        if report is None:
            return problems
        counters = report["counters"]
        emitted = sum(r.size for r in ref.grid_runs(block))
        baseline = page.size + 2 * block.size
        if report["block_size"] != {"rows": block.shape[0], "columns": block.shape[1]}:
            problems.append(f"{out.name}: reported block size {report['block_size']}")
        if counters["rows"] != block.shape[0] or counters["runs_emitted"] != emitted:
            problems.append(f"{out.name}: counters {counters}, expected {block.shape[0]} rows, {emitted} runs")
        if not 0 < counters["runs_visited"] + emitted < baseline:
            problems.append(f"{out.name}: {counters['runs_visited']} runs visited breaks the operation bound")
        return problems

    argv = ["extract", src, str(out), *_rect_args(rect), "--trace", str(trace), "--json"]
    return Request(argv, check, extract=(rect, page.shape))


def characterize_request(page: np.ndarray, block_file: Path, rect, relative: bool,
                         page_file: str = "", log_base: str = "e") -> Request:
    base = {"2": 2.0, "e": math.e, "10": 10.0}[log_base]
    block = ref.crop(page, rect)

    def check(stdout: str) -> list[str]:
        problems: list[str] = []
        report = _json(stdout, problems)
        if report is None:
            return problems
        expected = {"absolute": ref.features(block, base)}
        if relative:
            expected["relative"] = ref.features(block, base, page.shape, (rect[0], rect[2]))
        elif report["relative"] is not None:
            problems.append("absolute-only request reported a relative mode")
        for mode, values in expected.items():
            got = report[mode]
            for name, want in zip(("density", "ceq", "seq"), values):
                if not _close(got[name], want):
                    problems.append(f"{mode} {name} {got[name]!r}, reference {want!r}")
        if relative:
            rel, ab = report["relative"]["density"], report["absolute"]["density"]
            if not _close(rel, ab * block.size / page.size):
                problems.append(f"relative density {rel!r} is not absolute x area share")
            doc_density, doc_ceq, _ = ref.features(page, base)
            labels = {
                "density": "high" if expected["absolute"][0] >= doc_density else "low",
                "entropy": "high" if expected["absolute"][1] / block.shape[0]
                >= doc_ceq / page.shape[0] else "low",
            }
            if report["labels"] != labels:
                problems.append(f"labels {report['labels']}, reference {labels}")
        return problems

    argv = ["characterize", str(block_file), "--json", "--log-base", log_base]
    if relative:
        argv += ["--doc", page_file, *_rect_args(rect)]
    return Request(argv, check, characterized=block)


def decode_request(page: np.ndarray, argv: list[str], out: Path) -> Request:
    return Request(argv, lambda stdout: _check_pbm(out, page))


def encode_request(page: np.ndarray, src: str, out: Path) -> Request:
    return Request(["encode", src, str(out)], lambda stdout: _check_rlc(out, page))


def info_request(page: np.ndarray, src: str, fmt: str) -> Request:
    def check(stdout: str) -> list[str]:
        problems: list[str] = []
        report = _json(stdout, problems)
        if report is None:
            return problems
        foreground = int(page.sum())
        expected = {
            "format": fmt,
            "width": page.shape[1],
            "height": page.shape[0],
            "total_runs": sum(r.size for r in ref.grid_runs(page)),
            "foreground_pixels": foreground,
            "density": foreground / page.size,
        }
        got = {key: report.get(key) for key in expected}
        if got != expected:
            problems.append(f"info {got}, reference {expected}")
        return problems

    return Request(["info", src, "--json"], check)


def evaluate_request(rng, page: np.ndarray, root: Path, mode: str, rows: int, cols: int,
                     area=None) -> Request:
    """A directory of block/truth pairs cut from `area` of `page`, all exact
    except one whose block has pixels flipped at seeded places."""
    blocks, truths = root / "blocks", root / "truth"
    blocks.mkdir(parents=True)
    truths.mkdir(parents=True)
    expected = {}
    for k in range(EVAL_PAIRS + 1):
        truth = ref.crop(page, _rect(rng, page.shape, rows, cols, area)).copy()
        block = truth.copy()
        name = f"pair_{k:02d}.rlc"
        if k == EVAL_PAIRS:
            name = "perturbed.rlc"
            flat = rng.choice(block.size, PERTURBED_PIXELS, replace=False)
            block.flat[flat] ^= 1
        (blocks / name).write_bytes(ref.rlc_bytes(block))
        (truths / name).write_bytes(ref.rlc_bytes(truth))
        score = ref.accuracy_pixel if mode == "pixel" else ref.accuracy_runs
        expected[name] = score(block, truth)

    def check(stdout: str) -> list[str]:
        problems: list[str] = []
        report = _json(stdout, problems)
        if report is None:
            return problems
        got = {r["name"]: r["percentage"] for r in report["results"]}
        if got.keys() != expected.keys() or not all(
            _close(got[n], expected[n]) for n in expected
        ):
            problems.append(f"evaluate {got}, reference {expected}")
        return problems

    argv = ["evaluate", str(blocks), str(truths), "--mode", mode, "--jobs", "2", "--json"]
    return Request(argv, check)


# ---------------------------------------------------------------- workloads


def text_a4_rlc(seed: int, work: Path) -> Workload:
    """The paper's case: an A4 text page archived as RLC1, cut into a mix
    of blocks from word size to the full page."""
    rng = np.random.default_rng([seed, 1])
    page = text_page(rng, A4_SHAPE, **TEXT_MODEL)
    height, width = A4_SHAPE
    page_rlc, page_pbm = work / "page.rlc", work / "page.pbm"
    page_rlc.write_bytes(ref.rlc_bytes(page))
    page_pbm.write_bytes(ref.pbm_bytes(page))
    out = work / "out"
    out.mkdir()
    word = _rect(rng, A4_SHAPE, 40, 160)
    column = _rect(rng, A4_SHAPE, height, 300, area=(1, height, 1000, 1499))
    line = _rect(rng, A4_SHAPE, 60, width)
    paragraph = _rect(rng, A4_SHAPE, 1001, 1201)
    full = (1, height, 1, width)
    src = str(page_rlc)
    requests = [
        extract_request(page, src, word, out / "word.rlc"),
        characterize_request(page, out / "word.rlc", word, True, src),
        extract_request(page, src, column, out / "column.rlc"),
        extract_request(page, src, line, out / "line.rlc"),
        extract_request(page, src, paragraph, out / "paragraph.rlc"),
        characterize_request(page, out / "paragraph.rlc", paragraph, True, src, "2"),
        extract_request(page, src, full, out / "full.rlc"),
        decode_request(page, ["decode", src, str(out / "page.pbm")], out / "page.pbm"),
        encode_request(page, str(page_pbm), out / "encoded.rlc"),
        info_request(page, src, "rlc1"),
        evaluate_request(rng, page, work / "eval", "compressed", 240, 320),
    ]
    inputs = {"page": [height, width], "blocks": {
        "word": word, "column": column, "line": line, "paragraph": paragraph, "full": full}}
    return Workload(requests, src, inputs)


def fax_mh(seed: int, work: Path) -> Workload:
    """A fax page coded as one-dimensional Modified Huffman, with and
    without end-of-line codes; the fax decoder carries the load."""
    rng = np.random.default_rng([seed, 2])
    page = letter_page(rng, FAX_SHAPE, **LETTER_MODEL)
    height, width = FAX_SHAPE
    eol, bare = work / "page_eol.g3", work / "page_bare.g3"
    eol.write_bytes(ref.fax_bytes(page, eol=True))
    bare.write_bytes(ref.fax_bytes(page, eol=False))
    page_rlc, page_pbm = work / "page.rlc", work / "page.pbm"
    page_rlc.write_bytes(ref.rlc_bytes(page))
    page_pbm.write_bytes(ref.pbm_bytes(page))
    out = work / "out"
    out.mkdir()
    dims = ["--width", str(width), "--height", str(height)]
    # Blocks lie inside the lines. The paragraph block spans the text width,
    # and it and the evaluate pairs span whole paragraphs, so that they hold
    # the same share of blank lines wherever the seed puts them.
    text = letter_text_area(FAX_SHAPE, **LETTER_MODEL)
    period = LETTER_MODEL["line_rows"] * (LETTER_MODEL["paragraph_lines"] + 1)
    word = _rect(rng, FAX_SHAPE, 40, 160, text)
    paragraph = _rect(rng, FAX_SHAPE, 4 * period, text[3] - text[2] + 1, text)
    src = str(page_rlc)
    requests = [
        decode_request(page, ["decode", str(eol), str(out / "eol.pbm"), *dims,
                              "--eol", "required", "--byte-align"], out / "eol.pbm"),
        decode_request(page, ["decode", str(bare), str(out / "bare.pbm"), *dims,
                              "--eol", "forbidden"], out / "bare.pbm"),
        encode_request(page, str(page_pbm), out / "encoded.rlc"),
        extract_request(page, src, word, out / "word.rlc"),
        extract_request(page, src, paragraph, out / "paragraph.rlc"),
        characterize_request(page, out / "paragraph.rlc", paragraph, False),
        info_request(page, src, "rlc1"),
        evaluate_request(rng, page, work / "eval", "pixel", 2 * period, 320, text),
    ]
    runs = np.concatenate([ref.row_runs(row) for row in page])
    inputs = {"page": [height, width], "runs_per_row": runs.size / height,
              "makeup_runs": int((runs >= 64).sum()), "runs": runs.size,
              "fax_bytes": {"eol": eol.stat().st_size, "bare": bare.stat().st_size},
              "blocks": {"word": word, "paragraph": paragraph}}
    return Workload(requests, src, inputs)


def dense_pbm(seed: int, work: Path) -> Workload:
    """Random pixels stored as P4: the most runs per row a page can have,
    so the write path and the features see the most transitions."""
    rng = np.random.default_rng([seed, 3])
    page = (rng.random(DENSE_SHAPE) < 0.5).astype(np.uint8)
    height, width = DENSE_SHAPE
    page_rlc, page_pbm = work / "page.rlc", work / "page.pbm"
    page_rlc.write_bytes(ref.rlc_bytes(page))
    page_pbm.write_bytes(ref.pbm_bytes(page))
    out = work / "out"
    out.mkdir()
    block = _rect(rng, DENSE_SHAPE, 200, 300)
    strip = _rect(rng, DENSE_SHAPE, 400, width)
    src = str(page_pbm)
    requests = [
        encode_request(page, src, out / "encoded.rlc"),
        extract_request(page, src, block, out / "block.rlc"),
        extract_request(page, src, strip, out / "strip.rlc"),
        characterize_request(page, out / "strip.rlc", strip, False),
        decode_request(page, ["decode", str(page_rlc), str(out / "page.pbm")], out / "page.pbm"),
        info_request(page, src, "pbm"),
        evaluate_request(rng, page, work / "eval", "pixel", 120, 160),
    ]
    inputs = {"page": [height, width], "blocks": {"block": block, "strip": strip}}
    return Workload(requests, src, inputs)


WORKLOADS = {"text_a4_rlc": text_a4_rlc, "fax_mh": fax_mh, "dense_pbm": dense_pbm}
