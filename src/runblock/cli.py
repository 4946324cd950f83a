"""Command-line front end.

Commands: encode, decode, extract, characterize, evaluate, info. All block
coordinates are 1-indexed and inclusive; x1/x2 select rows and y1/y2 select
columns (note this differs from x-is-horizontal image conventions).

Exit codes: 0 success, 2 usage or validation error, or too little memory
for the command, 3 parse or corruption error, 4 internal consistency
failure. Diagnostics go to stderr; reports go to stdout and serialize
deterministically (stable key order, no timestamps unless --timing is
given).

A command that prints returns its report fields and its text, and `main`
prints them: the text, or under --json the fields as a JSON report with the
schema, the command and, under --timing, the wall time. encode and decode
only write files and return None.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .core import CompressedDoc, decode_image, encode_image
from .errors import ConsistencyError, FormatError, ValidationError
from .extract import BlockSpec, extract_block_detailed
from .features import LOG_BASES, characterize, foreground_total
from .formats import (
    RLC_MAGIC,
    pbm_header,
    read_pbm,
    read_rle,
    rle_header,
    write_pbm,
    write_rle,
)
from .mh import mh_decode_image
from .oracle import accuracy_compressed, accuracy_pixel

REPORT_SCHEMA = "runblock-report/1"

# exception -> exit code; OSError covers unreadable and unwritable paths, and
# MemoryError a valid input whose command needs more memory than there is
EXIT_CODES = {ValidationError: 2, FormatError: 3, ConsistencyError: 4, OSError: 2, MemoryError: 2}


def _write(stream, text: str) -> None:
    """Write to a standard stream. Python leaves a stream that was closed at
    startup as None, and writing to it fails as writing to a closed file
    does, so a report that cannot be written exits 2."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    stream.write(text)


def _read(path: str, fax: bool = False) -> tuple[str, bytes]:
    """A file's format ("pbm" or "rlc1") and bytes. Bytes of neither format
    are a parse error, or with `fax` the format "fax"."""
    data = Path(path).read_bytes()
    if data[:2] in (b"P1", b"P4"):
        return "pbm", data
    if data[: len(RLC_MAGIC)] == RLC_MAGIC.encode():
        return "rlc1", data
    if fax:
        return "fax", data
    raise FormatError("unrecognized input format (expected PBM P1/P4 or RLC1)")


def _load_doc(path: str, spec: BlockSpec | None = None) -> tuple[str, CompressedDoc]:
    """Load a PBM or RLC1 file as a document; returns (format, document).

    With `spec`, the block is checked against the header's dimensions before
    the body is parsed.
    """
    kind, data = _read(path)
    if spec is not None:
        spec.validate_for(*(pbm_header(data) if kind == "pbm" else rle_header(data)))
    return kind, encode_image(read_pbm(data)) if kind == "pbm" else read_rle(data)


def _load_grid(path: str):
    kind, data = _read(path)
    return read_pbm(data) if kind == "pbm" else decode_image(read_rle(data))


# ---------------------------------------------------------------- commands


def cmd_encode(args) -> None:
    kind, data = _read(args.input)
    if kind != "pbm":
        raise ValidationError("encode expects a PBM input")
    Path(args.output).write_bytes(write_rle(encode_image(read_pbm(data))))


def cmd_decode(args) -> None:
    kind, data = _read(args.input, fax=True)
    mh_flags = {"--width": args.width, "--height": args.height, "--eol": args.eol}
    # explicit fax framing wins over content sniffing
    if kind == "fax" or args.byte_align or any(v is not None for v in mh_flags.values()):
        missing = [name for name, value in mh_flags.items() if value is None]
        if missing:
            raise ValidationError("raw fax input needs " + ", ".join(missing))
        doc = mh_decode_image(
            data,
            args.width,
            args.height,
            eol=(args.eol == "required"),
            byte_align=args.byte_align,
        )
    elif kind == "pbm":
        raise ValidationError("decode expects an RLC1 or raw fax input, got PBM")
    else:
        doc = read_rle(data)
    Path(args.output).write_bytes(write_pbm(decode_image(doc), plain=args.plain))


def cmd_extract(args) -> tuple[dict, str]:
    spec = BlockSpec(args.x1, args.x2, args.y1, args.y2)
    _, doc = _load_doc(args.input, spec)
    block, table, stats = extract_block_detailed(doc, spec)
    if args.decode_output:
        Path(args.output).write_bytes(write_pbm(decode_image(block)))
    else:
        Path(args.output).write_bytes(write_rle(block))
    if args.trace is not None:
        lines = ("%d %d %d %d\n" * len(table)) % tuple(itertools.chain.from_iterable(table))
        if args.trace == "-":
            _write(sys.stdout, lines)
        else:
            Path(args.trace).write_text(lines)
    fields = {
        "input": args.input,
        "output": args.output,
        "block": {"x1": spec.x1, "x2": spec.x2, "y1": spec.y1, "y2": spec.y2},
        "block_size": {"rows": block.height, "columns": block.width},
        "counters": {
            "rows": stats.rows,
            "runs_visited": stats.runs_visited,
            "runs_emitted": stats.runs_emitted,
        },
    }
    return fields, ""


def cmd_characterize(args) -> tuple[dict, str]:
    relative = args.doc is not None
    # --doc takes all four coordinates, and coordinates are nothing without it
    if any((c is None) == relative for c in (args.x1, args.x2, args.y1, args.y2)):
        raise ValidationError("relative mode needs --doc together with --x1/--x2/--y1/--y2")
    _, block = _load_doc(args.input)
    doc = spec = None
    if relative:
        spec = BlockSpec(args.x1, args.x2, args.y1, args.y2)
        _, doc = _load_doc(args.doc, spec)
    result = characterize(block, doc=doc, spec=spec, log_base=LOG_BASES[args.log_base])
    fields = {
        "input": args.input,
        "log_base": args.log_base,
        "relative": None,
        "labels": {"density": result.density_label, "entropy": result.entropy_label},
    }
    # each report fills the field of its mode: "absolute", and "relative"
    # when a document was given
    text = ""
    for report in (result.absolute, result.relative):
        if report is None:
            continue
        mode = report.context.mode
        values = {"density": report.density, "ceq": report.ceq, "seq": report.seq}
        fields[mode] = {"mode": mode, **values}
        text += f"{mode:<9} " + " ".join(f"{k}={v:.6f}" for k, v in values.items()) + "\n"
    if result.density_label is not None:
        text += f"labels    density={result.density_label} entropy={result.entropy_label}\n"
    return fields, text


def cmd_evaluate(args) -> tuple[dict, str]:
    a, b = Path(args.extracted), Path(args.truth)
    if a.is_dir() != b.is_dir():
        raise ValidationError("evaluate needs two files or two directories")
    single = not a.is_dir()
    if single:
        pairs = [(None, args.extracted, args.truth)]
    else:
        names = sorted(p.name for p in a.iterdir() if p.is_file())
        missing = [n for n in names if not (b / n).is_file()]
        if missing:
            raise ValidationError(f"missing ground truth for: {', '.join(missing)}")
        pairs = [(n, str(a / n), str(b / n)) for n in names]
    if args.mode == "pixel":
        load, score = _load_grid, accuracy_pixel
    else:
        load, score = (lambda path: _load_doc(path)[1]), accuracy_compressed
    scores = [(n, score(load(x), load(t)).percentage) for n, x, t in pairs]
    fields = {"mode": args.mode}
    if single:
        fields.update(extracted=args.extracted, truth=args.truth, percentage=scores[0][1])
    else:
        fields["results"] = [{"name": n, "percentage": p} for n, p in scores]
    return fields, "".join(f"{p:.4f}\n" if single else f"{n}: {p:.4f}\n" for n, p in scores)


def cmd_info(args) -> tuple[dict, str]:
    kind, doc = _load_doc(args.input)
    foreground = foreground_total(doc)
    stats = {
        "format": kind,
        "width": doc.width,
        "height": doc.height,
        "total_runs": doc.total_runs(),
        "foreground_pixels": foreground,
        "density": foreground / (doc.width * doc.height),
    }
    return {"input": args.input, **stats}, "".join(f"{k}: {v}\n" for k, v in stats.items())


# ---------------------------------------------------------------- parser


def _add_block_args(parser, required: bool) -> None:
    for name in ("x1", "x2", "y1", "y2"):
        parser.add_argument(
            f"--{name}",
            type=int,
            required=required,
            default=None,
            help=f"block bound {name} (1-indexed, inclusive; x = rows, y = columns)",
        )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # no default, which a command's parser would set over a --timing given
    # before the command
    common.add_argument(
        "--timing", action="store_true", default=argparse.SUPPRESS,
        help="include elapsed wall time in JSON reports",
    )

    parser = argparse.ArgumentParser(
        prog="runblock",
        description="Extract and characterize rectangular blocks of run-length "
        "compressed binary document images without decompressing them.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("encode", parents=[common], help="compress a PBM image to RLC1")
    p.add_argument("input", help="PBM (P1 or P4) file")
    p.add_argument("output", help="RLC1 file to write")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", parents=[common], help="decompress RLC1 or raw T.4 fax data to PBM")
    p.add_argument("input", help="RLC1 file, or raw Modified Huffman bitstream")
    p.add_argument("output", help="PBM file to write")
    p.add_argument("--width", type=int, help="image width (fax input only)")
    p.add_argument("--height", type=int, help="image height (fax input only)")
    p.add_argument("--eol", choices=("required", "forbidden"), help="end-of-line codes before each row (fax input only)")
    p.add_argument("--byte-align", action="store_true", help="rows are byte-aligned (fax input only)")
    p.add_argument("--plain", action="store_true", help="write ASCII P1 instead of packed P4")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("extract", parents=[common], help="cut a block out of a compressed document")
    p.add_argument("input", help="RLC1 or PBM document")
    p.add_argument("output", help="file for the extracted block")
    _add_block_args(p, required=True)
    p.add_argument("--trace", metavar="PATH", help="write per-row boundary records (start run, start residue, end run, end residue); '-' for stdout")
    p.add_argument("--decode-output", action="store_true", help="write the block as PBM instead of RLC1")
    p.add_argument("--json", action="store_true", help="print a JSON report with work counters")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("characterize", parents=[common], help="density and entropy of a block")
    p.add_argument("input", help="RLC1 or PBM block")
    p.add_argument("--doc", help="source document for relative characterization")
    _add_block_args(p, required=False)
    p.add_argument("--log-base", choices=sorted(LOG_BASES), default="e", help="entropy logarithm base")
    p.add_argument("--json", action="store_true", help="print a JSON report")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("evaluate", parents=[common], help="accuracy of an extraction against ground truth")
    p.add_argument("extracted", help="extracted block (file or directory)")
    p.add_argument("truth", help="ground truth (file or directory)")
    p.add_argument("--mode", choices=("pixel", "compressed"), required=True)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility and has no effect; directories are evaluated serially",
    )
    p.add_argument("--json", action="store_true", help="print a JSON report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("info", parents=[common], help="dimensions and run statistics of a file")
    p.add_argument("input", help="RLC1 or PBM file")
    p.add_argument("--json", action="store_true", help="print a JSON report")
    p.set_defaults(func=cmd_info)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds nothing of the inputs,
    and each parse starts from a new namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    try:
        result = args.func(args)
        if result is not None:
            fields, text = result
            if args.json:
                report = {"schema": REPORT_SCHEMA, "command": args.command, **fields}
                if getattr(args, "timing", False):
                    report["elapsed_seconds"] = round(time.monotonic() - start, 6)
                text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            if text:  # a command with nothing to say leaves stdout alone
                _write(sys.stdout, text)
    except tuple(EXIT_CODES) as exc:
        message = str(exc)
        if isinstance(exc, MemoryError):
            # numpy's names the allocation that failed; a bare one says nothing
            message = "the command needs more memory than is available" + (message and f" ({message})")
        # a diagnostic that cannot be written leaves the exit code as it is
        with contextlib.suppress(OSError):
            _write(sys.stderr, f"runblock: error: {message}\n")
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
