"""Command-line front end.

Commands: encode, decode, extract, characterize, evaluate, info. All block
coordinates are 1-indexed and inclusive; x1/x2 select rows and y1/y2 select
columns (note this differs from x-is-horizontal image conventions).

Exit codes: 0 success, 2 usage or validation error, 3 parse or corruption
error, 4 internal consistency failure. Diagnostics go to stderr; reports go
to stdout and serialize deterministically (stable key order, no timestamps
unless --timing is given).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from pathlib import Path

from . import __version__
from .core import CompressedDoc, decode_image, encode_image
from .errors import ConsistencyError, FormatError, ValidationError
from .extract import BlockSpec, extract_block_detailed
from .features import LOG_BASES, Characterization, characterize, foreground_total
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

# exception -> exit code; OSError covers unreadable and unwritable paths
EXIT_CODES = {ValidationError: 2, FormatError: 3, ConsistencyError: 4, OSError: 2}


def _read_bytes(path: str) -> bytes:
    return Path(path).read_bytes()


def _sniff(data: bytes) -> str:
    if data[:2] in (b"P1", b"P4"):
        return "pbm"
    if data[: len(RLC_MAGIC)] == RLC_MAGIC.encode():
        return "rlc1"
    raise FormatError("unrecognized input format (expected PBM P1/P4 or RLC1)")


def _load_doc(path: str, spec: BlockSpec | None = None) -> tuple[str, CompressedDoc]:
    """Load a PBM or RLC1 file as a document; returns (format, document).

    With `spec`, the block is checked against the header's dimensions before
    the body is parsed.
    """
    data = _read_bytes(path)
    kind = _sniff(data)
    if spec is not None:
        spec.validate_for(*(pbm_header(data) if kind == "pbm" else rle_header(data)))
    return kind, encode_image(read_pbm(data)) if kind == "pbm" else read_rle(data)


def _load_grid(path: str):
    data = _read_bytes(path)
    if _sniff(data) == "pbm":
        return read_pbm(data)
    return decode_image(read_rle(data))


def _block_spec(args) -> BlockSpec:
    return BlockSpec(x1=args.x1, x2=args.x2, y1=args.y1, y2=args.y2)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _report_skeleton(args, command: str) -> dict:
    report = {"schema": REPORT_SCHEMA, "command": command}
    if getattr(args, "timing", False):
        report["elapsed_seconds"] = round(time.monotonic() - args._t0, 6)
    return report


# ---------------------------------------------------------------- commands


def cmd_encode(args) -> int:
    data = _read_bytes(args.input)
    if _sniff(data) != "pbm":
        raise ValidationError("encode expects a PBM input")
    doc = encode_image(read_pbm(data))
    Path(args.output).write_bytes(write_rle(doc))
    return 0


def cmd_decode(args) -> int:
    data = _read_bytes(args.input)
    mh_flags = (args.width, args.height, args.eol)
    if args.byte_align or any(v is not None for v in mh_flags):
        # explicit fax framing wins over content sniffing
        missing = [
            name
            for name, value in zip(("--width", "--height", "--eol"), mh_flags)
            if value is None
        ]
        if missing:
            raise ValidationError("raw fax input needs " + ", ".join(missing))
        doc = mh_decode_image(
            data,
            args.width,
            args.height,
            eol=(args.eol == "required"),
            byte_align=args.byte_align,
        )
    else:
        try:
            kind = _sniff(data)
        except FormatError:
            raise ValidationError("raw fax input needs --width, --height, --eol") from None
        if kind == "pbm":
            raise ValidationError("decode expects an RLC1 or raw fax input, got PBM")
        doc = read_rle(data)
    Path(args.output).write_bytes(write_pbm(decode_image(doc), plain=args.plain))
    return 0


def cmd_extract(args) -> int:
    spec = _block_spec(args)
    _, doc = _load_doc(args.input, spec)
    block, table, stats = extract_block_detailed(doc, spec)
    if args.decode_output:
        Path(args.output).write_bytes(write_pbm(decode_image(block)))
    else:
        Path(args.output).write_bytes(write_rle(block))
    if args.trace is not None:
        lines = ("%d %d %d %d\n" * len(table)) % tuple(itertools.chain.from_iterable(table))
        if args.trace == "-":
            sys.stdout.write(lines)
        else:
            Path(args.trace).write_text(lines)
    if args.json:
        report = _report_skeleton(args, "extract")
        report.update(
            {
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
        )
        _emit_json(report)
    return 0


def _report_fields(report) -> dict:
    return {
        "mode": report.context.mode,
        "density": report.density,
        "ceq": report.ceq,
        "seq": report.seq,
    }


def cmd_characterize(args) -> int:
    _, block = _load_doc(args.input)
    doc = None
    spec = None
    relative = args.doc is not None
    # --doc takes all four coordinates, and coordinates are nothing without it
    if any((c is None) == relative for c in (args.x1, args.x2, args.y1, args.y2)):
        raise ValidationError("relative mode needs --doc together with --x1/--x2/--y1/--y2")
    if relative:
        spec = _block_spec(args)
        _, doc = _load_doc(args.doc, spec)
    result: Characterization = characterize(
        block, doc=doc, spec=spec, log_base=LOG_BASES[args.log_base]
    )
    if args.json:
        report = _report_skeleton(args, "characterize")
        report.update(
            {
                "input": args.input,
                "log_base": args.log_base,
                "absolute": _report_fields(result.absolute),
                "relative": _report_fields(result.relative) if result.relative else None,
                "labels": {
                    "density": result.density_label,
                    "entropy": result.entropy_label,
                },
            }
        )
        _emit_json(report)
    else:
        for report in (result.absolute, result.relative):
            if report is None:
                continue
            sys.stdout.write(
                f"{report.context.mode:<9} density={report.density:.6f} "
                f"ceq={report.ceq:.6f} seq={report.seq:.6f}\n"
            )
        if result.density_label is not None:
            sys.stdout.write(
                f"labels    density={result.density_label} entropy={result.entropy_label}\n"
            )
    return 0


def _evaluate_pair(extracted: str, truth: str, mode: str):
    if mode == "pixel":
        return accuracy_pixel(_load_grid(extracted), _load_grid(truth))
    return accuracy_compressed(_load_doc(extracted)[1], _load_doc(truth)[1])


def cmd_evaluate(args) -> int:
    a, b = Path(args.extracted), Path(args.truth)
    if a.is_dir() != b.is_dir():
        raise ValidationError("evaluate needs two files or two directories")
    if not a.is_dir():
        result = _evaluate_pair(args.extracted, args.truth, args.mode)
        if args.json:
            report = _report_skeleton(args, "evaluate")
            report.update(
                {
                    "extracted": args.extracted,
                    "truth": args.truth,
                    "mode": result.mode,
                    "percentage": result.percentage,
                }
            )
            _emit_json(report)
        else:
            sys.stdout.write(f"{result.percentage:.4f}\n")
        return 0

    names = sorted(p.name for p in a.iterdir() if p.is_file())
    missing = [n for n in names if not (b / n).is_file()]
    if missing:
        raise ValidationError(f"missing ground truth for: {', '.join(missing)}")
    results = [_evaluate_pair(str(a / n), str(b / n), args.mode) for n in names]
    if args.json:
        report = _report_skeleton(args, "evaluate")
        report.update(
            {
                "mode": args.mode,
                "results": [
                    {"name": n, "percentage": r.percentage}
                    for n, r in zip(names, results)
                ],
            }
        )
        _emit_json(report)
    else:
        for n, r in zip(names, results):
            sys.stdout.write(f"{n}: {r.percentage:.4f}\n")
    return 0


def cmd_info(args) -> int:
    kind, doc = _load_doc(args.input)
    foreground = foreground_total(doc)
    payload = {
        "format": kind,
        "width": doc.width,
        "height": doc.height,
        "total_runs": doc.total_runs(),
        "foreground_pixels": foreground,
        "density": foreground / (doc.width * doc.height),
    }
    if args.json:
        report = _report_skeleton(args, "info")
        report["input"] = args.input
        report.update(payload)
        _emit_json(report)
    else:
        for key, value in payload.items():
            sys.stdout.write(f"{key}: {value}\n")
    return 0


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
    args._t0 = time.monotonic()
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"runblock: error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
