import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from runblock import (
    BlockSpec,
    CompressedDoc,
    decode_image,
    extract_block,
    mh_encode_image,
    read_pbm,
    read_rle,
    write_pbm,
    write_rle,
)
from runblock import cli
from runblock.cli import main

from helpers import random_grid, text_like_doc
from test_extract import reference_visits


@pytest.fixture
def worked_doc(tmp_path):
    """The two-row fixture whose boundary records are (1, 2, 2, 2)."""
    path = tmp_path / "doc.rlc"
    path.write_bytes(write_rle(CompressedDoc.from_rows([(4, 4), (4, 4)])))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(argv):
    """Exit code and stderr of one command, with its stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def refuse_large_arrays(monkeypatch, limit=1 << 24):
    """Make numpy's allocators raise on a request for more than `limit`
    elements, so that a test sees a large allocation without making it."""
    for name in ("empty", "zeros", "ones", "full"):
        def guarded(shape, *args, _real=getattr(np, name), _name=name, **kwargs):
            if math.prod(np.atleast_1d(shape).tolist()) > limit:
                raise AssertionError(f"np.{_name}({shape!r}) is a large allocation")
            return _real(shape, *args, **kwargs)

        monkeypatch.setattr(np, name, guarded)


def assert_clean_exit(code, err, codes=(0, 2, 3, 4)):
    """An exit code of the contract, and on failure a diagnostic, never a traceback."""
    assert code in codes
    assert "Traceback" not in err
    assert code == 0 or err.startswith("runblock: error: ")


class TestEncodeDecode:
    def test_encode_pbm_to_rlc(self, tmp_path, capsys):
        pbm = tmp_path / "img.pbm"
        out = tmp_path / "img.rlc"
        pbm.write_bytes(b"P1\n3 1\n1 1 0\n")
        code, _, _ = run(capsys, "encode", pbm, out)
        assert code == 0
        assert out.read_bytes() == b"RLC1\n3 1\n0 2 1\n"

    def test_decode_inverts_encode(self, tmp_path, capsys):
        rng = np.random.default_rng(50)
        grid = random_grid(rng, 9, 17)
        pbm = tmp_path / "img.pbm"
        rlc = tmp_path / "img.rlc"
        back = tmp_path / "back.pbm"
        pbm.write_bytes(write_pbm(grid))
        assert run(capsys, "encode", pbm, rlc)[0] == 0
        assert run(capsys, "decode", rlc, back)[0] == 0
        assert np.array_equal(read_pbm(back.read_bytes()), grid)

    def test_decode_mh_needs_flags(self, tmp_path, capsys):
        raw = tmp_path / "img.mh"
        raw.write_bytes(b"\x0c")
        code, _, err = run(capsys, "decode", raw, tmp_path / "o.pbm")
        assert (code, err) == (2, "runblock: error: raw fax input needs --width, --height, --eol\n")

    def test_decode_partial_mh_flags_name_missing(self, tmp_path, capsys):
        raw = tmp_path / "img.mh"
        raw.write_bytes(b"\x0c")
        code, _, err = run(capsys, "decode", raw, tmp_path / "o.pbm", "--width", 8)
        assert code == 2
        assert "--height" in err and "--eol" in err and "--width" not in err

    def test_decode_byte_align_alone_is_a_fax_flag(self, tmp_path, capsys):
        # an RLC1 input with a fax framing flag is read as fax, not sniffed
        rlc = tmp_path / "page.rlc"
        rlc.write_bytes(write_rle(CompressedDoc.from_rows([(4,)])))
        code, _, err = run(capsys, "decode", rlc, tmp_path / "o.pbm", "--byte-align")
        assert (code, err) == (2, "runblock: error: raw fax input needs --width, --height, --eol\n")
        assert not (tmp_path / "o.pbm").exists()

    def test_decode_rejects_pbm_input(self, tmp_path, capsys):
        pbm = tmp_path / "img.pbm"
        pbm.write_bytes(b"P1\n1 1\n0\n")
        code, _, err = run(capsys, "decode", pbm, tmp_path / "o.pbm")
        assert code == 2
        assert "PBM" in err

    def test_decode_mh(self, tmp_path, capsys):
        rng = np.random.default_rng(51)
        doc = text_like_doc(rng, 5, 40)
        raw = tmp_path / "img.mh"
        out = tmp_path / "img.pbm"
        raw.write_bytes(mh_encode_image(doc, eol=True))
        code, _, _ = run(
            capsys, "decode", raw, out,
            "--width", doc.width, "--height", doc.height, "--eol", "required",
        )
        assert code == 0
        assert np.array_equal(read_pbm(out.read_bytes()), decode_image(doc))

    FUZZ_DOC = text_like_doc(np.random.default_rng(52), 12, 200)

    @settings(max_examples=150, deadline=None)
    @given(
        eol=st.booleans(),
        byte_align=st.booleans(),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["flip", "truncate", "append"]),
                st.integers(0, 2**16),
                st.binary(min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_decode_mutated_fax_exits_0_or_3(self, eol, byte_align, edits):
        """Flipped bits, truncation and appended bytes end in a parse error
        or a clean decode, never in a traceback."""
        doc = self.FUZZ_DOC
        data = bytearray(mh_encode_image(doc, eol=eol, byte_align=byte_align))
        for kind, where, extra in edits:
            if kind == "flip" and data:
                bit = where % (8 * len(data))
                data[bit // 8] ^= 0x80 >> bit % 8
            elif kind == "truncate":
                del data[where % (len(data) + 1) :]
            elif kind == "append":
                data += extra
        with tempfile.TemporaryDirectory() as tmp:
            raw = Path(tmp) / "page.g3"
            raw.write_bytes(data)
            argv = [
                "decode", str(raw), str(Path(tmp) / "page.pbm"),
                "--width", str(doc.width), "--height", str(doc.height),
                "--eol", "required" if eol else "forbidden",
            ] + (["--byte-align"] if byte_align else [])
            code, err = run_quiet(argv)
        assert_clean_exit(code, err, codes=(0, 3))

    def test_corrupt_rlc_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.rlc"
        bad.write_bytes(b"RLC1\n8 1\n3 3\n")
        code, _, err = run(capsys, "decode", bad, tmp_path / "o.pbm")
        assert code == 3
        assert "row 1" in err

    def test_decode_beyond_pixel_budget_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch):
        # 2000000000 x 1 pixels declared in 29 bytes: a 1.86 GiB grid
        huge = tmp_path / "huge.rlc"
        huge.write_bytes(b"RLC1\n2000000000 1\n2000000000\n")
        assert len(huge.read_bytes()) == 29
        refuse_large_arrays(monkeypatch)
        code, stdout, err = run(capsys, "decode", huge, tmp_path / "o.pbm")
        assert (code, stdout) == (2, "")
        assert err == (
            "runblock: error: 2000000000 x 1 pixels exceed the pixel budget of 268435456\n"
        )
        assert not (tmp_path / "o.pbm").exists()

    def test_tall_fax_fails_on_its_data_before_allocating(self, tmp_path, capsys, monkeypatch):
        # 1 x 268435456 pixels is within the budget; the rows' offsets must
        # not be sized from the declared height before any row is read
        fax = tmp_path / "tall.mh"
        fax.write_bytes(b"\x00")
        refuse_large_arrays(monkeypatch)
        argv = ["decode", fax, tmp_path / "o.pbm", "--width", 1, "--height", 268435456]
        code, stdout, err = run(capsys, *argv, "--eol", "forbidden")
        assert (code, stdout) == (3, "")
        assert err.startswith("runblock: error: row 1: ")

    def test_pixel_budget_applies_to_every_pixel_path(self, worked_doc, tmp_path, capsys, monkeypatch):
        # the 8 x 2 fixture is 16 pixels: a budget of 15 refuses it, 16 takes it
        pbm = tmp_path / "doc.pbm"
        pbm.write_bytes(write_pbm(decode_image(read_rle(worked_doc.read_bytes()))))
        plain = tmp_path / "doc.p1"
        plain.write_bytes(write_pbm(decode_image(read_rle(worked_doc.read_bytes())), plain=True))
        fax = tmp_path / "doc.mh"
        fax.write_bytes(mh_encode_image(read_rle(worked_doc.read_bytes()), eol=False))
        rect = ["--x1", 1, "--x2", 2, "--y1", 1, "--y2", 8]
        commands = [
            ["decode", worked_doc, tmp_path / "o.pbm"],
            ["decode", fax, tmp_path / "o.pbm", "--width", 8, "--height", 2, "--eol", "forbidden"],
            ["encode", pbm, tmp_path / "o.rlc"],
            ["info", plain],
            ["extract", worked_doc, tmp_path / "o.pbm", *rect, "--decode-output"],
            ["evaluate", worked_doc, worked_doc, "--mode", "pixel"],
            ["evaluate", pbm, pbm, "--mode", "compressed"],
        ]
        for argv in commands:
            monkeypatch.setattr("runblock.core.MAX_PIXELS", 15)
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            assert "pixel budget of 15" in err
            monkeypatch.setattr("runblock.core.MAX_PIXELS", 16)
            assert run(capsys, *argv)[0] == 0, argv
        # run-domain work holds no grid, so the budget leaves it alone
        monkeypatch.setattr("runblock.core.MAX_PIXELS", 1)
        assert run(capsys, "extract", worked_doc, tmp_path / "o.rlc", *rect)[0] == 0

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "info", tmp_path / "nope.rlc")
        assert code == 2
        assert err


class TestExtract:
    def test_trace_matches_worked_example(self, worked_doc, tmp_path, capsys):
        out = tmp_path / "block.rlc"
        code, stdout, _ = run(
            capsys, "extract", worked_doc, out,
            "--x1", 1, "--x2", 2, "--y1", 3, "--y2", 6, "--trace", "-",
        )
        assert code == 0
        assert stdout == "1 2 2 2\n1 2 2 2\n"
        assert read_rle(out.read_bytes()).rows == ((2, 2), (2, 2))

    def test_full_image_extraction_is_identity(self, tmp_path, capsys):
        rng = np.random.default_rng(52)
        doc = text_like_doc(rng, 7, 33)
        src = tmp_path / "doc.rlc"
        out = tmp_path / "out.rlc"
        src.write_bytes(write_rle(doc))
        code, _, _ = run(
            capsys, "extract", src, out,
            "--x1", 1, "--x2", doc.height, "--y1", 1, "--y2", doc.width,
        )
        assert code == 0
        assert read_rle(out.read_bytes()) == doc

    def test_out_of_bounds_names_bound(self, worked_doc, tmp_path, capsys):
        code, _, err = run(
            capsys, "extract", worked_doc, tmp_path / "o.rlc",
            "--x1", 1, "--x2", 2, "--y1", 3, "--y2", 9,
        )
        assert code == 2
        assert "y2" in err

    def test_bounds_checked_from_header_before_body_parse(self, tmp_path, capsys):
        # corrupt body, but the coordinate error must win (exit 2, not 3)
        bad = tmp_path / "bad.rlc"
        bad.write_bytes(b"RLC1\n8 1\n3 3\n")
        code, _, err = run(
            capsys, "extract", bad, tmp_path / "o.rlc",
            "--x1", 1, "--x2", 5, "--y1", 1, "--y2", 8,
        )
        assert code == 2
        assert "x2" in err

    def test_zero_padded_dimension_line(self, tmp_path, capsys):
        # a dimension line past the first 64 bytes, which the header probe must reach
        page = b"4 2\n4\n0 4\n"
        plain, padded = tmp_path / "plain.rlc", tmp_path / "padded.rlc"
        plain.write_bytes(b"RLC1\n" + page)
        padded.write_bytes(b"RLC1\n" + b"0" * 70 + page)
        blocks = []
        for source in (plain, padded):
            out = tmp_path / f"{source.stem}.block.rlc"
            code, _, err = run(
                capsys, "extract", source, out, "--x1", 1, "--x2", 2, "--y1", 2, "--y2", 4,
            )
            assert (code, err) == (0, "")
            blocks.append(out.read_bytes())
        assert blocks[0] == blocks[1] == b"RLC1\n3 2\n3\n0 3\n"

    def test_decode_output_writes_pbm(self, worked_doc, tmp_path, capsys):
        out = tmp_path / "block.pbm"
        code, _, _ = run(
            capsys, "extract", worked_doc, out,
            "--x1", 1, "--x2", 1, "--y1", 3, "--y2", 6, "--decode-output",
        )
        assert code == 0
        assert read_pbm(out.read_bytes()).tolist() == [[0, 0, 1, 1]]

    def test_json_report_counters(self, worked_doc, tmp_path, capsys):
        code, stdout, _ = run(
            capsys, "extract", worked_doc, tmp_path / "o.rlc",
            "--x1", 1, "--x2", 2, "--y1", 3, "--y2", 6, "--json",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["schema"] == "runblock-report/1"
        assert report["counters"]["rows"] == 2
        worked = CompressedDoc.from_rows([(4, 4), (4, 4)])
        assert report["counters"]["runs_visited"] == reference_visits(worked, BlockSpec(1, 2, 3, 6))
        assert "elapsed_seconds" not in report

    def test_pbm_input_accepted(self, tmp_path, capsys):
        pbm = tmp_path / "img.pbm"
        out = tmp_path / "o.rlc"
        pbm.write_bytes(b"P1\n4 2\n0 0 1 1\n0 0 1 1\n")
        code, _, _ = run(capsys, "extract", pbm, out, "--x1", 1, "--x2", 2, "--y1", 3, "--y2", 4)
        assert code == 0
        assert read_rle(out.read_bytes()).rows == ((0, 2), (0, 2))


class TestCharacterize:
    def test_absolute_equals_relative_for_whole_doc(self, worked_doc, capsys):
        code, stdout, _ = run(
            capsys, "characterize", worked_doc,
            "--doc", worked_doc, "--x1", 1, "--x2", 2, "--y1", 1, "--y2", 8, "--json",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["absolute"]["density"] == report["relative"]["density"]
        assert report["labels"]["density"] in ("high", "low")

    def test_json_is_byte_stable(self, worked_doc, capsys):
        argv = ["characterize", str(worked_doc), "--json"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0

    def test_relative_needs_full_context(self, worked_doc, capsys):
        code, _, err = run(capsys, "characterize", worked_doc, "--doc", worked_doc, "--x1", 1)
        assert code == 2
        assert "x2" in err or "relative" in err

    @pytest.mark.parametrize(
        "coords", [["--x1", 5, "--x2", 9], ["--y2", 3], ["--x1", 1, "--x2", 2, "--y1", 1, "--y2", 8]]
    )
    def test_coordinates_need_doc(self, worked_doc, capsys, coords):
        code, stdout, err = run(capsys, "characterize", worked_doc, *coords)
        message = "runblock: error: relative mode needs --doc together with --x1/--x2/--y1/--y2\n"
        assert (code, stdout, err) == (2, "", message)

    def test_arguments_checked_before_the_block_is_read(self, tmp_path, capsys):
        # a corrupt block and coordinates without --doc: the usage error wins
        bad = tmp_path / "bad.rlc"
        bad.write_bytes(b"RLC1\n4 1\n5\n")
        code, stdout, err = run(capsys, "characterize", bad, "--x1", 1)
        message = "runblock: error: relative mode needs --doc together with --x1/--x2/--y1/--y2\n"
        assert (code, stdout, err) == (2, "", message)

    def test_text_output(self, worked_doc, capsys):
        code, stdout, _ = run(capsys, "characterize", worked_doc)
        assert code == 0
        assert stdout.startswith("absolute")
        assert "density=" in stdout

    def test_doc_rectangle_checked_from_header_before_body_parse(self, worked_doc, tmp_path, capsys):
        # a rectangle outside the document and a corrupt document body: the
        # rectangle wins with exit 2, as it does for extract
        bad = tmp_path / "bad.rlc"
        bad.write_bytes(b"RLC1\n8 2\n3 3\n4 4\n")
        argv = [bad, "--x1", 1, "--x2", 3, "--y1", 1, "--y2", 8]
        code, _, err = run(capsys, "characterize", worked_doc, "--doc", *argv)
        assert (code, err) == (2, "runblock: error: x2 (3) exceeds image height 2\n")
        assert run(capsys, "extract", bad, tmp_path / "o.rlc", *argv[1:]) == (code, "", err)
        # inside the rectangle, the corrupt body is reported
        code, _, err = run(capsys, "characterize", worked_doc, "--doc", bad, "--x1", 1, "--x2", 2,
                           "--y1", 1, "--y2", 8)
        assert (code, err) == (3, "runblock: error: row 1: runs sum to 6, expected width 8\n")

    def test_block_doc_mismatch_exits_4(self, worked_doc, tmp_path, capsys):
        other = tmp_path / "other.rlc"
        other.write_bytes(write_rle(CompressedDoc.from_rows([(0, 4)])))
        code, _, err = run(
            capsys, "characterize", other,
            "--doc", worked_doc, "--x1", 1, "--x2", 1, "--y1", 1, "--y2", 4,
        )
        assert code == 4
        assert "does not match" in err


class TestEvaluate:
    def test_identical_files_print_100(self, worked_doc, capsys):
        for mode in ("pixel", "compressed"):
            code, stdout, _ = run(capsys, "evaluate", worked_doc, worked_doc, "--mode", mode)
            assert code == 0
            assert stdout == "100.0000\n"

    def test_shifted_block_hand_value(self, tmp_path, capsys):
        truth = tmp_path / "truth.rlc"
        shifted = tmp_path / "shifted.rlc"
        truth.write_bytes(write_rle(CompressedDoc.from_rows([(0, 2, 2)] * 4)))
        shifted.write_bytes(write_rle(CompressedDoc.from_rows([(1, 2, 1)] * 4)))
        code, stdout, _ = run(capsys, "evaluate", shifted, truth, "--mode", "pixel")
        assert code == 0
        assert stdout == "50.0000\n"

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.rlc"
        b = tmp_path / "b.rlc"
        a.write_bytes(write_rle(CompressedDoc.from_rows([(4,)])))
        b.write_bytes(write_rle(CompressedDoc.from_rows([(5,)])))
        code, _, err = run(capsys, "evaluate", a, b, "--mode", "compressed")
        assert code == 2
        assert "widths differ" in err

    def test_directory_mode_sorted_with_jobs(self, tmp_path, capsys):
        rng = np.random.default_rng(53)
        a_dir = tmp_path / "extracted"
        b_dir = tmp_path / "truth"
        a_dir.mkdir()
        b_dir.mkdir()
        for name in ("zeta.rlc", "alpha.rlc", "mid.rlc"):
            doc = text_like_doc(rng, 4, 20)
            (a_dir / name).write_bytes(write_rle(doc))
            (b_dir / name).write_bytes(write_rle(doc))
        code, stdout, _ = run(
            capsys, "evaluate", a_dir, b_dir, "--mode", "compressed", "--jobs", 2
        )
        assert code == 0
        assert stdout.splitlines() == [
            "alpha.rlc: 100.0000",
            "mid.rlc: 100.0000",
            "zeta.rlc: 100.0000",
        ]

    def test_jobs_has_no_effect_on_directory_report(self, tmp_path, capsys):
        rng = np.random.default_rng(54)
        a_dir = tmp_path / "extracted"
        b_dir = tmp_path / "truth"
        a_dir.mkdir()
        b_dir.mkdir()
        for name in ("b.rlc", "a.rlc", "c.rlc"):
            (a_dir / name).write_bytes(write_rle(text_like_doc(rng, 5, 30)))
            (b_dir / name).write_bytes(write_rle(text_like_doc(rng, 5, 30)))
        for mode in ("pixel", "compressed"):
            for extra in ((), ("--json",)):
                argv = ["evaluate", a_dir, b_dir, "--mode", mode, *extra]
                serial = run(capsys, *argv, "--jobs", 1)
                assert serial[0] == 0
                assert run(capsys, *argv, "--jobs", 2) == serial

    def test_missing_truth_file(self, tmp_path, capsys):
        a_dir = tmp_path / "extracted"
        b_dir = tmp_path / "truth"
        a_dir.mkdir()
        b_dir.mkdir()
        (a_dir / "x.rlc").write_bytes(write_rle(CompressedDoc.from_rows([(4,)])))
        code, _, err = run(capsys, "evaluate", a_dir, b_dir, "--mode", "pixel")
        assert code == 2
        assert "x.rlc" in err


class TestInfo:
    def test_info_text(self, worked_doc, capsys):
        code, stdout, _ = run(capsys, "info", worked_doc)
        assert code == 0
        assert "width: 8" in stdout
        assert "height: 2" in stdout
        assert "density: 0.5" in stdout

    def test_info_json_on_pbm(self, tmp_path, capsys):
        pbm = tmp_path / "img.pbm"
        pbm.write_bytes(b"P1\n3 1\n1 1 0\n")
        code, stdout, _ = run(capsys, "info", pbm, "--json")
        report = json.loads(stdout)
        assert code == 0
        assert report["format"] == "pbm"
        assert report["foreground_pixels"] == 2

    def test_huge_plain_pbm_exits_3_before_allocating(self, tmp_path, capsys):
        # 200000 x 200000 pixels declared in 19 bytes
        pbm = tmp_path / "huge.pbm"
        pbm.write_bytes(b"P1\n200000 200000\n0\n")
        code, stdout, err = run(capsys, "info", pbm)
        assert (code, stdout) == (3, "")
        assert err == "runblock: error: P1 raster is 3 bytes, too short for 40000000000 pixels\n"

    def test_pbm_dimension_beyond_int_digit_limit_exits_3(self, tmp_path, capsys):
        long, padded = tmp_path / "long.pbm", tmp_path / "padded.pbm"
        long.write_bytes(b"P1\n" + b"1" * 5000 + b" 1\n0\n")
        padded.write_bytes(b"P1\n" + b"0" * 5000 + b"1 1\n0\n")
        rect = ["--x1", "1", "--x2", "1", "--y1", "1", "--y2", "1"]
        for argv in (
            ["info", long],
            ["encode", long, tmp_path / "out.rlc"],
            ["extract", long, tmp_path / "out.rlc", *rect],
            ["characterize", long],
        ):
            code, stdout, err = run(capsys, *argv)
            assert (code, stdout) == (3, "")
            assert err.startswith("runblock: error: bad PBM dimensions 1111")
            assert "Traceback" not in err
        code, stdout, _ = run(capsys, "info", padded, "--json")
        assert code == 0
        assert (json.loads(stdout)["width"], json.loads(stdout)["height"]) == (1, 1)

    def test_unknown_format_exits_3(self, tmp_path, capsys):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\x89PNG....")
        code, _, err = run(capsys, "info", junk)
        assert code == 3
        assert "unrecognized" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "runblock" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["extract", "characterize", "evaluate", "info"])
def test_timing_flag_adds_elapsed(worked_doc, tmp_path, capsys, command):
    argv = {
        "extract": [worked_doc, tmp_path / "o.rlc", "--x1", 1, "--x2", 2, "--y1", 3, "--y2", 6],
        "characterize": [worked_doc],
        "evaluate": [worked_doc, worked_doc, "--mode", "pixel"],
        "info": [worked_doc],
    }[command]
    reports = []
    for timing in ([], ["--timing"]):
        code, stdout, _ = run(capsys, command, *argv, "--json", *timing)
        assert code == 0
        reports.append(json.loads(stdout))
    for report in reports:
        assert (report["schema"], report["command"]) == ("runblock-report/1", command)
    assert "elapsed_seconds" not in reports[0]
    assert reports[1]["elapsed_seconds"] >= 0
    del reports[1]["elapsed_seconds"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_stdout_write_error_exits_2(worked_doc, tmp_path, capsys, monkeypatch, extra):
    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    code = main(["info", str(worked_doc), *extra])
    err = capsys.readouterr().err
    assert (code, err) == (2, "runblock: error: [Errno 32] Broken pipe\n")
    # an extract without --json or --trace - prints nothing, so writes nothing
    rect = ["--x1", "1", "--x2", "2", "--y1", "3", "--y2", "6"]
    assert main(["extract", str(worked_doc), str(tmp_path / "o.rlc"), *rect]) == 0
    assert capsys.readouterr().err == ""


def test_closed_stdout_exits_2(worked_doc, tmp_path, capsys, monkeypatch):
    # Python leaves a standard stream that was closed at startup as None
    monkeypatch.setattr(sys, "stdout", None)
    rect = ["--x1", "1", "--x2", "2", "--y1", "3", "--y2", "6"]
    for argv in (
        ["info", str(worked_doc), "--json"],
        ["extract", str(worked_doc), str(tmp_path / "o.rlc"), *rect, "--trace", "-"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == "runblock: error: [Errno 9] Bad file descriptor\n"
    # an extract that prints nothing writes nothing
    assert main(["extract", str(worked_doc), str(tmp_path / "o.rlc"), *rect]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("stderr", [None, "raises"])
def test_unwritable_stderr_keeps_the_exit_code(tmp_path, capsys, monkeypatch, stderr):
    class BadStderr:
        def write(self, text):
            raise OSError(9, "Bad file descriptor")

    monkeypatch.setattr(sys, "stderr", None if stderr is None else BadStderr())
    corrupt = tmp_path / "bad.rlc"
    corrupt.write_bytes(b"RLC1\n4 1\n3\n")
    assert main(["info", str(tmp_path / "missing.rlc")]) == 2
    assert main(["info", str(corrupt)]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError(), "the command needs more memory than is available"),
        (MemoryError("Unable to allocate 256. MiB for an array with shape (268435456,) and data type uint8"),
         "the command needs more memory than is available"
         " (Unable to allocate 256. MiB for an array with shape (268435456,) and data type uint8)"),
    ],
)
def test_memory_error_exits_2_with_one_line(worked_doc, capsys, monkeypatch, error, message):
    def read_rle(data):
        raise error

    monkeypatch.setattr(cli, "read_rle", read_rle)
    assert run(capsys, "info", worked_doc) == (2, "", f"runblock: error: {message}\n")


RUN_MAIN = "import sys, runblock.cli; sys.exit(runblock.cli.main(sys.argv[1:]))"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "fd, command, code, stdout, stderr",
    [
        (1, ["info", "{doc}", "--json"], 2, b"", b"runblock: error: [Errno 9] Bad file descriptor\n"),
        (1, ["extract", "{doc}", "{out}", "--x1", "1", "--x2", "2", "--y1", "3", "--y2", "6"], 0, b"", b""),
        (2, ["info", "{missing}"], 2, b"", b""),
        (2, ["info", "{doc}"], 0, b"format: rlc1\nwidth: 8\nheight: 2\ntotal_runs: 4\nforeground_pixels: 8\ndensity: 0.5\n", b""),
    ],
)
def test_closed_standard_stream_in_a_new_process(worked_doc, tmp_path, fd, command, code, stdout, stderr):
    """The shell closes fd 1 or 2 before the interpreter starts, as `>&-` and
    `2>&-` do."""
    paths = {"doc": worked_doc, "out": tmp_path / "o.rlc", "missing": tmp_path / "missing.rlc"}
    argv = [arg.format(**paths) for arg in command]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    shell = ["sh", "-c", f'"$@" {fd}>&-', "sh", sys.executable, "-c", RUN_MAIN]
    proc = subprocess.run([*shell, *argv], capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)


def test_common_options_before_the_command(worked_doc, tmp_path, capsys):
    # an option given before the command is not reset by the command's defaults
    code, stdout, _ = run(capsys, "--timing", "characterize", worked_doc, "--json")
    assert code == 0
    assert "elapsed_seconds" in json.loads(stdout)


def test_calls_share_one_parser_and_nothing_else(worked_doc, monkeypatch, capsys):
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    reports = []
    for argv in (
        ["--timing", "characterize", worked_doc, "--json", "--log-base", "2"],
        ["info", worked_doc, "--json"],
        ["characterize", worked_doc, "--json"],
        ["info", worked_doc, "--json", "--timing"],
    ):
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        reports.append(json.loads(stdout))
    assert len(builds) == 1
    assert [r["command"] for r in reports] == ["characterize", "info", "characterize", "info"]
    # --timing and --log-base hold for the call that gives them only
    assert ["elapsed_seconds" in r for r in reports] == [True, False, False, True]
    assert [reports[0]["log_base"], reports[2]["log_base"]] == ["2", "e"]


# Every command's argv on a mutated input: {inp} is the mutated file, {orig}
# the unmutated file in the same format, {block} a valid RLC1 block of the
# unmutated page at the rectangle below, and {a}/{b} two directories that hold
# the mutated and the unmutated file under one name.
FUZZ_RECT = ["--x1", "2", "--x2", "5", "--y1", "3", "--y2", "30"]
FUZZ_COMMANDS = [
    ["encode", "{inp}", "{tmp}/out"],
    ["decode", "{inp}", "{tmp}/out"],
    ["extract", "{inp}", "{tmp}/out", *FUZZ_RECT, "--json", "--trace", "-"],
    ["characterize", "{inp}", "--json"],
    ["characterize", "{inp}", "--doc", "{orig}", *FUZZ_RECT],
    ["characterize", "{block}", "--doc", "{inp}", *FUZZ_RECT, "--json"],
    ["evaluate", "{inp}", "{orig}", "--mode", "pixel"],
    ["evaluate", "{inp}", "{orig}", "--mode", "compressed", "--json"],
    ["evaluate", "{a}", "{b}", "--mode", "pixel", "--jobs", "2"],
    ["evaluate", "{a}", "{b}", "--mode", "compressed"],
    ["info", "{inp}"],
    ["info", "{inp}", "--json"],
]
FUZZ_PAGE = text_like_doc(np.random.default_rng(55), 6, 40)
FUZZ_SOURCES = {
    "rlc1": write_rle(FUZZ_PAGE),
    "p1": write_pbm(decode_image(FUZZ_PAGE), plain=True),
    "p4": write_pbm(decode_image(FUZZ_PAGE)),
}
FUZZ_BLOCK = write_rle(extract_block(FUZZ_PAGE, BlockSpec(2, 5, 3, 30)))
# "digits" is one past int()'s default limit of 4300 digits, so that a
# field it lands in cannot be read with a plain int()
FUZZ_INSERTS = {"space": b" ", "newline": b"\n", "comment": b"# c\n", "digits": b"1" * 4301}


def mutate(data: bytes, edits) -> bytes:
    """Apply bit flips, truncations, appended bytes and inserted digits,
    spaces, newlines, comments and runs of digits, in order."""
    out = bytearray(data)
    for kind, where, extra in edits:
        if kind == "flip":
            if out:
                bit = where % (8 * len(out))
                out[bit // 8] ^= 0x80 >> bit % 8
        elif kind == "truncate":
            del out[where % (len(out) + 1) :]
        elif kind == "append":
            out += extra
        else:
            at = where % (len(out) + 1)
            out[at:at] = b"%d" % (extra[0] % 10) if kind == "digit" else FUZZ_INSERTS[kind]
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(
    source=st.sampled_from(sorted(FUZZ_SOURCES)),
    command=st.sampled_from(FUZZ_COMMANDS),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["flip", "truncate", "append", "digit", *FUZZ_INSERTS]),
            st.integers(0, 2**16),
            st.binary(min_size=1, max_size=4),
        ),
        min_size=1,
        max_size=3,
    ),
)
# a PBM width field of 4303 digits
@example(source="p1", command=["info", "{inp}"], edits=[("digits", 3, b"\0")])
def test_mutated_input_exit_codes_every_command(source, command, edits):
    """Every command on mutated RLC1, P1 and P4 input ends in an exit code of
    the contract with a diagnostic, never in a traceback."""
    original = FUZZ_SOURCES[source]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in ("inp", "orig", "block", "a", "b")}
        paths["inp"].write_bytes(mutate(original, edits))
        paths["orig"].write_bytes(original)
        paths["block"].write_bytes(FUZZ_BLOCK)
        for name in ("a", "b"):
            paths[name].mkdir()
        (paths["a"] / "page").write_bytes(paths["inp"].read_bytes())
        (paths["b"] / "page").write_bytes(original)
        argv = [arg.format(tmp=tmp, **paths) for arg in command]
        code, err = run_quiet(argv)
    assert_clean_exit(code, err)
