import json

import numpy as np
import pytest

from runblock import (
    CompressedDoc,
    decode_image,
    mh_encode_image,
    read_pbm,
    read_rle,
    write_pbm,
    write_rle,
)
from runblock.cli import main

from helpers import random_grid, text_like_doc


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
        assert code == 2
        assert "--width" in err

    def test_decode_partial_mh_flags_name_missing(self, tmp_path, capsys):
        raw = tmp_path / "img.mh"
        raw.write_bytes(b"\x0c")
        code, _, err = run(capsys, "decode", raw, tmp_path / "o.pbm", "--width", 8)
        assert code == 2
        assert "--height" in err and "--eol" in err and "--width" not in err

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

    def test_corrupt_rlc_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.rlc"
        bad.write_bytes(b"RLC1\n8 1\n3 3\n")
        code, _, err = run(capsys, "decode", bad, tmp_path / "o.pbm")
        assert code == 3
        assert "row 1" in err

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
        assert report["counters"]["runs_visited"] == 4
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

    def test_text_output(self, worked_doc, capsys):
        code, stdout, _ = run(capsys, "characterize", worked_doc)
        assert code == 0
        assert stdout.startswith("absolute")
        assert "density=" in stdout

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


def test_timing_flag_adds_elapsed(worked_doc, capsys):
    code, stdout, _ = run(capsys, "characterize", worked_doc, "--json", "--timing")
    assert code == 0
    assert "elapsed_seconds" in json.loads(stdout)
