"""Byte-identity gate: every command's output against committed golden files.

`golden/text.rlc` (a seeded 30 x 200 text page) and `golden/fax.rlc` (a
seeded 16 x 1728 page in T.4 fax geometry) are the inputs. Each test run
derives their P4, P1 and MH forms, runs every command on them, and compares
exit codes, stdout and stderr verbatim, and every file written (RLC1, PBM,
trace tables) and every derived input by SHA-256, with `golden/outputs.json`.
The `runs_visited` counter of `extract --json` is left out of the verbatim
comparison; it is checked against a scalar binary-search count instead.

Regenerate the golden files, only when an output change is intended, with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

from runblock import BlockSpec, decode_image, mh_encode_image, read_rle, write_pbm
from runblock.cli import main

GOLDEN = Path(__file__).with_name("golden")
VISITED = re.compile(r'"runs_visited": (\d+)')

# (x1, x2, y1, y2) per page: random blocks, the full page, a column, a row
BLOCKS = {
    "text": [(3, 17, 21, 140), (12, 12, 1, 200), (1, 30, 77, 77), (5, 29, 150, 200), (1, 30, 1, 200)],
    "fax": [(2, 9, 230, 1490), (1, 16, 1, 1728), (7, 7, 1, 1728), (1, 16, 864, 864), (4, 14, 1, 300)],
}
SHAPES = {"text": (200, 30), "fax": (1728, 16)}


def _rect(block) -> list[str]:
    return [part for k, v in zip(("x1", "x2", "y1", "y2"), block) for part in (f"--{k}", str(v))]


def write_inputs(tmp: Path) -> None:
    """Derive every input of the command list from the two RLC1 pages."""
    for page in SHAPES:
        data = (GOLDEN / f"{page}.rlc").read_bytes()
        grid = decode_image(read_rle(data))
        (tmp / f"{page}.rlc").write_bytes(data)
        (tmp / f"{page}.p4").write_bytes(write_pbm(grid))
        (tmp / f"{page}.p1").write_bytes(write_pbm(grid, plain=True))
        doc = read_rle(data)
        for eol, align in ((True, True), (False, False), (False, True)):
            name = f"{page}.{'eol' if eol else 'bare'}{'-align' if align else ''}.mh"
            (tmp / name).write_bytes(mh_encode_image(doc, eol=eol, byte_align=align))
    (tmp / "junk.bin").write_bytes(b"\x89PNG....")
    for side in ("a", "b"):
        (tmp / side).mkdir()


def commands() -> list[list[str]]:
    """Every command in order. Paths start with "@"; later commands read
    files that earlier ones wrote."""
    cmds = []
    for page, (width, height) in SHAPES.items():
        for fmt in ("rlc", "p4", "p1"):
            src = f"@{page}.{fmt}"
            # every block from RLC1, two from each PBM form
            for k, block in enumerate(BLOCKS[page][: 5 if fmt == "rlc" else 2]):
                out = f"{src}.b{k}.rlc"
                rect = _rect(block)
                cmds.append(["extract", src, out, *rect, "--trace", "-", "--json"])
                cmds.append(["characterize", out])
                cmds.append(["characterize", out, "--json", "--log-base", "2"])
                base = ("e", "2", "10")[k % 3]
                cmds.append(["characterize", out, "--doc", src, *rect, "--json", "--log-base", base])
                cmds.append(["characterize", out, "--doc", src, *rect, "--log-base", "10"])
                cmds.append(["extract", src, f"{out}.pbm", *rect, "--trace", f"{out}.trace",
                             "--decode-output"])
            cmds.append(["info", src])
            cmds.append(["info", src, "--json"])
            for mode in ("pixel", "compressed"):
                cmds.append(["evaluate", f"{src}.b0.rlc", f"{src}.b0.rlc", "--mode", mode])
                cmds.append(["evaluate", src, f"@{page}.rlc", "--mode", mode, "--json"])
            cmds.append(["extract", src, "@o.rlc", *_rect((1, height + 1, 1, 2))])
            cmds.append(["extract", src, "@o.rlc", *_rect((1, 1, 1, width + 1))])
            # the block of one rectangle against the rectangle one row lower
            x1, x2, y1, y2 = BLOCKS[page][0]
            cmds.append(["characterize", f"{src}.b0.rlc", "--doc", src, *_rect((x1 + 1, x2 + 1, y1, y2))])
        cmds.append(["decode", f"@{page}.rlc", f"@{page}.dec.pbm"])
        cmds.append(["decode", f"@{page}.rlc", f"@{page}.dec.p1", "--plain"])
        for fmt in ("p4", "p1"):
            cmds.append(["encode", f"@{page}.{fmt}", f"@{page}.{fmt}.enc.rlc"])
        dims = ["--width", str(width), "--height", str(height)]
        cmds.append(["decode", f"@{page}.eol-align.mh", f"@{page}.eol.pbm", *dims,
                     "--eol", "required", "--byte-align"])
        cmds.append(["decode", f"@{page}.bare.mh", f"@{page}.bare.pbm", *dims, "--eol", "forbidden"])
        cmds.append(["decode", f"@{page}.bare-align.mh", f"@{page}.bare-align.p1", *dims,
                     "--eol", "forbidden", "--byte-align", "--plain"])
        cmds.append(["decode", f"@{page}.eol-align.mh", "@o.pbm", *dims, "--eol", "forbidden"])
        cmds.append(["decode", f"@{page}.p4", "@o.pbm"])
        cmds.append(["encode", f"@{page}.rlc", "@o.rlc"])
    # three pairs of equal size; the middle block is cut one row lower
    for k in range(3):
        cmds.append(["extract", "@text.rlc", f"@a/block{k}.rlc", *_rect((3 + k + (k == 1), 17 + k + (k == 1), 1, 120))])
        cmds.append(["extract", "@text.rlc", f"@b/block{k}.rlc", *_rect((3 + k, 17 + k, 1, 120))])
    for mode in ("pixel", "compressed"):
        cmds.append(["evaluate", "@a", "@b", "--mode", mode])
        cmds.append(["evaluate", "@a", "@b", "--mode", mode, "--json", "--jobs", "2"])
    cmds.append(["info", "@junk.bin"])
    cmds.append(["decode", "@junk.bin", "@o.pbm"])
    cmds.append(["extract", "@junk.bin", "@o.rlc", *_rect((1, 1, 1, 1))])
    cmds.append(["evaluate", "@a", "@text.rlc", "--mode", "pixel"])
    return cmds


def _digests(tmp: Path) -> dict:
    return {
        str(p.relative_to(tmp)): hashlib.sha256(p.read_bytes()).hexdigest()[:20]
        for p in sorted(tmp.rglob("*"))
        if p.is_file()
    }


def run_all(tmp: Path) -> list[dict]:
    """Run every command in `tmp`; one record per command."""
    write_inputs(tmp)
    records = [{"inputs": _digests(tmp)}]
    for argv in commands():
        before = _digests(tmp)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(tmp / a[1:]) if a.startswith("@") else a for a in argv])
        # a file rewritten with the same bytes is not listed
        files = {p: d for p, d in _digests(tmp).items() if before.get(p) != d}
        records.append({
            "argv": argv,
            "code": code,
            "stdout": out.getvalue().replace(str(tmp), "{tmp}"),
            "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
            "files": files,
        })
    return records


def _mask_visits(stdout: str) -> str:
    return VISITED.sub('"runs_visited": null', stdout)


def test_every_command_matches_golden(tmp_path):
    from test_extract import reference_visits

    golden = json.loads((GOLDEN / "outputs.json").read_text())
    got = run_all(tmp_path)
    assert got[0] == golden[0], "derived inputs differ"
    assert len(got) == len(golden)
    for have, want in zip(got[1:], golden[1:]):
        assert have["argv"] == want["argv"]
        argv = have["argv"]
        if argv[0] == "extract" and "--json" in argv and have["code"] == 0:
            x1, x2, y1, y2 = (int(argv[argv.index(f"--{k}") + 1]) for k in ("x1", "x2", "y1", "y2"))
            page = read_rle((GOLDEN / f"{argv[1][1:].split('.')[0]}.rlc").read_bytes())
            visits = int(VISITED.search(have["stdout"]).group(1))
            assert visits == reference_visits(page, BlockSpec(x1, x2, y1, y2)), argv
        have = dict(have, stdout=_mask_visits(have["stdout"]))
        assert have == dict(want, stdout=_mask_visits(want["stdout"])), argv


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = run_all(Path(tmp))
    for record in records[1:]:
        record["stdout"] = _mask_visits(record["stdout"])
    (GOLDEN / "outputs.json").write_text(json.dumps(records, indent=0) + "\n")
    sys.stdout.write(f"{len(records) - 1} commands written to {GOLDEN / 'outputs.json'}\n")
