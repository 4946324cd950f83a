"""The exit-code contract under a memory limit: each command runs in a new
process whose address space is capped near 200 MiB, on small hostile
files, and must exit with its specific code and one diagnostic line."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Address space of the child: room for the interpreter, numpy and a tiny
# page, and well below what the hostile files would take if mishandled.
LIMIT = 200 << 20


def limited_run(*argv, cwd):
    """Exit code and stderr of `python -m runblock.cli argv` in a process
    limited to LIMIT bytes of address space."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))

    # one BLAS thread: each would reserve its own stack in the address space
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "runblock.cli", *map(str, argv)],
        capture_output=True, env=env, cwd=cwd, preexec_fn=limit, timeout=120,
    )
    return proc.returncode, proc.stderr.decode("ascii", errors="replace")


LONG_ROW = b"RLC1\n4000000 1\n0" + b" 1" * 3999999 + b" x\n"

CASES = {
    "rlc1_rows_past_the_height": (
        ["info", "in"], b"RLC1\n8 1\n" + b"8\n" * 2_000_000, 3, "got 2000000 run rows, expected 1",
    ),
    "p1_body_past_the_raster": (
        ["info", "in"], b"P1\n8 1\n" + b"0" * 4_000_000, 3, "trailing pixels after P1 raster",
    ),
    "p4_page_over_a_short_body": (
        ["info", "in"], b"P4\n16384 16384\n" + bytes(10), 3, "P4 payload is 10 bytes, expected 33554432",
    ),
    "long_row_ending_in_a_bad_token": (
        ["info", "in"], LONG_ROW, 3, "row 1: non-numeric run token in '0 1 1 1",
    ),
    "page_within_the_budget_past_the_memory": (
        ["decode", "in", "out.pbm"], b"RLC1\n268435456 1\n268435456\n", 2,
        "the command needs more memory than is available (Unable to allocate",
    ),
    "mh_zeros_seeking_an_end_of_line_code": (
        ["decode", "in", "out.pbm", "--width", "8", "--height", "1", "--eol", "required"], bytes(512 << 10), 3,
        "stream ended while seeking the end-of-line code of row 1",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exit_code_under_a_memory_limit(tmp_path, case):
    argv, data, code, message = CASES[case]
    (tmp_path / "in").write_bytes(data)
    got, stderr = limited_run(*argv, cwd=tmp_path)
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("runblock: error: "), stderr[:2000]
    assert message in lines[0]
    assert got == code
    # an echo of input is bounded, however long the input
    assert len(lines[0]) < 1200
    assert not (tmp_path / "out.pbm").exists()
