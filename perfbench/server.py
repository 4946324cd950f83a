"""The measured process: replays one workload's requests through
`runblock.cli.main`, in-process and closed-loop.

Usage: python3 perfbench/server.py SPEC RESULT

SPEC is a JSON file written by run.py. The process makes one untimed
warm-up pass over the request list, then replays whole rounds of it until
the measuring time is over, and writes per-request durations, exit codes,
the last round's standard output and its own peak resident memory to
RESULT. With tracing on it wraps runblock's layers first and adds their
per-layer figures.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path


def serve(main, argv: list[str]) -> tuple[int, float, str, str]:
    """One CLI request: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed request, not a dead benchmark
            code = 1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def retained_mib(path: str) -> float:
    """Memory held by one page parsed into a CompressedDoc."""
    from runblock.core import encode_image
    from runblock.formats import read_pbm, read_rle

    data = Path(path).read_bytes()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        doc = encode_image(read_pbm(data)) if data[:2] == b"P4" else read_rle(data)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del doc
    return held / 2**20


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    requests = spec["requests"]
    import runblock.cli as cli

    warm = [serve(cli.main, argv) for argv in requests]
    tracer = None
    layers = {}
    if spec["trace"]:
        from tracer import Tracer

        layers["formats.doc_retained_mb"] = (retained_mib(spec["main_page"]), "MiB")
        tracer = Tracer()
        tracer.install()

    durations: list[list[float]] = [[] for _ in requests]
    codes = [0] * len(requests)
    stdout = [""] * len(requests)
    stderr = [""] * len(requests)
    changed = set()
    failed = rounds = 0
    deadline = time.perf_counter() + spec["seconds"]
    while rounds == 0 or time.perf_counter() < deadline:
        for i, argv in enumerate(requests):
            gc.collect()
            if tracer is not None:
                tracer.begin_request()
            codes[i], elapsed, stdout[i], stderr[i] = serve(cli.main, argv)
            if tracer is not None:
                tracer.end_request()
            durations[i].append(elapsed)
            failed += codes[i] != 0
            if stdout[i] != warm[i][2]:
                changed.add(i)
        rounds += 1
        if tracer is not None:
            tracer.end_round()
    if tracer is not None:
        tracer.uninstall()
        layers.update(tracer.layer_metrics())

    result = {
        "rounds": rounds,
        "failed": failed,
        "durations": durations,
        "codes": codes,
        "stdout": stdout,
        "stderr": stderr,
        "changed": sorted(changed),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
