"""Lines of the package that no test executes.

Usage, from the root of a checkout:

    python3 tools/untested.py [pytest arguments]

Runs the test suite (tier-1 by default) in this process under
`sys.settrace` and `threading.settrace`, tracing only the frames of modules
under `src/runblock`, and then prints every line inside a function that no
test executed, as `path:line: source`. Hypothesis runs with seed 0, so
that the property tests draw the same examples and two runs list the same
lines. It needs only the standard library, pytest and Hypothesis. Tracing
makes the suite about two and a half times slower.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "runblock"


class Tracer:
    """Records the lines executed in the files under `root`, by file."""

    def __init__(self, root: Path):
        self.root = os.path.abspath(root) + os.sep
        self.executed: dict[str, set[int]] = {}
        self._lines: dict[str, set[int] | None] = {}  # by co_filename; None outside `root`

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._lines:
            path = os.path.abspath(filename)
            self._lines[filename] = self.executed.setdefault(path, set()) if path.startswith(self.root) else None
        lines = self._lines[filename]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def run(self, func, *args):
        """Call `func(*args)` traced, on this thread and on the threads it
        starts, and then restore the tracers that were set before."""
        before = sys.gettrace(), threading.gettrace()
        sys.settrace(self._call)
        threading.settrace(self._call)
        try:
            return func(*args)
        finally:
            sys.settrace(before[0])
            threading.settrace(before[1])


def function_lines(code: CodeType) -> set[int]:
    """The lines of every function compiled into `code`, nested ones too."""
    lines = set()
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                lines.update(line for *_, line in const.co_lines() if line is not None)
            lines |= function_lines(const)
    return lines


def untested(path: Path, executed: set[int]) -> list[tuple[int, str]]:
    """(line, source) of every line inside a function of `path` that is not
    in `executed`."""
    source = Path(path).read_text()
    text = source.splitlines()
    missed = function_lines(compile(source, str(path), "exec")) - executed
    return [(n, text[n - 1].strip()) for n in sorted(missed)]


def main(argv: list[str]) -> int:
    import pytest

    tracer = Tracer(PACKAGE)
    status = tracer.run(pytest.main, ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *argv])
    for path in sorted(PACKAGE.rglob("*.py")):
        for line, text in untested(path, tracer.executed.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
