"""`tools/untested.py` lists the lines inside functions that a traced run
did not execute."""

import importlib.util
import threading
from pathlib import Path

UNTESTED = Path(__file__).resolve().parent.parent / "tools" / "untested.py"

SOURCE = '''"""A module docstring."""

LIMIT = 3


class Box:
    size = LIMIT

    def grow(self, by):
        """Grow the box."""
        if by > LIMIT:
            raise ValueError(by)
        self.size += by
        return [n for n in range(by)]


def unused():
    return 0


def on_a_thread(box):
    box.grow(2)
'''


def load_untested():
    spec = importlib.util.spec_from_file_location("untested", UNTESTED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_the_lines_no_call_executed(tmp_path):
    tool = load_untested()
    path = tmp_path / "box.py"
    path.write_text(SOURCE)
    namespace = {}
    exec(compile(SOURCE, str(path), "exec"), namespace)

    def calls():
        namespace["Box"]().grow(1)
        # a thread started under the tracer is traced too
        thread = threading.Thread(target=namespace["on_a_thread"], args=(namespace["Box"](),))
        thread.start()
        thread.join()

    tracer = tool.Tracer(tmp_path)
    tracer.run(calls)
    # module-level and class-body lines are left out, and so are docstrings
    assert tool.untested(path, tracer.executed[str(path)]) == [
        (12, "raise ValueError(by)"),
        (17, "def unused():"),
        (18, "return 0"),
    ]
    # nothing outside the root is recorded
    assert list(tracer.executed) == [str(path)]
