"""`tools/loc.py` counts the code lines of a module: every line that holds a
token other than a comment, leaving out blank lines and docstrings."""

import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code

# a comment line
def join(first,
         second):
    """A function docstring."""
    text = """a string that is
not a docstring"""
    return (first +
            second + text)
'''


def load_loc():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import, the two lines of the signature, the two of the string
    # assignment and the two of the return
    assert load_loc().code_lines(SOURCE) == 7
    assert load_loc().code_lines("") == 0
