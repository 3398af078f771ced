"""``tools/sloc.py``, the line count of the package, on sources of known count."""

import importlib.util
from pathlib import Path

SLOC = Path(__file__).parents[1] / "tools" / "sloc.py"

# 7 code lines: the import, the three headers, x = 1, the second string and the return
FIRST = '''"""A module docstring
over two lines."""

# a comment line
import os  # code with a trailing comment


class A:
    """A one-line class docstring."""

    x = 1
    "a string statement after the first counts"


def f():
    """A function docstring
    over three
    lines."""
    # an indented comment
    return os.sep


async def g():
    """A one-line async docstring."""
'''

# 4 code lines: the three headers and the second string
SECOND = '''"""A one-line module docstring."""


class B:
    """A class docstring
    over two lines."""


async def h():
    """An async docstring
    over two lines."""
    "a string statement after the first counts"


def k():
    """A one-line function docstring."""
'''


def _sloc():
    spec = importlib.util.spec_from_file_location("sloc", SLOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sloc_counts_code_lines_and_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    sloc = _sloc()
    (tmp_path / "first.py").write_text(FIRST)
    (tmp_path / "second.py").write_text(SECOND)
    assert sloc.count(tmp_path / "first.py") == 7
    assert sloc.count(tmp_path / "second.py") == 4
    sloc.main([str(tmp_path)])
    assert capsys.readouterr().out == "     7  first.py\n     4  second.py\n    11  total\n"
