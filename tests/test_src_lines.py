"""The code-line count of tools/src_lines.py."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).parent.parent / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide code


class Box:
    """Class docstring."""

    # a comment line
    size = 1

    def get(self):
        """One-line function docstring."""
        return self.size


async def fetch(path):
    """Async function docstring,

    with a blank line inside."""
    total = (len(path)
             + 1)
    """A string that is not first is no docstring."""
    return total
'''


def test_code_lines_counts_only_code():
    # import, class, size, def, return, async def, the two lines of
    # total, the late string, return: docstrings, comments and blank
    # lines are not code
    assert src_lines.code_lines(SOURCE) == 10


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    # any directory, as CI gives it tests/: one line per module under it,
    # nested ones by their relative path, then the total
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    src_lines.main(["src_lines.py", str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "   10 a.py", "    2 pkg/b.py", "   12 total"]
