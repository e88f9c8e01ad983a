"""``tools/code_lines.py``, the code-line count of the package, on a fixed snippet."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code: counts


# a comment line: does not count
class Thing:
    """Class docstring."""

    size = 3

    def method(self):
        """Method docstring,
        over two lines."""
        "a string expression after the docstring: counts"
        return os.sep


def function(
    x,
):
    """Function docstring."""
    text = """a string value
over two lines: both count"""
    return x, text
'''

# import, class, size, def method, the string expression, return,
# def function, x, ), the two lines of text, return
SNIPPET_CODE_LINES = 12


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    assert code_lines.code_lines(SNIPPET) == SNIPPET_CODE_LINES


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(SNIPPET, encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"{SNIPPET_CODE_LINES:6d}  {tmp_path / 'a.py'}",
        f"{SNIPPET_CODE_LINES:6d}  {tmp_path / 'b.py'}",
        f"{2 * SNIPPET_CODE_LINES:6d}  total",
    ]
