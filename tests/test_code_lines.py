"""scripts/code_lines.py: which lines of a module count as code."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

_SNIPPET = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    # a comment line
    import math  # a trailing comment


    class Box:
        """Class docstring."""

        size = 3

        def area(self):
            """Function docstring,

            with a blank line.
            """
            # the area
            return (self.size
                    * math.pi)


    def f():
        return 1


    values = [
        1,  # one
        2,
    ]
    text = """not a docstring,
    since it is assigned"""
''')

# import, class, size, def area, the two lines of its return, def f, its
# return, the four lines of values and the two of text
_SNIPPET_LINES = 14


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_do_not_count(code_lines):
    assert code_lines.count_code_lines(_SNIPPET) == _SNIPPET_LINES


def test_a_one_line_def_with_a_docstring_counts_its_code(code_lines):
    assert code_lines.count_code_lines('def f(): "doc"\n') == 1
    assert code_lines.count_code_lines('def f():\n    "doc"\n    return 2\n') == 2
    assert code_lines.count_code_lines("") == 0


def test_main_prints_each_module_and_the_total(code_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path), str(tmp_path / "b.py")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [int(n) for n, _ in rows] == [_SNIPPET_LINES, 2, 2, _SNIPPET_LINES + 4]
    assert [Path(p).name for _, p in rows[:3]] == ["a.py", "b.py", "b.py"]
    assert rows[-1][1] == "total"
