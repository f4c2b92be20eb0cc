#!/usr/bin/env python3
"""Code lines per Python module, by AST count, without docstrings or comments.

    python3 scripts/code_lines.py                 # src/divknn
    python3 scripts/code_lines.py src/divknn/knn.py tests

A code line is a line that holds part of a token other than a comment,
a newline or an indent, and not only the docstring of a module, class
or function: blank lines, comment lines and docstrings do not count,
and a statement or expression over several lines counts each of its
lines. Each path is a module or a directory, whose ``*.py`` files are
counted in sorted order, not recursively. One line per module, its
count and path, then the total. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT = ROOT / "src" / "divknn"

_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER)


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions, as (line, column), of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count_code_lines(source: str) -> int:
    """The code lines of one module's source."""
    docstrings = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(a <= tok.start < b for a, b in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def modules(paths) -> list[Path]:
    """The modules that paths name, directories expanded to their *.py files."""
    found = []
    for path in map(Path, paths):
        found.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return found


def _shown(path: Path) -> Path:
    """path relative to the working directory where it lies below it."""
    try:
        return path.resolve().relative_to(Path.cwd())
    except ValueError:
        return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[str(DEFAULT)],
                        help="modules or directories (default: src/divknn)")
    args = parser.parse_args(argv)
    total = 0
    for module in modules(args.paths):
        n = count_code_lines(module.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {_shown(module)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
