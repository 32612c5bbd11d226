#!/usr/bin/env python3
"""Count the lines of the package source: net lines and code lines.

* **net** -- every line of every ``.py`` file (what ``wc -l`` reports).
* **code** -- lines holding code: blank lines, comment-only lines and
  docstrings (module, class and function) do not count.  A line that
  carries code and a trailing comment counts once.

It prints both totals, then the five largest modules by net lines
with their net and code lines.

Usage (from the repository root; the directory defaults to ``src``)::

    python scripts/src_lines.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import List, Tuple

_SKIPPED = (
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
)
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) where each docstring token starts."""
    starts = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(source: str) -> Tuple[int, int]:
    """(net lines, code lines) of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


#: How many of the largest modules ``main`` lists.
LARGEST = 5


def tally(root: Path) -> List[Tuple[str, int, int]]:
    """(path relative to ``root``, net lines, code lines) per module."""
    return [
        (path.relative_to(root).as_posix(), *count(path.read_text(encoding="utf-8")))
        for path in sorted(root.rglob("*.py"))
    ]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src")
    modules = tally(root)
    print(f"files : {len(modules)} under {root}")
    print(f"net   : {sum(net for _, net, _ in modules)} lines")
    print(
        f"code  : {sum(code for _, _, code in modules)} lines "
        "(no blanks, comments or docstrings)"
    )
    print(f"largest {LARGEST} (net / code lines):")
    for path, net, code in sorted(modules, key=lambda m: -m[1])[:LARGEST]:
        print(f"  {net:6d} / {code:5d}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
