#!/usr/bin/env python
"""Count code lines: the size measure the changes to this repo report.

A code line is a physical line that holds at least one token other than a
comment, a docstring, or the layout tokens (newlines, indentation).  A
docstring is a string statement on its own — the body of a module, class
or function opening with a string, and any other bare string statement,
which is inert the same way.  A multi-line string that is code counts all
its lines.  Directories are searched for ``*.py`` files recursively::

    python scripts/loc.py src/repro/semantics src/repro/engine/compile.py

prints one ``<lines>  <path>`` row per file, then the total.  Standard
library only.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path
from typing import Iterator, List

#: Tokens that never make a line a code line.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    statement: List[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            statement.append(token)
        elif token.type == tokenize.NEWLINE and statement:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def python_files(paths: List[str]) -> Iterator[Path]:
    """The ``*.py`` files named by ``paths``, directories searched, sorted."""
    for name in paths:
        path = Path(name)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: python scripts/loc.py PATH [PATH ...]", file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
