"""Count code lines: lines that carry a code token.

Comments, blank lines and docstrings do not count; every other line a
token touches does (a multi-line expression counts each of its lines,
and a multi-line string that is not a docstring counts each line it
spans).  A docstring is a string literal standing alone as a statement.
This is the measure behind the "code lines" cited in CHANGES.md.

    python benchmarks/code_lines.py [PATH ...]   # default: src

Prints one count per ``.py`` file and a total per argument.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: Tokens that never make a line count.
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
#: Tokens after which a string literal starts a statement.
STATEMENT_START = {
    tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that carry a code token."""
    with path.open("rb") as fh:
        tokens = [
            t for t in tokenize.tokenize(fh.readline)
            if t.type not in (tokenize.COMMENT, tokenize.NL)
        ]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        if (
            tok.type == tokenize.STRING
            and tokens[i - 1].type in STATEMENT_START
            and tokens[i + 1].type == tokenize.NEWLINE
        ):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    for root in map(Path, argv or ["src"]):
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        total = 0
        for path in files:
            count = code_lines(path)
            total += count
            print(f"{count:7d}  {path}")
        print(f"{total:7d}  total {root}")


if __name__ == "__main__":
    main(sys.argv[1:])
