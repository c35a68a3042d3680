"""Count the lines of a Python package, and those that hold code.

A code line holds at least one token that is neither a comment nor part
of a docstring: a string that stands alone as a statement.  Blank lines,
comments and docstrings are not code.

    python tools/code_lines.py [DIR]    # DIR defaults to src/rankstop

prints the lines and code lines of every .py file under DIR, then the
totals.
"""

import argparse
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    code = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING and (i == 0 or tokens[i - 1].type in _LAYOUT)
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue  # a docstring
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default="src/rankstop")
    args = parser.parse_args(argv)
    total = [0, 0]
    for path in sorted(Path(args.dir).rglob("*.py")):
        lines, code = count(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{lines:6,} {code:6,}  {path}")
    print(f"{total[0]:6,} {total[1]:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
