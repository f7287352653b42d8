"""Count the lines of code of the ``ifgame`` package.

A line of code is a line of ``src/ifgame/*.py`` that holds a token other
than a comment or a docstring: blank lines, comment lines and docstring
lines are not counted, and a statement or string literal spread over
several lines counts each of them.  Prints the count of the checkout's
own package; run it at two commits to compare them:

    python3 tools/code_lines.py
    python3 tools/code_lines.py --repo ../parent

Only the standard library is used, and the package is not imported.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

#: tokens that are not code
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstrings(tree):
    """The (start, end) positions of the module, class and function
    docstrings of ``tree``, as tokenize reports a string's position."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, False):
            doc = node.body[0]
            yield ((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset))


def code_lines(source):
    """The number of lines of ``source`` that hold code."""
    spans = list(docstrings(ast.parse(source)))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and any(
                start <= tok.start and tok.end <= end for start, end in spans)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to count (default: this one)")
    args = parser.parse_args(argv)
    package = args.repo.resolve() / "src" / "ifgame"
    print(sum(code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))))


if __name__ == "__main__":
    main()
