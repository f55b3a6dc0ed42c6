"""Count the code lines of ``src/finedating``: lines that hold a token
other than a comment, less the lines of module, class and function
docstrings.

    python tools/count_code_lines.py [checkout]

prints the total for the checkout (default: the one holding this file)
and, with ``--per-file``, each module's count.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER)
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    src = path.read_text()
    doc = set()
    for node in ast.walk(ast.parse(src)):
        if (isinstance(node, _DOCUMENTED) and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


def main(argv: list[str]) -> None:
    per_file = "--per-file" in argv
    args = [a for a in argv if a != "--per-file"]
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    counts = {p.name: code_lines(p) for p in sorted(root.glob("src/finedating/*.py"))}
    if per_file:
        for name, count in counts.items():
            print(f"{count:6d} {name}")
    print(sum(counts.values()))


if __name__ == "__main__":
    main(sys.argv[1:])
