"""Count the settable values of `src/coalitions`: its options, file by file.

    python3 tools/settables.py

A settable value is a `def` parameter with a default, or a `--` flag that
an `add_argument` call defines.  Flags are counted where they are written,
so a flag that a helper adds to two subcommands counts once.  Every
`src/coalitions/*.py` file is read except `oracle_stub.py`, the plugin the
tests start as a child process, whose options are not the engine's.  Prints
the count per file that has any, then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coalitions"
SKIPPED = ("oracle_stub.py",)


def settables(tree: ast.AST) -> tuple[int, int]:
    """`(defaulted def parameters, -- flags)` in a parsed module."""
    params = flags = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params += len(node.args.defaults)
            params += sum(d is not None for d in node.args.kw_defaults)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            flags += any(
                isinstance(a, ast.Constant) and isinstance(a.value, str) and a.value.startswith("--")
                for a in node.args
            )
    return params, flags


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in SKIPPED:
            continue
        params, flags = settables(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if params or flags:
            print(f"{path.relative_to(ROOT)}: {params + flags} ({params} parameters, {flags} flags)")
        total += params + flags
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
