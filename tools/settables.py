"""Count the settable values of `src/coalitions`: its options, file by file.

    python3 tools/settables.py

A settable value is a `def` parameter with a default, a defaulted field of
a dataclass or a NamedTuple (each field of a config object is a value a
caller may set), or a `--` flag that an `add_argument` call defines.  Flags
are counted where they are written, so a flag that a helper adds to two
subcommands counts once.  Every
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


def _is_record(node: ast.ClassDef) -> bool:
    """Whether a class is a dataclass (`@dataclass` or `@dataclass(...)`) or
    a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
        isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases
    )


def settables(tree: ast.AST) -> tuple[int, int, int]:
    """`(defaulted def parameters, defaulted record fields, -- flags)` in a
    parsed module."""
    params = fields = flags = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params += len(node.args.defaults)
            params += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_record(node):
            fields += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None for stmt in node.body
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            flags += any(
                isinstance(a, ast.Constant) and isinstance(a.value, str) and a.value.startswith("--")
                for a in node.args
            )
    return params, fields, flags


def main() -> int:
    total = total_fields = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in SKIPPED:
            continue
        counts = settables(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        params, fields, flags = counts
        if any(counts):
            print(
                f"{path.relative_to(ROOT)}: {sum(counts)} "
                f"({params} parameters, {fields} fields, {flags} flags)"
            )
        total += sum(counts)
        total_fields += fields
    print(f"total: {total} ({total_fields} fields)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
