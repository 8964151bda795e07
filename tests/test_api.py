"""The package's code surface: every function it defines has a caller."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcpsim"
# where a use of a package function may live
SEARCHED = ("src", "tests", "demos", "perfbench")


def _defined_functions() -> set[str]:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    names.add(node.name)
    return names


def test_no_unused_functions():
    text = "\n".join(path.read_text()
                     for top in SEARCHED
                     for path in sorted((ROOT / top).rglob("*.py")))
    unused = []
    for name in sorted(_defined_functions()):
        mentions = len(re.findall(rf"\b{name}\b", text))
        defs = len(re.findall(rf"\bdef\s+{name}\b", text))
        if mentions <= defs:
            unused.append(name)
    assert unused == []
