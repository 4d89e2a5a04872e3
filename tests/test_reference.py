"""Static gate on the test oracles: one copy of each, none that calls qtrunc."""

import ast
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).parent


def test_reference_is_independent_and_no_test_function_is_written_twice():
    tree = ast.parse((TESTS / "reference.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported if name.split(".")[0] == "qtrunc"] == []
    defined = defaultdict(list)
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[node.name].append(path.name)
    assert {name: files for name, files in defined.items() if len(files) > 1} == {}
