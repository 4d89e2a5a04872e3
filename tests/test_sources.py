"""Static gates on the repository's own files: every Python file parses as
Python 3.10, the oldest version pyproject.toml admits, README's worked
example of the library runs, and the Kronecker slot format stays private to
qseries."""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_every_python_file_parses_as_python_3_10():
    paths = sorted(path for folder in ("src", "tests", "bench")
                   for path in (ROOT / folder).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_readme_library_example_runs():
    """The first fenced python block under "Library overview", executed as
    it stands: its asserts are the checks."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library overview\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "from qtrunc import" in block
    exec(compile(block, "README.md", "exec"), {})


def _names(tree: ast.AST) -> set[str]:
    """Every name a tree reads, binds, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_kronecker_slot_format_is_private_to_qseries():
    """No module but qseries names _kronecker_mul, _pack or _unpack, and
    within qseries only _euler_cubed calls _kronecker_mul."""
    private = {"_kronecker_mul", "_pack", "_unpack"}
    package = ROOT / "src" / "qtrunc"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name != "qseries.py":
            assert not private & _names(tree), path.name
            continue
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert private <= defined
        # a top-level statement with no name (an assignment) counts as None
        callers = {getattr(node, "name", None) for node in tree.body
                   if "_kronecker_mul" in _names(node)}
        assert callers == {"_euler_cubed"}
