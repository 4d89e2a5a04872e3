"""Static gates on the repository's own files: every Python file parses as
Python 3.10, the oldest version pyproject.toml admits, and README's worked
example of the library runs."""

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
