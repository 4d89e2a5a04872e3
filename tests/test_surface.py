"""Static gate on the public surface: every public name earns its place.

Each name in ``qtrunc.__all__``, and each public attribute of an exported
class, needs one of three things:

- a reference in ``src/qtrunc/*.py`` outside ``__init__.py`` and outside
  its own definition. A module-level name counts as a Name, an Attribute or
  a whole string constant, since the CLI registry names its checks by
  string. A member counts only as an Attribute: a bare name, such as a
  local ``zero``, is not a read of ``IntSeries.zero``;
- a use in README's examples: a Name or an Attribute of a fenced python
  block, read from its syntax tree (so a comment or an import list is not
  a use), or a word of another code block outside its ``#`` comments, or
  of a code span;
- an entry in ``JUSTIFIED``, with a one-line reason.

The names with neither a reference nor a README mention must be exactly
``JUSTIFIED``'s keys, so a reason that no longer applies fails as well as
a missing one. A member justified as traced must still be fetched by
``bench/tracer.py``, read here from its syntax tree: once the benchmark
stops tracing a member, the gate requires its deletion.
"""

import ast
import re
from pathlib import Path

import qtrunc

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "qtrunc"

TRACED = "bench/tracer.py fetches it by name; it goes once the benchmark stops tracing it"

JUSTIFIED = {
    "CheckReport.to_json": TRACED,
    "IntSeries.div_one_minus": TRACED,
    "IntSeries.times_one_minus": TRACED,
    "Partition.conjugate": TRACED,
}


def public_surface() -> tuple[set[str], set[str]]:
    """The exported names, and the public members of the exported classes
    as "Class.member"."""
    names = set(qtrunc.__all__)
    members = {f"{name}.{attr}" for name in names
               if isinstance(getattr(qtrunc, name), type)
               for attr in dir(getattr(qtrunc, name)) if not attr.startswith("_")}
    return names, members


def _collect(node: ast.AST, enclosing: tuple, names: set, attrs: set) -> None:
    """Add the names node reads to names, and the attributes it takes to
    attrs, leaving out a reference to a def or class that encloses it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing += (node.name,)
    elif isinstance(node, ast.Name) and node.id not in enclosing:
        names.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
        attrs.add(node.attr)
    elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
          and node.value not in enclosing):
        names.add(node.value)
    for child in ast.iter_child_nodes(node):
        _collect(child, enclosing, names, attrs)


def package_references() -> tuple[set[str], set[str]]:
    """The names and string constants, and the attributes, that the
    package's modules other than __init__.py read."""
    names, attrs = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            _collect(ast.parse(path.read_text(encoding="utf-8")), (), names, attrs)
    return names, attrs


def readme_words() -> set[str]:
    """The Names and Attributes of README's fenced python blocks, and every
    identifier-like word of its other code blocks, without their # comments,
    and of its code spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    words = set()
    for lang, block, span in re.findall(r"```(\w*)\n(.*?)```|`([^`]+)`", text, re.S):
        if lang == "python":
            for node in ast.walk(ast.parse(block)):
                if isinstance(node, ast.Name):
                    words.add(node.id)
                elif isinstance(node, ast.Attribute):
                    words.add(node.attr)
        else:
            words.update(re.findall(r"\w+", span or re.sub(r"#.*", "", block)))
    return words


def traced_members() -> set[str]:
    """The "Class.method" keys of bench/tracer.py's METHOD_LAYERS and
    COUNTED_METHODS, read from its syntax tree without importing it."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    traced = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(getattr(target, "id", None) in ("METHOD_LAYERS", "COUNTED_METHODS")
                        for target in node.targets)):
            for key in node.value.keys:
                cls, method = ast.literal_eval(key)
                traced.add(f"{cls}.{method}")
    return traced


def test_every_public_name_has_a_caller_a_readme_mention_or_a_reason():
    names, members = public_surface()
    referenced, attrs = package_references()
    words = readme_words()
    unreached = {name for name in names
                 if name not in referenced | attrs and name not in words}
    unreached |= {member for member in members
                  if member.split(".")[1] not in attrs | words}
    assert unreached == set(JUSTIFIED), ", ".join(sorted(unreached))


def test_every_member_justified_as_traced_is_still_traced():
    traced = traced_members()
    assert "IntSeries.__mul__" in traced  # the reader sees the tracer's table
    assert {name for name, reason in JUSTIFIED.items()
            if reason == TRACED and name not in traced} == set()
