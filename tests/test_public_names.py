"""Every public function, class and method of the package has a caller in
the package itself or in the benchmark; a helper only the tests call is
dead code."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "perturbopt"

# Kept without a caller until the ROADMAP item that wires each one in.
ALLOWED = {
    "uw_moment",  # ROADMAP "The uniform weak property in production" wires it in
}
# "package.module:Qualified.name" strings, as the benchmark's hooks name
# their targets.
HOOK_TARGET = re.compile(r"^[\w.]+:[\w.]+$")


def _public_definitions(tree):
    """Names of the public module-level defs and classes, and of the public
    methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name


def _references(tree):
    """Identifiers the module uses: names, attributes, imported names, hook
    target strings and getattr/hasattr attribute strings.  Docstrings and
    messages do not count."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if HOOK_TARGET.match(node.value):
                refs.update(re.split(r"[.:]", node.value))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            refs.add(node.args[1].value)
    return refs


def test_every_public_name_has_a_production_caller():
    callers = sorted(PACKAGE.rglob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
    )
    refs = set()
    for path in callers:
        refs |= _references(ast.parse(path.read_text(), filename=str(path)))
    defined, unused = set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for name in _public_definitions(ast.parse(path.read_text())):
            defined.add(name)
            if name not in refs and name not in ALLOWED:
                unused.add(f"{path.relative_to(PACKAGE)}:{name}")
    assert not unused, f"public names with no caller outside the tests: {sorted(unused)}"
    # a stale allow-list entry would hide nothing and mislead the reader
    assert ALLOWED <= defined
