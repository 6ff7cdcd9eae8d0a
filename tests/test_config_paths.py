"""The config format is stated once, in harness/config.py: every literal
``cfg.get("...")`` path in the package is a SCHEMA key, every SCHEMA key is
read somewhere, and no other module reads a config document or section
directly."""

import ast
from pathlib import Path

from perturbopt.harness.config import SCHEMA

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "perturbopt"
CONFIG = PACKAGE / "harness" / "config.py"
# the raw document and its section dicts
RAW = {"doc", "domain", "model", "perturb", "optimizer", "sweeps", "check"}


def _config_reads(path):
    """(paths read by literal cfg.get calls, offending reads) of one module;
    inside config.py, self.get counts as a read too."""
    receivers = {"cfg", "self"} if path == CONFIG else {"cfg"}

    def on_config(node):
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in receivers
        )

    where = path.relative_to(PACKAGE)
    paths, bad = set(), []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and on_config(node.func) and node.func.attr == "get":
            arg = node.args[0] if node.args else None
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                paths.add(arg.value)
            else:
                bad.append(f"{where}:{node.lineno}: cfg.get without a literal path")
        elif on_config(node) and node.attr in RAW and path != CONFIG:
            bad.append(f"{where}:{node.lineno}: reads cfg.{node.attr}")
    return paths, bad


def test_config_is_read_through_schema_paths():
    read, bad = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        paths, problems = _config_reads(path)
        read |= paths
        bad += problems
    assert not bad, bad
    assert not read - set(SCHEMA), f"paths not in SCHEMA: {sorted(read - set(SCHEMA))}"
    assert not set(SCHEMA) - read, f"SCHEMA keys nothing reads: {sorted(set(SCHEMA) - read)}"
