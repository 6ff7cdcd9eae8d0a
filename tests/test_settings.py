"""Every default of the package is a setting some production call varies.

A parameter default or a dataclass-field default that no call in `src/`
or in the benchmark sets is an option nobody uses: each one doubles the
configurations the tests must cover, so it belongs in a module constant.
A setting counts as set when a call passes it by keyword or by position,
or forwards `*args` / `**kwargs` that can reach it.  Calls are matched to
definitions by name, as `tests/test_public_names.py` matches references.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "perturbopt"

# Defaults that no production call sets, kept on purpose.
ALLOWED = {
    # tests substitute fake feature maps through the builder
    "model.py:model_for_instances.builder",
    # tests build stovsp cost oracles with other charges and scenario counts
    "problems.py:StoVspDelayCost.__init__.c_delay",
    "problems.py:StoVspDelayCost.__init__.c_vehicle",
    "problems.py:StoVspDelayCost.__init__.n_scenarios",
    # ROADMAP 7 exposes the stovsp generator's arc cap in the config
    "problems.py:_stovsp_shapes.arc_cap",
}


def _name(node):
    """The called or decorating name: `f` for `f` and `a.b.f`."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return getattr(node, "attr", None)


def _signature(fn, is_method):
    """(positional parameter names, names of the parameters with a
    default), without self or cls."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    with_default = positional[len(positional) - len(args.defaults):]
    with_default += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    if is_method and "staticmethod" not in {_name(d) for d in fn.decorator_list}:
        positional = positional[1:]
    return positional, with_default


def _definitions(path, tree):
    """(call name, setting id, positional names, defaulted names) for every
    function, method and dataclass; a class is called by its own name."""
    rel = path.relative_to(PACKAGE)

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                positional, defaulted = _signature(node, in_class)
                call_name = prefix.rstrip(".") if node.name == "__init__" else node.name
                yield call_name, f"{rel}:{prefix}{node.name}", positional, defaulted
                yield from visit(node.body, f"{prefix}{node.name}.", False)
            elif isinstance(node, ast.ClassDef):
                if "dataclass" in {_name(d) for d in node.decorator_list}:
                    fields = [
                        (item.target.id, item.value is not None)
                        for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    ]
                    yield (
                        node.name, f"{rel}:{node.name}",
                        [f for f, _ in fields], [f for f, d in fields if d],
                    )
                yield from visit(node.body, f"{prefix}{node.name}.", True)

    yield from visit(tree.body, "", False)


def _calls(tree):
    """(callee name, number of plain positional args, keyword names,
    whether *args or **kwargs is forwarded) for every call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        starred = [isinstance(a, ast.Starred) for a in node.args]
        n_plain = starred.index(True) if any(starred) else len(node.args)
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        forwards_all = any(k.arg is None for k in node.keywords)
        yield _name(node), n_plain, keywords, any(starred), forwards_all


def unset_settings():
    definitions = []
    for path in sorted(PACKAGE.rglob("*.py")):
        definitions += _definitions(path, ast.parse(path.read_text(), filename=str(path)))
    callers = sorted(PACKAGE.rglob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
    )
    set_ids = set()
    by_name = {}
    for call_name, sid, positional, defaulted in definitions:
        by_name.setdefault(call_name, []).append((sid, positional, defaulted))
    for path in callers:
        for name, n_plain, keywords, forwards_args, forwards_all in _calls(ast.parse(path.read_text())):
            for sid, positional, defaulted in by_name.get(name, []):
                for i, param in enumerate(positional):
                    if i < n_plain or forwards_args:
                        set_ids.add(f"{sid}.{param}")
                for param in defaulted:
                    if forwards_all or param in keywords:
                        set_ids.add(f"{sid}.{param}")
    return {
        f"{sid}.{param}"
        for _, sid, _, defaulted in definitions
        for param in defaulted
        if f"{sid}.{param}" not in set_ids
    }


def test_every_default_is_set_by_a_production_call():
    assert unset_settings() == ALLOWED
