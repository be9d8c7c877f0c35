"""Every function, class and method the package defines has a caller
outside the tests.

Each CLI process compiles the modules it imports from source, so code only
the tests call costs every call.  A method defined on a class under
src/functorlab (dunders excepted) must be read as an attribute somewhere in
src/ or bench/, or be listed in ALLOWED with the reason it stays.  A
top-level function or class (module dunders excepted) must be read there as
a name, an attribute, an import or a key of the package's `_EXPORTS` table,
or be listed in ALLOWED_TOP_LEVEL with its reason.

The benchmark's traced runs replace some module globals with wrappers that
take positional arguments only (bench/worker.py's _install_hooks), so each
hooked name must stay on its module and every call of it in src/ must stay
positional.
"""

import ast
import importlib
import pathlib

import functorlab

PACKAGE = pathlib.Path(functorlab.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# (module, class, method): why it stays without a caller in src/ or bench/
ALLOWED = {
    ("zmatrix", "NatMatrix", "identity"): "the identity functor; the acceptance tests build it",
    ("zmatrix", "NatMatrix", "power"): "composition with itself d times; the classifier "
                                       "tests' oracle for M^k",
    ("cli", "_Parser", "error"): "argparse calls it on a usage error",
}


# (module, name): why it stays without a reader in src/ or bench/
ALLOWED_TOP_LEVEL = {
    ("jsonio", kind + "_from_obj"): "cli._load reaches it through getattr by input kind"
    for kind in ("matrix", "relation", "subset")
}


def _trees(directory):
    return [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(directory.glob("*.py"))]


def _methods():
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        out.append((path.stem, node.name, item.name))
    return out


def test_every_method_is_read_outside_the_tests():
    read = {
        node.attr
        for tree in _trees(PACKAGE) + _trees(BENCH)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    methods = _methods()
    assert set(ALLOWED) <= set(methods)
    assert [m for m in methods if m[2] not in read and m not in ALLOWED] == []


def _top_level():
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                out.append((path.stem, node.name))
    return out


def _export_keys(tree):
    return {
        key.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)
        for key in node.value.keys
    }


def test_every_top_level_name_is_read_outside_the_tests():
    read = set()
    for tree in _trees(PACKAGE) + _trees(BENCH):
        read |= _export_keys(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    names = _top_level()
    assert set(ALLOWED_TOP_LEVEL) <= set(names)
    assert [t for t in names if t[1] not in read and t not in ALLOWED_TOP_LEVEL] == []


def _benchmark_hooks():
    """(module, name) of each global bench/worker.py's _install_hooks wraps."""
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_install_hooks")
    loop = next(node for node in ast.walk(install) if isinstance(node, ast.For))
    return [(entry.elts[0].id, entry.elts[1].value) for entry in loop.iter.elts]


def test_benchmark_hooks_wrap_names_called_positionally():
    # a renamed global would leave its traced per-layer metrics empty, and a
    # keyword argument would raise inside the wrapper
    hooks = _benchmark_hooks()
    assert ("solver", "_orbit_min_rows") in hooks
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    for module, name in hooks:
        assert hasattr(importlib.import_module(f"functorlab.{module}"), name)
        # the wrapper sees only calls through the module's global
        assert any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == name for node in ast.walk(trees[module]))
        keyword_calls = [
            (stem, node.lineno)
            for stem, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and node.keywords
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
        assert keyword_calls == [], name
