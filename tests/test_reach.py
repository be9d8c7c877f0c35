"""Every function, class and method the package defines has a caller
outside the tests.

Each CLI process compiles the modules it imports from source, so code only
the tests call costs every call.  A method defined on a class under
src/functorlab (dunders excepted) must be read as an attribute somewhere in
src/ or bench/, or be listed in ALLOWED with the reason it stays.  A
top-level function or class (module dunders excepted) must be read there as
a name, an attribute, an import or a key of the package's `_EXPORTS` table,
or be listed in ALLOWED_TOP_LEVEL with its reason.
"""

import ast
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
