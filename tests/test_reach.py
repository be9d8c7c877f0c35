"""Every method the package defines has a caller outside the tests.

Each CLI process compiles the modules it imports from source, so a method
only the tests call costs every call.  A method defined on a class under
src/functorlab (dunders excepted) must be read as an attribute somewhere in
src/ or bench/, or be listed in ALLOWED with the reason it stays.
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
