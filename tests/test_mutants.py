import ast

import pytest

from mutants import MUTANTS, ROOT, source


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_row_still_applies(name):
    # a refactor that rewrites a snippet or renames a test must update the
    # row, not quietly retire it; and the mutated module must still compile,
    # so that a row reads as killed or survived, never as a syntax error
    module, snippet, replacement, tests = MUTANTS[name]
    text = source(module)
    assert text.count(snippet) == 1
    compile(text.replace(snippet, replacement), f"{module}.py", "exec")
    assert replacement != snippet and tests
    for test in tests:
        path, func = test.split("::")
        assert f"\ndef {func}(" in (ROOT / path).read_text(encoding="utf-8")


def _decorator_names(path, func):
    """The last dotted name of each decorator on the test function `func`."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == func)
    names = set()
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        names.add(dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None))
    return names


def test_each_mutant_row_names_a_deterministic_kill():
    # mutants.py runs hypothesis with only its explicit phase, so a row
    # whose every test is a @given property without an @example is skipped,
    # not killed
    def deterministic(test):
        names = _decorator_names(*test.split("::"))
        return "given" not in names or "example" in names

    assert sorted(name for name, row in MUTANTS.items()
                  if not any(map(deterministic, row[3]))) == []
