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
