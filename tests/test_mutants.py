import pytest

from mutants import MUTANTS, ROOT, source


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_row_still_applies(name):
    # a refactor that rewrites a snippet or renames a test must update the
    # row, not quietly retire it
    module, snippet, replacement, tests = MUTANTS[name]
    assert source(module).count(snippet) == 1
    assert replacement != snippet and tests
    for test in tests:
        path, func = test.split("::")
        assert f"\ndef {func}(" in (ROOT / path).read_text(encoding="utf-8")
