"""Mutation table for the code that alone decides which matrices `solve` emits,
for the shape predicates that alone decide a classifier's positive verdict,
and for the one home of each rule the CLI's output rests on (the wire rule,
exit codes, size caps, the power sum, the bound on the power cache and the
writing of integers in messages), and for the one-field records' trusted
constructor, which builds every product.

Each row names a module under src/functorlab, one exact source snippet in
it, a replacement, and the test ids that must fail once the snippet is
replaced.  For each row the script copies src/ and tests/ to a temporary
directory, applies the mutant there, runs the named tests against the copy
under a per-mutant timeout, and prints one JSON object that sorts the rows
into killed, survived, timed_out and error (pytest could not run the named
tests).  `hypothesis` runs only the explicit `@example`s there
(`Phase.explicit`), so no verdict depends on a random draw: each row is
killed by a plain test or a pinned example.  A timeout means a test hangs
where it should fail.  The exit status is 1 when any row survives, times
out or errors, else 0.

Run from the repository root, with the standard library and pytest:

    python3 tests/mutants.py

pytest does not collect this file; tests/test_mutants.py checks that every
snippet still occurs exactly once in its module, so a refactor cannot
quietly retire a mutant.
"""

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
TIMEOUT = 120  # seconds each mutant's tests may run

_ORACLE = [
    "tests/test_solver.py::test_solve_matches_oracle_on_random_relations",
    "tests/test_solver.py::test_solve_matches_oracle_with_wide_slots",
]

# name: (module, snippet, replacement, test ids that must fail)
#
# Not a row: dropping `bound` from the slot bound T in _packed_kernel
# (`t = max(0, *(` for `t = max(bound, *(`) is equivalent.  L and U enter
# sides only through a power of degree >= 1, whose slot bound
# c_k * n^(k-1) * bound^k with c_k >= 1 is already >= bound, so T keeps every
# value below 2^(s-1); with no such power every relation side is constant and
# only g0, h0 are compared.
#
# Not a row: a class size bound K that comes out too large in solve's
# assembly path (say `return k + 1` in _class_size_bound) is equivalent.  K
# only bounds which connected classes are searched for; a larger K searches
# sizes that hold no connected class and assembles the same direct sums, and
# at K >= n the plain search runs, which is only slower.
#
# Not a row: a `k >= 1` guard on decompose's shape test (`_block_form`).  At
# k = 0 the pair test already admits only the zero matrix, which is the one
# square root of 0*I: a pair i != j needs both entries nonzero to be each
# other's image, so their product is at least 1, and a fixed point needs
# e[i][i]^2 = 0.
MUTANTS = {
    "slot-width-no-guard-bit": (
        "solver", "s = t.bit_length() + 1", "s = t.bit_length()",
        ["tests/test_solver.py::test_packed_sides_unpack_to_poly_rows",
         "tests/test_solver.py::test_packed_exceeds_matches_dense_compare"] + _ORACLE),
    "interval-cut-drops-h-side": (
        "solver", "exceeds(low[0], high[1]) or exceeds(low[1], high[0])",
        "exceeds(low[0], high[1])", _ORACLE),
    "interval-cut-drops-g-side": (
        "solver", "exceeds(low[0], high[1]) or exceeds(low[1], high[0])",
        "exceeds(low[1], high[0])", _ORACLE),
    "exceeds-not-strict-in-slot-0": (
        "solver", "((y | guard) - x) & guard != guard",
        "((y | guard) - x - 1) & guard != guard",
        ["tests/test_solver.py::test_packed_exceeds_matches_dense_compare"] + _ORACLE),
    "orderly-cut-not-strict": (
        "solver", "_orbit_min_rows(upper, known) < upper[:known]",
        "_orbit_min_rows(upper, known) <= upper[:known]",
        ["tests/test_solver.py::test_up_to_iso_equals_orbit_minima_of_full_search"]
        + _ORACLE),
    "orbit-stop-at-first-equal-row": (
        "zmatrix", "(stop is not None and out[a] != rows[a])",
        "(stop is not None and out[a] == rows[a])",
        ["tests/test_zmatrix.py::test_stopped_orbit_min_decides_what_the_full_one_does",
         "tests/test_solver.py::test_up_to_iso_equals_orbit_minima_of_full_search"]),
    "leaf-skips-row-end-cut": (
        "solver", "if j == n - 1}", "if j == n - 1 and k < last}",
        ["tests/test_solver.py::test_plain_search_tree_counts",
         "tests/test_solver.py::test_solve_past_the_oracle_cap"]),
    "undo-one-step-too-few": (
        "solver", "while len(path) > k:", "while len(path) > k + 1:",
        ["tests/test_solver.py::test_solve_examples",
         "tests/test_solver.py::test_search_tree_counts"]),
    "sibling-skips-the-bound": (
        "solver", "if v < bound:", "if v + 1 < bound:",
        ["tests/test_solver.py::test_solve_examples",
         "tests/test_solver.py::test_search_memory_does_not_grow_with_the_bound"]),
    "sibling-skips-a-value": (
        "solver", "(k, v + 1, state)", "(k, v + 2, state)",
        ["tests/test_solver.py::test_solve_examples",
         "tests/test_solver.py::test_search_tree_counts"]),
    "search-stops-two-past-the-limit": (
        "solver", "if len(found) == cap:", "if len(found) - 1 == cap:",
        ["tests/test_solver.py::test_search_stops_one_past_the_limit"]),
    "class-size-one-too-small": (
        "solver", "k += 1\n    return k", "k += 1\n    return k - 1",
        ["tests/test_solver.py::test_class_size_bound",
         "tests/test_solver.py::test_assembled_up_to_iso_equals_canonical_full_search"]),
    "class-size-root-test-not-strict": (
        "solver", "(k + 2) ** 2) > 0", "(k + 2) ** 2) >= 0",
        ["tests/test_solver.py::test_class_size_bound"]),
    "assembly-drops-connectivity-filter": (
        "solver", "connected and k == last and _reach_masks(upper)[0]",
        "False and k == last and _reach_masks(upper)[0]",
        ["tests/test_solver.py::test_connected_search_keeps_only_connected_leaves",
         "tests/test_solver.py::test_assembled_up_to_iso_equals_canonical_full_search",
         "tests/test_solver.py::test_up_to_iso_equals_orbit_minima_of_full_search"]),
    "monomial-form-skips-rebuild": (
        "zmatrix", "if _monomial_rows(images, values) == rows else None",
        "if True else None",
        ["tests/test_zmatrix.py::test_monomial_form_matches_oracle",
         "tests/test_classify.py::test_near_shapes_match_oracle",
         "tests/test_canonical.py::test_near_roots_match_oracle"]),
    "diagonal-skips-self-pairing": (
        "classify", "shape[0] == shape[1]", "shape[0] == shape[0]",
        ["tests/test_classify.py::test_near_shapes_match_oracle",
         "tests/test_classify.py::test_shape_readers_match_oracle"]),
    "partial-involution-lets-2-through": (
        "classify", "max(form[1]) > 1", "max(form[1]) > 2",
        ["tests/test_classify.py::test_near_shapes_match_oracle",
         "tests/test_classify.py::test_shape_readers_match_oracle"]),
    "partial-involution-skips-pairing": (
        "classify", "images[j] != i for i, j in enumerate(images)",
        "images[i] != j for i, j in enumerate(images)",
        ["tests/test_classify.py::test_corrupt_shape_exits_3"]),
    "block-pair-product-at-least-k": (
        "canonical", "values[i] * values[j] != k", "values[i] * values[j] < k",
        ["tests/test_canonical.py::test_near_roots_match_oracle",
         "tests/test_canonical.py::test_readers_match_oracle"]),
    "gf2-rows-keeps-high-bits": (
        "restrict", "(x & 1) << j", "x << j",
        ["tests/test_restrict.py::test_cartan_pass_decided_by_exact_span_when_mod_2_stalls",
         "tests/test_restrict.py::test_full_span_mod_2_is_full_over_q"]),
    "words-span-trusts-short-mod-2": (
        "restrict", "        return True\n    span = _IntegerSpan()",
        "        return True\n    return False",
        ["tests/test_restrict.py::test_cartan_pass_decided_by_exact_span_when_mod_2_stalls",
         "tests/test_restrict.py::test_cartan_check_matches_rational_oracle"]),
    "poly-drops-constant-term": (
        "zmatrix", "if c:", "if c and d:",
        ["tests/test_zmatrix.py::test_poly_eval_matches_naive_product"]),
    "dumps-list-lets-2-53-through": (
        "jsonio", "str(x) if type(x) is int and -_SAFE_INT <= x <= _SAFE_INT else",
        "str(x) if type(x) is int and -_SAFE_INT <= x <= _SAFE_INT + 1 else",
        ["tests/test_wire.py::test_dumps_matches_the_oracle",
         "tests/test_wire.py::test_wire_matrix"]),
    "dumps-never-marks-bigints": (
        "jsonio", "            found = True\n", "            found = False\n",
        ["tests/test_wire.py::test_dumps_matches_the_oracle",
         "tests/test_wire.py::test_wire_matrix"]),
    "dumps-dict-value-skips-wire": (
        "jsonio", "{encode(x, inner)}\"", "{x if type(x) is int else encode(x, inner)}\"",
        ["tests/test_wire.py::test_dumps_matches_the_oracle"]),
    "too-large-exits-1": (
        "errors", 'code = "dimension_too_large"\n    exit_code = 2',
        'code = "dimension_too_large"\n    exit_code = 1',
        ["tests/test_cli.py::test_oracle_refuses_dimensions_past_the_solve_cap"]),
    "tensor-skips-relabeling": (
        "zmatrix", "images = [i * b_simples + s for s in range(b_simples) for i in range(m.n)]",
        "images = range(n)",
        ["tests/test_zmatrix.py::test_external_tensor_examples",
         "tests/test_zmatrix.py::test_external_tensor_matches_naive_kronecker"]),
    "nilpotent-witness-against-identity": (
        "classify", "_scalar_rows(m.n, 0)", "_scalar_rows(m.n, 1)",
        ["tests/test_classify.py::test_check_nilpotent_examples"]),
    "check-cap-off-by-one": (
        "zmatrix", "if n > cap:", "if n > cap + 1:",
        ["tests/test_cli.py::test_oracle_refuses_dimensions_past_the_solve_cap"]),
    "twins-ignore-columns": (
        "zmatrix", "if tuple(ry) == rows[x] and tuple(cy) == cols[x]:",
        "if tuple(ry) == rows[x]:",
        ["tests/test_zmatrix.py::test_twins_are_tested_on_columns_too",
         "tests/test_zmatrix.py::test_canonical_rep_matches_naive_orbit_min"]),
    "orbit-head-cut-not-strict": (
        "zmatrix", "if best is not None and key > cut:", "if best is not None and key >= cut:",
        ["tests/test_zmatrix.py::test_canonical_rep_matches_naive_orbit_min",
         "tests/test_zmatrix.py::test_stopped_orbit_min_decides_what_the_full_one_does"]),
    "orbit-key-drops-singleton-cell": (
        "zmatrix", "key.append(r[cell[0]])", "pass",
        ["tests/test_zmatrix.py::test_canonical_rep_matches_naive_orbit_min",
         "tests/test_zmatrix.py::test_stopped_orbit_min_decides_what_the_full_one_does"]),
    "orbit-split-buckets-descending": (
        "zmatrix", "for v in sorted(buckets))", "for v in sorted(buckets, reverse=True))",
        ["tests/test_zmatrix.py::test_canonical_rep_matches_naive_orbit_min",
         "tests/test_zmatrix.py::test_stopped_orbit_min_decides_what_the_full_one_does"]),
    "integer-roots-drops-left-half": (
        "restrict", "stack += [(mid + 1, u, vm, vu), (t, mid, vt, vm)]",
        "stack += [(mid + 1, u, vm, vu)]",
        ["tests/test_restrict.py::test_integer_roots_match_a_scan_of_the_spectral_range"]),
    "power-cache-bound-past-2-64": (
        "zmatrix", "if d < _CACHED_BELOW:", "if d < 1 << 70:",
        ["tests/test_zmatrix.py::test_power_below_2_64_does_not_recurse"]),
    "gf2-span-skips-reduction": (
        "restrict", "            vec ^= pivot\n", "            return False\n",
        ["tests/test_restrict.py::test_gf2_span_dimension_matches_rank"]),
    "one-field-trusted-stores-wrong-name": (
        "zmatrix", "store(self, name, value)", "store(self, name + \"_\", value)",
        ["tests/test_records.py::test_trusted_record_cannot_be_told_from_the_checked_one",
         "tests/test_records.py::test_one_field_trusted_records_are_right_before_vars_is_read"]),
    "one-field-trusted-skips-store": (
        "zmatrix", "store(self, name, value)", "pass",
        ["tests/test_records.py::test_trusted_record_cannot_be_told_from_the_checked_one",
         "tests/test_records.py::test_one_field_trusted_records_are_right_before_vars_is_read"]),
    "show-fallback-unguarded": (
        "errors", "except ValueError:", "except TypeError:",
        ["tests/test_zmatrix.py::test_messages_write_input_integers_past_the_digit_limit"]),
    "entry-bound-symmetric-power-is-2": (
        "solver", "if symmetric_only and is_power(other):\n                return 1",
        "if symmetric_only and is_power(other):\n                return 2",
        ["tests/test_solver.py::test_derive_entry_bound"]),
}


_CONFTEST = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", report_multiple_bugs=False,
                          phases=[Phase.explicit])
settings.load_profile("mutants")
"""


def source(module, root=ROOT):
    return (root / "src" / "functorlab" / f"{module}.py").read_text(encoding="utf-8")


def _run(name):
    module, snippet, replacement, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = pathlib.Path(tmp)
        shutil.copytree(ROOT / "src", tmp / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", tmp / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        # a mutant needs only a verdict: no shrinking, one failure is enough
        (tmp / "tests" / "conftest.py").write_text(_CONFTEST, encoding="utf-8")
        text = source(module, tmp)
        if text.count(snippet) != 1:
            return "error", f"snippet occurs {text.count(snippet)} times in {module}"
        path = tmp / "src" / "functorlab" / f"{module}.py"
        path.write_text(text.replace(snippet, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        # its own session, so a timeout also stops any worker a test started
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "timed_out", f"over {TIMEOUT} s"
    summary = out.strip().splitlines()[-1] if out.strip() else ""
    # pytest exits 1 when a test failed; any other non-zero code means the
    # named tests did not run
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return outcome, summary


def main():
    report = {"killed": {}, "survived": {}, "timed_out": {}, "error": {}}
    for name in MUTANTS:
        outcome, detail = _run(name)
        report[outcome][name] = detail
    print(json.dumps(report, indent=2))
    return 1 if report["survived"] or report["timed_out"] or report["error"] else 0


if __name__ == "__main__":
    sys.exit(main())
