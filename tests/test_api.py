"""The package's public names, frozen: each resolves, on first use, to the
object its defining module holds."""

import importlib
import types

import functorlab

PUBLIC = {
    "canonical": (
        "Block1", "Block2", "BlockForm", "SqrtClassification",
        "classify_selfadjoint_sqrt", "decompose", "enumerate_involutions",
    ),
    "classify": (
        "CommutingIdempotents", "CyclicClassification", "IdempotentClassification",
        "NilpotencyVerdict", "RootOfIdentity", "check_commuting_idempotents",
        "check_nilpotent", "classify_cyclic", "classify_idempotent",
        "classify_root_of_identity",
    ),
    "errors": (
        "DimensionMismatch", "DimensionTooLarge", "EmptyComplement", "EmptySubset",
        "FunctorLabError", "InternalFault", "InvalidInput", "KNotPerfectSquare",
        "NotAPermutationMatrix", "NotARoot", "NotASolution", "NotASquareRoot",
        "NotDecomposable", "NotIdempotent", "NotInvariant", "NotSymmetric",
        "RelationNotSatisfied", "SearchSpaceTooLarge", "ShapeViolation",
    ),
    "restrict": (
        "CartanInstance", "CartanVerdict", "DescentReport", "IndexSubset",
        "cartan_check", "invariant_subsets", "is_invariant_subset", "preserves_add",
        "relation_descends", "restrict_quotient", "restrict_serre",
    ),
    "solver": (
        "SearchConfig", "SolutionSet", "brute_force_oracle", "derive_entry_bound",
        "solve",
    ),
    "zmatrix": (
        "CANON_CAP_ENV", "NatMatrix", "Permutation", "RelationPoly", "canonical_cap",
        "canonical_rep", "conjugate", "direct_sum", "external_tensor", "poly_eval",
        "scalar_mul",
    ),
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_public_names_frozen():
    assert sorted(functorlab.__all__) == NAMES
    assert functorlab.__version__ == "0.1.0"
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"functorlab.{module}")
        for name in names:
            assert getattr(functorlab, name) is getattr(defining, name), name


def test_star_import_and_dir_list_every_name():
    scope = {}
    exec("from functorlab import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == NAMES
    assert set(NAMES) <= set(dir(functorlab))


def test_unknown_name_is_absent():
    assert hasattr(functorlab, "nope") is False


def test_submodules_import_through_the_package():
    from functorlab import canonical, classify, cli, errors, jsonio, restrict, solver, zmatrix

    for mod in (canonical, classify, cli, errors, jsonio, restrict, solver, zmatrix):
        assert isinstance(mod, types.ModuleType)
        assert mod is importlib.import_module(mod.__name__)
