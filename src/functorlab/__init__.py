"""Exact integer-matrix models of selfadjoint exact endofunctors.

Matrices over the nonnegative integers stand in for functors on a category
with finitely many simples: composition is matrix product, direct sum is
entrywise sum, adjunction is transposition, so selfadjoint functors become
symmetric matrices and polynomial functor relations become matrix equations.
The package solves, decomposes, classifies, and restricts such equations with
arbitrary-precision integer arithmetic throughout.

Matrix-level statements are necessary conditions in general: equality of
matrix shadows classifies the underlying functors exactly only over
semisimple algebras, where the matrix determines the functor.

Importing the package loads none of its modules: each public name is
resolved from its defining module on first access and then cached in the
package namespace, so a process pays only for the layers it uses.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "Block1": "canonical",
    "Block2": "canonical",
    "BlockForm": "canonical",
    "SqrtClassification": "canonical",
    "classify_selfadjoint_sqrt": "canonical",
    "decompose": "canonical",
    "enumerate_involutions": "canonical",
    "CommutingIdempotents": "classify",
    "CyclicClassification": "classify",
    "IdempotentClassification": "classify",
    "NilpotencyVerdict": "classify",
    "RootOfIdentity": "classify",
    "check_commuting_idempotents": "classify",
    "check_nilpotent": "classify",
    "classify_cyclic": "classify",
    "classify_idempotent": "classify",
    "classify_root_of_identity": "classify",
    "DimensionMismatch": "errors",
    "DimensionTooLarge": "errors",
    "EmptyComplement": "errors",
    "EmptySubset": "errors",
    "FunctorLabError": "errors",
    "InternalFault": "errors",
    "InvalidInput": "errors",
    "KNotPerfectSquare": "errors",
    "NotAPermutationMatrix": "errors",
    "NotARoot": "errors",
    "NotASolution": "errors",
    "NotASquareRoot": "errors",
    "NotDecomposable": "errors",
    "NotIdempotent": "errors",
    "NotInvariant": "errors",
    "NotSymmetric": "errors",
    "RelationNotSatisfied": "errors",
    "SearchSpaceTooLarge": "errors",
    "ShapeViolation": "errors",
    "CartanInstance": "restrict",
    "CartanVerdict": "restrict",
    "DescentReport": "restrict",
    "IndexSubset": "restrict",
    "cartan_check": "restrict",
    "invariant_subsets": "restrict",
    "is_invariant_subset": "restrict",
    "preserves_add": "restrict",
    "relation_descends": "restrict",
    "restrict_quotient": "restrict",
    "restrict_serre": "restrict",
    "SearchConfig": "solver",
    "SolutionSet": "solver",
    "brute_force_oracle": "solver",
    "derive_entry_bound": "solver",
    "solve": "solver",
    "CANON_CAP_ENV": "zmatrix",
    "NatMatrix": "zmatrix",
    "Permutation": "zmatrix",
    "RelationPoly": "zmatrix",
    "canonical_cap": "zmatrix",
    "canonical_rep": "zmatrix",
    "conjugate": "zmatrix",
    "direct_sum": "zmatrix",
    "external_tensor": "zmatrix",
    "poly_eval": "zmatrix",
    "scalar_mul": "zmatrix",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    # submodule names are absent from _EXPORTS on purpose, so that
    # `from functorlab import solver` falls through to the submodule import
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
