"""Exception types shared across the package.

Three families matter to callers, and each class carries its family's CLI
exit code as ``exit_code`` (subclasses inherit it; ``cli.main`` returns it):

* ``InvalidInput`` and friends, exit 2: the request itself is malformed
  (bad JSON, negative entries, mismatched dimensions, over-cap sizes).
* negative verdicts, exit 1: the input is well formed but the mathematical
  question has answer "no" (``NotSymmetric``, ``NotASquareRoot``, ...).
* ``InternalFault``, exit 3: a state the theory rules out was reached, which
  means corrupted input masquerading as valid data, or a bug here.

Message text has one home, ``FunctorLabError``.  A raise site passes a
``str.format`` template and the values it names, as in
``InvalidInput("duplicate subset member {}", i)``.  The template is
formatted once, each value written by ``_show``, so an integer of any size
reads in decimal whether or not Python's int/str digit limit is lifted.
Text from outside the program (a file name, an environment variable, a
non-integer entry) is always a value, never part of a template, since a
``{`` in it would make ``format`` raise; only package literals (``what``,
``side``) join a template.  A message given without values is used as it
stands.
"""


def _show(v):
    """repr(v) for a message, with an int past Python's int/str digit limit,
    alone or inside a tuple or list, written through `decimal`."""
    try:
        return repr(v)
    except ValueError:
        if isinstance(v, list):
            return "[" + ", ".join(map(_show, v)) + "]"
        if isinstance(v, tuple):
            return "(" + ", ".join(map(_show, v)) + ("," if len(v) == 1 else "") + ")"
        from decimal import Decimal

        return str(Decimal(v))


class FunctorLabError(Exception):
    """Base class for every error this package raises on purpose: `message`,
    with `values` written into it by _show when there are any, and
    `details` for the JSON error document."""

    code = "error"
    exit_code = 1

    def __init__(self, message, *values, **details):
        if values:
            message = message.format(*map(_show, values))
        super().__init__(message)
        self.message = message
        self.details = details


class InvalidInput(FunctorLabError):
    code = "invalid_input"
    exit_code = 2


class DimensionMismatch(FunctorLabError):
    code = "dimension_mismatch"
    exit_code = 2


class DimensionTooLarge(FunctorLabError):
    code = "dimension_too_large"
    exit_code = 2


class SearchSpaceTooLarge(FunctorLabError):
    code = "search_space_too_large"
    exit_code = 2


class NotSymmetric(FunctorLabError):
    code = "not_symmetric"


class NotASquareRoot(FunctorLabError):
    code = "not_a_square_root"


class KNotPerfectSquare(FunctorLabError):
    code = "k_not_perfect_square"


class NotDecomposable(FunctorLabError):
    code = "not_decomposable"


class NotIdempotent(FunctorLabError):
    code = "not_idempotent"


class NotASolution(FunctorLabError):
    code = "not_a_solution"


class NotARoot(FunctorLabError):
    code = "not_a_root"


class NotInvariant(FunctorLabError):
    code = "not_invariant"


class RelationNotSatisfied(FunctorLabError):
    code = "relation_not_satisfied"


class EmptySubset(FunctorLabError):
    code = "empty_subset"


class EmptyComplement(FunctorLabError):
    code = "empty_complement"


class InternalFault(FunctorLabError):
    """A condition the underlying theory excludes.  Cannot be triggered by
    well-formed input; seeing it means a bug or deliberately corrupt data."""

    code = "internal_fault"
    exit_code = 3


class ShapeViolation(InternalFault):
    code = "shape_violation"


class NotAPermutationMatrix(InternalFault):
    # a root of the identity over nonnegative integers is forced to be a
    # permutation matrix, so this cannot co-occur with a verified root
    code = "not_a_permutation_matrix"
