"""Structure theory for symmetric solutions of one-variable matrix relations.

Symmetry (the matrix shadow of selfadjointness) makes these relations very
restrictive over the nonnegative integers:

* idempotents are diagonal 0/1 matrices, so a symmetric idempotent is the
  projection onto a subset of the indices;
* nilpotents are zero;
* M^k = M^m with k > m >= 1 forces either an idempotent (k - m odd) or a 0/1
  "partial involution": a symmetric permutation matrix on a subset of the
  indices, zero elsewhere (k - m even);
* M^e = I forces a permutation matrix, symmetric exactly when its order is
  at most 2.

Each forced shape also solves its equation: D^j = D for a 0/1 diagonal D and
j >= 1, and a 0/1 partial involution P has P^3 = P, so P^k = P^m when k - m
is even.  Every forced shape is monomial, so the classifiers read the input
once with zmatrix._monomial_form, each row's one nonzero column and value,
and test the shape on those: a match proves the equation with no power
computed.  Only an input without the shape has its powers computed, for the
witness position a negative verdict carries; a shape that fails where the
equation holds is an internal fault, never a user error.

Note the partial-involution case reports the permutation on the support only;
distinct functors can share that shadow, so nothing finer is recovered here.
"""

from .errors import (
    InternalFault,
    InvalidInput,
    NotAPermutationMatrix,
    NotARoot,
    NotASolution,
    NotIdempotent,
    ShapeViolation,
)
from .zmatrix import (
    NatMatrix,
    Permutation,
    _Record,
    _check_symmetric,
    _first_mismatch,
    _monomial_form,
    _monomial_rows,
    _power,
    _raise_mismatch,
    _require_int,
    _scalar_rows,
)


def _partial_involution(m):
    # (support, pairing), 1-based, when m is a 0/1 partial involution, else None
    form = _monomial_form(m.entries)
    if form is None or max(form[1]) > 1:
        return None
    images, values = form
    if any(images[j] != i for i, j in enumerate(images)):
        return None
    support = [i for i, v in enumerate(values) if v]
    return tuple(i + 1 for i in support), tuple(images[i] + 1 for i in support)


def _diagonal_support(m):
    # 1-based indices carrying a diagonal 1 when m is a 0/1 diagonal, else
    # None: the partial involution that pairs each index with itself
    shape = _partial_involution(m)
    return shape[0] if shape is not None and shape[0] == shape[1] else None


_NOT_DIAGONAL = "a symmetric idempotent is not a diagonal 0/1 matrix"


class IdempotentClassification(_Record):
    """A symmetric idempotent: the diagonal projection onto `support`."""

    n: int
    support: tuple

    def matrix(self):
        ones = [0] * self.n
        for i in self.support:
            ones[i - 1] = 1
        return NatMatrix(_monomial_rows(range(self.n), ones))


def classify_idempotent(m):
    """Classify symmetric M with M^2 = M by its support.

    A 0/1 diagonal is idempotent, so reading that shape decides the verdict;
    only another matrix has its square computed, for the witness.
    """
    _check_symmetric(m)
    support = _diagonal_support(m)
    if support is None:
        _raise_mismatch(_first_mismatch(_power(m.entries, 2), m.entries), NotIdempotent,
                        "(M^2)[{0}][{1}] = {2} but M there is {3}")
        raise ShapeViolation(_NOT_DIAGONAL)
    return IdempotentClassification(m.n, support)


class CommutingIdempotents(_Record):
    """How two symmetric idempotents split the index set.

    both / a_only / b_only / neither partition {1..n} by which projection
    keeps the index.  Commutation is automatic for diagonal matrices; the
    product is the projection onto `both`.
    """

    n: int
    both: tuple
    a_only: tuple
    b_only: tuple
    neither: tuple
    product: NatMatrix


def check_commuting_idempotents(a, b):
    ca = classify_idempotent(a)
    cb = classify_idempotent(b)
    if a.n != b.n:
        raise InvalidInput("idempotents act on different index sets ({} vs {})", a.n, b.n)
    sa, sb = set(ca.support), set(cb.support)
    both = tuple(sorted(sa & sb))
    return CommutingIdempotents(
        n=a.n,
        both=both,
        a_only=tuple(sorted(sa - sb)),
        b_only=tuple(sorted(sb - sa)),
        neither=tuple(sorted(set(range(1, a.n + 1)) - sa - sb)),
        product=IdempotentClassification(a.n, both).matrix(),
    )


class NilpotencyVerdict(_Record):
    """kind "zero" (the only symmetric nilpotent) or "not_nilpotent" with a
    witness entry of M^power that survived."""

    kind: str
    power: int = None
    position: tuple = None
    value: int = None


def check_nilpotent(m, k):
    """Decide M^k = 0 for symmetric M: zero matrix or a surviving witness."""
    _require_int(k, "nilpotency degree", 1)
    _check_symmetric(m)
    if m.is_zero():
        return NilpotencyVerdict("zero")
    bad = _first_mismatch(_power(m.entries, k), _scalar_rows(m.n, 0))
    if bad is None:
        # symmetric and nonzero: the diagonal of M^2 sums squares, so no power dies
        raise InternalFault("nonzero symmetric matrix with a vanishing power")
    position, value, _ = bad
    return NilpotencyVerdict("not_nilpotent", power=k, position=position, value=value)


class CyclicClassification(_Record):
    """Shape of a symmetric solution of M^k = M^m (k > m >= 1).

    kind "idempotent": M^2 = M, diagonal projection onto support.
    kind "partial_involution": M is 0/1, zero off `support`, and permutes
    `support` by the involution whose images (1-based, aligned with the sorted
    support tuple) are in `pairing`.
    """

    kind: str
    n: int
    support: tuple
    pairing: tuple = None


def classify_cyclic(m, k, mm):
    """Classify symmetric M with M^k = M^m; parity of k - m decides the shape."""
    _require_int(k, "k")
    _require_int(mm, "m")
    if not k > mm >= 1:
        raise InvalidInput("exponents must satisfy k > m >= 1, got k={}, m={}", k, mm)
    _check_symmetric(m)
    odd = (k - mm) % 2 == 1
    shape = _diagonal_support(m) if odd else _partial_involution(m)
    if shape is None:
        _raise_mismatch(_first_mismatch(_power(m.entries, k), _power(m.entries, mm)),
                        NotASolution, "(M^{4})[{0}][{1}] = {2} but (M^{5}) there is {3}", k, mm)
        raise ShapeViolation(_NOT_DIAGONAL if odd else "symmetric solution with "
                             "even exponent gap is not a 0/1 partial involution")
    if odd:
        # odd gap collapses to an idempotent, which is a 0/1 diagonal
        return CyclicClassification("idempotent", m.n, shape)
    return CyclicClassification("partial_involution", m.n, *shape)


class RootOfIdentity(_Record):
    """M with M^e = I: a permutation matrix of the stated order."""

    permutation: Permutation
    order: int
    selfadjoint: bool

    def matrix(self):
        return self.permutation.matrix()


def classify_root_of_identity(m, n_exp):
    """Verify M^e = I and read off the underlying permutation and its order.

    A permutation matrix of order o has M^e = I exactly when o divides e,
    and it is symmetric exactly when o <= 2, its inverse being its
    transpose; so selfadjointness is read off the order.
    """
    _require_int(n_exp, "exponent", 1)
    # one shape read: a permutation matrix has every value 1 and distinct
    # images, and i goes to the row holding column i's 1, the inverse images
    form = _monomial_form(m.entries)
    sigma = None
    if form is not None and form[1] == (1,) * m.n and len(set(form[0])) == m.n:
        sigma = Permutation(form[0]).inverse()
    order = None if sigma is None else sigma.order()
    # a permutation matrix of order o has M^e = M^(e mod o), so any e is cheap
    power = _power(m.entries, n_exp if sigma is None else n_exp % order)
    _raise_mismatch(_first_mismatch(power, _scalar_rows(m.n, 1)), NotARoot,
                    "(M^{4})[{0}][{1}] = {2}, expected {3}", n_exp, power=n_exp)
    if sigma is None:
        raise NotAPermutationMatrix(
            "root of the identity over nonnegative integers must be a "
            "permutation matrix; the verified equation rules this out"
        )
    return RootOfIdentity(sigma, order, order <= 2)
