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

The classifiers verify the claimed equation first (negative verdicts carry a
witness position).  Every forced shape is monomial (at most one nonzero entry
per row), so it is read off each row's nonzero column and proved by one
rebuild compared with the input.  A shape failure after a verified equation
is an internal fault, never a user error.

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
    _monomial_rows,
    _pow_rows,
    _require_int,
    _row_images,
    _scalar_rows,
)


def _diagonal_support(m):
    # 1-based indices carrying a diagonal 1; m must be that 0/1 diagonal (an
    # entry above 1 is rebuilt as 1, so the compare rejects it)
    ones = [min(row[i], 1) for i, row in enumerate(m.entries)]
    if m.entries != _monomial_rows(range(m.n), ones):
        raise ShapeViolation("a symmetric idempotent is not a diagonal 0/1 matrix")
    return tuple(i + 1 for i, one in enumerate(ones) if one)


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
    """Verify M symmetric with M^2 = M and return its support."""
    _check_symmetric(m)
    square = _pow_rows(m.entries, 2)
    bad = _first_mismatch(square, m.entries)
    if bad is not None:
        pos, got, want = bad
        raise NotIdempotent(
            f"(M^2)[{pos[0]}][{pos[1]}] = {got} but M there is {want}",
            position=pos,
            got=got,
            expected=want,
        )
    return IdempotentClassification(m.n, _diagonal_support(m))


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
        raise InvalidInput(
            f"idempotents act on different index sets ({a.n} vs {b.n})"
        )
    ab = a * b
    if ab != b * a:
        raise InternalFault("diagonal idempotents that do not commute")
    sa, sb = set(ca.support), set(cb.support)
    both = tuple(sorted(sa & sb))
    report = CommutingIdempotents(
        n=a.n,
        both=both,
        a_only=tuple(sorted(sa - sb)),
        b_only=tuple(sorted(sb - sa)),
        neither=tuple(sorted(set(range(1, a.n + 1)) - sa - sb)),
        product=ab,
    )
    if ab != IdempotentClassification(a.n, both).matrix():
        raise InternalFault("product of diagonal idempotents is not the "
                            "projection onto the common support")
    return report


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
    power = _pow_rows(m.entries, k)
    for i in range(m.n):
        for j in range(m.n):
            if power[i][j]:
                return NilpotencyVerdict(
                    "not_nilpotent", power=k, position=(i + 1, j + 1),
                    value=power[i][j],
                )
    # symmetric and nonzero: the diagonal of M^2 sums squares, so no power dies
    raise InternalFault("nonzero symmetric matrix with a vanishing power")


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
        raise InvalidInput(f"exponents must satisfy k > m >= 1, got k={k}, m={mm}")
    _check_symmetric(m)
    bad = _first_mismatch(_pow_rows(m.entries, k), _pow_rows(m.entries, mm))
    if bad is not None:
        pos, got, want = bad
        raise NotASolution(
            f"(M^{k})[{pos[0]}][{pos[1]}] = {got} but (M^{mm}) there is {want}",
            position=pos,
            got=got,
            expected=want,
        )
    if (k - mm) % 2 == 1:
        # odd gap collapses to an idempotent, which is a 0/1 diagonal
        return CyclicClassification("idempotent", m.n, _diagonal_support(m))
    images = _row_images(m.entries)
    ones = [min(row[j], 1) for row, j in zip(m.entries, images)]
    if m.entries != _monomial_rows(images, ones) or any(
        images[j] != i for i, j in enumerate(images)
    ):
        raise ShapeViolation(
            "symmetric solution with even exponent gap is not a 0/1 partial involution"
        )
    support = [i for i, one in enumerate(ones) if one]
    return CyclicClassification(
        "partial_involution",
        m.n,
        tuple(i + 1 for i in support),
        tuple(images[i] + 1 for i in support),
    )


class RootOfIdentity(_Record):
    """M with M^e = I: a permutation matrix of the stated order."""

    permutation: Permutation
    order: int
    selfadjoint: bool

    def matrix(self):
        return self.permutation.matrix()


def classify_root_of_identity(m, n_exp):
    """Verify M^e = I and read off the underlying permutation and its order.

    Selfadjointness (symmetry) holds exactly for orders 1 and 2; both the
    order test and the symmetry test are run and cross-checked.
    """
    _require_int(n_exp, "exponent", 1)
    # one permutation check, then i goes to the row holding column i's 1
    sigma = (Permutation(_row_images(tuple(zip(*m.entries))))
             if m.is_permutation_matrix() else None)
    # a permutation matrix of order o has M^e = M^(e mod o), so any e is cheap
    power = _pow_rows(m.entries, n_exp if sigma is None else n_exp % sigma.order())
    bad = _first_mismatch(power, _scalar_rows(m.n, 1))
    if bad is not None:
        pos, got, want = bad
        raise NotARoot(
            f"(M^{n_exp})[{pos[0]}][{pos[1]}] = {got}, expected {want}",
            position=pos,
            got=got,
            expected=want,
            power=n_exp,
        )
    if sigma is None:
        raise NotAPermutationMatrix(
            "root of the identity over nonnegative integers must be a "
            "permutation matrix; the verified equation rules this out"
        )
    order = sigma.order()
    if n_exp % order:
        raise InternalFault(f"permutation order {order} does not divide {n_exp}")
    selfadjoint = order <= 2
    if selfadjoint != m.is_symmetric():
        raise InternalFault("symmetry and order <= 2 disagree on a permutation matrix")
    return RootOfIdentity(sigma, order, selfadjoint)
