"""Canonical block form of square roots of k times the identity.

Over the nonnegative integers, M^2 = k*I with k >= 1 forces a very rigid
shape.  M^(-1) = M/k is nonnegative too, so M is monomial (one nonzero entry
in each row and column), and the columns of those entries form an involution
because M^2 is diagonal.  After a relabeling, M is a direct sum of 2x2 blocks
[[0, a], [b, 0]] with a*b = k and 1x1 blocks [a] with a^2 = k; for k = 0 only
the zero matrix has this shape, and every such shape squares to k*I.  The
readers read the input once with zmatrix._monomial_form, each row's one
nonzero column and value, and test the block shape on those, so a match
proves M^2 = k*I with no matrix product; only an input without the shape
squares M, for the witness.
Symmetry collapses every 2x2 block to a = b, so symmetric square roots exist
iff k is a perfect square and are exactly sqrt(k) times a symmetric
permutation matrix.
"""

from math import isqrt

from .errors import (
    InternalFault,
    KNotPerfectSquare,
    NotASquareRoot,
    NotDecomposable,
)
from .zmatrix import (
    NatMatrix,
    Permutation,
    _Record,
    _block_rows,
    _check_cap,
    _check_symmetric,
    _conjugate_rows,
    _first_mismatch,
    _monomial_form,
    _power,
    _raise_mismatch,
    _require_int,
    _scalar_rows,
    canonical_cap,
    scalar_mul,
)


class Block1(_Record):
    """1x1 block [a] with a^2 = k."""

    a: int


class Block2(_Record):
    """2x2 block [[0, a], [b, 0]] with a*b = k and a, b >= 1."""

    a: int
    b: int


class BlockForm(_Record):
    """A relabeling perm and block list with conj(m, perm) block diagonal."""

    perm: Permutation
    blocks: tuple
    k: int

    def recompose(self):
        """The original matrix: undo the relabeling of the block diagonal."""
        blocks = [((b.a,),) if isinstance(b, Block1) else ((0, b.a), (b.b, 0))
                  for b in self.blocks]
        if sum(map(len, blocks)) != self.perm.n:
            raise InternalFault("block sizes do not add up to the dimension")
        return NatMatrix(_conjugate_rows(_block_rows(blocks), self.perm.inverse().images))


class SqrtClassification(_Record):
    """A symmetric square root of k*I: root*P for an involutive permutation P.

    root is isqrt(k); it is 0 exactly when k = 0 and the matrix is zero, in
    which case the involution is the identity.
    """

    root: int
    involution: Permutation

    def matrix(self):
        return scalar_mul(self.root, self.involution.matrix())


def _verify_square(m, k):
    _raise_mismatch(_first_mismatch(_power(m.entries, 2), _scalar_rows(m.n, k)),
                    NotASquareRoot, "(M^2)[{0}][{1}] = {2}, expected {3}")


def _block_form(e, k):
    # (order, blocks) when e is monomial with involutive images whose paired
    # values multiply to k, else None; for k >= 1 that is exactly e^2 = k*I,
    # and for k = 0 only the zero matrix passes
    form = _monomial_form(e)
    if form is None:
        return None
    images, values = form
    order, blocks = [], []
    for i, j in enumerate(images):
        if images[j] != i or values[i] * values[j] != k:
            return None
        if i == j:
            blocks.append(Block1(values[i]))
            order.append(i)
        elif i < j:
            blocks.append(Block2(values[i], values[j]))
            order += (i, j)
    return order, blocks


def decompose(m, k):
    """Split a square root of k*I into its forced blocks.

    Returns a BlockForm whose recompose() equals m, with the blocks in order
    of their least original index.  Raises NotASquareRoot if M^2 != k*I, and
    NotDecomposable in the one genuinely blockless situation: k = 0 with m
    nonzero (a nonzero nilpotent has no such block shape); its index is the
    first index with a nonzero row or column.
    """
    _require_int(k, "k", 0)
    form = _block_form(m.entries, k)
    if form is None:
        _verify_square(m, k)
        # M^2 = k*I holds, so the shape is forced unless m is a nonzero
        # nilpotent (k = 0)
        e = m.entries
        if k == 0:
            i = next(i for i, row in enumerate(e) if any(row) or any(r[i] for r in e))
            raise NotDecomposable("index {} has no partner and a nonzero row or column",
                                  i + 1, index=i + 1, k=k)
        raise InternalFault("a square root of {}*I is not a monomial involution", k)
    order, blocks = form
    # the relabeling sends original index order[p] to p; order is a
    # permutation by construction, and so is its inverse
    return BlockForm(Permutation._trusted(tuple(order)).inverse(), tuple(blocks), k)


def classify_selfadjoint_sqrt(m, k):
    """Classify a symmetric solution of M^2 = k*I as sqrt(k) * involution.

    Checks, in order: symmetry, k being a perfect square, M^2 = k*I.  Each
    failure raises (NotSymmetric, KNotPerfectSquare, NotASquareRoot); note a
    symmetric square root can only exist for perfect-square k, so the middle
    check rejecting first is not a loss.
    """
    _require_int(k, "k", 0)
    _check_symmetric(m)
    root = isqrt(k)
    if root * root != k:
        raise KNotPerfectSquare(
            "no symmetric square root of {0}*I exists: {0} is not a perfect square", k, k=k
        )
    # a symmetric monomial matrix permutes by an involution, so root times it
    # squares to k*I; the zero matrix (k = 0) reads as the identity
    form = _monomial_form(m.entries)
    if form is None or form[1] != (root,) * m.n:
        _verify_square(m, k)
        raise InternalFault(
            "a symmetric square root of {}*I is not {} times a permutation matrix", k, root
        )
    return SqrtClassification(root, Permutation(form[0]))


def enumerate_involutions(n):
    """All involutive permutations of n letters, lexicographic by image tuple.

    Counts follow the telephone numbers 1, 1, 2, 4, 10, 26, 76, 232, 764, ...
    Generated directly, not by filtering n! permutations: the smallest
    unplaced point is fixed first, then paired with each larger unplaced
    point in ascending order, which is the lexicographic order because every
    earlier image is already set.  n is capped like canonical_rep (default 8,
    overridable via the FUNCTORLAB_CANON_CAP environment variable).
    """
    _require_int(n, "n", 1)
    _check_cap(n, canonical_cap(),
               "involution enumeration dimension is capped by FUNCTORLAB_CANON_CAP")
    out = []
    images = [None] * n
    build = Permutation._trusted

    def extend(i):
        # i: the smallest point that may still be unplaced
        while i < n and images[i] is not None:
            i += 1
        if i == n:
            out.append(build(tuple(images)))
            return
        for j in range(i, n):
            if images[j] is None:
                images[i], images[j] = j, i
                extend(i + 1)
                images[i] = images[j] = None

    extend(0)
    return out
