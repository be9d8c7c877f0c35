"""Canonical block form of square roots of k times the identity.

Over the nonnegative integers, M^2 = k*I forces a very rigid shape: after a
relabeling of the indices, M is a direct sum of 2x2 blocks [[0, a], [b, 0]]
with a*b = k and 1x1 blocks [a] with a^2 = k.  The decomposition here walks
the smallest unplaced index, finds its forced partner (or fixes it), and never
searches.  Symmetry collapses every 2x2 block to a = b, so symmetric square
roots exist iff k is a perfect square and are exactly sqrt(k) times a
symmetric permutation matrix.
"""

from dataclasses import dataclass
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
    _check_canon_cap,
    _check_symmetric,
    _first_mismatch,
    _mul_rows,
    _require_int,
    _scalar_rows,
    scalar_mul,
)


@dataclass(frozen=True)
class Block1:
    """1x1 block [a] with a^2 = k."""

    a: int


@dataclass(frozen=True)
class Block2:
    """2x2 block [[0, a], [b, 0]] with a*b = k and a, b >= 1."""

    a: int
    b: int


@dataclass(frozen=True)
class BlockForm:
    """A relabeling perm and block list with conj(m, perm) block diagonal."""

    perm: Permutation
    blocks: tuple
    k: int

    def block_diagonal(self):
        n = self.perm.n
        rows = [[0] * n for _ in range(n)]
        pos = 0
        for block in self.blocks:
            if isinstance(block, Block1):
                rows[pos][pos] = block.a
                pos += 1
            else:
                rows[pos][pos + 1] = block.a
                rows[pos + 1][pos] = block.b
                pos += 2
        if pos != n:
            raise InternalFault("block sizes do not add up to the dimension")
        return NatMatrix(tuple(tuple(r) for r in rows))

    def recompose(self):
        """The original matrix: undo the relabeling of the block diagonal."""
        from .zmatrix import conjugate

        return conjugate(self.block_diagonal(), self.perm.inverse())


@dataclass(frozen=True)
class SqrtClassification:
    """A symmetric square root of k*I: root*P for an involutive permutation P.

    root is isqrt(k); it is 0 exactly when k = 0 and the matrix is zero, in
    which case the involution is the identity.
    """

    root: int
    involution: Permutation

    def matrix(self):
        return scalar_mul(self.root, self.involution.matrix())


def _verify_square(m, k):
    bad = _first_mismatch(_mul_rows(m.entries, m.entries), _scalar_rows(m.n, k))
    if bad is not None:
        pos, got, want = bad
        raise NotASquareRoot(
            f"(M^2)[{pos[0]}][{pos[1]}] = {got}, expected {want}",
            position=pos,
            got=got,
            expected=want,
        )


def decompose(m, k):
    """Split a verified square root of k*I into its forced blocks.

    Returns a BlockForm whose recompose() equals m.  Raises NotASquareRoot if
    M^2 != k*I, and NotDecomposable in the one genuinely blockless situation:
    k = 0 with m nonzero (a nonzero nilpotent has no such block shape).
    """
    _require_int(k, "k", 0)
    _verify_square(m, k)
    n = m.n
    e = m.entries
    remaining = list(range(n))
    order = []
    blocks = []
    while remaining:
        i = remaining[0]
        if e[i][i]:
            # fixed index: its row and column must vanish elsewhere, since
            # (M^2)[i][j] picks up e[i][i]*e[i][j] with no negative terms
            if e[i][i] * e[i][i] != k:
                raise InternalFault(
                    f"diagonal entry {e[i][i]} at index {i + 1} squares to "
                    f"{e[i][i] ** 2}, not {k}"
                )
            for t in range(n):
                if t != i and (e[i][t] or e[t][i]):
                    raise InternalFault(
                        f"fixed index {i + 1} has off-diagonal mass at {t + 1}"
                    )
            blocks.append(Block1(e[i][i]))
            order.append(i)
            remaining.remove(i)
            continue
        partners = [j for j in remaining[1:] if e[i][j] and e[j][i]]
        if not partners:
            if any(e[i][t] or e[t][i] for t in range(n) if t != i):
                # only reachable for k = 0: a nonzero nilpotent row with no
                # two-cycle partner fits no block
                raise NotDecomposable(
                    f"index {i + 1} has no partner and a nonzero row or column",
                    index=i + 1,
                    k=k,
                )
            blocks.append(Block1(0))
            order.append(i)
            remaining.remove(i)
            continue
        if len(partners) > 1:
            raise InternalFault(
                f"index {i + 1} pairs with several partners {sorted(x + 1 for x in partners)}"
            )
        j = partners[0]
        a, b = e[i][j], e[j][i]
        if a * b != k:
            raise InternalFault(
                f"pair ({i + 1}, {j + 1}) has weight product {a * b}, not {k}"
            )
        for t in range(n):
            if t not in (i, j) and (e[i][t] or e[t][i] or e[j][t] or e[t][j]):
                raise InternalFault(
                    f"pair ({i + 1}, {j + 1}) has mass outside the block at {t + 1}"
                )
        blocks.append(Block2(a, b))
        order.extend((i, j))
        remaining.remove(i)
        remaining.remove(j)
    images = [0] * n
    for pos, original in enumerate(order):
        images[original] = pos
    form = BlockForm(Permutation(tuple(images)), tuple(blocks), k)
    if form.recompose() != m:
        raise InternalFault("block form does not recompose to the input")
    return form


def classify_selfadjoint_sqrt(m, k):
    """Classify a symmetric solution of M^2 = k*I as sqrt(k) * involution.

    Checks, in order: symmetry, k being a perfect square, M^2 = k*I.  Each
    failure raises (NotSymmetric, KNotPerfectSquare, NotASquareRoot); note a
    symmetric square root can only exist for perfect-square k, so the middle
    check rejecting first is not a loss.
    """
    _require_int(k, "k", 0)
    _check_symmetric(m)
    n = m.n
    e = m.entries
    root = isqrt(k)
    if root * root != k:
        raise KNotPerfectSquare(
            f"no symmetric square root of {k}*I exists: {k} is not a perfect square",
            k=k,
        )
    _verify_square(m, k)
    if root == 0:
        # M symmetric with M^2 = 0 forces M = 0: the diagonal of M^2 sums squares
        if not m.is_zero():
            raise InternalFault("symmetric nilpotent of order two that is nonzero")
        return SqrtClassification(0, Permutation.identity(n))
    images = [0] * n
    for i in range(n):
        hits = [j for j in range(n) if e[i][j]]
        if len(hits) != 1 or e[i][hits[0]] != root:
            raise InternalFault(
                f"row {i + 1} of a symmetric square root is not {root} times a "
                f"permutation row"
            )
        images[i] = hits[0]
    sigma = Permutation(tuple(images))
    if not sigma.is_involution():
        raise InternalFault("support permutation of a symmetric square root "
                            "is not an involution")
    return SqrtClassification(root, sigma)


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
    _check_canon_cap(
        n, "involution enumeration dimension is capped by FUNCTORLAB_CANON_CAP"
    )
    out = []
    images = [None] * n

    def extend(i):
        # i: the smallest point that may still be unplaced
        while i < n and images[i] is not None:
            i += 1
        if i == n:
            out.append(Permutation(tuple(images)))
            return
        for j in range(i, n):
            if images[j] is None:
                images[i], images[j] = j, i
                extend(i + 1)
                images[i] = images[j] = None

    extend(0)
    return out
