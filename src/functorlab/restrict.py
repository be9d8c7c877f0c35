"""Invariant index subsets, restriction of relations, and a Cartan checker.

A subset S of the indices is invariant for M when no column of S leaks mass
outside S; then the S x S corner of M describes the action on the subquotient
generated by S (Serre restriction) and the complementary corner of the
transpose describes the quotient action.  A relation satisfied by M passes to
both corners.

In the support digraph, column v feeds row i when M[i][v] != 0.  The
invariant subsets are exactly its successor-closed sets (the order ideals of
its strongly connected component condensation), and they index the Serre
subcategories the functor preserves.  `invariant_subsets` enumerates them
from reachability bitmasks in time proportional to their number.

`cartan_check` certifies, over the rationals, that a symmetric-matrix family
commuting with a candidate Cartan matrix forces that matrix to be scalar:
commutation is checked exactly, then irreducibility of the family via the
dimension of the algebra it spans (a span of n^2 is decisive), with a
reducibility witness search through integer eigenvectors as the fallback.
That search finds every integer eigenvalue of every generator (exact root
isolation, `_integer_roots`), but a family whose invariant subspaces meet
no integer eigenspace still escapes it: the checker is sound but
incomplete, and `inconclusive` is a possible verdict, never a wrong one.
The span is computed mod 2 first, on row bitmasks: n^2 words independent
mod 2 have an odd, so nonzero, determinant, so a full span mod 2 is a full
span over Q, and only a span that falls short mod 2 is computed again
exactly.  All other arithmetic is exact integer, fraction-free: elimination
cross-multiplies integer rows (as in Bareiss, Math. Comp. 22, 1968) and
keeps each echelon row as the primitive integer multiple of the row
rational elimination would keep, so every rank, kernel and verdict is the
one over Q.
"""

from math import gcd, isqrt

from .errors import (
    DimensionMismatch,
    EmptyComplement,
    EmptySubset,
    InternalFault,
    InvalidInput,
    NotInvariant,
    NotSymmetric,
    RelationNotSatisfied,
)
from .zmatrix import (
    NatMatrix,
    _Record,
    _check_cap,
    _derivatives,
    _first_mismatch,
    _horner,
    _is_int,
    _mul_rows,
    _poly_rows,
    _raise_mismatch,
    _reach_masks,
    _require_int,
    _scalar_rows,
    _sign_changes,
)

_SUBSET_ENUM_CAP = 20


class IndexSubset(_Record):
    """Subset of {1..n}, stored sorted; members are 1-based indices."""

    n: int
    members: tuple

    def __post_init__(self):
        _require_int(self.n, "n", 1)
        seen = set()
        for i in self.members:
            if type(i) is not int and not _is_int(i):  # plain ints skip the call
                raise InvalidInput("subset members must be integers, got {}", i)
            if not 1 <= i <= self.n:
                raise InvalidInput("subset member {} outside 1..{}", i, self.n)
            if i in seen:
                raise InvalidInput("duplicate subset member {}", i)
            seen.add(i)
        object.__setattr__(self, "members", tuple(sorted(seen)))

    @property
    def size(self):
        return len(self.members)

    def complement(self):
        inside = set(self.members)
        return IndexSubset(
            self.n, tuple(i for i in range(1, self.n + 1) if i not in inside)
        )

    def zero_based(self):
        return tuple(i - 1 for i in self.members)


def _check_dims(m, subset):
    if m.n != subset.n:
        raise DimensionMismatch("matrix is {0}x{0} but subset lives in 1..{1}", m.n, subset.n)


def is_invariant_subset(m, subset):
    """True when every column of S is supported inside S."""
    _check_dims(m, subset)
    return _invariance_witness(m, subset) is None


def _invariance_witness(m, subset):
    # first leak (row, column), 1-based, scanning S's columns in order
    columns = subset.zero_based()
    inside = set(columns)
    outside = [i for i in range(m.n) if i not in inside]
    for j in columns:
        for i in outside:
            if m.entries[i][j]:
                return (i + 1, j + 1)
    return None


def invariant_subsets(m):
    """All invariant subsets, ordered by size then lexicographically.

    Branch on the smallest undecided index v: take it with everything it
    reaches, or leave it out with everything that reaches it.  Taken indices
    stay successor-closed and left-out ones ancestor-closed, so neither branch
    can conflict: every leaf is a distinct invariant subset, and the search
    has fewer than twice as many nodes as there are subsets.
    """
    n = m.n
    _check_cap(n, _SUBSET_ENUM_CAP, "invariant subsets can number 2^n")
    reach = _reach_masks(m.entries)
    # anc[v]: v and every index that reaches v
    anc = [sum(1 << u for u in range(n) if reach[u] >> v & 1) for v in range(n)]
    full = (1 << n) - 1
    found = []
    stack = [(0, 0)]  # (taken, decided) index bitmasks
    while stack:
        taken, decided = stack.pop()
        if decided == full:
            found.append(tuple(i + 1 for i in range(n) if taken >> i & 1))
            continue
        free = full & ~decided
        v = (free & -free).bit_length() - 1
        stack.append((taken, decided | anc[v]))
        stack.append((taken | reach[v], decided | reach[v]))
    found.sort(key=lambda members: (len(members), members))
    return [IndexSubset._trusted(n, members) for members in found]


def _require_invariant(m, subset):
    witness = _invariance_witness(m, subset)
    if witness is not None:
        i, j = witness
        value = m.entries[i - 1][j - 1]
        raise NotInvariant("column {} leaks outside the subset at row {} (entry {})", j, i,
                           value, position=(i, j), value=value)


def _corner(m, idx):
    return NatMatrix._trusted(
        tuple(tuple(m.entries[i][j] for j in idx) for i in idx)
    )


def restrict_serre(m, subset):
    """The S x S corner of an S-invariant matrix."""
    _check_dims(m, subset)
    if subset.size == 0:
        raise EmptySubset("cannot restrict to the empty subset")
    _require_invariant(m, subset)
    return _corner(m, subset.zero_based())


def restrict_quotient(m, subset):
    """The complementary corner of the transpose of an S-invariant matrix."""
    _check_dims(m, subset)
    comp = subset.complement()
    if comp.size == 0:
        raise EmptyComplement("quotient by the full subset is empty")
    _require_invariant(m, subset)
    return _corner(m.transpose(), comp.zero_based())


def preserves_add(m, subset):
    """Whether the transpose keeps every column of the subset inside it.

    Concretely: the block with rows in the subset and columns outside it
    vanishes.  Equivalent to is_invariant_subset(m, complement), the two
    sides of one duality.
    """
    _check_dims(m, subset)
    return is_invariant_subset(m.transpose(), subset)


class DescentReport(_Record):
    """Outcome of pushing a relation to the two corners of an invariant subset.

    A corner is None when that side is empty (empty subset or full subset);
    present corners always satisfy the relation, this being forced.
    """

    ambient_satisfied: bool
    serre: NatMatrix = None
    quotient: NatMatrix = None


def relation_descends(m, subset, rel):
    """Check rel on m and restrict it to both corners.

    The corners need no check of their own: with S first, an S-invariant M
    is block upper triangular, so each corner of g(M) (of g(M)^T = g(M^T) for
    the quotient) is g of that corner, and g(M) = h(M) passes to both.
    """
    _check_dims(m, subset)
    _require_invariant(m, subset)
    _raise_mismatch(_first_mismatch(_poly_rows(rel.g, m.entries), _poly_rows(rel.h, m.entries)),
                    RelationNotSatisfied,
                    "g(M)[{0}][{1}] = {2} but h(M) there is {3}", names=("lhs", "rhs"))
    serre = _corner(m, subset.zero_based()) if subset.size else None
    quotient = (_corner(m.transpose(), subset.complement().zero_based())
                if subset.size < subset.n else None)
    return DescentReport(True, serre, quotient)


# -- fraction-free integer linear algebra for the Cartan checker -------------

def _primitive(vec):
    """A nonzero integer vector divided by the gcd of its entries, with its
    first nonzero entry made positive."""
    g = gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


class _IntegerSpan:
    """Growing echelon basis of a rational span, held in integers.

    Each row is (pivot, vector) with a primitive integer vector whose first
    nonzero entry sits at the pivot and is positive; rows stay sorted by
    pivot.  A row is a positive multiple of the pivot-1 row that rational
    elimination would keep, so the span, its dimension and every
    independence decision are the ones over Q.
    """

    def __init__(self):
        self.rows = []  # (pivot index, vector) sorted by pivot

    def residue(self, vec):
        """A nonzero multiple of vec reduced to 0 at every pivot: at each
        pivot, vec becomes p*vec - c*row with c = vec[pivot] and
        p = row[pivot], both divided by their gcd first."""
        vec = list(vec)
        for pivot, row in self.rows:
            c = vec[pivot]
            if c:
                p = row[pivot]
                g = gcd(c, p)
                c //= g
                p //= g
                vec = [p * x - c * y for x, y in zip(vec, row)]
        return vec

    def add(self, vec):
        """Insert vec if independent; True when the span grew."""
        vec = self.residue(vec)
        pivot = next((t for t, x in enumerate(vec) if x), None)
        if pivot is None:
            return False
        self.rows.append((pivot, _primitive(vec)))
        self.rows.sort(key=lambda pr: pr[0])
        return True


def _flatten(rows):
    return [x for row in rows for x in row]


def _gf2_rows(rows):
    """An integer matrix mod 2 as row bitmasks: bit j of row i is entry
    (i, j) mod 2."""
    return tuple(sum((x & 1) << j for j, x in enumerate(row)) for row in rows)


def _gf2_mul(a, b):
    """Product of two bitmask matrices mod 2: row i is the XOR of the rows of
    b picked by the bits of row i of a."""
    out = []
    for row in a:
        acc = 0
        while row:
            low = row & -row
            acc ^= b[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return tuple(out)


def _gf2_span(n):
    """Insert function of a growing span of n x n bitmask matrices over GF(2):
    each matrix is flattened to one n^2-bit int and reduced against an
    echelon keyed by top bit; True when the span grew."""
    echelon = {}  # top bit -> vector

    def add(rows):
        vec = 0
        for row in rows:
            vec = vec << n | row
        while vec:
            top = vec.bit_length() - 1
            pivot = echelon.get(top)
            if pivot is None:
                echelon[top] = vec
                return True
            vec ^= pivot
        return False

    return add


def _closure_dim(seeds, gens, act, add, full):
    """Dimension, up to full, of the least span that holds seeds and is
    closed under x -> act(x, g) for every g in gens, with the span insert add.

    Breadth first: each element that grows the span is acted on by every
    generator.  An element that does not grow it is a combination of ones
    that did, and act is linear in x, so its images are combinations of
    theirs: the closure found is the least closed span.  The queue holds
    exactly the elements that grew the span, so its length is the dimension.
    """
    queue = [x for x in seeds if add(x)]
    at = 0
    while at < len(queue) < full:
        for g in gens:
            y = act(queue[at], g)
            if add(y):
                queue.append(y)
        at += 1
    return len(queue)


def _words_span_all(gens, n):
    """Whether the words in the integer matrices gens span all n x n rational
    matrices: mod 2 first, exactly only when mod 2 falls short (the
    soundness argument is in cartan_check)."""
    full = n * n
    words = [_scalar_rows(n, 1)] + gens  # the empty word, then each generator
    bits = [_gf2_rows(g) for g in words]
    if _closure_dim(bits, bits[1:], _gf2_mul, _gf2_span(n), full) == full:
        return True
    span = _IntegerSpan()
    exact = _closure_dim(words, gens, _mul_rows, lambda rows: span.add(_flatten(rows)), full)
    return exact == full


def _char_poly(rows):
    """Monic characteristic polynomial, descending integer coefficients.

    Faddeev-LeVerrier in integers: M_1 = A, c_k = -tr(M_k) / k and
    M_(k+1) = A (M_k + c_k I).  Every c_k and M_k of an integer matrix is
    integral, so each division is exact.
    """
    n = len(rows)
    coeffs = [1]
    mk = rows
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise InternalFault("characteristic polynomial came out non-integer")
        coeffs.append(ck)
        if k < n:
            shifted = [list(r) for r in mk]
            for i in range(n):
                shifted[i][i] += ck
            mk = _mul_rows(rows, shifted)
    return coeffs


def _integer_roots(coeffs):
    """Every integer root, ascending, of a monic integer polynomial
    (descending coefficients) whose roots are all real, as a characteristic
    polynomial of a symmetric matrix is.

    With only real roots, Budan-Fourier counts exactly: the roots in (a, b]
    number V(a) - V(b) (zmatrix._sign_changes).  A root of a monic integer
    polynomial is an integer or irrational, and lies within
    sqrt(c1^2 - 2 c2) of 0 (the sum of the squared roots), so bisecting
    [t, u] on the counts at t - 1/2 and u + 1/2 isolates every integer
    root, which Horner's rule then confirms.
    """
    derivs = _derivatives(coeffs)

    def changes(num):  # V(num / 2)
        return _sign_changes(derivs, num, 2)

    c1, c2 = (derivs[0] + [0, 0])[1:3]
    r = isqrt(c1 * c1 - 2 * c2)
    roots = []
    stack = [(-r, r, changes(-2 * r - 1), changes(2 * r + 1))]
    while stack:
        t, u, vt, vu = stack.pop()
        if vt == vu:
            continue
        if t == u:
            if _horner(derivs[0], t) == 0:
                roots.append(t)
            continue
        mid = (t + u) // 2
        vm = changes(2 * mid + 1)
        stack += [(mid + 1, u, vm, vu), (t, mid, vt, vm)]  # left half first
    return roots


def _kernel_basis(rows):
    """Primitive integer basis of the rational kernel: for each free column in
    order, the solution with that column 1 and the other free columns 0."""
    n = len(rows)
    span = _IntegerSpan()
    for row in rows:
        span.add(row)
    pivots = {pivot for pivot, _ in span.rows}
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [0] * n
        vec[free] = 1
        for pivot, row in reversed(span.rows):  # back-substitute, last pivot first
            # row . vec = 0 needs vec[pivot] = -s / p: scale vec by p / gcd(s, p)
            s = sum(row[t] * vec[t] for t in range(pivot + 1, n))
            p = row[pivot]
            g = gcd(s, p)
            vec = [p // g * x for x in vec]
            vec[pivot] = -s // g
        basis.append(_primitive(vec))
    return basis


def _apply(rows, vec):
    return [sum(x * v for x, v in zip(row, vec)) for row in rows]


# -- the checker itself ------------------------------------------------------

class CartanInstance(_Record):
    """Candidate Cartan matrix plus the symmetric family acting on it."""

    cartan: NatMatrix
    functors: tuple

    def __post_init__(self):
        functors = tuple(self.functors)
        if not functors:
            raise InvalidInput("the functor family must be nonempty")
        for idx, f in enumerate(functors):
            if f.n != self.cartan.n:
                raise DimensionMismatch("functor {0} is {1}x{1} but the Cartan matrix is {2}x{2}",
                                        idx + 1, f.n, self.cartan.n)
            if not f.is_symmetric():
                raise NotSymmetric("functor {} is not symmetric", idx + 1, index=idx + 1)
        object.__setattr__(self, "functors", functors)


class CartanVerdict(_Record):
    """kind: pass | fail_commutation | reducible | inconsistent_input |
    inconclusive.

    pass carries the scalar; fail_commutation carries the offending functor,
    position, and both product values there; reducible carries a functor, an
    integer eigenvalue, and an integer basis of a proper invariant subspace.
    inconsistent_input would mean commutation plus a provably irreducible
    family with a non-scalar Cartan matrix, which no genuine module category
    produces; it is defensively distinct from pass.  inconclusive means the
    incomplete reducibility search found nothing either way.
    """

    kind: str
    scale: int = None
    functor: int = None
    position: tuple = None
    left: int = None
    right: int = None
    eigenvalue: int = None
    basis: tuple = None


def cartan_check(instance):
    """Whether the commuting symmetric family forces a scalar Cartan matrix.

    The tests run in this order, and the first to decide gives the verdict:

    1. Commutation, functor by functor: the first F with F C != C F gives
       fail_commutation at the first differing entry.
    2. The span of the words in the family, the empty word included.  When
       it is all n^2 matrices, no proper subspace is invariant and the
       commutant is the scalars: pass with C's scale if C is scalar,
       inconsistent_input at its first off-scalar entry if not.  The span is
       computed mod 2 first, on row bitmasks.  Every word is an integer
       matrix, and n^2 words independent mod 2 have an odd, so nonzero,
       n^2 x n^2 determinant: they are independent over Q, and the exact
       span is full too.  The converse fails (a generator with only even
       entries vanishes mod 2), so when mod 2 falls short the exact integer
       span decides.  The verdict is the same either way.
    3. The reducibility search: for each functor and each integer eigenvalue,
       the closure of its eigenspace under the family; a proper closure
       gives reducible with that basis.
    4. Otherwise inconclusive.
    """
    c = instance.cartan
    n = c.n
    for idx, f in enumerate(instance.functors):
        fc = _mul_rows(f.entries, c.entries)
        bad = _first_mismatch(fc, _mul_rows(c.entries, f.entries))
        if bad is not None:
            pos, left, right = bad
            return CartanVerdict(
                "fail_commutation", functor=idx + 1, position=pos, left=left, right=right
            )
    gens = [f.entries for f in instance.functors]
    if _words_span_all(gens, n):
        scale = c.entries[0][0]
        bad = _first_mismatch(c.entries, _scalar_rows(n, scale))
        if bad is not None:
            return CartanVerdict("inconsistent_input", position=bad[0])
        return CartanVerdict("pass", scale=scale)
    # fallback: hunt for a proper subspace invariant under the whole family,
    # grown from each integer eigenspace of each generator in turn (every
    # integer eigenvalue is found)
    for idx, f in enumerate(instance.functors):
        for ev in _integer_roots(_char_poly(f.entries)):
            shifted = [
                [x - (ev if i == j else 0) for j, x in enumerate(row)]
                for i, row in enumerate(f.entries)
            ]
            kernel = _kernel_basis(shifted)
            if not kernel:
                continue
            sub = _IntegerSpan()
            if _closure_dim(kernel, gens, lambda v, g: _apply(g, v), sub.add, n) < n:
                basis = tuple(row for _, row in sub.rows)
                return CartanVerdict(
                    "reducible", functor=idx + 1, eigenvalue=ev, basis=basis
                )
    return CartanVerdict("inconclusive")
