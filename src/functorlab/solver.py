"""Exhaustive search for matrix solutions of g(X) = h(X) over Z+.

Given a relation between two Z+ coefficient polynomials, a dimension and an
entry bound, `solve` enumerates every matrix (or every symmetric matrix) with
entries in 0..bound and keeps those satisfying the relation exactly.  The
search is a depth-first fill in a fixed entry order (row-major; upper triangle
row-major when symmetric) with one sound pruning rule, interval bounds.  Let
L be the partial matrix with every unset entry at 0 and U the same matrix
with every unset entry at the bound.  Over Z+ with nonnegative coefficients
every entry of a polynomial in X is nondecreasing in every entry of X, so any
completion X of the partial matrix has g(L) <= g(X) <= g(U) entrywise, and
likewise for h.  A branch is therefore cut as soon as some entry has
g(L) > h(U) or h(L) > g(U).  The rule holds for every relation degree; it cuts
c1*I = c2*I at the first node and a constant side as soon as a diagonal entry
overshoots it.

The bounds are exact integers packed one matrix per Python int, so the row
work runs inside C big-int arithmetic (Kronecker substitution).  Entry (i, j)
sits in an s-bit slot at bit s*(i*n + j); column j of a matrix, packed at
bits s*n*i, is kept beside L and U and changed on every set and undo.  The
next power is M*P = sum over j of column j of M times row j of P: the partial
products land in disjoint slots, and every partial sum is at most the final
entry.  Every entry of L, U, g and h on them is at most
T = max(bound, max over both sides of c_0 + sum_k c_k * n^(k-1) * bound^k),
and s = T.bit_length() + 1, so each value stays below 2^(s-1) and no carry
crosses a slot.  Bit s-1 of each slot is therefore a free guard bit: with G
holding them all, x > y in some slot exactly when ((y | G) - x) & G != G, as
each slot computes 2^(s-1) + y - x > 0 and no borrow crosses it either.

With up_to_iso a second cut rejects isomorphs inside the search (orderly
generation: Read, 1978; McKay, 1998).  When the fill has just completed row
a, rows 0..a are fully set, in the symmetric fill and the row-major fill
alike, so they agree with U.  Every completion X has X <= U entrywise, hence
X^s <= U^s for every simultaneous relabeling s.  If some s makes
U^s[:a+1] lex-smaller than U[:a+1] = X[:a+1], then X^s[:a+1] is lex-smaller
too: before the first entry where U^s and U differ, X^s <= U^s = X, and at
that entry X^s <= U^s < X.  So X^s <lex X and X is not its orbit minimum.
The branch is therefore cut when the first a+1 rows of U's orbit minimum are
lex-smaller than U's own.  zmatrix._orbit_min_rows is told to stop after
a+1 rows, and it ends at the first row that differs from its input's, which
is then the smaller one and decides the test.

The fill is one loop over a stack of pending nodes, not a recursion.  The
stack holds at most one pending sibling per step: popping a node with value
v < bound pushes its next sibling, v + 1, under the node's first child, so
the stack stays O(entries) whatever the bound.  A leaf is a node without
children, decided by the same two cuts: there L = U = X, so the interval
cut is exactly g(X) != h(X), and the orderly cut at the last row end is
exactly "X is not its orbit minimum".  So every limit gives the same output
as filtering the full search.  `brute_force_oracle` is the deliberately
naive cross-check: plain enumeration in the same entry order, dense
evaluation of the unreduced relation, no pruning, and no evaluation code
in common with `solve`.

Results are deterministic: solutions sort by row-major entry order, and
every call runs the one search in the calling process, so `jobs` never
changes the output.

A symmetric up-to-iso search is assembled from connected classes when they
are small.  Read X as the adjacency of its support graph: a disconnected X
is, after relabeling, a direct sum, and g of a direct sum is the direct sum
of g on each block, so the solutions up to isomorphism on n indices are exactly the
direct sums of connected classes whose sizes add up to n, one per multiset
of classes.  Let X be a connected symmetric solution on k indices.  X is at
least the 0/1 adjacency of a spanning tree of its support, and among trees
on k vertices the path has the least spectral radius, 2cos(pi/(k+1))
(Lovasz and Pelikan, Period. Math. Hungar. 3, 1973).  So the Perron root of
X, an eigenvalue and hence a root of p = g - h (reduced), is at least
2cos(pi/(k+1)) > 2 - 10/(k+1)^2.  `_class_size_bound` finds the largest
K <= n for which p may have a root above that bound, by Budan-Fourier sign
changes in integers.  When K < n, the search above, with one more leaf
filter ahead of the orderly cut (the support graph is connected), finds the
connected classes of each size up to K, and every multiset of them summing
to n is built, canonicalised by zmatrix._orbit_min_rows and sorted; `limit`
then takes a prefix as before.  When K >= n, or the search is not both
symmetric and up to iso, it runs as it is.
"""

import itertools

from .errors import InvalidInput, SearchSpaceTooLarge
from .zmatrix import (
    NatMatrix,
    RelationPoly,
    _Record,
    _block_rows,
    _check_cap,
    _derivatives,
    _orbit_min_rows,
    _poly_rows,
    _reach_masks,
    _require_int,
    _show,
    _sign_changes,
    canonical_cap,
)


class SearchConfig(_Record):
    """Search space description: dimension, entry bound, and filters.

    symmetric_only restricts to symmetric matrices; up_to_iso keeps only the
    lexicographically least member of each simultaneous-relabeling orbit (the
    search cuts every subtree whose completed rows already show that no leaf
    below it is canonical, a leaf included, by the canonical form that
    zmatrix._orbit_min_rows finds by a refinement search that branches on
    one index per twin class, not by scanning n! relabelings); with both
    symmetric_only and up_to_iso, and connected classes provably smaller
    than n, the solutions are assembled as direct sums of connected classes
    instead (see the module docstring); limit caps how many solutions are
    emitted (the `complete` flag on the result records whether the cap
    truncated anything).
    """

    n: int
    bound: int
    symmetric_only: bool = False
    up_to_iso: bool = False
    limit: int = None

    def __post_init__(self):
        _require_int(self.n, "n")
        _require_int(self.bound, "bound")
        if self.n < 1:
            raise InvalidInput(f"n must be >= 1, got {_show(self.n)}")
        if self.bound < 0:
            raise InvalidInput(f"bound must be >= 0, got {_show(self.bound)}")
        if self.limit is not None:
            _require_int(self.limit, "limit")
            if self.limit < 1:
                raise InvalidInput(f"limit must be >= 1, got {_show(self.limit)}")


class SolutionSet(_Record):
    """Solutions in ascending row-major order, with the search that made them."""

    config: SearchConfig
    relation: RelationPoly
    solutions: tuple
    complete: bool

    @property
    def count(self):
        return len(self.solutions)


def _fill_positions(n, symmetric):
    if symmetric:
        return [(i, j) for i in range(n) for j in range(i, n)]
    return [(i, j) for i in range(n) for j in range(n)]


def _spread(count, step):
    # a 1 every step bits, count times: sum of 1 << step*t for t < count
    return ((1 << step * count) - 1) // ((1 << step) - 1)


def _packed_kernel(gr, hr, n, bound):
    """Slot width s, sides(m, cols) -> packed (g(m), h(m)), and exceeds(x, y)."""
    t = max(bound, *(sum(c * (n ** (k - 1) * bound ** k if k else 1)
                         for k, c in enumerate(side)) for side in (gr, hr)))
    s = t.bit_length() + 1
    width = s * n  # one packed row
    row_mask = (1 << width) - 1
    guard = _spread(n * n, s) << (s - 1)
    ident = _spread(n, width + s)
    terms = list(itertools.zip_longest(gr, hr, fillvalue=0))
    g0, h0 = (c * ident for c in terms[0])

    def sides(m, cols):
        # one chain of powers for both sides: P_k = M*P_(k-1) is the sum
        # over j of column j of M times row j of P_(k-1)
        g, h, p = g0, h0, m
        for k in range(1, len(terms)):
            if k > 1:
                p = sum([c * ((p >> width * j) & row_mask) for j, c in enumerate(cols) if c])
            a, b = terms[k]
            g += a * p
            h += b * p
        return g, h

    def exceeds(x, y):
        # some slot of x is larger than the same slot of y: the slot's guard
        # bit survives y - x exactly when x <= y there
        return ((y | guard) - x) & guard != guard

    return s, sides, exceeds


def _search_partition(gr, hr, n, bound, symmetric, up_to_iso, cap, connected):
    # the entries each fill step sets: (i, j), and (j, i) when symmetric
    positions = _fill_positions(n, symmetric)
    cells = [((i, j), (j, i)) if symmetric and i != j else ((i, j),) for i, j in positions]
    last = len(cells) - 1  # the step that makes a leaf
    # up_to_iso: step k sets the last entry of row i, so rows 0..i are set;
    # row_end[last] is n, where the orderly cut is the up-to-iso filter
    row_end = ({k: i + 1 for k, (i, j) in enumerate(positions) if j == n - 1}
               if up_to_iso else {})
    s, sides, exceeds = _packed_kernel(gr, hr, n, bound)
    width = s * n
    # a step's value w adds w * unit to packed L and takes (bound - w) * unit off U
    units = [sum(1 << s * (a * n + b) for a, b in cell) for cell in cells]
    # the packed columns of L (unset entries at 0) and U (unset at bound)
    lo_cols, hi_cols = [0] * n, [bound * _spread(n, width)] * n
    top = [[bound] * n for _ in range(n)]  # U as rows, for the orbit cut and leaves

    found, path = [], []  # path: the value set at each step so far
    # pending nodes, the next on top: (the step each sets, its value, and
    # packed L, U and (g, h) on them before that step, one tuple for all
    # siblings); the root sets no step (-1), so L = 0 and U = bound there
    stack = [(-1, None, (0, bound * _spread(n * n, s), None, None))]
    while stack:
        k, v, state = stack.pop()
        lo, hi, low, high = state
        if k >= 0:
            if v < bound:  # the next sibling, popped once this subtree is done
                stack.append((k, v + 1, state))
            while len(path) > k:  # unset the steps from k on
                u = path.pop()
                for a, b in cells[len(path)]:
                    top[a][b] = bound
                    lo_cols[b] -= u << width * a
                    hi_cols[b] += bound - u << width * a
            for a, b in cells[k]:  # then set step k to v
                top[a][b] = v
                lo_cols[b] += v << width * a
                hi_cols[b] -= bound - v << width * a
            path.append(v)
            lo, hi = lo + v * units[k], hi - (bound - v) * units[k]
        # v = 0 leaves L as it was and v = bound leaves U
        low = low if v == 0 else sides(lo, lo_cols)
        high = high if v == bound else sides(hi, hi_cols)
        if exceeds(low[0], high[1]) or exceeds(low[1], high[0]):
            continue
        if k in row_end or k == last:  # at a leaf, connectivity first
            upper, known = tuple(map(tuple, top)), row_end.get(k)
            if (connected and k == last and _reach_masks(upper)[0] != (1 << n) - 1
                    or known and _orbit_min_rows(upper, known) < upper[:known]):
                continue
        if k < last:
            stack.append((k + 1, 0, (lo, hi, low, high)))
        else:  # L = U = X, and the interval cut says g(X) = h(X)
            found.append(upper)
            if len(found) == cap:
                break
    return found


# A fill has at most 900 entries (n <= 30, or n <= 41 symmetric), and the
# search holds one packed n x n state per entry on its path.
_MAX_N = {False: 30, True: 41}


def _class_size_bound(gr, hr, n):
    """K <= n such that no connected symmetric solution has more than K
    indices.

    A connected one on k indices has a Perron root rho >= 2cos(pi/(k+1)) >
    l_k = 2 - 10/(k+1)^2 (cos x > 1 - x^2/2 and pi^2 < 10), and rho is a
    root of p = gr - hr.  p has at most V(l_k) roots above l_k
    (Budan-Fourier, in integers), so V(l_k) = 0 rules out size k, and every
    larger size too: l_k grows with k and V never grows.
    """
    p = [a - b for a, b in itertools.zip_longest(gr, hr, fillvalue=0)]
    derivs = _derivatives(p[::-1])
    k = 0
    while k < n and _sign_changes(derivs, 2 * (k + 2) ** 2 - 10, (k + 2) ** 2) > 0:
        k += 1
    return k


def _direct_sums(gr, hr, n, bound, size):
    """The canonical forms, sorted, of every direct sum of n indices of
    connected classes with at most size indices each."""
    classes = [rows for k in range(1, size + 1)
               for rows in _search_partition(gr, hr, k, bound, True, True, None, True)]
    sums = []
    # multisets of classes, as indices into classes ascending: (least index
    # still allowed, indices left to fill, the blocks so far)
    stack = [(0, n, ())]
    while stack:
        start, left, blocks = stack.pop()
        if not left:
            sums.append(_orbit_min_rows(_block_rows([classes[t] for t in blocks])))
        for t in range(start, len(classes)):
            if len(classes[t]) <= left:
                stack.append((t, left - len(classes[t]), blocks + (t,)))
    return sorted(sums)


def solve(rel, config, jobs=1):
    """All solutions of rel in the space described by config.

    jobs must be a positive integer and changes nothing: every value runs
    the one search in this process, so the result is byte-for-byte the same.
    n is capped at 30 (41 symmetric), so that a fill has at most 900
    entries.  A symmetric up-to-iso search whose connected classes are
    smaller than n assembles its direct sums instead.
    """
    _require_int(jobs, "jobs", 1)
    if config.up_to_iso:
        _check_cap(config.n, canonical_cap(),
                   "up_to_iso dimension is capped by FUNCTORLAB_CANON_CAP")
    _check_cap(config.n, _MAX_N[config.symmetric_only], "solve fills at most 900 entries")
    gr, hr = rel.reduced()
    if config.symmetric_only and config.up_to_iso and (
            size := _class_size_bound(gr, hr, config.n)) < config.n:
        found = _direct_sums(gr, hr, config.n, config.bound, size)
    else:
        cap = None if config.limit is None else config.limit + 1
        found = _search_partition(gr, hr, config.n, config.bound, config.symmetric_only,
                                  config.up_to_iso, cap, False)
    # every entry is an int in 0..bound by construction
    return _solution_set(rel, config, found, NatMatrix._trusted)


def _solution_set(rel, config, found, build):
    """The first config.limit of found, sorted, each made a matrix by build;
    complete when the limit cut nothing."""
    complete = config.limit is None or len(found) <= config.limit
    return SolutionSet(config, rel, tuple(map(build, sorted(found[:config.limit]))), complete)


_ORACLE_SPACE_CAP = 10 ** 8


def _oracle_orbit_is_min(rows):
    # independent of canonical_rep on purpose: relabel via direct lookup
    n = len(rows)
    for p in itertools.permutations(range(n)):
        cand = tuple(tuple(rows[p[a]][p[b]] for b in range(n)) for a in range(n))
        if cand < rows:
            return False
    return True


def brute_force_oracle(rel, config):
    """Same contract as solve, by plain enumeration with no pruning at all.

    Every candidate is built and the unreduced relation evaluated on it
    densely, by code that solve never calls.
    Refuses spaces beyond 10^8 candidates, and n beyond solve's cap: it
    only cross-checks solve, so it needs no larger dimension.
    """
    if config.up_to_iso:
        _check_cap(config.n, canonical_cap(), "up_to_iso filters through n! relabelings")
    _check_cap(config.n, _MAX_N[config.symmetric_only],
               "oracle cross-checks solve and shares its dimension cap")
    n = config.n
    positions = _fill_positions(n, config.symmetric_only)
    space = (config.bound + 1) ** len(positions)
    if space > _ORACLE_SPACE_CAP:
        raise SearchSpaceTooLarge(
            f"{_show(space)} candidates exceed the oracle cap of {_ORACLE_SPACE_CAP}",
            candidates=space,
        )
    g, h = rel.g, rel.h
    cap = None if config.limit is None else config.limit + 1
    found = []
    for values in itertools.product(range(config.bound + 1), repeat=len(positions)):
        cur = [[0] * n for _ in range(n)]
        for (i, j), v in zip(positions, values):
            cur[i][j] = v
            if config.symmetric_only:
                cur[j][i] = v
        rows = tuple(tuple(r) for r in cur)
        if _poly_rows(g, rows) != _poly_rows(h, rows):
            continue
        if config.up_to_iso and not _oracle_orbit_is_min(rows):
            continue
        found.append(rows)
        if cap is not None and len(found) >= cap:
            break
    return _solution_set(rel, config, found, NatMatrix)


def derive_entry_bound(rel, symmetric_only=False):
    """A provably sufficient entry bound for rel, or None.

    Read on rel.reduced(), the relation solve searches, so a polynomial added
    to both sides changes nothing.  One form is recognized: a side that is
    exactly X^d with d >= 1.  Against c*I (c >= 1) any solution is a monomial
    matrix whose cycle weight products equal c, so entries are at most c.
    Against X^m with symmetric_only, every eigenvalue is real with
    lambda^d = lambda^m, so it is 0 or +-1 and every entry is at most 1
    (false without symmetry, e.g. [[1, t], [0, 0]] for X^2 = X).
    """

    def is_power(side):
        # exactly X^d with d >= 1
        return len(side) >= 2 and side[-1] == 1 and not any(side[:-1])

    gr, hr = rel.reduced()
    for one, other in ((gr, hr), (hr, gr)):
        if is_power(one):
            if len(other) == 1:
                return other[0]
            if symmetric_only and is_power(other):
                return 1
    return None
