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
that entry X^s <= U^s < X.  So X^s <lex X, X is not its orbit minimum, and
the leaf filter would drop it anyway.  The branch is therefore cut when the
first a+1 rows of U's orbit minimum (zmatrix._orbit_min_rows) are
lex-smaller than U's own.  The cut removes only subtrees without an emitted
leaf, so the leaves, their order and every limit and worker count give the
same output as filtering at the leaves.

Every surviving leaf is verified by full evaluation, so the interval rule
can only remove non-solutions and the up_to_iso cut only non-canonical
ones.  `brute_force_oracle` is the deliberately naive
cross-check: plain enumeration in the same entry order, full evaluation of
the unreduced relation, no pruning, sharing only the polynomial-evaluation
primitive with `solve`.

Results are deterministic: solutions sort by row-major entry order, and the
parallel path gives each worker task one first-entry value and joins the
buffers in value order, the order one search visits them, so worker count
never changes the output.

Searches are per-dimension; deciding solvability across all dimensions at
once is out of scope.
"""

import itertools
import os

from .errors import DimensionTooLarge, InvalidInput, SearchSpaceTooLarge
from .zmatrix import (
    NatMatrix,
    RelationPoly,
    _Record,
    _check_canon_cap,
    _orbit_min_rows,
    _poly_rows,
    _require_int,
)


class SearchConfig(_Record):
    """Search space description: dimension, entry bound, and filters.

    symmetric_only restricts to symmetric matrices; up_to_iso keeps only the
    lexicographically least member of each simultaneous-relabeling orbit (the
    search cuts every subtree whose completed rows already show that no leaf
    below it is canonical, and a verified leaf that survives is still kept
    only if it equals its canonical form, which zmatrix._orbit_min_rows finds
    by a refinement search that branches on one index per twin class, not by
    scanning n! relabelings);
    limit caps how many solutions are emitted (the `complete` flag on the
    result records whether the cap truncated anything).
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
            raise InvalidInput(f"n must be >= 1, got {self.n}")
        if self.bound < 0:
            raise InvalidInput(f"bound must be >= 0, got {self.bound}")
        if self.limit is not None:
            _require_int(self.limit, "limit")
            if self.limit < 1:
                raise InvalidInput(f"limit must be >= 1, got {self.limit}")


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


def _search_partition(args):
    (gr, hr, n, bound, symmetric, up_to_iso, cap, share) = args
    # the entries each fill step sets: (i, j), and (j, i) when symmetric
    positions = _fill_positions(n, symmetric)
    cells = [((i, j), (j, i)) if symmetric and i != j else ((i, j),) for i, j in positions]
    total = len(cells)
    # the first entry takes only this task's share of values
    choices = [share] + [range(bound + 1)] * (total - 1)
    # up_to_iso: step k + 1 follows the last entry of row i, so rows 0..i are set
    row_end = ({k + 1: i + 1 for k, (i, j) in enumerate(positions) if j == n - 1}
               if up_to_iso else {})
    s, sides, exceeds = _packed_kernel(gr, hr, n, bound)
    width = s * n
    # a step's value w adds w * unit to packed L and takes (bound - w) * unit off U
    units = [sum(1 << s * (a * n + b) for a, b in cell) for cell in cells]
    # the packed columns of L (unset entries at 0) and U (unset at bound)
    lo_cols, hi_cols = [0] * n, [bound * _spread(n, width)] * n
    top = [[bound] * n for _ in range(n)]  # U as rows, for the orbit cut and leaves
    found = []

    def put(cell, w, sign):
        # sign 1 sets the cell's entries to w, sign -1 unsets them again
        for a, b in cell:
            top[a][b] = w if sign == 1 else bound
            lo_cols[b] += sign * w << width * a
            hi_cols[b] -= sign * (bound - w) << width * a

    def rec(idx, v, lo, hi, low, high):
        # lo, hi: packed L and U; the entry before idx was just set to v;
        # low, high: (g, h) on L and U before that (v = None: not evaluated yet)
        if idx == total:
            # L = U = X, so the exact check is the rule itself
            rows = tuple(map(tuple, top))
            if _poly_rows(gr, rows) != _poly_rows(hr, rows):
                return
            if up_to_iso and _orbit_min_rows(rows) != rows:
                return
            found.append(rows)
            return
        # v = 0 leaves L as it was and v = bound leaves U
        low = low if v == 0 else sides(lo, lo_cols)
        high = high if v == bound else sides(hi, hi_cols)
        if exceeds(low[0], high[1]) or exceeds(low[1], high[0]):
            return
        known = row_end.get(idx)
        if known:
            upper = tuple(map(tuple, top))
            if _orbit_min_rows(upper)[:known] < upper[:known]:
                return
        cell, unit = cells[idx], units[idx]
        for w in choices[idx]:
            put(cell, w, 1)
            rec(idx + 1, w, lo + w * unit, hi - (bound - w) * unit, low, high)
            put(cell, w, -1)
            if cap is not None and len(found) >= cap:
                break

    rec(0, None, 0, bound * _spread(n * n, s), None, None)
    return found


# The search recurses once per filled cell after one root call, so a fill of
# at most 900 cells (n <= 30, or n <= 41 symmetric) is at most 901 frames deep,
# inside the default recursion limit.
_MAX_N = {False: 30, True: 41}


def _check_depth(config, why):
    most = _MAX_N[config.symmetric_only]
    if config.n > most:
        raise DimensionTooLarge(f"{why}; n={config.n} exceeds cap {most}", n=config.n, cap=most)


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def solve(rel, config, jobs=1):
    """All solutions of rel in the space described by config.

    jobs = 1 runs one search over every value of the first entry; jobs > 1
    runs one search per first-entry value across processes, at most one per
    usable CPU.  The result is byte-for-byte identical for every worker
    count.  n is capped at 30 (41 symmetric), before any worker starts.
    """
    _require_int(jobs, "jobs", 1)
    if config.up_to_iso:
        _check_canon_cap(config.n, "up_to_iso dimension is capped by FUNCTORLAB_CANON_CAP")
    _check_depth(config, "solve recurses once per filled entry")
    gr, hr = rel.reduced()
    cap = None if config.limit is None else config.limit + 1
    task = (gr, hr, config.n, config.bound, config.symmetric_only, config.up_to_iso, cap)
    values = range(config.bound + 1)
    workers = min(jobs, len(values), _usable_cpus())
    if workers == 1:
        buffers = [_search_partition(task + (values,))]
    else:
        # imported here so that a single-worker call never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # one task per first value; the buffers come back in value order
        with ProcessPoolExecutor(max_workers=workers) as pool:
            buffers = list(pool.map(_search_partition, [task + ((v,),) for v in values]))
    stream = [rows for buf in buffers for rows in buf]
    complete = True
    if config.limit is not None and len(stream) > config.limit:
        stream = stream[: config.limit]
        complete = False
    stream.sort()
    return SolutionSet(config, rel, tuple(NatMatrix(r) for r in stream), complete)


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

    Every candidate is built and the unreduced relation evaluated on it, so
    the only code shared with solve is the polynomial-evaluation primitive.
    Refuses spaces beyond 10^8 candidates, and n beyond solve's cap: it
    only cross-checks solve, so it needs no larger dimension.
    """
    if config.up_to_iso:
        _check_canon_cap(config.n, "up_to_iso filters through n! relabelings")
    _check_depth(config, "oracle cross-checks solve and shares its dimension cap")
    n = config.n
    positions = _fill_positions(n, config.symmetric_only)
    space = (config.bound + 1) ** len(positions)
    if space > _ORACLE_SPACE_CAP:
        raise SearchSpaceTooLarge(
            f"{space} candidates exceed the oracle cap of {_ORACLE_SPACE_CAP}",
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
    complete = True
    if config.limit is not None and len(found) > config.limit:
        found = found[: config.limit]
        complete = False
    found.sort()
    return SolutionSet(config, rel, tuple(NatMatrix(r) for r in found), complete)


def derive_entry_bound(rel, symmetric_only=False):
    """A provably sufficient entry bound for rel, or None.

    Two shapes are recognized.  X^d = c*I with c >= 1: any solution is a
    monomial matrix whose cycle weight products equal c, so entries are at
    most c.  X^2 = X with symmetric_only: symmetric idempotents are diagonal
    0/1, so the bound is 1 (false without symmetry, e.g. [[1, t], [0, 0]]).
    """

    def monomial_degree(side):
        if len(side) >= 2 and side[-1] == 1 and not any(side[:-1]):
            return len(side) - 1
        return None

    def constant(side):
        if len(side) == 0:
            return 0
        if len(side) == 1:
            return side[0]
        return None

    for lhs, rhs in ((rel.g, rel.h), (rel.h, rel.g)):
        d = monomial_degree(lhs)
        c = constant(rhs)
        if d is not None and c is not None and c >= 1:
            return c
    if symmetric_only:
        sides = {rel.g, rel.h}
        if sides == {(0, 0, 1), (0, 1)}:
            return 1
    return None
