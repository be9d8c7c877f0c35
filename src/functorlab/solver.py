"""Exhaustive search for matrix solutions of g(X) = h(X) over Z+.

Given a relation between two Z+ coefficient polynomials, a dimension and an
entry bound, `solve` enumerates every matrix (or every symmetric matrix) with
entries in 0..bound and keeps those satisfying the relation exactly.  The
search is a depth-first fill in a fixed entry order (row-major; upper triangle
row-major when symmetric) with two sound prunings:

* one side constant c: the other side evaluated on the diagonal grows
  monotonically in each entry, so a partial diagonal entry already exceeding c
  kills the branch, and any nonzero off-diagonal entry with a degree-1 term
  does too;
* relation degree <= 2: once a row/column pair is complete, the corresponding
  entries of both sides are fully determined and compared exactly.

Every surviving leaf is verified by full evaluation, so pruning can only
remove non-solutions.  `brute_force_oracle` is the deliberately naive
cross-check: plain enumeration in the same entry order, full evaluation of
the unreduced relation, no pruning, sharing only the polynomial-evaluation
primitive with `solve`.

Results are deterministic: solutions sort by row-major entry order and the
parallel path partitions on the first entry's value, so worker count never
changes the output.

Searches are per-dimension; deciding solvability across all dimensions at
once is out of scope.
"""

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import InvalidInput, SearchSpaceTooLarge
from .zmatrix import (
    NatMatrix,
    RelationPoly,
    _check_canon_cap,
    _orbit_min_rows,
    _poly_rows,
    _require_int,
)


@dataclass(frozen=True)
class SearchConfig:
    """Search space description: dimension, entry bound, and filters.

    symmetric_only restricts to symmetric matrices; up_to_iso keeps only the
    lexicographically least member of each simultaneous-relabeling orbit;
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


@dataclass(frozen=True)
class SolutionSet:
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


def _entry_val(side, cur, n, a, b):
    # value of side(X)[a][b] for degree <= 2 sides, rows/cols a and b complete
    acc = side[0] if (a == b and side) else 0
    if len(side) > 1 and side[1]:
        acc += side[1] * cur[a][b]
    if len(side) > 2 and side[2]:
        rowa = cur[a]
        acc += side[2] * sum(rowa[t] * cur[t][b] for t in range(n))
    return acc


def _search_partition(args):
    (gr, hr, n, bound, symmetric, up_to_iso, cap, first_value) = args
    positions = _fill_positions(n, symmetric)
    total = len(positions)
    quadratic = len(gr) <= 3 and len(hr) <= 3
    const_side = poly_side = None
    if len(hr) <= 1:
        const_side = hr[0] if hr else 0
        poly_side = gr
    elif len(gr) <= 1:
        const_side = gr[0] if gr else 0
        poly_side = hr
    off_diag_dies = (
        const_side is not None and len(poly_side) > 1 and poly_side[1] != 0
    )
    cur = [[0] * n for _ in range(n)]
    found = []

    def ok_after(i, j, v):
        if const_side is not None:
            if i == j:
                acc = 0
                for c in reversed(poly_side):
                    acc = acc * v + c
                if acc > const_side:
                    return False
            elif v and off_diag_dies:
                return False
        if quadratic:
            if symmetric:
                if j == n - 1:
                    for t in range(i + 1):
                        for a, b in {(t, i), (i, t)}:
                            if _entry_val(gr, cur, n, a, b) != _entry_val(
                                hr, cur, n, a, b
                            ):
                                return False
            elif i == n - 1:
                for t in range(n - 1):
                    if _entry_val(gr, cur, n, t, j) != _entry_val(hr, cur, n, t, j):
                        return False
        return True

    def rec(idx):
        if idx == total:
            rows = tuple(tuple(r) for r in cur)
            if _poly_rows(gr, rows) != _poly_rows(hr, rows):
                return
            if up_to_iso and _orbit_min_rows(rows) != rows:
                return
            found.append(rows)
            return
        i, j = positions[idx]
        values = (first_value,) if idx == 0 else range(bound + 1)
        for v in values:
            cur[i][j] = v
            if symmetric:
                cur[j][i] = v
            if not ok_after(i, j, v):
                continue
            rec(idx + 1)
            if cap is not None and len(found) >= cap:
                return

    rec(0)
    return found


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def solve(rel, config, jobs=1):
    """All solutions of rel in the space described by config.

    jobs > 1 splits the search on the first entry's value across processes,
    at most one per usable CPU; the result is byte-for-byte identical for
    every worker count.
    """
    _require_int(jobs, "jobs", 1)
    if config.up_to_iso:
        _check_canon_cap(config.n, "up_to_iso filters through n! relabelings")
    gr, hr = rel.reduced()
    if len(gr) <= 1 and len(hr) <= 1:
        # c1*I = c2*I with c1 != c2: unsatisfiable at any dimension
        return SolutionSet(config, rel, (), True)
    cap = None if config.limit is None else config.limit + 1
    tasks = [
        (gr, hr, config.n, config.bound, config.symmetric_only,
         config.up_to_iso, cap, v)
        for v in range(config.bound + 1)
    ]
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers == 1:
        buffers = [_search_partition(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            buffers = list(pool.map(_search_partition, tasks))
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
    Refuses spaces beyond 10^8 candidates.
    """
    if config.up_to_iso:
        _check_canon_cap(config.n, "up_to_iso filters through n! relabelings")
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
