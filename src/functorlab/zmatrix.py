"""Exact arithmetic for square matrices over the nonnegative integers.

These matrices are decategorified shadows of exact endofunctors acting on a
finite set of simples: entry (i, j) counts how often simple j appears in the
image of simple i, composition becomes matrix product, direct sum becomes
entrywise sum, and taking adjoints becomes transposition.  Everything is done
in plain Python integers so arbitrary precision is automatic and no floating
point is involved anywhere.

Indexing is 1-based at every external interface (JSON, error payloads,
reported positions); internal storage is 0-based.
"""

import os
from functools import lru_cache
from math import lcm
from operator import mul

from .errors import DimensionMismatch, DimensionTooLarge, InvalidInput, NotSymmetric

CANON_CAP_ENV = "FUNCTORLAB_CANON_CAP"
_DEFAULT_CANON_CAP = 8


def canonical_cap():
    """Dimension cap for the relabeling operations: canonical_rep, solve's
    up_to_iso filter and enumerate_involutions."""
    raw = os.environ.get(CANON_CAP_ENV)
    if raw is None:
        return _DEFAULT_CANON_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidInput(
            f"{CANON_CAP_ENV} must be an integer, got {raw!r}", value=raw
        ) from None
    if cap < 1:
        raise InvalidInput(f"{CANON_CAP_ENV} must be >= 1, got {cap}", value=cap)
    return cap


def _check_cap(n, cap, what):
    """Refuse a request of size n above cap; `what` says what n counts and why
    it is capped.  The one place that raises DimensionTooLarge."""
    if n > cap:
        raise DimensionTooLarge(f"{what}; n={n} exceeds cap {cap}", n=n, cap=cap)


def _is_int(v):
    """True for an int that is not a bool (bool subclasses int)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _require_int(v, what, low=None):
    """Raise InvalidInput unless v is an int (not a bool) of at least low (0 or 1)."""
    if not _is_int(v) or (low is not None and v < low):
        kind = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}
        raise InvalidInput(f"{what} must be {kind[low]}, got {v!r}")


def _check_entry(x):
    if type(x) is not int and not _is_int(x):  # plain ints skip the call
        raise InvalidInput(f"matrix entries must be integers, got {x!r}")
    if x < 0:
        raise InvalidInput(f"matrix entries must be nonnegative, got {x}")
    return x


# -- raw-row helpers ---------------------------------------------------------
# The solver iterates over huge candidate spaces, so the inner arithmetic
# works on plain tuples of row tuples; NatMatrix wraps them for the API.

def _monomial_rows(images, values):
    # row i holds values[i] at column images[i] and zeros elsewhere
    n = len(values)
    rows = []
    for j, v in zip(images, values):
        row = [0] * n
        row[j] = v
        rows.append(tuple(row))
    return tuple(rows)


def _monomial_form(rows):
    # (images, values) with rows == _monomial_rows(images, values) when every
    # row has at most one nonzero entry, else None; a zero row is its own image
    values = tuple(map(max, rows))
    images = tuple([row.index(v) if v else i for i, (row, v) in enumerate(zip(rows, values))])
    return (images, values) if _monomial_rows(images, values) == rows else None


def _scalar_rows(n, c):
    # c times the n x n identity
    return _monomial_rows(range(n), (c,) * n)


def _mul_rows(a, b):
    # the package's one matrix product
    cols = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in a)


# the exponents whose powers are cached: _pow_rows recurses at most about
# 2 log2 of this deep, and no big exponent enters the cache
_CACHED_BELOW = 256


def _power(rows, d):
    # X^d: one lookup in the cache below _CACHED_BELOW, else square-and-multiply
    # from X along the bits of d, outside the cache
    if d < _CACHED_BELOW:
        return _pow_rows(rows, d)
    power = rows
    for bit in bin(d)[3:]:
        power = _mul_rows(power, power)
        if bit == "1":
            power = _mul_rows(power, rows)
    return power


# pays for itself on repeated classify calls with the same matrix, and lets
# the two sides of a relation in _poly_rows share their powers
@lru_cache(maxsize=1 << 16)
def _pow_rows(rows, d):
    # X^d for d < _CACHED_BELOW: one product on X^(d-1) for odd d, the square
    # of X^(d/2) for even d, the lower power read from the cache
    if d < 2:
        return rows if d else _scalar_rows(len(rows), 1)
    lower = _pow_rows(rows, d - 1 if d & 1 else d >> 1)
    return _mul_rows(lower, rows if d & 1 else lower)


# pays for itself in brute_force_oracle, which meets the same small candidates
# again under every bound, symmetric and up_to_iso setting of a sweep
@lru_cache(maxsize=1 << 16)
def _poly_rows(coeffs, rows):
    # the sum of c_d * rows^d, each power from _power (X^0 is I)
    n = len(rows)
    acc = [[0] * n for _ in range(n)]
    for d, c in enumerate(coeffs):
        if c:
            for ai, pi in zip(acc, _power(rows, d)):
                for j in range(n):
                    ai[j] += c * pi[j]
    return tuple(tuple(r) for r in acc)


def _horner(coeffs, num, den=1):
    """den^degree times the polynomial (descending coefficients) at num / den,
    den >= 1: an integer of the value's sign."""
    acc, scale = 0, 1
    for c in coeffs:
        acc = acc * num + c * scale
        scale *= den
    return acc


def _derivatives(coeffs):
    """p, p', p'', ... down to a constant, descending coefficients."""
    derivs = [list(coeffs)]
    while len(derivs[-1]) > 1:
        q = derivs[-1]
        derivs.append([c * (len(q) - 1 - i) for i, c in enumerate(q[:-1])])
    return derivs


def _sign_changes(derivs, num, den=1):
    """Budan-Fourier V(x) at x = num / den: the sign changes along p(x),
    p'(x), p''(x), ... with zeros dropped.  For a < b the roots of p in
    (a, b] number V(a) - V(b) less an even count, which is 0 when every root
    is real.  V is 0 past every root of p and of its derivatives, so p has
    at most V(a) roots above a."""
    signs = [v > 0 for v in (_horner(d, num, den) for d in derivs) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _first_mismatch(a, b):
    """First differing entry of two row sequences: ((i, j) 1-based, a's, b's)."""
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            for j, (x, y) in enumerate(zip(ra, rb)):
                if x != y:
                    return (i + 1, j + 1), x, y
    return None


def _raise_mismatch(bad, error, describe, names=("got", "expected"), **details):
    """Raise error at a _first_mismatch result, if there is one: the message
    is describe(i, j, x, y), and the details hold the position, then x and y
    under `names`, then `details`.  An x or y past Python's int/str digit
    limit, which only cli.main lifts, is written through `decimal` instead."""
    if bad is not None:
        (i, j), x, y = bad
        try:
            message = describe(i, j, x, y)
        except ValueError:
            from decimal import Decimal

            message = describe(i, j, Decimal(x), Decimal(y))
        raise error(message, position=(i, j), **dict(zip(names, (x, y))), **details)


def _check_symmetric(m):
    """Raise NotSymmetric at the first asymmetric pair of m: against the
    transpose the first mismatch has i < j, as every earlier row matched."""
    _raise_mismatch(_first_mismatch(m.entries, tuple(zip(*m.entries))), NotSymmetric,
                    lambda i, j, x, y: f"entry ({i}, {j}) is {x} but ({j}, {i}) is {y}",
                    names=())


def _conjugate_rows(rows, images):
    # out[images[i]][images[j]] = rows[i][j]
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        oi = images[i]
        ri = rows[i]
        for j in range(n):
            out[oi][images[j]] = ri[j]
    return tuple(tuple(r) for r in out)


def _block_rows(blocks):
    # the direct sum: each block on the diagonal, in order, zeros elsewhere
    n = sum(map(len, blocks))
    out, at = [], 0
    for block in blocks:
        pad = (0,) * (n - at - len(block))
        out += [(0,) * at + row + pad for row in block]
        at += len(block)
    return tuple(out)


def _reach_masks(rows):
    """reach[v] as a bitmask: v and every index v reaches in the support
    digraph, where column v feeds row i when rows[i][v] != 0."""
    n = len(rows)
    reach = [1 << v | sum(1 << i for i in range(n) if rows[i][v]) for v in range(n)]
    for k in range(n):  # Warshall's transitive closure, one bit row at a time
        bit = 1 << k
        for v in range(n):
            if reach[v] & bit:
                reach[v] |= reach[k]
    return reach


def _twin_classes(rows):
    """Class of each index: x and y share one iff swapping them fixes rows.

    The swap (x y) fixes rows iff row x is row y with entries x and y
    exchanged and likewise for the columns (this covers the diagonal).  The
    relation is an equivalence, since (x z) = (x y)(y z)(x y), so testing
    against each class's least member suffices.
    """
    n = len(rows)
    cols = tuple(zip(*rows))
    twin = [None] * n
    for x in range(n):
        if twin[x] is not None:
            continue
        twin[x] = x
        for y in range(x + 1, n):
            if twin[y] is None:
                ry, cy = list(rows[y]), list(cols[y])
                ry[x], ry[y] = ry[y], ry[x]
                cy[x], cy[y] = cy[y], cy[x]
                if tuple(ry) == rows[x] and tuple(cy) == cols[x]:
                    twin[y] = x
    return twin


def _orbit_min_rows(rows, stop=None):
    """Row-major lex-least relabeling: the least out[a][b] = rows[s[a]][s[b]]
    over all permutations s.

    An exact refinement search fixes s one position at a time.  A frontier
    node holds the placed indices s[0..a-1] and an ordered partition of the
    unplaced ones into cells.  Every placed row is constant on each cell and
    the cells come in ascending order of those values, so rows 0..a-1 of out
    are the same for every completion that keeps the cell order.  s[a] = x
    comes from the first cell, and its key is the least row a it allows, one
    flat list: the head rows[x][s[0..a-1]], rows[x][x], then row x sorted on
    the rest of the first cell and on each later cell in turn (a singleton
    cell's one value is appended as it is).  Only the candidates whose key
    is least over the whole frontier survive, and each splits every cell of
    two or more indices by the values of row x: one pass sorts the indices
    into buckets by value, and the buckets follow in ascending order of
    their values.  Every optimal s keeps its prefix in the frontier, up to
    the twin rule, so the result is the exact minimum.  Keys of one step
    share their length, so a candidate whose head already exceeds the best
    key's first a+1 entries is dropped before its sorted tail is built;
    that slice is cut once each time the best key changes.

    Twins are indices whose swap is an automorphism of rows.  Their subtrees
    are images of each other, so a node branches on one index per twin
    class; without this, I, 0 and other very symmetric matrices would grow
    the frontier to n!.

    With stop, only the first stop rows of the minimum are built, and the
    search ends right after the first one that differs from rows' own.  Row
    a of the minimum depends only on rows, not on stop, so the result is a
    prefix of the full minimum.  rows is in its own orbit, so the minimum is
    at most rows and its first differing row is the smaller one.  The prefix
    therefore decides both result < rows[:stop] and result != rows, for
    every stop <= n, with stop = n the check for rows being canonical.
    """
    n = len(rows)
    twin = _twin_classes(rows)
    frontier = [((), (tuple(range(n)),))]  # (placed indices, cells)
    out = []
    last = n if stop is None else stop
    for a in range(last):
        best, cut, keep = None, None, []  # cut: best[:a + 1], the best head
        for placed, cells in frontier:
            first, seen = cells[0], set()
            for x in first:
                if twin[x] in seen:
                    continue
                seen.add(twin[x])
                r = rows[x]
                key = [r[p] for p in placed]
                key.append(r[x])
                if best is not None and key > cut:
                    continue
                key += sorted([r[c] for c in first if c != x])
                for cell in cells[1:]:
                    if len(cell) == 1:
                        key.append(r[cell[0]])
                    else:
                        key += sorted([r[c] for c in cell])
                if best is None or key < best:
                    best, cut, keep = key, key[:a + 1], [(placed, cells, x)]
                elif key == best:
                    keep.append((placed, cells, x))
        out.append(tuple(best))
        if a + 1 == last or (stop is not None and out[a] != rows[a]):
            break
        frontier = []
        for placed, cells, x in keep:
            r = rows[x]
            rest = tuple(c for c in cells[0] if c != x)
            split = []
            for cell in ((rest,) if rest else ()) + cells[1:]:
                if len(cell) == 1:
                    split.append(cell)
                    continue
                buckets = {}
                for c in cell:
                    buckets.setdefault(r[c], []).append(c)
                split.extend(tuple(buckets[v]) for v in sorted(buckets))
            frontier.append((placed + (x,), tuple(split)))
    return tuple(out)


# -- public types ------------------------------------------------------------

class _Record:
    """Frozen record, as a frozen dataclass makes it: the fields are the class
    annotations in order, with class attributes as defaults, and repr,
    equality and hash follow the field tuple; records are not ordered.
    The instance dict holds the fields, in order, and nothing else."""

    _fields = ()

    def __init_subclass__(cls):
        # a class's own annotations (3.10 on), also where they are evaluated lazily
        cls._fields += tuple(cls.__annotations__)
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # fill in defaults, refuse bad arguments
            # one pass over the fields after args: each takes its keyword, else
            # its default, else the class _Record, which marks it missing
            tail = [kwargs.pop(f, self._defaults.get(f, _Record)) for f in fields[len(args):]]
            # kwargs left over are unknown, or also given positionally
            if kwargs or len(args) > len(fields) or _Record in tail:
                raise TypeError(f"{type(self).__name__}() takes the arguments {', '.join(fields)}")
            args += tuple(tail)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _trusted(cls, *values):
        """A record of fields set without __post_init__, for the builders
        whose results are valid by construction."""
        self = object.__new__(cls)
        self.__dict__.update(zip(cls._fields, values))
        return self

    def __post_init__(self):
        """Check and normalize the fields once they are set."""

    def _values(self):
        return tuple(self.__dict__.values())

    def __repr__(self):
        inner = ", ".join(f"{f}={v!r}" for f, v in self.__dict__.items())
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        # records of one class only, by their field tuples
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class NatMatrix(_Record):
    """Square matrix with nonnegative integer entries."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(_check_entry(x) for x in row) for row in self.entries)
        if not rows:
            raise InvalidInput("matrices must have dimension >= 1")
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise InvalidInput(
                    f"matrix must be square, got row of length {len(row)} in "
                    f"a {n}-row matrix"
                )
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n):
        return cls(_scalar_rows(n, 1))

    @property
    def n(self):
        return len(self.entries)

    def __add__(self, other):
        if not isinstance(other, NatMatrix):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(
                f"cannot add a {self.n}x{self.n} matrix to a {other.n}x{other.n} one"
            )
        return NatMatrix._trusted(
            tuple(
                tuple(x + y for x, y in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __mul__(self, other):
        if not isinstance(other, NatMatrix):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(
                f"cannot multiply a {self.n}x{self.n} matrix by a "
                f"{other.n}x{other.n} one"
            )
        return NatMatrix._trusted(_mul_rows(self.entries, other.entries))

    def __rmul__(self, k):
        if not _is_int(k):
            return NotImplemented
        if k < 0:
            raise InvalidInput(f"scalar must be nonnegative, got {k}")
        return NatMatrix._trusted(tuple(tuple(k * x for x in row) for row in self.entries))

    def power(self, d):
        _require_int(d, "exponent", 0)
        return NatMatrix._trusted(_power(self.entries, d))

    def transpose(self):
        return NatMatrix._trusted(tuple(zip(*self.entries)))

    def is_symmetric(self):
        return _first_mismatch(self.entries, tuple(zip(*self.entries))) is None

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)


class Permutation(_Record):
    """Permutation of {0, ..., n-1}, stored as the tuple of images."""

    images: tuple

    def __post_init__(self):
        images = tuple(self.images)
        n = len(images)
        if n == 0:
            raise InvalidInput("permutations must have dimension >= 1")
        if sorted(images) != list(range(n)):
            raise InvalidInput(f"not a permutation of 0..{n - 1}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def n(self):
        return len(self.images)

    def one_based(self):
        return tuple(x + 1 for x in self.images)

    def inverse(self):
        inv = [0] * self.n
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    def is_involution(self):
        return all(self.images[img] == i for i, img in enumerate(self.images))

    def order(self):
        seen = [False] * self.n
        result = 1
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = self.images[i]
                length += 1
            result = lcm(result, length)
        return result

    def matrix(self):
        # row images[i] holds its 1 in column i: the transpose of row i's 1 at images[i]
        return NatMatrix._trusted(tuple(zip(*_monomial_rows(self.images, (1,) * self.n))))


def _normalize_coeffs(coeffs, side):
    coeffs = list(coeffs)
    for c in coeffs:
        if not _is_int(c):
            raise InvalidInput(f"{side} coefficients must be integers, got {c!r}")
        if c < 0:
            raise InvalidInput(f"{side} coefficients must be nonnegative, got {c}")
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class RelationPoly(_Record):
    """A polynomial identity g(X) = h(X), both sides with coefficients in Z+.

    Coefficient lists are ascending (index d holds the coefficient of X^d) and
    are normalized by dropping trailing zeros; g and h must differ after
    normalization, so padded copies of the same polynomial are rejected.
    A constant c stands for c times the identity matrix.
    """

    g: tuple
    h: tuple

    def __post_init__(self):
        g = _normalize_coeffs(self.g, "g")
        h = _normalize_coeffs(self.h, "h")
        if g == h:
            raise InvalidInput("relation is trivial: both sides are the same polynomial")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    def reduced(self):
        """Both sides with the common part cancelled (sound over the integers:
        g(M) = h(M) iff (g-m)(M) = (h-m)(M) for m the coefficientwise min)."""
        width = max(len(self.g), len(self.h))
        g = self.g + (0,) * (width - len(self.g))
        h = self.h + (0,) * (width - len(self.h))
        gr = [a - min(a, b) for a, b in zip(g, h)]
        hr = [b - min(a, b) for a, b in zip(g, h)]
        return _normalize_coeffs(gr, "g"), _normalize_coeffs(hr, "h")

    def satisfied_by(self, m):
        return _poly_rows(self.g, m.entries) == _poly_rows(self.h, m.entries)


# -- operations --------------------------------------------------------------

def scalar_mul(k, m):
    out = k * m
    if out is NotImplemented:
        raise InvalidInput(f"scalar must be an integer, got {k!r}")
    return out


def poly_eval(coeffs, m):
    """Evaluate a Z+ coefficient polynomial at m, degree-0 term meaning c*I."""
    coeffs = _normalize_coeffs(coeffs, "polynomial")
    return NatMatrix(_poly_rows(coeffs, m.entries))


def direct_sum(a, b):
    return NatMatrix._trusted(_block_rows((a.entries, b.entries)))


_TENSOR_CAP = 1024  # the product is built as n*b rows of n*b entries


def external_tensor(m, b_simples):
    """Kronecker product of m with the identity on b_simples letters.

    Index (i, s) of the product maps to row (i-1)*b_simples + s in 1-based
    terms: the left factor is the major index.  Built as b_simples copies
    of m on the diagonal, copy s of index i relabeled to i*b_simples + s.
    """
    _require_int(b_simples, "b_simples", 1)
    n = m.n * b_simples
    _check_cap(n, _TENSOR_CAP, "tensor product dimension n*b is capped")
    images = [i * b_simples + s for s in range(b_simples) for i in range(m.n)]
    return NatMatrix._trusted(_conjugate_rows(_block_rows((m.entries,) * b_simples), images))


def conjugate(m, s):
    """Relabel simples by the permutation s: entry (i, j) moves to (s(i), s(j))."""
    if m.n != s.n:
        raise DimensionMismatch(
            f"matrix is {m.n}x{m.n} but permutation acts on {s.n} letters"
        )
    return NatMatrix._trusted(_conjugate_rows(m.entries, s.images))


def canonical_rep(m):
    """Lexicographically least relabeling of m (row-major entry order).

    Found by a refinement search over partial relabelings that branches on
    one index per twin class (see _orbit_min_rows), not by scanning all n!
    permutations.  n is still capped (default 8, overridable via the
    FUNCTORLAB_CANON_CAP environment variable).  The result is not
    revalidated: its rows are a relabeling of m's, which are already valid.
    """
    _check_cap(m.n, canonical_cap(),
               "canonical form dimension is capped by FUNCTORLAB_CANON_CAP")
    return NatMatrix._trusted(_orbit_min_rows(m.entries))
