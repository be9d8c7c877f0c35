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
from operator import eq, ge, gt, le, lt, mul

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


def _check_canon_cap(n, what):
    """Refuse the relabeling operation `what` describes above the canonical cap."""
    cap = canonical_cap()
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


def _row_images(rows):
    # each row's column of its largest entry (its one nonzero entry when the
    # matrix is monomial), or the row's own index for a zero row
    return tuple(
        [row.index(top) if (top := max(row)) else i for i, row in enumerate(rows)]
    )


def _scalar_rows(n, c):
    # c times the n x n identity
    return _monomial_rows(range(n), (c,) * n)


def _mul_rows(a, b):
    # the package's one matrix product
    cols = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in a)


# pays for itself on repeated classify calls with the same matrix and exponent
@lru_cache(maxsize=1 << 16)
def _pow_rows(rows, d):
    # square-and-multiply, no recursion, so any exponent is safe
    result, base = None, rows
    while True:
        if d & 1:
            result = base if result is None else _mul_rows(result, base)
        d >>= 1
        if not d:
            break
        base = _mul_rows(base, base)
    return _scalar_rows(len(rows), 1) if result is None else result


# pays for itself on the solve-vs-oracle sweep, which re-evaluates every leaf
@lru_cache(maxsize=1 << 16)
def _poly_rows(coeffs, rows):
    n = len(rows)
    acc = [[0] * n for _ in range(n)]
    if coeffs and coeffs[0]:
        for i in range(n):
            acc[i][i] = coeffs[0]
    p = rows
    for d in range(1, len(coeffs)):
        if d > 1:
            p = _mul_rows(p, rows)
        c = coeffs[d]
        if c == 0:
            continue
        for i in range(n):
            pi = p[i]
            ai = acc[i]
            for j in range(n):
                ai[j] += c * pi[j]
    return tuple(tuple(r) for r in acc)


def _first_mismatch(a, b):
    """First differing entry of two row sequences: ((i, j) 1-based, a's, b's)."""
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            for j, (x, y) in enumerate(zip(ra, rb)):
                if x != y:
                    return (i + 1, j + 1), x, y
    return None


def _check_symmetric(m):
    """Raise NotSymmetric at the first asymmetric pair of m: against the
    transpose the first mismatch has i < j, as every earlier row matched."""
    bad = _first_mismatch(m.entries, tuple(zip(*m.entries)))
    if bad is not None:
        (i, j), x, y = bad
        raise NotSymmetric(
            f"entry ({i}, {j}) is {x} but ({j}, {i}) is {y}", position=(i, j)
        )


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


def _orbit_min_rows(rows):
    """Row-major lex-least relabeling: the least out[a][b] = rows[s[a]][s[b]]
    over all permutations s.

    An exact refinement search fixes s one position at a time.  A frontier
    node holds the placed indices s[0..a-1] and an ordered partition of the
    unplaced ones into cells.  Every placed row is constant on each cell and
    the cells come in ascending order of those values, so rows 0..a-1 of out
    are the same for every completion that keeps the cell order.  s[a] = x
    comes from the first cell, and its key is the least row a it allows:
    rows[x][s[0..a-1]], rows[x][x], then row x sorted on the rest of the
    first cell and on each later cell in turn.  Only the candidates whose key
    is least over the whole frontier survive, and each splits every cell by
    the values of row x, ascending.  Every optimal s keeps its prefix in the
    frontier, up to the twin rule, so the result is the exact minimum.

    Twins are indices whose swap is an automorphism of rows.  Their subtrees
    are images of each other, so a node branches on one index per twin
    class; without this, I, 0 and other very symmetric matrices would grow
    the frontier to n!.
    """
    n = len(rows)
    twin = _twin_classes(rows)
    frontier = [((), (tuple(range(n)),))]  # (placed indices, cells)
    out = []
    for _ in range(n):
        best, keep = None, []
        for placed, cells in frontier:
            first, seen = cells[0], set()
            for x in first:
                if twin[x] in seen:
                    continue
                seen.add(twin[x])
                r = rows[x]
                key = [r[p] for p in placed]
                key.append(r[x])
                key.extend(sorted([r[c] for c in first if c != x]))
                for cell in cells[1:]:
                    key.extend(sorted([r[c] for c in cell]))
                if best is None or key < best:
                    best, keep = key, [(placed, cells, x)]
                elif key == best:
                    keep.append((placed, cells, x))
        out.append(tuple(best))
        frontier = []
        for placed, cells, x in keep:
            r = rows[x]
            rest = tuple(c for c in cells[0] if c != x)
            split = []
            for cell in ((rest,) if rest else ()) + cells[1:]:
                values = sorted({r[c] for c in cell})
                if len(values) == 1:
                    split.append(cell)
                else:
                    split.extend(tuple(c for c in cell if r[c] == v) for v in values)
            frontier.append((placed + (x,), tuple(split)))
    return tuple(out)


# -- public types ------------------------------------------------------------

def _by_fields(op):
    # the comparison op of two records of one class, by their field tuples
    return lambda a, b: op(a._values(), b._values()) if type(b) is type(a) else NotImplemented


class _Record:
    """Frozen record, as a frozen dataclass makes it: the fields are the class
    annotations in order, with class attributes as defaults, and repr,
    equality, hash and (given order=True) ordering follow the field tuple.
    The instance dict holds the fields, in order, and nothing else."""

    _fields = ()

    def __init_subclass__(cls, order=False):
        # a class's own annotations (3.10 on), also where they are evaluated lazily
        cls._fields += tuple(cls.__annotations__)
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}
        if order:
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = map(_by_fields, (lt, le, gt, ge))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # fill in defaults, refuse bad arguments
            tail = fields[len(args):]
            given = self._defaults | kwargs
            too_many = len(args) > len(fields)
            unexpected = any(f not in tail for f in kwargs)  # unknown, or also positional
            missing = any(f not in given for f in tail)
            if too_many or unexpected or missing:
                raise TypeError(f"{type(self).__name__}() takes the arguments {', '.join(fields)}")
            args += tuple([given[f] for f in tail])
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _trusted(cls, *values):
        """A record of fields valid by construction, set without __post_init__,
        for the builders whose checks showed in a benchmark workload."""
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

    __eq__ = _by_fields(eq)

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class NatMatrix(_Record, order=True):
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
    def zero(cls, n):
        return cls(tuple(tuple(0 for _ in range(n)) for _ in range(n)))

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
        return NatMatrix(
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
        return NatMatrix(tuple(tuple(k * x for x in row) for row in self.entries))

    def power(self, d):
        _require_int(d, "exponent", 0)
        return NatMatrix(_pow_rows(self.entries, d))

    def transpose(self):
        return NatMatrix._trusted(tuple(zip(*self.entries)))

    def is_symmetric(self):
        return _first_mismatch(self.entries, tuple(zip(*self.entries))) is None

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

    def is_identity(self):
        return self.entries == _scalar_rows(self.n, 1)

    def is_permutation_matrix(self):
        e = self.entries
        n = self.n
        for row in e:
            if sum(row) != 1 or any(x not in (0, 1) for x in row):
                return False
        return all(sum(e[i][j] for i in range(n)) == 1 for j in range(n))

    def permutation(self):
        """The permutation sending i to the row carrying the 1 of column i."""
        if not self.is_permutation_matrix():
            raise InvalidInput("matrix is not a permutation matrix")
        return Permutation(_row_images(tuple(zip(*self.entries))))


class Permutation(_Record, order=True):
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

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)))

    @property
    def n(self):
        return len(self.images)

    def one_based(self):
        return tuple(x + 1 for x in self.images)

    def __call__(self, i):
        return self.images[i]

    def compose(self, other):
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if self.n != other.n:
            raise DimensionMismatch("cannot compose permutations of different sizes")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self):
        inv = [0] * self.n
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    def is_identity(self):
        return all(img == i for i, img in enumerate(self.images))

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
        # row images[i] holds its 1 in column i
        return NatMatrix(_monomial_rows(self.inverse().images, (1,) * self.n))


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
    n = a.n + b.n
    rows = [[0] * n for _ in range(n)]
    for i in range(a.n):
        for j in range(a.n):
            rows[i][j] = a.entries[i][j]
    for i in range(b.n):
        for j in range(b.n):
            rows[a.n + i][a.n + j] = b.entries[i][j]
    return NatMatrix(tuple(tuple(r) for r in rows))


_TENSOR_CAP = 1024  # the product is built as an n*b by n*b list of lists


def external_tensor(m, b_simples):
    """Kronecker product of m with the identity on b_simples letters.

    Index (i, s) of the product maps to row (i-1)*b_simples + s in 1-based
    terms: the left factor is the major index.
    """
    _require_int(b_simples, "b_simples", 1)
    n = m.n * b_simples
    if n > _TENSOR_CAP:
        raise DimensionTooLarge(
            f"tensor product dimension n*b is capped; n={n} exceeds cap {_TENSOR_CAP}",
            n=n,
            cap=_TENSOR_CAP,
        )
    rows = [[0] * n for _ in range(n)]
    for i in range(m.n):
        for j in range(m.n):
            x = m.entries[i][j]
            if x:
                for s in range(b_simples):
                    rows[i * b_simples + s][j * b_simples + s] = x
    return NatMatrix(tuple(tuple(r) for r in rows))


def conjugate(m, s):
    """Relabel simples by the permutation s: entry (i, j) moves to (s(i), s(j))."""
    if m.n != s.n:
        raise DimensionMismatch(
            f"matrix is {m.n}x{m.n} but permutation acts on {s.n} letters"
        )
    return NatMatrix(_conjugate_rows(m.entries, s.images))


def canonical_rep(m):
    """Lexicographically least relabeling of m (row-major entry order).

    Found by a refinement search over partial relabelings that branches on
    one index per twin class (see _orbit_min_rows), not by scanning all n!
    permutations.  n is still capped (default 8, overridable via the
    FUNCTORLAB_CANON_CAP environment variable).
    """
    _check_canon_cap(m.n, "canonical form dimension is capped by FUNCTORLAB_CANON_CAP")
    return NatMatrix(_orbit_min_rows(m.entries))
