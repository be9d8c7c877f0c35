"""Seeded inputs and the expected answers, plain Python with no functorlab import.

Every generator returns 0-based row lists together with what the
construction guarantees about the answer, so the benchmark can check the
program's output without asking the program.  The CLI workload writes these
inputs to files from the parent process, which never imports the package.
The values recorded from `brute_force_oracle` are read here too.
"""

import hashlib
import json
import os
import random
from math import isqrt, lcm


HERE = os.path.dirname(os.path.abspath(__file__))


def rng_for(seed, *tags):
    return random.Random("/".join([str(seed), *map(str, tags)]))


def zeros(n):
    return [[0] * n for _ in range(n)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def perm(n, rng):
    p = list(range(n))
    rng.shuffle(p)
    return p


def relabel(rows, p):
    """Entry (i, j) moves to (p[i], p[j])."""
    n = len(rows)
    out = zeros(n)
    for i in range(n):
        for j in range(n):
            out[p[i]][p[j]] = rows[i][j]
    return out


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = zeros(n)
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = x
        at += len(b)
    return out


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def perm_matrix(images):
    """Column i carries its 1 in row images[i] (the package's convention)."""
    n = len(images)
    out = zeros(n)
    for i, img in enumerate(images):
        out[img][i] = 1
    return out


def perm_order(images):
    seen, order = set(), 1
    for start in range(len(images)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = images[i]
            length += 1
        if length:
            order = lcm(order, length)
    return order


def involution(n, rng, pairs):
    """Images of an involution on n points with the given number of 2-cycles."""
    points = perm(n, rng)
    images = list(range(n))
    for t in range(pairs):
        a, b = points[2 * t], points[2 * t + 1]
        images[a], images[b] = b, a
    return images


# -- structured matrices -----------------------------------------------------

def sqrt_of_k(n, k, rng):
    """A relabeled block-diagonal square root of k*I.

    2x2 blocks [[0, a], [b, 0]] with a*b = k; 1x1 blocks [r] need r*r = k,
    so an odd n needs a perfect-square k.
    """
    root = isqrt(k)
    square = root * root == k
    if n % 2 and not square:
        raise ValueError(f"no {n}x{n} square root of {k}*I")
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    blocks, left = [], n
    while left:
        if left >= 2 and (not square or rng.random() < 0.7):
            a = rng.choice(divisors)
            blocks.append([[0, a], [k // a, 0]])
            left -= 2
        else:
            blocks.append([[root]])
            left -= 1
    return relabel(block_diag(blocks), perm(n, rng))


def sym_sqrt(n, root, rng):
    """root times a symmetric involution matrix: (rows, involution images)."""
    images = involution(n, rng, rng.randint(1, n // 2))
    rows = [[root * x for x in row] for row in perm_matrix(images)]
    return rows, images


def sym_idempotent(n, rng):
    support = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
    rows = zeros(n)
    for i in support:
        rows[i][i] = 1
    return rows, [i + 1 for i in support]


def sym_nonzero(n, rng):
    rows = zeros(n)
    for _ in range(rng.randint(1, n)):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = rows[j][i] = rng.randint(1, 3)
    return rows


def partial_involution(n, rng):
    """0/1 symmetric permutation on a support, zero elsewhere: (rows, support)."""
    support = sorted(rng.sample(range(n), rng.randint(2, n)))
    images = involution(len(support), rng, rng.randint(0, len(support) // 2))
    rows = zeros(n)
    for a, b in enumerate(images):
        rows[support[a]][support[b]] = 1
    return rows, [i + 1 for i in support]


def root_of_identity(n, max_exp, rng):
    """A permutation matrix and an exponent <= max_exp that its order divides."""
    images = perm(n, rng)
    order = perm_order(images)
    return perm_matrix(images), order, order * (max_exp // order)


def block_dag(n, nblocks, rng):
    """Block-triangular matrix whose invariant subsets are known exactly.

    Each block is a directed cycle (strongly connected) and block b feeds
    only blocks after it, so the invariant subsets are exactly the unions of
    blocks closed under "feeds".  Returns (rows, sorted expected subsets as
    1-based member tuples).  nblocks = n gives a chain of singletons.
    """
    cuts = sorted(rng.sample(range(1, n), nblocks - 1))
    bounds = list(zip([0] + cuts, cuts + [n]))
    rows = zeros(n)
    for lo, hi in bounds:
        for i in range(lo, hi):
            if hi - lo > 1:
                nxt = lo + (i - lo + 1) % (hi - lo)
                rows[nxt][i] = rng.randint(1, 2)  # column i feeds row nxt
    succ = [set() for _ in bounds]
    for b in range(len(bounds) - 1):
        targets = {b + 1} | {c for c in range(b + 2, len(bounds)) if rng.random() < 0.2}
        for c in targets:
            j = rng.randrange(*bounds[b])
            i = rng.randrange(*bounds[c])
            rows[i][j] = rng.randint(1, 2)
            succ[b].add(c)
    ideals = []

    def walk(b, chosen):
        if b < 0:
            ideals.append([i for c in chosen for i in range(*bounds[c])])
            return
        walk(b - 1, chosen)
        if succ[b] <= chosen:
            walk(b - 1, chosen | {b})

    walk(len(bounds) - 1, frozenset())
    p = perm(n, rng)
    expected = sorted(
        (tuple(sorted(p[i] + 1 for i in s)) for s in ideals),
        key=lambda s: (len(s), s),
    )
    return relabel(rows, p), expected


DESCENT_BLOCKS = {
    # relation (g, h) -> small blocks satisfying it
    ((0, 0, 1), (1,)): [[[1]], [[0, 1], [1, 0]]],
    ((0, 0, 1), (0, 1)): [[[1]], [[0]], [[1, 1], [0, 0]]],
    ((0, 0, 0, 1), (0, 1)): [[[1]], [[0]], [[0, 1], [1, 0]], [[1, 1], [0, 0]]],
    ((0, 0, 1), (4,)): [[[2]], [[0, 1], [4, 0]], [[0, 2], [2, 0]], [[0, 4], [1, 0]]],
}


def descent_instance(n, rng):
    """(rows, 1-based subset, (g, h)): a relabeled direct sum of solutions of
    g = h, and a union of its blocks (so the subset is invariant)."""
    rel = rng.choice(sorted(DESCENT_BLOCKS))
    blocks, size = [], 0
    while size < n:
        b = rng.choice([b for b in DESCENT_BLOCKS[rel] if len(b) <= n - size])
        blocks.append(b)
        size += len(b)
    members, at = [], 0
    for b in blocks:
        if rng.random() < 0.5:
            members.extend(range(at, at + len(b)))
        at += len(b)
    p = perm(n, rng)
    return relabel(block_diag(blocks), p), sorted(p[i] + 1 for i in members), rel


def path_adjacency(n):
    return [[1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def cartan_instance(n, kind, rng):
    """(cartan rows, [functor rows]) built to give the verdict `kind`.

    pass: a scalar Cartan matrix and a path adjacency plus one diagonal
    projection, which together generate every n x n matrix.  reducible: a
    scalar Cartan matrix and one symmetric involution.  fail_commutation: a
    diagonal Cartan matrix with distinct entries and a path adjacency.
    """
    p = perm(n, rng)
    scale = rng.randint(1, 4)
    if kind == "pass":
        proj = zeros(n)
        proj[0][0] = 1
        return [[scale * x for x in r] for r in identity(n)], [
            relabel(path_adjacency(n), p),
            relabel(proj, p),
        ]
    if kind == "reducible":
        inv = perm_matrix(involution(n, rng, rng.randint(1, n // 2)))
        return [[scale * x for x in r] for r in identity(n)], [inv]
    diag = zeros(n)
    for i in range(n):
        diag[i][i] = i + 1
    return relabel(diag, p), [relabel(path_adjacency(n), p)]


def nilpotent_witness(rows, k):
    """(i, j, value) of the first nonzero entry of rows**k in row order, or
    None when the power is zero."""
    power = rows
    for _ in range(k - 1):
        power = matmul(power, rows)
    return next(((i, j, x) for i, row in enumerate(power) for j, x in enumerate(row) if x),
                None)


def descent_corners(rows, members):
    """(Serre rows, quotient rows) for a 1-based subset: the corner of rows
    on the subset and the corner of the transpose off it, None when empty."""
    n = len(rows)
    inside = [i - 1 for i in members]
    outside = [i for i in range(n) if i + 1 not in members]
    serre = [[rows[a][b] for b in inside] for a in inside]
    quot = [[rows[b][a] for b in outside] for a in outside]
    return serre or None, quot or None


def in_orbit(m, target):
    """Whether some relabeling p has target[p(i)][p(j)] = m[i][j]."""
    n = len(m)
    images, used = [], set()

    def extend(i):
        if i == n:
            return True
        for c in range(n):
            if c in used or target[c][c] != m[i][i]:
                continue
            if all(
                target[c][images[t]] == m[i][t] and target[images[t]][c] == m[t][i]
                for t in range(i)
            ):
                images.append(c)
                used.add(c)
                if extend(i + 1):
                    return True
                images.pop()
                used.discard(c)
        return False

    return extend(0)


# -- values recorded from brute_force_oracle (record_oracle.py) ---------------

def spec_key(spec):
    g, h, n, bound, sym, iso = spec[:6]
    limit = spec[6] if len(spec) > 6 else None
    return f"g={list(g)} h={list(h)} n={n} b={bound} sym={int(sym)} iso={int(iso)} limit={limit}"


def solutions_digest(rows_list):
    text = json.dumps([[list(r) for r in rows] for rows in rows_list])
    return hashlib.sha256(text.encode()).hexdigest()


def load_oracle():
    with open(os.path.join(HERE, "oracle.json"), encoding="utf-8") as fh:
        return json.load(fh)
