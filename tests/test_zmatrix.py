import ast
import itertools
import pathlib
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import _decimal

import functorlab
from functorlab import (
    DimensionMismatch,
    DimensionTooLarge,
    InvalidInput,
    NatMatrix,
    NotSymmetric,
    Permutation,
    RelationPoly,
    canonical_rep,
    conjugate,
    direct_sum,
    external_tensor,
    poly_eval,
    scalar_mul,
    zmatrix,
)
from functorlab.zmatrix import CANON_CAP_ENV, _check_symmetric, _monomial_form, _orbit_min_rows

SWAP = NatMatrix(((0, 1), (1, 0)))


def rand_matrix(rng, n, bound):
    return NatMatrix(
        tuple(tuple(rng.randint(0, bound) for _ in range(n)) for _ in range(n))
    )


def rand_symmetric(rng, n, bound):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(0, bound)
    return NatMatrix(tuple(tuple(r) for r in rows))


def test_construction_validation():
    with pytest.raises(InvalidInput):
        NatMatrix(((1, -1), (0, 0)))
    with pytest.raises(InvalidInput):
        NatMatrix(((1, 0), (0,)))
    with pytest.raises(InvalidInput):
        NatMatrix(())
    with pytest.raises(InvalidInput):
        NatMatrix(((1.0, 0), (0, 1)))
    with pytest.raises(InvalidInput):
        NatMatrix(((True, 0), (0, 1)))


def test_add_mul_examples():
    a = NatMatrix(((1, 2), (3, 4)))
    b = NatMatrix(((0, 1), (1, 0)))
    assert (a + b).entries == ((1, 3), (4, 4))
    assert (a * b).entries == ((2, 1), (4, 3))
    assert (b * a).entries == ((3, 4), (1, 2))
    with pytest.raises(DimensionMismatch):
        a + NatMatrix(((1,),))
    with pytest.raises(DimensionMismatch):
        a * NatMatrix(((1,),))


def test_transpose_examples():
    assert NatMatrix(((1, 1), (0, 0))).transpose().entries == ((1, 0), (1, 0))
    m = NatMatrix(((0, 2), (2, 0)))
    assert m.transpose() == m
    r = NatMatrix(((1, 2), (3, 4)))
    assert r.transpose().transpose() == r


def test_scalar_mul_examples():
    assert scalar_mul(2, SWAP).entries == ((0, 2), (2, 0))
    m = NatMatrix(((1, 2), (3, 4)))
    assert scalar_mul(0, m) == NatMatrix(((0, 0), (0, 0)))
    assert scalar_mul(1, m) == m
    with pytest.raises(InvalidInput):
        scalar_mul(-1, m)


def test_poly_eval_examples():
    m = NatMatrix(((1, 2), (3, 4)))
    assert poly_eval((4,), m).entries == ((4, 0), (0, 4))
    assert poly_eval((0, 0, 1), NatMatrix(((0, 2), (2, 0)))).entries == (
        (4, 0),
        (0, 4),
    )
    assert poly_eval((1, 1), NatMatrix(((1,),))).entries == ((2,),)
    with pytest.raises(InvalidInput):
        poly_eval((1, -1), m)


def test_direct_sum_examples():
    assert direct_sum(NatMatrix(((1,),)), NatMatrix(((2,),))).entries == (
        (1, 0),
        (0, 2),
    )
    assert direct_sum(SWAP, NatMatrix(((0,),))).entries == (
        (0, 1, 0),
        (1, 0, 0),
        (0, 0, 0),
    )


def test_direct_sum_preserves_relations():
    # both summands satisfy x^2 = 4*1, so the block sum must as well
    g, h = (0, 0, 1), (4,)
    a = NatMatrix(((0, 2), (2, 0)))
    b = NatMatrix(((2,),))
    assert poly_eval(g, a) == poly_eval(h, a)
    assert poly_eval(g, b) == poly_eval(h, b)
    s = direct_sum(a, b)
    assert poly_eval(g, s) == poly_eval(h, s)


def test_external_tensor_examples():
    assert external_tensor(NatMatrix(((2,),)), 2).entries == ((2, 0), (0, 2))
    t = external_tensor(SWAP, 2)
    expected = [[0] * 4 for _ in range(4)]
    for i, j in ((1, 3), (2, 4), (3, 1), (4, 2)):
        expected[i - 1][j - 1] = 1
    assert t == NatMatrix.from_rows(expected)
    with pytest.raises(InvalidInput):
        external_tensor(SWAP, 0)


def test_external_tensor_dimension_cap():
    # the product is built in full, so its dimension n*b is capped at 1024
    assert external_tensor(NatMatrix(((1,),)), 1024).n == 1024
    with pytest.raises(DimensionTooLarge) as err:
        external_tensor(SWAP, 513)
    assert err.value.details == {"n": 1026, "cap": 1024}


def test_external_tensor_preserves_relations():
    g, h = (0, 0, 0, 1), (0, 1)  # x^3 = x
    m = SWAP
    assert poly_eval(g, m) == poly_eval(h, m)
    t = external_tensor(m, 3)
    assert poly_eval(g, t) == poly_eval(h, t)


def test_conjugate_examples():
    m = NatMatrix(((1, 2), (3, 4)))
    assert conjugate(m, Permutation((0, 1))) == m
    src = NatMatrix(((0, 0, 1), (0, 2, 0), (4, 0, 0)))
    sigma = Permutation(tuple(x - 1 for x in (1, 3, 2)))  # the transposition (2 3)
    got = conjugate(src, sigma)
    # oracle: rebuild by the entry map out[s(i)][s(j)] = in[i][j]
    expected = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            expected[sigma.images[i]][sigma.images[j]] = src.entries[i][j]
    assert got == NatMatrix.from_rows(expected)
    assert got.entries == ((0, 1, 0), (4, 0, 0), (0, 0, 2))
    with pytest.raises(DimensionMismatch):
        conjugate(m, Permutation((0, 1, 2)))


def test_conjugate_equals_permutation_matrix_sandwich():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, 6)
        images = list(range(n))
        rng.shuffle(images)
        s = Permutation(tuple(images))
        p = s.matrix()
        assert conjugate(m, s) == p * m * s.inverse().matrix()


def test_conjugate_preserves_symmetry():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rand_symmetric(rng, n, 5)
        images = list(range(n))
        rng.shuffle(images)
        assert conjugate(m, Permutation(tuple(images))).is_symmetric()


def test_associativity_distributivity_randomized():
    rng = random.Random(20260823)
    for _ in range(1000):
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n, 10)
        b = rand_matrix(rng, n, 10)
        c = rand_matrix(rng, n, 10)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_transpose_antihomomorphism():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n, 8)
        b = rand_matrix(rng, n, 8)
        assert (a * b).transpose() == b.transpose() * a.transpose()


def test_powers_of_symmetric_are_symmetric():
    # checked power by power, so the polynomial sum is symmetric too
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = rand_symmetric(rng, n, 4)
        for d in range(5):
            assert m.power(d).is_symmetric()
        assert poly_eval((3, 1, 0, 2), m).is_symmetric()


def test_conjugate_is_ring_homomorphism():
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n, 6)
        b = rand_matrix(rng, n, 6)
        images = list(range(n))
        rng.shuffle(images)
        s = Permutation(tuple(images))
        assert conjugate(a * b, s) == conjugate(a, s) * conjugate(b, s)
        assert conjugate(a + b, s) == conjugate(a, s) + conjugate(b, s)
        g = (2, 0, 1, 1)
        assert poly_eval(g, conjugate(a, s)) == conjugate(poly_eval(g, a), s)


def test_arbitrary_precision_exactness():
    big = 10 ** 20
    m = NatMatrix(((big,),))
    assert m.power(3).entries == ((big ** 3,),)
    wide = NatMatrix(((big, big), (big, big)))
    assert (wide * wide).entries[0][0] == 2 * big * big


def test_canonical_rep_examples():
    m = NatMatrix(((2, 0), (0, 1)))
    # oracle: brute force over both 2-element permutations
    both = [conjugate(m, Permutation(p)) for p in ((0, 1), (1, 0))]
    assert canonical_rep(m) == min(both, key=lambda m: m.entries)
    assert canonical_rep(m).entries == ((1, 0), (0, 2))
    eye = NatMatrix.identity(4)
    assert canonical_rep(eye) == eye


def test_canonical_rep_orbit_constant_and_idempotent():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, 4)
        rep = canonical_rep(m)
        assert canonical_rep(rep) == rep
        images = list(range(n))
        rng.shuffle(images)
        assert canonical_rep(conjugate(m, Permutation(tuple(images)))) == rep


def test_canonical_rep_cap(monkeypatch):
    big = NatMatrix.identity(9)
    with pytest.raises(DimensionTooLarge):
        canonical_rep(big)
    monkeypatch.setenv(CANON_CAP_ENV, "9")
    assert canonical_rep(big) == big
    monkeypatch.setenv(CANON_CAP_ENV, "junk")
    with pytest.raises(InvalidInput):
        canonical_rep(big)
    monkeypatch.setenv(CANON_CAP_ENV, "0")
    with pytest.raises(InvalidInput):
        canonical_rep(big)
    monkeypatch.delenv(CANON_CAP_ENV)
    assert canonical_rep(NatMatrix.identity(2)) == NatMatrix.identity(2)


def test_over_cap_messages_name_what_is_capped(monkeypatch):
    # none of these scans n! relabelings, so the messages say what is capped;
    # the oracle does scan them and says so
    from functorlab import RelationPoly, SearchConfig, brute_force_oracle, solve
    from functorlab.canonical import enumerate_involutions

    monkeypatch.delenv(CANON_CAP_ENV, raising=False)
    rel = RelationPoly((0, 0, 1), (1,))
    config = SearchConfig(n=9, bound=1, up_to_iso=True)
    for call, what in (
        (lambda: canonical_rep(NatMatrix.identity(9)), "canonical form dimension"),
        (lambda: solve(rel, config), "up_to_iso dimension"),
        (lambda: enumerate_involutions(9), "involution enumeration dimension"),
    ):
        with pytest.raises(DimensionTooLarge) as err:
            call()
        assert str(err.value) == (
            f"{what} is capped by FUNCTORLAB_CANON_CAP; n=9 exceeds cap 8"
        )
        assert err.value.details == {"n": 9, "cap": 8}
    with pytest.raises(DimensionTooLarge) as err:
        brute_force_oracle(rel, config)
    assert str(err.value) == "up_to_iso filters through n! relabelings; n=9 exceeds cap 8"


def test_dimension_too_large_is_raised_only_by_check_cap():
    # every size cap in the package refuses through zmatrix._check_cap
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "DimensionTooLarge"):
                sites.append(scope)
            visit(child, inner)

    for path in sorted(pathlib.Path(functorlab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sites == ["zmatrix._check_cap"]


def naive_orbit_min(rows):
    """Oracle: the least of all n! relabelings out[a][b] = rows[p[a]][p[b]]."""
    n = len(rows)
    return min(
        tuple(tuple(rows[p[a]][p[b]] for b in range(n)) for a in range(n))
        for p in itertools.permutations(range(n))
    )


def relabeled(rows, images):
    n = len(rows)
    return tuple(tuple(rows[images[a]][images[b]] for b in range(n)) for a in range(n))


def mirrored(rows):
    """The symmetric matrix carrying rows' upper triangle."""
    n = len(rows)
    return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


@st.composite
def orbit_inputs(draw):
    """n <= 6 matrices over a small value set, symmetric or not; half of them
    relabeled direct sums of one repeated block, so that twins (swaps that
    are automorphisms) and automorphisms moving whole blocks both occur."""
    entry = st.sampled_from(draw(st.sampled_from(((0, 1), (0, 0, 1, 2), (0, 1, 2, 3)))))
    symmetric = draw(st.booleans())

    def square(n):
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
        return mirrored(rows) if symmetric else rows

    if draw(st.booleans()):
        return tuple(tuple(r) for r in square(draw(st.integers(1, 6))))
    k = draw(st.integers(1, 3))
    copies = draw(st.integers(2, 6 // k))
    block = square(k)
    n = k * copies
    rows = [[block[i % k][j % k] if i // k == j // k else 0 for j in range(n)]
            for i in range(n)]
    return relabeled(rows, draw(st.permutations(range(n))))


# Pinned ties for the candidate loop: at step 0 of HEAD_TIE both indices
# have head (0,) and are not twins, and the later one's tail (0,) beats the
# earlier one's (1,); THREE_2_CYCLES, a relabeled direct sum of three
# 2-cycles, keeps a frontier of 6 nodes whose later cells split into
# buckets and singletons.
HEAD_TIE = ((0, 1), (0, 0))
THREE_2_CYCLES = ((0, 0, 0, 0, 0, 1), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0),
                  (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0))


@settings(max_examples=400, deadline=None)
@given(orbit_inputs())
@example(HEAD_TIE)
@example(THREE_2_CYCLES)
def test_canonical_rep_matches_naive_orbit_min(rows):
    assert canonical_rep(NatMatrix(rows)).entries == naive_orbit_min(rows)


@settings(max_examples=300, deadline=None)
@given(orbit_inputs())
@example(HEAD_TIE)
@example(THREE_2_CYCLES)
def test_stopped_orbit_min_decides_what_the_full_one_does(rows):
    # the two questions the up-to-iso search asks, against the n! oracle
    naive, n = naive_orbit_min(rows), len(rows)
    for stop in range(1, n + 1):
        got = _orbit_min_rows(rows, stop)
        assert len(got) <= stop and got == naive[:len(got)]
        assert (got < rows[:stop]) == (naive[:stop] < rows[:stop])
    assert (_orbit_min_rows(rows, n) == rows) == (naive == rows)


def test_twins_are_tested_on_columns_too():
    # rows 0 and 1 agree under the swap of 0 and 1, but columns 0 and 1
    # differ, so 0 and 1 are not twins and the search must try both
    rows = ((0, 0, 0), (0, 0, 0), (1, 0, 0))
    assert canonical_rep(NatMatrix(rows)).entries == ((0, 0, 0), (0, 0, 0), (0, 1, 0))


def _graph(n, edges):
    rows = [[0] * n for _ in range(n)]
    for a, b in edges:
        rows[a][b] = rows[b][a] = 1
    return tuple(tuple(r) for r in rows)


def test_canonical_rep_automorphism_rich_n8():
    eye, zero = NatMatrix.identity(8).entries, ((0,) * 8,) * 8
    cases = [
        _graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),  # four disjoint 2-cycles
        _graph(8, [(i, (i + 1) % 8) for i in range(8)]),  # the 8-cycle
        _graph(8, [(a, a | 1 << k) for a in range(8) for k in range(3)
                   if not a & 1 << k]),  # the cube graph Q3
    ]
    rng = random.Random(83)
    for rows in [eye, zero]:
        assert canonical_rep(NatMatrix(rows)).entries == rows
    for rows in cases:
        want = naive_orbit_min(rows)
        for _ in range(3):
            images = list(range(8))
            rng.shuffle(images)
            assert canonical_rep(NatMatrix(relabeled(rows, images))).entries == want


def test_permutation_basics():
    s = Permutation(tuple(x - 1 for x in (2, 3, 1)))
    assert s.one_based() == (2, 3, 1)
    assert s.order() == 3
    assert [s.inverse().images[i] for i in s.images] == [0, 1, 2]
    assert [s.images[i] for i in s.inverse().images] == [0, 1, 2]
    assert not s.is_involution()
    t = Permutation(tuple(x - 1 for x in (2, 1, 3)))
    assert t.is_involution()
    assert t.order() == 2
    assert t.matrix().entries == ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    with pytest.raises(InvalidInput):
        Permutation((0, 0))
    # column i of the matrix holds its 1 in row images[i]
    assert tuple(col.index(1) for col in zip(*s.matrix().entries)) == s.images


@st.composite
def sparse_rows(draw):
    """Rows of an n x n matrix, n <= 6, each with zero, one or two nonzero
    entries in 1..3."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        row = [0] * n
        for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            row[j] = draw(st.integers(1, 3))
        rows.append(tuple(row))
    return tuple(rows)


@settings(max_examples=400, deadline=None)
@given(sparse_rows())
@example(((1, 1), (0, 0)))  # two entries in a row: no monomial form
def test_monomial_form_matches_oracle(rows):
    # naive oracle: list each row's nonzero columns, and rebuild entry by entry
    n = len(rows)
    nonzero = [[j for j, x in enumerate(row) if x] for row in rows]
    form = _monomial_form(rows)
    if any(len(cols) >= 2 for cols in nonzero):
        assert form is None
        return
    images, values = form
    assert images == tuple(cols[0] if cols else i for i, cols in enumerate(nonzero))
    assert tuple(tuple(values[i] if j == images[i] else 0 for j in range(n))
                 for i in range(n)) == rows


def test_relation_poly_normalization():
    rel = RelationPoly((0, 0, 1, 0), (4, 0))
    assert rel.g == (0, 0, 1)
    assert rel.h == (4,)
    assert len(rel.g) - 1 == 2
    with pytest.raises(InvalidInput):
        RelationPoly((0, 1), (0, 1, 0))  # same polynomial, padded
    with pytest.raises(InvalidInput):
        RelationPoly((0, 1), (0, -1))


def test_relation_poly_reduced():
    rel = RelationPoly((1, 2, 1), (1, 1))  # 1 + 2x + x^2 = 1 + x
    assert rel.reduced() == ((0, 1, 1), ())
    rel2 = RelationPoly((0, 0, 1), (4,))
    assert rel2.reduced() == ((0, 0, 1), (4,))


def test_relation_satisfied_by():
    rel = RelationPoly((0, 0, 1), (4,))
    assert rel.satisfied_by(NatMatrix(((0, 2), (2, 0))))
    assert not rel.satisfied_by(NatMatrix(((1, 0), (0, 2))))


# a 5-cycle and a 2-cycle on 7 letters: order 10
ORDER_10 = Permutation((1, 2, 3, 4, 0, 6, 5)).matrix()


def test_power_high_exponent():
    assert ORDER_10.power(5000) == NatMatrix.identity(7)
    assert ORDER_10.power(5001) == ORDER_10
    assert ORDER_10.power(0) == NatMatrix.identity(7)


def test_relation_high_degree():
    assert RelationPoly((0,) * 700 + (1,), (1,)).satisfied_by(ORDER_10)
    assert not RelationPoly((0,) * 701 + (1,), (1,)).satisfied_by(ORDER_10)


def naive_product(a, b):
    n = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)
    ]


def naive_power(rows, d):
    n = len(rows)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(d):
        out = naive_product(out, rows)
    return out


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.integers(0, 12))
def test_power_matches_naive_product(rows, d):
    m = NatMatrix.from_rows(rows)
    assert [list(r) for r in m.power(d).entries] == naive_power(rows, d)


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.lists(st.integers(0, 3), max_size=13))
@example([[0]], [1])  # the constant term alone
def test_poly_eval_matches_naive_product(rows, coeffs):
    got = poly_eval(coeffs, NatMatrix.from_rows(rows))
    assert [list(r) for r in got.entries] == naive_poly(coeffs, rows)


def naive_poly(coeffs, rows):
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for d, c in enumerate(coeffs):
        p = naive_power(rows, d)
        for i in range(n):
            for j in range(n):
                out[i][j] += c * p[i][j]
    return out


@pytest.mark.parametrize("sides, products", [
    ([(0, 0, 1, 1)], 2),                     # X^3 + X^2: X^3 = X^2 X
    ([(0, 0, 0, 0, 1), (0, 0, 1)], 2),       # X^4 = X^2: X^4 = (X^2)^2
    ([(1, 0, 1, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1)], 5),  # X^6 + X^2 + I = X^5
])
def test_each_power_is_one_product_on_a_cached_one(monkeypatch, sides, products):
    # X^d is X^(d-1) X for odd d and (X^(d/2))^2 for even d, the lower power
    # read from the cache, so each power on the chains costs one product
    calls = []
    mul = zmatrix._mul_rows
    monkeypatch.setattr(zmatrix, "_mul_rows", lambda a, b: calls.append(1) or mul(a, b))
    zmatrix._pow_rows.cache_clear()
    zmatrix._poly_rows.cache_clear()
    rows = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    for coeffs in sides:
        assert zmatrix._poly_rows(coeffs, rows) == tuple(map(tuple, naive_poly(coeffs, rows)))
    assert len(calls) == products


def test_huge_power_does_not_recurse():
    # past the cache, square-and-multiply walks the 1001 bits in a loop
    zmatrix._pow_rows.cache_clear()
    assert zmatrix._power(((0,),), 2 ** 1000 + 1) == ((0,),)
    assert zmatrix._power(((1, 1), (0, 1)), 2 ** 1000 + 1) == ((1, 2 ** 1000 + 1), (0, 1))


def test_fresh_huge_power_costs_its_bits_and_stays_out_of_the_cache(monkeypatch):
    # 2^1000 + 1 has 1001 bits: 1000 squares and one product by X on every
    # call, and not one exponent enters the cache, so none of _CACHED_BELOW
    # or more does
    calls = []
    mul = zmatrix._mul_rows
    monkeypatch.setattr(zmatrix, "_mul_rows", lambda a, b: calls.append(1) or mul(a, b))
    zmatrix._pow_rows.cache_clear()
    for total in (1001, 2002):
        assert zmatrix._power(((0,),), 2 ** 1000 + 1) == ((0,),)
        assert len(calls) == total
        assert zmatrix._pow_rows.cache_info().currsize == 0


def with_frames_to_spare(call, frames=60):
    """call() with the recursion limit set `frames` above the current depth."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        return call()
    finally:
        sys.setrecursionlimit(limit)


def test_power_below_2_64_does_not_recurse():
    # 2^64 - 1 is past the cache, so its 64 bits are walked in a loop
    zmatrix._pow_rows.cache_clear()
    power = with_frames_to_spare(lambda: zmatrix._power(((1, 1), (0, 1)), 2 ** 64 - 1))
    assert power == ((1, 2 ** 64 - 1), (0, 1))


def test_largest_cached_power_recurses_within_bounds():
    # from a cold cache, the deepest cached exponent recurses down its chain
    # of about 2 log2(_CACHED_BELOW) exponents, and is cached after
    d = zmatrix._CACHED_BELOW - 1
    zmatrix._pow_rows.cache_clear()
    power = with_frames_to_spare(lambda: zmatrix._power(((1, 1), (0, 1)), d))
    assert power == ((1, d), (0, 1))
    hits = zmatrix._pow_rows.cache_info().hits
    assert zmatrix._power(((1, 1), (0, 1)), d) is power
    assert zmatrix._pow_rows.cache_info().hits == hits + 1


def naive_kronecker(a, b):
    # entry (i*p + s, j*p + t) of a (x) b is a[i][j] * b[s][t], p = len(b)
    p = len(b)
    size = len(a) * p
    return [[a[r // p][c // p] * b[r % p][c % p] for c in range(size)] for r in range(size)]


# small entries keep the zero pattern varied; the big ones pass 2^53
tensor_entries = st.one_of(st.integers(0, 3), st.integers(1 << 53, 1 << 64))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(tensor_entries, min_size=n, max_size=n), min_size=n, max_size=n)),
    st.integers(1, 4))
def test_external_tensor_matches_naive_kronecker(rows, b):
    identity = [[int(s == t) for t in range(b)] for s in range(b)]
    got = external_tensor(NatMatrix.from_rows(rows), b)
    assert [list(r) for r in got.entries] == naive_kronecker(rows, identity)


def naive_symmetry_witness(rows):
    # the first (i, j) with i < j in row-major order where the matrix and its
    # transpose differ: ((i, j) 1-based, rows[i][j], rows[j][i])
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return (i + 1, j + 1), rows[i][j], rows[j][i]
    return None


@st.composite
def nearly_symmetric(draw):
    # a symmetric matrix with a few entries redrawn, so both verdicts are common
    n = draw(st.integers(1, 6))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.integers(0, 3))
    return tuple(map(tuple, rows))


@settings(max_examples=400, deadline=None)
@given(nearly_symmetric())
def test_symmetry_check_matches_upper_triangle_scan(rows):
    want = naive_symmetry_witness(rows)
    m = NatMatrix(rows)
    assert m.is_symmetric() == (want is None)
    if want is None:
        _check_symmetric(m)
        return
    (i, j), x, y = want
    with pytest.raises(NotSymmetric) as info:
        _check_symmetric(m)
    assert info.value.details == {"position": (i, j)}
    assert str(info.value) == f"entry ({i}, {j}) is {x} but ({j}, {i}) is {y}"


def test_integer_argument_messages():
    from functorlab import (
        IndexSubset,
        SearchConfig,
        check_nilpotent,
        classify_cyclic,
        classify_root_of_identity,
        classify_selfadjoint_sqrt,
        decompose,
        enumerate_involutions,
        solve,
    )

    swap = SWAP
    cases = [
        (lambda: check_nilpotent(swap, 0),
         "nilpotency degree must be a positive integer, got 0"),
        (lambda: classify_cyclic(swap, True, 1), "k must be an integer, got True"),
        (lambda: classify_cyclic(swap, 3, "1"), "m must be an integer, got '1'"),
        (lambda: classify_root_of_identity(swap, 0),
         "exponent must be a positive integer, got 0"),
        (lambda: IndexSubset(False, ()), "n must be a positive integer, got False"),
        (lambda: swap.power(-1), "exponent must be a nonnegative integer, got -1"),
        (lambda: external_tensor(swap, 0), "b_simples must be a positive integer, got 0"),
        (lambda: SearchConfig(n=1.0, bound=1), "n must be an integer, got 1.0"),
        (lambda: SearchConfig(n=1, bound=None), "bound must be an integer, got None"),
        (lambda: SearchConfig(n=1, bound=1, limit=True), "limit must be an integer, got True"),
        (lambda: solve(RelationPoly((0, 0, 1), (1,)), SearchConfig(n=1, bound=1), jobs=0),
         "jobs must be a positive integer, got 0"),
        (lambda: decompose(swap, -1), "k must be a nonnegative integer, got -1"),
        (lambda: classify_selfadjoint_sqrt(swap, True),
         "k must be a nonnegative integer, got True"),
        (lambda: enumerate_involutions(0), "n must be a positive integer, got 0"),
    ]
    for call, message in cases:
        with pytest.raises(InvalidInput) as info:
            call()
        assert str(info.value) == message
    assert swap.__rmul__(True) is NotImplemented
    with pytest.raises(TypeError):
        True * swap



# Python's int/str digit limit stays in force outside cli.main; a message
# that names an input integer past it still raises its typed error
BIG = 10 ** 5000


def test_messages_write_input_integers_past_the_digit_limit():
    from functorlab import (
        DimensionMismatch,
        DimensionTooLarge,
        IndexSubset,
        KNotPerfectSquare,
        NotInvariant,
        SearchConfig,
        SearchSpaceTooLarge,
        brute_force_oracle,
        classify_selfadjoint_sqrt,
        enumerate_involutions,
        restrict_serre,
    )

    zero = NatMatrix(((0,),))
    cases = [
        (lambda: NatMatrix(((-BIG,),)), InvalidInput, -BIG),
        (lambda: scalar_mul(-BIG, SWAP), InvalidInput, -BIG),
        (lambda: RelationPoly((-BIG,), (1,)), InvalidInput, -BIG),
        (lambda: classify_selfadjoint_sqrt(zero, BIG + 1), KNotPerfectSquare, BIG + 1),
        (lambda: IndexSubset(3, (BIG,)), InvalidInput, BIG),
        (lambda: IndexSubset(BIG, (BIG, BIG)), InvalidInput, BIG),
        (lambda: restrict_serre(zero, IndexSubset(BIG, (1,))), DimensionMismatch, BIG),
        (lambda: restrict_serre(NatMatrix(((0, BIG), (0, 0))), IndexSubset(2, (2,))),
         NotInvariant, BIG),
        (lambda: SearchConfig(n=-BIG, bound=1), InvalidInput, -BIG),
        (lambda: SearchConfig(n=1, bound=-BIG), InvalidInput, -BIG),
        (lambda: SearchConfig(n=1, bound=1, limit=-BIG), InvalidInput, -BIG),
        (lambda: brute_force_oracle(RelationPoly((0, 0, 1), (1,)), SearchConfig(1, BIG)),
         SearchSpaceTooLarge, BIG + 1),
        (lambda: enumerate_involutions(BIG), DimensionTooLarge, BIG),
        (lambda: external_tensor(SWAP, BIG), DimensionTooLarge, 2 * BIG),
        (lambda: SWAP.power(-BIG), InvalidInput, -BIG),
        (lambda: Permutation((BIG,)), InvalidInput, BIG),
        (lambda: Permutation((0, BIG)), InvalidInput, BIG),
    ]
    for call, error, value in cases:
        with pytest.raises(error) as info:
            call()
        assert _decimal(value) in str(info.value)

_small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n)
).map(lambda rows: NatMatrix(tuple(map(tuple, rows))))


@settings(max_examples=200, deadline=None)
@given(_small_matrices, _small_matrices, st.integers(1, 3), st.data())
def test_trusted_constructions_equal_validated_ones(a, b, k, data):
    # built without NatMatrix's checks, each result is what the checks would
    # have made of the same entries
    sigma = Permutation(tuple(data.draw(st.permutations(range(a.n)))))
    for m in (conjugate(a, sigma), direct_sum(a, b), external_tensor(a, k), sigma.matrix(),
              canonical_rep(a), a.power(k - 1), a + a, scalar_mul(k - 1, a)):
        assert m == NatMatrix(m.entries)
        assert all(type(row) is tuple for row in m.entries)
