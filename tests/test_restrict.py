import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_cli import POWER_OF_TWO_PAST_LIMIT, _decimal

from functorlab import restrict
from functorlab import (
    CartanInstance,
    CartanVerdict,
    DimensionMismatch,
    DimensionTooLarge,
    EmptyComplement,
    EmptySubset,
    IndexSubset,
    InvalidInput,
    NatMatrix,
    NotInvariant,
    NotSymmetric,
    Permutation,
    RelationNotSatisfied,
    RelationPoly,
    SearchConfig,
    cartan_check,
    invariant_subsets,
    is_invariant_subset,
    preserves_add,
    relation_descends,
    restrict_quotient,
    restrict_serre,
    solve,
)
from functorlab.zmatrix import _first_mismatch, _mul_rows, _poly_rows, _scalar_rows

SWAP = NatMatrix(((0, 1), (1, 0)))
BLOCK3 = NatMatrix(((1, 0, 0), (0, 0, 2), (0, 2, 0)))


def subset(n, *members):
    return IndexSubset(n, tuple(members))


def rand_matrix(rng, n, hi=3):
    return NatMatrix(
        tuple(tuple(rng.randint(0, hi) for _ in range(n)) for _ in range(n))
    )


def test_subset_basics():
    s = subset(4, 3, 1)
    assert s.members == (1, 3)
    assert s.size == 2
    assert s.complement().members == (2, 4)
    assert s.zero_based() == (0, 2)
    assert subset(2).members == ()
    with pytest.raises(InvalidInput):
        IndexSubset(0, ())
    with pytest.raises(InvalidInput):
        IndexSubset(2, (3,))
    with pytest.raises(InvalidInput):
        IndexSubset(2, (0,))
    with pytest.raises(InvalidInput):
        IndexSubset(3, (1, 1))
    with pytest.raises(InvalidInput):
        IndexSubset(3, (True,))


def test_is_invariant_examples():
    assert is_invariant_subset(BLOCK3, subset(3, 1))
    # entry (3,2) = 2 escapes the span of index 2
    assert not is_invariant_subset(BLOCK3, subset(3, 2))
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        assert is_invariant_subset(m, subset(n, *range(1, n + 1)))
        assert is_invariant_subset(m, subset(n))
    with pytest.raises(DimensionMismatch):
        is_invariant_subset(SWAP, subset(3, 1))


def test_invariant_subsets_examples():
    got = invariant_subsets(NatMatrix(((1, 0), (0, 2))))
    assert [s.members for s in got] == [(), (1,), (2,), (1, 2)]

    got = invariant_subsets(SWAP)
    assert [s.members for s in got] == [(), (1, 2)]

    got = invariant_subsets(NatMatrix(((1, 1), (0, 1))))
    assert [s.members for s in got] == [(), (1,), (1, 2)]


def oracle_invariant_subsets(m):
    """The naive 2^n scan: keep every mask whose columns have no entry in a
    row outside the mask, sorted by size then members."""
    n = m.n
    out = []
    for mask in range(1 << n):
        inside = [j for j in range(n) if mask >> j & 1]
        outside = [i for i in range(n) if not mask >> i & 1]
        if all(m.entries[i][j] == 0 for j in inside for i in outside):
            out.append(tuple(j + 1 for j in inside))
    out.sort(key=lambda members: (len(members), members))
    return out


def members_of(subsets):
    return [s.members for s in subsets]


def test_invariant_subsets_sorted_and_capped():
    rng = random.Random(7)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 5), hi=1)
        subs = invariant_subsets(m)
        keys = [(s.size, s.members) for s in subs]
        assert keys == sorted(keys)
        for s in subs:
            assert is_invariant_subset(m, s)
        assert members_of(subs) == oracle_invariant_subsets(m)
    with pytest.raises(DimensionTooLarge) as err:
        invariant_subsets(NatMatrix.identity(21))
    assert err.value.details == {"n": 21, "cap": 20}


@st.composite
def supports(draw):
    """An n x n matrix, n <= 8, with any number of nonzero entries."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, n * n))
    cells = draw(st.permutations(range(n * n)))[:k]
    values = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    rows = [[0] * n for _ in range(n)]
    for cell, value in zip(cells, values):
        rows[cell // n][cell % n] = value
    return NatMatrix(tuple(tuple(row) for row in rows))


@settings(max_examples=300, deadline=None)
@given(supports())
def test_invariant_subsets_match_oracle(m):
    assert members_of(invariant_subsets(m)) == oracle_invariant_subsets(m)


def _support_matrix(n, edges):
    """Column v feeds row i for each 1-based (v, i) in edges."""
    rows = [[0] * n for _ in range(n)]
    for v, i in edges:
        rows[i - 1][v - 1] = 1
    return NatMatrix(tuple(tuple(row) for row in rows))


def test_invariant_subsets_identity_all():
    got = members_of(invariant_subsets(NatMatrix.identity(10)))
    assert len(got) == 1024
    assert got == [
        c for k in range(11) for c in itertools.combinations(range(1, 11), k)
    ]


def test_invariant_subsets_all_ones_n20():
    ones = NatMatrix(tuple((1,) * 20 for _ in range(20)))
    assert members_of(invariant_subsets(ones)) == [(), tuple(range(1, 21))]


def test_invariant_subsets_chain_n20():
    chain = _support_matrix(20, [(v, v + 1) for v in range(1, 20)])
    got = members_of(invariant_subsets(chain))
    assert len(got) == 21
    assert got == [tuple(range(21 - k, 21)) for k in range(21)]


def test_invariant_subsets_disjoint_cycles():
    cycles = [(1, 4, 7), (2, 5), (3, 6, 8, 9)]
    edges = [(c[t], c[(t + 1) % len(c)]) for c in cycles for t in range(len(c))]
    got = members_of(invariant_subsets(_support_matrix(9, edges)))
    unions = [
        tuple(sorted(i for c in pick for i in c))
        for k in range(4)
        for pick in itertools.combinations(cycles, k)
    ]
    assert got == sorted(unions, key=lambda members: (len(members), members))


def test_invariant_subsets_cycle_feeds_fixed_point():
    # {1, 2} is a 2-cycle feeding the fixed point 3; 4 is a separate fixed point
    m = NatMatrix(((0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 2, 0), (0, 0, 0, 1)))
    assert not m.is_symmetric()
    assert members_of(invariant_subsets(m)) == [
        (), (3,), (4,), (3, 4), (1, 2, 3), (1, 2, 3, 4)
    ]


def test_restrict_serre():
    assert restrict_serre(BLOCK3, subset(3, 2, 3)).entries == ((0, 2), (2, 0))
    assert restrict_serre(NatMatrix(((5, 0), (0, 7))), subset(2, 1)).entries == ((5,),)
    with pytest.raises(NotInvariant) as err:
        restrict_serre(SWAP, subset(2, 1))
    assert err.value.details["position"] == (2, 1)
    with pytest.raises(EmptySubset):
        restrict_serre(SWAP, subset(2))


def test_restrict_quotient():
    assert restrict_quotient(BLOCK3, subset(3, 1)).entries == ((0, 2), (2, 0))
    assert restrict_quotient(NatMatrix(((1, 0), (0, 2))), subset(2, 2)).entries == (
        (1,),
    )
    with pytest.raises(EmptyComplement):
        restrict_quotient(SWAP, subset(2, 1, 2))
    with pytest.raises(NotInvariant):
        restrict_quotient(SWAP, subset(2, 2))
    # a non-symmetric check that the transpose corner really is transposed
    m = NatMatrix(((1, 2, 4), (0, 3, 0), (0, 6, 5)))
    assert is_invariant_subset(m, subset(3, 1))
    assert restrict_quotient(m, subset(3, 1)).entries == ((3, 6), (0, 5))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.integers(0, n - 1), unique=True, min_size=1))))
def test_corner_equals_its_validated_construction(case):
    # built without NatMatrix's checks, a corner is what the checks would
    # have made of the same entries
    rows, idx = case
    m = NatMatrix(tuple(map(tuple, rows)))
    corner = restrict._corner(m, idx)
    assert corner == NatMatrix(tuple(tuple(rows[i][j] for j in idx) for i in idx))
    assert all(type(row) is tuple for row in corner.entries)


def test_restriction_of_symmetric_is_symmetric():
    rng = random.Random(13)
    found = 0
    while found < 200:
        n = rng.randint(2, 5)
        m = rand_matrix(rng, n, hi=1)
        m = m + m.transpose()
        for s in invariant_subsets(m):
            if 0 < s.size < n:
                assert restrict_serre(m, s).is_symmetric()
                assert restrict_quotient(m, s).is_symmetric()
                found += 1


def test_preserves_add_examples():
    assert preserves_add(SWAP, subset(2, 1, 2))
    # column 2 of the transpose is (0,1), supported inside {2}
    assert preserves_add(NatMatrix(((1, 1), (0, 1))), subset(2, 2))
    assert not preserves_add(NatMatrix(((1, 1), (0, 1))), subset(2, 1))


def test_preserves_add_duality_random():
    rng = random.Random(17)
    for _ in range(500):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        members = tuple(i for i in range(1, n + 1) if rng.random() < 0.5)
        s = IndexSubset(n, members)
        assert preserves_add(m, s) == is_invariant_subset(m, s.complement())


def test_preserves_add_duality_exhaustive():
    for n in (1, 2, 3):
        cells = n * n
        masks = [
            IndexSubset(n, tuple(i + 1 for i in range(n) if mask >> i & 1))
            for mask in range(1 << n)
        ]
        for vals in itertools.product((0, 1, 2), repeat=cells):
            m = NatMatrix(
                tuple(vals[i * n : (i + 1) * n] for i in range(n))
            )
            mt = m.transpose()
            for s in masks:
                assert is_invariant_subset(mt, s) == is_invariant_subset(
                    m, s.complement()
                )
                assert preserves_add(m, s) == is_invariant_subset(mt, s)


X_SQ_EQ_4 = RelationPoly((0, 0, 1), (4,))


def test_relation_descends_examples():
    m = NatMatrix(((0, 2, 0), (2, 0, 0), (0, 0, 2)))
    rep = relation_descends(m, subset(3, 3), X_SQ_EQ_4)
    assert rep.ambient_satisfied
    assert rep.serre.entries == ((2,),)
    assert rep.quotient.entries == ((0, 2), (2, 0))

    rep = relation_descends(
        NatMatrix.identity(3), subset(3, 1, 2), RelationPoly((0, 0, 1), (1,))
    )
    assert rep.serre == NatMatrix.identity(2)
    assert rep.quotient == NatMatrix.identity(1)

    rep = relation_descends(
        NatMatrix(((1, 0), (0, 0))), subset(2, 2), RelationPoly((0, 0, 1), (0, 1))
    )
    assert rep.serre.entries == ((0,),)
    assert rep.quotient.entries == ((1,),)


def test_relation_descends_edge_subsets():
    rel = RelationPoly((0, 0, 1), (1,))
    rep = relation_descends(SWAP, subset(2), rel)
    assert rep.serre is None and rep.quotient == SWAP
    rep = relation_descends(SWAP, subset(2, 1, 2), rel)
    assert rep.serre == SWAP and rep.quotient is None


def test_relation_descends_errors():
    with pytest.raises(NotInvariant):
        relation_descends(SWAP, subset(2, 1), RelationPoly((0, 0, 1), (1,)))
    with pytest.raises(RelationNotSatisfied) as err:
        relation_descends(
            NatMatrix(((1, 0), (0, 2))), subset(2, 1), RelationPoly((0, 0, 1), (0, 1))
        )
    assert err.value.details["position"] == (2, 2)
    assert err.value.details["lhs"] == 4
    assert err.value.details["rhs"] == 2


def test_descent_mismatch_past_the_digit_limit_raises_relation_not_satisfied():
    # Python's int/str digit limit stays in force outside cli.main
    big = 2 ** POWER_OF_TWO_PAST_LIMIT
    rel = RelationPoly((0,) * POWER_OF_TWO_PAST_LIMIT + (1,), (1,))
    with pytest.raises(RelationNotSatisfied) as err:
        relation_descends(NatMatrix(((2,),)), subset(1, 1), rel)
    assert err.value.details == {"position": (1, 1), "lhs": big, "rhs": 1}
    assert err.value.message == f"g(M)[1][1] = {_decimal(big)} but h(M) there is 1"


def test_relation_descends_sweep():
    # every solver solution descends cleanly to every invariant subset
    rels = [
        RelationPoly((0, 0, 1), (1,)),
        RelationPoly((0, 0, 1), (0, 1)),
        RelationPoly((0, 0, 0, 1), (0, 1)),
        RelationPoly((0, 0, 1), (4,)),
    ]
    for rel in rels:
        for n in (1, 2, 3):
            res = solve(rel, SearchConfig(n=n, bound=2))
            for m in res.solutions:
                for s in invariant_subsets(m):
                    rep = relation_descends(m, s, rel)
                    assert rep.ambient_satisfied
                    if rep.serre is not None:
                        assert rel.satisfied_by(rep.serre)
                    if rep.quotient is not None:
                        assert rel.satisfied_by(rep.quotient)


# -- cartan checker -----------------------------------------------------------


def _rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    if not rows:
        return 0
    width = len(rows[0])
    rank = 0
    for c in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_cartan_pass():
    inst = CartanInstance(
        2 * NatMatrix.identity(2), (SWAP, NatMatrix(((1, 0), (0, 0))))
    )
    verdict = cartan_check(inst)
    assert verdict.kind == "pass"
    assert verdict.scale == 2
    assert inst.cartan == verdict.scale * NatMatrix.identity(2)
    assert cartan_check(inst) == verdict


def test_cartan_fail_commutation():
    inst = CartanInstance(NatMatrix(((2, 0), (0, 1))), (SWAP,))
    verdict = cartan_check(inst)
    assert verdict.kind == "fail_commutation"
    assert verdict.functor == 1
    assert verdict.position == (1, 2)
    assert verdict.left == 1
    assert verdict.right == 2


def test_cartan_reducible():
    inst = CartanInstance(2 * NatMatrix.identity(2), (SWAP,))
    verdict = cartan_check(inst)
    assert verdict.kind == "reducible"
    assert verdict.functor == 1
    basis = verdict.basis
    assert 0 < len(basis) < 2
    # witness really is invariant: applying each functor stays in the span
    for f in inst.functors:
        for v in basis:
            image = tuple(
                sum(f.entries[i][j] * v[j] for j in range(f.n)) for i in range(f.n)
            )
            assert _rank(basis) == _rank(list(basis) + [image])
    assert cartan_check(inst) == verdict


def test_cartan_reducible_witnesses_are_proper_invariant():
    rng = random.Random(23)
    seen = 0
    # seed 23 finds its 30th reducible family at attempt 79; the cap turns a
    # regression that stops reducible verdicts into a failure, not a hang
    for _ in range(200):
        if seen == 30:
            break
        n = rng.randint(2, 4)
        fams = []
        for _ in range(rng.randint(1, 2)):
            m = rand_matrix(rng, n, hi=1)
            fams.append(m + m.transpose())
        inst = CartanInstance(NatMatrix.identity(n), tuple(fams))
        verdict = cartan_check(inst)
        if verdict.kind != "reducible":
            continue
        seen += 1
        basis = verdict.basis
        assert 0 < len(basis) < n
        assert _rank(basis) == len(basis)
        for f in inst.functors:
            for v in basis:
                image = tuple(
                    sum(f.entries[i][j] * v[j] for j in range(n)) for i in range(n)
                )
                assert _rank(basis) == _rank(list(basis) + [image])
    assert seen == 30


def test_cartan_pass_requires_scalar():
    # identity family commutes with anything; a non-scalar cartan matrix can
    # then never earn a pass
    inst = CartanInstance(NatMatrix(((2, 0), (0, 1))), (NatMatrix.identity(2),))
    verdict = cartan_check(inst)
    assert verdict.kind in ("reducible", "inconclusive")


def test_cartan_instance_validation():
    with pytest.raises(InvalidInput):
        CartanInstance(NatMatrix.identity(2), ())
    with pytest.raises(DimensionMismatch):
        CartanInstance(NatMatrix.identity(2), (NatMatrix.identity(3),))
    with pytest.raises(NotSymmetric):
        CartanInstance(NatMatrix.identity(2), (NatMatrix(((0, 1), (0, 0))),))


def _assert_sound(inst, verdict):
    """A reducible verdict's basis spans a proper subspace every functor keeps."""
    assert verdict.kind in ("reducible", "inconclusive")
    if verdict.kind == "reducible":
        n = inst.cartan.n
        assert 0 < len(verdict.basis) < n
        for f in inst.functors:
            for v in verdict.basis:
                image = tuple(
                    sum(f.entries[i][j] * v[j] for j in range(n)) for i in range(n)
                )
                assert _rank(verdict.basis) == _rank(list(verdict.basis) + [image])


def test_cartan_large_entries_stay_sound():
    # the eigenvalues 10^10 and 10^10 + 1 divide the constant term
    # 10^10 (10^10 + 1) only through divisors beyond the trial-divisor scan
    big = 10 ** 10
    inst = CartanInstance(NatMatrix.identity(2), (NatMatrix(((big, 0), (0, big + 1))),))
    _assert_sound(inst, cartan_check(inst))


def test_cartan_moderate_entries_still_reducible():
    inst = CartanInstance(NatMatrix.identity(2), (NatMatrix(((1000, 0), (0, 1001))),))
    verdict = cartan_check(inst)
    assert verdict.kind == "reducible"
    assert (verdict.functor, verdict.eigenvalue, verdict.basis) == (1, 1000, ((1, 0),))


def test_cartan_finds_eigenvalues_with_large_prime_factors():
    # 1000003 * 1000033 has no divisor at or below 10^6 but 1, so a search
    # through small divisors of the constant term misses both eigenvalues
    functor = NatMatrix(((1000003, 0), (0, 1000033)))
    verdict = cartan_check(CartanInstance(NatMatrix.identity(2), (functor,)))
    assert (verdict.kind, verdict.functor, verdict.eigenvalue, verdict.basis) == (
        "reducible", 1, 1000003, ((1, 0),)
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0, 1, 2, 3, 5, 9]), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@example([[0, 1], [1, 0]])  # eigenvalues -1 and 1, one in each half of [-1, 1]
def test_integer_roots_match_a_scan_of_the_spectral_range(rows):
    n = len(rows)
    sym = tuple(tuple(rows[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))
    assert restrict._integer_roots(restrict._char_poly(sym)) == scan_integer_eigenvalues(sym)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=7),
       st.lists(st.sampled_from([2, 3, 5, 7, 8, 12]), max_size=2))
def test_integer_roots_of_real_rooted_products(roots, surds):
    # (x - a) for each a, times x^2 - k for each non-square k: all roots real,
    # the surds irrational
    coeffs = [1]
    for factor in [[1, -a] for a in roots] + [[1, 0, -k] for k in surds]:
        out = [0] * (len(coeffs) + len(factor) - 1)
        for i, c in enumerate(coeffs):
            for j, f in enumerate(factor):
                out[i + j] += c * f
        coeffs = out
    assert restrict._integer_roots(coeffs) == sorted(set(roots))


def _normalize_int_vector(vec):
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def oracle_kernel_basis(rows):
    """Naive oracle: Gauss-Jordan elimination to reduced row echelon form, then
    one kernel vector per free column (that column 1, other free columns 0)."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        hit = next((i for i in range(r, n) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row_idx, c in enumerate(pivots):
            vec[c] = -m[row_idx][free]
        basis.append(_normalize_int_vector(vec))
    return basis


@st.composite
def rank_deficient(draw):
    """An n x n integer matrix, n <= 6, of rank at most k < n: A (n x k) B (k x n)."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n - 1))
    entry = st.integers(-4, 4)
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(n)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(rank_deficient(), st.lists(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3)))
def test_kernel_basis_matches_oracle(rows):
    basis = restrict._kernel_basis(rows)
    assert basis == oracle_kernel_basis(rows)
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows)


# -- the rational Cartan path as an oracle -----------------------------------
# The checker as it stood before it went fraction-free: pivot-1 echelon rows
# of Fractions, a Fraction Faddeev-LeVerrier and Fraction back-substitution.
# The fraction-free checker must give the same verdict, field for field.


class _OracleRationalSpan:
    """Growing basis of rational vectors kept in echelon form."""

    def __init__(self, length):
        self.length = length
        self.rows = []  # (pivot index, vector) sorted by pivot

    @property
    def dim(self):
        return len(self.rows)

    def residue(self, vec):
        vec = list(vec)
        for pivot, row in self.rows:
            c = vec[pivot]
            if c:
                for t in range(pivot, self.length):
                    vec[t] -= c * row[t]
        return vec

    def add(self, vec):
        """Insert vec if independent; True when the span grew."""
        vec = self.residue([Fraction(x) for x in vec])
        pivot = next((t for t, x in enumerate(vec) if x), None)
        if pivot is None:
            return False
        inv = 1 / vec[pivot]
        vec = [x * inv for x in vec]
        self.rows.append((pivot, vec))
        self.rows.sort(key=lambda pr: pr[0])
        return True


def oracle_char_poly(rows):
    """Monic characteristic polynomial, descending integer coefficients."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    coeffs = [Fraction(1)]
    mk = a
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k < n:
            shifted = [list(r) for r in mk]
            for i in range(n):
                shifted[i][i] += ck
            mk = _mul_rows(a, shifted)
    assert all(c.denominator == 1 for c in coeffs)
    return [c.numerator for c in coeffs]


def scan_integer_eigenvalues(rows):
    """Integer eigenvalues of a nonnegative symmetric matrix, ascending: every
    eigenvalue lies in [-r, r], r the largest row sum, so scan that range."""
    coeffs = oracle_char_poly(rows)
    d = len(coeffs) - 1
    r = max(sum(row) for row in rows)
    return [x for x in range(-r, r + 1) if sum(c * x ** (d - i) for i, c in enumerate(coeffs)) == 0]


def oracle_rational_kernel(rows):
    n = len(rows)
    span = _OracleRationalSpan(n)
    for row in rows:
        span.add(row)
    pivots = {pivot for pivot, _ in span.rows}
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for pivot, row in reversed(span.rows):  # back-substitute, last pivot first
            vec[pivot] = -sum(row[t] * vec[t] for t in range(pivot + 1, n))
        basis.append(_normalize_int_vector(vec))
    return basis


def oracle_word_span_dim(gens, n):
    """Rational dimension of the span of the words in gens, the empty word
    included, capped at n^2."""
    span = _OracleRationalSpan(n * n)
    queue = []
    for rows in [_scalar_rows(n, 1)] + gens:
        if span.add(restrict._flatten(rows)):
            queue.append(rows)
    while queue and span.dim < n * n:
        current = queue.pop(0)
        for g in gens:
            prod = _mul_rows(current, g)
            if span.add(restrict._flatten(prod)):
                queue.append(prod)
    return span.dim


def oracle_cartan_check(instance):
    c = instance.cartan
    n = c.n
    for idx, f in enumerate(instance.functors):
        bad = _first_mismatch(
            _mul_rows(f.entries, c.entries), _mul_rows(c.entries, f.entries)
        )
        if bad is not None:
            pos, left, right = bad
            return CartanVerdict(
                "fail_commutation", functor=idx + 1, position=pos, left=left, right=right
            )
    gens = [f.entries for f in instance.functors]
    if oracle_word_span_dim(gens, n) == n * n:
        scale = c.entries[0][0]
        bad = _first_mismatch(c.entries, _scalar_rows(n, scale))
        if bad is not None:
            return CartanVerdict("inconsistent_input", position=bad[0])
        return CartanVerdict("pass", scale=scale)
    for idx, f in enumerate(instance.functors):
        for ev in scan_integer_eigenvalues(f.entries):
            shifted = [
                [x - (ev if i == j else 0) for j, x in enumerate(row)]
                for i, row in enumerate(f.entries)
            ]
            kernel = oracle_rational_kernel(shifted)
            if not kernel:
                continue
            sub = _OracleRationalSpan(n)
            vec_queue = []
            for v in kernel:
                if sub.add(v):
                    vec_queue.append(v)
            while vec_queue and sub.dim < n:
                v = vec_queue.pop(0)
                for g in gens:
                    w = restrict._apply(g, v)
                    if sub.add(w):
                        vec_queue.append(w)
            if sub.dim < n:
                basis = tuple(_normalize_int_vector(row) for _, row in sub.rows)
                return CartanVerdict(
                    "reducible", functor=idx + 1, eigenvalue=ev, basis=basis
                )
    return CartanVerdict("inconclusive")


def _relabel(rows, perm):
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
    return NatMatrix(tuple(tuple(r) for r in out))


@st.composite
def cartan_instances(draw):
    """A Cartan instance: a random symmetric family (n <= 6, 1-3 generators,
    entries in {0..3, 7}, optionally a relabeled direct sum of two blocks)
    under a scalar Cartan matrix, a non-scalar one that commutes with the
    first generator, or a random symmetric one; or the benchmark's pass shape
    (relabeled path adjacency plus a projection) or reducible shape (a
    symmetric permutation matrix)."""
    n = draw(st.integers(1, 6))
    scale = draw(st.integers(1, 4))
    scalar = scale * NatMatrix.identity(n)
    perm = draw(st.permutations(range(n)))
    shape = draw(st.sampled_from(["random", "block", "pass", "reducible"]))
    if shape == "pass":
        path = [[int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
        proj = [[int(i == j == 0) for j in range(n)] for i in range(n)]
        return CartanInstance(scalar, (_relabel(path, perm), _relabel(proj, perm)))
    if shape == "reducible":
        pairs = draw(st.integers(0, n // 2))
        images = list(range(n))
        for t in range(pairs):
            a, b = perm[2 * t], perm[2 * t + 1]
            images[a], images[b] = b, a
        return CartanInstance(scalar, (Permutation(tuple(images)).matrix(),))
    entry = st.sampled_from([0, 1, 2, 3, 7])
    # indices below cut and from cut on never meet: a direct sum of two blocks
    cut = draw(st.integers(1, n)) if shape == "block" else n
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        upper = draw(st.lists(entry, min_size=n * (n + 1) // 2,
                              max_size=n * (n + 1) // 2))
        rows = [[0] * n for _ in range(n)]
        cells = iter(upper)
        for i in range(n):
            for j in range(i, n):
                x = next(cells)
                rows[i][j] = rows[j][i] = x if (i < cut) == (j < cut) else 0
        gens.append(_relabel(rows, perm))
    cartan = draw(st.sampled_from(["scalar", "commuting", "symmetric"]))
    if cartan == "scalar":
        c = scalar
    elif cartan == "commuting":
        c = gens[0] * gens[0] + scalar
    else:
        c = draw(st.lists(entry, min_size=n * n, max_size=n * n))
        c = NatMatrix(tuple(tuple(c[i * n:(i + 1) * n]) for i in range(n)))
        c = c + c.transpose()
    return CartanInstance(c, tuple(gens))


@settings(max_examples=400, deadline=None)
@given(cartan_instances())
def test_cartan_check_matches_rational_oracle(inst):
    assert cartan_check(inst) == oracle_cartan_check(inst)


def gf2_word_span_dim(gens):
    """The checker's span of the words in gens mod 2, capped at n^2."""
    n = len(gens[0])
    bits = [restrict._gf2_rows(g) for g in gens]
    one = restrict._gf2_rows(_scalar_rows(n, 1))
    return restrict._closure_dim([one] + bits, bits, restrict._gf2_mul, restrict._gf2_span(n),
                                 n * n)


def gf2_rank(vectors):
    """Rank over GF(2) of equal-length 0/1 lists, by plain row reduction."""
    rows, rank = [list(v) for v in vectors], 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gf2_span_dimension_matches_rank(n):
    # along a fixed sequence of 3 n^2 matrices, so that both growing and
    # dependent inserts occur, the inserts that grew the span number the
    # rank mod 2 of the matrices so far
    rng = random.Random(n)
    mats = [[[rng.randrange(4) for _ in range(n)] for _ in range(n)] for _ in range(3 * n * n)]
    add = restrict._gf2_span(n)
    grown = 0
    for k, m in enumerate(mats, 1):
        grown += add(restrict._gf2_rows(m))
        assert grown == gf2_rank([x & 1 for row in a for x in row] for a in mats[:k])


def _count_exact_inserts(monkeypatch):
    calls = []
    add = restrict._IntegerSpan.add

    def counted(self, vec):
        calls.append(vec)
        return add(self, vec)

    monkeypatch.setattr(restrict._IntegerSpan, "add", counted)
    return calls


def test_cartan_pass_decided_by_exact_span_when_mod_2_stalls(monkeypatch):
    # 2 E11 vanishes mod 2, so the words mod 2 span only I and SWAP; over Q
    # the family spans all four matrices
    gens = (SWAP, NatMatrix(((2, 0), (0, 0))))
    assert gf2_word_span_dim([g.entries for g in gens]) == 2
    assert oracle_word_span_dim([g.entries for g in gens], 2) == 4
    calls = _count_exact_inserts(monkeypatch)
    verdict = cartan_check(CartanInstance(2 * NatMatrix.identity(2), gens))
    assert verdict == CartanVerdict("pass", scale=2)
    assert calls


@pytest.mark.parametrize("n", range(2, 9))
def test_cartan_pass_certified_mod_2(monkeypatch, n):
    # the benchmark's pass shape: relabeled path adjacency plus a projection
    rng = random.Random(n)
    perm = list(range(n))
    rng.shuffle(perm)
    path = [[int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    proj = [[int(i == j == 0) for j in range(n)] for i in range(n)]
    gens = (_relabel(path, perm), _relabel(proj, perm))
    assert gf2_word_span_dim([g.entries for g in gens]) == n * n
    calls = _count_exact_inserts(monkeypatch)
    verdict = cartan_check(CartanInstance(3 * NatMatrix.identity(n), gens))
    assert verdict == CartanVerdict("pass", scale=3)
    assert calls == []


@settings(max_examples=400, deadline=None)
@given(cartan_instances())
def test_full_span_mod_2_is_full_over_q(inst):
    # n^2 words independent mod 2 have an odd determinant, so they are
    # independent over Q too
    gens = [f.entries for f in inst.functors]
    n = inst.cartan.n
    if gf2_word_span_dim(gens) == n * n:
        assert oracle_word_span_dim(gens, n) == n * n


def test_cartan_instances_reach_every_span_case():
    # the oracle comparison above covers the mod 2 certificate, the exact
    # span after mod 2 falls short, and families that are not full at all
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(cartan_instances())
    def sweep(inst):
        gens = [f.entries for f in inst.functors]
        n = inst.cartan.n
        seen.add((gf2_word_span_dim(gens) == n * n, oracle_word_span_dim(gens, n) == n * n))

    sweep()
    assert seen == {(True, True), (False, True), (False, False)}


def test_cartan_basis_pivots_positive_after_negative_residue():
    # the image of the first kernel vector leaves a residue whose leading
    # entry is negative; the basis row must still come out with a positive pivot
    cases = [
        ((((0, 7, 0), (7, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 2, 0), (0, 0, 0))),
         (1, -7, ((1, -1, 0), (0, 1, 0)))),
        ((((3, 0, 2), (0, 0, 0), (2, 0, 0)), ((2, 0, 7), (0, 3, 0), (7, 0, 3))),
         (1, -1, ((1, 0, -2), (0, 0, 1)))),
    ]
    for gens, (functor, eigenvalue, basis) in cases:
        inst = CartanInstance(NatMatrix.identity(3), tuple(NatMatrix(g) for g in gens))
        verdict = cartan_check(inst)
        assert (verdict.kind, verdict.functor, verdict.eigenvalue, verdict.basis) == (
            "reducible", functor, eigenvalue, basis
        )
        assert verdict == oracle_cartan_check(inst)


def _fraction_det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        hit = next((i for i in range(c, n) if m[i][c]), None)
        if hit is None:
            return Fraction(0)
        if hit != c:
            m[c], m[hit] = m[hit], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_char_poly_integer_identities(rows):
    n = len(rows)
    coeffs = restrict._char_poly(rows)
    assert coeffs == oracle_char_poly(rows)
    assert coeffs[0] == 1 and len(coeffs) == n + 1
    # Cayley-Hamilton: p(A) = 0, with p's coefficients in ascending order
    frozen = tuple(tuple(row) for row in rows)
    assert _poly_rows(tuple(reversed(coeffs)), frozen) == _scalar_rows(n, 0)
    assert sum(rows[i][i] for i in range(n)) == -coeffs[1]
    assert _fraction_det(rows) == (-1) ** n * coeffs[n]


# The descent theorem, in place of a runtime re-check of each corner: for an
# S-invariant M, each corner of g(M) is g of that corner of M.


@st.composite
def invariant_cases(draw):
    """(M, S, coefficients): M random with S's leaking entries cleared."""
    n = draw(st.integers(1, 5))
    members = tuple(i + 1 for i in range(n) if draw(st.booleans()))
    rows = [[draw(st.integers(0, 2)) for _ in range(n)] for _ in range(n)]
    for j in members:
        for i in range(n):
            if i + 1 not in members:
                rows[i][j - 1] = 0
    coeffs = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    return NatMatrix.from_rows(rows), IndexSubset(n, members), tuple(coeffs)


def _corner_rows(rows, members):
    return tuple(tuple(rows[i - 1][j - 1] for j in members) for i in members)


@settings(max_examples=300, deadline=None)
@given(invariant_cases())
def test_corners_of_a_polynomial_are_polynomials_of_the_corners(case):
    m, s, coeffs = case
    full = _poly_rows(coeffs, m.entries)
    if s.size:
        serre = restrict_serre(m, s)
        assert _corner_rows(full, s.members) == _poly_rows(coeffs, serre.entries)
    if s.size < s.n:
        quotient = restrict_quotient(m, s)
        transposed = tuple(zip(*full))
        assert (_corner_rows(transposed, s.complement().members)
                == _poly_rows(coeffs, quotient.entries))


@settings(max_examples=200, deadline=None)
@given(invariant_cases(), st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_relation_descends_evaluates_only_the_ambient_sides(case, h):
    # g(M) and h(M), and nothing on the corners; the corners it returns are
    # the restrictions, whatever the verdict
    m, s, g = case
    try:
        rel = RelationPoly(g, tuple(h))
    except InvalidInput:  # g and h the same polynomial
        assume(False)
    calls = []

    def counted(coeffs, rows):
        calls.append(rows)
        return _poly_rows(coeffs, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(restrict, "_poly_rows", counted)
        try:
            rep = relation_descends(m, s, rel)
        except RelationNotSatisfied:
            rep = None
    assert calls == [m.entries, m.entries]
    if rep is not None:
        assert rep.serre == (restrict_serre(m, s) if s.size else None)
        assert rep.quotient == (restrict_quotient(m, s) if s.size < s.n else None)
