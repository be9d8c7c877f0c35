import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import POWER_OF_TWO_PAST_LIMIT, _decimal

from functorlab import (
    FunctorLabError,
    InternalFault,
    InvalidInput,
    NatMatrix,
    NotARoot,
    NotASolution,
    NotIdempotent,
    NotSymmetric,
    Permutation,
    check_commuting_idempotents,
    check_nilpotent,
    classify_cyclic,
    classify_idempotent,
    classify_root_of_identity,
    conjugate,
)
from functorlab import classify, zmatrix
from functorlab.classify import (
    CommutingIdempotents,
    CyclicClassification,
    IdempotentClassification,
)
from functorlab.errors import ShapeViolation
from functorlab.zmatrix import _check_symmetric, _first_mismatch, _pow_rows

SWAP = NatMatrix(((0, 1), (1, 0)))


def symmetric_matrices(n, bound):
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    for values in itertools.product(range(bound + 1), repeat=len(idx)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(idx, values):
            rows[i][j] = rows[j][i] = v
        yield NatMatrix.from_rows(rows)


def all_matrices(n, bound):
    for values in itertools.product(range(bound + 1), repeat=n * n):
        yield NatMatrix.from_rows(
            [values[i * n : (i + 1) * n] for i in range(n)]
        )


def diagonal_01(n, support):
    return NatMatrix.from_rows(
        [[1 if i == j and i + 1 in support else 0 for j in range(n)] for i in range(n)]
    )


def test_classify_idempotent_examples():
    assert classify_idempotent(NatMatrix(((1, 0), (0, 0)))).support == (1,)
    with pytest.raises(NotSymmetric):
        classify_idempotent(NatMatrix(((1, 1), (0, 0))))
    assert classify_idempotent(NatMatrix.identity(3)).support == (1, 2, 3)
    with pytest.raises(NotIdempotent) as info:
        classify_idempotent(NatMatrix(((2,),)))
    assert info.value.details == {"position": (1, 1), "got": 4, "expected": 2}


def test_symmetric_idempotents_exhaustive():
    # the 2^n diagonal 0/1 matrices and nothing else
    for n in (1, 2, 3):
        found = [m for m in symmetric_matrices(n, 2) if m * m == m]
        assert len(found) == 2 ** n
        for m in found:
            cls = classify_idempotent(m)
            assert m == diagonal_01(n, cls.support)


def test_idempotent_matrix_reconstruction():
    cls = classify_idempotent(diagonal_01(4, (2, 4)))
    assert cls.support == (2, 4)
    assert cls.matrix() == diagonal_01(4, (2, 4))


def test_commuting_idempotents_examples():
    r = check_commuting_idempotents(diagonal_01(2, (1,)), diagonal_01(2, (2,)))
    assert r.both == ()
    assert r.a_only == (1,)
    assert r.b_only == (2,)
    assert r.neither == ()
    assert r.product == NatMatrix(((0, 0), (0, 0)))

    r = check_commuting_idempotents(diagonal_01(3, (1, 2)), diagonal_01(3, (1,)))
    assert r.both == (1,)
    assert r.a_only == (2,)
    assert r.b_only == ()
    assert r.neither == (3,)
    assert r.product == diagonal_01(3, (1,))

    eye = NatMatrix.identity(3)
    r = check_commuting_idempotents(eye, eye)
    assert r.both == (1, 2, 3)
    assert r.product == eye


def test_idempotents_always_commute():
    mats = [m for m in symmetric_matrices(3, 1) if m * m == m]
    for a in mats:
        for b in mats:
            assert a * b == b * a
            r = check_commuting_idempotents(a, b)
            assert set(r.both) | set(r.a_only) | set(r.b_only) | set(r.neither) == {
                1,
                2,
                3,
            }


def test_check_nilpotent_examples():
    assert check_nilpotent(NatMatrix(((0,) * 3,) * 3), 2).kind == "zero"
    v = check_nilpotent(SWAP, 5)
    assert v.kind == "not_nilpotent"
    assert v.power == 5
    assert v.position == (1, 2)
    assert v.value == 1
    v = check_nilpotent(NatMatrix(((1,),)), 1)
    assert v.kind == "not_nilpotent"
    with pytest.raises(NotSymmetric):
        check_nilpotent(NatMatrix(((0, 1), (0, 0))), 2)
    with pytest.raises(InvalidInput):
        check_nilpotent(SWAP, 0)


def test_symmetric_nilpotents_exhaustive():
    for n in (1, 2, 3):
        for m in symmetric_matrices(n, 2):
            for j in range(1, n + 1):
                if m.power(j).is_zero():
                    assert m.is_zero()


def test_classify_cyclic_examples():
    cls = classify_cyclic(SWAP, 3, 1)
    assert cls.kind == "partial_involution"
    assert cls.support == (1, 2)
    assert cls.pairing == (2, 1)

    cls = classify_cyclic(NatMatrix(((1, 0), (0, 0))), 4, 1)
    assert cls.kind == "idempotent"
    assert cls.support == (1,)

    with pytest.raises(NotASolution) as info:
        classify_cyclic(NatMatrix(((0, 2), (2, 0))), 3, 1)
    assert info.value.details["position"] == (1, 2)
    assert info.value.details["got"] == 8
    assert info.value.details["expected"] == 2

    with pytest.raises(InvalidInput):
        classify_cyclic(SWAP, 1, 1)


def test_classify_cyclic_exhaustive_shapes():
    # odd gap: every solution of x^3 = x^2 is idempotent
    for m in symmetric_matrices(2, 2):
        if m.power(3) == m.power(2):
            cls = classify_cyclic(m, 3, 2)
            assert cls.kind == "idempotent"
            assert m * m == m
    # even gap: every solution of x^3 = x is a 0/1 partial involution
    for m in symmetric_matrices(2, 2):
        if m.power(3) == m:
            cls = classify_cyclic(m, 3, 1)
            assert cls.kind == "partial_involution"
            assert all(x in (0, 1) for row in m.entries for x in row)
            # pairing really is an involution of the support
            where = {s: p for s, p in zip(cls.support, cls.pairing)}
            for s, p in where.items():
                assert where[p] == s


def test_classify_root_examples():
    cls = classify_root_of_identity(SWAP, 2)
    assert cls.permutation.one_based() == (2, 1)
    assert cls.order == 2
    assert cls.selfadjoint

    cls = classify_root_of_identity(NatMatrix.identity(3), 5)
    assert cls.permutation == Permutation((0, 1, 2))
    assert cls.order == 1
    assert cls.selfadjoint

    cycle = NatMatrix(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    assert cycle.power(3) == NatMatrix.identity(3)
    cls = classify_root_of_identity(cycle, 3)
    assert cls.order == 3
    assert not cls.selfadjoint
    assert cls.matrix() == cycle

    with pytest.raises(NotARoot) as info:
        classify_root_of_identity(NatMatrix(((2,),)), 3)
    assert info.value.details["power"] == 3
    with pytest.raises(InvalidInput):
        classify_root_of_identity(SWAP, 0)


def test_classify_root_checks_the_permutation_once(monkeypatch):
    # one monomial read per call decides the permutation shape
    calls = []
    read = zmatrix._monomial_form

    def counted(rows):
        calls.append(rows)
        return read(rows)

    monkeypatch.setattr(classify, "_monomial_form", counted)
    cycle = NatMatrix(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    cls = classify_root_of_identity(cycle, 6)
    assert len(calls) == 1
    assert cls.permutation == Permutation((1, 2, 0))
    assert cls.permutation.matrix() == cycle
    calls.clear()
    with pytest.raises(NotARoot):
        classify_root_of_identity(NatMatrix(((0, 1), (1, 1))), 2)
    assert len(calls) == 1


def _is_permutation_matrix(m):
    # every row and every column holds one 1 and zeros elsewhere
    rows = m.entries
    return all(sorted(line) == [0] * (m.n - 1) + [1] for line in rows + tuple(zip(*rows)))


def test_roots_of_identity_exhaustive():
    for n in (1, 2, 3):
        eye = NatMatrix.identity(n)
        for e in (1, 2, 3, 4):
            for m in all_matrices(n, 2):
                if m.power(e) != eye:
                    continue
                cls = classify_root_of_identity(m, e)
                assert _is_permutation_matrix(m)
                assert e % cls.order == 0
                assert cls.selfadjoint == m.is_symmetric()


def test_classify_root_high_exponent():
    # a 5-cycle and a 2-cycle on 7 letters: order 10 divides 500
    m = Permutation((1, 2, 3, 4, 0, 6, 5)).matrix()
    cls = classify_root_of_identity(m, 500)
    assert cls.order == 10
    assert not cls.selfadjoint
    with pytest.raises(NotARoot):
        classify_root_of_identity(m, 505)


# Outside cli.main Python's int/str digit limit stays in force; a mismatch
# past it still raises its typed error, with the message cli.main writes
def test_root_mismatch_past_the_digit_limit_raises_not_a_root():
    big = 2 ** POWER_OF_TWO_PAST_LIMIT
    with pytest.raises(NotARoot) as info:
        classify_root_of_identity(NatMatrix(((2,),)), POWER_OF_TWO_PAST_LIMIT)
    assert info.value.details == {
        "position": (1, 1), "got": big, "expected": 1, "power": POWER_OF_TWO_PAST_LIMIT}
    assert info.value.message == (
        f"(M^{POWER_OF_TWO_PAST_LIMIT})[1][1] = {_decimal(big)}, expected 1")


def test_cyclic_mismatch_past_the_digit_limit_raises_not_a_solution():
    big = 2 ** POWER_OF_TWO_PAST_LIMIT
    with pytest.raises(NotASolution) as info:
        classify_cyclic(NatMatrix(((2,),)), POWER_OF_TWO_PAST_LIMIT, 1)
    assert info.value.details == {"position": (1, 1), "got": big, "expected": 2}
    assert info.value.message == (
        f"(M^{POWER_OF_TWO_PAST_LIMIT})[1][1] = {_decimal(big)} but (M^1) there is 2")


def _first_mismatch_with_identity(rows):
    n = len(rows)
    return next(
        ((i + 1, j + 1), rows[i][j], int(i == j))
        for i in range(n) for j in range(n) if rows[i][j] != int(i == j)
    )


def test_classify_root_huge_exponent_reduces_by_order():
    # M^e = M^(e mod o) for a permutation matrix of order o: the witness of a
    # failing exponent near 2^80 is the first entry where M^(e mod o) leaves I
    perms = [
        (0, 1, 2),                      # order 1
        (1, 0, 2, 3),                   # order 2
        (1, 2, 0, 4, 3),                # order 6
        (1, 2, 3, 4, 0, 6, 5),          # order 10
        (1, 2, 3, 0, 5, 6, 4, 7),       # order 12
        (2, 0, 1, 5, 3, 4, 7, 6),       # order 6, every index moved
    ]
    for images in perms:
        sigma = Permutation(images)
        m = sigma.matrix()
        o = sigma.order()
        for e in [2 ** 80 + d for d in range(-7, 8)] + [o * (2 ** 80 // o), 2 ** 64 + 1]:
            images = tuple(range(sigma.n))
            for _ in range(e % o):
                images = tuple(sigma.images[i] for i in images)
            power = Permutation(images)
            if e % o == 0:
                cls = classify_root_of_identity(m, e)
                assert (cls.permutation, cls.order) == (sigma, o)
                assert cls.selfadjoint == (o <= 2)
                continue
            pos, got, want = _first_mismatch_with_identity(power.matrix().entries)
            with pytest.raises(NotARoot) as info:
                classify_root_of_identity(m, e)
            assert info.value.details == {
                "position": pos, "got": got, "expected": want, "power": e
            }
            assert str(info.value) == (
                f"(M^{e})[{pos[0]}][{pos[1]}] = {got}, expected {want}"
            )


# Independent check: the shape readers as they stood before they were reduced
# to one rebuild-and-compare check, testing every entry on its own.


def _oracle_diagonal_support(m):
    e = m.entries
    support = []
    for i in range(m.n):
        if e[i][i] not in (0, 1):
            raise ShapeViolation("diagonal entry is not 0 or 1")
        if e[i][i]:
            support.append(i + 1)
    for i in range(m.n):
        for j in range(m.n):
            if i != j and e[i][j]:
                raise ShapeViolation("off-diagonal entry in a diagonal idempotent")
    return tuple(support)


def _oracle_idempotent(m):
    _check_symmetric(m)
    bad = _first_mismatch(_pow_rows(m.entries, 2), m.entries)
    if bad is not None:
        pos, got, want = bad
        raise NotIdempotent(
            f"(M^2)[{pos[0]}][{pos[1]}] = {got} but M there is {want}",
            position=pos,
            got=got,
            expected=want,
        )
    return IdempotentClassification(m.n, _oracle_diagonal_support(m))


def _oracle_cyclic(m, k, mm):
    _check_symmetric(m)
    bad = _first_mismatch(_pow_rows(m.entries, k), _pow_rows(m.entries, mm))
    if bad is not None:
        pos, got, want = bad
        raise NotASolution(
            f"(M^{k})[{pos[0]}][{pos[1]}] = {got} but (M^{mm}) there is {want}",
            position=pos,
            got=got,
            expected=want,
        )
    if (k - mm) % 2 == 1:
        if _pow_rows(m.entries, 2) != m.entries:
            raise ShapeViolation("odd exponent gap that is not idempotent")
        return CyclicClassification("idempotent", m.n, _oracle_diagonal_support(m))
    e = m.entries
    support = [i for i in range(m.n) if any(e[i])]
    images = {}
    for i in support:
        hits = [j for j in range(m.n) if e[i][j]]
        if len(hits) != 1 or e[i][hits[0]] != 1:
            raise ShapeViolation("support row is not a 0/1 permutation row")
        images[i] = hits[0]
    if any(j not in images or images[images[i]] != i for i, j in images.items()):
        raise ShapeViolation("support rows do not pair up into an involution")
    return CyclicClassification(
        "partial_involution",
        m.n,
        tuple(i + 1 for i in support),
        tuple(images[i] + 1 for i in support),
    )


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except FunctorLabError as err:
        return type(err), err.code, err.message, err.details


@st.composite
def shape_cases(draw):
    """Matrices for the shape readers, n <= 10, under a random relabeling.

    Kinds: 0/1 partial involutions with zero rows and fixed points, diagonal
    idempotents, symmetric roots r*P, strictly upper nilpotents, symmetric
    matrices with small entries and random (mostly non-symmetric) matrices.
    """
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(
        ["partial", "idempotent", "symmetric_root", "nilpotent", "symmetric", "random"]
    ))
    rows = [[0] * n for _ in range(n)]
    if kind in ("partial", "symmetric_root"):
        r = 1 if kind == "partial" else draw(st.integers(0, 3))
        rest = [i for i in draw(st.permutations(range(n)))
                if kind == "symmetric_root" or draw(st.booleans())]
        while rest:
            i = rest.pop()
            j = rest.pop() if rest and draw(st.booleans()) else i
            rows[i][j] = rows[j][i] = r
    elif kind == "idempotent":
        for i in range(n):
            rows[i][i] = draw(st.integers(0, 1))
    elif kind == "nilpotent":
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = draw(st.integers(0, 2))
    elif kind == "symmetric":
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(st.sampled_from([0, 0, 0, 1, 2]))
    else:
        rows = [[draw(st.integers(0, 2)) for _ in range(n)] for _ in range(n)]
    relabel = Permutation(tuple(draw(st.permutations(range(n)))))
    return conjugate(NatMatrix.from_rows(rows), relabel)


@settings(max_examples=400, deadline=None)
@given(shape_cases(), st.integers(2, 6).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(1, k - 1))
))
@example(NatMatrix(((0, 1), (1, 0))), (2, 1))  # an involution, not a diagonal
@example(NatMatrix(((2,),)), (2, 1))  # a monomial shape, but not 0/1
def test_shape_readers_match_oracle(m, exponents):
    k, mm = exponents
    assert _outcome(classify_idempotent, m) == _outcome(_oracle_idempotent, m)
    assert _outcome(classify_cyclic, m, k, mm) == _outcome(_oracle_cyclic, m, k, mm)


CORRUPT = [
    ((1, 1), (1, 1)),
    ((2, 0), (0, 0)),
    ((0, 2), (2, 0)),
    ((0, 1, 1), (1, 0, 0), (1, 0, 0)),
    ((1, 1, 0), (1, 0, 0), (0, 0, 0)),
    # not symmetric: 0/1 monomial rows that do not pair up
    ((0, 1), (0, 0)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
]


@pytest.mark.parametrize("rows", CORRUPT)
@pytest.mark.parametrize("reader", [
    classify_idempotent,
    lambda m: check_commuting_idempotents(m, m),
    lambda m: classify_cyclic(m, 3, 1),
    lambda m: classify_cyclic(m, 4, 1),
])
def test_corrupt_shape_exits_3(rows, reader, monkeypatch):
    # with the symmetry check and every equation check forced to pass, a
    # shape the theory excludes is an internal fault (exit 3), never a user
    # error
    monkeypatch.setattr(classify, "_check_symmetric", lambda m: None)
    monkeypatch.setattr(classify, "_first_mismatch", lambda a, b: None)
    with pytest.raises(FunctorLabError) as info:
        reader(NatMatrix(rows))
    assert isinstance(info.value, InternalFault)
    assert not isinstance(info.value, InvalidInput)
    assert info.value.exit_code == 3


# Shape first: a matrix with the forced shape gets its verdict from the
# rebuild alone, and every other matrix from the dense powers.  Near-shapes
# (one symmetric pair of entries moved) reach both paths.


@st.composite
def near_shapes(draw, n):
    """An n x n 0/1 diagonal or 0/1 partial involution under a random
    relabeling, with at most one pair of entries changed: moved by one, set
    to 2, or changed on one side only."""
    rows = [[0] * n for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = draw(st.integers(0, 1))
    else:
        rest = [i for i in draw(st.permutations(range(n))) if draw(st.booleans())]
        while rest:
            i = rest.pop()
            j = rest.pop() if rest and draw(st.booleans()) else i
            rows[i][j] = rows[j][i] = 1
    change = draw(st.sampled_from(["none", "up", "down", "two", "one_side"]))
    if change != "none":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        v = {"up": rows[i][j] + 1, "down": max(rows[i][j] - 1, 0)}.get(change, 2)
        rows[i][j] = v
        if change != "one_side":
            rows[j][i] = v
    relabel = Permutation(tuple(draw(st.permutations(range(n)))))
    return conjugate(NatMatrix.from_rows(rows), relabel)


def _oracle_commuting(a, b):
    # the products computed densely, as before the supports alone decided them
    ca, cb = _oracle_idempotent(a), _oracle_idempotent(b)
    if a.n != b.n:
        raise InvalidInput(f"idempotents act on different index sets ({a.n} vs {b.n})")
    ab = a * b
    assert ab == b * a  # diagonal matrices commute
    sa, sb = set(ca.support), set(cb.support)
    return CommutingIdempotents(
        n=a.n,
        both=tuple(sorted(sa & sb)),
        a_only=tuple(sorted(sa - sb)),
        b_only=tuple(sorted(sb - sa)),
        neither=tuple(sorted(set(range(1, a.n + 1)) - sa - sb)),
        product=ab,
    )


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(near_shapes(n), near_shapes(n))),
       st.integers(2, 7).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k - 1))))
def test_near_shapes_match_oracle(pair, exponents):
    # both exponent-gap parities, on exact shapes and on shapes one entry off
    (a, b), (k, mm) = pair, exponents
    assert _outcome(classify_idempotent, a) == _outcome(_oracle_idempotent, a)
    assert _outcome(classify_cyclic, a, k, mm) == _outcome(_oracle_cyclic, a, k, mm)
    assert (_outcome(check_commuting_idempotents, a, b)
            == _outcome(_oracle_commuting, a, b))


def _no_product(a, b):
    raise AssertionError("a positive verdict computed a matrix product")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(near_shapes(n), near_shapes(n))),
       st.integers(2, 7).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k - 1))))
def test_positive_verdicts_make_no_matrix_product(pair, exponents):
    # a verdict the dense oracle gives must come without a product; only the
    # negative verdicts and errors may compute powers
    (a, b), (k, mm) = pair, exponents
    calls = [
        (classify_idempotent, (a,), _oracle_idempotent),
        (check_commuting_idempotents, (a, b), _oracle_commuting),
        (classify_cyclic, (a, k, mm), _oracle_cyclic),
    ]
    expected = [_outcome(oracle, *args) for _, args, oracle in calls]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zmatrix, "_mul_rows", _no_product)
        _pow_rows.cache_clear()
        for (reader, args, _), want in zip(calls, expected):
            if want[0] == "ok":
                assert _outcome(reader, *args) == want


# M^e = I over Z+: the two facts the classifier reads off the order instead
# of checking at run time, against powers computed one product at a time.


def _naive_order(m):
    eye, p, k = NatMatrix.identity(m.n), m, 1
    while p != eye:
        p, k = p * m, k + 1
    return k


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.permutations(range(n))), st.integers(1, 4),
       st.integers(0, 3))
def test_root_of_identity_order_divides_exponent_and_reads_symmetry(images, t, off):
    m = Permutation(tuple(images)).matrix()
    o = _naive_order(m)
    e = o * t + off  # a multiple of the order, or a few past one
    if off % o:
        with pytest.raises(NotARoot):
            classify_root_of_identity(m, e)
        return
    cls = classify_root_of_identity(m, e)
    assert cls.order == o and e % cls.order == 0
    assert cls.matrix() == m
    assert cls.selfadjoint == m.is_symmetric() == (m * m == NatMatrix.identity(m.n))
