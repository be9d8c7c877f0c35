import itertools
import random
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from functorlab import (
    Block1,
    Block2,
    DimensionTooLarge,
    FunctorLabError,
    InternalFault,
    InvalidInput,
    KNotPerfectSquare,
    NatMatrix,
    NotASquareRoot,
    NotDecomposable,
    NotSymmetric,
    Permutation,
    classify_selfadjoint_sqrt,
    conjugate,
    decompose,
    enumerate_involutions,
)
from functorlab import canonical, zmatrix
from functorlab.canonical import BlockForm, SqrtClassification, _verify_square
from functorlab.zmatrix import _check_symmetric, _pow_rows


def random_square_root(rng):
    """Conjugated block diagonal: the ground truth decompose must recover."""
    k = rng.randint(1, 36)
    r = isqrt(k)
    pairs = [(a, k // a) for a in range(1, k + 1) if k % a == 0]
    blocks = []
    size = 0
    target = rng.randint(1, 10)
    while size < target:
        if r * r == k and (size + 2 > target or rng.random() < 0.4):
            blocks.append(("b1", r))
            size += 1
        else:
            if size + 2 > target:
                break
            a, b = rng.choice(pairs)
            blocks.append(("b2", a, b))
            size += 2
    if not blocks:
        blocks = [("b2", pairs[0][0], pairs[0][1])]
        size = 2
    rows = [[0] * size for _ in range(size)]
    pos = 0
    for block in blocks:
        if block[0] == "b1":
            rows[pos][pos] = block[1]
            pos += 1
        else:
            rows[pos][pos + 1] = block[1]
            rows[pos + 1][pos] = block[2]
            pos += 2
    images = list(range(size))
    rng.shuffle(images)
    return conjugate(NatMatrix.from_rows(rows), Permutation(tuple(images))), k


def test_decompose_examples():
    form = decompose(NatMatrix(((0, 2), (2, 0))), 4)
    assert form.perm.images == tuple(range(form.perm.n))
    assert form.blocks == (Block2(2, 2),)

    form = decompose(NatMatrix(((3,),)), 9)
    assert form.perm.images == tuple(range(form.perm.n))
    assert form.blocks == (Block1(3),)

    m = NatMatrix(((0, 0, 1), (0, 2, 0), (4, 0, 0)))
    assert (m * m).entries == tuple(
        tuple(4 if i == j else 0 for j in range(3)) for i in range(3)
    )
    form = decompose(m, 4)
    assert form.perm.one_based() == (1, 3, 2)
    assert form.blocks == (Block2(1, 4), Block1(2))
    assert form.k == 4
    assert form.recompose() == m


def test_decompose_rejects_non_roots():
    with pytest.raises(NotASquareRoot) as info:
        decompose(NatMatrix(((1, 1), (0, 1))), 1)
    assert info.value.details["position"] == (1, 2)
    with pytest.raises(NotASquareRoot):
        decompose(NatMatrix(((0, 2), (2, 0))), 5)


def test_decompose_k_zero():
    z = NatMatrix(((0,) * 3,) * 3)
    form = decompose(z, 0)
    assert form.blocks == (Block1(0), Block1(0), Block1(0))
    assert form.recompose() == z
    # a nonzero nilpotent squares to zero but fits no block shape
    with pytest.raises(NotDecomposable):
        decompose(NatMatrix(((0, 1), (0, 0))), 0)


def test_decompose_round_trip_randomized():
    rng = random.Random(88)
    for _ in range(1000):
        m, k = random_square_root(rng)
        form = decompose(m, k)
        assert form.k == k
        assert form.recompose() == m
        for block in form.blocks:
            if isinstance(block, Block1):
                assert block.a * block.a == k
            else:
                assert block.a * block.b == k
                assert block.a >= 1 and block.b >= 1


def test_recompose_refuses_blocks_that_do_not_cover_perm():
    perm = Permutation((2, 0, 1))
    assert BlockForm(perm, (Block2(1, 4), Block1(2)), 4).recompose() == NatMatrix(
        ((2, 0, 0), (0, 0, 1), (0, 4, 0)))
    for blocks in ((), (Block2(1, 4),), (Block2(1, 4), Block1(2), Block1(2))):
        with pytest.raises(InternalFault):
            BlockForm(perm, blocks, 4).recompose()


def test_decompose_builds_one_permutation(monkeypatch):
    # the recompose check reads the block order itself, so the stored
    # relabeling is the one permutation a decompose builds
    rng = random.Random(89)
    cases = [random_square_root(rng) for _ in range(200)]
    built = []
    check = Permutation.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    for m, k in cases:
        built.clear()
        form = decompose(m, k)
        assert built == [form.perm]


def test_symmetric_blocks_are_balanced():
    # from a symmetric input every 2x2 block comes out with a = b
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randint(1, 6)
        r = rng.randint(1, 5)
        invs = [p for p in itertools.permutations(range(n))
                if all(p[p[i]] == i for i in range(n))]
        sigma = Permutation(rng.choice(invs))
        m = NatMatrix.from_rows(
            [[r if sigma.images[i] == j else 0 for j in range(n)] for i in range(n)]
        )
        form = decompose(m, r * r)
        for block in form.blocks:
            if isinstance(block, Block2):
                assert block.a == block.b


def test_sqrt_classify_examples():
    cls = classify_selfadjoint_sqrt(NatMatrix(((0, 2), (2, 0))), 4)
    assert cls.root == 2
    assert cls.involution.one_based() == (2, 1)
    assert cls.matrix() == NatMatrix(((0, 2), (2, 0)))

    cls = classify_selfadjoint_sqrt(NatMatrix(((3,),)), 9)
    assert cls.root == 3
    assert cls.involution.images == tuple(range(cls.involution.n))


def test_sqrt_classify_error_precedence():
    # asymmetry reported first; with symmetry enforced, k=2 fails squareness
    with pytest.raises(NotSymmetric):
        classify_selfadjoint_sqrt(NatMatrix(((0, 1), (2, 0))), 2)
    with pytest.raises(KNotPerfectSquare):
        classify_selfadjoint_sqrt(NatMatrix(((0, 1), (1, 0))), 2)
    with pytest.raises(NotASquareRoot):
        classify_selfadjoint_sqrt(NatMatrix(((0, 1), (1, 0))), 4)


def test_sqrt_classify_k_zero():
    cls = classify_selfadjoint_sqrt(NatMatrix(((0, 0), (0, 0))), 0)
    assert cls.root == 0
    assert cls.involution.images == tuple(range(cls.involution.n))


def test_sqrt_exhaustive_small():
    # no symmetric square root of k*I for non-square k; all roots classify
    def symmetric_matrices(n, bound):
        idx = [(i, j) for i in range(n) for j in range(i, n)]
        for values in itertools.product(range(bound + 1), repeat=len(idx)):
            rows = [[0] * n for _ in range(n)]
            for (i, j), v in zip(idx, values):
                rows[i][j] = rows[j][i] = v
            yield NatMatrix.from_rows(rows)

    for k in (2, 3, 5):
        for n in (1, 2):
            target = tuple(
                tuple(k if i == j else 0 for j in range(n)) for i in range(n)
            )
            hits = [m for m in symmetric_matrices(n, k) if (m * m).entries == target]
            assert hits == []
    for k in (1, 4):
        for n in (1, 2):
            target = tuple(
                tuple(k if i == j else 0 for j in range(n)) for i in range(n)
            )
            for m in symmetric_matrices(n, k):
                if (m * m).entries != target:
                    continue
                cls = classify_selfadjoint_sqrt(m, k)
                assert cls.root * cls.root == k
                assert cls.matrix() == m


def test_enumerate_involutions():
    assert [p.one_based() for p in enumerate_involutions(1)] == [(1,)]
    assert [p.one_based() for p in enumerate_involutions(2)] == [(1, 2), (2, 1)]
    for n in range(1, 9):
        # oracle: filter all n! permutations for sigma^2 = id, in order
        expected = [
            p for p in itertools.permutations(range(n))
            if all(p[p[i]] == i for i in range(n))
        ]
        assert [p.images for p in enumerate_involutions(n)] == expected
    got = enumerate_involutions(4)
    assert len(got) == 10
    counts = [len(enumerate_involutions(n)) for n in range(1, 7)]
    assert counts == [1, 2, 4, 10, 26, 76]
    assert [p.images for p in got] == sorted(p.images for p in got)
    with pytest.raises(DimensionTooLarge):
        enumerate_involutions(9)


# Independent check: the block readers as they stood before they were reduced
# to one rebuild-and-compare check.  The partner walk tests every entry on
# its own, so it shares no shape logic with the module under test.


def _oracle_decompose(m, k):
    _verify_square(m, k)
    n = m.n
    e = m.entries
    remaining = list(range(n))
    order = []
    blocks = []
    while remaining:
        i = remaining[0]
        if e[i][i]:
            if e[i][i] * e[i][i] != k:
                raise InternalFault("diagonal entry does not square to k")
            for t in range(n):
                if t != i and (e[i][t] or e[t][i]):
                    raise InternalFault("fixed index has off-diagonal mass")
            blocks.append(Block1(e[i][i]))
            order.append(i)
            remaining.remove(i)
            continue
        partners = [j for j in remaining[1:] if e[i][j] and e[j][i]]
        if not partners:
            if any(e[i][t] or e[t][i] for t in range(n) if t != i):
                raise NotDecomposable(
                    f"index {i + 1} has no partner and a nonzero row or column",
                    index=i + 1,
                    k=k,
                )
            blocks.append(Block1(0))
            order.append(i)
            remaining.remove(i)
            continue
        if len(partners) > 1:
            raise InternalFault("index pairs with several partners")
        j = partners[0]
        a, b = e[i][j], e[j][i]
        if a * b != k:
            raise InternalFault("pair weight product is not k")
        for t in range(n):
            if t not in (i, j) and (e[i][t] or e[t][i] or e[j][t] or e[t][j]):
                raise InternalFault("pair has mass outside the block")
        blocks.append(Block2(a, b))
        order.extend((i, j))
        remaining.remove(i)
        remaining.remove(j)
    images = [0] * n
    for pos, original in enumerate(order):
        images[original] = pos
    return BlockForm(Permutation(tuple(images)), tuple(blocks), k)


def _oracle_sqrt(m, k):
    _check_symmetric(m)
    n = m.n
    e = m.entries
    root = isqrt(k)
    if root * root != k:
        raise KNotPerfectSquare(
            f"no symmetric square root of {k}*I exists: {k} is not a perfect square",
            k=k,
        )
    _verify_square(m, k)
    if root == 0:
        if not m.is_zero():
            raise InternalFault("symmetric nilpotent of order two that is nonzero")
        return SqrtClassification(0, Permutation(tuple(range(n))))
    images = [0] * n
    for i in range(n):
        hits = [j for j in range(n) if e[i][j]]
        if len(hits) != 1 or e[i][hits[0]] != root:
            raise InternalFault("row is not root times a permutation row")
        images[i] = hits[0]
    sigma = Permutation(tuple(images))
    if not sigma.is_involution():
        raise InternalFault("support permutation is not an involution")
    return SqrtClassification(root, sigma)


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except FunctorLabError as err:
        return type(err), err.code, err.message, err.details


@st.composite
def _pairing(draw, indices):
    """An involution of `indices` as a dict: each index to its partner."""
    rest = list(draw(st.permutations(indices)))
    partner = {}
    while rest:
        i = rest.pop()
        j = rest.pop() if rest and draw(st.booleans()) else i
        partner[i], partner[j] = j, i
    return partner


@st.composite
def reader_cases(draw):
    """(matrix, k) for the block readers, n <= 10, under a random relabeling.

    Kinds: monomial involutions with weights a*b = k, symmetric roots r*P,
    0/1 partial involutions with zero rows and fixed points, diagonal
    idempotents, nilpotents that square to zero (k = 0) and random matrices.
    """
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(
        ["monomial", "symmetric_root", "partial", "idempotent", "nilpotent", "random"]
    ))
    rows = [[0] * n for _ in range(n)]
    if kind == "monomial":
        k = draw(st.integers(1, 36))
        root = isqrt(k)
        i = 0
        while i < n:
            if i + 1 < n and (root * root != k or draw(st.booleans())):
                a = draw(st.sampled_from([d for d in range(1, k + 1) if k % d == 0]))
                rows[i][i + 1], rows[i + 1][i] = a, k // a
                i += 2
            else:
                # an odd index left over at non-square k stays a zero row
                rows[i][i] = root if root * root == k else 0
                i += 1
    elif kind in ("symmetric_root", "partial"):
        r = draw(st.integers(0, 5)) if kind == "symmetric_root" else 1
        support = range(n) if kind == "symmetric_root" else [
            i for i in range(n) if draw(st.booleans())
        ]
        for i, j in draw(_pairing(support)).items():
            rows[i][j] = r
        k = r * r if kind == "symmetric_root" else draw(st.integers(0, 1))
    elif kind == "idempotent":
        for i in range(n):
            rows[i][i] = draw(st.integers(0, 1))
        k = draw(st.integers(0, 1))
    elif kind == "nilpotent":
        # entries only from a source row to a later sink column: M^2 = 0
        source = [draw(st.booleans()) for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if source[i] and not source[j]:
                    rows[i][j] = draw(st.integers(0, 3))
        k = 0
    else:
        rows = [[draw(st.integers(0, 3)) for _ in range(n)] for _ in range(n)]
        k = draw(st.integers(0, 9))
    relabel = Permutation(tuple(draw(st.permutations(range(n)))))
    return conjugate(NatMatrix.from_rows(rows), relabel), k


@settings(max_examples=400, deadline=None)
@given(reader_cases())
@example((NatMatrix(((0, 1), (2, 0))), 1))  # a pair whose product overshoots k
def test_readers_match_oracle(case):
    m, k = case
    assert _outcome(decompose, m, k) == _outcome(_oracle_decompose, m, k)
    assert _outcome(classify_selfadjoint_sqrt, m, k) == _outcome(_oracle_sqrt, m, k)


@pytest.mark.parametrize("rows, k", [
    (((1, 1), (1, 1)), 2),                       # two entries in a row
    (((0, 1, 0), (0, 0, 1), (1, 0, 0)), 1),      # a 3-cycle, not an involution
    (((0, 1), (0, 0)), 1),                       # a zero row hit by another row
    (((0, 1), (0, 1)), 1),                       # two rows hit one column
    (((2, 1), (1, 2)), 5),
])
def test_decompose_corrupt_shape_exits_3(rows, k, monkeypatch):
    # with the equation check forced to pass, a shape the theory excludes is
    # an internal fault (exit 3), never a user error
    monkeypatch.setattr(canonical, "_verify_square", lambda m, k: None)
    with pytest.raises(FunctorLabError) as info:
        decompose(NatMatrix(rows), k)
    assert isinstance(info.value, InternalFault)
    assert not isinstance(info.value, InvalidInput)
    assert info.value.exit_code == 3


@pytest.mark.parametrize("rows, k", [
    (((1, 1), (1, 1)), 1),
    (((0, 0), (0, 0)), 4),
    (((1, 0), (0, 0)), 1),
    (((2, 0), (0, 1)), 1),
    (((0, 1), (1, 0)), 0),
    (((0, 2, 0), (2, 0, 2), (0, 2, 0)), 4),
])
def test_sqrt_classify_corrupt_shape_exits_3(rows, k, monkeypatch):
    monkeypatch.setattr(canonical, "_verify_square", lambda m, k: None)
    with pytest.raises(FunctorLabError) as info:
        classify_selfadjoint_sqrt(NatMatrix(rows), k)
    assert isinstance(info.value, InternalFault)
    assert info.value.exit_code == 3


def block_diagonal(blocks):
    """The block-diagonal matrix of a block list, blocks in order."""
    n = sum(1 if isinstance(b, Block1) else 2 for b in blocks)
    rows = [[0] * n for _ in range(n)]
    pos = 0
    for b in blocks:
        if isinstance(b, Block1):
            rows[pos][pos] = b.a
            pos += 1
        else:
            rows[pos][pos + 1], rows[pos + 1][pos] = b.a, b.b
            pos += 2
    return NatMatrix.from_rows(rows)


@settings(max_examples=400, deadline=None)
@given(reader_cases())
def test_block_diagonal_is_the_relabeled_input(case):
    # the BlockForm claim: relabeling the input by perm gives the block diagonal
    m, k = case
    try:
        form = decompose(m, k)
    except FunctorLabError:
        return
    assert conjugate(m, form.perm) == block_diagonal(form.blocks)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n
)), st.integers(1, 4))
def test_corrupt_inputs_never_leave_exit_3(rows, k):
    # with the equation check bypassed, any matrix either reads as a block
    # form that recomposes to it, or fails as an internal fault
    m = NatMatrix.from_rows(rows)
    saved = canonical._verify_square
    canonical._verify_square = lambda m, k: None
    try:
        for reader in (decompose, classify_selfadjoint_sqrt):
            try:
                got = reader(m, k)
            except (NotSymmetric, KNotPerfectSquare):
                # checks on the input itself, which the bypass leaves in place
                assert reader is classify_selfadjoint_sqrt
            except FunctorLabError as err:
                assert err.exit_code == 3, err
            else:
                assert (got.recompose() if reader is decompose else got.matrix()) == m
    finally:
        canonical._verify_square = saved


# Shape first: an input with the forced block shape gets its BlockForm or
# classification from the rebuild alone, every other input from M^2.


@st.composite
def near_roots(draw):
    """(matrix, k): a monomial involution with weights multiplying to k, or
    root times a symmetric permutation matrix, n <= 8, under a random
    relabeling; then at most one change: k moved by one or set to 0, or one
    entry (or a symmetric pair) moved by one or set to 2."""
    n = draw(st.integers(1, 8))
    rows = [[0] * n for _ in range(n)]
    if draw(st.booleans()):
        k = draw(st.integers(1, 12))
        divisors = [d for d in range(1, k + 1) if k % d == 0]
        for i, j in draw(_pairing(range(n))).items():
            if i < j:
                a = draw(st.sampled_from(divisors))
                rows[i][j], rows[j][i] = a, k // a
            elif i == j:
                rows[i][i] = isqrt(k)  # off the shape unless k is a square
    else:
        r = draw(st.integers(0, 3))
        for i, j in draw(_pairing(range(n))).items():
            rows[i][j] = r
        k = r * r
    change = draw(st.sampled_from(["none", "k_up", "k_down", "k_zero", "up", "down",
                                   "two", "pair_up"]))
    if change.startswith("k_"):
        k = {"k_up": k + 1, "k_down": max(k - 1, 0), "k_zero": 0}[change]
    elif change != "none":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        v = {"down": max(rows[i][j] - 1, 0), "two": 2}.get(change, rows[i][j] + 1)
        rows[i][j] = v
        if change == "pair_up":
            rows[j][i] = v
    relabel = Permutation(tuple(draw(st.permutations(range(n)))))
    return conjugate(NatMatrix.from_rows(rows), relabel), k


@settings(max_examples=400, deadline=None)
@given(near_roots())
def test_near_roots_match_oracle(case):
    m, k = case
    assert _outcome(decompose, m, k) == _outcome(_oracle_decompose, m, k)
    assert _outcome(classify_selfadjoint_sqrt, m, k) == _outcome(_oracle_sqrt, m, k)


def _no_product(a, b):
    raise AssertionError("a positive verdict computed a matrix product")


@settings(max_examples=200, deadline=None)
@given(near_roots())
def test_positive_verdicts_make_no_matrix_product(case):
    m, k = case
    calls = [(decompose, _oracle_decompose), (classify_selfadjoint_sqrt, _oracle_sqrt)]
    expected = [_outcome(oracle, m, k) for _, oracle in calls]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zmatrix, "_mul_rows", _no_product)
        _pow_rows.cache_clear()
        for (reader, _), want in zip(calls, expected):
            if want[0] == "ok":
                assert _outcome(reader, m, k) == want
