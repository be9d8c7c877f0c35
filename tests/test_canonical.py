import itertools
import random
from math import isqrt

import pytest

from functorlab import (
    Block1,
    Block2,
    DimensionTooLarge,
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
    assert form.perm.is_identity()
    assert form.blocks == (Block2(2, 2),)

    form = decompose(NatMatrix(((3,),)), 9)
    assert form.perm.is_identity()
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
    z = NatMatrix.zero(3)
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
            [[r if sigma(i) == j else 0 for j in range(n)] for i in range(n)]
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
    assert cls.involution.is_identity()


def test_sqrt_classify_error_precedence():
    # asymmetry reported first; with symmetry enforced, k=2 fails squareness
    with pytest.raises(NotSymmetric):
        classify_selfadjoint_sqrt(NatMatrix(((0, 1), (2, 0))), 2)
    with pytest.raises(KNotPerfectSquare):
        classify_selfadjoint_sqrt(NatMatrix(((0, 1), (1, 0))), 2)
    with pytest.raises(NotASquareRoot):
        classify_selfadjoint_sqrt(NatMatrix(((0, 1), (1, 0))), 4)


def test_sqrt_classify_k_zero():
    cls = classify_selfadjoint_sqrt(NatMatrix.zero(2), 0)
    assert cls.root == 0
    assert cls.involution.is_identity()


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
