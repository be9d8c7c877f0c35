"""End-to-end acceptance sweep.

One test per criterion; each prints a single pass/fail line with its wall
time and asserts a runtime budget next to the substance checks.  The solver
equivalence sweep is shared: its solution pools feed the closure and descent
criteria, so the expensive enumeration runs once.
"""

import functools
import itertools
import random
import time
from math import isqrt

import pytest

from functorlab import (
    CartanInstance,
    NatMatrix,
    Permutation,
    RelationPoly,
    SearchConfig,
    brute_force_oracle,
    cartan_check,
    check_nilpotent,
    classify_cyclic,
    classify_idempotent,
    classify_root_of_identity,
    classify_selfadjoint_sqrt,
    conjugate,
    decompose,
    direct_sum,
    enumerate_involutions,
    external_tensor,
    invariant_subsets,
    is_invariant_subset,
    preserves_add,
    relation_descends,
    scalar_mul,
    solve,
)
from functorlab.jsonio import dumps, solution_set_to_obj


def criterion(num, label, budget):
    """Print the verdict line and enforce the runtime budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                preset = fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"[acceptance] criterion {num} ({label}): FAIL ({elapsed:.1f}s)")
                raise
            elapsed = preset if preset is not None else time.perf_counter() - start
            ok = elapsed < budget
            verdict = "PASS" if ok else "FAIL"
            print(
                f"[acceptance] criterion {num} ({label}): {verdict} "
                f"({elapsed:.1f}s, budget {budget:.0f}s)"
            )
            assert ok, f"criterion {num} took {elapsed:.1f}s, budget {budget:.0f}s"

        return wrapper

    return deco


# -- helpers shared by the exhaustive criteria --------------------------------

def _mul(a, b):
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def _ident(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _symmetric_matrices(n, hi):
    spots = [(i, j) for i in range(n) for j in range(i, n)]
    for vals in itertools.product(range(hi + 1), repeat=len(spots)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(spots, vals):
            rows[i][j] = rows[j][i] = v
        yield tuple(tuple(r) for r in rows)


def _all_matrices(n, hi):
    for vals in itertools.product(range(hi + 1), repeat=n * n):
        yield tuple(vals[i * n : (i + 1) * n] for i in range(n))


# -- the shared solver sweep --------------------------------------------------

@pytest.fixture(scope="module")
def sweep():
    """solve vs brute_force_oracle over every small relation and flag combo.

    Also pools the bound-2 solutions: symmetric ones for the descent
    criterion, all of them for the closure criterion.
    """
    polys = {()}
    for length in range(1, 5):
        for tup in itertools.product((0, 1, 2), repeat=length):
            if tup[-1]:
                polys.add(tup)
    relations = [
        RelationPoly(g, h) for g in sorted(polys) for h in sorted(polys) if g != h
    ]
    mismatches = []
    sym_pool = []
    general = {}
    runs = 0
    start = time.perf_counter()
    for rel in relations:
        for n in (1, 2):
            for bound in (0, 1, 2):
                for symmetric in (False, True):
                    for iso in (False, True):
                        config = SearchConfig(
                            n=n,
                            bound=bound,
                            symmetric_only=symmetric,
                            up_to_iso=iso,
                        )
                        got = solve(rel, config)
                        want = brute_force_oracle(rel, config)
                        runs += 1
                        if got != want:
                            mismatches.append((rel, config))
                        if bound == 2 and not iso:
                            if symmetric:
                                sym_pool.extend((rel, m) for m in got.solutions)
                            else:
                                general.setdefault(rel, []).extend(got.solutions)
    return {
        "seconds": time.perf_counter() - start,
        "runs": runs,
        "relations": len(relations),
        "mismatches": mismatches,
        "symmetric": sym_pool,
        "general": general,
    }


# -- criteria -----------------------------------------------------------------

@criterion(1, "symmetric square roots of k*I", 60.0)
def test_criterion_01_square_roots():
    for k in (2, 3, 5, 6, 7, 8):
        rel = RelationPoly((0, 0, 1), (k,))
        for n in (1, 2, 3):
            res = solve(rel, SearchConfig(n=n, bound=k, symmetric_only=True))
            assert res.complete
            assert res.count == 0
    for k in (1, 4, 9):
        root = isqrt(k)
        rel = RelationPoly((0, 0, 1), (k,))
        for n in (1, 2, 3):
            res = solve(rel, SearchConfig(n=n, bound=k, symmetric_only=True))
            expected = {
                scalar_mul(root, p.matrix())
                for p in enumerate_involutions(n)
            }
            assert set(res.solutions) == expected
            for m in res.solutions:
                cls = classify_selfadjoint_sqrt(m, k)
                assert cls.root == root
                assert cls.involution.is_involution()
                assert cls.involution.matrix().is_symmetric()
                assert cls.matrix() == m


@criterion(2, "block decomposition round trip", 10.0)
def test_criterion_02_decompose_recompose():
    rng = random.Random(20260823)
    for _ in range(1000):
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
        m = conjugate(NatMatrix.from_rows(rows), Permutation(tuple(images)))
        form = decompose(m, k)
        assert form.recompose() == m
        assert form.k == k


@criterion(3, "symmetric idempotents are diagonal 0/1", 5.0)
def test_criterion_03_idempotents():
    for n, want in ((1, 2), (2, 4), (3, 8)):
        sols = [m for m in _symmetric_matrices(n, 2) if _mul(m, m) == m]
        assert len(sols) == want
        for m in sols:
            assert all(
                m[i][j] == 0 for i in range(n) for j in range(n) if i != j
            )
            assert all(m[i][i] in (0, 1) for i in range(n))
            cls = classify_idempotent(NatMatrix(m))
            assert cls.support == tuple(
                i + 1 for i in range(n) if m[i][i]
            )


@criterion(4, "symmetric nilpotents vanish", 5.0)
def test_criterion_04_nilpotents():
    for n in (1, 2, 3):
        zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
        for j in (1, 2, 3):
            sols = []
            for m in _symmetric_matrices(n, 2):
                p = _ident(n)
                for _ in range(j):
                    p = _mul(p, m)
                if p == zero:
                    sols.append(m)
            assert sols == [zero]
            assert check_nilpotent(NatMatrix(zero), j).kind == "zero"


@criterion(5, "cyclic power relations collapse", 5.0)
def test_criterion_05_cyclic_powers():
    for n in (1, 2):
        for m in _symmetric_matrices(n, 2):
            m2 = _mul(m, m)
            m3 = _mul(m2, m)
            if m3 == m2:
                assert m2 == m
                assert classify_cyclic(NatMatrix(m), 3, 2).kind == "idempotent"
            if m3 == m:
                assert all(x in (0, 1) for row in m for x in row)
                for i in range(n):
                    assert sum(m[i]) <= 1
                cls = classify_cyclic(NatMatrix(m), 3, 1)
                assert cls.kind in ("idempotent", "partial_involution")


@criterion(6, "roots of identity are permutations", 10.0)
def test_criterion_06_roots_of_identity():
    for n in (1, 2, 3):
        iden = _ident(n)
        for m in _all_matrices(n, 2):
            powers = [m]
            for _ in range(3):
                powers.append(_mul(powers[-1], m))
            for e in (1, 2, 3, 4):
                if powers[e - 1] != iden:
                    continue
                assert all(sum(row) == 1 for row in m)
                assert all(sum(col) == 1 for col in zip(*m))
                order = next(d for d in (1, 2, 3, 4) if powers[d - 1] == iden)
                assert e % order == 0
                symmetric = m == tuple(zip(*m))
                assert symmetric == (order <= 2)
                cls = classify_root_of_identity(NatMatrix(m), e)
                assert cls.order == order
                assert cls.selfadjoint == symmetric


@criterion(7, "solver matches oracle everywhere", 120.0)
def test_criterion_07_solver_oracle_equivalence(sweep):
    assert sweep["relations"] == 6480
    assert sweep["runs"] == 155520
    assert sweep["mismatches"] == []
    return sweep["seconds"]


@criterion(8, "direct sum and tensor closure", 10.0)
def test_criterion_08_closure(sweep):
    rng = random.Random(20260823)
    ordered = sorted(sweep["general"].items(), key=lambda kv: (kv[0].g, kv[0].h))
    pool = [(rel, m) for rel, mats in ordered for m in mats]
    assert len(pool) >= 200
    for rel, m in rng.sample(pool, 200):
        partner = rng.choice(sweep["general"][rel])
        assert rel.satisfied_by(direct_sum(m, partner))
        for b in (1, 2, 3):
            assert rel.satisfied_by(external_tensor(m, b))


@criterion(9, "relation descent and add-preservation duality", 30.0)
def test_criterion_09_descent(sweep):
    assert sweep["symmetric"]
    for rel, m in sweep["symmetric"]:
        for s in invariant_subsets(m):
            report = relation_descends(m, s, rel)
            assert report.ambient_satisfied
            if report.serre is not None:
                assert rel.satisfied_by(report.serre)
            if report.quotient is not None:
                assert rel.satisfied_by(report.quotient)
    from functorlab import IndexSubset

    for n in (1, 2, 3):
        subsets = [
            IndexSubset(n, tuple(i + 1 for i in range(n) if mask >> i & 1))
            for mask in range(1 << n)
        ]
        for rows in _all_matrices(n, 2):
            m = NatMatrix(rows)
            for s in subsets:
                assert preserves_add(m, s) == is_invariant_subset(
                    m, s.complement()
                )


@criterion(10, "cartan commutant check", 1.0)
def test_criterion_10_cartan():
    swap = NatMatrix(((0, 1), (1, 0)))
    proj = NatMatrix(((1, 0), (0, 0)))
    scaled = 2 * NatMatrix.identity(2)

    verdict = cartan_check(CartanInstance(scaled, (swap, proj)))
    assert verdict.kind == "pass"
    assert verdict.scale == 2
    assert scaled == verdict.scale * NatMatrix.identity(2)

    verdict = cartan_check(CartanInstance(NatMatrix(((2, 0), (0, 1))), (swap,)))
    assert verdict.kind == "fail_commutation"

    verdict = cartan_check(CartanInstance(scaled, (swap,)))
    assert verdict.kind == "reducible"


@criterion(11, "search is byte-deterministic for every jobs", 60.0)
def test_criterion_11_parallel_determinism():
    for k in range(1, 10):
        rel = RelationPoly((0, 0, 1), (k,))
        for n in (1, 2, 3):
            config = SearchConfig(n=n, bound=k, symmetric_only=True)
            one = dumps(solution_set_to_obj(solve(rel, config, jobs=1)))
            four = dumps(solution_set_to_obj(solve(rel, config, jobs=4)))
            assert one == four
