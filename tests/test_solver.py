import concurrent.futures
import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from functorlab import (
    DimensionTooLarge,
    InvalidInput,
    NatMatrix,
    Permutation,
    RelationPoly,
    SearchConfig,
    SearchSpaceTooLarge,
    brute_force_oracle,
    canonical_rep,
    conjugate,
    decompose,
    derive_entry_bound,
    enumerate_involutions,
    solve,
    solver,
)

X_SQ_EQ_1 = RelationPoly((0, 0, 1), (1,))
X_SQ_EQ_2 = RelationPoly((0, 0, 1), (2,))
X_SQ_EQ_X = RelationPoly((0, 0, 1), (0, 1))
X_CUBE_EQ_X = RelationPoly((0, 0, 0, 1), (0, 1))


def entries(result):
    return [m.entries for m in result.solutions]


def test_solve_examples():
    res = solve(X_SQ_EQ_1, SearchConfig(n=2, bound=1, symmetric_only=True))
    assert entries(res) == [((0, 1), (1, 0)), ((1, 0), (0, 1))]
    assert res.complete

    res = solve(X_SQ_EQ_2, SearchConfig(n=2, bound=2, symmetric_only=True))
    assert entries(res) == []
    assert res.complete

    res = solve(X_SQ_EQ_X, SearchConfig(n=1, bound=3))
    assert entries(res) == [((0,),), ((1,),)]


def test_oracle_examples():
    res = brute_force_oracle(X_SQ_EQ_1, SearchConfig(n=2, bound=1, symmetric_only=True))
    assert entries(res) == [((0, 1), (1, 0)), ((1, 0), (0, 1))]

    res = brute_force_oracle(
        X_CUBE_EQ_X, SearchConfig(n=2, bound=1, symmetric_only=True)
    )
    assert entries(res) == [
        ((0, 0), (0, 0)),
        ((0, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 0)),
        ((1, 0), (0, 1)),
    ]

    unsat = RelationPoly((0, 1), (1, 1))  # x = x + 1
    for config in (
        SearchConfig(n=1, bound=3),
        SearchConfig(n=2, bound=2, symmetric_only=True),
        SearchConfig(n=2, bound=1),
    ):
        assert entries(brute_force_oracle(unsat, config)) == []
        assert entries(solve(unsat, config)) == []


def test_solution_sets_sorted_and_unique():
    res = solve(X_CUBE_EQ_X, SearchConfig(n=3, bound=1, symmetric_only=True))
    flat = [tuple(x for row in m.entries for x in row) for m in res.solutions]
    assert flat == sorted(flat)
    assert len(set(flat)) == len(flat)


def test_oracle_equivalence_quadratics():
    # a focused slice of the big acceptance sweep, kept cheap
    coeff_lists = list(itertools.product((0, 1, 2), repeat=3))
    rels = []
    for g in coeff_lists:
        for h in coeff_lists:
            try:
                rels.append(RelationPoly(g, h))
            except InvalidInput:
                continue
    assert len(rels) > 500
    for rel in rels[::7]:
        for config in (
            SearchConfig(n=2, bound=1),
            SearchConfig(n=2, bound=2, symmetric_only=True),
        ):
            a = solve(rel, config)
            b = brute_force_oracle(rel, config)
            assert a.solutions == b.solutions
            assert a.complete and b.complete


def test_limit_truncation_matches_oracle():
    config = SearchConfig(n=2, bound=1, symmetric_only=True, limit=2)
    a = solve(X_CUBE_EQ_X, config)
    b = brute_force_oracle(X_CUBE_EQ_X, config)
    assert a.solutions == b.solutions
    assert len(a.solutions) == 2
    assert not a.complete and not b.complete

    # limit larger than the solution count leaves the set complete
    config = SearchConfig(n=2, bound=1, symmetric_only=True, limit=50)
    a = solve(X_CUBE_EQ_X, config)
    assert len(a.solutions) == 5
    assert a.complete


def test_conjugation_closure_of_solutions():
    rng = random.Random(5)
    res = solve(X_CUBE_EQ_X, SearchConfig(n=3, bound=1))
    assert res.solutions
    pool = set(res.solutions)
    for m in rng.sample(res.solutions, 20):
        images = list(range(3))
        rng.shuffle(images)
        assert conjugate(m, Permutation(tuple(images))) in pool


def test_up_to_iso_transversal():
    full = solve(X_CUBE_EQ_X, SearchConfig(n=2, bound=1, symmetric_only=True))
    reps = solve(
        X_CUBE_EQ_X, SearchConfig(n=2, bound=1, symmetric_only=True, up_to_iso=True)
    )
    assert all(m == canonical_rep(m) for m in reps.solutions)
    # distinct orbits, and the orbits cover the full set
    assert len({canonical_rep(m) for m in reps.solutions}) == len(reps.solutions)
    assert {canonical_rep(m) for m in full.solutions} == set(reps.solutions)

    orc = brute_force_oracle(
        X_CUBE_EQ_X, SearchConfig(n=2, bound=1, symmetric_only=True, up_to_iso=True)
    )
    assert orc.solutions == reps.solutions


def test_up_to_iso_cap():
    with pytest.raises(DimensionTooLarge):
        solve(X_SQ_EQ_1, SearchConfig(n=9, bound=1, up_to_iso=True))


def test_jobs_do_not_change_output():
    # every limit up to one past the count, so each truncation point is met
    cases = [
        (rel, fields)
        for fields in (dict(n=2, bound=4, symmetric_only=True), dict(n=3, bound=2))
        for rel in (X_SQ_EQ_1, X_CUBE_EQ_X, RelationPoly((0, 0, 1), (4,)))
    ] + [
        # the up-to-iso cut, in the symmetric fill and in the row-major fill
        (X_CUBE_EQ_X, dict(n=6, bound=1, symmetric_only=True, up_to_iso=True)),
        (X_SQ_EQ_X, dict(n=4, bound=1, up_to_iso=True)),
    ]
    for rel, fields in cases:
        full = solve(rel, SearchConfig(**fields))
        assert solve(rel, SearchConfig(**fields), jobs=4) == full
        for k in range(1, full.count + 2):
            config = SearchConfig(**fields, limit=k)
            res = solve(rel, config, jobs=1)
            assert solve(rel, config, jobs=2) == res
            assert res.solutions == full.solutions[:k]
            assert res.complete == (k >= full.count)


def test_search_space_guard():
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_oracle(X_SQ_EQ_1, SearchConfig(n=5, bound=2))


def test_config_validation():
    with pytest.raises(InvalidInput):
        SearchConfig(n=0, bound=1)
    with pytest.raises(InvalidInput):
        SearchConfig(n=1, bound=-1)
    with pytest.raises(InvalidInput):
        SearchConfig(n=1, bound=1, limit=0)
    with pytest.raises(InvalidInput):
        solve(X_SQ_EQ_1, SearchConfig(n=1, bound=1), jobs=0)


def test_derive_entry_bound():
    assert derive_entry_bound(RelationPoly((0, 0, 1), (4,))) == 4
    assert derive_entry_bound(RelationPoly((4,), (0, 0, 1))) == 4
    assert derive_entry_bound(RelationPoly((0, 0, 0, 1), (7,))) == 7
    assert derive_entry_bound(X_SQ_EQ_X) is None
    assert derive_entry_bound(X_SQ_EQ_X, symmetric_only=True) == 1
    # x^3 + x = 2x^2 matches no pattern
    assert derive_entry_bound(RelationPoly((0, 1, 0, 1), (0, 0, 2))) is None
    # 2x^2 = 4 has a non-unit leading coefficient: no pattern either
    assert derive_entry_bound(RelationPoly((0, 0, 2), (4,))) is None
    assert derive_entry_bound(RelationPoly((0, 0, 1), (0,))) is None


def test_derived_bound_sound_for_symmetric_idempotents():
    # bound 1 loses nothing against a wider oracle sweep
    tight = brute_force_oracle(X_SQ_EQ_X, SearchConfig(n=2, bound=1, symmetric_only=True))
    wide = brute_force_oracle(X_SQ_EQ_X, SearchConfig(n=2, bound=3, symmetric_only=True))
    assert tight.solutions == wide.solutions


def test_derived_bound_sound_for_monomial_relations():
    # x^2 = 4: entries of any solution stay within 4 even at a wider bound
    rel = RelationPoly((0, 0, 1), (4,))
    tight = brute_force_oracle(rel, SearchConfig(n=2, bound=4, symmetric_only=True))
    wide = brute_force_oracle(rel, SearchConfig(n=2, bound=6, symmetric_only=True))
    assert tight.solutions == wide.solutions


def test_general_vs_symmetric_search():
    # symmetric run is exactly the symmetric slice of the general run
    rel = X_SQ_EQ_1
    config_all = SearchConfig(n=2, bound=1)
    config_sym = SearchConfig(n=2, bound=1, symmetric_only=True)
    general = solve(rel, config_all)
    sym = solve(rel, config_sym)
    assert [m for m in general.solutions if m.is_symmetric()] == list(sym.solutions)


def test_result_echoes_inputs():
    config = SearchConfig(n=2, bound=1, symmetric_only=True)
    res = solve(X_SQ_EQ_1, config)
    assert res.config == config
    assert res.relation == X_SQ_EQ_1
    assert res.count == 2


def _serial_pool(monkeypatch):
    # the pooled path run in-process on 3 usable CPUs; returns the pool sizes
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # solve imports the pool from concurrent.futures only when workers > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(
        solver.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
    )
    return seen


def test_worker_pool_capped(monkeypatch):
    seen = _serial_pool(monkeypatch)
    config = SearchConfig(n=2, bound=4, symmetric_only=True)  # 5 tasks
    want = solve(X_SQ_EQ_1, config)
    assert solve(X_SQ_EQ_1, config, jobs=64) == want  # capped by the 3 CPUs
    assert solve(X_SQ_EQ_1, config, jobs=2) == want  # capped by jobs
    small = SearchConfig(n=2, bound=1, symmetric_only=True)  # 2 tasks
    assert solve(X_SQ_EQ_1, small, jobs=64) == solve(X_SQ_EQ_1, small)
    assert seen == [3, 2, 2]


@pytest.mark.parametrize("bound", range(4))
def test_search_is_built_once_per_task(monkeypatch, bound):
    # one task at jobs=1; with workers, one task per first-entry value
    calls = []
    kernel = solver._packed_kernel

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(solver, "_packed_kernel", counted)
    config = SearchConfig(n=2, bound=bound)
    want = solve(X_SQ_EQ_X, config)
    assert len(calls) == 1
    _serial_pool(monkeypatch)
    assert solve(X_SQ_EQ_X, config, jobs=2) == want
    assert len(calls) == 1 + bound + 1


@settings(max_examples=300, deadline=None)
@given(
    g=st.lists(st.integers(0, 2), max_size=4),
    h=st.lists(st.integers(0, 2), max_size=4),
    n=st.integers(1, 3),
    bound=st.integers(0, 2),
    symmetric=st.booleans(),
    up_to_iso=st.booleans(),
    limit=st.none() | st.integers(1, 4),
)
@example(g=[0, 0, 1], h=[2], n=2, bound=2, symmetric=False, up_to_iso=False, limit=None)
@example(g=[0, 1, 1], h=[2], n=2, bound=2, symmetric=False, up_to_iso=False, limit=None)
@example(g=[0, 0, 1], h=[2, 1], n=3, bound=2, symmetric=False, up_to_iso=False, limit=None)
@example(g=[2], h=[0, 1], n=3, bound=2, symmetric=True, up_to_iso=False, limit=None)
@example(g=[2], h=[3], n=2, bound=2, symmetric=False, up_to_iso=False, limit=None)
@example(g=[0, 0, 0, 1], h=[0, 0, 1], n=3, bound=1, symmetric=False, up_to_iso=True,
         limit=2)
@example(g=[0, 0, 1], h=[1], n=4, bound=1, symmetric=True, up_to_iso=True, limit=None)
@example(g=[0, 0, 0, 1], h=[0, 1], n=4, bound=1, symmetric=True, up_to_iso=True,
         limit=None)
def test_solve_matches_oracle_on_random_relations(
    g, h, n, bound, symmetric, up_to_iso, limit
):
    _check_against_oracle(g, h, n, bound, symmetric, up_to_iso, limit)


def _check_against_oracle(g, h, n, bound, symmetric, up_to_iso, limit):
    try:
        rel = RelationPoly(tuple(g), tuple(h))
    except InvalidInput:  # both sides the same polynomial
        assume(False)
    config = SearchConfig(n=n, bound=bound, symmetric_only=symmetric,
                          up_to_iso=up_to_iso, limit=limit)
    got = solve(rel, config, jobs=1)
    want = brute_force_oracle(rel, config)
    assert got.solutions == want.solutions
    assert got.complete == want.complete



@settings(max_examples=200, deadline=None)
@given(
    g=st.lists(st.integers(0, 9), max_size=6),
    h=st.lists(st.integers(0, 9), max_size=6),
    n=st.integers(1, 2),
    bound=st.integers(0, 6),
    symmetric=st.booleans(),
    up_to_iso=st.booleans(),
    limit=st.none() | st.integers(1, 4),
)
@example(g=[2], h=[1], n=2, bound=3, symmetric=False, up_to_iso=False, limit=None)
@example(g=[0, 0, 1], h=[1], n=2, bound=0, symmetric=False, up_to_iso=False, limit=None)
@example(g=[0, 0, 0, 0, 1], h=[4], n=1, bound=6, symmetric=False, up_to_iso=False,
         limit=None)
@example(g=[0, 0, 0, 0, 0, 9], h=[0, 9, 9], n=2, bound=6, symmetric=False,
         up_to_iso=True, limit=None)
def test_solve_matches_oracle_with_wide_slots(g, h, n, bound, symmetric, up_to_iso, limit):
    # degree up to 5, coefficients up to 9, bound up to 6: packed slots up to
    # 22 bits wide
    _check_against_oracle(g, h, n, bound, symmetric, up_to_iso, limit)


# The packed layout, written out independently of solver.py: entry (i, j) of
# an n x n matrix at bit s*(i*n + j), entry i of column j at bit s*n*i.
def _pack(rows, s):
    n = len(rows)
    return sum(x << s * (i * n + j) for i, row in enumerate(rows) for j, x in enumerate(row))


def _pack_columns(rows, s):
    n = len(rows)
    return [sum(rows[i][j] << s * n * i for i in range(n)) for j in range(n)]


def _unpack(x, n, s):
    assert x >> s * n * n == 0  # nothing beyond the last slot
    return tuple(tuple((x >> s * (i * n + j)) & ((1 << s) - 1) for j in range(n))
                 for i in range(n))


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(1, 4))
    bound = draw(st.integers(0, 5))
    g = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=5)))
    h = tuple(draw(st.lists(st.integers(0, 4), max_size=5)))
    rows = draw(st.lists(st.lists(st.integers(0, bound), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return g, h, n, bound, tuple(map(tuple, rows))


@settings(max_examples=300, deadline=None)
@given(case=_kernel_cases())
@example(case=((1, 2, 3, 4, 4), (4, 0, 0, 0, 1), 4, 5, ((5,) * 4,) * 4))
@example(case=((3,), (), 1, 0, ((0,),)))
def test_packed_sides_unpack_to_poly_rows(case):
    g, h, n, bound, rows = case
    s, sides, _ = solver._packed_kernel(g, h, n, bound)
    for m in (rows, ((bound,) * n,) * n):  # the all-bound matrix fills the slots most
        pg, ph = sides(_pack(m, s), _pack_columns(m, s))
        for packed, coeffs in ((pg, g), (ph, h)):
            got = _unpack(packed, n, s)
            assert got == solver._poly_rows(coeffs, m)
            assert all(x < 1 << (s - 1) for row in got for x in row)  # guard bit free


@settings(max_examples=300, deadline=None)
@given(case=_kernel_cases(), data=st.data())
def test_packed_exceeds_matches_dense_compare(case, data):
    g, h, n, bound, _ = case
    s, _, exceeds = solver._packed_kernel(g, h, n, bound)
    slot = st.integers(0, (1 << (s - 1)) - 1)
    x = data.draw(st.lists(slot, min_size=n * n, max_size=n * n))
    # y: x itself (all ties), x with a few slots moved, or independent
    y = data.draw(st.just(list(x)) | st.lists(slot, min_size=n * n, max_size=n * n))
    for k in data.draw(st.lists(st.integers(0, n * n - 1), max_size=3)):
        y[k] = data.draw(slot)

    def pack(flat):
        return _pack([flat[i * n:(i + 1) * n] for i in range(n)], s)

    assert exceeds(pack(x), pack(y)) == any(a > b for a, b in zip(x, y))
    assert exceeds(pack(y), pack(x)) == any(b > a for a, b in zip(x, y))
    assert not exceeds(pack(x), pack(x))


def _search_counts(monkeypatch, rel, config):
    # leaf verifications (each evaluates both sides) and row-end orbit calls
    calls = {"poly": 0, "orbit": 0}
    poly, orbit = solver._poly_rows, solver._orbit_min_rows

    def counted_poly(*args):
        calls["poly"] += 1
        return poly(*args)

    def counted_orbit(*args):
        calls["orbit"] += 1
        return orbit(*args)

    monkeypatch.setattr(solver, "_poly_rows", counted_poly)
    monkeypatch.setattr(solver, "_orbit_min_rows", counted_orbit)
    res = solve(rel, config)
    assert calls["poly"] % 2 == 0
    return calls["poly"] // 2, calls["orbit"], res.count


@pytest.mark.parametrize("rel, n, want", [
    (X_SQ_EQ_1, 6, (8, 40, 4)),
    (X_SQ_EQ_X, 6, (12, 42, 7)),
    (X_CUBE_EQ_X, 7, (38, 200, 20)),
])
def test_search_tree_counts(monkeypatch, rel, n, want):
    # the interval cut and the orderly cut decide these counts, not timing
    config = SearchConfig(n=n, bound=1, symmetric_only=True, up_to_iso=True)
    assert _search_counts(monkeypatch, rel, config) == want

def _square_roots_of_4i(n):
    # the block theorem: a relabeled direct sum of blocks [2] and
    # [[0, a], [b, 0]] with a*b = 4, one relabeling per involution
    out = []
    for sigma in enumerate_involutions(n):
        pairs = [(p, q) for p, q in enumerate(sigma.images) if p < q]
        for weights in itertools.product(((1, 4), (2, 2), (4, 1)), repeat=len(pairs)):
            rows = [[0] * n for _ in range(n)]
            for p, q in enumerate(sigma.images):
                if p == q:
                    rows[p][p] = 2
            for (p, q), (a, b) in zip(pairs, weights):
                rows[p][q], rows[q][p] = a, b
            out.append(tuple(tuple(r) for r in rows))
    return sorted(out)


def test_solve_past_the_oracle_cap():
    # 5^16 candidates, far past the oracle's cap of 10^8
    rel = RelationPoly((0, 0, 1), (4,))
    config = SearchConfig(n=4, bound=4)
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_oracle(rel, config)
    res = solve(rel, config)
    assert res.complete
    assert entries(res) == _square_roots_of_4i(4)
    assert res.count == 46
    for m in res.solutions:
        assert decompose(m, 4).recompose() == m
    # the 46 are closed under relabeling, so their orbit minima are the
    # members that the naive n! scan keeps
    reps = solve(rel, SearchConfig(n=4, bound=4, up_to_iso=True))
    minima = [r for r in entries(res) if solver._oracle_orbit_is_min(r)]
    assert len(minima) == 6
    assert entries(reps) == minima
    assert reps.complete


# (symmetric, n, bound) shapes small enough for a full search per example
_ISO_SHAPES = (
    st.tuples(st.just(True), st.integers(1, 6), st.integers(0, 1))
    | st.tuples(st.just(False), st.integers(1, 4), st.integers(0, 1))
    | st.tuples(st.just(False), st.integers(1, 3), st.integers(0, 2))
)


@settings(max_examples=300, deadline=None)
@given(
    g=st.lists(st.integers(0, 2), max_size=4),
    h=st.lists(st.integers(0, 2), max_size=4),
    shape=_ISO_SHAPES,
)
@example(g=[0, 0, 1], h=[1], shape=(True, 6, 1))
@example(g=[0, 0, 0, 1], h=[0, 1], shape=(True, 6, 1))
@example(g=[0, 0, 1], h=[0, 1], shape=(False, 4, 1))
@example(g=[0, 0, 1], h=[2], shape=(False, 3, 2))
def test_up_to_iso_equals_orbit_minima_of_full_search(g, h, shape):
    # the cut inside the search against the leaf-only filter: the same
    # transversal as canonicalising every solution of the full search
    try:
        rel = RelationPoly(tuple(g), tuple(h))
    except InvalidInput:  # both sides the same polynomial
        assume(False)
    symmetric, n, bound = shape
    full = solve(rel, SearchConfig(n=n, bound=bound, symmetric_only=symmetric))
    reps = solve(rel, SearchConfig(n=n, bound=bound, symmetric_only=symmetric,
                                   up_to_iso=True))
    assert list(reps.solutions) == sorted({canonical_rep(m) for m in full.solutions})
    assert reps.complete


def test_up_to_iso_symmetric_x3_eq_x_at_n7():
    # symmetric X^3 = X, n=7, bound 1: the 20 classes of the full search
    full = solve(X_CUBE_EQ_X, SearchConfig(n=7, bound=1, symmetric_only=True))
    reps = solve(X_CUBE_EQ_X, SearchConfig(n=7, bound=1, symmetric_only=True,
                                           up_to_iso=True))
    assert reps.count == 20
    assert list(reps.solutions) == sorted({canonical_rep(m) for m in full.solutions})


def test_up_to_iso_limit_is_a_prefix():
    full = solve(X_CUBE_EQ_X, SearchConfig(n=6, bound=1, symmetric_only=True,
                                           up_to_iso=True))
    assert full.count >= 5
    for k in range(1, full.count + 2):
        res = solve(X_CUBE_EQ_X, SearchConfig(n=6, bound=1, symmetric_only=True,
                                              up_to_iso=True, limit=k))
        assert res.solutions == full.solutions[:k]
        assert res.complete == (k >= full.count)
