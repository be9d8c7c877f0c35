"""The library workloads: seeded job lists of functorlab calls and their checks.

Imported only by worker processes.  A job is a list of operations run in one
fresh interpreter; an operation is one public library call plus a check that
the answer is right, judged against what the input construction guarantees
or against values recorded from `brute_force_oracle` (oracle.json).
"""

import os
from dataclasses import dataclass
from fractions import Fraction

import functorlab as fl

import gen

# (g, h, n, bound, symmetric, up_to_iso): sizes are fixed, only order is seeded.
LADDER = [
    ((0, 0, 0, 1), (0, 1), 3, 2, False, False),   # X^3 = X
    ((0, 0, 0, 1), (1,), 4, 1, False, False),     # X^3 = I
    ((0, 0, 1), (4,), 3, 4, False, False),        # X^2 = 4I
    ((0, 0, 1), (2, 1), 3, 3, False, False),      # X^2 = X + 2I
    ((0, 0, 0, 1), (0, 1), 5, 1, True, False),    # symmetric X^3 = X
]
# run at jobs=min(2, nproc); its relation appears nowhere else in the ladder
JOBS2_RUNG = ((0, 0, 0, 1), (0, 0, 1), 3, 2, False, False)  # X^3 = X^2
ISO_SOLVES = [
    ((0, 0, 1), (1,), 6, 1, True, True),          # X^2 = I up to iso
    ((0, 0, 1), (0, 1), 6, 1, True, True),        # X^2 = X up to iso
]


@dataclass(eq=False)
class Op:
    span: str       # "<layer>.<function>": the traced span name
    fn: object
    args: tuple
    check: object   # result -> None when right, else a reason


def _mat(rows):
    return fl.NatMatrix.from_rows(rows)


def _nproc():
    return len(os.sched_getaffinity(0))


# -- checks --------------------------------------------------------------------

def _check_solve(rel, expected):
    def check(res):
        sols = [m.entries for m in res.solutions]
        if not all(rel.satisfied_by(m) for m in res.solutions):
            return "a reported solution fails the relation"
        if sols != sorted(sols):
            return "solutions are not in row-major order"
        if res.count != expected["count"] or not res.complete:
            return f"count {res.count}, oracle says {expected['count']}"
        if gen.solutions_digest(sols) != expected["digest"]:
            return "solution set differs from the oracle's"
        return None

    return check


def _check_canonical(m):
    def check(res):
        if fl.canonical_rep(res) != res:
            return "canonical_rep is not idempotent"
        if not gen.in_orbit(m.entries, res.entries):
            return "canonical_rep left the orbit"
        return None

    return check


def _check_involutions(res):
    images = [p.images for p in res]
    if len(images) != 764 or images != sorted(set(images)):
        return f"{len(images)} involutions of 8 points, want 764 in order"
    if not all(p.is_involution() for p in res):
        return "a listed permutation is not an involution"
    return None


def _check_decompose(m, k):
    def check(form):
        if form.recompose() != m:
            return "decompose does not recompose"
        for b in form.blocks:
            a, bb = (b.a, b.a) if isinstance(b, fl.Block1) else (b.a, b.b)
            if a * bb != k:
                return f"block {b} does not multiply to {k}"
        return None

    return check


def _expect(**want):
    def check(res):
        for key, value in want.items():
            got = getattr(res, key)
            if got != value:
                return f"{key} is {got!r}, want {value!r}"
        return None

    return check


def _check_nilpotent(rows, k):
    witness = gen.nilpotent_witness(rows, k)
    if witness is None:
        return _expect(kind="zero")
    i, j, value = witness
    return _expect(kind="not_nilpotent", power=k, position=(i + 1, j + 1), value=value)


def _check_subsets(expected):
    def check(res):
        got = [s.members for s in res]
        return None if got == expected else f"{len(got)} subsets, want {len(expected)}"

    return check


def _check_descent(rows, members):
    want_serre, want_quot = (
        None if c is None else tuple(map(tuple, c)) for c in gen.descent_corners(rows, members)
    )

    def check(rep):
        serre = rep.serre.entries if rep.serre is not None else None
        quot = rep.quotient.entries if rep.quotient is not None else None
        if not rep.ambient_satisfied or serre != want_serre or quot != want_quot:
            return "descent corners differ from the construction"
        return None

    return check


def _rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _check_cartan(kind, scale, functors):
    def check(v):
        if v.kind != kind:
            return f"verdict {v.kind}, want {kind}"
        if kind == "pass" and v.scale != scale:
            return f"scale {v.scale}, want {scale}"
        if kind == "reducible":
            basis = [list(b) for b in v.basis]
            n = len(functors[0])
            if not 0 < len(basis) < n or _rank(basis) != len(basis):
                return "reducible basis is not a proper subspace basis"
            for f in functors:
                for b in basis:
                    image = [sum(x * y for x, y in zip(row, b)) for row in f]
                    if _rank(basis + [image]) != len(basis):
                        return "reducible subspace is not invariant"
        return None

    return check


# -- job lists -----------------------------------------------------------------

def _solve_op(spec, oracle, jobs=1, span="solver.solve"):
    g, h, n, bound, sym, iso = spec
    rel = fl.RelationPoly(g, h)
    cfg = fl.SearchConfig(n=n, bound=bound, symmetric_only=sym, up_to_iso=iso)
    return Op(span, fl.solve, (rel, cfg, jobs), _check_solve(rel, oracle[gen.spec_key(spec)]))


def solve_ladder(seed):
    """One job per rung, each in its own interpreter, in seeded order."""
    oracle = gen.load_oracle()
    rungs = [_solve_op(s, oracle) for s in LADDER]
    rungs.append(_solve_op(JOBS2_RUNG, oracle, min(2, _nproc()), "solver.solve_jobs2"))
    gen.rng_for(seed, "ladder").shuffle(rungs)
    return [[op] for op in rungs]


def iso_orbit(seed):
    rng = gen.rng_for(seed, "iso")
    oracle = gen.load_oracle()
    ops = [_solve_op(s, oracle) for s in ISO_SOLVES]
    # ten n=7 calls keep the median operation inside one cluster of sizes
    for n in (7,) * 10 + (8,) * 3:
        m = _mat([[rng.choice((0, 0, 1, 2)) for _ in range(n)] for _ in range(n)])
        ops.append(Op("zmatrix.canonical_rep", fl.canonical_rep, (m,), _check_canonical(m)))
    ops.append(Op("canonical.enumerate_involutions", fl.enumerate_involutions, (8,),
                  _check_involutions))
    rng.shuffle(ops)
    return [ops]


# Calls per kind in one structure-mix pass, then repeats of earlier calls.
MIX_DISTINCT = {
    "decompose": 16, "sqrt": 12, "idempotent": 10, "commuting": 8, "nilpotent": 8,
    "cyclic": 10, "root": 12, "subsets": 5, "descend": 13, "cartan": 6,
}
MIX_REPEATS = {
    "root": 8, "cyclic": 3, "descend": 4, "idempotent": 2, "nilpotent": 2,
    "commuting": 2, "decompose": 2, "sqrt": 2,
}
SUBSET_SIZES = (12, 13, 14, 15, 16)
CARTAN_KINDS = ("pass", "pass", "pass", "reducible", "reducible", "fail_commutation")


def _mix_op(kind, i, rng):
    n = 6 + i % 3
    if kind == "decompose":
        n = 6 + i % 5
        k = rng.choice((1, 4, 9) if n % 2 else (1, 2, 3, 4, 6, 8, 9, 12))
        m = _mat(gen.sqrt_of_k(n, k, rng))
        return Op("canonical.decompose", fl.decompose, (m, k), _check_decompose(m, k))
    if kind == "sqrt":
        root = rng.randint(1, 3)
        rows, images = gen.sym_sqrt(n + 2, root, rng)
        return Op("canonical.classify_selfadjoint_sqrt", fl.classify_selfadjoint_sqrt,
                  (_mat(rows), root * root),
                  _expect(root=root, involution=fl.Permutation(tuple(images))))
    if kind == "idempotent":
        rows, support = gen.sym_idempotent(n, rng)
        return Op("classify.classify_idempotent", fl.classify_idempotent, (_mat(rows),),
                  _expect(support=tuple(support)))
    if kind == "commuting":
        (a, sa), (b, sb) = gen.sym_idempotent(n, rng), gen.sym_idempotent(n, rng)
        return Op("classify.check_commuting_idempotents", fl.check_commuting_idempotents,
                  (_mat(a), _mat(b)), _expect(both=tuple(sorted(set(sa) & set(sb)))))
    if kind == "nilpotent":
        k = rng.randint(1, 4)
        rows = gen.zeros(n) if i % 4 == 0 else gen.sym_nonzero(n, rng)
        return Op("classify.check_nilpotent", fl.check_nilpotent, (_mat(rows), k),
                  _check_nilpotent(rows, k))
    if kind == "cyclic":
        if i % 2:
            rows, support = gen.sym_idempotent(n, rng)
            return Op("classify.classify_cyclic", fl.classify_cyclic, (_mat(rows), 5, 2),
                      _expect(kind="idempotent", support=tuple(support)))
        rows, support = gen.partial_involution(n, rng)
        return Op("classify.classify_cyclic", fl.classify_cyclic, (_mat(rows), 6, 2),
                  _expect(kind="partial_involution", support=tuple(support)))
    if kind == "root":
        rows, order, exp = gen.root_of_identity(8, 200, rng)
        return Op("classify.classify_root_of_identity", fl.classify_root_of_identity,
                  (_mat(rows), exp), _expect(order=order, selfadjoint=order <= 2))
    if kind == "subsets":
        n = SUBSET_SIZES[i]
        rows, expected = gen.block_dag(n, n if i % 2 == 0 else n // 3, rng)
        return Op("restrict.invariant_subsets", fl.invariant_subsets, (_mat(rows),),
                  _check_subsets(expected))
    if kind == "descend":
        rows, members, (g, h) = gen.descent_instance(n, rng)
        return Op("restrict.relation_descends", fl.relation_descends,
                  (_mat(rows), fl.IndexSubset(n, tuple(members)), fl.RelationPoly(g, h)),
                  _check_descent(rows, members))
    verdict = CARTAN_KINDS[i]
    cartan, functors = gen.cartan_instance(n, verdict, rng)
    inst = fl.CartanInstance(_mat(cartan), tuple(_mat(f) for f in functors))
    return Op("restrict.cartan_check", fl.cartan_check, (inst,),
              _check_cartan(verdict, cartan[0][0], functors))


def structure_mix(seed):
    """Distinct calls in seeded order, then each repeat inserted at a seeded
    point after the call it repeats (same function, same arguments)."""
    rng = gen.rng_for(seed, "mix")
    by_kind = {
        kind: [_mix_op(kind, i, rng) for i in range(count)]
        for kind, count in MIX_DISTINCT.items()
    }
    ops = [op for kind_ops in by_kind.values() for op in kind_ops]
    rng.shuffle(ops)
    for kind, count in MIX_REPEATS.items():
        for _ in range(count):
            original = rng.choice(by_kind[kind])
            at = ops.index(original) + 1  # Op compares by identity
            ops.insert(rng.randint(at, len(ops)), original)
    return [ops]


JOB_LISTS = {
    "solve-ladder": solve_ladder,
    "iso-orbit": iso_orbit,
    "structure-mix": structure_mix,
}
