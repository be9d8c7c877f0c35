"""The cli-queries workload: seeded input files, the query list, and checks.

Plain Python with no functorlab import: the parent process writes nothing
but files and judges each CLI call by its exit code and its JSON.

One pass is 100 queries: 4 valid calls of each of the 20 subcommands, 18
malformed inputs that must exit 2 with a JSON error on stderr, and the two
known crash inputs (`classify root --exp 500` and a 200 000-deep JSON array),
which must either answer correctly or exit 2/3 with a JSON error.
"""

import json
import os
from dataclasses import dataclass, field

import gen

VALID_PER_COMMAND = 4

# (g, h, n, bound or None to derive it, symmetric, up_to_iso, limit)
SOLVE_SPECS = [
    ((0, 0, 1), (1,), 3, None, True, False, None),
    ((0, 0, 1), (4,), 2, 4, False, False, None),
    ((0, 0, 1), (0, 1), 3, 1, True, False, None),
    ((0, 0, 0, 1), (0, 1), 2, 2, False, False, None),
    ((0, 0, 1), (2, 1), 2, 3, False, False, None),
    ((0, 0, 1), (1,), 4, None, True, True, None),
    ((0, 0, 1), (0, 1), 3, 2, False, False, 3),
    ((0, 0, 1), (1, 1), 2, 3, False, False, None),
    ((0, 0, 1), (2,), 1, 2, False, False, None),
]


@dataclass
class Query:
    kind: str
    argv: list
    code: int                          # expected exit code
    expect: dict = field(default_factory=dict)  # fields the JSON must carry
    verify: object = None              # extra check on the parsed JSON
    crash: bool = False                # a known crash input at the seed


def _mat_obj(rows):
    return {"n": len(rows), "rows": rows}


class _Files:
    def __init__(self):
        self.texts = {}

    def add(self, text):
        name = f"in{len(self.texts):03d}.json"
        self.texts[name] = text
        return name

    def obj(self, obj):
        return self.add(json.dumps(obj))

    def mat(self, rows):
        return self.obj(_mat_obj(rows))

    def rel(self, g, h):
        return self.obj({"g": list(g), "h": list(h)})

    def subset(self, n, members):
        return self.obj({"n": n, "members": list(members)})


def _rand_matrix(n, rng, values=(0, 0, 1, 2)):
    return [[rng.choice(values) for _ in range(n)] for _ in range(n)]


def _nonempty_descent(n, rng, proper):
    while True:
        rows, members, rel = gen.descent_instance(n, rng)
        if members and (not proper or len(members) < n):
            return rows, members, rel


def _valid(kind, i, rng, f, oracle):
    if kind in ("solve", "oracle"):
        spec = SOLVE_SPECS[rng.randrange(len(SOLVE_SPECS))]
        g, h, n, bound, sym, iso, limit = spec
        want = oracle[gen.spec_key(spec)]
        argv = [kind, "--relation", f.rel(g, h), "--n", str(n)]
        argv += [] if bound is None else ["--bound", str(bound)]
        argv += ["--symmetric"] if sym else []
        argv += ["--up-to-iso"] if iso else []
        argv += [] if limit is None else ["--limit", str(limit)]
        return Query(kind, argv, 0 if want["count"] else 1,
                     {"count": want["count"], "complete": want["complete"]},
                     lambda o: gen.solutions_digest([s["rows"] for s in o["solutions"]])
                     == want["digest"])
    n = rng.randint(3, 6)
    if kind == "decompose":
        k = rng.choice((1, 4, 9) if n % 2 else (1, 2, 4, 6))
        rows = gen.sqrt_of_k(n, k, rng)

        def recomposes(o):
            bd = gen.block_diag([[[b["a"]]] if b["type"] == "b1" else [[0, b["a"]], [b["b"], 0]]
                                 for b in o["blocks"]])
            p = [x - 1 for x in o["perm"]]
            return all(rows[a][b] == bd[p[a]][p[b]] for a in range(n) for b in range(n))

        return Query(kind, [kind, "--matrix", f.mat(rows), "--k", str(k)], 0, {"k": k},
                     recomposes)
    if kind == "sqrt-classify":
        root = rng.randint(1, 3)
        rows, images = gen.sym_sqrt(n, root, rng)
        return Query(kind, [kind, "--matrix", f.mat(rows), "--k", str(root * root)], 0,
                     {"kind": "sqrt", "root": root, "involution": [x + 1 for x in images]})
    if kind == "canon":
        rows = _rand_matrix(n, rng)
        return Query(kind, [kind, "--matrix", f.mat(rows)], 0, {"n": n},
                     lambda o: gen.in_orbit(rows, o["rows"]))
    if kind == "classify idempotent":
        rows, support = gen.sym_idempotent(n, rng)
        return Query(kind, ["classify", "idempotent", "--matrix", f.mat(rows)], 0,
                     {"kind": "idempotent", "n": n, "support": support})
    if kind == "classify commuting":
        (a, sa), (b, sb) = gen.sym_idempotent(n, rng), gen.sym_idempotent(n, rng)
        return Query(kind, ["classify", "commuting", "--matrix", f.mat(a), "--matrix", f.mat(b)],
                     0, {"both": sorted(set(sa) & set(sb)), "a_only": sorted(set(sa) - set(sb)),
                         "b_only": sorted(set(sb) - set(sa))})
    if kind == "classify nilpotent":
        k = rng.randint(1, 3)
        if i % 2 == 0:
            return Query(kind, ["classify", "nilpotent", "--matrix", f.mat(gen.zeros(n)),
                                "--k", str(k)], 0, {"kind": "zero"})
        rows = gen.sym_nonzero(n, rng)
        a, b, value = gen.nilpotent_witness(rows, k)
        return Query(kind, ["classify", "nilpotent", "--matrix", f.mat(rows), "--k", str(k)], 1,
                     {"kind": "not_nilpotent", "power": k, "position": [a + 1, b + 1],
                      "value": value})
    if kind == "classify cyclic":
        if i % 2:
            rows, support = gen.sym_idempotent(n, rng)
            return Query(kind, ["classify", "cyclic", "--matrix", f.mat(rows), "--k", "3",
                                "--m", "2"], 0, {"kind": "idempotent", "support": support})
        rows, support = gen.partial_involution(n, rng)
        return Query(kind, ["classify", "cyclic", "--matrix", f.mat(rows), "--k", "4",
                            "--m", "2"], 0, {"kind": "partial_involution", "support": support})
    if kind == "classify root":
        rows, order, exp = gen.root_of_identity(n, 60, rng)
        return Query(kind, ["classify", "root", "--matrix", f.mat(rows), "--exp", str(exp)], 0,
                     {"kind": "root_of_identity", "order": order, "selfadjoint": order <= 2})
    if kind in ("restrict invariant", "restrict preserves-add", "restrict subsets"):
        n = rng.randint(4, 7)
        rows, ideals = gen.block_dag(n, rng.randint(2, n), rng)
        if kind == "restrict subsets":
            return Query(kind, ["restrict", "subsets", "--matrix", f.mat(rows)], 0,
                         {"count": len(ideals),
                          "subsets": [{"n": n, "members": list(s)} for s in ideals]})
        members = list(rng.choice(ideals))
        if kind == "restrict invariant" and i % 2:
            while tuple(members) in ideals:
                members = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
        inside = {m - 1 for m in members}
        if kind == "restrict invariant":
            ok = tuple(members) in ideals
            key = "invariant"
        else:
            ok = all(rows[j][c] == 0 for j in inside for c in range(n) if c not in inside)
            key = "preserves_add"
        sub = kind.split()[1]
        return Query(kind, ["restrict", sub, "--matrix", f.mat(rows), "--subset",
                            f.subset(n, members)], 0 if ok else 1, {key: ok})
    if kind in ("restrict serre", "restrict quotient", "restrict descend"):
        rows, members, (g, h) = _nonempty_descent(n, rng, proper=kind != "restrict serre")
        serre, quot = gen.descent_corners(rows, members)
        argv = ["restrict", kind.split()[1], "--matrix", f.mat(rows), "--subset",
                f.subset(n, members)]
        if kind == "restrict serre":
            return Query(kind, argv, 0, {"rows": serre})
        if kind == "restrict quotient":
            return Query(kind, argv, 0, {"rows": quot})
        return Query(kind, argv + ["--relation", f.rel(g, h)], 0,
                     {"kind": "descent", "ambient_satisfied": True, "serre": _mat_obj(serre),
                      "quotient": _mat_obj(quot)})
    if kind == "cartan":
        verdict = ("pass", "reducible", "fail_commutation")[i % 3]
        cartan, functors = gen.cartan_instance(n, verdict, rng)
        argv = ["cartan", "--cartan", f.mat(cartan)]
        for fr in functors:
            argv += ["--functor", f.mat(fr)]
        want = {"verdict": verdict}
        if verdict == "pass":
            want["scale"] = cartan[0][0]
        return Query(kind, argv, 0 if verdict == "pass" else 1, want)
    n = rng.randint(2, 3)
    a = _rand_matrix(n, rng)
    if kind == "construct dsum":
        b = _rand_matrix(rng.randint(1, 3), rng)
        return Query(kind, ["construct", "dsum", "--matrix", f.mat(a), "--matrix", f.mat(b)], 0,
                     {"rows": gen.block_diag([a, b])})
    if kind == "construct tensor":
        b = rng.randint(2, 3)
        out = gen.zeros(n * b)
        for r in range(n):
            for c in range(n):
                for s in range(b):
                    out[r * b + s][c * b + s] = a[r][c]
        return Query(kind, ["construct", "tensor", "--matrix", f.mat(a), "--b", str(b)], 0,
                     {"rows": out})
    k = rng.randint(0, 3)
    return Query(kind, ["construct", "scale", "--matrix", f.mat(a), "--k", str(k)], 0,
                 {"rows": [[k * x for x in r] for r in a]})


COMMANDS = [
    "solve", "oracle", "decompose", "sqrt-classify", "canon",
    "classify idempotent", "classify commuting", "classify nilpotent", "classify cyclic",
    "classify root", "restrict invariant", "restrict subsets", "restrict serre",
    "restrict quotient", "restrict preserves-add", "restrict descend", "cartan",
    "construct dsum", "construct tensor", "construct scale",
]


def _malformed(rng, f):
    """Inputs the contract answers with exit 2 and a JSON error on stderr."""
    n = rng.randint(2, 4)
    rows = _rand_matrix(n, rng)
    good = f.mat(rows)
    bad_row = [r[:] for r in rows]
    bad_row[rng.randrange(n)][rng.randrange(n)] = -rng.randint(1, 9)
    str_row = [r[:] for r in rows]
    str_row[rng.randrange(n)][rng.randrange(n)] = "x" + str(rng.randint(1, 9))
    sub_out = f.subset(n, [n + rng.randint(1, 3)])
    sub_dim = f.subset(n + 1, [1])
    cases = [
        ["canon", "--matrix", f.obj({"n": n, "rows": rows[:-1] + [rows[-1][:-1]]})],
        ["canon", "--matrix", f.mat(bad_row)],
        ["canon", "--matrix", f"missing{rng.randint(0, 999)}.json"],
        ["canon", "--matrix", f.add("{not json " + "[" * rng.randint(1, 5))],
        ["solve", "--relation", f.rel((0, 1), (0, 1, 0)), "--n", "2", "--bound", "1"],
        ["canon", "--matrix", f.mat(_rand_matrix(9, rng))],
        ["oracle", "--relation", f.rel((0, 0, 1), (0, 1)), "--n", "5", "--bound", "3"],
        ["restrict", "invariant", "--matrix", good, "--subset", sub_out],
        ["restrict", "invariant", "--matrix", good, "--subset", sub_dim],
        ["solve", "--relation", f.rel((0, 0, 1), (1, 1)), "--n", str(n)],
        ["decompose", "--matrix", good, "--k", str(-rng.randint(1, 9))],
        ["classify", "root", "--matrix", good, "--exp", "0"],
        ["classify", "cyclic", "--matrix", good, "--k", "2", "--m", "3"],
        ["canon", "--matrix", f.mat(str_row)],
        ["construct", "tensor", "--matrix", good],
        ["classify", "commuting", "--matrix", good],
        ["solve", "--relation", f.rel((0, 0, 1), (1,)), "--n", "0", "--bound", "1"],
        ["sqrt-classify", "--matrix", good, "--k", str(-rng.randint(1, 9))],
    ]
    return [Query("malformed", argv, 2) for argv in cases]


def _crashes(rng, f):
    """The known crash inputs: a valid root query at exponent 500, and a
    matrix file nested 200 000 arrays deep."""
    cycle = rng.sample(range(7), 7)
    images = list(range(7))
    for t in range(5):  # a 5-cycle and a 2-cycle: order 10 divides 500
        images[cycle[t]] = cycle[(t + 1) % 5]
    images[cycle[5]], images[cycle[6]] = cycle[6], cycle[5]
    deep = 200_000
    return [
        Query("crash", ["classify", "root", "--matrix", f.mat(gen.perm_matrix(images)),
                        "--exp", "500"], 0,
              {"kind": "root_of_identity", "order": 10, "selfadjoint": False}, crash=True),
        Query("crash", ["canon", "--matrix", f.add("[" * deep + "]" * deep)], 2, crash=True),
    ]


def plan(seed):
    """(queries in seeded order, {file name: text})."""
    rng = gen.rng_for(seed, "cli")
    oracle = gen.load_oracle()
    f = _Files()
    queries = [_valid(kind, i, rng, f, oracle)
               for kind in COMMANDS for i in range(VALID_PER_COMMAND)]
    queries += _malformed(rng, f) + _crashes(rng, f)
    rng.shuffle(queries)
    return queries, f.texts


def write_inputs(planned, workdir):
    _queries, texts = planned
    os.makedirs(workdir, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _json(text):
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        return None
    return obj if isinstance(obj, dict) else None


def check(q, code, out, err):
    """None when the call kept the contract, else ("failed" | "wrong", why).

    "failed": no answer in the contract's shape (an exit code outside 0-3, or
    no JSON document where one is due, e.g. a raw traceback).  "wrong": a
    JSON answer or exit code that contradicts the input's construction.
    """
    if code not in (0, 1, 2, 3):
        return "failed", f"exit code {code}"
    if code in (2, 3):
        diag = _json(err)
        if diag is None or "error" not in diag:
            return "failed", f"exit {code} without a JSON error on stderr"
        if code == q.code or q.crash:
            return None
        return "wrong", f"exit {code} ({diag['error']}), want {q.code}"
    doc = _json(out)
    if doc is None:
        return "failed", f"exit {code} without a JSON document on stdout"
    if code != q.code:
        return "wrong", f"exit {code}, want {q.code}"
    for key, value in q.expect.items():
        if doc.get(key) != value:
            return "wrong", f"{key} is {doc.get(key)!r}, want {value!r}"
    if q.verify is not None and not q.verify(doc):
        return "wrong", "output fails the construction's check"
    return None
