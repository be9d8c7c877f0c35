import json
import random
import re
import types
from pathlib import Path

import pytest

from functorlab import (
    CartanInstance,
    CartanVerdict,
    CommutingIdempotents,
    IndexSubset,
    InvalidInput,
    NatMatrix,
    NilpotencyVerdict,
    Permutation,
    RelationPoly,
    RootOfIdentity,
    SearchConfig,
    cartan_check,
    check_commuting_idempotents,
    classify_cyclic,
    classify_idempotent,
    classify_root_of_identity,
    classify_selfadjoint_sqrt,
    decompose,
    relation_descends,
    solve,
)
from functorlab import cli, jsonio


def roundtrip(to_obj, from_obj, value):
    obj = to_obj(value)
    text = jsonio.dumps(obj)
    back = from_obj(json.loads(text))
    assert back == value
    return obj


def written(to_obj, value):
    """The writer's document for value, as a JSON consumer parses it."""
    return json.loads(jsonio.dumps(to_obj(value)))


def test_dumps_shape():
    text = jsonio.dumps({"a": 1})
    assert text == '{\n  "a": 1\n}\n'
    assert jsonio.dumps({"a": 1}) == text


def test_matrix_roundtrip():
    m = NatMatrix(((0, 2), (2, 0)))
    obj = roundtrip(jsonio.matrix_to_obj, jsonio.matrix_from_obj, m)
    assert obj == {"n": 2, "rows": [[0, 2], [2, 0]]}
    # documents written by hand parse to the same matrix
    assert jsonio.matrix_from_obj(json.loads('{"n": 2, "rows": [[0,2],[2,0]]}')) == m


def test_matrix_bigints():
    big = 1 << 60
    m = NatMatrix(((big, 0), (0, 1)))
    obj = jsonio.matrix_to_obj(m)
    assert obj["bigints"] is True
    assert obj["rows"][0][0] == str(big)
    assert obj["rows"][1][1] == 1
    assert jsonio.matrix_from_obj(json.loads(jsonio.dumps(obj))) == m
    # string form is accepted even for small entries
    assert jsonio.matrix_from_obj({"n": 1, "rows": [["7"]]}) == NatMatrix(((7,),))


def test_matrix_malformed():
    for doc in (
        [],
        {},
        {"n": 2},
        {"n": 2, "rows": [[1, 2]]},
        {"n": 2, "rows": [[1, 2], [3]]},
        {"n": 1, "rows": [[True]]},
        {"n": 1, "rows": [["x"]]},
        {"n": "nope", "rows": []},
        {"n": 1, "rows": [[1.5]]},
    ):
        with pytest.raises(InvalidInput):
            jsonio.matrix_from_obj(doc)


def test_relation_roundtrip():
    # relations reach the wire inside the construct report
    def report(rel):
        return jsonio.verify_report_to_obj(NatMatrix(((0,),)), rel, [False], False)

    rel = RelationPoly((0, 0, 1), (4,))
    obj = written(report, rel)["verify"]["relation"]
    assert obj == {"g": [0, 0, 1], "h": [4]}
    assert jsonio.relation_from_obj(obj) == rel
    big = (1 << 55) + 3
    rel = RelationPoly((0, big), (1,))
    doc = written(report, rel)
    assert doc["bigints"] is True
    assert doc["verify"]["relation"] == {"g": [0, str(big)], "h": [1]}
    assert jsonio.relation_from_obj(doc["verify"]["relation"]) == rel
    with pytest.raises(InvalidInput):
        jsonio.relation_from_obj({"g": [0, 1]})


def test_permutation_and_subset_roundtrip():
    # permutations reach the wire as 1-based image lists inside verdicts
    p = Permutation(tuple(x - 1 for x in [2, 3, 1]))
    doc = written(jsonio.root_to_obj, RootOfIdentity(p, 3, False))
    assert doc["permutation"] == [2, 3, 1]
    s = IndexSubset(3, (2, 3))
    doc = written(jsonio.subsets_to_obj, (s,))
    assert doc == {"count": 1, "subsets": [{"n": 3, "members": [2, 3]}]}
    assert jsonio.subset_from_obj(doc["subsets"][0]) == s
    with pytest.raises(InvalidInput):
        jsonio.subset_from_obj({"n": 3})


def test_block_form_roundtrip():
    m = NatMatrix(((0, 0, 1), (0, 2, 0), (4, 0, 0)))
    form = decompose(m, 4)
    # indices 1 and 3 pair into [[0, 1], [4, 0]]; index 2 is the block [2]
    assert written(jsonio.block_form_to_obj, form) == {
        "perm": [1, 3, 2],
        "k": 4,
        "blocks": [{"type": "b2", "a": 1, "b": 4}, {"type": "b1", "a": 2}],
    }


def test_sqrt_roundtrip():
    cls = classify_selfadjoint_sqrt(NatMatrix(((0, 2), (2, 0))), 4)
    obj = written(jsonio.sqrt_to_obj, cls)
    assert obj == {"kind": "sqrt", "root": 2, "involution": [2, 1]}


def test_classification_roundtrips():
    idem = classify_idempotent(NatMatrix(((1, 0), (0, 0))))
    obj = written(jsonio.idempotent_to_obj, idem)
    assert obj == {"kind": "idempotent", "n": 2, "support": [1]}

    report = check_commuting_idempotents(
        NatMatrix(((1, 0), (0, 0))), NatMatrix(((1, 0), (0, 1)))
    )
    assert written(jsonio.commuting_to_obj, report) == {
        "kind": "commuting_idempotents",
        "n": 2,
        "both": [1],
        "a_only": [],
        "b_only": [2],
        "neither": [],
        "product": {"n": 2, "rows": [[1, 0], [0, 0]]},
    }

    zero = NilpotencyVerdict("zero")
    assert written(jsonio.nilpotency_to_obj, zero) == {"kind": "zero"}
    witness = NilpotencyVerdict("not_nilpotent", power=2, position=(1, 1), value=3)
    assert written(jsonio.nilpotency_to_obj, witness) == {
        "kind": "not_nilpotent",
        "power": 2,
        "position": [1, 1],
        "value": 3,
    }

    # an idempotent-kind cyclic verdict serializes as a plain idempotent
    # document, the same one classify idempotent writes
    cyc = classify_cyclic(NatMatrix(((1, 0), (0, 0))), 3, 2)
    doc = jsonio.cyclic_to_obj(cyc)
    assert doc == {"kind": "idempotent", "n": 2, "support": [1]}
    assert jsonio.idempotent_to_obj(idem) == doc
    cyc = classify_cyclic(NatMatrix(((0, 1), (1, 0))), 3, 1)
    assert written(jsonio.cyclic_to_obj, cyc) == {
        "kind": "partial_involution",
        "n": 2,
        "support": [1, 2],
        "pairing": [2, 1],
    }

    root = classify_root_of_identity(NatMatrix(((0, 1), (1, 0))), 2)
    assert written(jsonio.root_to_obj, root) == {
        "kind": "root_of_identity",
        "permutation": [2, 1],
        "order": 2,
        "selfadjoint": True,
    }


def test_solution_set_roundtrip():
    rel = RelationPoly((0, 0, 1), (1,))
    config = SearchConfig(n=2, bound=1, symmetric_only=True)
    result = solve(rel, config)
    assert written(jsonio.solution_set_to_obj, result) == {
        "relation": {"g": [0, 0, 1], "h": [1]},
        "config": {
            "n": 2,
            "bound": 1,
            "symmetric_only": True,
            "up_to_iso": False,
            "limit": None,
        },
        "count": 2,
        "complete": True,
        "solutions": [
            {"n": 2, "rows": [[0, 1], [1, 0]]},
            {"n": 2, "rows": [[1, 0], [0, 1]]},
        ],
    }


def test_descent_roundtrip():
    rel = RelationPoly((0, 0, 1), (1,))
    swap = NatMatrix(((0, 1), (1, 0)))
    report = relation_descends(swap, IndexSubset(2, ()), rel)
    assert written(jsonio.descent_to_obj, report) == {
        "kind": "descent",
        "ambient_satisfied": True,
        "serre": None,
        "quotient": {"n": 2, "rows": [[0, 1], [1, 0]]},
    }


def test_cartan_verdict_roundtrips():
    swap = NatMatrix(((0, 1), (1, 0)))
    ident = NatMatrix.identity(2)
    verdicts = [
        cartan_check(CartanInstance(2 * ident, (swap, NatMatrix(((1, 0), (0, 0)))))),
        cartan_check(CartanInstance(NatMatrix(((2, 0), (0, 1))), (swap,))),
        cartan_check(CartanInstance(2 * ident, (swap,))),
        CartanVerdict("inconsistent_input", position=(1, 2)),
        CartanVerdict("inconclusive"),
    ]
    kinds = [v.kind for v in verdicts]
    assert kinds == [
        "pass",
        "fail_commutation",
        "reducible",
        "inconsistent_input",
        "inconclusive",
    ]
    assert [written(jsonio.cartan_verdict_to_obj, v) for v in verdicts] == [
        {"verdict": "pass", "scale": 2},
        {"verdict": "fail_commutation", "functor": 1, "position": [1, 2], "left": 1,
         "right": 2},
        {"verdict": "reducible", "functor": 1, "eigenvalue": -1, "basis": [[1, -1]]},
        {"verdict": "inconsistent_input", "position": [1, 2]},
        {"verdict": "inconclusive"},
    ]


def test_error_to_obj():
    err = InvalidInput("bad thing", position=(1, 2), value=7)
    obj = jsonio.error_to_obj(err)
    assert obj == {
        "error": "invalid_input",
        "message": "bad thing",
        "details": {"position": [1, 2], "value": 7},
    }
    assert jsonio.error_to_obj(InvalidInput("plain")) == {
        "error": "invalid_input",
        "message": "plain",
    }


def test_load_text():
    assert jsonio.load_text('{"a": 1}') == {"a": 1}
    with pytest.raises(InvalidInput):
        jsonio.load_text("{nope")


def test_matrix_roundtrip_random():
    rng = random.Random(20260823)
    for _ in range(200):
        n = rng.randint(1, 6)
        base = rng.choice((3, 10, 1 << 54))
        m = NatMatrix(
            tuple(
                tuple(rng.randint(0, base) for _ in range(n)) for _ in range(n)
            )
        )
        assert jsonio.matrix_from_obj(
            json.loads(jsonio.dumps(jsonio.matrix_to_obj(m)))
        ) == m


def test_every_codec_is_reached_from_the_cli():
    # each CLI process compiles jsonio, so a codec only the tests call costs
    # every call: a public function must be named in cli.py, be the reader of
    # an input-file kind, or be named by a function that is
    source = Path(cli.__file__).read_text(encoding="utf-8")
    public = {
        name
        for name, f in vars(jsonio).items()
        if isinstance(f, types.FunctionType)
        and f.__module__ == jsonio.__name__
        and not name.startswith("_")
    }
    reached = {name for name in public if re.search(rf"\bjsonio\.{name}\b", source)}
    reached |= {f"{kind}_from_obj" for kind in cli._FILE_OPTIONS.values()}
    todo = list(reached)
    while todo:
        for name in getattr(jsonio, todo.pop()).__code__.co_names:
            if name in public and name not in reached:
                reached.add(name)
                todo.append(name)
    assert "wire" in reached
    assert sorted(public - reached) == []
