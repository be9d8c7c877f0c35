"""The big-integer wire rule, property-tested over every writer.

Each document goes writer -> jsonio.dumps -> json.loads; the parsed
document must hold no integer beyond 2^53 - 1, and must carry "bigints"
only as a top-level key and exactly when the source held such an integer.
With its decimal strings decoded, it must equal the FORMATS.md schema for
its kind, written out from the source record's fields.  Relations and search
configurations are checked inside the documents that carry them.

`jsonio.dumps` applies the rule as it encodes.  Over random plain documents
it must write the bytes of `oracle_wire`, a separate copy-then-encode pass,
followed by the standard library's indented encoder.
"""

import json

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from functorlab import (
    CartanVerdict,
    InvalidInput,
    NatMatrix,
    NilpotencyVerdict,
    Permutation,
    RelationPoly,
    SearchConfig,
    SearchSpaceTooLarge,
)
from functorlab import jsonio
from functorlab.canonical import Block1, Block2, BlockForm, SqrtClassification
from functorlab.restrict import DescentReport
from functorlab.solver import SolutionSet
from functorlab.zmatrix import _Record

SAFE = (1 << 53) - 1

# nonnegative integers on both sides of 2^53 - 1, small ones included
naturals = st.one_of(
    st.integers(0, 4),
    st.integers(SAFE - 2, SAFE + 3),
    st.sampled_from([1 << 64, 10**25]),
)
integers = st.one_of(naturals, naturals.map(lambda x: -x))


def matrices(n):
    return st.lists(
        st.lists(naturals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(NatMatrix.from_rows)


any_matrix = st.integers(1, 3).flatmap(matrices)


@st.composite
def relations(draw):
    g = draw(st.lists(naturals, max_size=4))
    h = draw(st.lists(naturals, max_size=4))
    try:
        return RelationPoly(tuple(g), tuple(h))
    except InvalidInput:  # g == h as polynomials
        assume(False)


@st.composite
def configs(draw, n=None):
    return SearchConfig(
        n=draw(naturals.filter(bool)) if n is None else n,
        bound=draw(naturals),
        symmetric_only=draw(st.booleans()),
        up_to_iso=draw(st.booleans()),
        limit=draw(st.none() | naturals.filter(bool)),
    )


@st.composite
def solution_sets(draw):
    n = draw(st.integers(1, 2))
    return SolutionSet(
        config=draw(configs(n)),
        relation=draw(relations()),
        solutions=tuple(draw(st.lists(matrices(n), max_size=3))),
        complete=draw(st.booleans()),
    )


positions = st.tuples(naturals, naturals)
nilpotency = st.builds(
    NilpotencyVerdict,
    st.just("not_nilpotent"),
    power=naturals,
    position=positions,
    value=naturals,
) | st.just(NilpotencyVerdict("zero"))
involutions = st.sampled_from([(1,), (2, 1), (1, 3, 2)]).map(
    lambda seq: Permutation(tuple(x - 1 for x in seq))
)
sqrts = st.builds(SqrtClassification, naturals, involutions)
block_forms = st.builds(
    BlockForm,
    involutions,
    st.lists(st.builds(Block1, naturals) | st.builds(Block2, naturals, naturals), max_size=3)
    .map(tuple),
    naturals,
)
cartans = st.one_of(
    st.builds(CartanVerdict, st.just("pass"), scale=naturals),
    st.builds(
        CartanVerdict,
        st.just("fail_commutation"),
        functor=naturals,
        position=positions,
        left=integers,
        right=integers,
    ),
    st.builds(
        CartanVerdict,
        st.just("reducible"),
        functor=naturals,
        eigenvalue=integers,
        basis=st.lists(
            st.lists(integers, min_size=2, max_size=2).map(tuple), min_size=1, max_size=2
        ).map(tuple),
    ),
    st.builds(CartanVerdict, st.just("inconsistent_input"), position=positions),
    st.just(CartanVerdict("inconclusive")),
)
optional_matrix = st.none() | any_matrix
descents = st.builds(DescentReport, st.booleans(), optional_matrix, optional_matrix)
errors = st.builds(
    lambda message, details: SearchSpaceTooLarge(message, **details),
    st.text(max_size=8),
    st.dictionaries(
        st.sampled_from(["candidates", "value", "position"]),
        integers | st.tuples(integers, integers),
    ),
)


def _ints(value):
    """Every integer (not bool) inside a record, an error, a tuple or a dict."""
    if isinstance(value, Exception):
        value = value.details
    if isinstance(value, _Record):
        value = tuple(getattr(value, f) for f in value._fields)
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, (tuple, list)):
        for x in value:
            yield from _ints(x)
    elif isinstance(value, int) and not isinstance(value, bool):
        yield value


def _walk(doc, top=True):
    """(every integer in a parsed document, True if any nested "bigints")."""
    ints, nested = [], False
    if isinstance(doc, dict):
        nested = "bigints" in doc and not top
        children = doc.values()
    elif isinstance(doc, list):
        children = doc
    else:
        return ([doc] if isinstance(doc, int) and not isinstance(doc, bool) else []), False
    for x in children:
        sub, deep = _walk(x, top=False)
        ints += sub
        nested = nested or deep
    return ints, nested


def check_wire(value, to_obj):
    doc = json.loads(jsonio.dumps(to_obj(value)))
    ints, nested = _walk(doc)
    assert all(abs(x) <= SAFE for x in ints)
    assert not nested
    has_big = any(abs(x) > SAFE for x in _ints(value))
    if isinstance(doc, dict):
        assert doc.get("bigints") is (True if has_big else None)
        if has_big:
            assert list(doc)[-1] == "bigints"
    return doc


def roundtrip(value, to_obj, from_obj):
    assert from_obj(check_wire(value, to_obj)) == value


def decode(v):
    """A parsed document with its decimal strings read back as integers, its
    lists as tuples and its top-level marker dropped."""
    if isinstance(v, dict):
        return {key: decode(x) for key, x in v.items() if key != "bigints"}
    if isinstance(v, list):
        return tuple(decode(x) for x in v)
    if isinstance(v, str) and v.lstrip("-").isdigit():
        return int(v)
    return v


def _matrix(m):
    return None if m is None else {"n": m.n, "rows": m.entries}


def _relation(rel):
    return {"g": rel.g, "h": rel.h}


def _config(config):
    return {
        "n": config.n,
        "bound": config.bound,
        "symmetric_only": config.symmetric_only,
        "up_to_iso": config.up_to_iso,
        "limit": config.limit,
    }


def _images(p):
    return tuple(i + 1 for i in p.images)


ZERO_1X1 = NatMatrix(((0,),))
X2_EQ_I = RelationPoly((0, 0, 1), (1,))

# the fields each Cartan verdict kind writes after "verdict"
CARTAN_FIELDS = {
    "pass": ("scale",),
    "fail_commutation": ("functor", "position", "left", "right"),
    "reducible": ("functor", "eigenvalue", "basis"),
    "inconsistent_input": ("position",),
    "inconclusive": (),
}


WIRE = settings(max_examples=60, deadline=None)


@WIRE
@given(any_matrix)
@example(NatMatrix(((SAFE + 1,),)))  # the least integer the wire rule writes as a string
def test_wire_matrix(m):
    roundtrip(m, jsonio.matrix_to_obj, jsonio.matrix_from_obj)


@WIRE
@given(relations())
def test_wire_relation(rel):
    doc = check_wire(
        rel, lambda r: jsonio.verify_report_to_obj(ZERO_1X1, r, [False], False)
    )
    assert decode(doc)["verify"]["relation"] == _relation(rel)


@WIRE
@given(configs())
def test_wire_config(config):
    doc = check_wire(
        config, lambda c: jsonio.solution_set_to_obj(SolutionSet(c, X2_EQ_I, (), True))
    )
    assert decode(doc)["config"] == _config(config)


@WIRE
@given(solution_sets())
def test_wire_solution_set(result):
    assert decode(check_wire(result, jsonio.solution_set_to_obj)) == {
        "relation": _relation(result.relation),
        "config": _config(result.config),
        "count": len(result.solutions),
        "complete": result.complete,
        "solutions": tuple(_matrix(m) for m in result.solutions),
    }


@WIRE
@given(nilpotency)
def test_wire_nilpotency(verdict):
    expected = {"kind": verdict.kind}
    if verdict.kind == "not_nilpotent":
        expected.update(power=verdict.power, position=verdict.position, value=verdict.value)
    assert decode(check_wire(verdict, jsonio.verdict_to_obj)) == expected


@WIRE
@given(sqrts)
def test_wire_sqrt(cls):
    assert decode(check_wire(cls, jsonio.sqrt_to_obj)) == {
        "kind": "sqrt",
        "root": cls.root,
        "involution": _images(cls.involution),
    }


@WIRE
@given(block_forms)
def test_wire_block_form(form):
    assert decode(check_wire(form, jsonio.block_form_to_obj)) == {
        "perm": _images(form.perm),
        "k": form.k,
        "blocks": tuple(
            {"type": "b1", "a": block.a}
            if isinstance(block, Block1)
            else {"type": "b2", "a": block.a, "b": block.b}
            for block in form.blocks
        ),
    }


@WIRE
@given(cartans)
def test_wire_cartan(verdict):
    expected = {"verdict": verdict.kind}
    expected.update((f, getattr(verdict, f)) for f in CARTAN_FIELDS[verdict.kind])
    assert decode(check_wire(verdict, lambda v: jsonio.verdict_to_obj(v, "verdict"))) == expected


@WIRE
@given(descents)
def test_wire_descent(report):
    assert decode(check_wire(report, jsonio.descent_to_obj)) == {
        "kind": "descent",
        "ambient_satisfied": report.ambient_satisfied,
        "serre": _matrix(report.serre),
        "quotient": _matrix(report.quotient),
    }


@WIRE
@given(errors)
def test_wire_error(err):
    doc = check_wire(err, jsonio.error_to_obj)
    assert doc["error"] == err.code and doc["message"] == err.message
    assert {k: decode(v) for k, v in doc.get("details", {}).items()} == err.details


def oracle_wire(doc):
    """`doc` with every int (not bool) beyond +-(2^53 - 1) as its decimal
    string, and one "bigints": true appended at the top level if it holds
    such a string.  Tuples become lists."""
    found = False

    def encode(v):
        nonlocal found
        if isinstance(v, dict):
            return {key: encode(x) for key, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [encode(x) for x in v]
        if isinstance(v, int) and not isinstance(v, bool) and abs(v) > SAFE:
            found = True
            return str(v)
        return v

    out = encode(doc)
    if found and isinstance(out, dict):
        out["bigints"] = True
    return out


edge_ints = st.one_of(
    st.integers(-4, 4),
    st.integers(SAFE - 2, SAFE + 2),
    st.integers(-SAFE - 2, -SAFE + 2),
    st.sampled_from([1 << 64, -(10**25)]),
    st.integers(),
)
strings = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé☃\U0001f600') | st.characters(),
                  max_size=6)
keys = strings.filter(lambda k: k != "bigints")  # the marker is no writer's key
plain_docs = st.recursive(
    st.none() | st.booleans() | edge_ints | strings,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(keys, plain_docs, max_size=4) | plain_docs)
@example([SAFE, -SAFE, SAFE + 1, -(SAFE + 1)])
@example({"value": SAFE + 1, "rows": [(0, -(SAFE + 1))]})
@example([{"value": SAFE + 1}])
@example({})
@example([])
def test_dumps_matches_the_oracle(doc):
    assert jsonio.dumps(doc) == json.dumps(oracle_wire(doc), indent=2) + "\n"
