"""Value semantics of the public record types.

Every record is frozen: its fields, its repr, its equality (within its own
class only) and hash, its lack of any ordering, its refusal of assignment
and deletion, its pickle round trip and its constructor's argument checks
are pinned here, one instance of each type.
The builders that set a record's fields without the public checks are
tested against those checks: each output passes the public constructor
unchanged, and a record built by `_trusted`, the one-field classes' own or
the shared one, cannot be told apart from the checked one.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from functorlab.canonical import (
    Block1,
    Block2,
    BlockForm,
    SqrtClassification,
    enumerate_involutions,
)
from functorlab.classify import (
    CommutingIdempotents,
    CyclicClassification,
    IdempotentClassification,
    NilpotencyVerdict,
    RootOfIdentity,
)
from functorlab.restrict import (
    CartanInstance,
    CartanVerdict,
    DescentReport,
    IndexSubset,
    invariant_subsets,
)
from functorlab.solver import SearchConfig, SolutionSet
from functorlab.zmatrix import NatMatrix, Permutation, RelationPoly, _Record

SWAP = NatMatrix(((0, 1), (1, 0)))
EYE = NatMatrix(((1, 0), (0, 1)))
PERM = Permutation((1, 0))
REL = RelationPoly((0, 0, 1), (1,))
CONFIG = SearchConfig(2, 1, symmetric_only=True)

# (factory, repr); each factory builds a fresh, equal instance on every call
RECORDS = [
    (lambda: NatMatrix(((0, 1), (1, 0))), "NatMatrix(entries=((0, 1), (1, 0)))"),
    (lambda: Permutation((1, 0)), "Permutation(images=(1, 0))"),
    (lambda: RelationPoly((0, 0, 1, 0), (1,)), "RelationPoly(g=(0, 0, 1), h=(1,))"),
    (lambda: SearchConfig(2, 1, symmetric_only=True),
     "SearchConfig(n=2, bound=1, symmetric_only=True, up_to_iso=False, limit=None)"),
    (lambda: SolutionSet(CONFIG, REL, (SWAP, EYE), True),
     "SolutionSet(config=SearchConfig(n=2, bound=1, symmetric_only=True, "
     "up_to_iso=False, limit=None), relation=RelationPoly(g=(0, 0, 1), h=(1,)), "
     "solutions=(NatMatrix(entries=((0, 1), (1, 0))), "
     "NatMatrix(entries=((1, 0), (0, 1)))), complete=True)"),
    (lambda: Block1(2), "Block1(a=2)"),
    (lambda: Block2(1, 4), "Block2(a=1, b=4)"),
    (lambda: BlockForm(PERM, (Block2(1, 4),), 4),
     "BlockForm(perm=Permutation(images=(1, 0)), blocks=(Block2(a=1, b=4),), k=4)"),
    (lambda: SqrtClassification(2, PERM),
     "SqrtClassification(root=2, involution=Permutation(images=(1, 0)))"),
    (lambda: IdempotentClassification(3, (1, 3)),
     "IdempotentClassification(n=3, support=(1, 3))"),
    (lambda: CommutingIdempotents(2, (1,), (), (2,), (), EYE),
     "CommutingIdempotents(n=2, both=(1,), a_only=(), b_only=(2,), neither=(), "
     "product=NatMatrix(entries=((1, 0), (0, 1))))"),
    (lambda: NilpotencyVerdict("not_nilpotent", power=3, position=(1, 2), value=4),
     "NilpotencyVerdict(kind='not_nilpotent', power=3, position=(1, 2), value=4)"),
    (lambda: CyclicClassification("idempotent", 2, (1,)),
     "CyclicClassification(kind='idempotent', n=2, support=(1,), pairing=None)"),
    (lambda: RootOfIdentity(PERM, 2, True),
     "RootOfIdentity(permutation=Permutation(images=(1, 0)), order=2, selfadjoint=True)"),
    (lambda: IndexSubset(3, (3, 1)), "IndexSubset(n=3, members=(1, 3))"),
    (lambda: DescentReport(True, serre=EYE),
     "DescentReport(ambient_satisfied=True, serre=NatMatrix(entries=((1, 0), (0, 1))), "
     "quotient=None)"),
    (lambda: CartanInstance(EYE, [SWAP]),
     "CartanInstance(cartan=NatMatrix(entries=((1, 0), (0, 1))), "
     "functors=(NatMatrix(entries=((0, 1), (1, 0))),))"),
    (lambda: CartanVerdict("pass", scale=1),
     "CartanVerdict(kind='pass', scale=1, functor=None, position=None, left=None, "
     "right=None, eigenvalue=None, basis=None)"),
]
# the fields of every record type, in order
FIELDS = {
    NatMatrix: ("entries",),
    Permutation: ("images",),
    RelationPoly: ("g", "h"),
    SearchConfig: ("n", "bound", "symmetric_only", "up_to_iso", "limit"),
    SolutionSet: ("config", "relation", "solutions", "complete"),
    Block1: ("a",),
    Block2: ("a", "b"),
    BlockForm: ("perm", "blocks", "k"),
    SqrtClassification: ("root", "involution"),
    IdempotentClassification: ("n", "support"),
    CommutingIdempotents: ("n", "both", "a_only", "b_only", "neither", "product"),
    NilpotencyVerdict: ("kind", "power", "position", "value"),
    CyclicClassification: ("kind", "n", "support", "pairing"),
    RootOfIdentity: ("permutation", "order", "selfadjoint"),
    IndexSubset: ("n", "members"),
    DescentReport: ("ambient_satisfied", "serre", "quotient"),
    CartanInstance: ("cartan", "functors"),
    CartanVerdict: ("kind", "scale", "functor", "position", "left", "right", "eigenvalue",
                    "basis"),
}
CASES = pytest.mark.parametrize("make, text", RECORDS, ids=[r[1].split("(")[0] for r in RECORDS])


def test_every_record_type_has_its_fields():
    # the fields are read off the class annotations when the class is made;
    # a record type that found none could not be built with any argument
    assert set(_Record.__subclasses__()) == set(FIELDS)
    assert {make().__class__ for make, _ in RECORDS} == set(FIELDS)
    for cls, fields in FIELDS.items():
        assert cls._fields == fields, cls.__name__


@CASES
def test_instance_holds_its_fields_in_order(make, text):
    a = make()
    assert tuple(vars(a)) == FIELDS[type(a)]


@CASES
def test_repr(make, text):
    assert repr(make()) == text


@CASES
def test_equality_and_hash_follow_the_fields(make, text):
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(vars(a).values()))
    values = tuple(vars(a).values())
    assert a.__eq__(values) is NotImplemented
    assert a != values
    for other, _ in RECORDS:
        if type(other()) is not type(a):
            assert a != other() and a.__eq__(other()) is NotImplemented


@CASES
def test_ordering_only_on_matrices_and_permutations(make, text):
    # no record type is ordered, matrices and permutations included: callers
    # that sort records say by what, as in min(..., key=lambda m: m.entries)
    a, b = make(), make()
    for compare in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b):
        with pytest.raises(TypeError):
            compare()


@CASES
def test_fields_refuse_assignment_and_deletion(make, text):
    a = make()
    name = next(iter(vars(a)))
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(a, name))
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert repr(a) == text


@CASES
def test_pickle_round_trip(make, text):
    a = make()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        b = pickle.loads(pickle.dumps(a, protocol))
        assert type(b) is type(a) and b == a and repr(b) == text


@CASES
def test_constructor_refuses_missing_and_extra_arguments(make, text):
    a = make()
    cls, values = type(a), tuple(vars(a).values())
    assert cls(*values) == a
    assert cls(**vars(a)) == a
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(values[0], **{next(iter(vars(a))): values[0]})


# -- builders that set their fields without the public checks ---------------

@CASES
def test_trusted_record_cannot_be_told_from_the_checked_one(make, text):
    a = make()
    cls = type(a)
    t = cls._trusted(*vars(a).values())
    assert type(t) is cls
    assert tuple(vars(t)) == tuple(vars(a)) == FIELDS[cls]
    assert repr(t) == repr(a) == text
    assert t == a and a == t and hash(t) == hash(a)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        b = pickle.loads(pickle.dumps(t, protocol))
        assert type(b) is cls and b == a and hash(b) == hash(a) and repr(b) == text


def test_one_field_trusted_records_are_right_before_vars_is_read():
    # each check starts from a record whose fields nothing has read yet
    cases = [(NatMatrix, ((0, 1), (1, 0))), (Permutation, (1, 0)), (Block1, 2)]
    for cls, value in cases:
        (name,) = FIELDS[cls]
        checked = cls(value)
        assert cls._trusted(value) == checked
        assert checked == cls._trusted(value)
        assert hash(cls._trusted(value)) == hash(checked) == hash((value,))
        assert cls._trusted(value) != cls._trusted(value * 2)
        assert getattr(cls._trusted(value), name) == value
        assert repr(cls._trusted(value)) == repr(checked)


naturals = st.integers(0, 3)


def square(n):
    return st.lists(st.lists(naturals, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(square(n), square(n))))
def test_trusted_builds_pass_the_public_constructor(pair):
    a, b = map(NatMatrix.from_rows, pair)
    for out in (a * b, a.transpose()):
        assert type(out) is NatMatrix and NatMatrix(out.entries) == out
    for subset in invariant_subsets(a):
        assert type(subset) is IndexSubset
        assert IndexSubset(subset.n, subset.members) == subset


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerated_involutions_pass_the_public_constructor(n):
    for p in enumerate_involutions(n):
        assert type(p) is Permutation and Permutation(p.images) == p

