"""One property over every name in `functorlab.__all__`: called with
arguments of its documented types, each returns or raises a FunctorLabError.

The integers are extreme: 0, +-1, +-(2^53 +- 1), 2^63 +- 1 and +-10^5000
(past Python's 4300-digit int/str limit, which only cli.main lifts), with 2
and 3 so that searches and exponents also get small valid values; tuples
come empty, ragged and with those entries.  An example calls every public
name once.  Its calls are drawn as plain data and built and run in one
child process under RLIMIT_CPU and RLIMIT_AS, so that a call that runs
without bound fails the example instead of hanging the suite.

ROADMAP item 7's open cases are left out of the property and named below as
strict xfails: huge exponents on matrices whose powers grow, `solve` with a
huge bound, and `cartan_check` on entries of 10^5000.  Each passes, and so
fails as an xfail, once item 7 bounds it.
"""

import os
import pathlib
import pickle
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import functorlab


class Huge(int):
    """10^5000 or its negative, shown short: its repr would pass the digit
    limit in this process.  Made a plain int before it reaches the child."""

    def __repr__(self):
        return "10**5000" if self > 0 else "-10**5000"


EXTREMES = (0, 1, -1, 2, 3, 2 ** 53 - 1, 2 ** 53 + 1, -(2 ** 53 - 1), -(2 ** 53 + 1),
            2 ** 63 - 1, 2 ** 63 + 1, Huge(10 ** 5000), Huge(-10 ** 5000))
# small or negative: cheap as an exponent on any matrix, and as a search bound
SMALL = (0, 1, -1, 2, 3, -(2 ** 53 + 1), Huge(-10 ** 5000))

ints = st.sampled_from(EXTREMES)
small_ints = st.sampled_from(SMALL)


def _tuple(elements, max_size=3):
    return st.lists(elements, max_size=max_size).map(tuple)


def _trimmed(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def _rows_of_identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _rows(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n).map(tuple),
                    min_size=n, max_size=n).map(tuple)


def _symmetric_rows(n, entries):
    return st.lists(entries, min_size=n * n, max_size=n * n).map(
        lambda v: tuple(tuple(v[min(i, j) * n + max(i, j)] for j in range(n)) for i in range(n)))


def _call(name, *args):
    # plain data for the child: a list is the call functorlab.<name>(*args)
    return st.tuples(*args).map(lambda values: [name, *values])


def _calls(name, args):
    # the call of name on each drawn tuple of arguments
    return args.map(lambda values: [name, *values])


sizes = st.integers(1, 3)
naturals = st.sampled_from([x for x in EXTREMES if x >= 0])


def _sparse(values):
    # mostly zeros, so that invariant subsets and commuting families turn up
    return st.sampled_from((0, 0, 0, 1) + tuple(x for x in values if x > 2 ** 62))


def _matrices(values):
    return _call("NatMatrix", st.one_of(
        sizes.flatmap(lambda n: _rows(n, st.sampled_from(values))),
        sizes.flatmap(lambda n: _rows(n, st.sampled_from([x for x in values if x >= 0]))),
        _tuple(_tuple(st.sampled_from(values))),  # empty or ragged
    ))


def _cartans(values):
    # symmetric functors on a Cartan matrix of their size, a scalar one among
    # them, or any matrices
    sparse = _sparse(values)
    return sizes.flatmap(lambda n: _call(
        "CartanInstance",
        _call("scalar_mul", sparse, st.just(["NatMatrix", _rows_of_identity(n)]))
        | _call("NatMatrix", _rows(n, sparse)),
        st.lists(_call("NatMatrix", _symmetric_rows(n, sparse)), min_size=1,
                 max_size=2).map(tuple),
    )) | _call("CartanInstance", _matrices(values), _tuple(_matrices(values), 2))


matrices = _matrices(EXTREMES)
# matrices whose powers stay 0/1, so that any exponent is cheap on them
BOUNDED = (((0,),), ((1,),), ((0, 0), (0, 0)), ((0, 1), (1, 0)), ((1, 0), (0, 0)),
           ((0, 1), (0, 0)), ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
           ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
bounded = _call("NatMatrix", st.sampled_from(BOUNDED))
permutations = _call("Permutation", st.one_of(
    sizes.flatmap(lambda n: st.permutations(range(n)).map(tuple)),
    _tuple(ints)))
# two sides that differ once trailing zeros are dropped, or any two tuples
relations = (_call("RelationPoly", _tuple(naturals), _tuple(naturals)).filter(
    lambda call: _trimmed(call[1]) != _trimmed(call[2]))
             | _call("RelationPoly", _tuple(ints), _tuple(ints)))
subsets = _call("IndexSubset", ints, _tuple(ints))
# a matrix and a subset of one size, or of any two
matrix_subsets = sizes.flatmap(lambda n: st.tuples(
    _call("NatMatrix", _rows(n, _sparse(EXTREMES))),
    _call("IndexSubset", st.just(n), st.sets(st.integers(1, n)).map(tuple)),
)) | st.tuples(matrices, subsets)


def configs(bounds):
    return _call("SearchConfig", st.sampled_from((1, 2)) | ints, bounds, st.booleans(),
                 st.booleans(), st.none() | ints)


def _matrix_and_exponents(count):
    # any matrix with small exponents, or any exponents on a bounded matrix:
    # a huge exponent on a growing matrix is ROADMAP item 7 (see OPEN)
    return st.one_of(st.tuples(matrices, *[small_ints] * count),
                     st.tuples(bounded, *[ints] * count))


CALLS = {
    "NatMatrix": matrices,
    "Permutation": permutations,
    "RelationPoly": relations,
    "IndexSubset": subsets,
    "SearchConfig": configs(ints),
    "CartanInstance": _cartans(EXTREMES),
    "canonical_cap": _call("canonical_cap"),
    "canonical_rep": _call("canonical_rep", matrices),
    "conjugate": _call("conjugate", matrices, permutations),
    "direct_sum": _call("direct_sum", matrices, matrices),
    "external_tensor": _call("external_tensor", matrices, ints),
    "poly_eval": _call("poly_eval", _tuple(ints), matrices),
    "scalar_mul": _call("scalar_mul", ints, matrices),
    "classify_selfadjoint_sqrt": _call("classify_selfadjoint_sqrt", matrices, ints),
    "decompose": _call("decompose", matrices, ints),
    "enumerate_involutions": _call("enumerate_involutions", ints),
    "check_commuting_idempotents": _call("check_commuting_idempotents", matrices, matrices),
    "check_nilpotent": _calls("check_nilpotent", _matrix_and_exponents(1)),
    "classify_cyclic": _calls("classify_cyclic", _matrix_and_exponents(2)),
    "classify_idempotent": _call("classify_idempotent", matrices),
    "classify_root_of_identity": _calls("classify_root_of_identity", _matrix_and_exponents(1)),
    # entries of 10^5000 make its eigenvalue search take seconds (see OPEN)
    "cartan_check": _call("cartan_check", _cartans([x for x in EXTREMES if type(x) is int])),
    "invariant_subsets": _call("invariant_subsets", matrices),
    "is_invariant_subset": _calls("is_invariant_subset", matrix_subsets),
    "preserves_add": _calls("preserves_add", matrix_subsets),
    "relation_descends": st.tuples(matrix_subsets, relations).map(
        lambda args: ["relation_descends", *args[0], args[1]]),
    "restrict_quotient": _calls("restrict_quotient", matrix_subsets),
    "restrict_serre": _calls("restrict_serre", matrix_subsets),
    # n = 3 at bound 3 would take seconds of plain enumeration
    "brute_force_oracle": _call("brute_force_oracle", relations,
                                configs(st.sampled_from([x for x in EXTREMES if x != 3]))),
    "derive_entry_bound": _call("derive_entry_bound", relations, st.booleans()),
    # a huge bound is ROADMAP item 7 (see OPEN)
    "solve": _call("solve", relations, configs(small_ints), ints),
}
# a record that checks nothing takes a value of each field's annotated type
FIELDS = {"int": ints, "tuple": _tuple(ints), "str": st.sampled_from(["zero", "pass", ""]),
          "bool": st.booleans(), "NatMatrix": matrices, "Permutation": permutations,
          "SearchConfig": configs(ints), "RelationPoly": relations}


def _strategy(name):
    value = getattr(functorlab, name)
    if name in CALLS:
        return CALLS[name]
    if isinstance(value, type) and issubclass(value, functorlab.FunctorLabError):
        # a template with one field per value
        return _tuple(ints).map(lambda values: [name, " ".join(["{}"] * len(values)), *values])
    types = [value.__annotations__[f] for f in value._fields]
    return _call(name, *(FIELDS[getattr(t, "__name__", t)] for t in types))


NAMES = [name for name in functorlab.__all__ if callable(getattr(functorlab, name))]

CHILD = """
import pickle, sys
import functorlab

def build(v):
    if isinstance(v, list):
        return getattr(functorlab, v[0])(*map(build, v[1:]))
    return tuple(map(build, v)) if isinstance(v, tuple) else v

for call in pickle.load(sys.stdin.buffer):
    try:
        build(call)
        outcome = "returned"
    except functorlab.FunctorLabError:
        outcome = "typed"
    except Exception as exc:
        outcome = type(exc).__name__
    print(outcome, flush=True)
"""


def _plain(v):
    if isinstance(v, list):
        return [v[0], *map(_plain, v[1:])]
    if isinstance(v, tuple):
        return tuple(map(_plain, v))
    return int(v) if type(v) is Huge else v


def _limits(cpu_seconds):
    def apply():
        # runs in the child between fork and exec, so only the child is limited
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2 ** 20, 512 * 2 ** 20))
    return apply


def _start(calls, cpu_seconds):
    env = {k: v for k, v in os.environ.items() if k != functorlab.CANON_CAP_ENV}
    env["PYTHONPATH"] = str(pathlib.Path(functorlab.__file__).parents[1])
    proc = subprocess.Popen([sys.executable, "-c", CHILD], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            preexec_fn=_limits(cpu_seconds))
    proc.stdin.write(pickle.dumps([_plain(call) for call in calls]))
    proc.stdin.close()
    return proc


def _finish(proc):
    """(exit code, one outcome per call that finished).  A child ends by
    itself with 0, or by a signal; any other exit is a fault of this
    harness, raised here so that it can never pass for an xfail."""
    out, err = proc.stdout.read().decode(), proc.stderr.read().decode()
    code = proc.wait()
    if code > 0:
        raise RuntimeError(f"the child process failed: {err[-2000:]}")
    return code, out.split()


def _broken(calls, code, outcomes):
    """The calls that broke the contract: a raw exception, or the call the
    child was running when it died."""
    bad = [(call, o) for call, o in zip(calls, outcomes) if o not in ("returned", "typed")]
    if code != 0 and len(outcomes) < len(calls):
        bad.append((calls[len(outcomes)], f"child ended with {code}"))
    return bad


def test_every_public_callable_has_a_strategy():
    # a new public name gets arguments here, or this fails
    for name in NAMES:
        _strategy(name)


@settings(max_examples=8, deadline=None)
@given(st.tuples(*map(_strategy, NAMES)))
def test_every_public_call_returns_or_raises_a_typed_error(calls):
    code, outcomes = _finish(_start(calls, 20))
    assert _broken(calls, code, outcomes) == []
    assert code == 0 and len(outcomes) == len(calls)


GROWING = ["NatMatrix", ((1, 1), (1, 1))]
BIG = Huge(10 ** 5000)
OPEN = {
    # huge exponents on a matrix whose powers grow
    "check_nilpotent": ["check_nilpotent", GROWING, 2 ** 53 + 1],
    "classify_cyclic": ["classify_cyclic", GROWING, 2 ** 53 + 1, 1],
    "classify_root_of_identity": ["classify_root_of_identity", GROWING, 2 ** 53 + 1],
    # no node budget
    "solve": ["solve", ["RelationPoly", (0, 0, 1), (1,)], ["SearchConfig", 1, 2 ** 63]],
    # the integer eigenvalues are found by bisecting a range as wide as the
    # entries, each step a polynomial evaluation: 2x2 entries of 10^5000 take
    # 5 to 10 s, 3x3 more than 20 s
    "cartan_check": ["cartan_check", ["CartanInstance", ["NatMatrix", ((0, 0), (0, 0))],
                                      (["NatMatrix", ((0, BIG), (BIG, 0))],)]],
}


@pytest.fixture(scope="module")
def open_runs():
    # one child per case, all started at once: each runs until its 1 s of CPU
    procs = {name: _start([call], 1) for name, call in OPEN.items()}
    return {name: _finish(proc) for name, proc in procs.items()}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 7: huge exponents on growing powers, solve's node budget and "
        "cartan_check's eigenvalue bisection run until the CPU limit"))
    for name in OPEN])
def test_open_cases_return_or_raise_a_typed_error(open_runs, name):
    code, outcomes = open_runs[name]
    assert _broken([OPEN[name]], code, outcomes) == []
