"""Fuzz the command line in process: random argv over every subcommand.

Whatever the arguments, the exit code is 0/1/2/3, exits 2 and 3 leave one
JSON error object on stderr, JSON-format exits 0 and 1 leave one JSON
document on stdout (or in the --out file; a negative verdict raised as an
error leaves its JSON error object on stderr instead), and no traceback
ever shows.
Every example of that fuzz stays in the millisecond range: n <= 2 and
bound <= 2 for searches, relation constants <= 4, matrices at most 4x4 and
--b <= 4; --jobs runs up to 10^5000 and changes nothing.  A second fuzz
gives the power classifiers exponents up to 2^1000, each run in a child
process under a CPU limit, and one more child process runs `solve` at a
bound past 2^63 under a CPU and an address-space limit.
"""

import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from functorlab.cli import main

MATRICES = {
    "swap.json": {"n": 2, "rows": [[0, 1], [1, 0]]},
    "swap2.json": {"n": 2, "rows": [[0, 2], [2, 0]]},
    "idem.json": {"n": 2, "rows": [[1, 0], [0, 0]]},
    "ident3.json": {"n": 3, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "zero2.json": {"n": 2, "rows": [[0, 0], [0, 0]]},
    "upper.json": {"n": 2, "rows": [[0, 1], [0, 0]]},
    "block4.json": {"n": 4, "rows": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]},
    "chain4.json": {"n": 4, "rows": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]},
}
RELATIONS = {
    "x2_i.json": {"g": [0, 0, 1], "h": [1]},
    "x2_x.json": {"g": [0, 0, 1], "h": [0, 1]},
    "x2_4i.json": {"g": [0, 0, 1], "h": [4]},
    "x3_x.json": {"g": [0, 0, 0, 1], "h": [0, 1]},
    "x2_x2i.json": {"g": [0, 0, 1], "h": [2, 1]},
}
SUBSETS = {
    "s2_1.json": {"n": 2, "members": [1]},
    "s2_empty.json": {"n": 2, "members": []},
    "s4_12.json": {"n": 4, "members": [1, 2]},
    "s3_3.json": {"n": 3, "members": [3]},
}
BROKEN = {
    "bad.json": "{not json",
    "trailing.json": '{"n": 1, "rows": [[1]]} junk',
    "wrongtype.json": {"n": "two", "rows": 5},
    "negative.json": {"n": 1, "rows": [[-1]]},
    "boolean.json": {"n": True, "rows": [[True]]},
    "ragged.json": {"n": 2, "rows": [[1, 0], [0]]},
    "list.json": [1, 2, 3],
    "relstr.json": {"g": "x^2", "h": [1]},
    "releq.json": {"g": [1], "h": [1]},
    "subset_out.json": {"n": 2, "members": [5]},
    "subset_dup.json": {"n": 2, "members": [1, 1]},
}
ALL_FILES = sorted({**MATRICES, **RELATIONS, **SUBSETS, **BROKEN}) + ["missing.json"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, doc in {**MATRICES, **RELATIONS, **SUBSETS, **BROKEN}.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (root / name).write_text(text)
    return root


def mostly(valid, invalid):
    """Four draws in five from `valid`, the rest from `invalid`."""
    return st.integers(0, 4).flatmap(lambda i: invalid if i == 0 else valid)


def files(pool):
    """Mostly a file of the right kind, else any file or a missing one."""
    return mostly(st.sampled_from(sorted(pool)), st.sampled_from(ALL_FILES))


def numbers(*valid):
    return mostly(
        st.sampled_from([str(v) for v in valid]),
        st.sampled_from(["0", "-1", "abc", "1.5", ""]),
    )


REQUIRED, OPTIONAL = 9, 4  # chance in ten that a flag is given
MATRIX = ("--matrix", files(MATRICES), REQUIRED)
SUBSET = ("--subset", files(SUBSETS), REQUIRED)
RELATION = ("--relation", files(RELATIONS), REQUIRED)
VERIFY = ("--verify-relation", files(RELATIONS), OPTIONAL)
FLAG = st.just(None)


def _search(jobs):
    flags = [
        RELATION,
        ("--n", numbers(1, 2), REQUIRED),
        ("--bound", numbers(0, 1, 2), OPTIONAL),
        ("--symmetric", FLAG, OPTIONAL),
        ("--up-to-iso", FLAG, OPTIONAL),
        ("--limit", numbers(1, 2, 3), OPTIONAL),
    ]
    if jobs:
        flags.append(("--jobs", numbers(1, 2, 64, 2 ** 63, "1" + "0" * 5000), OPTIONAL))
    return flags


def _exponents(*flags):
    return [MATRIX] + [(flag, numbers(*valid), REQUIRED) for flag, valid in flags]


COMMANDS = {
    ("solve",): _search(jobs=True),
    ("oracle",): _search(jobs=False),
    ("decompose",): _exponents(("--k", (0, 1, 4))),
    ("sqrt-classify",): _exponents(("--k", (0, 1, 4))),
    ("canon",): [MATRIX],
    ("classify", "idempotent"): [MATRIX],
    ("classify", "commuting"): [MATRIX, MATRIX],
    ("classify", "nilpotent"): _exponents(("--k", (1, 2, 4))),
    ("classify", "cyclic"): _exponents(("--k", (2, 3, 4)), ("--m", (1, 2))),
    ("classify", "root"): _exponents(("--exp", (1, 2, 4))),
    ("restrict", "invariant"): [MATRIX, SUBSET],
    ("restrict", "subsets"): [MATRIX],
    ("restrict", "serre"): [MATRIX, SUBSET],
    ("restrict", "quotient"): [MATRIX, SUBSET],
    ("restrict", "preserves-add"): [MATRIX, SUBSET],
    ("restrict", "descend"): [MATRIX, SUBSET, RELATION],
    ("cartan",): [
        ("--cartan", files(MATRICES), REQUIRED),
        ("--functor", files(MATRICES), REQUIRED),
        ("--functor", files(MATRICES), OPTIONAL),
    ],
    ("construct", "dsum"): [MATRIX, MATRIX, (*MATRIX[:2], OPTIONAL), VERIFY],
    ("construct", "tensor"): [MATRIX, ("--b", numbers(1, 2, 4), REQUIRED), VERIFY],
    ("construct", "scale"): [MATRIX, ("--k", numbers(0, 2, 3), REQUIRED), VERIFY],
}
COMMON = [
    ("--format", mostly(st.sampled_from(["json", "csv", "table"]), st.just("xml")), OPTIONAL),
    ("--out", mostly(st.just("out.json"), st.just(os.path.join("nodir", "out.json"))), 2),
    ("--seed", numbers(1, 7), 2),
]
JUNK = st.sampled_from(["--bogus", "extra", "--n", "-x", "--matrix"])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    if len(command) == 2 and draw(st.integers(0, 19)) == 0:
        command = command[:1]  # a group without its subcommand
    argv = list(command)
    for flag, values, chance in COMMANDS.get(command, []) + COMMON:
        if draw(st.integers(0, 9)) < chance:
            argv.append(flag)
            value = draw(values)
            if value is not None:
                argv.append(value)
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return argv


def _one_json(text):
    doc = json.loads(text)
    assert isinstance(doc, dict)
    return doc


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_cli_fuzz(workdir, argv):
    out_file = workdir / "out.json"
    if out_file.exists():
        out_file.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in out + err, argv
    if code in (2, 3):
        assert "error" in _one_json(err), argv
        assert out == "", argv
    elif code == 1 and err:
        # a negative verdict raised as an error (not symmetric, not a root, ...)
        assert "error" in _one_json(err), argv
        assert out == "", argv
    elif "--format" not in argv or argv[argv.index("--format") + 1] == "json":
        if "--out" in argv:
            assert out == "", argv
            _one_json(out_file.read_text())
        else:
            _one_json(out)


# matrices whose powers stay bounded: every entry of every power is 0 or 1
BOUNDED_POWERS = {
    "zero3.json": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    "partial_involution3.json": [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    "diagonal_projection3.json": [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
    "cycle3.json": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    "cycle2_plus_fixed.json": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
}
HUGE = st.one_of(st.integers(1, 2 ** 1000),
                 st.sampled_from([1, 255, 256, 2 ** 64 - 1, 2 ** 64 + 1, 2 ** 1000]))
CPU_SECONDS = 20


def _cpu_limit():
    # runs in the child between fork and exec, so only the child is limited
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


@pytest.fixture(scope="module")
def bounded_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("huge")
    for name, rows in BOUNDED_POWERS.items():
        (root / name).write_text(json.dumps({"n": len(rows), "rows": rows}))
    return root


@st.composite
def huge_power_argvs(draw):
    matrix = draw(st.sampled_from(sorted(BOUNDED_POWERS)))
    kind = draw(st.sampled_from(["nilpotent", "cyclic", "root"]))
    argv = ["classify", kind, "--matrix", matrix]
    if kind == "cyclic":
        k, m = sorted([draw(HUGE), draw(HUGE)], reverse=draw(st.booleans()))
        return argv + ["--k", str(k), "--m", str(m)]
    return argv + ["--exp" if kind == "root" else "--k", str(draw(HUGE))]


# Huge exponents on matrices whose powers grow (say [[1, 1], [1, 1]] with
# --k 2^53 + 1) still run without bound; that stays an open item.  Here the
# powers stay 0/1, so only the exponent is huge.
@settings(max_examples=30, deadline=None)
@given(argv=huge_power_argvs())
def test_huge_exponents_on_bounded_powers(bounded_dir, argv):
    args = [str(bounded_dir / a) if a in BOUNDED_POWERS else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "functorlab.cli", *args],
                          capture_output=True, text=True, preexec_fn=_cpu_limit)
    assert proc.returncode in (0, 1, 2, 3), argv
    assert "Traceback" not in proc.stdout + proc.stderr, argv
    _one_json(proc.stdout if proc.returncode == 0 or not proc.stderr else proc.stderr)


# A bound past 2^63 - 1 is a valid input.  The search walks that many values
# of the one entry with one pending node at a time, so its memory stays
# flat, but nothing yet bounds its time.
def _cpu_and_memory_limits():
    resource.setrlimit(resource.RLIMIT_CPU, (3, 3))
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2 ** 20, 512 * 2 ** 20))


@pytest.fixture(scope="module")
def huge_bound_run(tmp_path_factory):
    rel = tmp_path_factory.mktemp("bound") / "x2_i.json"
    rel.write_text(json.dumps(RELATIONS["x2_i.json"]))
    return subprocess.run(
        [sys.executable, "-m", "functorlab.cli", "solve", "--relation", str(rel),
         "--n", "1", "--bound", str(2 ** 63)],
        capture_output=True, text=True, preexec_fn=_cpu_and_memory_limits)


def test_huge_bound_search_runs_in_flat_memory(huge_bound_run):
    # it ends by itself or by the CPU limit, never by running out of memory
    # and never as an internal fault
    proc = huge_bound_run
    assert proc.returncode in (0, 1, 2, 3, -signal.SIGXCPU, -signal.SIGKILL)
    assert "MemoryError" not in proc.stdout + proc.stderr
    assert "internal_fault" not in proc.stderr


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: solve has no node budget, so a "
                   "bound past 2^63 runs until the CPU limit stops it")
def test_huge_bound_search_ends_in_one_json_document(huge_bound_run):
    proc = huge_bound_run
    assert proc.returncode in (0, 1, 2, 3)
    assert "Traceback" not in proc.stdout + proc.stderr
    _one_json(proc.stdout if proc.returncode == 0 or not proc.stderr else proc.stderr)
