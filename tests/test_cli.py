import contextlib
import io
import json
import subprocess
import sys

import pytest
from test_golden_cli import HELP_QUERIES, QUERIES

from functorlab import InternalFault, InvalidInput, NotInvariant, NotSymmetric, zmatrix
from functorlab import cli, jsonio
from functorlab.cli import _code_for, main

SWAP = {"n": 2, "rows": [[0, 1], [1, 0]]}
SWAP2 = {"n": 2, "rows": [[0, 2], [2, 0]]}
XSQ_EQ_4 = {"g": [0, 0, 1], "h": [4]}
XSQ_EQ_X = {"g": [0, 0, 1], "h": [0, 1]}


@pytest.fixture
def write(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        if isinstance(obj, str):
            path.write_text(obj)
        else:
            path.write_text(json.dumps(obj))
        return str(path)

    return _write


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_solve_affirmative(write, capsys):
    rel = write("rel.json", XSQ_EQ_4)
    rc, out, err = run(
        capsys, "solve", "--relation", rel, "--n", "2", "--bound", "4", "--symmetric"
    )
    assert rc == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["count"] == 2
    assert [m["rows"] for m in doc["solutions"]] == [
        [[0, 2], [2, 0]],
        [[2, 0], [0, 2]],
    ]


def test_solve_derived_bound(write, capsys):
    rel = write("rel.json", XSQ_EQ_4)
    explicit = run(
        capsys, "solve", "--relation", rel, "--n", "2", "--bound", "4", "--symmetric"
    )
    derived = run(capsys, "solve", "--relation", rel, "--n", "2", "--symmetric")
    assert derived[0] == 0
    assert json.loads(derived[1])["solutions"] == json.loads(explicit[1])["solutions"]

    underivable = write("hard.json", {"g": [0, 1, 0, 1], "h": [0, 0, 2]})
    rc, out, err = run(capsys, "solve", "--relation", underivable, "--n", "2")
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "invalid_input"


def test_solve_no_solutions_exit1(write, capsys):
    rel = write("rel.json", {"g": [0, 0, 1], "h": [2]})
    rc, out, err = run(
        capsys, "solve", "--relation", rel, "--n", "2", "--bound", "2", "--symmetric"
    )
    assert rc == 1
    assert json.loads(out)["count"] == 0


def test_oracle_matches_solve(write, capsys):
    rel = write("rel.json", XSQ_EQ_4)
    a = run(capsys, "solve", "--relation", rel, "--n", "2", "--bound", "4")
    b = run(capsys, "oracle", "--relation", rel, "--n", "2", "--bound", "4")
    assert a[0] == b[0] == 0
    assert a[1] == b[1]


def test_solve_jobs_byte_identical(write, capsys):
    rel = write("rel.json", XSQ_EQ_4)
    base = ["solve", "--relation", rel, "--n", "2", "--bound", "4", "--symmetric"]
    one = run(capsys, *base, "--jobs", "1")
    four = run(capsys, *base, "--jobs", "4")
    again = run(capsys, *base, "--jobs", "4")
    assert one[1] == four[1] == again[1]


def test_sqrt_classify_negative(write, capsys):
    bad = write("m.json", {"n": 2, "rows": [[0, 1], [2, 0]]})
    rc, out, err = run(capsys, "sqrt-classify", "--matrix", bad, "--k", "2")
    assert rc == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] in ("not_symmetric", "k_not_perfect_square")
    assert "message" in doc


def test_sqrt_classify_affirmative(write, capsys):
    m = write("m.json", SWAP2)
    rc, out, err = run(capsys, "sqrt-classify", "--matrix", m, "--k", "4")
    assert rc == 0
    assert json.loads(out) == {"kind": "sqrt", "root": 2, "involution": [2, 1]}


def test_malformed_json_exit2(write, capsys):
    garbage = write("garbage.json", "{this is not json")
    rc, out, err = run(capsys, "decompose", "--matrix", garbage, "--k", "4")
    assert rc == 2
    assert json.loads(err)["error"] == "invalid_input"


def test_missing_file_exit2(tmp_path, capsys):
    rc, out, err = run(
        capsys, "decompose", "--matrix", str(tmp_path / "nope.json"), "--k", "4"
    )
    assert rc == 2
    assert json.loads(err)["error"] == "invalid_input"


def test_decompose_golden(write, capsys):
    m = write("m.json", {"n": 3, "rows": [[0, 0, 1], [0, 2, 0], [4, 0, 0]]})
    rc, out, err = run(capsys, "decompose", "--matrix", m, "--k", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["k"] == 4
    assert sorted(b["type"] for b in doc["blocks"]) == ["b1", "b2"]


def test_canon(write, capsys):
    m = write("m.json", {"n": 2, "rows": [[2, 0], [0, 1]]})
    rc, out, err = run(capsys, "canon", "--matrix", m)
    assert rc == 0
    assert json.loads(out)["rows"] == [[1, 0], [0, 2]]


def test_classify_subcommands(write, capsys):
    proj = write("proj.json", {"n": 2, "rows": [[1, 0], [0, 0]]})
    ident = write("ident.json", {"n": 2, "rows": [[1, 0], [0, 1]]})
    zero = write("zero.json", {"n": 2, "rows": [[0, 0], [0, 0]]})
    swap = write("swap.json", SWAP)

    rc, out, _ = run(capsys, "classify", "idempotent", "--matrix", proj)
    assert rc == 0
    assert json.loads(out) == {"kind": "idempotent", "n": 2, "support": [1]}

    rc, out, _ = run(
        capsys, "classify", "commuting", "--matrix", proj, "--matrix", ident
    )
    assert rc == 0
    assert json.loads(out)["both"] == [1]

    # the count is checked before any file is read
    for matrices in ([proj], [proj, ident, "missing.json"]):
        argv = ["classify", "commuting"]
        for path in matrices:
            argv += ["--matrix", path]
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert json.loads(err) == {
            "error": "invalid_input",
            "message": "classify commuting needs exactly two --matrix files",
        }

    rc, out, _ = run(capsys, "classify", "nilpotent", "--matrix", zero, "--k", "2")
    assert rc == 0
    assert json.loads(out) == {"kind": "zero"}

    rc, out, _ = run(capsys, "classify", "nilpotent", "--matrix", proj, "--k", "2")
    assert rc == 1
    assert json.loads(out)["kind"] == "not_nilpotent"

    rc, out, _ = run(
        capsys, "classify", "cyclic", "--matrix", swap, "--k", "3", "--m", "1"
    )
    assert rc == 0
    assert json.loads(out)["kind"] == "partial_involution"

    rc, out, _ = run(capsys, "classify", "root", "--matrix", swap, "--exp", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["order"] == 2 and doc["selfadjoint"] is True


def test_restrict_subcommands(write, capsys):
    m = write("m.json", {"n": 3, "rows": [[1, 0, 0], [0, 0, 2], [0, 2, 0]]})
    s1 = write("s1.json", {"n": 3, "members": [1]})
    s2 = write("s2.json", {"n": 3, "members": [2]})
    rel = write("rel.json", XSQ_EQ_X)

    rc, out, _ = run(capsys, "restrict", "invariant", "--matrix", m, "--subset", s1)
    assert rc == 0 and json.loads(out) == {"invariant": True}
    rc, out, _ = run(capsys, "restrict", "invariant", "--matrix", m, "--subset", s2)
    assert rc == 1 and json.loads(out) == {"invariant": False}

    rc, out, _ = run(capsys, "restrict", "subsets", "--matrix", m)
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert [s["members"] for s in doc["subsets"]] == [[], [1], [2, 3], [1, 2, 3]]

    rc, out, _ = run(capsys, "restrict", "serre", "--matrix", m, "--subset", s1)
    assert rc == 0 and json.loads(out)["rows"] == [[1]]

    rc, out, _ = run(capsys, "restrict", "quotient", "--matrix", m, "--subset", s1)
    assert rc == 0 and json.loads(out)["rows"] == [[0, 2], [2, 0]]

    rc, out, _ = run(
        capsys, "restrict", "preserves-add", "--matrix", m, "--subset", s1
    )
    assert rc == 0 and json.loads(out) == {"preserves_add": True}

    ident = write("ident3.json", {"n": 3, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    s12 = write("s12.json", {"n": 3, "members": [1, 2]})
    rc, out, _ = run(
        capsys,
        "restrict",
        "descend",
        "--matrix",
        ident,
        "--subset",
        s12,
        "--relation",
        rel,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["serre"]["rows"] == [[1, 0], [0, 1]]
    assert doc["quotient"]["rows"] == [[1]]

    swap = write("swap.json", SWAP)
    sub1of2 = write("sub1of2.json", {"n": 2, "members": [1]})
    rc, out, err = run(
        capsys, "restrict", "serre", "--matrix", swap, "--subset", sub1of2
    )
    assert rc == 1
    assert json.loads(err)["error"] == "not_invariant"


def test_cartan_subcommand(write, capsys):
    c2 = write("c2.json", {"n": 2, "rows": [[2, 0], [0, 2]]})
    cbad = write("cbad.json", {"n": 2, "rows": [[2, 0], [0, 1]]})
    swap = write("swap.json", SWAP)
    proj = write("proj.json", {"n": 2, "rows": [[1, 0], [0, 0]]})

    rc, out, _ = run(
        capsys, "cartan", "--cartan", c2, "--functor", swap, "--functor", proj
    )
    assert rc == 0
    assert json.loads(out) == {"verdict": "pass", "scale": 2}

    rc, out, _ = run(capsys, "cartan", "--cartan", cbad, "--functor", swap)
    assert rc == 1
    assert json.loads(out)["verdict"] == "fail_commutation"

    rc, out, _ = run(capsys, "cartan", "--cartan", c2, "--functor", swap)
    assert rc == 1
    assert json.loads(out)["verdict"] == "reducible"


def test_cartan_large_entries_answer_without_traceback(write):
    # integer eigenvalues near 10^10 lie beyond the trial-divisor scan; the
    # checker must still answer, soundly, instead of scanning for minutes
    big = 10 ** 10
    functor = write("f.json", {"n": 2, "rows": [[big, 0], [0, big + 1]]})
    eye = write("eye.json", {"n": 2, "rows": [[1, 0], [0, 1]]})
    proc = subprocess.run(
        [sys.executable, "-m", "functorlab.cli", "cartan", "--cartan", eye,
         "--functor", functor],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["verdict"] in ("reducible", "inconclusive")
    if doc["verdict"] == "reducible":
        assert doc["eigenvalue"] in (big, big + 1)


def test_construct_tensor(write, capsys):
    swap = write("swap.json", SWAP)
    rc, out, _ = run(capsys, "construct", "tensor", "--matrix", swap, "--b", "2")
    assert rc == 0
    assert json.loads(out)["rows"] == [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]


@pytest.mark.parametrize("flags, cap", [((), 30), (("--symmetric",), 41)])
def test_oracle_refuses_dimensions_past_the_solve_cap(write, capsys, flags, cap):
    # bound 0 is a one-candidate space, so only the dimension cap can refuse
    rel = write("rel.json", {"g": [0, 0, 1], "h": [0, 1]})
    argv = ["oracle", "--relation", rel, "--bound", "0", *flags]
    rc, out, _ = run(capsys, *argv, "--n", str(cap))
    assert rc == 0 and json.loads(out)["count"] == 1
    rc, out, err = run(capsys, *argv, "--n", str(cap + 1))
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": "dimension_too_large",
        "message": "oracle cross-checks solve and shares its dimension cap; "
                   f"n={cap + 1} exceeds cap {cap}",
        "details": {"n": cap + 1, "cap": cap},
    }


def test_construct_tensor_refuses_huge_b(write, capsys):
    swap = write("swap.json", SWAP)
    rc, out, err = run(capsys, "construct", "tensor", "--matrix", swap, "--b", str(10**18))
    assert (rc, out) == (2, "")
    n = 2 * 10**18
    assert json.loads(err) == {
        "error": "dimension_too_large",
        "message": f"tensor product dimension n*b is capped; n={n} exceeds cap 1024",
        "details": {"n": str(n), "cap": 1024},
        "bigints": True,
    }


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("flags, cap", [((), 30), (("--symmetric",), 41)])
def test_solve_refuses_fills_deeper_than_the_cap(write, capsys, jobs, flags, cap):
    # X = 0: the search walks the all-zero path and cuts every other branch
    rel = write("rel.json", {"g": [0, 1], "h": []})
    argv = ["solve", "--relation", rel, "--bound", "1", "--jobs", jobs, *flags]
    rc, out, _ = run(capsys, *argv, "--n", str(cap))
    assert rc == 0 and json.loads(out)["count"] == 1
    rc, out, err = run(capsys, *argv, "--n", str(cap + 1))
    assert (rc, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "dimension_too_large"
    assert doc["details"] == {"n": cap + 1, "cap": cap}


def test_construct_scale_zero(write, capsys):
    m = write("m.json", SWAP2)
    rc, out, _ = run(capsys, "construct", "scale", "--matrix", m, "--k", "0")
    assert rc == 0
    assert json.loads(out)["rows"] == [[0, 0], [0, 0]]


def test_construct_dsum_verified(write, capsys):
    a = write("a.json", SWAP2)
    b = write("b.json", {"n": 1, "rows": [[2]]})
    rel = write("rel.json", XSQ_EQ_4)
    rc, out, _ = run(
        capsys,
        "construct",
        "dsum",
        "--matrix",
        a,
        "--matrix",
        b,
        "--verify-relation",
        rel,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["matrix"]["rows"] == [[0, 2, 0], [2, 0, 0], [0, 0, 2]]
    assert doc["verify"]["inputs_satisfy"] == [True, True]
    assert doc["verify"]["output_satisfies"] is True

    bad = write("bad.json", {"n": 1, "rows": [[3]]})
    rc, out, _ = run(
        capsys,
        "construct",
        "dsum",
        "--matrix",
        a,
        "--matrix",
        bad,
        "--verify-relation",
        rel,
    )
    assert rc == 1
    assert json.loads(out)["verify"]["inputs_satisfy"] == [True, False]


def test_construct_scale_verify_exit_codes(write, capsys):
    m = write("m.json", SWAP2)
    rel = write("rel.json", XSQ_EQ_4)
    rc, out, _ = run(
        capsys,
        "construct",
        "scale",
        "--matrix",
        m,
        "--k",
        "1",
        "--verify-relation",
        rel,
    )
    assert rc == 0
    rc, out, _ = run(
        capsys,
        "construct",
        "scale",
        "--matrix",
        m,
        "--k",
        "3",
        "--verify-relation",
        rel,
    )
    assert rc == 1


def test_csv_and_table_formats(write, capsys):
    m = write("m.json", SWAP2)
    rc, out, _ = run(capsys, "canon", "--matrix", m, "--format", "csv")
    assert rc == 0
    assert out == "0,2\n2,0\n"
    rc, out, _ = run(capsys, "canon", "--matrix", m, "--format", "table")
    assert rc == 0
    assert out == "0 2\n2 0\n"

    rel = write("rel.json", XSQ_EQ_4)
    rc, out, _ = run(
        capsys,
        "solve",
        "--relation",
        rel,
        "--n",
        "2",
        "--bound",
        "4",
        "--symmetric",
        "--format",
        "csv",
    )
    assert rc == 0
    assert out.splitlines()[0] == "m_1_1,m_1_2,m_2_1,m_2_2"
    assert out.splitlines()[1:] == ["0,2,2,0", "2,0,0,2"]

    # csv makes no sense for non-matrix reports
    swap = write("swap.json", SWAP)
    sub = write("sub.json", {"n": 2, "members": [1, 2]})
    rc, out, err = run(
        capsys,
        "restrict",
        "invariant",
        "--matrix",
        swap,
        "--subset",
        sub,
        "--format",
        "csv",
    )
    assert rc == 2


def test_out_file(write, tmp_path, capsys):
    m = write("m.json", SWAP2)
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "canon", "--matrix", m, "--out", str(target))
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["rows"] == [[0, 2], [2, 0]]


def test_seed_flag_accepted(write, capsys):
    m = write("m.json", SWAP2)
    rc, out, _ = run(capsys, "canon", "--matrix", m, "--seed", "7")
    assert rc == 0


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["solve"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_code_mapping():
    assert _code_for(InternalFault("x")) == 3
    assert _code_for(InvalidInput("x")) == 2
    assert _code_for(NotSymmetric("x")) == 1
    assert _code_for(NotInvariant("x")) == 1


def test_module_entrypoint(tmp_path):
    m = tmp_path / "m.json"
    m.write_text(json.dumps(SWAP2))
    proc = subprocess.run(
        [sys.executable, "-m", "functorlab.cli", "canon", "--matrix", str(m)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"] == [[0, 2], [2, 0]]
    assert proc.stderr == ""


def test_classify_root_high_exponent(write, capsys):
    # a 5-cycle and a 2-cycle on 7 letters: order 10 divides 500
    m = write("m.json", {"n": 7, "rows": [
        [0, 0, 0, 0, 1, 0, 0],
        [1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 1, 0],
    ]})
    rc, out, err = run(capsys, "classify", "root", "--matrix", m, "--exp", "500")
    assert rc == 0
    assert err == ""
    assert json.loads(out)["order"] == 10


def test_deeply_nested_input_is_invalid(tmp_path):
    m = tmp_path / "deep.json"
    m.write_text("[" * 200_000 + "]" * 200_000)
    proc = subprocess.run(
        [sys.executable, "-m", "functorlab.cli", "canon", "--matrix", str(m)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "invalid_input"
    assert "Traceback" not in proc.stderr


def test_unexpected_exception_is_internal_fault(write, capsys, monkeypatch):
    def boom(m):
        raise RuntimeError("boom")

    monkeypatch.setattr(zmatrix, "canonical_rep", boom)
    rc, out, err = run(capsys, "canon", "--matrix", write("m.json", SWAP2))
    assert rc == 3
    assert out == ""
    assert json.loads(err) == {
        "error": "internal_fault",
        "message": "RuntimeError: boom",
    }


USAGE_ERRORS = [
    [],
    ["solve", "--relation", "rel.json"],
    ["solve", "--relation", "rel.json", "--n", "abc"],
    ["canon", "--matrix", "m.json", "--format", "xml"],
    ["canon", "--matrix", "m.json", "--nope"],
    ["classify"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors_are_json(argv, capsys):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "usage:" not in err
    doc = json.loads(err)
    assert doc["error"] == "invalid_input"
    assert doc["message"]


def test_help_still_prints_help(capsys):
    rc, out, err = run(capsys, "solve", "--help")
    assert rc == 0
    assert out.startswith("usage: functorlab solve")
    assert err == ""


def _parsed(parser, argv):
    """(vars of the namespace, exit code, stdout, stderr) of parsing argv
    the way main does; the namespace is None when parsing stops."""
    out, err = io.StringIO(), io.StringIO()
    ns, code = None, 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
        except InvalidInput as exc:
            code = 2
            sys.stderr.write(jsonio.dumps(jsonio.error_to_obj(exc)))
    return ns, code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", QUERIES + USAGE_ERRORS + [["solve"]] + HELP_QUERIES)
def test_one_command_parser_parses_like_the_full_one(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli._build_parser(argv)
    commands = parser._subparsers._group_actions[0].choices
    matched = any(argv[:len(cmd.path)] == list(cmd.path) for cmd in cli._COMMANDS)
    assert len(commands) == (1 if matched else len({cmd.path[0] for cmd in cli._COMMANDS}))
    assert _parsed(parser, argv) == _parsed(cli._build_parser(), argv)


def test_main_parses_sys_argv_with_one_command(write, monkeypatch, capsys):
    m = write("m.json", SWAP2)
    argv = ["classify", "idempotent", "--matrix", m, "--nope"]
    proc = subprocess.run(
        [sys.executable, "-m", "functorlab.cli", *argv], capture_output=True, text=True
    )
    _, code, out, err = _parsed(cli._build_parser(), argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    built = []
    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv=(): built.append(argv) or real(argv))
    monkeypatch.setattr(sys, "argv", ["functorlab", *argv])
    assert main() == code
    assert built == [argv] and capsys.readouterr().err == err


BIG = (1 << 53) + 1


def _wire_doc(text):
    """Parse a CLI document and check the big-integer wire rule on it."""
    doc = json.loads(text)

    def walk(v, top):
        if isinstance(v, dict):
            assert top or "bigints" not in v
            for x in v.values():
                walk(x, False)
        elif isinstance(v, list):
            for x in v:
                walk(x, False)
        elif isinstance(v, int) and not isinstance(v, bool):
            assert abs(v) <= (1 << 53) - 1

    walk(doc, True)
    assert list(doc)[-1] == "bigints" and doc["bigints"] is True
    return doc


def test_bigint_sqrt_classify(write, capsys):
    m = write("m.json", {"n": 2, "rows": [[0, BIG], [BIG, 0]]})
    rc, out, _ = run(capsys, "sqrt-classify", "--matrix", m, "--k", str(BIG * BIG))
    assert rc == 0
    assert _wire_doc(out) == {
        "kind": "sqrt", "root": str(BIG), "involution": [2, 1], "bigints": True
    }


def test_bigint_nilpotent_power(write, capsys):
    m = write("m.json", {"n": 2, "rows": [[1, 0], [0, 1]]})
    rc, out, _ = run(capsys, "classify", "nilpotent", "--matrix", m, "--k", str(BIG))
    assert rc == 1
    assert _wire_doc(out) == {
        "kind": "not_nilpotent",
        "power": str(BIG),
        "position": [1, 1],
        "value": 1,
        "bigints": True,
    }


def test_bigint_solve_limit(write, capsys):
    rel = write("rel.json", {"g": [0, 0, 1], "h": [1]})
    rc, out, _ = run(
        capsys, "solve", "--relation", rel, "--n", "1", "--bound", "1", "--limit", str(BIG)
    )
    assert rc == 0
    assert _wire_doc(out) == {
        "relation": {"g": [0, 0, 1], "h": [1]},
        "config": {
            "n": 1, "bound": 1, "symmetric_only": False, "up_to_iso": False, "limit": str(BIG)
        },
        "count": 1,
        "complete": True,
        "solutions": [{"n": 1, "rows": [[1]]}],
        "bigints": True,
    }


def test_bigint_solve_relation_marker_on_top(write, capsys):
    rel = write("rel.json", {"g": [0, 0, 1], "h": [BIG]})
    rc, out, _ = run(capsys, "solve", "--relation", rel, "--n", "1", "--bound", "1")
    assert rc == 1
    assert _wire_doc(out) == {
        "relation": {"g": [0, 0, 1], "h": [str(BIG)]},
        "config": {
            "n": 1, "bound": 1, "symmetric_only": False, "up_to_iso": False, "limit": None
        },
        "count": 0,
        "complete": True,
        "solutions": [],
        "bigints": True,
    }


def test_bigint_oracle_error_details(write, capsys):
    rel = write("rel.json", {"g": [0, 0, 1], "h": [1]})
    rc, out, err = run(capsys, "oracle", "--relation", rel, "--n", "5", "--bound", "9")
    assert rc == 2
    assert out == ""
    doc = _wire_doc(err)
    assert doc["error"] == "search_space_too_large"
    assert int(doc["details"]["candidates"]) == 10**25


def test_bigint_descent_marker_on_top(write, capsys):
    m = write("m.json", {"n": 2, "rows": [[BIG, 0], [0, BIG]]})
    s = write("s.json", {"n": 2, "members": [1]})
    rel = write("rel.json", {"g": [0, 0, 1], "h": [0, BIG]})
    rc, out, _ = run(
        capsys, "restrict", "descend", "--matrix", m, "--subset", s, "--relation", rel
    )
    assert rc == 0
    corner = {"n": 1, "rows": [[str(BIG)]]}
    assert _wire_doc(out) == {
        "kind": "descent",
        "ambient_satisfied": True,
        "serre": corner,
        "quotient": corner,
        "bigints": True,
    }


def test_bigint_construct_verify_report(write, capsys):
    m = write("m.json", {"n": 1, "rows": [[BIG]]})
    rel = write("rel.json", {"g": [0, 0, 1], "h": [0, BIG]})
    rc, out, _ = run(
        capsys, "construct", "dsum", "--matrix", m, "--matrix", m, "--verify-relation", rel
    )
    assert rc == 0
    doc = _wire_doc(out)
    assert jsonio.matrix_from_obj(doc["matrix"]).entries == ((BIG, 0), (0, BIG))
    assert jsonio.relation_from_obj(doc["verify"]["relation"]).h == (0, BIG)
    assert doc["verify"]["output_satisfies"] is True


def test_each_document_is_wired_once(write, capsys, monkeypatch):
    m = write("m.json", {"n": 2, "rows": [[BIG, 0], [0, BIG]]})
    tri = write("tri.json", {"n": 3, "rows": [[1, 0, 0], [0, 1, 0], [1, 1, 1]]})
    rel = write("rel.json", {"g": [0, 0, 1], "h": [0, BIG]})
    x2_4 = write("x2_4.json", XSQ_EQ_4)
    eye = write("eye.json", {"n": 2, "rows": [[1, 0], [0, 1]]})
    calls = []
    wire = jsonio.wire
    monkeypatch.setattr(jsonio, "wire", lambda doc: calls.append(doc) or wire(doc))
    for argv, code in (
        (["restrict", "subsets", "--matrix", tri], 0),
        (["construct", "dsum", "--matrix", m, "--matrix", m, "--verify-relation", rel], 0),
        (["solve", "--relation", x2_4, "--n", "2", "--bound", "4"], 0),
        (["canon", "--matrix", m], 0),
        (["classify", "nilpotent", "--matrix", eye, "--k", str(BIG)], 1),
        (["canon", "--matrix", write("bad.json", "{not json")], 2),
    ):
        calls.clear()
        assert run(capsys, *argv)[0] == code
        assert len(calls) == 1, argv


# -- cold start: each subcommand loads only its own layer ---------------------

_CLI_CORE = {"functorlab.cli", "functorlab.errors", "functorlab.jsonio", "functorlab.zmatrix"}
_POOL_MODULES = {"concurrent.futures.process", "multiprocessing"}
# what a frozen dataclass would cost every call to import
_RECORD_MODULES = {"dataclasses", "inspect"}


def _modules_after(*statements):
    """sorted(sys.modules) of a fresh interpreter after running `statements`."""
    script = "\n".join(
        ("import contextlib, io, json, sys",)
        + statements
        + ("print(json.dumps(sorted(sys.modules)))",)
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_bare_import_loads_no_submodule():
    loaded = _modules_after("import functorlab")
    assert {name for name in loaded if name.startswith("functorlab.")} <= {"functorlab.errors"}
    assert not loaded & (_POOL_MODULES | _RECORD_MODULES)


def test_each_subcommand_loads_only_its_layer(write):
    m = write("m.json", SWAP2)
    eye = write("eye.json", {"n": 2, "rows": [[1, 0], [0, 1]]})
    rel = write("rel.json", XSQ_EQ_4)
    for argv, layer in (
        (["solve", "--relation", rel, "--n", "2", "--bound", "4", "--jobs", "1"], "solver"),
        (["oracle", "--relation", rel, "--n", "2", "--bound", "4"], "solver"),
        (["decompose", "--matrix", m, "--k", "4"], "canonical"),
        (["sqrt-classify", "--matrix", m, "--k", "4"], "canonical"),
        (["classify", "idempotent", "--matrix", eye], "classify"),
        (["restrict", "subsets", "--matrix", m], "restrict"),
        (["cartan", "--cartan", eye, "--functor", m], "restrict"),
        (["canon", "--matrix", m], None),
        (["construct", "dsum", "--matrix", m, "--matrix", eye], None),
    ):
        loaded = _modules_after(
            "from functorlab.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    main({argv!r})",
        )
        want = _CLI_CORE | ({f"functorlab.{layer}"} if layer else set())
        assert {name for name in loaded if name.startswith("functorlab.")} == want, argv
        assert not loaded & (_POOL_MODULES | _RECORD_MODULES), argv


@pytest.mark.parametrize("rel_obj, code", [(XSQ_EQ_4, 0), ({"g": [0, 0, 1], "h": [2]}, 1)])
def test_solve_jobs_fresh_interpreter(write, rel_obj, code):
    # the pool is imported lazily, so check --jobs 2 in a process that has
    # not loaded it before
    rel = write("rel.json", rel_obj)
    outs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "functorlab.cli", "solve", "--relation", rel,
             "--n", "2", "--bound", "4", "--symmetric", "--jobs", jobs],
            capture_output=True,
        )
        assert proc.returncode == code
        assert proc.stderr == b""
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["count"] == (2 if code == 0 else 0)
