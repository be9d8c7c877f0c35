"""Golden CLI transcript: fixed queries, byte-identical exit code and output.

Each query runs in process from a fresh working directory holding the input
files below, under relative names, so no absolute path enters a transcript.
The expected exit code, stdout, stderr and (with --out) file text of every
query are stored in golden_cli.json.  No query involves a usage error, and
only the `classify root` query with exponent 2^64 + 1 involves an integer
above 2^53 - 1.  The `--help` text of the top level, the three
command groups and all 20 subcommands is stored in golden_help.json, printed
at COLUMNS=80 so that the terminal width cannot change it.  Regenerate both
data files with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff: any change to them is a change of the CLI's bytes.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from functorlab.cli import main

DATA = pathlib.Path(__file__).with_name("golden_cli.json")
HELP_DATA = pathlib.Path(__file__).with_name("golden_help.json")

INPUTS = {
    "x2_4i.json": {"g": [0, 0, 1], "h": [4]},
    "x2_2i.json": {"g": [0, 0, 1], "h": [2]},
    "x2_i.json": {"g": [0, 0, 1], "h": [1]},
    "x2_x.json": {"g": [0, 0, 1], "h": [0, 1]},
    "x3_x.json": {"g": [0, 0, 0, 1], "h": [0, 1]},
    "x3_x2.json": {"g": [0, 0, 0, 1], "h": [0, 0, 1]},
    "x4_4i.json": {"g": [0, 0, 0, 0, 1], "h": [4]},
    "x2_x_2i.json": {"g": [0, 1, 1], "h": [2]},
    "x2_x_padded.json": {"g": [0, 1, 1], "h": [0, 2]},
    "c2_c3.json": {"g": [2], "h": [3]},
    "swap.json": {"n": 2, "rows": [[0, 1], [1, 0]]},
    "swap2.json": {"n": 2, "rows": [[0, 2], [2, 0]]},
    "upper.json": {"n": 2, "rows": [[0, 1], [0, 0]]},
    "ident2.json": {"n": 2, "rows": [[1, 0], [0, 1]]},
    "zero2.json": {"n": 2, "rows": [[0, 0], [0, 0]]},
    "ones2.json": {"n": 2, "rows": [[1, 1], [1, 1]]},
    "idem_a.json": {"n": 3, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]},
    "idem_b.json": {"n": 3, "rows": [[1, 0, 0], [0, 0, 0], [0, 0, 1]]},
    "root3.json": {"n": 3, "rows": [[0, 0, 4], [0, 2, 0], [1, 0, 0]]},
    "cycle3.json": {"n": 3, "rows": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]},
    "mixed3.json": {"n": 3, "rows": [[2, 1, 0], [0, 1, 0], [3, 0, 1]]},
    "tri3.json": {"n": 3, "rows": [[1, 0, 0], [0, 1, 0], [1, 1, 1]]},
    "diag2.json": {"n": 2, "rows": [[2, 0], [0, 1]]},
    "scalar2.json": {"n": 2, "rows": [[2, 0], [0, 2]]},
    "s3_12.json": {"n": 3, "members": [1, 2]},
    "s3_3.json": {"n": 3, "members": [3]},
    "s2_1.json": {"n": 2, "members": [1]},
    "c6.json": {"n": 6, "rows": [[0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 0, 0], [0, 1, 0, 0, 0, 1],
                                 [0, 1, 0, 0, 1, 0], [1, 0, 0, 1, 0, 0], [1, 0, 1, 0, 0, 0]]},
    "pairs6.json": {"n": 6, "rows": [[0, 1, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0], [0, 0, 0, 2, 0, 0],
                                    [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 2], [0, 0, 0, 0, 1, 0]]},
    "k33_loops.json": {"n": 6, "rows": [[0, 1, 1, 0, 0, 1], [1, 1, 0, 1, 1, 0],
                                       [1, 0, 1, 1, 1, 0], [0, 1, 1, 0, 0, 1],
                                       [0, 1, 1, 0, 0, 1], [1, 0, 0, 1, 1, 1]]},
    "q3.json": {"n": 8, "rows": [[0, 0, 0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 0, 0, 1, 1],
                                [0, 1, 0, 1, 1, 0, 0, 0], [0, 0, 1, 0, 0, 1, 1, 0],
                                [0, 0, 1, 0, 0, 1, 0, 1], [1, 0, 0, 1, 1, 0, 0, 0],
                                [1, 1, 0, 1, 0, 0, 0, 0], [1, 1, 0, 0, 1, 0, 0, 0]]},
    "pairs8.json": {"n": 8, "rows": [[0, 0, 0, 0, 0, 0, 0, 2], [0, 0, 0, 0, 0, 0, 2, 0],
                                    [0, 0, 0, 2, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0, 0, 0],
                                    [0, 0, 0, 0, 0, 2, 0, 0], [0, 0, 0, 0, 2, 0, 0, 0],
                                    [0, 2, 0, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0, 0, 0]]},
    "c8.json": {"n": 8, "rows": [[0, 0, 1, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 0, 1],
                                [1, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 0, 0],
                                [0, 0, 0, 1, 0, 0, 1, 0], [1, 0, 0, 1, 0, 0, 0, 0],
                                [0, 0, 0, 0, 1, 0, 0, 1], [0, 1, 0, 0, 0, 0, 1, 0]]},
    "scc4.json": {"n": 4, "rows": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 1, 2, 0], [0, 0, 0, 1]]},
    "ident4.json": {"n": 4, "rows": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    "ident21.json": {"n": 21, "rows": [[int(i == j) for j in range(21)] for i in range(21)]},
    "ident9.json": {"n": 9, "rows": [[int(i == j) for j in range(9)] for i in range(9)]},
    "scalar8.json": {"n": 8, "rows": [[3 * int(i == j) for j in range(8)] for i in range(8)]},
    "path8.json": {"n": 8, "rows": [[int(abs(i - j) == 1) for j in range(8)] for i in range(8)]},
    "proj8.json": {"n": 8, "rows": [[int(i == j == 0) for j in range(8)] for i in range(8)]},
    "scalar6.json": {"n": 6, "rows": [[2 * int(i == j) for j in range(6)] for i in range(6)]},
    "sym6.json": {"n": 6, "rows": [[1, 2, 1, 3, 2, 0], [2, 0, 0, 0, 0, 0], [1, 0, 2, 0, 1, 2],
                                  [3, 0, 0, 0, 0, 0], [2, 0, 1, 0, 0, 0], [0, 0, 2, 0, 0, 0]]},
    "order6.json": {"n": 5, "rows": [[0, 0, 1, 0, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                                     [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]]},
    "nil3.json": {"n": 3, "rows": [[0, 0, 0], [0, 0, 1], [0, 0, 0]]},
    "mix7.json": {"n": 7, "rows": [[0, 0, 0, 0, 0, 4, 0], [0, 2, 0, 0, 0, 0, 0],
                                  [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 2, 0, 0, 0],
                                  [0, 0, 4, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0],
                                  [0, 0, 0, 0, 0, 0, 2]]},
    "pinv5.json": {"n": 5, "rows": [[0, 0, 0, 1, 0], [0, 0, 0, 0, 0], [0, 0, 1, 0, 0],
                                    [1, 0, 0, 0, 0], [0, 0, 0, 0, 0]]},
    "primes2.json": {"n": 2, "rows": [[1000003, 0], [0, 1000033]]},
    "bad.json": "{not json",
    "negative.json": {"n": 1, "rows": [[-1]]},
}

QUERIES = [
    ["solve", "--relation", "x2_4i.json", "--n", "2", "--bound", "4", "--symmetric"],
    ["solve", "--relation", "x2_4i.json", "--n", "2", "--bound", "4", "--format", "csv"],
    ["solve", "--relation", "x2_4i.json", "--n", "2", "--symmetric", "--format", "table"],
    ["solve", "--relation", "x2_2i.json", "--n", "2", "--bound", "2", "--symmetric"],
    ["solve", "--relation", "x2_i.json", "--n", "3", "--symmetric", "--up-to-iso"],
    ["solve", "--relation", "x2_x.json", "--n", "2", "--bound", "1", "--limit", "2",
     "--jobs", "1"],
    ["solve", "--relation", "x3_x.json", "--n", "2"],
    ["solve", "--relation", "x2_i.json", "--n", "2", "--bound", "1", "--out", "sols.json"],
    ["oracle", "--relation", "x2_4i.json", "--n", "2", "--bound", "4"],
    ["oracle", "--relation", "x2_i.json", "--n", "5", "--bound", "3"],
    ["decompose", "--matrix", "root3.json", "--k", "4"],
    ["decompose", "--matrix", "ones2.json", "--k", "2"],
    ["sqrt-classify", "--matrix", "swap2.json", "--k", "4"],
    ["sqrt-classify", "--matrix", "upper.json", "--k", "0"],
    ["canon", "--matrix", "mixed3.json"],
    ["canon", "--matrix", "mixed3.json", "--format", "csv"],
    ["canon", "--matrix", "mixed3.json", "--format", "table"],
    ["canon", "--matrix", "mixed3.json", "--out", "canon.json"],
    ["canon", "--matrix", "bad.json"],
    ["canon", "--matrix", "missing.json"],
    ["canon", "--matrix", "negative.json"],
    ["classify", "idempotent", "--matrix", "idem_a.json"],
    ["classify", "idempotent", "--matrix", "swap.json"],
    ["classify", "commuting", "--matrix", "idem_a.json", "--matrix", "idem_b.json"],
    ["classify", "nilpotent", "--matrix", "zero2.json", "--k", "3"],
    ["classify", "nilpotent", "--matrix", "ones2.json", "--k", "3"],
    ["classify", "cyclic", "--matrix", "swap.json", "--k", "3", "--m", "1"],
    ["classify", "cyclic", "--matrix", "idem_a.json", "--k", "4", "--m", "1"],
    ["classify", "root", "--matrix", "cycle3.json", "--exp", "6"],
    ["classify", "root", "--matrix", "cycle3.json", "--exp", "2"],
    ["restrict", "invariant", "--matrix", "tri3.json", "--subset", "s3_12.json"],
    ["restrict", "invariant", "--matrix", "tri3.json", "--subset", "s3_3.json"],
    ["restrict", "subsets", "--matrix", "tri3.json"],
    ["restrict", "subsets", "--matrix", "tri3.json", "--format", "csv"],
    ["restrict", "serre", "--matrix", "tri3.json", "--subset", "s3_3.json"],
    ["restrict", "serre", "--matrix", "tri3.json", "--subset", "s3_12.json"],
    ["restrict", "quotient", "--matrix", "tri3.json", "--subset", "s3_3.json",
     "--format", "table"],
    ["restrict", "preserves-add", "--matrix", "tri3.json", "--subset", "s3_12.json"],
    ["restrict", "preserves-add", "--matrix", "tri3.json", "--subset", "s3_3.json"],
    ["restrict", "descend", "--matrix", "ident2.json", "--subset", "s2_1.json",
     "--relation", "x2_i.json"],
    ["cartan", "--cartan", "scalar2.json", "--functor", "swap.json", "--functor",
     "diag2.json"],
    ["cartan", "--cartan", "diag2.json", "--functor", "swap.json"],
    ["cartan", "--cartan", "scalar2.json", "--functor", "swap.json"],
    ["construct", "dsum", "--matrix", "swap2.json", "--matrix", "scalar2.json",
     "--verify-relation", "x2_4i.json"],
    ["construct", "dsum", "--matrix", "swap.json", "--matrix", "swap2.json",
     "--verify-relation", "x2_4i.json"],
    ["construct", "tensor", "--matrix", "swap.json", "--b", "2", "--format", "csv"],
    ["construct", "scale", "--matrix", "swap.json", "--k", "3", "--out", "scaled.json"],
    ["construct", "scale", "--matrix", "swap.json", "--k", "3", "--verify-relation",
     "x2_4i.json"],
    ["solve", "--relation", "x3_x2.json", "--n", "2", "--bound", "2"],
    ["solve", "--relation", "x2_x_2i.json", "--n", "2", "--bound", "2"],
    ["solve", "--relation", "c2_c3.json", "--n", "2", "--bound", "2"],
    ["canon", "--matrix", "c6.json"],
    ["canon", "--matrix", "pairs6.json"],
    ["canon", "--matrix", "k33_loops.json"],
    ["canon", "--matrix", "q3.json"],
    ["canon", "--matrix", "pairs8.json"],
    ["canon", "--matrix", "c8.json", "--format", "table"],
    ["solve", "--relation", "x3_x.json", "--n", "5", "--bound", "1", "--symmetric",
     "--up-to-iso"],
    ["restrict", "subsets", "--matrix", "scc4.json"],
    ["restrict", "subsets", "--matrix", "ident4.json"],
    ["restrict", "subsets", "--matrix", "ident4.json", "--format", "csv"],
    ["restrict", "subsets", "--matrix", "ident21.json"],
    ["canon", "--matrix", "ident9.json"],
    ["solve", "--relation", "x3_x.json", "--n", "7", "--bound", "1", "--symmetric",
     "--up-to-iso"],
    ["solve", "--relation", "x2_4i.json", "--n", "4", "--bound", "4", "--up-to-iso"],
    ["cartan", "--cartan", "scalar8.json", "--functor", "path8.json", "--functor",
     "proj8.json"],
    ["cartan", "--cartan", "scalar6.json", "--functor", "sym6.json"],
    ["classify", "root", "--matrix", "order6.json", "--exp", "18446744073709551617"],
    ["decompose", "--matrix", "nil3.json", "--k", "0"],
    ["decompose", "--matrix", "zero2.json", "--k", "0"],
    ["decompose", "--matrix", "mix7.json", "--k", "4"],
    ["sqrt-classify", "--matrix", "zero2.json", "--k", "0"],
    ["classify", "cyclic", "--matrix", "pinv5.json", "--k", "5", "--m", "3"],
    ["solve", "--relation", "x4_4i.json", "--n", "2", "--bound", "3"],
    ["solve", "--relation", "x2_x_padded.json", "--n", "2", "--symmetric"],
    ["solve", "--relation", "x3_x.json", "--n", "3", "--symmetric", "--up-to-iso"],
    ["cartan", "--cartan", "ident2.json", "--functor", "primes2.json"],
]

SUBCOMMANDS = [
    ["solve"], ["oracle"], ["decompose"], ["sqrt-classify"], ["canon"],
    ["classify", "idempotent"], ["classify", "commuting"], ["classify", "nilpotent"],
    ["classify", "cyclic"], ["classify", "root"],
    ["restrict", "invariant"], ["restrict", "subsets"], ["restrict", "serre"],
    ["restrict", "quotient"], ["restrict", "preserves-add"], ["restrict", "descend"],
    ["cartan"],
    ["construct", "dsum"], ["construct", "tensor"], ["construct", "scale"],
]

HELP_QUERIES = [
    path + ["--help"]
    for path in [[], ["classify"], ["restrict"], ["construct"]] + SUBCOMMANDS
]


def transcript(argv):
    """Run one query in a fresh directory; return its recorded result."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in INPUTS.items():
            text = doc if isinstance(doc, str) else json.dumps(doc)
            pathlib.Path(tmp, name).write_text(text, encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(list(argv))
            out_text = None
            if "--out" in argv:
                out_text = pathlib.Path(argv[argv.index("--out") + 1]).read_text(
                    encoding="utf-8"
                )
        finally:
            os.chdir(cwd)
    return {"argv": list(argv), "code": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "out": out_text}


def _golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_golden_covers_every_query():
    assert [entry["argv"] for entry in _golden()] == QUERIES
    codes = {entry["code"] for entry in _golden()}
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("index", range(len(QUERIES)))
def test_golden_transcript(index, monkeypatch):
    monkeypatch.delenv("FUNCTORLAB_CANON_CAP", raising=False)  # the default cap, 8
    assert transcript(QUERIES[index]) == _golden()[index]


def test_help_covers_every_subcommand():
    doc = json.loads(HELP_DATA.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in doc] == HELP_QUERIES
    assert len(SUBCOMMANDS) == 20


@pytest.mark.parametrize("index", range(len(HELP_QUERIES)))
def test_golden_help(index, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    doc = json.loads(HELP_DATA.read_text(encoding="utf-8"))
    assert transcript(HELP_QUERIES[index]) == doc[index]


if __name__ == "__main__":
    os.environ.pop("FUNCTORLAB_CANON_CAP", None)
    DATA.write_text(
        json.dumps([transcript(q) for q in QUERIES], indent=1) + "\n", encoding="utf-8"
    )
    os.environ["COLUMNS"] = "80"
    HELP_DATA.write_text(
        json.dumps([transcript(q) for q in HELP_QUERIES], indent=1) + "\n",
        encoding="utf-8",
    )
