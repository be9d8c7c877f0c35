"""Command-line front end.

Every subcommand reads JSON files, computes exactly, and writes a
deterministic report (JSON by default; --format csv/table for matrix-shaped
outputs).  Exit codes: 0 affirmative result, 1 negative verdict (no
solutions, not invariant, commutation failure, reducible, inconclusive),
2 malformed input (usage errors included) or over-cap request, 3 internal
fault (a state the theory excludes, or a bug).  Diagnostics go to standard
error as JSON error objects.

A process loads only the layer its subcommand runs: the module keeps
`jsonio`, `zmatrix` and `errors` at the top, and each handler imports its
own layer (`solver`, `canonical`, `classify` or `restrict`) when it runs.
"""

import argparse
import sys

from . import jsonio, zmatrix
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    FunctorLabError,
    InternalFault,
    InvalidInput,
    SearchSpaceTooLarge,
)


def _load(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {what} file {path}: {exc.strerror}") from None
    return jsonio.load_text(text, what)


def _load_matrix(path):
    return jsonio.matrix_from_obj(_load(path, "matrix"))


def _load_relation(path):
    return jsonio.relation_from_obj(_load(path, "relation"))


def _load_subset(path):
    return jsonio.subset_from_obj(_load(path, "subset"))


# -- output rendering --------------------------------------------------------

def _matrix_csv(m):
    return "\n".join(",".join(str(x) for x in row) for row in m.entries) + "\n"


def _solutions_csv(result):
    n = result.config.n
    header = ",".join(f"m_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    lines = [header]
    for m in result.solutions:
        lines.append(",".join(str(x) for row in m.entries for x in row))
    return "\n".join(lines) + "\n"


def _matrix_table(m):
    width = max(len(str(x)) for row in m.entries for x in row)
    return "\n".join(
        " ".join(str(x).rjust(width) for x in row) for row in m.entries
    ) + "\n"


def _solutions_table(result):
    head = f"# {result.count} solution(s), complete={str(result.complete).lower()}"
    chunks = [head]
    for m in result.solutions:
        chunks.append(_matrix_table(m).rstrip("\n"))
    return "\n\n".join(chunks) + "\n"


def _emit(ns, obj, csv_text=None, table_text=None):
    fmt = getattr(ns, "format", "json")
    if fmt == "json":
        text = jsonio.dumps(obj)
    else:
        text = csv_text if fmt == "csv" else table_text
        if text is None:
            raise InvalidInput(f"{fmt} output is only available for matrix-shaped results")
    out = getattr(ns, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_matrix(ns, m):
    _emit(ns, jsonio.matrix_to_obj(m), _matrix_csv(m), _matrix_table(m))


# -- subcommand handlers -----------------------------------------------------

def _cmd_solve(ns):
    from . import solver

    rel = _load_relation(ns.relation)
    bound = ns.bound
    if bound is None:
        bound = solver.derive_entry_bound(rel, symmetric_only=ns.symmetric)
        if bound is None:
            raise InvalidInput(
                "no provable entry bound for this relation; pass --bound"
            )
    config = solver.SearchConfig(
        n=ns.n,
        bound=bound,
        symmetric_only=ns.symmetric,
        up_to_iso=ns.up_to_iso,
        limit=ns.limit,
    )
    if ns.command == "solve":
        result = solver.solve(rel, config, jobs=ns.jobs)
    else:
        result = solver.brute_force_oracle(rel, config)
    _emit(
        ns,
        jsonio.solution_set_to_obj(result),
        _solutions_csv(result),
        _solutions_table(result),
    )
    return 0 if result.count else 1


def _cmd_decompose(ns):
    from . import canonical

    form = canonical.decompose(_load_matrix(ns.matrix), ns.k)
    _emit(ns, jsonio.block_form_to_obj(form))
    return 0


def _cmd_sqrt_classify(ns):
    from . import canonical

    cls = canonical.classify_selfadjoint_sqrt(_load_matrix(ns.matrix), ns.k)
    _emit(ns, jsonio.sqrt_to_obj(cls))
    return 0


def _cmd_canon(ns):
    _emit_matrix(ns, zmatrix.canonical_rep(_load_matrix(ns.matrix)))
    return 0


def _cmd_classify_idempotent(ns):
    from . import classify

    cls = classify.classify_idempotent(_load_matrix(ns.matrix))
    _emit(ns, jsonio.idempotent_to_obj(cls))
    return 0


def _cmd_classify_commuting(ns):
    from . import classify

    if len(ns.matrix) != 2:
        raise InvalidInput("classify commuting needs exactly two --matrix files")
    a, b = (_load_matrix(p) for p in ns.matrix)
    report = classify.check_commuting_idempotents(a, b)
    _emit(ns, jsonio.commuting_to_obj(report))
    return 0


def _cmd_classify_nilpotent(ns):
    from . import classify

    verdict = classify.check_nilpotent(_load_matrix(ns.matrix), ns.k)
    _emit(ns, jsonio.nilpotency_to_obj(verdict))
    return 0 if verdict.kind == "zero" else 1


def _cmd_classify_cyclic(ns):
    from . import classify

    cls = classify.classify_cyclic(_load_matrix(ns.matrix), ns.k, ns.m)
    _emit(ns, jsonio.cyclic_to_obj(cls))
    return 0


def _cmd_classify_root(ns):
    from . import classify

    cls = classify.classify_root_of_identity(_load_matrix(ns.matrix), ns.exp)
    _emit(ns, jsonio.root_to_obj(cls))
    return 0


def _cmd_restrict_invariant(ns):
    from . import restrict

    ok = restrict.is_invariant_subset(_load_matrix(ns.matrix), _load_subset(ns.subset))
    _emit(ns, {"invariant": ok})
    return 0 if ok else 1


def _cmd_restrict_subsets(ns):
    from . import restrict

    subsets = restrict.invariant_subsets(_load_matrix(ns.matrix))
    _emit(ns, jsonio.subsets_to_obj(subsets))
    return 0


def _cmd_restrict_serre(ns):
    from . import restrict

    _emit_matrix(
        ns, restrict.restrict_serre(_load_matrix(ns.matrix), _load_subset(ns.subset))
    )
    return 0


def _cmd_restrict_quotient(ns):
    from . import restrict

    _emit_matrix(
        ns, restrict.restrict_quotient(_load_matrix(ns.matrix), _load_subset(ns.subset))
    )
    return 0


def _cmd_restrict_preserves_add(ns):
    from . import restrict

    ok = restrict.preserves_add(_load_matrix(ns.matrix), _load_subset(ns.subset))
    _emit(ns, {"preserves_add": ok})
    return 0 if ok else 1


def _cmd_restrict_descend(ns):
    from . import restrict

    report = restrict.relation_descends(
        _load_matrix(ns.matrix), _load_subset(ns.subset), _load_relation(ns.relation)
    )
    _emit(ns, jsonio.descent_to_obj(report))
    return 0


def _cmd_cartan(ns):
    from . import restrict

    instance = restrict.CartanInstance(
        _load_matrix(ns.cartan), tuple(_load_matrix(p) for p in ns.functor)
    )
    verdict = restrict.cartan_check(instance)
    _emit(ns, jsonio.cartan_verdict_to_obj(verdict))
    if verdict.kind == "pass":
        return 0
    if verdict.kind == "inconsistent_input":
        return 3
    return 1


def _cmd_construct(ns):
    matrices = [_load_matrix(p) for p in ns.matrix]
    rel = _load_relation(ns.verify_relation) if ns.verify_relation else None
    if ns.subop == "dsum":
        if len(matrices) < 2:
            raise InvalidInput("construct dsum needs at least two --matrix files")
        out = matrices[0]
        for m in matrices[1:]:
            out = zmatrix.direct_sum(out, m)
    elif ns.subop == "tensor":
        if len(matrices) != 1:
            raise InvalidInput("construct tensor needs exactly one --matrix file")
        if ns.b is None:
            raise InvalidInput("construct tensor needs --b")
        out = zmatrix.external_tensor(matrices[0], ns.b)
    else:
        if len(matrices) != 1:
            raise InvalidInput("construct scale needs exactly one --matrix file")
        if ns.k is None:
            raise InvalidInput("construct scale needs --k")
        out = zmatrix.scalar_mul(ns.k, matrices[0])
    if rel is None:
        _emit_matrix(ns, out)
        return 0
    inputs_ok = [rel.satisfied_by(m) for m in matrices]
    output_ok = rel.satisfied_by(out)
    report = jsonio.verify_report_to_obj(out, rel, inputs_ok, output_ok)
    _emit(ns, report, _matrix_csv(out), _matrix_table(out))
    if ns.subop in ("dsum", "tensor"):
        if not all(inputs_ok):
            return 1
        if not output_ok:
            # direct sums and tensors provably preserve relations
            raise InternalFault(
                "inputs satisfy the relation but the constructed matrix does not"
            )
        return 0
    return 0 if output_ok else 1


# -- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports usage errors as InvalidInput, so they leave as JSON (exit 2);
    subparsers inherit the class."""

    def error(self, message):
        raise InvalidInput(message)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument(
        "--format",
        choices=("json", "csv", "table"),
        default="json",
        help="json (canonical), csv or table for matrix-shaped results",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="accepted for interface stability; no shipped subcommand is randomized",
    )

    parser = _Parser(
        prog="functorlab",
        description="Exact integer-matrix models of selfadjoint functors: "
        "solve polynomial relations, decompose square roots, classify "
        "symmetric solutions, restrict to invariant subsets.",
        epilog="The FUNCTORLAB_CANON_CAP environment variable overrides the "
        "dimension cap (default 8) on canon and --up-to-iso.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (
        ("solve", "search matrices satisfying g(X) = h(X)"),
        ("oracle", "same search by plain enumeration (cross-check)"),
    ):
        p = sub.add_parser(name, parents=[common], help=blurb)
        p.add_argument("--relation", required=True, help="relation JSON file")
        p.add_argument("--n", type=int, required=True, help="matrix dimension")
        p.add_argument(
            "--bound",
            type=int,
            default=None,
            help="entry bound; derived from the relation when provable",
        )
        p.add_argument(
            "--symmetric", action="store_true", help="search symmetric matrices only"
        )
        p.add_argument(
            "--up-to-iso",
            action="store_true",
            help="keep one representative per simultaneous relabeling orbit",
        )
        p.add_argument("--limit", type=int, default=None, help="emit at most this many")
        if name == "solve":
            p.add_argument(
                "--jobs", type=int, default=1, help="worker processes (default 1)"
            )
        p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "decompose", parents=[common], help="block form of a square root of k*I"
    )
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "sqrt-classify",
        parents=[common],
        help="write a symmetric square root of k*I as sqrt(k) times an involution",
    )
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_sqrt_classify)

    p = sub.add_parser(
        "canon", parents=[common], help="least relabeling of a matrix"
    )
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_canon)

    classify_p = sub.add_parser("classify", help="classify symmetric solutions")
    csub = classify_p.add_subparsers(dest="kind", required=True)

    p = csub.add_parser("idempotent", parents=[common], help="M^2 = M")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_classify_idempotent)

    p = csub.add_parser(
        "commuting", parents=[common], help="two idempotents and their index split"
    )
    p.add_argument("--matrix", action="append", required=True)
    p.set_defaults(func=_cmd_classify_commuting)

    p = csub.add_parser("nilpotent", parents=[common], help="M^k = 0")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_classify_nilpotent)

    p = csub.add_parser("cyclic", parents=[common], help="M^k = M^m")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_classify_cyclic)

    p = csub.add_parser("root", parents=[common], help="M^e = I")
    p.add_argument("--matrix", required=True)
    p.add_argument("--exp", type=int, required=True)
    p.set_defaults(func=_cmd_classify_root)

    restrict_p = sub.add_parser("restrict", help="invariant subsets and corners")
    rsub = restrict_p.add_subparsers(dest="kind", required=True)

    p = rsub.add_parser("invariant", parents=[common], help="is the subset invariant")
    p.add_argument("--matrix", required=True)
    p.add_argument("--subset", required=True)
    p.set_defaults(func=_cmd_restrict_invariant)

    p = rsub.add_parser("subsets", parents=[common], help="all invariant subsets")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_restrict_subsets)

    p = rsub.add_parser("serre", parents=[common], help="subset corner")
    p.add_argument("--matrix", required=True)
    p.add_argument("--subset", required=True)
    p.set_defaults(func=_cmd_restrict_serre)

    p = rsub.add_parser("quotient", parents=[common], help="complement corner of the transpose")
    p.add_argument("--matrix", required=True)
    p.add_argument("--subset", required=True)
    p.set_defaults(func=_cmd_restrict_quotient)

    p = rsub.add_parser(
        "preserves-add", parents=[common], help="does M keep the subset's projectives"
    )
    p.add_argument("--matrix", required=True)
    p.add_argument("--subset", required=True)
    p.set_defaults(func=_cmd_restrict_preserves_add)

    p = rsub.add_parser(
        "descend", parents=[common], help="push a satisfied relation to both corners"
    )
    p.add_argument("--matrix", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--relation", required=True)
    p.set_defaults(func=_cmd_restrict_descend)

    p = sub.add_parser(
        "cartan",
        parents=[common],
        help="certify a commuting symmetric family forces a scalar Cartan matrix",
    )
    p.add_argument("--cartan", required=True)
    p.add_argument("--functor", action="append", required=True)
    p.set_defaults(func=_cmd_cartan)

    construct_p = sub.add_parser("construct", help="build matrices from parts")
    ksub = construct_p.add_subparsers(dest="subop", required=True)
    for subop, blurb in (
        ("dsum", "direct sum of two or more matrices"),
        ("tensor", "Kronecker product with an identity of size b"),
        ("scale", "scalar multiple"),
    ):
        p = ksub.add_parser(subop, parents=[common], help=blurb)
        p.add_argument("--matrix", action="append", required=True)
        if subop == "tensor":
            p.add_argument("--b", type=int, default=None)
        if subop == "scale":
            p.add_argument("--k", type=int, default=None)
        p.add_argument(
            "--verify-relation",
            default=None,
            help="also check the relation on inputs and output",
        )
        p.set_defaults(func=_cmd_construct)

    return parser


def _code_for(err):
    if isinstance(err, InternalFault):
        return 3
    if isinstance(
        err, (InvalidInput, DimensionMismatch, DimensionTooLarge, SearchSpaceTooLarge)
    ):
        return 2
    return 1


def main(argv=None):
    try:
        try:
            ns = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # only --help exits the parser; usage errors raise InvalidInput
            return 0 if exc.code in (0, None) else 2
        return ns.func(ns)
    except FunctorLabError as err:
        sys.stderr.write(jsonio.dumps(jsonio.error_to_obj(err)))
        return _code_for(err)
    except OSError as err:
        sys.stderr.write(
            jsonio.dumps({"error": "io_error", "message": str(err)})
        )
        return 2
    except Exception as err:
        # a bug, not a verdict: report it under the same JSON contract
        fault = InternalFault(f"{type(err).__name__}: {err}")
        sys.stderr.write(jsonio.dumps(jsonio.error_to_obj(fault)))
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
