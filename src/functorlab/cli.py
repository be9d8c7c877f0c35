"""Command-line front end.

Every subcommand reads JSON files, computes exactly, and writes a
deterministic report (JSON by default; --format csv/table for matrix-shaped
outputs).  Exit codes: 0 affirmative result, 1 negative verdict (no
solutions, not invariant, commutation failure, reducible, inconclusive),
2 malformed input (usage errors included) or over-cap request, 3 internal
fault (a state the theory excludes, or a bug); an error raised on purpose
exits with its class's `exit_code` (errors.py).  Diagnostics go to standard
error as JSON error objects.

Each subcommand is declared once, as a `_Command` in `_COMMANDS`: its path
and help, its options in order (input files by kind, integer flags), the
layer function it calls, how the result is written and how it maps to the
exit code.  `_build_parser` builds the parser from these declarations, and
`_Command.run` loads the files, calls the function, writes the result and
returns the exit code.  Only `solve`/`oracle` and `construct`, whose work is
more than load, call, write, keep their own handlers.

A process loads only the layer its subcommand runs, and parses with only
that subcommand's parser: the module keeps `jsonio`, `zmatrix` and `errors`
at the top, and the runner imports the declared layer (`solver`,
`canonical`, `classify` or `restrict`) with `importlib` when it runs.
"""

import argparse
import collections
import importlib
import sys

from . import jsonio, zmatrix
from .errors import FunctorLabError, InternalFault, InvalidInput


def _load(path, kind):
    """Read one input file of `kind` (matrix, subset or relation)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {kind} file {path}: {exc.strerror}") from None
    return getattr(jsonio, f"{kind}_from_obj")(jsonio.load_text(text, kind))


# the input-file options, and the kind of file each one reads
_FILE_OPTIONS = {
    "matrix": "matrix",
    "subset": "subset",
    "relation": "relation",
    "cartan": "matrix",
    "functor": "matrix",
}


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


def _emit(ns, result, to_obj, to_csv=None, to_table=None):
    """Write result in the format asked for; only that format's renderer runs."""
    fmt = getattr(ns, "format", "json")
    render = {"json": lambda r: jsonio.dumps(to_obj(r)), "csv": to_csv, "table": to_table}[fmt]
    if render is None:
        raise InvalidInput(f"{fmt} output is only available for matrix-shaped results")
    text = render(result)
    out = getattr(ns, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_matrix(ns, m):
    _emit(ns, m, jsonio.matrix_to_obj, _matrix_csv, _matrix_table)


# -- the two handlers that do more than load, call, write --------------------

def _cmd_solve(ns):
    from . import solver

    rel = _load(ns.relation, "relation")
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
    _emit(ns, result, jsonio.solution_set_to_obj, _solutions_csv, _solutions_table)
    return 0 if result.count else 1


def _cmd_construct(ns):
    matrices = [_load(p, "matrix") for p in ns.matrix]
    rel = _load(ns.verify_relation, "relation") if ns.verify_relation else None
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
    _emit(ns, out, lambda m: jsonio.verify_report_to_obj(m, rel, inputs_ok, output_ok),
          _matrix_csv, _matrix_table)
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


# -- subcommand declarations -------------------------------------------------

def _document(to_obj):
    """Writer of a JSON-only report built by a jsonio function."""
    return lambda ns, result: _emit(ns, result, to_obj)


def _flag_document(key):
    """Writer of a one-key bool document."""
    return lambda ns, ok: _emit(ns, ok, lambda value: {key: value})


def _truth_exit(ok):
    return 0 if ok else 1


_CARTAN_EXIT = {"pass": 0, "inconsistent_input": 3}


class _Command(collections.namedtuple(
    "_Command",
    "path blurb options call write code pair handler",
    defaults=(None, None, None, False, None),
)):
    """One subcommand: `_build_parser` makes its subparser, `run` executes it.

    `options` are (flag, argparse settings) pairs in order.  A file option,
    named in `_FILE_OPTIONS`, is loaded by its kind's reader, and a repeated
    one (action="append") gives a tuple of its files; `pair` requires
    exactly two and passes them as two arguments.  The inputs, in option
    order, go to the function `call[1]` of the layer `call[0]`; each further
    name in `call` is applied in turn to the result.  `write` emits the
    result and `code` maps it to the exit code (0 when absent).  A `handler`
    replaces the runner for work that is more than load, call, write.
    """

    __slots__ = ()

    def run(self, ns):
        inputs = []
        for flag, settings in self.options:
            name = flag[2:].replace("-", "_")
            value = getattr(ns, name)
            kind = _FILE_OPTIONS.get(name)
            if kind is None:
                inputs.append(value)
            elif settings.get("action") != "append":
                inputs.append(_load(value, kind))
            elif self.pair:
                if len(value) != 2:
                    raise InvalidInput(
                        f"{' '.join(self.path)} needs exactly two {flag} files"
                    )
                inputs.extend(_load(p, kind) for p in value)
            else:
                inputs.append(tuple(_load(p, kind) for p in value))
        layer = importlib.import_module("." + self.call[0], __package__)
        result = getattr(layer, self.call[1])(*inputs)
        for name in self.call[2:]:
            result = getattr(layer, name)(result)
        self.write(ns, result)
        return 0 if self.code is None else self.code(result)


def _int(text):
    """An integer option's value, held to the input digit limit."""
    try:
        return jsonio._parse_int(text, "value")
    except InvalidInput as err:
        raise argparse.ArgumentTypeError(err.message) from None


_FILE = {"required": True}
_FILES = {"action": "append", "required": True}
_INT = {"type": _int, "required": True}
_SEARCH = (
    ("--relation", {"required": True, "help": "relation JSON file"}),
    ("--n", {"type": _int, "required": True, "help": "matrix dimension"}),
    ("--bound", {"type": _int, "help": "entry bound; derived from the relation when provable"}),
    ("--symmetric", {"action": "store_true", "help": "search symmetric matrices only"}),
    ("--up-to-iso", {
        "action": "store_true",
        "help": "keep one representative per simultaneous relabeling orbit",
    }),
    ("--limit", {"type": _int, "help": "emit at most this many"}),
)
_VERIFY = ("--verify-relation", {"help": "also check the relation on inputs and output"})
_MATRIX = ("--matrix", _FILE)
_MATRIX_SUBSET = (_MATRIX, ("--subset", _FILE))

_COMMANDS = (
    _Command(("solve",), "search matrices satisfying g(X) = h(X)", _SEARCH + (
        ("--jobs", {"type": _int, "default": 1, "help": "accepted for interface stability; changes no output"}),
    ), handler=_cmd_solve),
    _Command(("oracle",), "same search by plain enumeration (cross-check)", _SEARCH,
             handler=_cmd_solve),
    _Command(("decompose",), "block form of a square root of k*I", (_MATRIX, ("--k", _INT)),
             ("canonical", "decompose"), _document(jsonio.block_form_to_obj)),
    _Command(("sqrt-classify",),
             "write a symmetric square root of k*I as sqrt(k) times an involution",
             (_MATRIX, ("--k", _INT)), ("canonical", "classify_selfadjoint_sqrt"),
             _document(jsonio.sqrt_to_obj)),
    _Command(("canon",), "least relabeling of a matrix", (_MATRIX,),
             ("zmatrix", "canonical_rep"), _emit_matrix),
    _Command(("classify", "idempotent"), "M^2 = M", (_MATRIX,),
             ("classify", "classify_idempotent"), _document(jsonio.idempotent_to_obj)),
    _Command(("classify", "commuting"), "two idempotents and their index split",
             (("--matrix", _FILES),), ("classify", "check_commuting_idempotents"),
             _document(jsonio.commuting_to_obj), pair=True),
    _Command(("classify", "nilpotent"), "M^k = 0", (_MATRIX, ("--k", _INT)),
             ("classify", "check_nilpotent"), _document(jsonio.nilpotency_to_obj),
             code=lambda verdict: 0 if verdict.kind == "zero" else 1),
    _Command(("classify", "cyclic"), "M^k = M^m", (_MATRIX, ("--k", _INT), ("--m", _INT)),
             ("classify", "classify_cyclic"), _document(jsonio.cyclic_to_obj)),
    _Command(("classify", "root"), "M^e = I", (_MATRIX, ("--exp", _INT)),
             ("classify", "classify_root_of_identity"), _document(jsonio.root_to_obj)),
    _Command(("restrict", "invariant"), "is the subset invariant", _MATRIX_SUBSET,
             ("restrict", "is_invariant_subset"), _flag_document("invariant"),
             code=_truth_exit),
    _Command(("restrict", "subsets"), "all invariant subsets", (_MATRIX,),
             ("restrict", "invariant_subsets"), _document(jsonio.subsets_to_obj)),
    _Command(("restrict", "serre"), "subset corner", _MATRIX_SUBSET,
             ("restrict", "restrict_serre"), _emit_matrix),
    _Command(("restrict", "quotient"), "complement corner of the transpose", _MATRIX_SUBSET,
             ("restrict", "restrict_quotient"), _emit_matrix),
    _Command(("restrict", "preserves-add"), "does M keep the subset's projectives",
             _MATRIX_SUBSET, ("restrict", "preserves_add"), _flag_document("preserves_add"),
             code=_truth_exit),
    _Command(("restrict", "descend"), "push a satisfied relation to both corners",
             _MATRIX_SUBSET + (("--relation", _FILE),), ("restrict", "relation_descends"),
             _document(jsonio.descent_to_obj)),
    _Command(("cartan",),
             "certify a commuting symmetric family forces a scalar Cartan matrix",
             (("--cartan", _FILE), ("--functor", _FILES)),
             ("restrict", "CartanInstance", "cartan_check"),
             _document(jsonio.cartan_verdict_to_obj),
             code=lambda verdict: _CARTAN_EXIT.get(verdict.kind, 1)),
    _Command(("construct", "dsum"), "direct sum of two or more matrices",
             (("--matrix", _FILES), _VERIFY), handler=_cmd_construct),
    _Command(("construct", "tensor"), "Kronecker product with an identity of size b",
             (("--matrix", _FILES), ("--b", {"type": _int}), _VERIFY),
             handler=_cmd_construct),
    _Command(("construct", "scale"), "scalar multiple",
             (("--matrix", _FILES), ("--k", {"type": _int}), _VERIFY),
             handler=_cmd_construct),
)

# help text and namespace attribute of each command group
_GROUPS = {
    "classify": ("classify symmetric solutions", "kind"),
    "restrict": ("invariant subsets and corners", "kind"),
    "construct": ("build matrices from parts", "subop"),
}


# -- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports usage errors as InvalidInput, so they leave as JSON (exit 2);
    subparsers inherit the class."""

    def error(self, message):
        raise InvalidInput(message)


def _build_parser(argv=()):
    """The parser for argv: only the branch of the command whose path argv
    starts with, as argparse picks a subparser by exact name, else every
    command (top-level or group help, an unknown or partial command)."""
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
        type=_int,
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

    groups = {}
    picked = [cmd for cmd in _COMMANDS if tuple(argv[:len(cmd.path)]) == cmd.path]
    for cmd in picked or _COMMANDS:
        parent = sub
        if len(cmd.path) == 2:
            group = cmd.path[0]
            if group not in groups:
                blurb, dest = _GROUPS[group]
                groups[group] = sub.add_parser(group, help=blurb).add_subparsers(
                    dest=dest, required=True
                )
            parent = groups[group]
        p = parent.add_parser(cmd.path[-1], parents=[common], help=cmd.blurb)
        for flag, settings in cmd.options:
            p.add_argument(flag, **settings)
        p.set_defaults(func=cmd.handler or cmd.run)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # results and error details may hold integers of any size, so the
    # interpreter's limit on int/str conversion is lifted while main runs;
    # input integers are held to jsonio's digit limit instead
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv):
    try:
        try:
            ns = _build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            # only --help exits the parser; usage errors raise InvalidInput
            return 0 if exc.code in (0, None) else 2
        return ns.func(ns)
    except FunctorLabError as err:
        sys.stderr.write(jsonio.dumps(jsonio.error_to_obj(err)))
        return err.exit_code
    except OSError as err:
        sys.stderr.write(
            jsonio.dumps({"error": "io_error", "message": str(err)})
        )
        return 2
    except Exception as err:
        # a bug, not a verdict: report it under the same JSON contract
        fault = InternalFault(f"{type(err).__name__}: {err}")
        sys.stderr.write(jsonio.dumps(jsonio.error_to_obj(fault)))
        return fault.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
