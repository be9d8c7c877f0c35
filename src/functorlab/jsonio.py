"""JSON schemas for what the CLI reads (matrix, relation and subset files)
and writes (its reports and errors).

All indices are 1-based on the wire.  Every writer returns a plain
document, and composite writers nest the plain documents of others.
`dumps` alone writes JSON, applying the wire rule as it encodes: integers
beyond 2^53 - 1 in absolute value become decimal strings (JSON numbers
lose exactness past that in common consumers), tuples become lists, and a
document holding such an integer ends with one top-level "bigints": true,
a key no writer uses.
The three readers accept both encodings.  Serialization is deterministic:
fixed key order, two-space indent, trailing newline.
Loading this module loads no solver, canonical, classify or restrict code:
a function that needs one of their types (`subset_from_obj` constructing
it, the block-form writer testing it) imports it when it runs.
"""

import json

from .errors import InvalidInput
from .zmatrix import NatMatrix, RelationPoly, _is_int

_SAFE_INT = (1 << 53) - 1
# the most digits an input integer may have: Python's default limit on
# int/str conversion, checked here so that a refusal reads the same whether
# or not the interpreter's own limit is lifted, as cli.main lifts it
_MAX_DIGITS = 4300


def _parse_int(text, what):
    """int(text, 10), or InvalidInput for a string that is no decimal integer
    or has more than _MAX_DIGITS digits."""
    if len(text) > _MAX_DIGITS:
        digits = sum(map(str.isdigit, text))
        if digits > _MAX_DIGITS:
            raise InvalidInput(f"{what} has {digits} digits, over the limit of "
                               f"{_MAX_DIGITS} on input integers", limit=_MAX_DIGITS)
    try:
        return int(text, 10)
    except ValueError:
        raise InvalidInput(f"{what} is not a decimal integer string: {text!r}") from None


def _decode_int(v, what):
    if _is_int(v):
        return v
    if isinstance(v, bool):
        raise InvalidInput(f"{what} must be an integer, got a boolean")
    if isinstance(v, str):
        return _parse_int(v, what)
    raise InvalidInput(f"{what} must be an integer or decimal string, got {v!r}")


def _require(obj, key, what):
    if not isinstance(obj, dict):
        raise InvalidInput(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise InvalidInput(f"{what} is missing the {key!r} field")
    return obj[key]


def _int_list(v, what):
    if not isinstance(v, list):
        raise InvalidInput(f"{what} must be a list")
    return [_decode_int(x, what) for x in v]


def dumps(doc):
    """`doc`, a plain document, as JSON text in one walk under the wire rule.
    Outside cli.main, Python's int/str digit limit applies to its decimals."""
    found = False

    def encode(v, pad):  # pad: a newline and the indent of v's own line
        nonlocal found
        inner = pad + "  "
        if isinstance(v, dict) and v:
            return "{" + ",".join(f"{inner}{json.dumps(key)}: {encode(x, inner)}"
                                  for key, x in v.items()) + pad + "}"
        if isinstance(v, (list, tuple)) and v:  # small ints skip the call
            return "[" + inner + ("," + inner).join(
                str(x) if type(x) is int and -_SAFE_INT <= x <= _SAFE_INT else encode(x, inner)
                for x in v) + pad + "]"
        if _is_int(v) and abs(v) > _SAFE_INT:
            found = True
            return f'"{v}"'
        return json.dumps(v)  # a string, bool, None, small int or empty container

    text = encode(doc, "\n")
    if found and isinstance(doc, dict):
        text = text[:-2] + ',\n  "bigints": true\n}'
    return text + "\n"


# -- matrices ----------------------------------------------------------------

def matrix_to_obj(m):
    return {"n": m.n, "rows": m.entries}


def matrix_from_obj(obj):
    n = _decode_int(_require(obj, "n", "matrix"), "matrix dimension")
    rows = _require(obj, "rows", "matrix")
    if not isinstance(rows, list) or len(rows) != n:
        raise InvalidInput(f"matrix rows must be a list of length n={n}")
    decoded = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise InvalidInput(f"each matrix row must be a list of length n={n}")
        decoded.append(tuple(_decode_int(x, "matrix entry") for x in row))
    return NatMatrix(tuple(decoded))


# -- relations ---------------------------------------------------------------

def _relation(rel):
    return {"g": rel.g, "h": rel.h}


def relation_from_obj(obj):
    g = _int_list(_require(obj, "g", "relation"), "relation coefficient")
    h = _int_list(_require(obj, "h", "relation"), "relation coefficient")
    return RelationPoly(tuple(g), tuple(h))


# -- subsets -----------------------------------------------------------------

def _subset(s):
    return {"n": s.n, "members": s.members}


def subsets_to_obj(subsets):
    """The `restrict subsets` report: a count and every subset."""
    return {"count": len(subsets), "subsets": [_subset(s) for s in subsets]}


def subset_from_obj(obj):
    from .restrict import IndexSubset

    n = _decode_int(_require(obj, "n", "subset"), "subset dimension")
    members = _int_list(_require(obj, "members", "subset"), "subset member")
    return IndexSubset(n, tuple(members))


# -- block forms and square roots --------------------------------------------

def block_form_to_obj(form):
    from .canonical import Block1

    blocks = [
        {"type": "b1", "a": block.a}
        if isinstance(block, Block1)
        else {"type": "b2", "a": block.a, "b": block.b}
        for block in form.blocks
    ]
    return {"perm": form.perm.one_based(), "k": form.k, "blocks": blocks}


def sqrt_to_obj(cls):
    return {
        "kind": "sqrt",
        "root": cls.root,
        "involution": cls.involution.one_based(),
    }


# -- classification verdicts -------------------------------------------------

def idempotent_to_obj(cls):
    return {"kind": "idempotent", "n": cls.n, "support": cls.support}


def commuting_to_obj(report):
    return {
        "kind": "commuting_idempotents",
        "n": report.n,
        "both": report.both,
        "a_only": report.a_only,
        "b_only": report.b_only,
        "neither": report.neither,
        "product": matrix_to_obj(report.product),
    }


def nilpotency_to_obj(verdict):
    if verdict.kind == "zero":
        return {"kind": "zero"}
    return {
        "kind": "not_nilpotent",
        "power": verdict.power,
        "position": verdict.position,
        "value": verdict.value,
    }


def cyclic_to_obj(cls):
    if cls.kind == "idempotent":
        return idempotent_to_obj(cls)
    return {
        "kind": "partial_involution",
        "n": cls.n,
        "support": cls.support,
        "pairing": cls.pairing,
    }


def root_to_obj(cls):
    return {
        "kind": "root_of_identity",
        "permutation": cls.permutation.one_based(),
        "order": cls.order,
        "selfadjoint": cls.selfadjoint,
    }


# -- search configuration and results ----------------------------------------

def _config(config):
    return {
        "n": config.n,
        "bound": config.bound,
        "symmetric_only": config.symmetric_only,
        "up_to_iso": config.up_to_iso,
        "limit": config.limit,
    }


def solution_set_to_obj(result):
    return {
        "relation": _relation(result.relation),
        "config": _config(result.config),
        "count": result.count,
        "complete": result.complete,
        "solutions": [matrix_to_obj(m) for m in result.solutions],
    }


# -- restriction reports and Cartan verdicts ---------------------------------

def descent_to_obj(report):
    return {
        "kind": "descent",
        "ambient_satisfied": report.ambient_satisfied,
        "serre": None if report.serre is None else matrix_to_obj(report.serre),
        "quotient": None if report.quotient is None else matrix_to_obj(report.quotient),
    }


def verify_report_to_obj(m, rel, inputs_satisfy, output_satisfies):
    """The `construct --verify-relation` report on a built matrix m."""
    return {
        "matrix": matrix_to_obj(m),
        "verify": {
            "relation": _relation(rel),
            "inputs_satisfy": inputs_satisfy,
            "output_satisfies": output_satisfies,
        },
    }


def cartan_verdict_to_obj(verdict):
    obj = {"verdict": verdict.kind}
    if verdict.kind == "pass":
        obj["scale"] = verdict.scale
    elif verdict.kind == "fail_commutation":
        obj["functor"] = verdict.functor
        obj["position"] = verdict.position
        obj["left"] = verdict.left
        obj["right"] = verdict.right
    elif verdict.kind == "reducible":
        obj["functor"] = verdict.functor
        obj["eigenvalue"] = verdict.eigenvalue
        obj["basis"] = verdict.basis
    elif verdict.kind == "inconsistent_input":
        obj["position"] = verdict.position
    return obj


# -- errors ------------------------------------------------------------------

def error_to_obj(err):
    obj = {"error": err.code, "message": err.message}
    if err.details:
        obj["details"] = err.details
    return obj


def load_text(text, what="input"):
    try:
        return json.loads(text, parse_int=lambda s: _parse_int(s, f"{what} integer"))
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidInput(f"{what} is nested too deeply to parse") from None
