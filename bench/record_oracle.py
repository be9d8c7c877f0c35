"""Regenerate bench/oracle.json from `brute_force_oracle`.

    PYTHONPATH=src python3 bench/record_oracle.py

Records count, completeness and a digest of the sorted solution list for
every search the benchmark runs, so the timed runs check `solve` against
plain enumeration without paying for it.  Takes a few minutes.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import functorlab as fl  # noqa: E402

import cliwork  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402


def record(spec):
    g, h, n, bound, sym, iso = spec[:6]
    limit = spec[6] if len(spec) > 6 else None
    rel = fl.RelationPoly(g, h)
    if bound is None:
        bound = fl.derive_entry_bound(rel, symmetric_only=sym)
    cfg = fl.SearchConfig(n=n, bound=bound, symmetric_only=sym, up_to_iso=iso, limit=limit)
    res = fl.brute_force_oracle(rel, cfg)
    rows = [m.entries for m in res.solutions]
    return {"count": res.count, "complete": res.complete,
            "digest": gen.solutions_digest(rows)}


def main():
    specs = (workloads.LADDER + [workloads.JOBS2_RUNG] + workloads.ISO_SOLVES
             + cliwork.SOLVE_SPECS)
    out = {}
    for spec in specs:
        out[gen.spec_key(spec)] = record(spec)
        print(gen.spec_key(spec), out[gen.spec_key(spec)]["count"], flush=True)
    with open(os.path.join(HERE, "oracle.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
