"""In-memory spans for a traced run, and the per-layer metrics made from them.

A span is [name, start, end, parent, op]: `parent` indexes the enclosing
span in the same process (None at top level) and `op` identifies the
operation it serves.  Calls made millions of times (leaf verification inside
`solve`) are rolled up instead: each parent span keeps a count and a total
time per inner name, so memory stays flat.  A span's self time is its
duration minus what its child spans and rolled-up inner calls cover.
"""

import time
from statistics import median


class Tracer:
    def __init__(self):
        self.spans = []
        self.inner = {}    # (parent span, inner name) -> [calls, seconds]
        self.counts = {}
        self._stack = []

    def call(self, name, fn, *args, op=None):
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def spanned(self, name, fn):
        """fn wrapped so that each call records a span under the open one."""

        def wrapper(*args):
            parent_op = self.spans[self._stack[-1]][4] if self._stack else None
            return self.call(name, fn, *args, op=parent_op)

        return wrapper

    def rolled(self, name, fn, observe=None):
        """fn wrapped to add its calls and time to the open span's roll-up.

        observe(args, result) runs after the clock stops, for counters.
        """
        clock, stack, inner = time.perf_counter, self._stack, self.inner

        def wrapper(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            key = (stack[-1] if stack else None, name)
            rec = inner.get(key)
            if rec is None:
                inner[key] = [1, dt]
            else:
                rec[0] += 1
                rec[1] += dt
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def dump(self):
        return {
            "spans": self.spans,
            "inner": [[p, n, c, s] for (p, n), (c, s) in self.inner.items()],
            "counts": self.counts,
        }


class Totals:
    """Per-layer sums over the traced processes of one pass."""

    def __init__(self):
        self.span_s = {}        # span name -> summed duration
        self.span_calls = {}
        self.self_s = {}        # span name -> summed self time
        self.inner_s = {}       # (span name, inner name) -> summed time
        self.inner_calls = {}
        self.counts = {}
        self.cli_main = []      # per query, seconds
        self.hooks = {}         # hooked name -> whether the module still has it

    def add(self, dump, hooks=None):
        spans = dump["spans"]
        covered = [0.0] * len(spans)
        for name, t0, t1, parent, _op in spans:
            if parent is not None:
                covered[parent] += t1 - t0
        for parent, name, calls, secs in dump["inner"]:
            if parent is None:
                continue
            covered[parent] += secs
            key = (spans[parent][0], name)
            self.inner_s[key] = self.inner_s.get(key, 0.0) + secs
            self.inner_calls[key] = self.inner_calls.get(key, 0) + calls
        for k, (name, t0, t1, _parent, _op) in enumerate(spans):
            self.span_s[name] = self.span_s.get(name, 0.0) + (t1 - t0)
            self.span_calls[name] = self.span_calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (t1 - t0 - covered[k])
            if name == "cli.main":
                self.cli_main.append(t1 - t0)
        for name, k in dump["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + k
        for name, present in (hooks or {}).items():
            self.hooks[name] = self.hooks.get(name, True) and present

    def leaves(self):
        """Leaves solve verified: it evaluates both sides once per leaf."""
        return self.inner_calls.get(("solver.solve", "zmatrix._poly_rows"), 0) // 2


def _ms(seconds):
    return seconds * 1000.0


def _ratio(num, den):
    # a ratio over an empty base reads 0; the base is printed beside it
    return num / den if den else 0.0


def layer_metrics(t, plain_cpu, traced_cpu, probes, caches):
    """Every per-layer metric as {name: (value or None when absent, unit)}.

    `caches` maps "_poly_rows" / "_pow_rows" to [hits, misses] summed over
    the pass's processes, or None when the function has no cache_info.
    """

    def span_ms(name):
        return _ms(t.span_s.get(name, 0.0))

    def hooked(name, value):
        return value if t.hooks.get(name, True) else None

    def cache_ratio(name):
        hm = caches.get(name)
        return None if hm is None else _ratio(hm[0], hm[0] + hm[1])

    verify = t.inner_s.get(("solver.solve", "zmatrix._poly_rows"), 0.0)
    orbit = t.inner_s.get(("solver.solve", "zmatrix._orbit_min_rows"), 0.0)
    leaves = t.leaves()
    filtered = t.inner_calls.get(("solver.solve", "zmatrix._orbit_min_rows"), 0)
    scans = filtered + t.span_calls.get("zmatrix.canonical_rep", 0)
    poly_calls = sum(c for (_, name), c in t.inner_calls.items() if name == "zmatrix._poly_rows")
    classify = [n for n in t.span_s if n.startswith("classify.")]
    return {
        "solver.solve_ms": (span_ms("solver.solve"), "ms"),
        "solver.search_self_ms": (_ms(t.self_s.get("solver.solve", 0.0)), "ms"),
        "solver.leaves_verified": (hooked("solver._poly_rows", leaves), "count"),
        "solver.solutions": (t.counts.get("solver.solutions", 0), "count"),
        "solver.leaf_yield": (
            hooked("solver._poly_rows", _ratio(t.counts.get("solver.solutions", 0), leaves)),
            "ratio",
        ),
        "solver.jobs2_rung_ms": (span_ms("solver.solve_jobs2"), "ms"),
        "zmatrix.verify_ms": (hooked("solver._poly_rows", _ms(verify)), "ms"),
        "zmatrix.poly_calls": (
            hooked("solver._poly_rows", hooked("restrict._poly_rows", poly_calls)),
            "count",
        ),
        "zmatrix.poly_cache_hit_ratio": (cache_ratio("_poly_rows"), "ratio"),
        "zmatrix.pow_cache_hit_ratio": (cache_ratio("_pow_rows"), "ratio"),
        "zmatrix.orbit_ms": (
            hooked("solver._orbit_min_rows", _ms(orbit) + span_ms("zmatrix.canonical_rep")),
            "ms",
        ),
        "zmatrix.orbit_scans": (hooked("solver._orbit_min_rows", scans), "count"),
        "zmatrix.orbit_keep_ratio": (
            hooked("solver._orbit_min_rows",
                   _ratio(t.counts.get("zmatrix.orbit_kept", 0), filtered)),
            "ratio",
        ),
        "zmatrix.mul_us": (probes["mul_us"], "us"),
        "zmatrix.poly_eval_us": (probes["poly_eval_us"], "us"),
        "canonical.involutions_ms": (span_ms("canonical.enumerate_involutions"), "ms"),
        "canonical.decompose_ms": (span_ms("canonical.decompose"), "ms"),
        "canonical.sqrt_classify_ms": (span_ms("canonical.classify_selfadjoint_sqrt"), "ms"),
        "classify.ms": (_ms(sum(t.span_s[n] for n in classify)), "ms"),
        "classify.calls": (sum(t.span_calls[n] for n in classify), "count"),
        "restrict.subsets_ms": (span_ms("restrict.invariant_subsets"), "ms"),
        "restrict.subset_yield": (
            _ratio(t.counts.get("restrict.subsets_found", 0),
                   t.counts.get("restrict.subsets_scanned", 0)),
            "ratio",
        ),
        "restrict.cartan_ms": (span_ms("restrict.cartan_check"), "ms"),
        "restrict.descend_ms": (span_ms("restrict.relation_descends"), "ms"),
        "jsonio.load_ms": (hooked("jsonio.load_text", span_ms("jsonio.load_text")), "ms"),
        "jsonio.dump_ms": (hooked("jsonio.dumps", span_ms("jsonio.dumps")), "ms"),
        "jsonio.bytes_out": (hooked("jsonio.dumps", t.counts.get("jsonio.bytes_out", 0)), "bytes"),
        "cli.interp_start_ms": (probes["interp_start_ms"], "ms"),
        "cli.import_ms": (probes["import_ms"], "ms"),
        "cli.main_ms": (_ms(median(t.cli_main)) if t.cli_main else 0.0, "ms"),
        "trace.overhead_ratio": (traced_cpu / plain_cpu, "ratio"),
    }
