"""One job of the benchmark in a fresh interpreter.

    worker.py setup <workload> <seed> <workdir>   build the inputs, then exit
    worker.py job <workload> <seed> <job> <0|1>   run one job, untraced or traced
    worker.py probe <seed>                        time zmatrix primitives
    worker.py cli <record.json> <cli args...>     one traced functorlab CLI call

Every mode but `cli` prints one JSON object as its last line of output.  In
`cli` mode standard output and the exit code are the CLI's own, and the
trace goes to the record file.  The parent puts the package on PYTHONPATH.
"""

import json
import sys
import time
from statistics import median

import calib
import gen
from spans import Tracer


def _cache_counters():
    """[hits, misses] of each zmatrix cache, None once a cache is gone."""
    from functorlab import zmatrix

    out = {}
    for name in ("_poly_rows", "_pow_rows"):
        info = getattr(getattr(zmatrix, name, None), "cache_info", None)
        out[name] = list(info()[:2]) if info is not None else None
    return out


def _install_hooks(tracer):
    """Roll up the zmatrix calls solver and restrict make, in this process.

    Returns {hooked name: whether the module still has that name}.
    """
    from functorlab import restrict, solver

    def orbit(args, out):
        if out == args[0]:
            tracer.count("zmatrix.orbit_kept")

    hooks = {}
    for module, name, observe in (
        (solver, "_poly_rows", None),
        (solver, "_orbit_min_rows", orbit),
        (restrict, "_poly_rows", None),
    ):
        fn = getattr(module, name, None)
        hooks[f"{module.__name__.rsplit('.', 1)[1]}.{name}"] = fn is not None
        if fn is not None:
            setattr(module, name, tracer.rolled(f"zmatrix.{name}", fn, observe))
    return hooks


def setup(workload, seed, workdir):
    if workload == "cli-queries":
        import functorlab  # noqa: F401  (the setup of every workload imports it)

        import cliwork

        cliwork.write_inputs(cliwork.plan(seed), workdir)
        return {"jobs": 1}
    from workloads import JOB_LISTS

    return {"jobs": len(JOB_LISTS[workload](seed))}


def job(workload, seed, index, traced):
    from workloads import JOB_LISTS

    ops = JOB_LISTS[workload](seed)[index]
    tracer = Tracer() if traced else None
    hooks = {}
    # forked solve workers would inherit the hooks and lose their spans
    if traced and not any(op.span == "solver.solve_jobs2" for op in ops):
        hooks = _install_hooks(tracer)
    # an operation's time is the CPU time it takes, this process's and that
    # of the pool workers of a jobs=2 solve; cal[k], cal[k + 1] bracket op k
    results, latencies, cal = [], [], [calib.block(calib.BLOCK_FIRST)]
    for k, op in enumerate(ops):
        t0 = calib.cpu_time()
        try:
            if tracer is None:
                res = op.fn(*op.args)
            else:
                res = tracer.call(op.span, op.fn, *op.args, op=f"{index}:{k}")
            results.append((res, None))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append((None, f"{op.span}: {type(exc).__name__}: {exc}"[:300]))
        latencies.append(calib.cpu_time() - t0)
        cal.append(calib.block_after(latencies[-1]))
    caches = _cache_counters()  # before the checks, which use the same caches
    failures, wrong = [], []
    for op, (res, err) in zip(ops, results):
        if err is not None:
            failures.append(err)
            continue
        reason = op.check(res)
        if reason is not None:
            wrong.append(f"{op.span}: {reason}")
        if tracer is not None:
            if op.span == "solver.solve":
                tracer.count("solver.solutions", res.count)
            elif op.span == "restrict.invariant_subsets":
                tracer.count("restrict.subsets_found", len(res))
                tracer.count("restrict.subsets_scanned", 2 ** op.args[0].n)
    out = {"latencies": latencies, "cal": cal, "failures": failures, "wrong": wrong,
           "caches": caches}
    if tracer is not None:
        out["trace"] = tracer.dump()
        out["hooks"] = hooks
    return out


def probe(seed):
    """Median microseconds of a product and a cubic evaluation on 8x8 inputs,
    each input used once so the zmatrix caches cannot answer."""
    from functorlab import NatMatrix, poly_eval

    rng = gen.rng_for(seed, "probe")

    def fresh():
        return NatMatrix.from_rows([[rng.randint(0, 3) for _ in range(8)] for _ in range(8)])

    def per_call_us(fn, inputs):
        times = []
        for args in inputs:
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        return median(times) * 1e6

    return {
        "mul_us": per_call_us(lambda a, b: a * b, [(fresh(), fresh()) for _ in range(300)]),
        "poly_eval_us": per_call_us(
            lambda m: poly_eval((1, 2, 1, 1), m), [(fresh(),) for _ in range(300)]
        ),
    }


def traced_cli(record_path, argv):
    from functorlab import cli, jsonio

    tracer = Tracer()
    hooks = {"jsonio.load_text": hasattr(jsonio, "load_text"),
             "jsonio.dumps": hasattr(jsonio, "dumps")}
    if hooks["jsonio.load_text"]:
        jsonio.load_text = tracer.spanned("jsonio.load_text", jsonio.load_text)
    if hooks["jsonio.dumps"]:
        dumps = jsonio.dumps

        def counted_dumps(obj):
            text = dumps(obj)
            tracer.count("jsonio.bytes_out", len(text.encode("utf-8")))
            return text

        jsonio.dumps = tracer.spanned("jsonio.dumps", counted_dumps)
    try:
        return tracer.call("cli.main", cli.main, argv, op="query")
    finally:
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump({"trace": tracer.dump(), "hooks": hooks,
                       "caches": _cache_counters()}, fh)


def main(argv):
    mode = argv[0]
    if mode == "cli":
        sys.exit(traced_cli(argv[1], argv[2:]))
    if mode == "setup":
        out = setup(argv[1], int(argv[2]), argv[3])
    elif mode == "job":
        out = job(argv[1], int(argv[2]), int(argv[3]), argv[4] == "1")
    elif mode == "probe":
        out = probe(int(argv[1]))
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
