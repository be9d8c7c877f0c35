"""functorlab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
./src.  Workloads (see bench/README.md):

    solve-ladder   library `solve` over a fixed relation ladder, one fresh
                   interpreter per rung, one rung at jobs=min(2, nproc)
    iso-orbit      up-to-iso solves, `canonical_rep` at n=7/8, involutions
    structure-mix  decompose / classify / restrict / cartan calls, 20% repeats
    cli-queries    100 sequential `python -m functorlab.cli` calls

--trace 0 measures the end-to-end metrics: setup probes, then passes over
the job list, each job in a fresh interpreter, for as many whole passes as
fit in --seconds (at least one).  Every end-to-end time is CPU time of the
processes doing the work (calib.cpu_time), on the SCALED workloads scaled
to a reference speed by a routine timed around each operation (calib.py).
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics.  Every output is checked outside the timed region; the last line of
standard output is the JSON result.  Exits 2 without a result when the
checkout has no package, 1 when a worker fails.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import cliwork  # noqa: E402
from spans import Totals, layer_metrics  # noqa: E402

WORKLOADS = ("solve-ladder", "iso-orbit", "structure-mix", "cli-queries")
# Workloads whose times are scaled to the reference speed (calib.py).  The
# ladder's search is bound by memory (its caches reach 114 MB) and slows far
# less under contention than the calibration routine: scaled, its spread over
# seeds widened, so it reports measured CPU time.
SCALED = ("iso-orbit", "structure-mix", "cli-queries")
SETUP_PROBES = 15
START_PROBES = 7
RUN_LIMIT_S = 170.0   # the whole run must end within 180 s
E2E_UNITS = {
    "pass_cpu_s": "s", "ops_per_cpu_s": "1/s", "op_cpu_p50_ms": "ms", "op_cpu_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """A worker died or the run overran: no result is printed."""


class Runner:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.scaled = workload in SCALED
        self.deadline = time.monotonic() + RUN_LIMIT_S
        env = dict(os.environ)
        env.pop("FUNCTORLAB_CANON_CAP", None)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env

    def _run(self, cmd, check=True):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=self.workdir, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {' '.join(cmd[:4])}") from None
        if check and proc.returncode != 0:
            raise BenchError(f"{' '.join(cmd[:5])} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return proc

    def worker(self, *args):
        proc = self._run([sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def timed(self, cmd):
        """Run cmd; CPU seconds it took (its own and the harness's) and the result."""
        t0 = calib.cpu_time()
        proc = self._run(cmd, check=False)
        return calib.cpu_time() - t0, proc

    def scale(self, times, cal):
        return calib.at_reference(times, cal) if self.scaled else list(times)

    # -- set-up --------------------------------------------------------------

    def setup(self):
        """CPU seconds from a fresh interpreter to inputs ready; also the job count."""
        t0 = calib.cpu_time()
        out = self.worker("setup", self.workload, self.seed, self.workdir)
        return calib.cpu_time() - t0, out["jobs"]

    # -- passes --------------------------------------------------------------
    # A pass's "latencies" are its operations' CPU times at the reference
    # speed (calib.py); "measured" are the same before scaling, and "cal"
    # every calibration sample, both for the notes.

    def library_pass(self, jobs, traced):
        p = {"measured": [], "failures": [], "wrong": [], "children": []}
        cal = [[]]
        for index in range(jobs):
            out = self.worker("job", self.workload, self.seed, index, int(traced))
            p["measured"] += out["latencies"]
            # the block after one job and the one before the next are adjacent
            cal[-1] += out["cal"][0]
            cal += out["cal"][1:]
            p["failures"] += out["failures"]
            p["wrong"] += out["wrong"]
            p["children"].append(out)
        p["latencies"] = self.scale(p["measured"], cal)
        p["cal"] = [x for b in cal for x in b]
        return p

    def cli_pass(self, queries, traced):
        p = {"failures": [], "wrong": [], "children": []}
        record = os.path.join(self.workdir, "trace-record.json")
        measured, cal = [], [calib.block(calib.BLOCK_FIRST)]
        for q in queries:
            if traced:
                cmd = [sys.executable, os.path.join(HERE, "worker.py"), "cli", record, *q.argv]
            else:
                cmd = [sys.executable, "-m", "functorlab.cli", *q.argv]
            dt, proc = self.timed(cmd)
            measured.append(dt)
            cal.append(calib.block_after(dt))
            verdict = cliwork.check(q, proc.returncode, proc.stdout, proc.stderr)
            if verdict is not None:
                kind, why = verdict
                p["failures" if kind == "failed" else "wrong"].append(f"{q.kind}: {why}")
            if traced:
                with open(record, encoding="utf-8") as fh:
                    p["children"].append(json.load(fh))
        p["latencies"] = self.scale(measured, cal)
        p["measured"] = measured
        p["cal"] = [x for b in cal for x in b]
        return p

    def run_pass(self, jobs, traced):
        if self.workload == "cli-queries":
            queries, _texts = cliwork.plan(self.seed)
            return self.cli_pass(queries, traced)
        return self.library_pass(jobs, traced)

    # -- per-layer probes ----------------------------------------------------

    def start_probes(self):
        """Median ms of a bare interpreter start, and of importing the CLI on top."""
        bare = median(self.timed([sys.executable, "-c", "pass"])[0]
                      for _ in range(START_PROBES))
        cli = median(self.timed([sys.executable, "-c", "import functorlab.cli"])[0]
                     for _ in range(START_PROBES))
        return {"interp_start_ms": bare * 1000.0, "import_ms": (cli - bare) * 1000.0}


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def per_op(passes, key):
    """Each operation's median over the passes.

    Every pass runs the same operations in the same order.  The pass time
    and the percentiles are taken over these medians: a burst in one pass
    moves them less, and they do not depend on how many passes fit in a run.
    """
    return [median(op) for op in zip(*(p[key] for p in passes))]


def p90(xs):
    return quantiles(xs, n=10, method="inclusive")[8]


def end_to_end(runner, seconds):
    setups, cal, jobs = [], [calib.block(calib.BLOCK_FIRST)], 1
    for _ in range(SETUP_PROBES):
        dt, jobs = runner.setup()
        setups.append(dt)
        cal.append(calib.block_after(dt))
    # start another pass only if one more, as long as the last, still fits
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(runner.run_pass(jobs, traced=False))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    ops = per_op(passes, "latencies")
    metrics = {
        "pass_cpu_s": sum(ops),
        "ops_per_cpu_s": len(ops) / sum(ops),
        "op_cpu_p50_ms": median(ops) * 1000.0,
        "op_cpu_p90_ms": p90(ops) * 1000.0,
        "setup_s": median(runner.scale(setups, cal)),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"passes": len(passes), "operations": len(ops),
             "operations above p90": sum(x * 1000.0 > metrics["op_cpu_p90_ms"] for x in ops),
             "calibration median us":
                 round(median(x for p in passes for x in p["cal"]) * 1e6, 1)}
    measured = per_op(passes, "measured")
    notes["measured (unscaled) pass_cpu_s/p50_ms/p90_ms"] = "/".join(
        f"{v:.6g}" for v in (sum(measured), median(measured) * 1000.0, p90(measured) * 1000.0))
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, passes, notes


def per_layer(runner):
    _dt, jobs = runner.setup()
    plain = runner.run_pass(jobs, traced=False)
    traced = runner.run_pass(jobs, traced=True)
    totals = Totals()
    caches = {"_poly_rows": None, "_pow_rows": None}
    for child in traced["children"]:
        totals.add(child["trace"], child.get("hooks"))
        for name, hm in child.get("caches", {}).items():
            if hm is not None:
                old = caches[name] or [0, 0]
                caches[name] = [old[0] + hm[0], old[1] + hm[1]]
    probes = dict(runner.worker("probe", runner.seed))
    probes.update(runner.start_probes())
    metrics = layer_metrics(totals, sum(plain["latencies"]), sum(traced["latencies"]),
                            probes, caches)
    notes = {"cache [hits, misses]": caches,
             "leaves verified": totals.leaves(),
             "orbit leaves filtered":
                 totals.inner_calls.get(("solver.solve", "zmatrix._orbit_min_rows"), 0),
             "subsets scanned": totals.counts.get("restrict.subsets_scanned", 0)}
    return metrics, [plain, traced], notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "functorlab", "cli.py")):
        print(f"no functorlab package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    runner = Runner(args.workload, args.seed, workdir)
    try:
        # compile the package's bytecode once so no probe pays for it
        runner._run([sys.executable, "-c", "import functorlab.cli"])
        if args.trace:
            metrics, passes, notes = per_layer(runner)
        else:
            metrics, passes, notes = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    wrong = [w for p in passes for w in p["wrong"]]
    for line in sorted(set(failures)) + sorted(set(wrong)):
        print(f"# {line}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in notes.items()))
    print(f"# fail_ratio {len(failures) / attempted:.6f} ({len(failures)}/{attempted}), "
          f"wrong answers {len(wrong)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {'absent' if value is None else f'{value:.6g}':>14s} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
