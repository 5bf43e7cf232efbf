"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload dense-lattice --seed 1 \
        --seconds 40 --trace 0

Run it from the root of a source checkout: it imports ``qrfkit`` from
``src/`` and nowhere else.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a separate traced run.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list the
same metrics for people, the environment, and where the full result went.
README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("dense-lattice", "exact-algebra", "sparse-large")
# Fixed BLAS thread count, capped by the cores this process may use.  Two
# threads keep the dense steps near full speed; the count is recorded.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ROUNDS = 3       # rounds (or traced pairs) even when --seconds runs out
MIB = 2.0 ** 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the warm (or traced) passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fresh", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_sha():
    """The checkout's commit, read from .git without running git, or None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    """Digest of the package sources, which identifies the code measured
    where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qrfkit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy
    import scipy
    import sympy

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "git_sha": git_sha(), "src_sha256": src_digest()}


def run_pass(cases, pass_id, spans=False, memory=False):
    from harness import PassRecorder

    gc.collect()
    rec = PassRecorder(pass_id, spans=spans, memory=memory)
    t0 = time.perf_counter()
    for case in cases:
        with rec.case(case.name):
            case.run(rec, case)
    rec.wall = time.perf_counter() - t0
    return rec


def fresh_process(args) -> dict:
    """Run one round in a fresh interpreter and return what it measured."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--fresh"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def fresh_main(args) -> int:
    """Child side of ``fresh_process``: time the layer imports, a cold pass
    and a warm pass, and print them with the peak RSS of the cold pass.

    The RSS is read before the warm pass: how much a second pass adds to
    the high-water mark depends on where the allocator put the first pass's
    freed arrays, and moved by 8 % between seeds of the same code.
    """
    t0 = time.perf_counter()
    import qrfkit.algstates
    import qrfkit.models
    import qrfkit.reduction_gauge
    import qrfkit.relobs  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads

    cases = workloads.build(args.workload, args.seed)
    cold = run_pass(cases, 0)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    warm = run_pass(cases, 1)
    print(json.dumps({"import_s": import_s, "cold_s": cold.wall,
                      "warm_s": warm.wall,
                      "cold_case_s": {name: t1 - t0
                                      for name, t0, t1, _ in cold.cases},
                      "warm_case_s": {name: t1 - t0
                                      for name, t0, t1, _ in warm.cases},
                      "rss_mib": rss,
                      "attempted": cold.attempted + warm.attempted,
                      "failed": cold.n_failed + warm.n_failed,
                      "failures": cold.messages + warm.messages}))
    return 0


class Totals:
    """Attempted and failed steps over every pass, in any process, and what
    each failure was."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, attempted, failed, failures):
        self.attempted += attempted
        self.failed += failed
        self.failures += failures


def end_to_end(args, totals):
    """Rounds of one fresh interpreter each, for ``--seconds``.

    Every sample comes from its own process: a process tends to keep its
    speed through its passes, so samples from several processes are
    steadier than many passes of one.  A pass time is the sum over the
    cases of each case's median across the rounds, so a slow spell on the
    machine that hits one case in one round does not move it.
    """
    rounds = []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(rounds) < MIN_ROUNDS):
        rounds.append(fresh_process(args))
        r = rounds[-1]
        totals.add(r["attempted"], r["failed"],
                   [f"round {len(rounds)}: {m}" for m in r["failures"]])

    def case_medians(key):
        return {name: statistics.median(r[key][name] for r in rounds)
                for name in rounds[0][key]}

    cold, warm = case_medians("cold_case_s"), case_medians("warm_case_s")
    metrics = {
        "setup_s": (statistics.median(r["import_s"] for r in rounds), "s"),
        "cold_pass_s": (sum(cold.values()), "s"),
        "pass_s": (sum(warm.values()), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mib"] for r in rounds),
                        "MiB"),
    }
    # Printed and stored, but not declared in BENCHMARK.json: see README.
    extra = {"reported": {"small_case_s": (next(iter(warm.values())), "s")},
             "cold_case_s": cold, "case_s": warm, "rounds": rounds}
    return metrics, extra


def per_layer(cases, args, totals):
    """Untraced and traced passes in turn, then one allocation-traced pass."""
    from harness import FUNCTIONS, LAYERS, layer_of

    recs = [run_pass(cases, 0)]           # warm-up, not reported
    plain, traced = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(traced) < MIN_ROUNDS):
        plain.append(run_pass(cases, len(recs)))
        recs.append(plain[-1])
        traced.append(run_pass(cases, len(recs), spans=True))
        recs.append(traced[-1])
    tracemalloc.start()
    try:
        mem = run_pass(cases, len(recs), memory=True)
    finally:
        tracemalloc.stop()
    recs.append(mem)
    for r in recs:
        totals.add(r.attempted, r.n_failed,
                   [f"pass {r.pass_id}: {m}" for m in r.messages])

    busy = []                             # per traced pass: step -> seconds
    for r in traced:
        d = {}
        for step, t0, t1, _, _ in r.spans:
            d[step] = d.get(step, 0.0) + (t1 - t0)
        busy.append(d)
    unknown = set().union(*busy) - set(FUNCTIONS)
    if unknown:
        raise RuntimeError(f"steps outside the metric list: {unknown}")

    def med(f):
        return statistics.median(f(d) for d in busy)

    m = {}
    for fn in FUNCTIONS:
        m[f"{fn}.s"] = (med(lambda d: d.get(fn, 0.0)), "s")
        m[f"{fn}.peak_mb"] = (mem.peaks.get(fn, 0) / MIB, "MiB")
    calls = {}
    for step, *_ in traced[0].spans:
        calls[layer_of(step)] = calls.get(layer_of(step), 0) + 1
    failed = {}
    for r in recs:
        for step, n in r.failed.items():
            failed[layer_of(step)] = failed.get(layer_of(step), 0) + n
    for layer in LAYERS:
        fns = [f for f in FUNCTIONS if layer_of(f) == layer]
        m[f"{layer}.s"] = (med(lambda d: sum(d.get(f, 0.0) for f in fns)),
                           "s")
        m[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        m[f"{layer}.peak_mb"] = (max(mem.peaks.get(f, 0) for f in fns) / MIB,
                                 "MiB")
        m[f"{layer}.failed"] = (failed.get(layer, 0), "count")
    m["kinspace.group_average.warnings"] = (
        traced[0].counters.get("kinspace.group_average.warnings", 0),
        "count")
    glue = [r.wall - sum(t1 - t0 for _, t0, t1, _, _ in r.spans)
            for r in traced]
    m["bench.glue_s"] = (statistics.median(glue), "s")
    m["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                             - statistics.median(r.wall for r in plain), "s")
    extra = {"coverage_min": min(1 - g / r.wall for g, r in zip(glue, traced)),
             "traced_passes": [r.wall for r in traced],
             "untraced_passes": [r.wall for r in plain],
             "spans": [s for r in traced for s in r.spans],
             "case_spans": [s for r in traced for s in r.cases]}
    return m, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qrfkit" / "models.py").is_file():
        print(f"error: no qrfkit sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:                 # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    if args.fresh:
        return fresh_main(args)
    import workloads

    if not Path(workloads.md.__file__).resolve().is_relative_to(SRC):
        print("error: qrfkit was not imported from this checkout",
              file=sys.stderr)
        return 2
    env = environment(args)
    totals = Totals()
    if args.trace:
        cases = workloads.build(args.workload, args.seed)
        metrics, extra = per_layer(cases, args, totals)
    else:
        metrics, extra = end_to_end(args, totals)
    attempted, failed = totals.attempted, totals.failed
    reported = extra.setdefault("reported", {})
    reported["ops_failed_frac"] = (failed / attempted, "fraction")

    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"env": env, "attempted": attempted,
                               "failed": failed, "failures": totals.failures,
                               "metrics": metrics, **extra}, indent=1))
    print("env " + json.dumps(env))
    for name, (value, unit) in {**metrics, **reported}.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    if "coverage_min" in extra:
        print(f"{'span coverage (min over traced passes)':48s} "
              f"{extra['coverage_min']:14.6f} fraction")
    print(f"result written to {out.relative_to(ROOT)}")
    if totals.failures:
        # again at the end, where a log's tail shows it after the tracebacks
        print(f"{len(totals.failures)} failures:", file=sys.stderr)
        for m in totals.failures:
            print("  " + m, file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
