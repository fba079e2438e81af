"""relu3d benchmark: runs one workload from a seed in a single process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; relu3d is imported from
``src/`` there.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it records
the environment, the inputs and the sample counts behind each metric.

--trace 0 (end to end): set-up is repeated SETUP_REPS times and its median
is reported; then whole op cycles run until the timed op wall time reaches
--seconds (and at least MIN_OPS ops have run).  Oracles run outside the
timers, over each workload's check_batch ops at a time, and a failed op
counts in `failed` without ending the run.

--trace 1 (per layer): a fixed number of op cycles, so that every count
repeats exactly.  The set-up runs once under the tracer.  The ops then run
untraced, with their oracles, and again traced; the traced outputs must be
bit-identical to the untraced ones.  Spans are written to
perfbench/out/trace-<workload>-<seed>.json when the run ends.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# One BLAS / OpenMP thread: runs stay steady on a small shared machine, and
# the sparse products that dominate relu3d run on one thread anyway.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPS = 3
IMPORT_REPS = 3
MIN_OPS = 24
TAIL_BEYOND = 10

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.dont_write_bytecode = True\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import relu3d\n"
    "print(time.perf_counter() - t)\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads():
    """Must run before numpy loads: its thread pools size themselves then."""
    for var in THREAD_VARS:
        os.environ[var] = THREADS


def import_relu3d():
    """Import relu3d from this checkout's src/; raise if it is not there."""
    if not (SRC / "relu3d" / "__init__.py").is_file():
        raise RuntimeError(f"no relu3d sources under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import relu3d
    if Path(relu3d.__file__).resolve().parent != SRC / "relu3d":
        raise RuntimeError(f"relu3d imported from {relu3d.__file__}, "
                           f"not from {SRC}")
    return relu3d


def import_seconds():
    """Median wall time of `import relu3d` in fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def cache_sizes():
    """Cache sizes of cpu0 by level, as the kernel reports them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            out[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "caches": cache_sizes(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    s = sorted(samples)
    n = len(s)
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def run_op(wl, op):
    """(output or None, seconds, failure reason or None); raising counts as
    a failure."""
    t0 = time.perf_counter()
    try:
        out = wl.run(op)
    except Exception as exc:  # one failed op must not end the run
        return None, time.perf_counter() - t0, f"raised {exc!r}"
    return out, time.perf_counter() - t0, None


def end_to_end(wl, seed, seconds):
    import numpy as np

    import_s, import_samples = import_seconds()
    setup_samples = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_samples.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_samples)
    # the prebuilt net is not garbage: keep it out of later collections
    gc.collect()
    gc.freeze()

    ops = wl.ops(np.random.default_rng(seed))
    op_s, points, failures, unchecked = [], 0, [], []

    def check_unchecked():
        failures.extend(w for w in wl.check_many(unchecked) if w is not None)
        unchecked.clear()

    while (sum(op_s) < seconds or len(op_s) < MIN_OPS
           or len(op_s) % wl.cycle):
        op = next(ops)
        gc.collect()  # each op starts from the same heap, untimed
        out, dt, why = run_op(wl, op)
        op_s.append(dt)
        if why is None:
            points += wl.points(op, out)
            unchecked.append((op, out))
        else:
            failures.append(why)
        del out
        if len(unchecked) >= wl.check_batch:
            check_unchecked()
    if unchecked:
        check_unchecked()
    gc.unfreeze()
    timed = sum(op_s)
    tail_s, tail_pct, n = tail(op_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / timed, "1/s"),
        "op_s.p50": (statistics.median(op_s), "s"),
        "op_s.tail": (tail_s, "s"),
        "points_per_s": (points / timed, "points/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    record = {"import_s_samples": import_samples,
              "setup_body_s_samples": setup_samples,
              "ops": n, "timed_s": timed, "op_s.p50_samples": n,
              "op_s.tail_percentile": tail_pct, "op_s.tail_samples": n,
              "points": points, "failed_frac": len(failures) / n,
              "ops_per_oracle_call": wl.check_batch,
              "op_s_samples": op_s,
              "failures": failures[:5]}
    return metrics, record, n, len(failures)


def traced(wl, seed):
    import numpy as np

    from layertrace import Tracer

    tracer = Tracer()
    with tracer, tracer.root("setup", "setup"):
        wl.setup()

    gen = wl.ops(np.random.default_rng(seed))
    ops = [next(gen) for _ in range(wl.trace_cycles * wl.cycle)]
    run_op(wl, ops[0])  # warm-up, so that neither side pays first-call costs
    failures = []
    untraced_s = traced_s = 0.0
    for i, op in enumerate(ops):
        gc.collect()
        out, dt, why = run_op(wl, op)
        untraced_s += dt
        if why is None:
            want = wl.fingerprint(out)
            why = wl.check(op, out)
        del out
        gc.collect()
        with tracer, tracer.root("op", i) as span:
            out, _, traced_why = run_op(wl, op)
        traced_s += span.end - span.start
        if why is None and (traced_why or wl.fingerprint(out) != want):
            why = traced_why or "output differs with the trace on"
        failures.append(why)
        del out

    metrics = {k: (v, _unit(k)) for k, v in tracer.layer_metrics().items()}
    metrics["trace_overhead"] = (traced_s / untraced_s, "ratio")
    bad = [f for f in failures if f]
    record = {"ops": len(ops), "trace_overhead_bases_s":
              {"traced_ops_s": traced_s, "untraced_ops_s": untraced_s},
              "spans": len(tracer.spans), "failed_frac": len(bad) / len(ops),
              "failures": bad[:5],
              "note": "net.forward bytes are computed from array sizes"}
    return metrics, record, len(ops), len(bad), tracer


def _unit(name):
    key = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "unattributed_s": "s", "points": "points",
            "flops": "flop", "bytes": "bytes", "levels": "levels",
            "neurons": "neurons", "neurons_out": "neurons",
            "gflops_per_s": "Gflop/s", "gbytes_per_s": "GB/s"}.get(key,
                                                                  "count")


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    try:
        import_relu3d()
    except (RuntimeError, ImportError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: "
                         f"{sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    if args.trace:
        metrics, record, attempted, failed, tracer = traced(wl, args.seed)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{wl.name}-{args.seed}.json")
    else:
        metrics, record, attempted, failed = end_to_end(wl, args.seed,
                                                        args.seconds)
    record.update({"workload": wl.name, "why": wl.why, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "inputs": wl.describe(), "environment": environment()})
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
