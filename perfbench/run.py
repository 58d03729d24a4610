"""npcl benchmark harness.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each run:

1. sets up ``SETUP_REPEATS`` times (fresh ``import npcl`` plus the seeded
   inputs) and reports the median as ``setup_s``;
2. runs the criterion-10 CLI config once and compares its metrics.csv with
   the golden digest;
3. runs one untimed warm-up pass, then timed passes until ``--seconds``
   have elapsed, checking every pass's output.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it also times ``partial_optimize`` alone, runs untraced passes for a third
of the time as the overhead reference, then traced passes for the rest, and
reports the per-layer metrics; the spans go to
``.perfbench_out/spans-<workload>-seed<seed>.json``.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS thread keeps the process within the core count and steadier on a
# shared machine; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np

from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS, golden_check

SETUP_REPEATS = 5
KERNEL_SIZES = (("128", 128, 200, 7), ("1e4", 10_000, 20, 7), ("1e6", 1_000_000, 1, 5))


def environment(seed):
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def fresh_import():
    """Import npcl from scratch, dropping any copy loaded earlier in the process."""
    for name in [m for m in sys.modules if m == "npcl" or m.startswith("npcl.")]:
        del sys.modules[name]
    pkg = importlib.import_module("npcl")
    importlib.import_module("npcl.cli")
    return pkg


def timed_setup(workload_cls, seed, scratch):
    times = []
    for _ in range(SETUP_REPEATS):
        workload = None  # release the previous inputs before building new ones
        start = time.perf_counter()
        workload = workload_cls(fresh_import(), seed, scratch)
        times.append(time.perf_counter() - start)
    return workload, median(times)


class Tally:
    """Checked operations and failures across a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, oks):
        self.attempted += len(oks)
        self.failed += sum(1 for ok in oks if not ok)


def run_pass(workload, tally):
    """One pass with its output check; returns the pass's wall time."""
    start = time.perf_counter()
    try:
        output = workload.run_pass()
    except Exception:  # a broken pass is a failed operation, not a harness crash
        traceback.print_exc()
        output = None
    elapsed = time.perf_counter() - start
    tally.add([False] if output is None else workload.check(output))
    return elapsed


def timed_passes(workload, seconds, tally):
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(run_pass(workload, tally))
    return times


def kernel_timings(partial_optimize, seed):
    """Microseconds per ``partial_optimize`` call at fixed sizes, C = n."""
    rng = np.random.default_rng([seed, 900])
    values = {}
    for label, n, calls, repeats in KERNEL_SIZES:
        losses = rng.uniform(0.0, 2.0, size=n)
        per_call = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                partial_optimize(losses, float(n))
            per_call.append((time.perf_counter() - start) / calls)
        values[f"selection.partial_optimize.us_at_{label}"] = median(per_call) * 1e6
    return values


def traced_run(workload, pkg, args, tally, out_dir):
    extra = kernel_timings(pkg.selection.partial_optimize, args.seed)
    reference = timed_passes(workload, args.seconds / 3.0, tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_passes(workload, args.seconds * 2.0 / 3.0, tally)
    finally:
        tracer.uninstall()
    if tracer.absent:
        print(f"perfbench: absent layers (reported as 0): {', '.join(tracer.absent)}")
    extra["trace.overhead_frac"] = median(traced) / median(reference) - 1.0
    extra["adversarial.max_gap"] = getattr(workload, "max_gap", 0.0)
    values = tracer.per_layer(len(traced), extra)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "env": environment(args.seed),
                   "absent": tracer.absent, "fields": ["name", "start", "end", "parent"],
                   "spans": [[n, round(s - t0, 7), round(e - t0, 7), p]
                             for n, s, e, p in tracer.spans]}, fh)
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}


def untraced_run(workload, args, tally, setup_s):
    """End-to-end metrics.

    Throughput comes from the fastest pass, not the median one: on a shared
    host, other tenants slow whole stretches of a run by up to a third and
    never speed it up, so the fastest pass tracks the code and the median
    tracks the neighbours.  The median pass time is printed alongside.
    """
    times = timed_passes(workload, args.seconds, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {
        **workload.details(times),
        "failed_frac": (tally.failed / tally.attempted, "frac"),
        "passes": (len(times), "count"),
        "pass_min_s": (min(times), "s"),
        "pass_median_s": (median(times), "s"),
    }
    for name, (value, unit) in details.items():
        print(f"perfbench: {args.workload} {name} = {value} {unit}")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "items_per_s": {"value": workload.work / min(times), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "npcl" / "__init__.py").is_file():
        print(f"perfbench: no npcl package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        workload, setup_s = timed_setup(WORKLOADS[args.workload], args.seed, scratch)
        pkg = workload.pkg
        if not Path(pkg.__file__).resolve().is_relative_to(src):
            print(f"perfbench: imported npcl from {pkg.__file__}, not {src}", file=sys.stderr)
            return 2
        print("perfbench: env " + json.dumps(environment(args.seed)))
        tally = Tally()
        tally.add([golden_check(pkg, scratch)])
        run_pass(workload, tally)  # warm-up: caches, lazy set-up, reference outputs
        if args.trace:
            metrics = traced_run(workload, pkg, args, tally, out_dir)
        else:
            metrics = untraced_run(workload, args, tally, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
