"""One benchmark sample in a fresh interpreter.

    python3 perfbench/sample.py --workload NAME --seed N --trace 0|1 \
        --workdir DIR --spawned-at EPOCH_SECONDS

Builds the workload's inputs, times one call into schauderlab, checks the
result outside the timed region and prints one JSON object. ``setup_s``
runs from ``--spawned-at`` (taken by the parent just before it started this
interpreter) to the start of the timed region, so it covers interpreter
start, imports and input construction. ``wall_s`` and ``cpu_s`` leave out
the time of the speed probes (``speed.py``) that run inside the timed
region; ``wall_rel`` is ``wall_s`` over the probes' gauge ``ref_s``.
Run from the root of a checkout with ``src`` on ``PYTHONPATH``.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np
import scipy

import tracer as tracing
from speed import SpeedProbe
from workloads import WORKLOADS


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    with SpeedProbe() as probe:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        setup_s = time.time() - args.spawned_at
        result = workload.run()
        wall_s = time.perf_counter() - t0 - probe.overhead_s()
        cpu_s = time.process_time() - cpu0 - probe.overhead_s()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref_s = probe.ref_s()
    out = {"seed": args.seed, "wall_s": wall_s, "cpu_s": cpu_s,
           "ref_s": ref_s, "wall_rel": wall_s / ref_s,
           "probes": len(probe.times), "setup_s": setup_s,
           "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        out["layers"] = tracing.metrics(tracer)
        out["unhooked"] = missing
    ok, err, detail = workload.check(result)
    out.update(ok=bool(ok), err=err, detail=detail,
               digest=getattr(workload, "digest", None), env=environment())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
