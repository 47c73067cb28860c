"""schauderlab benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it imports ``src/schauderlab``). Workloads
are listed in ``BENCHMARK.json`` and defined in ``perfbench/workloads.py``.

Each sample is a fresh interpreter (``perfbench/sample.py``) that builds
the seeded inputs, times one call into schauderlab and checks the result
against an oracle outside the timed region. Samples run one after another
(a closed loop with one client) until the next would end after ``--seconds``;
the run reports medians over its samples. BLAS is pinned to one thread.

The host is shared and its speed drifts, so the time end-to-end metric is
``wall_rel``: the timed region's wall time in units of the machine's speed
gauged inside that region (``perfbench/speed.py``). The raw ``wall_s``,
``cpu_s`` and speed gauge ``ref_s`` of every sample are printed, and the
traced run reports the medians of the first and last as ``proc.wall_s``
and ``proc.ref_s``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics of the traced
ones, plus the tracing overhead measured against the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment, every sample and a summary.
"""

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ou2d_cauchy", "embedding_1d", "potential_2d", "cli_batch")
END_TO_END = (("wall_rel", "ref"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("err", "rel"))
RUN_LIMIT_S = 150.0  # no sample may run past this, so the run ends in time
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def read_cpu_times():
    """(steal, total) jiffies from /proc/stat, or None where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_sample(args, traced, workdir, env, timeout):
    """One sample process; returns (record or None, seconds it took)."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--workdir", workdir]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.time())],
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {timeout:.0f} s", file=sys.stderr)
        return None, time.perf_counter() - t0
    took = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        record = None
    if record is None:
        print(f"sample exited {proc.returncode}:\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return None, took
    record["traced"] = traced
    return record, took


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "schauderlab", "__init__.py")):
        print("run from the root of a schauderlab checkout: "
              "src/schauderlab not found", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **BLAS_ENV)
    workdir = os.path.join(root, ".perfbench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        samples, attempted, steal = collect(args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not samples:
        print("no sample produced a measurement", file=sys.stderr)
        return 1
    failed = attempted - sum(1 for r in samples if r["ok"])

    env_info = dict(samples[0]["env"], nproc=os.cpu_count(),
                    cpu_model=cpu_model(), steal_frac=steal)
    print("env " + json.dumps(env_info, sort_keys=True))
    for r in samples:
        kind = "traced" if r["traced"] else "untraced"
        print(f"sample {kind} seed={r['seed']} ok={r['ok']} "
              f"wall_rel={r['wall_rel']:.4f} wall_s={r['wall_s']:.4f} "
              f"cpu_s={r['cpu_s']:.4f} ref_s={r['ref_s']:.5f} "
              f"probes={r['probes']} "
              f"setup_s={r['setup_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} err={r['err']:.6e} "
              f"({r['detail']})")
        if r.get("unhooked"):
            print("  hooks without a target: " + ", ".join(r["unhooked"]))
    plain = [r for r in samples if not r["traced"]] or samples
    if args.trace:
        traced = [r for r in samples if r["traced"]]
        if not traced:
            print("no traced sample produced a measurement", file=sys.stderr)
            return 1
        counts = [{k: v for k, v in r["layers"].items()
                   if not k.endswith(".self_s")} for r in traced]
        print(f"per-layer counts repeat across {len(counts)} traced samples: "
              f"{all(c == counts[0] for c in counts)}")
        metrics = layer_metrics(traced, plain, steal)
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain),
                          "unit": unit} for name, unit in END_TO_END}
    print(f"summary workload={args.workload} seed={args.seed} "
          f"samples={len(samples)} attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.3f} (medians)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def collect(args, workdir, env):
    """Run samples until the next one would end after ``--seconds``.
    Returns (records, samples attempted, CPU steal fraction of the run)."""
    samples, durations = [], []
    attempted = 0
    cpu0 = read_cpu_times()
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        remaining = RUN_LIMIT_S - (time.perf_counter() - start)
        record, took = run_sample(args, traced, workdir, env, remaining)
        attempted += 1
        durations.append(took)
        if record is not None:
            samples.append(record)
        elapsed = time.perf_counter() - start
        next_end = elapsed + statistics.median(durations)
        enough = attempted >= (2 if args.trace else 1)
        if next_end > RUN_LIMIT_S or (enough and next_end > args.seconds):
            break
    cpu1 = read_cpu_times()
    steal = 0.0
    if cpu0 and cpu1 and cpu1[1] > cpu0[1]:
        steal = (cpu1[0] - cpu0[0]) / (cpu1[1] - cpu0[1])
    reject_odd_reports(samples)
    return samples, attempted, steal


def reject_odd_reports(samples):
    """Reports must be byte-identical across the samples of a run once their
    timestamps are removed: samples off the most common digest fail."""
    digests = collections.Counter(r["digest"] for r in samples)
    if len(digests) > 1:
        common = digests.most_common(1)[0][0]
        for r in samples:
            if r["digest"] != common:
                r["ok"] = False
                r["detail"] += "; report differs from the other samples"


def layer_metrics(traced, plain, steal):
    """Per-layer medians over the traced samples, with units from
    BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(r["layers"][name] for r in traced)
    for name in ("wall_s", "ref_s"):
        values["proc." + name] = statistics.median(r[name] for r in plain)
    values["proc.cpu_util"] = statistics.median(
        r["cpu_s"] / r["wall_s"] for r in plain)
    values["proc.steal_frac"] = steal
    values["trace.overhead_frac"] = statistics.median(
        r["wall_rel"] for r in traced) / statistics.median(
        r["wall_rel"] for r in plain) - 1.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
