"""Tests of the benchmark itself: each correctness check accepts a real
result and rejects a perturbed one, the tracer counts calls and survives
hooks whose target is gone, and the speed probe samples a region and
restores the alarm handler.

    PYTHONPATH=src python3 -m pytest -q perfbench

Run from the root of the repository. The workloads run here at reduced
sizes so the file takes seconds.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

import run
import speed
import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small(cls, **sizes):
    return type(f"Small{cls.__name__}", (cls,), sizes)


def test_ou_check_rejects_perturbed_solution(tmp_path):
    wl = small(workloads.OUCauchy, N=33, N_TIME=32)(5, str(tmp_path))
    res = wl.run()
    ok, err, _ = wl.check(res)
    assert ok and 0.0 < err <= wl.TOL
    res.u.values[len(res.u.times) // 2] += 2.0 * wl.TOL
    assert not wl.check(res)[0]


def test_embedding_check_rejects_perturbed_solution(tmp_path):
    wl = small(workloads.Embedding1D, LEVELS=2, N=129)(5, str(tmp_path))
    res = wl.run()
    ok, err, _ = wl.check(res)
    assert ok and 0.0 < err <= wl.TOL
    res.values[-1] *= 1.0 + 2.0 * wl.TOL
    assert not wl.check(res)[0]


def test_potential_check_rejects_perturbed_potential(tmp_path):
    wl = small(workloads.Potential2D, N=33, N_TIME_SUB=8)(5, str(tmp_path))
    res = wl.run()
    ok, err, _ = wl.check(res)
    assert ok and 0.0 < err <= wl.TOL
    res.values[...] *= 1.0 + 2.0 * wl.TOL
    assert not wl.check(res)[0]


def test_seed_changes_inputs_not_sizes(tmp_path):
    a = workloads.Potential2D(1, str(tmp_path))
    b = workloads.Potential2D(2, str(tmp_path))
    assert a.path != b.path and a.grid == b.grid
    c = workloads.Embedding1D(1, str(tmp_path))
    d = workloads.Embedding1D(2, str(tmp_path))
    assert c.f != d.f and c.breaks == d.breaks and c.times == d.times


@pytest.fixture
def cli_batch(tmp_path, monkeypatch):
    """A CLIBatch whose jobs hold real outputs of the shipped heat config
    (the other jobs reuse its report, which is enough for the check)."""
    monkeypatch.chdir(ROOT)
    wl = workloads.CLIBatch(5, str(tmp_path))
    heat_dir = dict(wl.jobs)["heat_minimal"]
    assert workloads.schauderlab.cli.main(
        ["all", "--config", os.path.join(heat_dir, "config.json"),
         "--out", os.path.join(heat_dir, "out")]) == 0
    with open(os.path.join(heat_dir, "out", "report.json")) as fh:
        report = fh.read()
    for name, job_dir in wl.jobs:
        os.makedirs(os.path.join(job_dir, "out"), exist_ok=True)
        with open(os.path.join(job_dir, "out", "report.json"), "w") as fh:
            fh.write(report)
    return wl, heat_dir


def test_cli_check_accepts_real_outputs(cli_batch):
    wl, _ = cli_batch
    ok, err, detail = wl.check([0, 0, 0, 0])
    assert ok, detail
    assert 0.0 < err <= wl.HEAT_TOL


def test_cli_check_rejects_exit_code_and_failed_audit(cli_batch):
    wl, heat_dir = cli_batch
    assert not wl.check([0, 2, 0, 0])[0]
    path = os.path.join(heat_dir, "out", "report.json")
    with open(path) as fh:
        report = json.load(fh)
    report["audits"][0]["pass"] = False
    with open(path, "w") as fh:
        json.dump(report, fh)
    assert not wl.check([0, 0, 0, 0])[0]


def test_cli_check_rejects_perturbed_heat_solution(cli_batch):
    wl, heat_dir = cli_batch
    path = os.path.join(heat_dir, "out", "solution.csv")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data[:, 2] *= 1.0 + 2.0 * wl.HEAT_TOL
    np.savetxt(path, data, delimiter=",", header="t,x1,u,ut,g,h")
    assert not wl.check([0, 0, 0, 0])[0]


def test_reports_that_differ_across_samples_fail():
    samples = [{"digest": d, "ok": True, "detail": ""}
               for d in ("a", "a", "b")]
    run.reject_odd_reports(samples)
    assert [r["ok"] for r in samples] == [True, True, False]


def test_speed_probe_samples_region_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(probe.times) >= 5
    assert 0.0 < probe.overhead_s() < 0.3 and probe.ref_s() > 0.0


def test_tracer_counts_calls_and_restores(monkeypatch):
    import schauderlab
    import schauderlab.solver as solver

    original = solver.evaluate
    monkeypatch.setitem(tracing.LAYER_HOOKS, "expr.gone",
                        [("schauderlab.expr", "no_such_function")])
    tr = tracing.Tracer()
    missing = tracing.install(tr)
    try:
        assert "schauderlab.expr.no_such_function" in missing
        assert solver.evaluate is not original  # imported by name: patched
        grid = schauderlab.SpaceGrid(1, 4.0, 33)
        path = schauderlab.TimeMatrixPath.identity(1)
        f = schauderlab.parse_expr("exp(-x1^2)*step(1-t)")
        schauderlab.potential_G(path, f, 0.5, grid, 1.0, n_time_sub=4)
    finally:
        tr.uninstall()
    assert solver.evaluate is original
    m = tracing.metrics(tr)
    assert m["kernel.potential_G.calls"] == 1
    assert m["kernel.accumulate_A.calls"] == 4
    assert m["kernel.convolve.calls"] == 4
    assert m["kernel.convolve.madds"] > 0
    assert m["expr.evaluate.calls"] >= 4
    assert m["expr.evaluate.points"] >= 4 * 33
    assert m["kernel.cells_distinct_frac"] == 1.0
    assert m["kernel.potential_G.self_s"] > 0.0


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = {m["name"] for m in bench["per_layer"]}
    produced = set(tracing.metrics(tracing.Tracer())) | {
        "proc.wall_s", "proc.ref_s", "proc.cpu_util", "proc.steal_frac",
        "trace.overhead_frac"}
    assert listed == produced
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
