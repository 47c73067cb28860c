"""Batch front end: config validation, report emission, determinism."""

import json
import os

import numpy as np
import pytest

from schauderlab.cli import (SCHEMA_VERSION, SOLVER_DEFAULTS, load_config,
                             main, run)
from schauderlab.errors import ConfigError

MINIMAL = {
    "schema_version": 1,
    "problem": {
        "d": 1, "a": [["1"]], "b": ["0"], "c": "1",
        "f": "exp(-x1^2)*step(1-t)*step(t)", "g": "0",
        "alpha": 0.5, "time_window": [0.0, 1.0], "t_breakpoints": [],
    },
    "grid": {"radius": 5.0, "n": 49, "n_time": 24},
    "mode": "cauchy",
    "suites": [{"name": "integral_residual", "threshold": 0.01}],
    "seed": 0,
    "output": {"report": "report.json", "csv": "solution.csv",
               "plot": "plots.gp"},
}


def write_cfg(tmp_path, patch=None, name="cfg.json"):
    cfg = json.loads(json.dumps(MINIMAL))
    if patch:
        for path, value in patch.items():
            node = cfg
            keys = path.split(".")
            for k in keys[:-1]:
                node = node[k]
            node[keys[-1]] = value
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read_report(out_dir, name="report.json"):
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_minimal_config_passes(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    code = run(cfg, out_dir=out)
    assert code == 0
    rep = read_report(out)
    assert rep["schema_version"] == SCHEMA_VERSION
    assert len(rep["audits"]) == 1
    assert rep["audits"][0]["name"] == "integral_residual"
    assert rep["audits"][0]["pass"] is True
    assert rep["hypotheses"]["ok"] is True
    assert os.path.exists(os.path.join(out, "solution.csv"))
    assert os.path.exists(os.path.join(out, "plots.gp"))


def test_alpha_out_of_range_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, {"problem.alpha": 1.5})
    code = run(cfg, out_dir=str(tmp_path / "out"))
    assert code == 3
    rep = read_report(str(tmp_path / "out"))
    assert rep["error"]["kind"] == "config"
    assert "alpha" in rep["error"]["reason"]


def test_unknown_audit_rejected(tmp_path):
    cfg = write_cfg(tmp_path, {"suites": [{"name": "nonsense"}]})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 3


def test_bad_expression_rejected(tmp_path):
    cfg = write_cfg(tmp_path, {"problem.f": "2+*x1"})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 3


def test_oversized_grid_rejected(tmp_path):
    cfg = write_cfg(tmp_path, {"grid.n": 513})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 3


def test_schema_invalid_never_reaches_numerics(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run(str(p), out_dir=str(tmp_path / "out")) == 3


def test_failed_audit_gives_exit_two(tmp_path):
    cfg = write_cfg(tmp_path, {"suites": [
        {"name": "integral_residual", "threshold": 1e-15}]})
    assert run(cfg, out_dir=str(tmp_path / "out")) == 2


def test_report_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert run(cfg, out_dir=out, seed=7) == 0
        with open(os.path.join(out, "report.json")) as fh:
            lines = [ln for ln in fh.read().splitlines()
                     if '"timestamp"' not in ln]
        outs.append("\n".join(lines))
    assert outs[0] == outs[1]


def test_csv_layout(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    run(cfg, out_dir=out)
    with open(os.path.join(out, "solution.csv")) as fh:
        header = fh.readline().strip()
        first = fh.readline().strip().split(",")
    assert header == "t,x1,u,ut,grad_norm,hess_trace"
    floats = [float(v) for v in first]
    assert len(floats) == 6
    # values round-trip through repr
    assert first[0] == repr(floats[0])


def test_check_verb(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["check", "--config", cfg, "--out", out]) == 0
    rep = read_report(out)
    assert rep["hypotheses"]["delta"] == 1.0
    assert rep["audits"] == []


def test_audit_names_validated_at_load(tmp_path):
    cfg = write_cfg(tmp_path)
    loaded = load_config(cfg)
    assert loaded["mode"] == "cauchy"
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, {"mode": "nonsense"}, name="m.json"))


def test_repo_sample_configs_load():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("heat_minimal.json", "schauder_sweep.json"):
        loaded = load_config(os.path.join(here, "configs", name))
        assert loaded["spec"].alpha == 0.5


@pytest.mark.parametrize("verb", ["all", "check"])
def test_evaluation_error_exits_with_report(tmp_path, verb):
    # sqrt of a negative coordinate parses but cannot be evaluated on the box
    cfg = write_cfg(tmp_path, {"problem.c": "1+sqrt(x1)"})
    out = str(tmp_path / "out")
    assert main([verb, "--config", cfg, "--out", out]) in (3, 4)
    rep = read_report(out)
    assert rep["error"]["kind"] in ("config", "numerical")
    assert "sqrt" in json.dumps(rep["error"])


def test_drift_evaluation_error_exits_3_with_report(tmp_path):
    # b enters the hypothesis check only through its pair quotients; a drift
    # that cannot be evaluated on the box still stops the run there
    cfg = write_cfg(tmp_path, {"problem.b": ["sqrt(x1-10)"]})
    out = str(tmp_path / "out")
    assert main(["all", "--config", cfg, "--out", out]) == 3
    rep = read_report(out)
    assert rep["error"]["kind"] == "config"
    assert "sqrt(x1 - 10.0)" in rep["error"]["detail"]


class _RecordingDict(dict):
    """A JSON object that adds every key looked up in it to ``seen``."""

    def __init__(self, pairs, seen):
        super().__init__(pairs)
        self.seen = seen

    def __contains__(self, key):
        self.seen.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)


def test_schema_document_names_every_key(tmp_path, monkeypatch):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "docs", "config_schema.md"),
              encoding="utf-8") as fh:
        doc = fh.read()
    cfg = write_cfg(tmp_path, {"boundary_mode": "dirichlet-final",
                               "truncation_level": 0,
                               "solver": dict(SOLVER_DEFAULTS)})
    seen = set()
    monkeypatch.setattr(json, "load", lambda fh: json.loads(
        fh.read(), object_hook=lambda obj: _RecordingDict(obj, seen)))
    load_config(cfg)
    keys = seen | set(SOLVER_DEFAULTS)
    assert {"schema_version", "time_window", "n_time", "suites"} <= keys
    missing = sorted(k for k in keys if f"`{k}`" not in doc)
    assert not missing, f"keys missing from docs/config_schema.md: {missing}"


def test_elliptic_mode_writes_report_and_stationary_csv(tmp_path):
    cfg = write_cfg(tmp_path, {"mode": "elliptic", "problem.f": "exp(-x1^2)",
                               "suites": []})
    out = str(tmp_path / "out")
    assert main(["all", "--config", cfg, "--out", out]) == 0
    rep = read_report(out)
    assert rep["solves"][0]["mode"] == "elliptic"
    with open(os.path.join(out, "solution.csv")) as fh:
        header = fh.readline().strip()
        rows = [line.split(",") for line in fh.read().splitlines()]
    assert header == "t,x1,u,ut,grad_norm,hess_trace"
    # one slice at t = S with u_t = 0
    assert len(rows) == MINIMAL["grid"]["n"]
    assert {r[0] for r in rows} == {"1.0"}
    assert {r[3] for r in rows} == {"0.0"}
    assert max(abs(float(r[2])) for r in rows) == rep["solves"][0]["sup_u"]


@pytest.mark.parametrize("patch", [
    {"suites": [{"name": "integral_residual", "threshold": "x"}]},
    {"suites": [{"name": "localization", "eps": "a"}]},
    {"suites": [{"name": "schauder", "beta_values": "abc"}]},
    {"suites": [{"name": "schauder", "beta_values": [1.0, "b"]}]},
    {"suites": [{"name": "time_holder", "window": [0.2]}]},
    {"suites": [{"name": "max_principle", "threshold": float("nan")}]},
    {"suites": [{"name": "embedding", "threshold": True}]},
    {"solver": {"lin_tol": -1}},
    {"solver": {"lin_tol": 0}},
    {"solver": {"theta": True}},
])
def test_bad_option_values_exit_3_with_report(tmp_path, patch):
    cfg = write_cfg(tmp_path, patch)
    out = str(tmp_path / "out")
    assert main(["all", "--config", cfg, "--out", out]) == 3
    assert read_report(out)["error"]["kind"] == "config"
