"""Batch front end: read a JSON problem/config file, dispatch solves and
audit suites, and emit machine-readable reports, CSV tables, and plot
scripts.  See docs/config_schema.md for the config layout.

Exit codes: 0 all requested work passed, 2 an audit failed, 3 the config
is invalid, 4 a numerical failure occurred.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from .coeffspec import OperatorSpec, check_hypotheses
from .errors import (ConfigError, ExprEvalError, ExprSyntaxError,
                     NumericalError, SchauderLabError, SpecError)
from .expr import parse_expr
from .holder import GridFn, SpaceGrid, SpaceTimeFn, fd_gradient, fd_laplacian
from .kernel import TimeMatrixPath
from .solver import (CauchyProblem, continuation_solve, semigroup_T,
                     solve_cauchy, solve_degenerate_c, solve_elliptic)
from . import verify

SCHEMA_VERSION = 1
# audit name -> {option: kind}: "number" is a finite number, "numbers" a
# list of them, "pair" a list of two
SUITE_OPTIONS = {
    "max_principle": {"threshold": "number"},
    "schauder": {"beta_values": "numbers", "c_floor": "number",
                 "threshold": "number"},
    "time_holder": {"window": "pair", "ball_radius": "number",
                    "threshold": "number"},
    "integral_residual": {"threshold": "number"},
    "gauge_independence": {"b0_steps": "numbers", "c0_levels": "numbers",
                           "threshold": "number"},
    "localization": {"eps": "number", "threshold": "number"},
    "embedding": {"threshold": "number"},
}
KNOWN_AUDITS = tuple(SUITE_OPTIONS)
MODES = ("cauchy", "degenerate", "elliptic", "semigroup", "continuation")
SOLVER_DEFAULTS = {"theta": 0.5, "lin_tol": 1e-10, "lambda_step": 0.1,
                   "picard_tol": 1e-8, "tol_stat": 1e-8,
                   "semigroup_duration": 1.0, "semigroup_dt": 1.0 / 64.0}


# ---------------------------------------------------------------------------
# config loading and validation

def _need(cfg, key, typ, reason):
    if key not in cfg:
        raise ConfigError(reason, f"missing key '{key}'")
    val = cfg[key]
    if typ is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, typ):
        raise ConfigError(reason, f"key '{key}' has type {type(val).__name__}")
    return val


def _is_number(val):
    """A JSON number (not a boolean) that converts to a finite float."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _check_suite_options(entry):
    for key, kind in SUITE_OPTIONS[entry["name"]].items():
        if key not in entry:
            continue
        val = entry[key]
        if kind == "number":
            ok = _is_number(val)
        else:
            ok = isinstance(val, list) and all(_is_number(v) for v in val) \
                and (kind == "numbers" or len(val) == 2)
        if not ok:
            want = {"number": "a finite number",
                    "numbers": "a list of finite numbers",
                    "pair": "a list of two finite numbers"}[kind]
            raise ConfigError(f"suite option {entry['name']}.{key} must be "
                              f"{want}", repr(val))


def _parse_field(text, label):
    try:
        return parse_expr(text)
    except ExprSyntaxError as exc:
        raise ConfigError(f"bad expression in {label}", str(exc))


def load_config(path):
    if not os.path.exists(path):
        raise ConfigError("config file not found", path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON", str(exc))
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    version = _need(cfg, "schema_version", int, "schema_version missing or wrong")
    if version != SCHEMA_VERSION:
        raise ConfigError("unsupported schema_version", str(version))

    prob = _need(cfg, "problem", dict, "problem section missing")
    d = _need(prob, "d", int, "problem.d invalid")
    if d not in (1, 2, 3):
        raise ConfigError("dimension out of range", f"d = {d}")
    alpha = _need(prob, "alpha", float, "problem.alpha invalid")
    if not (0.0 < alpha < 1.0):
        raise ConfigError("alpha out of (0,1)", f"alpha = {alpha}")
    window = _need(prob, "time_window", list, "problem.time_window invalid")
    if len(window) != 2 or not all(isinstance(v, (int, float)) for v in window) \
            or not window[0] < window[1]:
        raise ConfigError("time_window must be [T, S] with T < S", str(window))
    a_rows = _need(prob, "a", list, "problem.a invalid")
    if len(a_rows) != d or any(not isinstance(r, list) or len(r) != d
                               for r in a_rows):
        raise ConfigError("problem.a must be a d x d matrix of expressions")
    b_rows = _need(prob, "b", list, "problem.b invalid")
    if len(b_rows) != d:
        raise ConfigError("problem.b must be a d-vector of expressions")
    for key in ("c", "f", "g"):
        _need(prob, key, str, f"problem.{key} invalid")
    breaks = prob.get("t_breakpoints", [])
    if not isinstance(breaks, list) or not all(isinstance(v, (int, float))
                                               for v in breaks):
        raise ConfigError("t_breakpoints must be a list of numbers")
    try:
        spec = OperatorSpec.make(
            d=d,
            a=[[_parse_field(a_rows[i][j], f"a[{i}][{j}]") for j in range(d)]
               for i in range(d)],
            b=[_parse_field(b_rows[i], f"b[{i}]") for i in range(d)],
            c=_parse_field(prob["c"], "c"),
            f=_parse_field(prob["f"], "f"),
            alpha=alpha,
            time_window=(float(window[0]), float(window[1])),
            t_breakpoints=breaks,
        )
    except SpecError as exc:
        raise ConfigError("invalid operator specification", str(exc))
    g_node = _parse_field(prob["g"], "g")

    grid_cfg = _need(cfg, "grid", dict, "grid section missing")
    radius = _need(grid_cfg, "radius", float, "grid.radius invalid")
    n = _need(grid_cfg, "n", int, "grid.n invalid")
    n_time = _need(grid_cfg, "n_time", int, "grid.n_time invalid")
    if n > 257:
        raise ConfigError("grid too large", f"n = {n} exceeds 257 per axis")
    if n_time > 512:
        raise ConfigError("too many time steps", f"n_time = {n_time}")
    try:
        grid = SpaceGrid(d, radius, n)
    except SpecError as exc:
        raise ConfigError("invalid grid", str(exc))
    if n_time < 2:
        raise ConfigError("n_time must be at least 2")

    mode = cfg.get("mode", "cauchy")
    if mode not in MODES:
        raise ConfigError("unknown mode", mode)
    boundary_mode = cfg.get("boundary_mode", "dirichlet-final")
    if boundary_mode not in ("dirichlet-final", "dirichlet-zero"):
        raise ConfigError("unknown boundary_mode", boundary_mode)
    trunc = cfg.get("truncation_level", 0)
    if not isinstance(trunc, int) or trunc < 0:
        raise ConfigError("truncation_level must be a nonnegative integer")

    solver_cfg = cfg.get("solver", {})
    if not isinstance(solver_cfg, dict):
        raise ConfigError("solver section must be an object")
    defaults = dict(SOLVER_DEFAULTS)
    for key, val in solver_cfg.items():
        if key not in defaults:
            raise ConfigError("unknown solver option", key)
        if not _is_number(val):
            raise ConfigError("solver option must be numeric", key)
        defaults[key] = float(val)
    if defaults["lin_tol"] <= 0.0:
        raise ConfigError("solver.lin_tol must be positive",
                          repr(defaults["lin_tol"]))

    suites = cfg.get("suites", [])
    if not isinstance(suites, list):
        raise ConfigError("suites must be a list")
    for entry in suites:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError("each suite entry needs a name")
        if entry["name"] not in KNOWN_AUDITS:
            raise ConfigError("unknown audit name", entry["name"])
        _check_suite_options(entry)

    seed = cfg.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    output = cfg.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output section must be an object")

    return {
        "raw": cfg, "spec": spec, "g_node": g_node, "grid": grid,
        "n_time": n_time, "mode": mode, "boundary_mode": boundary_mode,
        "truncation_level": trunc, "solver": defaults, "suites": suites,
        "seed": seed, "output": output,
    }


# ---------------------------------------------------------------------------
# solves and audits

def _final_condition(cfg):
    grid = cfg["grid"]
    spec = cfg["spec"]
    return GridFn(grid, grid.field(cfg["g_node"], spec.time_window[1]))


def _cauchy_problem(cfg):
    return CauchyProblem(
        spec=cfg["spec"], g=_final_condition(cfg), grid=cfg["grid"],
        n_time=cfg["n_time"], n_trunc=cfg["truncation_level"],
        boundary_mode=cfg["boundary_mode"], theta=cfg["solver"]["theta"],
        lin_tol=cfg["solver"]["lin_tol"], strict=cfg.get("strict", False))


def _run_solve(cfg):
    mode = cfg["mode"]
    if mode == "cauchy":
        res = solve_cauchy(_cauchy_problem(cfg))
        summary = {"mode": mode, "sup_u": float(np.max(np.abs(res.u.values))),
                   "residual_rel": res.residual_report["sup_rel"],
                   "boundary_influence": res.boundary_influence,
                   "iterations": res.iterations}
        return res, summary
    if mode == "degenerate":
        res = solve_degenerate_c(_cauchy_problem(cfg))
        summary = {"mode": mode, "sup_u": float(np.max(np.abs(res.u.values))),
                   "residual_rel": res.residual_report["sup_rel"],
                   "inflation_max": res.diagnostics["inflation_max"],
                   "iterations": res.iterations}
        return res, summary
    if mode == "continuation":
        res = continuation_solve(_cauchy_problem(cfg),
                                 lambda_step=cfg["solver"]["lambda_step"],
                                 picard_tol=cfg["solver"]["picard_tol"])
        factors = [f for lvl in res.diagnostics["contraction"]
                   for f in lvl["factors"]]
        summary = {"mode": mode, "sup_u": float(np.max(np.abs(res.u.values))),
                   "max_contraction": max(factors) if factors else 0.0,
                   "iterations": res.iterations}
        return res, summary
    if mode == "elliptic":
        out = solve_elliptic(cfg["spec"], cfg["grid"],
                             tol_stat=cfg["solver"]["tol_stat"],
                             n_time=cfg["n_time"])
        summary = {"mode": mode, "sup_u": out.u.sup(),
                   "route_gap": out.route_gap, "stationary": out.stationary,
                   "horizon_used": out.horizon_used}
        return out, summary
    if mode == "semigroup":
        dur = cfg["solver"]["semigroup_duration"]
        g = _final_condition(cfg)
        tg = semigroup_T(cfg["spec"], g, dur, cfg["grid"],
                         dt=cfg["solver"]["semigroup_dt"],
                         boundary_mode=cfg["boundary_mode"])
        summary = {"mode": mode, "duration": dur, "sup_input": g.sup(),
                   "sup_output": tg.sup()}
        return tg, summary
    raise ConfigError("unknown mode", mode)


def _beta_sweep_problems(cfg, beta_values, c_floor=1.0):
    """Growing drift/potential family: b = beta x and c = floor + beta |x|
    smoothed at unit width (so the potential's curvature stays resolved),
    with the config's a, f, g, alpha and grid held fixed."""
    base = cfg["spec"]
    problems = []
    for beta in beta_values:
        b = [parse_expr(f"{beta}*x{i + 1}") for i in range(base.d)]
        norm = "+".join(f"x{i + 1}^2" for i in range(base.d))
        c = parse_expr(f"{c_floor}+{beta}*sqrt(1+{norm})")
        spec = base.with_fields(b=tuple(b), c=c)
        problems.append((f"beta={beta:g}", CauchyProblem(
            spec=spec, g=_final_condition(cfg), grid=cfg["grid"],
            n_time=cfg["n_time"], boundary_mode=cfg["boundary_mode"],
            theta=cfg["solver"]["theta"], lin_tol=cfg["solver"]["lin_tol"])))
    return problems


def _run_audit(cfg, entry, solve_cache):
    name = entry["name"]
    spec = cfg["spec"]
    grid = cfg["grid"]
    alpha = spec.alpha
    T, S = spec.time_window

    def cauchy_result():
        if "cauchy" not in solve_cache:
            solve_cache["cauchy"] = solve_cauchy(_cauchy_problem(cfg))
        return solve_cache["cauchy"]

    def hyp_report():
        if "hyp" not in solve_cache:
            solve_cache["hyp"] = check_hypotheses(spec, grid.radius, 7, 2, 4)
        return solve_cache["hyp"]

    if name == "max_principle":
        return verify.audit_max_principle(
            cauchy_result(), hyp_report(),
            threshold=entry.get("threshold", 1.01))
    if name == "integral_residual":
        return verify.audit_integral_residual(
            cauchy_result(), spec, threshold=entry.get("threshold", 0.01))
    if name == "time_holder":
        margin = 0.1 * (S - T)
        window = entry.get("window", [T + margin, S - margin])
        return verify.audit_time_holder(
            cauchy_result(), alpha, (window[0], window[1]),
            entry.get("ball_radius", grid.radius / 2.0),
            slope_tol=entry.get("threshold", 0.15))
    if name == "schauder":
        problems = _beta_sweep_problems(cfg, entry.get("beta_values",
                                                       [0.0, 1.0, 4.0, 16.0]),
                                        c_floor=entry.get("c_floor", 1.0))
        return verify.audit_schauder(problems, alpha,
                                     threshold=entry.get("threshold", 2.0))
    if name == "gauge_independence":
        # canonical grid-aligned setup on the config's grid
        h = grid.h
        times = [0.25, 0.5, 0.75]
        steps = entry.get("b0_steps", [16, 32])
        # B(t) = b0 t lands on grid nodes at every measure time
        b0_levels = [np.array([m * h / 0.25] + [0.0] * (grid.d - 1))
                     for m in steps]
        f = parse_expr("exp(-4*(" + "+".join(
            f"x{i + 1}^2" for i in range(grid.d)) + "))*step(1-t)*step(t)")
        path = TimeMatrixPath.identity(grid.d)
        return verify.audit_gauge_independence(
            path, b0_levels, entry.get("c0_levels", [0.0, 1.0, 10.0]),
            f, times, grid, 1.0, alpha,
            threshold=entry.get("threshold", 1e-12))
    if name == "localization":
        return verify.audit_localization(
            spec, cauchy_result(), entry.get("eps", 0.2), hyp_report(),
            threshold=entry.get("threshold", 0.05))
    if name == "embedding":
        res = cauchy_result()
        u = res.u
        dt = float(np.min(np.diff(u.times)))
        h_list = []
        gap = S - T
        while gap >= dt - 1e-12:
            h_list.append(float(np.sqrt(gap)))
            gap /= 4.0
        anchor = (S, np.zeros(grid.d))
        return verify.audit_embedding(u, alpha, anchor, h_list,
                                      slope_tol=entry.get("threshold", 0.15))
    raise ConfigError("unknown audit name", name)


# ---------------------------------------------------------------------------
# emitters

def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _reprs(values):
    """``repr`` of every entry of a float array, in ravel order; one list
    formatted at once, which is faster than one ``repr`` call per entry."""
    return str(values.ravel().tolist())[1:-1].split(", ")


def emit_csv(result, path, t_stationary=None):
    """One row per (time, node): t, coordinates, u, u_t, |Du|, trace(D^2 u).
    A stationary result, whose ``u`` is a GridFn, is one slice at time
    ``t_stationary`` with u_t = 0.  The coordinates are formatted once per
    grid and t once per slice."""
    u = result.u
    if isinstance(u, GridFn):
        u = SpaceTimeFn(u.grid, [t_stationary], u.values[None])
    grid = u.grid
    nodes = [",".join(xs) for xs in zip(*map(_reprs, grid.mesh()))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        header = ["t"] + [f"x{i + 1}" for i in range(grid.d)] \
            + ["u", "ut", "grad_norm", "hess_trace"]
        fh.write(",".join(header) + "\n")
        for k, t in enumerate(u.times):
            fn = u.slice_fn(k)
            gnorm = np.sqrt(sum(g.values ** 2 for g in fd_gradient(fn)))
            uv = u.values[k]
            ut = u.dt_values[k] if u.has_dt else np.zeros_like(uv)
            t_str = repr(float(t))
            fh.writelines(
                f"{t_str},{x},{v},{vt},{g},{lap}\n"
                for x, v, vt, g, lap in zip(
                    nodes, _reprs(uv), _reprs(ut), _reprs(gnorm),
                    _reprs(fd_laplacian(fn).values)))


def emit_plot_script(report, path, csv_name="solution.csv"):
    """Plain gnuplot script: empirical constants against the sweep
    parameter, embedding ratios against h (log-log), and solution slices."""
    lines = ["# schauderlab report plots (gnuplot)", "set datafile separator ','"]
    sch = next((a for a in report.get("audits", []) if a["name"] == "schauder"),
               None)
    if sch is not None:
        ratios = sch.get("details", {}).get("ratios", {})
        lines.append("$schauder << EOD")
        for label, val in ratios.items():
            beta = label.split("=", 1)[-1]
            lines.append(f"{beta},{val}")
        lines.append("EOD")
        lines.append("set title 'empirical constant vs sweep'")
        lines.append("plot $schauder using 1:2 with linespoints title 'N_emp'")
    emb = next((a for a in report.get("audits", []) if a["name"] == "embedding"),
               None)
    if emb is not None:
        lines.append("$embed << EOD")
        for row in emb.get("details", {}).get("rows", []):
            lines.append(f"{row['h_used']},{row['r1']},{row['r2']}")
        lines.append("EOD")
        lines.append("set logscale xy")
        lines.append("set title 'embedding ratios vs h'")
        lines.append("plot $embed using 1:2 with linespoints title 'r1', "
                     "$embed using 1:3 with linespoints title 'r2'")
        lines.append("unset logscale")
    lines.append("set title 'solution slices'")
    lines.append(f"plot '{csv_name}' using 2:($1==0?$4:1/0) with points "
                 "title 'u at first slice'")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# entry point

def run(config_path, out_dir=".", seed=None, strict=False, verb="all"):
    os.makedirs(out_dir, exist_ok=True)
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        report = {"schema_version": SCHEMA_VERSION}
        return _error_exit(report, exc, out_dir, "report.json")

    if seed is not None:
        cfg["seed"] = seed
    cfg["strict"] = strict
    np.random.seed(cfg["seed"])

    report = {
        "schema_version": SCHEMA_VERSION,
        "config_echo": cfg["raw"],
        "hypotheses": None,
        "solves": [],
        "audits": [],
    }
    out_paths = cfg["output"]
    report_name = out_paths.get("report", "report.json")
    exit_code = 0
    solve_cache = {}

    try:
        hyp = check_hypotheses(cfg["spec"], cfg["grid"].radius, 7, 2, 4)
        solve_cache["hyp"] = hyp
        report["hypotheses"] = {
            "delta": hyp.delta, "bigK": hyp.bigK, "F0": hyp.F0,
            "Falpha": hyp.Falpha, "violations": len(hyp.violations),
            "ok": hyp.ok,
        }
        if strict and not hyp.ok:
            raise NumericalError("hypothesis violations in strict mode")

        if verb in ("solve", "all"):
            result, summary = _run_solve(cfg)
            report["solves"].append(_jsonify(summary))
            if "csv" in out_paths and hasattr(result, "u"):
                emit_csv(result, os.path.join(out_dir, out_paths["csv"]),
                         t_stationary=cfg["spec"].time_window[1])
            if cfg["mode"] == "cauchy":
                solve_cache["cauchy"] = result

        if verb in ("audit", "all"):
            for entry in cfg["suites"]:
                audit = _run_audit(cfg, entry, solve_cache)
                payload = {"name": audit.name,
                           "measured": [[la, v] for (la, v) in audit.measured],
                           "threshold": audit.threshold,
                           "pass": audit.passed,
                           "details": _jsonify(_prune_details(audit.details))}
                report["audits"].append(payload)
                if not audit.passed:
                    exit_code = 2
    except SchauderLabError as exc:
        return _error_exit(report, exc, out_dir, report_name)

    if "plot" in out_paths and verb != "check":
        emit_plot_script(report, os.path.join(out_dir, out_paths["plot"]),
                         csv_name=out_paths.get("csv", "solution.csv"))
    _write_report(report, out_dir, report_name)
    return exit_code


def _error_exit(report, exc, out_dir, report_name):
    """Record ``exc`` in the report's ``error`` section, write the report
    and return the exit code: 3 for an invalid config, which includes a
    field that cannot be evaluated on the box, 4 for a numerical failure."""
    if isinstance(exc, (ConfigError, ExprEvalError)):
        report["error"] = {"kind": "config",
                           "reason": getattr(exc, "reason",
                                             "expression evaluation failed"),
                           "detail": str(exc)}
        code = 3
        print(f"config error: {exc}", file=sys.stderr)
    else:
        report["error"] = {"kind": "numerical", "reason": str(exc)}
        code = 4
        print(f"numerical failure: {exc}", file=sys.stderr)
    _write_report(report, out_dir, report_name)
    return code


def _prune_details(details):
    out = {}
    for key, val in details.items():
        if key == "rows" or isinstance(val, (int, float, str, bool)):
            out[key] = val
        elif isinstance(val, dict):
            out[key] = _prune_details(val)
        elif isinstance(val, (list, tuple)) and len(val) <= 64:
            out[key] = val
    return out


def _write_report(report, out_dir, name):
    os.makedirs(out_dir, exist_ok=True)
    report = dict(report)
    report["timestamp"] = datetime.datetime.now(datetime.timezone.utc) \
        .isoformat()
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(_jsonify(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="schauderlab",
        description="solve parabolic/elliptic problems with growing "
                    "lower-order coefficients and audit the a priori bounds")
    ap.add_argument("verb", choices=("check", "solve", "audit", "all"))
    ap.add_argument("--config", required=True, help="path to the JSON config")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="override the seed")
    ap.add_argument("--strict", action="store_true",
                    help="hypothesis violations become fatal")
    args = ap.parse_args(argv)
    return run(args.config, out_dir=args.out, seed=args.seed,
               strict=args.strict, verb=args.verb)


if __name__ == "__main__":
    sys.exit(main())
