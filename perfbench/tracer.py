"""In-memory span tracer that hooks schauderlab's layers from the outside.

Nothing under ``src/`` is instrumented. ``install`` replaces module
attributes with timing wrappers: each schauderlab function wherever it was
imported by name, and the scipy entry points the solver and the kernel call
(``scipy.sparse.linalg``, ``scipy.ndimage``, ``scipy.signal``), so that a
later replacement of the step solver or of the convolution route is still
counted. A name that no longer exists is skipped and reports zero calls.

Spans carry their parent and stay in memory; ``metrics`` folds them into
the per-layer figures when the sample ends.
"""

import os
import sys
import time

import numpy as np

# span name -> [(module, attribute), ...]; "Class.method" patches a method
LAYER_HOOKS = {
    "expr.evaluate": [("schauderlab.expr", "evaluate")],
    "coeffspec.check_hypotheses": [("schauderlab.coeffspec",
                                    "check_hypotheses")],
    "holder.seminorm": [("schauderlab.holder", n) for n in (
        "holder_seminorm", "holder_seminorm_stack", "norm_2alpha",
        "alpha_norm")],
    "holder.fd": [("schauderlab.holder", n) for n in (
        "fd_gradient", "fd_hessian", "fd_laplacian")],
    "kernel.potential_G": [("schauderlab.kernel", "potential_G")],
    "kernel.accumulate_A": [("schauderlab.kernel", "accumulate_A")],
    "kernel.heat_solve": [("schauderlab.kernel", "heat_solve")],
    "characteristics": [("schauderlab.characteristics", n) for n in (
        "flow", "particular_u0", "cutoff_eta", "gauge_translate",
        "gauge_exp", "FrozenOperator.deviation_report")],
    "solver.solve_cauchy": [("schauderlab.solver", "solve_cauchy")],
    "solver.continuation_solve": [("schauderlab.solver",
                                   "continuation_solve")],
    "solver.assemble": [("schauderlab.solver", n) for n in (
        "build_operator_matrix", "eval_coefficients")],
    "verify.model_solution": [("schauderlab.verify", "model_solution")],
    "cli.load_config": [("schauderlab.cli", "load_config")],
    "cli.emit_csv": [("schauderlab.cli", "emit_csv")],
    "cli.report": [("schauderlab.cli", "_write_report")],
}
AUDITS = ("max_principle", "schauder", "time_holder", "integral_residual",
          "gauge_independence", "localization", "embedding")
for _audit in AUDITS:
    LAYER_HOOKS[f"verify.{_audit}"] = [("schauderlab.verify",
                                        f"audit_{_audit}")]

FACTORIZE = ("spilu", "splu", "factorized", "spsolve")
KRYLOV = ("bicgstab", "gmres", "cg", "minres", "lgmres", "gcrotmk", "qmr")
CONVOLVE = [("scipy.ndimage", n) for n in (
    "convolve", "convolve1d", "correlate", "correlate1d")] \
    + [("scipy.signal", n) for n in (
        "convolve", "fftconvolve", "oaconvolve", "correlate")]

# names reported with .calls and .self_s
TIMED = sorted(set(LAYER_HOOKS) | {"kernel.convolve", "solver.factorize",
                                   "solver.linear_solve"})


class Tracer:
    """Spans (name, start, end, parent) and counters of one process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.stack = []
        self.counts = {}
        self.midpoints = []  # accumulate_A end times under potential_G
        self.patched = []    # (object, attribute, original), for uninstall

    def replace(self, obj, attr, new):
        self.patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def uninstall(self):
        """Restore every attribute ``install`` replaced."""
        while self.patched:
            obj, attr, original = self.patched.pop()
            setattr(obj, attr, original)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def leave(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def span_fn(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args, kwargs)`` may return
        replacement (args, kwargs), ``after(args, kwargs, result)`` counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def self_times(self):
        """Per name: (calls, self seconds). Self time is a span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child[k])
        return out


def _replace_everywhere(tracer, original, wrapper, package="schauderlab"):
    """Point every module of ``package`` that holds ``original`` under some
    name at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package
                               or mod_name.startswith(package + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                tracer.replace(mod, attr, wrapper)


def _patch(tracer, mod_name, attr, name, before=None, after=None):
    mod = sys.modules.get(mod_name)
    if mod is None:
        return False
    if "." in attr:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(mod, cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if fn is None:
            return False
        tracer.replace(cls, meth, tracer.span_fn(name, fn, before, after))
        return True
    fn = getattr(mod, attr, None)
    if fn is None or not callable(fn):
        return False
    _replace_everywhere(tracer, fn, tracer.span_fn(name, fn, before, after))
    return True


def _points(args, kwargs):
    t = kwargs.get("t", args[1] if len(args) > 1 else 0.0)
    xs = kwargs.get("xs", args[2] if len(args) > 2 else ())
    shapes = [np.shape(t)] + [np.shape(x) for x in xs]
    return int(np.prod(np.broadcast_shapes(*shapes)))


class _CountedFactor:
    """Proxy for a direct factorization whose ``solve`` is a linear solve."""

    def __init__(self, tracer, factor):
        self._factor = factor
        self.solve = tracer.span_fn("solver.linear_solve", factor.solve,
                                    after=_count_solve(tracer))

    def __getattr__(self, attr):
        return getattr(self._factor, attr)


def install(tracer):
    """Install every hook; returns the list of hooks that found no target."""
    import scipy.ndimage  # noqa: F401  (make sure the targets are loaded)
    import scipy.signal  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    missing = []
    extra = {
        "expr.evaluate": dict(after=lambda a, k, r: tracer.count(
            "expr.evaluate.points", _points(a, k))),
        "cli.emit_csv": dict(after=lambda a, k, r: tracer.count(
            "cli.emit_csv.bytes", _file_size(a[1] if len(a) > 1
                                             else k.get("path")))),
        "cli.report": dict(after=lambda a, k, r: tracer.count(
            "cli.report.bytes", _file_size(os.path.join(
                a[1] if len(a) > 1 else k["out_dir"],
                a[2] if len(a) > 2 else k["name"])))),
        "kernel.accumulate_A": dict(after=lambda a, k, r: _midpoint(
            tracer, a, k)),
        "solver.continuation_solve": dict(after=lambda a, k, r: tracer.count(
            "solver.picard_iters",
            int(getattr(r, "iterations", {}).get("picard_total", 0)))),
    }
    for name, targets in LAYER_HOOKS.items():
        for mod_name, attr in targets:
            if not _patch(tracer, mod_name, attr, name, **extra.get(name, {})):
                missing.append(f"{mod_name}.{attr}")

    for attr in FACTORIZE:
        after = None
        if attr == "spsolve":
            after = _count_solve(tracer)
        if not _patch_scipy(tracer, "scipy.sparse.linalg", attr,
                            "solver.factorize", after=after,
                            wrap_result=attr in ("splu", "factorized")):
            missing.append(f"scipy.sparse.linalg.{attr}")
    for attr in KRYLOV:
        if not _patch_scipy(tracer, "scipy.sparse.linalg", attr,
                            "solver.linear_solve",
                            before=_krylov_callback(tracer, attr != "gmres"),
                            after=_count_solve(tracer)):
            missing.append(f"scipy.sparse.linalg.{attr}")
    for mod_name, attr in CONVOLVE:
        if not _patch_scipy(tracer, mod_name, attr, "kernel.convolve",
                            after=_count_madds(tracer), reentrant=False):
            missing.append(f"{mod_name}.{attr}")
    return missing


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _midpoint(tracer, args, kwargs):
    if tracer.inside("kernel.potential_G"):
        t = kwargs.get("t", args[2] if len(args) > 2 else None)
        tracer.midpoints.append(round(float(t), 12))


def _count_solve(tracer):
    return lambda a, k, r: tracer.count("solver.linear_solves")


def _count_madds(tracer):
    def after(args, kwargs, result):
        data = args[0] if args else kwargs.get("input", kwargs.get("in1"))
        weights = args[1] if len(args) > 1 else kwargs.get(
            "weights", kwargs.get("in2"))
        tracer.count("kernel.convolve.madds",
                     int(np.size(data)) * int(np.size(weights)))
    return after


def _krylov_callback(tracer, inject):
    """Count Krylov iterations through the caller's callback, or through one
    added when ``inject`` (gmres gets none: adding one changes its mode)."""

    def before(args, kwargs):
        user_cb = kwargs.get("callback")
        if user_cb is None:
            if inject:
                kwargs = dict(kwargs, callback=lambda _x: tracer.count(
                    "solver.krylov_iters"))
            return args, kwargs

        def cb(*a, **k):
            tracer.count("solver.krylov_iters")
            return user_cb(*a, **k)

        return args, dict(kwargs, callback=cb)

    return before


def _patch_scipy(tracer, mod_name, attr, name, before=None, after=None,
                 wrap_result=False, reentrant=True):
    """Wrap a scipy function on its public module. Nested calls inside an
    open span of the same name are passed through when not ``reentrant``,
    so a convolution implemented through another counts once."""
    mod = sys.modules.get(mod_name)
    fn = getattr(mod, attr, None) if mod is not None else None
    if fn is None:
        return False
    traced = tracer.span_fn(name, fn, before, after)

    def wrapper(*args, **kwargs):
        if not reentrant and tracer.current() == name:
            return fn(*args, **kwargs)
        result = traced(*args, **kwargs)
        if wrap_result:
            if callable(result) and not hasattr(result, "solve"):
                solve = result
                return tracer.span_fn("solver.linear_solve", solve,
                                      after=_count_solve(tracer))
            return _CountedFactor(tracer, result)
        return result

    wrapper.__wrapped__ = fn
    tracer.replace(mod, attr, wrapper)
    return True


def metrics(tracer):
    """Per-layer figures of one traced sample, by metric name."""
    times = tracer.self_times()
    out = {}
    for name in TIMED:
        calls, self_s = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for name in ("expr.evaluate.points", "kernel.convolve.madds",
                 "solver.linear_solves", "solver.krylov_iters",
                 "solver.picard_iters", "cli.emit_csv.bytes",
                 "cli.report.bytes"):
        out[name] = tracer.counts.get(name, 0)
    n_fact = out["solver.factorize.calls"]
    out["solver.factor_reuse"] = (out["solver.linear_solves"] / n_fact
                                  if n_fact else 0.0)
    mids = tracer.midpoints
    out["kernel.cells_distinct_frac"] = (len(set(mids)) / len(mids)
                                         if mids else 0.0)
    return out
