"""The four benchmark workloads.

Each workload is a class with three steps: ``__init__(seed, workdir)``
builds the inputs (set-up, untimed), ``run()`` makes the timed call into
schauderlab's public API, and ``check(result)`` compares the result with an
independent oracle outside the timed region. ``check`` returns
``(ok, err, detail)``; ``err`` is the distance to the reference as a share
of the reference's size.

The seed changes problem parameters only (orientations, phases, scales),
never grid sizes or step counts, so every seed does the same amount of work.
Functions are looked up on their modules at call time, so a traced sample
sees the tracer's wrappers.
"""

import hashlib
import json
import math
import os
import random
import shutil

import numpy as np

import schauderlab
import schauderlab.cli
import schauderlab.kernel
import schauderlab.verify


class OUCauchy:
    """Criterion 04's 2-D Ornstein-Uhlenbeck final-value problem with a
    shifted manufactured solution u = exp(t - 1) exp(-|x - p|^2); the seed
    turns the shift p around the origin at a fixed distance."""

    N, N_TIME, RADIUS, SHIFT = 65, 64, 5.0, 0.25
    TOL = 1e-2

    def __init__(self, seed, workdir):
        theta = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        p, q = self.SHIFT * math.cos(theta), self.SHIFT * math.sin(theta)
        r2 = f"((x1-({p!r}))^2+(x2-({q!r}))^2)"
        f = (f"(4*{r2} - 4 + 2*(x1*(x1-({p!r}))+x2*(x2-({q!r}))))"
             f"*exp(t-1)*exp(-{r2})")
        spec = schauderlab.OperatorSpec.make(
            2, [["1", "0"], ["0", "1"]], ["-x1", "-x2"], "1", f, 0.5,
            (0.0, 1.0))
        grid = schauderlab.SpaceGrid(2, self.RADIUS, self.N)
        x1, x2 = grid.mesh()
        self.bump = np.exp(-((x1 - p) ** 2 + (x2 - q) ** 2))
        self.problem = schauderlab.CauchyProblem(
            spec=spec, g=schauderlab.GridFn(grid, self.bump), grid=grid,
            n_time=self.N_TIME)

    def run(self):
        return schauderlab.solve_cauchy(self.problem)

    def check(self, result):
        u = result.u
        err = max(float(np.max(np.abs(u.values[k] - math.exp(t - 1.0)
                                      * self.bump)))
                  for k, t in enumerate(u.times))
        return err <= self.TOL, err, f"sup error {err:.3e} (bound {self.TOL})"


class Embedding1D:
    """Criterion 08's Gaussian potential with LEVELS dyadic levels of
    sign-switching data, solved by ``model_solution`` at every output time
    of the embedding audit; the seed shifts the spatial phase of each level
    a little (a wider range moves ``err`` by a third from seed to seed)."""

    LEVELS, N, N_TIME_SUB = 4, 257, 4
    T_ANCHOR, T_END = 2.0, 2.5
    TOL = 1e-3

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        terms, breaks = [], set()
        for k in range(self.LEVELS):
            om, per = 2.0 ** k, 4.0 ** -k
            phase = rng.uniform(-0.15, 0.15)
            terms.append(f"{om ** -0.5}*cos({om}*x1+{phase!r})"
                         f"*(2*step(sin({math.pi}*{4.0 ** k}"
                         f"*({self.T_ANCHOR}-t)))-1)")
            j = 1
            while j * per <= max(self.T_ANCHOR,
                                 self.T_END - self.T_ANCHOR) + 1e-12:
                for s in (self.T_ANCHOR - j * per, self.T_ANCHOR + j * per):
                    if 0.0 < s < self.T_END:
                        breaks.add(round(s, 12))
                j += 1
        self.f = schauderlab.parse_expr(
            "exp(-(x1/1.3)^2)*(" + "+".join(terms)
            + f")*step(t)*step({self.T_END}-t)")
        self.breaks = sorted(breaks)
        self.grid = schauderlab.SpaceGrid(1, 2.0, self.N)
        h2s = [4.0 ** -j for j in range(1, self.LEVELS + 1)]
        self.times = sorted({self.T_ANCHOR}
                            | {self.T_ANCHOR - h2 for h2 in h2s}
                            | {self.T_ANCHOR - 0.5 * h2 for h2 in h2s})
        self.path = schauderlab.TimeMatrixPath.identity(1)

    def run(self):
        return schauderlab.verify.model_solution(
            self.path, self.f, self.times, self.grid, self.T_END,
            n_time_sub=self.N_TIME_SUB, f_breakpoints=self.breaks)

    def check(self, result):
        """Relative gap to the Fourier-side oracle at the first and the last
        output time."""
        gaps = []
        for k in (0, len(self.times) - 1):
            oracle = schauderlab.kernel.fourier_oracle_1d(
                self.path, self.f, self.times[k], self.grid, self.T_END,
                n_time_sub=self.N_TIME_SUB, f_breakpoints=self.breaks)
            scale = max(float(np.max(np.abs(result.values[k]))), 1e-300)
            gaps.append(float(np.max(np.abs(oracle.values
                                            - result.values[k]))) / scale)
        err = max(gaps)
        return err <= self.TOL, err, \
            "Fourier-oracle gaps " + ", ".join(f"{g:.2e}" for g in gaps)


class Potential2D:
    """One ``potential_G`` call in 2-D with a rotated, time-varying,
    non-diagonal diffusion, checked by the manufactured identity
    -G f = phi(s) psi; the seed sets the rotation and the eigenvalue paths."""

    N, RADIUS, N_TIME_SUB = 49, 3.5, 16
    S_OUT, T_END = 0.25, 1.0
    TOL = 0.02

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        lams = [f"{rng.uniform(1.35, 1.45)!r}+{rng.uniform(0.28, 0.32)!r}"
                f"*sin({rng.uniform(1.9, 2.1)!r}*t)" for _ in range(2)]
        theta = rng.uniform(0.0, math.pi)
        c, s = math.cos(theta), math.sin(theta)
        l1, l2 = lams
        a11 = f"({c * c!r})*({l1})+({s * s!r})*({l2})"
        a22 = f"({s * s!r})*({l1})+({c * c!r})*({l2})"
        a12 = f"({c * s!r})*(({l1})-({l2}))"
        self.path = schauderlab.TimeMatrixPath.make(
            2, [[a11, a12], [a12, a22]])
        self.grid = schauderlab.SpaceGrid(2, self.RADIUS, self.N)
        x1, x2 = self.grid.mesh()
        self.psi = np.exp(-(x1 ** 2 + x2 ** 2))
        # D^2 psi entries: (4 x_i x_j - 2 delta_ij) psi
        xs = (x1, x2)
        self.d2psi = [[(4.0 * xs[i] * xs[j] - 2.0 * (i == j)) * self.psi
                       for j in range(2)] for i in range(2)]

    def phi(self, t):
        return math.sin(math.pi * t / self.T_END) ** 2 \
            if 0.0 < t < self.T_END else 0.0

    def dphi(self, t):
        if not 0.0 < t < self.T_END:
            return 0.0
        w = math.pi / self.T_END
        return 2.0 * w * math.sin(w * t) * math.cos(w * t)

    def f(self, t):
        a = self.path.eval(t)
        trace = sum(a[i, j] * self.d2psi[i][j]
                    for i in range(2) for j in range(2))
        return self.dphi(t) * self.psi + self.phi(t) * trace

    def run(self):
        return schauderlab.potential_G(self.path, self.f, self.S_OUT,
                                       self.grid, self.T_END,
                                       n_time_sub=self.N_TIME_SUB)

    def check(self, result):
        ref = self.phi(self.S_OUT) * self.psi
        err = float(np.max(np.abs(ref + result.values))) \
            / float(np.max(np.abs(ref)))
        return err <= self.TOL, err, \
            f"|phi psi + G f| / |phi psi| = {err:.3e} (bound {self.TOL})"


class CLIBatch:
    """``schauderlab all`` on four configs in sequence: a generated 2-D
    growing-drift audit config with CSV and plot output, a 1-D continuation
    config, and the two configs shipped in ``configs/``. The seed sets the
    drift scales of the two generated configs. ``err`` compares the shipped
    heat config's CSV with its exact solution."""

    N_2D, N_TIME_2D = 65, 24
    HEAT_TOL = 1e-2
    SHIPPED = ("configs/heat_minimal.json", "configs/schauder_sweep.json")

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        kappa = rng.uniform(0.8, 1.2)
        drift = rng.uniform(0.8, 1.2)
        self.workdir = workdir
        growing = {
            "schema_version": 1,
            "problem": {
                "d": 2, "a": [["1", "0"], ["0", "1"]],
                "b": [f"{-kappa!r}*x1", f"{-kappa!r}*x2"],
                "c": "1+0.5*sqrt(1+x1^2+x2^2)",
                "f": "exp(-(x1^2+x2^2))", "g": "0", "alpha": 0.5,
                "time_window": [0.0, 1.0], "t_breakpoints": []},
            "grid": {"radius": 4.0, "n": self.N_2D,
                     "n_time": self.N_TIME_2D},
            "suites": [{"name": "schauder",
                        "beta_values": [0.0, 1.0, 4.0]},
                       {"name": "max_principle"},
                       {"name": "integral_residual"},
                       {"name": "localization"}],
            "seed": seed,
            "output": {"report": "report.json", "csv": "solution.csv",
                       "plot": "plots.gp"},
        }
        continuation = {
            "schema_version": 1,
            "problem": {
                "d": 1, "a": [["1+0.3*sin(x1)"]],
                "b": [f"{drift!r}*sin(x1)"], "c": "1+0.5*cos(x1)",
                "f": "exp(-x1^2)", "g": "0", "alpha": 0.5,
                "time_window": [0.0, 1.0], "t_breakpoints": []},
            "grid": {"radius": 6.0, "n": 97, "n_time": 16},
            "mode": "continuation",
            "solver": {"lambda_step": 0.25, "picard_tol": 1e-7},
            "seed": seed,
            "output": {"report": "report.json"},
        }
        self.jobs = []
        for name, cfg in (("growing_2d", growing),
                          ("continuation_1d", continuation)):
            self.jobs.append((name, self._write(name, json.dumps(cfg))))
        for path in self.SHIPPED:
            name = os.path.splitext(os.path.basename(path))[0]
            with open(path, encoding="utf-8") as fh:
                self.jobs.append((name, self._write(name, fh.read())))

    def _write(self, name, text):
        job_dir = os.path.join(self.workdir, name)
        shutil.rmtree(job_dir, ignore_errors=True)
        os.makedirs(job_dir)
        path = os.path.join(job_dir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return job_dir

    def run(self):
        return [schauderlab.cli.main(
                    ["all", "--config", os.path.join(job_dir, "config.json"),
                     "--out", os.path.join(job_dir, "out")])
                for _, job_dir in self.jobs]

    def check(self, result):
        """Every exit code 0, every audit passed, and the heat config's
        solution within HEAT_TOL of the exact one. ``self.digest`` hashes the
        reports without their timestamps, for comparison across runs."""
        digest = hashlib.sha256()
        failures = []
        for (name, job_dir), code in zip(self.jobs, result):
            with open(os.path.join(job_dir, "out", "report.json"),
                      encoding="utf-8") as fh:
                report = json.load(fh)
            report.pop("timestamp", None)
            digest.update(json.dumps(report, sort_keys=True).encode())
            if code != 0:
                failures.append(f"{name} exited {code}")
            for audit in report.get("audits", []):
                if not audit["pass"]:
                    failures.append(f"{name} audit {audit['name']} failed")
        err = heat_csv_error(os.path.join(self.workdir, "heat_minimal", "out",
                                          "solution.csv"))
        if not err <= self.HEAT_TOL:
            failures.append(f"heat solution error {err:.3e}")
        detail = "; ".join(failures) if failures else \
            f"all exits 0, audits pass, heat error {err:.3e}"
        self.digest = digest.hexdigest()
        return not failures, err, detail


def heat_csv_error(path):
    """Sup distance, relative to the exact solution's sup, between the CSV
    of ``configs/heat_minimal.json`` and its exact solution. That config
    solves u_t + u_xx - u = exp(-x^2) on (0, 1) with u(1, .) = 0, so

        u(t, x) = -int_0^(1-t) exp(-s) exp(-x^2 / (1 + 4 s)) / sqrt(1 + 4 s) ds,

    evaluated here by 64-point Gauss-Legendre quadrature."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2))
    t, x, u = data[:, 0], data[:, 1], data[:, 2]
    nodes, weights = np.polynomial.legendre.leggauss(64)
    span = (1.0 - t)[:, None]
    s = 0.5 * span * (nodes[None, :] + 1.0)
    integrand = np.exp(-s) * np.exp(-x[:, None] ** 2 / (1.0 + 4.0 * s)) \
        / np.sqrt(1.0 + 4.0 * s)
    exact = -0.5 * span[:, 0] * (integrand @ weights)
    return float(np.max(np.abs(u - exact)) / np.max(np.abs(exact)))


WORKLOADS = {
    "ou2d_cauchy": OUCauchy,
    "embedding_1d": Embedding1D,
    "potential_2d": Potential2D,
    "cli_batch": CLIBatch,
}
