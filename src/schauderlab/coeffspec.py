"""Operator specifications and sampled verification of the structural
hypotheses (ellipticity delta, bound K, data bounds F0 and F_alpha)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .errors import SpecError
from .expr import (Binary, ExprNode, Num, evaluate, free_vars, max_x_index,
                   parse_expr, to_string)

__all__ = [
    "OperatorSpec", "HypothesisReport", "check_hypotheses",
    "sym_eigvals", "pair_directions", "dyadic_distances",
]


# ---------------------------------------------------------------------------
# symmetric eigenvalues, d <= 3: closed form for d <= 2, cyclic Jacobi for d = 3

def _jacobi_eigvals(m, tol=1e-13, max_sweeps=30):
    a = np.array(m, dtype=float)
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
        if off < tol * max(1.0, np.max(np.abs(np.diag(a)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def sym_eigvals(m):
    """Eigenvalues of a symmetric d x d matrix (d <= 3), ascending."""
    m = np.asarray(m, dtype=float)
    d = m.shape[0]
    if d == 1:
        return np.array([m[0, 0]])
    if d == 2:
        tr = m[0, 0] + m[1, 1]
        disc = np.sqrt(max((m[0, 0] - m[1, 1]) ** 2 / 4.0 + m[0, 1] ** 2, 0.0))
        return np.array([tr / 2.0 - disc, tr / 2.0 + disc])
    if d == 3:
        return _jacobi_eigvals(m)
    raise SpecError(f"eigenvalues implemented for d <= 3, got d = {d}")


def _eig_bounds_many(a_vals):
    """Smallest/largest eigenvalue for a stack of symmetric matrices.

    a_vals has shape (d, d, N); returns (lam_min, lam_max) of shape (N,).
    Closed form for d <= 2, per-point Jacobi for d = 3.
    """
    d = a_vals.shape[0]
    if d == 1:
        v = a_vals[0, 0]
        return v, v
    if d == 2:
        a11, a22, a12 = a_vals[0, 0], a_vals[1, 1], a_vals[0, 1]
        tr = 0.5 * (a11 + a22)
        disc = np.sqrt(np.maximum((a11 - a22) ** 2 / 4.0 + a12 ** 2, 0.0))
        return tr - disc, tr + disc
    n = a_vals.shape[-1]
    lo = np.empty(n)
    hi = np.empty(n)
    for k in range(n):
        w = _jacobi_eigvals(a_vals[:, :, k])
        lo[k] = w[0]
        hi[k] = w[-1]
    return lo, hi


# ---------------------------------------------------------------------------
# operator specification

def _as_node(e):
    if isinstance(e, str):
        return parse_expr(e)
    return e


@dataclass(frozen=True)
class OperatorSpec:
    """Second-order operator a^ij D_ij + b^i D_i - c with data f on a finite
    time window; all fields are expression trees in (t, x1..xd)."""

    d: int
    a: Tuple[Tuple[ExprNode, ...], ...]
    b: Tuple[ExprNode, ...]
    c: ExprNode
    f: ExprNode
    alpha: float
    time_window: Tuple[float, float]
    t_breakpoints: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise SpecError(f"dimension must be 1, 2, or 3, got {self.d}")
        if not (0.0 < self.alpha < 1.0):
            raise SpecError(f"alpha must lie in (0, 1), got {self.alpha}")
        T, S = self.time_window
        if not (np.isfinite(T) and np.isfinite(S) and T < S):
            raise SpecError(f"time window must be finite with T < S, got {self.time_window}")
        if len(self.a) != self.d or any(len(row) != self.d for row in self.a):
            raise SpecError("a must be a d x d matrix of expressions")
        if len(self.b) != self.d:
            raise SpecError("b must be a d-vector of expressions")
        for node in self.all_fields():
            k = max_x_index(node)
            if k > self.d:
                raise SpecError(
                    f"expression '{to_string(node)}' uses x{k} but d = {self.d}")
        for i in range(self.d):
            for j in range(i + 1, self.d):
                if self.a[i][j] is not self.a[j][i]:
                    raise SpecError("a must be stored structurally symmetric; "
                                    "use OperatorSpec.make")
        if tuple(sorted(self.t_breakpoints)) != self.t_breakpoints:
            raise SpecError("t_breakpoints must be sorted")

    @staticmethod
    def make(d, a, b, c, f, alpha, time_window, t_breakpoints=()):
        """Build a spec from expressions or strings; symmetrizes a structurally
        (off-diagonal entries that disagree are averaged pointwise)."""
        a_nodes = [[_as_node(a[i][j]) for j in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                if a_nodes[i][j] == a_nodes[j][i]:
                    a_nodes[j][i] = a_nodes[i][j]
                else:
                    avg = Binary("*", Num(0.5),
                                 Binary("+", a_nodes[i][j], a_nodes[j][i]))
                    a_nodes[i][j] = avg
                    a_nodes[j][i] = avg
        return OperatorSpec(
            d=d,
            a=tuple(tuple(row) for row in a_nodes),
            b=tuple(_as_node(e) for e in b),
            c=_as_node(c),
            f=_as_node(f),
            alpha=float(alpha),
            time_window=(float(time_window[0]), float(time_window[1])),
            t_breakpoints=tuple(sorted(float(x) for x in t_breakpoints)),
        )

    def all_fields(self):
        out = [self.c, self.f]
        out.extend(self.b)
        for row in self.a:
            out.extend(row)
        return out

    def with_fields(self, a=None, b=None, c=None, f=None):
        return replace(self,
                       a=self.a if a is None else a,
                       b=self.b if b is None else b,
                       c=self.c if c is None else c,
                       f=self.f if f is None else f)

    def eval_a(self, t, xs):
        """a at broadcast points, shape (d, d) + broadcast shape."""
        rows = [[np.asarray(evaluate(self.a[i][j], t, xs))
                 for j in range(self.d)] for i in range(self.d)]
        return np.array(rows)

    def eval_b(self, t, xs):
        return np.array([np.asarray(evaluate(bi, t, xs)) for bi in self.b])

    def eval_c(self, t, xs):
        return np.asarray(evaluate(self.c, t, xs))

    def eval_f(self, t, xs):
        return np.asarray(evaluate(self.f, t, xs))

    def is_time_independent(self):
        """True when no field, the data f included, has t as a free
        variable."""
        return not any("t" in free_vars(e) for e in self.all_fields())

    def coefficients_time_independent(self):
        """True when none of a, b, c has t as a free variable, that is when
        the operator L itself does not change in time; f may still."""
        coeffs = [self.c, *self.b, *(e for row in self.a for e in row)]
        return not any("t" in free_vars(e) for e in coeffs)


# ---------------------------------------------------------------------------
# hypothesis checking

@dataclass(frozen=True)
class HypothesisReport:
    delta: float
    bigK: float
    F0: float
    Falpha: float
    violations: Tuple[tuple, ...] = ()

    @property
    def ok(self):
        return self.delta > 0.0 and not self.violations


def pair_directions(d):
    """Unit directions for pair sampling: coordinate axes plus all diagonals
    with entries in {-1, 0, 1}, one representative per sign class."""
    dirs = []
    for pattern in itertools.product((-1, 0, 1), repeat=d):
        if all(p == 0 for p in pattern):
            continue
        first = next(p for p in pattern if p != 0)
        if first < 0:  # -v and v give the same pairs
            continue
        dirs.append(np.array(pattern, dtype=float))
    dirs.sort(key=lambda v: (np.count_nonzero(v), tuple(v)))
    return [v / np.linalg.norm(v) for v in dirs]


def dyadic_distances(n_pairs, cap=1.0):
    """Distances {cap, cap/2, ..., cap/2^(n_pairs-1)}."""
    return [cap * 2.0 ** (-k) for k in range(n_pairs)]


def _dyadic_midpoint_offsets(n_min):
    """Nested-in-count offsets in (0, 1): midpoints of dyadic refinements,
    accumulated level by level until at least n_min points."""
    offs = []
    m = 0
    while len(offs) < n_min:
        level = [(2 * j + 1) / 2.0 ** (m + 1) for j in range(2 ** m)]
        offs.extend(level)
        m += 1
    return sorted(offs)


def _sample_times(window, breakpoints, n_time):
    T, S = window
    cuts = [T] + [b for b in breakpoints if T < b < S] + [S]
    times = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        for off in _dyadic_midpoint_offsets(n_time):
            times.append(lo + off * (hi - lo))
    return sorted(times)


def check_hypotheses(spec, box_radius, n_space, n_time, n_pairs,
                     quotient_cap=1e6):
    """Sampled audit of the structural hypotheses on [-R, R]^d.

    delta  = min over samples of min(smallest eigenvalue of a, c)
    bigK   = max over samples of largest eigenvalue of a and of the
             x-Holder quotients of a, b, c over pairs with |x - y| <= 1
    F0     = max over samples of |f| / c
    Falpha = max x-Holder quotient of f over the same pairs

    Pair partners sit at dyadic distances {1, 1/2, ...} from each anchor
    along coordinate and diagonal directions; both pair points share the
    same time sample, so step discontinuities in t never enter quotients.
    Sample sets are nested under n_space -> 2*n_space - 1 and increasing
    n_time / n_pairs, which makes the reported constants monotone.
    """
    if box_radius <= 0:
        raise SpecError("box_radius must be positive")
    if min(n_space, n_time, n_pairs) < 2:
        raise SpecError("sample counts must be at least 2")

    R = float(box_radius)
    d = spec.d
    axes = np.linspace(-R, R, n_space)
    mesh = np.meshgrid(*([axes] * d), indexing="ij")
    anchors = np.stack([m.ravel() for m in mesh], axis=-1)  # (N, d)
    times = _sample_times(spec.time_window, spec.t_breakpoints, n_time)
    dirs = pair_directions(d)
    dists = dyadic_distances(n_pairs)

    delta = np.inf
    bigK = 0.0
    F0 = 0.0
    Falpha = 0.0
    violations = []

    xs_anchor = [anchors[:, i] for i in range(d)]
    for t in times:
        a_vals = spec.eval_a(t, xs_anchor)          # (d, d, N)
        c_vals = spec.eval_c(t, xs_anchor)          # (N,)
        f_vals = spec.eval_f(t, xs_anchor)
        lam_min, lam_max = _eig_bounds_many(a_vals)

        k_min = int(np.argmin(lam_min))
        if lam_min[k_min] <= 0.0:
            violations.append(("ellipticity", (t, tuple(anchors[k_min])),
                               float(lam_min[k_min])))
        k_c = int(np.argmin(c_vals))
        if c_vals[k_c] <= 0.0:
            violations.append(("potential", (t, tuple(anchors[k_c])),
                               float(c_vals[k_c])))

        delta = min(delta, float(np.min(lam_min)), float(np.min(c_vals)))
        bigK = max(bigK, float(np.max(lam_max)))
        pos = c_vals > 0.0
        if np.any(pos):
            F0 = max(F0, float(np.max(np.abs(f_vals[pos]) / c_vals[pos])))

        for u in dirs:
            for dist in dists:
                partners = anchors + dist * u
                inside = np.all(np.abs(partners) <= R + 1e-12, axis=1)
                if not np.any(inside):
                    continue
                base = anchors[inside]
                part = partners[inside]
                xs_b = [base[:, i] for i in range(d)]
                xs_p = [part[:, i] for i in range(d)]
                denom = dist ** spec.alpha

                worst = 0.0
                worst_pt = None
                for i in range(d):
                    for j in range(i, d):
                        q = np.abs(evaluate(spec.a[i][j], t, xs_b)
                                   - evaluate(spec.a[i][j], t, xs_p)) / denom
                        k = int(np.argmax(q))
                        if q[k] > worst:
                            worst, worst_pt = float(q[k]), (tuple(base[k]), tuple(part[k]))
                for i in range(d):
                    q = np.abs(evaluate(spec.b[i], t, xs_b)
                               - evaluate(spec.b[i], t, xs_p)) / denom
                    k = int(np.argmax(q))
                    if q[k] > worst:
                        worst, worst_pt = float(q[k]), (tuple(base[k]), tuple(part[k]))
                qc = np.abs(evaluate(spec.c, t, xs_b)
                            - evaluate(spec.c, t, xs_p)) / denom
                k = int(np.argmax(qc))
                if qc[k] > worst:
                    worst, worst_pt = float(qc[k]), (tuple(base[k]), tuple(part[k]))

                if worst > bigK:
                    bigK = worst
                if worst > quotient_cap:
                    violations.append(("holder_cap", (t,) + worst_pt, worst))

                qf = np.abs(evaluate(spec.f, t, xs_b)
                            - evaluate(spec.f, t, xs_p)) / denom
                kf = int(np.argmax(qf))
                if qf[kf] > Falpha:
                    Falpha = float(qf[kf])
                if qf[kf] > quotient_cap:
                    violations.append(("f_holder_cap",
                                       (t, tuple(base[kf]), tuple(part[kf])),
                                       float(qf[kf])))

    return HypothesisReport(delta=float(delta), bigK=float(bigK),
                            F0=float(F0), Falpha=float(Falpha),
                            violations=tuple(violations))
