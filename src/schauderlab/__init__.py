"""Numerical laboratory for second-order parabolic and elliptic equations
with growing lower-order coefficients."""

from .coeffspec import HypothesisReport, OperatorSpec, check_hypotheses
from .errors import (ConfigError, ExprEvalError, ExprSyntaxError,
                     NumericalError, SchauderLabError, SpecError)
from .expr import eval_field, parse_expr, to_string
from .holder import (ConeSpec, GridFn, HolderReport, SpaceGrid, SpaceTimeFn,
                     cone_matrix_bound, embedding_check, fd_gradient,
                     fd_hessian, holder_seminorm, norm_2alpha)
from .kernel import (GaussParams, TimeMatrixPath, accumulate_A, gauss_kernel,
                     heat_semigroup, heat_solve, mollify, potential_G,
                     potential_G_multi)
from .characteristics import (FlowPath, FrozenOperator, cutoff_eta, flow,
                              freeze, gauge_exp, gauge_translate,
                              particular_u0)
from .solver import (CauchyProblem, SolveResult, continuation_solve,
                     semigroup_T, solve_cauchy, solve_degenerate_c,
                     solve_elliptic, truncate_coeffs)
from .verify import (AuditReport, audit_embedding, audit_gauge_independence,
                     audit_integral_residual, audit_localization,
                     audit_max_principle, audit_schauder, audit_time_holder)

__version__ = "0.1.0"
