"""Nonconvex optimization with one-step saddle escaping.

The drivers split the domain by gradient-norm magnitude: gradient-based
machinery runs only where the gradient is large, and each small-gradient
region is left with a single negative-curvature descent step, so curvature is
computed at most once per region entry.
"""

from .core import (Capabilities, Certificate, ConfigError, CountingOracle,
                   EvalCounters, GoseError, ObjectiveOracle, SmoothnessSpec,
                   ToleranceConfig, as_counting, finite_diff_hvp)
from .drivers import (RunReport, TraceRecord, amplify, gose_deterministic,
                      gose_finite_sum, gose_stochastic)
from .escape import (EscapeResult, adjust_direction, escape_step_length,
                     one_step_deterministic, one_step_finite_sum,
                     one_step_stochastic)
from .ncfind import (NcOutcome, approx_nc_deterministic, approx_nc_finite_sum,
                     approx_nc_stochastic, lanczos_min_eig)
from .problems import (ProblemSpec, as_finite_sum, as_streaming,
                       certify_second_order, dense_hessian, get_problem,
                       list_problems, make_bowl_saddle, make_chained_saddles,
                       make_nonconvex_pca, make_quadratic_saddle,
                       make_saddle_path, with_gradient_noise)
from .solvers import (ScsgConfig, SolveResult, anchor_table, derive_scsg_params,
                      estimate_variance_bound, gd_to_stationarity, guarded_agd,
                      sample_geometric, scsg_epoch)

__version__ = "0.1.0"

__all__ = [
    "Capabilities", "Certificate", "ConfigError", "CountingOracle",
    "EvalCounters", "GoseError", "ObjectiveOracle", "SmoothnessSpec",
    "ToleranceConfig", "as_counting", "finite_diff_hvp",
    "RunReport", "TraceRecord", "amplify", "gose_deterministic",
    "gose_finite_sum", "gose_stochastic",
    "EscapeResult", "adjust_direction", "escape_step_length",
    "one_step_deterministic", "one_step_finite_sum", "one_step_stochastic",
    "NcOutcome", "approx_nc_deterministic",
    "approx_nc_finite_sum", "approx_nc_stochastic", "lanczos_min_eig",
    "ProblemSpec", "as_finite_sum", "as_streaming", "certify_second_order",
    "dense_hessian", "get_problem", "list_problems", "make_bowl_saddle",
    "make_chained_saddles", "make_nonconvex_pca", "make_quadratic_saddle",
    "make_saddle_path", "with_gradient_noise",
    "ScsgConfig", "SolveResult", "anchor_table", "derive_scsg_params",
    "estimate_variance_bound", "gd_to_stationarity", "guarded_agd",
    "sample_geometric", "scsg_epoch",
]
