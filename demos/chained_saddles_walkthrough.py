"""Walk a chain of d strict saddles with at most d+1 curvature computations.

The chained problem is a sum of weighted double wells: descent from the
origin can settle one coordinate at a time, and every intermediate rest point
is another strict saddle.  The driver only probes for negative curvature when
the gradient is small, so the whole run needs at most one probe per saddle
plus a final probe that certifies the minimum: d + 1 in total, no matter how
many gradient steps happen in between.  An escape direction that spreads over
several coordinates leaves several saddles at once, so runs often need fewer.
"""

import numpy as np

from gose import (SmoothnessSpec, ToleranceConfig, certify_second_order,
                  get_problem, gose_deterministic)

for d in (2, 5, 10):
    prob = get_problem("chained_saddles", d=d)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.01, max_outer=100)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    report = gose_deterministic(prob.oracle, prob.x0, tol, smooth,
                                rng=np.random.default_rng(0))
    c = report.certificate
    ok, grad_norm, lam_min = certify_second_order(prob.oracle, c.point,
                                                  tol.eps, tol.eps_h)
    print(f"d={d:2d}: status={c.status}  nc_calls={c.counters.nc_calls}"
          f" (bound {d + 1})  escapes={c.counters.escape_steps}"
          f"  certified={ok} (lambda_min={lam_min:.2f})")

# the trace of the d=5 run, iteration by iteration
prob = get_problem("chained_saddles", d=5)
tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.01, max_outer=100)
report = gose_deterministic(prob.oracle, prob.x0, tol,
                            SmoothnessSpec(L=prob.known_L, rho=1.0),
                            rng=np.random.default_rng(0))
print("\nd=5 trace (branch, ||g||, f):")
for rec in report.trace:
    marker = " -> escape" if rec.escape_taken else ""
    print(f"  k={rec.k:2d}  {rec.branch:<14} ||g||={rec.grad_norm:9.2e}"
          f"  f={rec.f_value:9.5f}{marker}")
