"""How many curvature computations does region splitting save?

A scheme that probes for negative curvature at every iteration pays one
finder call per step, even while the gradient alone is doing all the work.
The region-splitting driver probes only inside small-gradient regions.  On a
path with a single strict saddle between the start and the minimum, that is
two probes total: one to escape the saddle, one to certify the minimum.
"""

import numpy as np

from gose import SmoothnessSpec, ToleranceConfig, get_problem, gose_deterministic
from gose.drivers import always_probe_baseline

prob = get_problem("saddle_path", d=2)
tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.01, max_outer=50)
smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)

print(f"{'seed':>4} {'driver nc_calls':>16} {'baseline nc_calls':>18}")
for seed in range(10):
    gose = gose_deterministic(prob.oracle, prob.x0, tol, smooth,
                              rng=np.random.default_rng(seed))
    base = always_probe_baseline(prob.oracle, prob.x0, tol, smooth,
                                 rng=np.random.default_rng(seed))
    print(f"{seed:>4} {gose.certificate.counters.nc_calls:>16}"
          f" {base.certificate.counters.nc_calls:>18}")

print("\nboth end at the same certified minimum; the baseline just pays a"
      "\ncurvature probe for every gradient step it takes along the way")
