"""Finite-sum driver on nonconvex PCA.

f(x) = -(1/2n) sum (a_i'x)^2 + ||x||^4/4 over n data vectors: the origin is a
strict saddle and every local minimum is global, sitting along the top
eigenvector of the empirical covariance at value -lambda_1^2/4.  The driver
measures the full gradient each outer iteration as the mean of the n
component gradients, n work units, and keeps them: the variance-reduced epoch
that follows (batch n, minibatch 1) takes its anchor side from them and pays
only for the component gradient at its current point, one unit per step.  So
the counters show no grad_evals.  The origin saddle is escaped with one
curvature step built from per-component Hessian-vector products.
"""

import numpy as np

from gose import (SmoothnessSpec, ToleranceConfig, certify_second_order,
                  get_problem, gose_finite_sum)

pca = get_problem("nonconvex_pca", n=200, d=20, seed=13)
print(f"n=200 components in R^20, global minimum value"
      f" {pca.known_minimum_value:.6f}")

tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=1500)
smooth = SmoothnessSpec(L=8.0, rho=1.0)
x0 = np.zeros(20)  # start exactly on the saddle
report = gose_finite_sum(pca.oracle, x0, tol, smooth,
                         rng=np.random.default_rng(0))

c = report.certificate
ok, grad_norm, lam_min = certify_second_order(pca.oracle, c.point, tol.eps,
                                              tol.eps_h)
print(f"status: {c.status}")
print(f"final f = {pca.oracle.value(c.point):.6f}"
      f"  (gap to optimum {pca.oracle.value(c.point) - pca.known_minimum_value:.2e})")
print(f"certified: {ok}  (||grad|| = {grad_norm:.2e}, lambda_min = {lam_min:.3f})")
print("counters:", c.counters.as_dict())

small = [r for r in report.trace if r.branch == "small_gradient"]
print(f"\n{len(report.trace)} outer iterations, {len(small)} small-gradient"
      f" entries, {c.counters.escape_steps} escape step(s):")
for rec in small:
    kind = "escape" if rec.escape_taken else "bottom (terminate)"
    print(f"  k={rec.k:4d}  ||g||={rec.grad_norm:.2e}  f={rec.f_value:9.6f}  {kind}")
