"""Escape a strict saddle in exactly one negative-curvature step.

f(x) = (x1^2 - x2^2)/2 has a saddle at the origin: zero gradient, Hessian
eigenvalues (1, -1).  With eps_h = 0.5 and rho_eff = 1 the step is
eta = C_H*eps_h/rho_eff = eps_h/(2*rho_eff) = 0.25, landing at (0, +-0.25):

    f drops by 0.03125  (the guarantee only asks for (1/24)*eps_h^3 ~ 0.0052)
    ||grad f|| jumps to 0.25, far above eps = 0.01

so one step both decreases f and leaves the small-gradient region.
"""

import numpy as np

from gose import (SmoothnessSpec, ToleranceConfig, certify_second_order,
                  get_problem, one_step_deterministic)

prob = get_problem("quadratic_saddle", d=2, spectrum=[1.0, -1.0], orth=False)
x = np.zeros(2)

tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.01)
smooth = SmoothnessSpec(L=1.0, rho=1.0)  # a valid bound for rho = 0, so rho_eff = 1

ok, grad_norm, lam_min = certify_second_order(prob.oracle, x, tol.eps, tol.eps_h)
print(f"at the origin: ||grad|| = {grad_norm:.3g}, lambda_min = {lam_min:.3f},"
      f" second-order stationary? {ok}")

res = one_step_deterministic(prob.oracle, x, tol, smooth, np.random.default_rng(0))
y = res.point
print(f"negative-curvature direction found, Rayleigh = {res.nc.lambda_hat:.6f}")
print(f"one step of length {np.linalg.norm(y - x):.4g} lands at {np.round(y, 4)}")
print(f"f(y) - f(x) = {prob.oracle.value(y) - prob.oracle.value(x):.6f}"
      f"  (needs <= {-(1 / 24) * tol.eps_h ** 3:.6f})")
print(f"||grad f(y)|| = {np.linalg.norm(prob.oracle.gradient(y)):.4f}"
      f"  (needs > eps = {tol.eps})")

# a convex quadratic produces bottom instead: nothing to escape
convex = get_problem("quadratic_saddle", d=2, spectrum=[0.5, 2.0], orth=False)
res2 = one_step_deterministic(convex.oracle, np.zeros(2), tol,
                              SmoothnessSpec(L=2.0, rho=1.0), np.random.default_rng(0))
print(f"on a convex quadratic the finder returns bottom: escaped = {res2.escaped}")
