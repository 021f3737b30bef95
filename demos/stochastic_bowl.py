"""Sampling-only optimization of a noisy confined saddle.

The objective is a quadratic saddle plus a quartic bowl, seen only through
noisy gradient draws.  Each outer iteration measures a batch gradient: above
eps/2 it runs one variance-reduced epoch anchored at that batch; below, it
takes a single stochastic escape step.  The run certifies itself against the
noise-free oracle afterwards, and the amplification wrapper drives the
constant per-run success probability toward one.
"""

import numpy as np

from gose import (SmoothnessSpec, ToleranceConfig, amplify,
                  certify_second_order, derive_scsg_params, get_problem,
                  gose_stochastic, with_gradient_noise)

d, sigma = 10, 0.05
spectrum = list(np.concatenate([[-1.0], np.linspace(0.3, 1.0, d - 1)]))
prob = get_problem("bowl_saddle", d=d, spectrum=spectrum, q=0.5, seed=3)
noisy = with_gradient_noise(prob, sigma=sigma)
print(f"confined saddle in R^{d}: minimum value {prob.known_minimum_value},"
      f" gradient noise sigma = {sigma}")


def run(seed):
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=80)
    smooth = SmoothnessSpec(L=7.0, rho=1.0, h_star=2 * sigma ** 2, sigma=sigma)
    scsg = derive_scsg_params(tol, smooth, "stochastic", b_override=32)
    return gose_stochastic(noisy.oracle, np.zeros(d), tol, smooth,
                           scsg_cfg=scsg, rng=np.random.default_rng(seed))


successes = 0
for seed in range(10):
    report = run(seed)
    c = report.certificate
    ok, _, lam = certify_second_order(prob.oracle, c.point, 0.01, 0.5)
    successes += ok
    print(f"seed {seed}: {c.status:<24} epochs={c.counters.epochs_run:3d}"
          f" nc_calls={c.counters.nc_calls}"
          f" f={prob.oracle.value(c.point):8.4f} certified={ok}")
print(f"\ncertified on {successes}/10 runs")

amplified = amplify(run, reps=12,
                    certifier=lambda p: certify_second_order(
                        prob.oracle, p, 0.01, 0.5)[0],
                    base_seed=100)
print(f"amplify(reps=12): all_runs_failed={amplified.all_runs_failed},"
      f" f={prob.oracle.value(amplified.certificate.point):.4f}")
