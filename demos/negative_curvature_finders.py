"""The negative-curvature finders against a dense eigensolver.

One Lanczos core serves every data access mode; only the Hessian-vector
product source changes: analytic, finite differences of gradients, minibatch
averages of per-component products, or minibatch averages of sampled products.
Each finder re-measures the Rayleigh quotient before returning, so a returned
direction always certifies itself.
"""

import numpy as np

from gose import (ObjectiveOracle, approx_nc_deterministic,
                  approx_nc_finite_sum, approx_nc_stochastic, lanczos_min_eig,
                  make_nonconvex_pca)

rng = np.random.default_rng(0)
d, eps_h, delta = 50, 0.5, 0.01

# plant lambda_min = -1 with a random bulk
q, r = np.linalg.qr(rng.standard_normal((d, d)))
spectrum = rng.uniform(-0.2, 1.0, d)
spectrum[0] = -1.0
A = (q * spectrum) @ q.T
A = 0.5 * (A + A.T)

lam, v = lanczos_min_eig(lambda w: A @ w, d, 60, rng)
dense = float(np.linalg.eigvalsh(A)[0])
print(f"lanczos lambda_min = {lam:.8f}   dense eigensolver = {dense:.8f}")

oracle = ObjectiveOracle(d, lambda x: 0.5 * float(x @ (A @ x)),
                         lambda x: A @ x, hvp=lambda x, v: A @ v)
out = approx_nc_deterministic(oracle, np.zeros(d), eps_h, delta, 1.0, rng)
print(f"analytic HVPs:      {out.kind}, Rayleigh {out.lambda_hat:.4f},"
      f" cost {out.hvp_or_grad_cost} products")

gradient_only = ObjectiveOracle(d, oracle.value, oracle.gradient)
out = approx_nc_deterministic(gradient_only, np.zeros(d), eps_h, delta, 1.0, rng)
print(f"gradients only:     {out.kind}, Rayleigh {out.lambda_hat:.4f},"
      f" cost {out.hvp_or_grad_cost} gradient evals")


def sample_hvp(x, v, rng):
    z = rng.standard_normal(d)
    return A @ v + 0.05 * (z * float(z @ v) - v)  # mean-zero Hessian noise


stochastic = ObjectiveOracle(
    d, oracle.value, oracle.gradient, hvp=oracle.hvp,
    sample_gradient=lambda x, rng: A @ x + 0.05 * rng.standard_normal(d),
    sample_hvp=sample_hvp)
out = approx_nc_stochastic(stochastic, np.zeros(d), eps_h, delta, 1.0, rng)
print(f"sampled HVPs:       {out.kind}, Rayleigh {out.lambda_hat:.4f},"
      f" cost {out.hvp_or_grad_cost} sampled products")

pca = make_nonconvex_pca(n=64, d=10, seed=0, top_eig=1.0)
out = approx_nc_finite_sum(pca.oracle, np.zeros(10), eps_h, delta,
                           pca.known_L, rng)
print(f"finite-sum (PCA origin): {out.kind}, Rayleigh {out.lambda_hat:.4f},"
      f" cost {out.hvp_or_grad_cost} component products")

# positive-semidefinite operator: bottom, always
psd = (q * np.abs(spectrum)) @ q.T
psd_oracle = ObjectiveOracle(d, lambda x: 0.5 * float(x @ (psd @ x)),
                             lambda x: psd @ x, hvp=lambda x, v: psd @ v)
out = approx_nc_deterministic(psd_oracle, np.zeros(d), eps_h, delta, 1.0, rng)
print(f"PSD operator:       {out.kind} (best estimate {out.lambda_hat:.4f})")
