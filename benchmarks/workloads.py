"""The benchmark's workloads: one gose.harness.ExperimentConfig each.

Every config mirrors a fixture of tests/test_acceptance.py, so the numbers
measure the runs the acceptance suite already trusts.  A solve is one
gose.harness.run_one(config, seed) call; a run draws `cycle` distinct solve
seeds from the workload seed and repeats them until its time is up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict        # ExperimentConfig fields, JSON-able
    cycle: int          # distinct solve seeds per timed run
    trace_cycle: int    # distinct solve seeds per traced run
    nc_bound: Optional[int] = None  # per-solve cap on NC calls, where the paper gives one


BOWL_SPECTRUM = [-1.0] + [float(v) for v in np.linspace(0.3, 1.0, 9)]

WORKLOADS = {w.name: w for w in [
    Workload(
        name="det_chained",
        why="deterministic chained saddles d=200: Lanczos and its Ritz solves "
            "do most of the work, 8 NC calls per solve, no SCSG",
        config=dict(problem="chained_saddles", problem_params={"d": 200},
                    mode="deterministic", eps=0.01, eps_h=0.5, delta=0.01,
                    rho=1.0, max_outer=200),
        cycle=200, trace_cycle=16, nc_bound=201,
    ),
    Workload(
        name="stoch_bowl",
        why="noisy bowl of acceptance criterion 6: SCSG epochs on replayed "
            "stochastic draws and per-call overhead dominate; NC is small",
        config=dict(problem="bowl_saddle",
                    problem_params={"d": 10, "spectrum": BOWL_SPECTRUM,
                                    "q": 0.5, "seed": 3},
                    mode="stochastic", eps=0.01, eps_h=0.5, delta=0.1,
                    L=7.0, rho=1.0, noise_sigma=0.05, sigma=0.05,
                    h_star=2 * 0.05 ** 2, scsg_b=32, max_outer=80),
        cycle=20, trace_cycle=6,
    ),
    Workload(
        name="fs_pca",
        why="finite-sum PCA n=200 d=20: index-minibatch SCSG and n-component "
            "full gradients; one bottom-only NC call, no escape",
        config=dict(problem="nonconvex_pca",
                    problem_params={"n": 200, "d": 20, "seed": 13},
                    mode="finite_sum", eps=0.01, eps_h=0.5, delta=0.1,
                    L=8.0, rho=1.0, max_outer=1500),
        cycle=100, trace_cycle=20,
    ),
]}
