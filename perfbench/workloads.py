"""The benchmark's three workloads: inputs built from a seed, and timed items.

Each workload is a closed loop with one caller: its items run one after
another, and each item is a call into public entry points of chi2chaos.
Items look the entry points up on their modules at call time, so the
tracer's wrappers see every call.

* ``scenarios-mc`` -- what users run: ``cli.run_scenario`` on each shipped
  scenario with Monte Carlo on.  The target-CDF inversion does most of the
  work; sampling, k-statistics and the exact engine share the rest.  The
  three targets cover a support edge ((1,) and (1,2)) and a two-sided law
  with no edge ((0.5,-0.5)).
* ``exact-grid`` -- the dense kernel algebra of ``sym_tensor`` and ``chaos``
  alone: ``criterion_statistic`` (plus ``q_chaos_conditions`` at k=2) on
  random kernels across (q, d, k).  No Monte Carlo.  The q=2, d=256 point
  guards the large second-chaos case.
* ``highorder-mc`` -- the other use of ``chaos``: pathwise ``evaluate``
  through the generic Hermite loop, then k-statistics, with no CDF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from chi2chaos import cli, criteria, montecarlo, sym_tensor
from chi2chaos.chaos import ChaosExpansion
from chi2chaos.spectral2 import TargetSpec

# 25 600 rows give cdf_batch 25 600 // 64 = 400 CDF nodes per index, a quarter
# of the shipped 1e5 rows: the four scenarios take about 16 s instead of 50 s,
# which is what the benchmark's run budget holds.
SCENARIO_MC_SAMPLES = 25_600
# Seed s moves every Monte Carlo seed by s * SEED_STRIDE; seed 0 keeps the
# shipped scenario seeds.
SEED_STRIDE = 1000

EXACT_POINTS = ((2, 256, 3), (3, 16, 2), (4, 6, 2), (4, 4, 3), (5, 4, 2))
EXACT_MAX_ORDER = 12  # Gamma_2 of a q=5 kernel reaches order 3q-4 = 11
HIGHORDER_POINTS = ((3, 16), (4, 8), (5, 4), (6, 3))
HIGHORDER_ROWS = 500_000
ALPHAS = (1.0, 2.0, 3.0)  # exact-grid targets use the first k weights


@dataclass
class Item:
    """One timed call; ``output`` turns its result into what the gates check."""

    name: str
    call: Callable[[], object]
    output: Callable[[object], object]
    params: dict = field(default_factory=dict)


def random_kernel(seed: int, q: int, d: int):
    return sym_tensor.random_kernel(q, d, np.random.default_rng((seed, q, d)))


def scenarios_mc(seed: int, out_dir: Path) -> list:
    items = []
    for name, path in cli.shipped_scenarios().items():
        scenario = cli.load_config(path)
        mc_seed = scenario.mc_seed + SEED_STRIDE * seed

        def call(path=path, out=out_dir / name, mc_seed=mc_seed):
            return cli.run_scenario(path, out, mc_samples=SCENARIO_MC_SAMPLES,
                                    seed=mc_seed)

        items.append(Item(name, call, lambda paths: paths[0].read_bytes(),
                          {"scenario": scenario, "mc_seed": mc_seed,
                           "mc_samples": SCENARIO_MC_SAMPLES}))
    return items


def exact_grid(seed: int, out_dir: Path) -> list:
    items = []
    for q, d, k in EXACT_POINTS:
        f = random_kernel(seed, q, d)
        spec = TargetSpec(ALPHAS[:k])
        F = ChaosExpansion.from_kernel(f)

        def call(f=f, F=F, spec=spec):
            report = criteria.criterion_statistic(F, spec,
                                                  max_order=EXACT_MAX_ORDER)
            conditions = None
            if spec.k == 2:
                conditions = criteria.q_chaos_conditions(
                    f, spec, max_order=EXACT_MAX_ORDER)
            return report, conditions

        items.append(Item(f"q{q}-d{d}-k{k}", call, lambda result: result,
                          {"kernel": f, "spec": spec,
                           "max_order": EXACT_MAX_ORDER}))
    return items


def highorder_mc(seed: int, out_dir: Path) -> list:
    items = []
    for position, (q, d) in enumerate(HIGHORDER_POINTS):
        f = random_kernel(seed, q, d)
        F = ChaosExpansion.from_kernel(f)
        mc_seed = SEED_STRIDE * seed + position

        def call(F=F, mc_seed=mc_seed):
            batch = montecarlo.sample_chaos(F, HIGHORDER_ROWS, mc_seed)
            return (batch.values, montecarlo.k_statistics(batch, 4),
                    montecarlo.k_statistic_errors(batch, 4))

        items.append(Item(f"q{q}-d{d}", call, lambda result: result,
                          {"kernel": f, "mc_seed": mc_seed}))
    return items


WORKLOADS = {
    "scenarios-mc": scenarios_mc,
    "exact-grid": exact_grid,
    "highorder-mc": highorder_mc,
}
