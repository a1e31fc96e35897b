"""Seeded random instances for property sweeps (tests and CLI share these)."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .numgrid import GridFn, WeightedMeasure
from .youngfn import YoungParams

RNG_NAME = "PCG64"


def rng_from_seed(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def random_measure(rng: np.random.Generator, n_min: int = 8, n_max: int = 64,
                   mass_lo: float = 0.05, mass_hi: float = 20.0) -> WeightedMeasure:
    n = int(rng.integers(n_min, n_max + 1))
    nodes = np.sort(rng.uniform(0.0, 10.0, size=n))
    nodes = nodes + np.arange(n) * 1e-9  # break ties
    weights = rng.uniform(0.2, 1.0, size=n)
    target_mass = float(np.exp(rng.uniform(np.log(mass_lo), np.log(mass_hi))))
    weights *= target_mass / weights.sum()
    return WeightedMeasure(nodes, weights)


def random_step_fn(rng: np.random.Generator, measure: WeightedMeasure | None = None,
                   scale_hi: float = 100.0, zero_frac: float = 0.2) -> GridFn:
    """Nonnegative piecewise-constant values; a random fraction forced to 0."""
    m = measure if measure is not None else random_measure(rng)
    n = m.nodes.size
    levels = np.exp(rng.uniform(np.log(1e-3), np.log(scale_hi), size=n))
    zeros = rng.random(n) < zero_frac
    levels[zeros] = 0.0
    return GridFn(m, levels)


def random_young_params(rng: np.random.Generator,
                        p_range=(1.0, 3.0), q_range=(0.0, 3.0),
                        r_range=(0.0, 3.0)) -> YoungParams:
    return YoungParams(
        float(rng.uniform(*p_range)),
        float(rng.uniform(*q_range)),
        float(rng.uniform(*r_range)),
    )
