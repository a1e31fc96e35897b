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


def random_measure(rng: np.random.Generator) -> WeightedMeasure:
    """8 to 64 nodes (uniform count), sorted uniform draws on [0, 10], with
    weights uniform on [0.2, 1] rescaled to a total mass log-uniform on
    [0.05, 20]."""
    n = int(rng.integers(8, 65))
    nodes = np.sort(rng.uniform(0.0, 10.0, size=n))
    nodes = nodes + np.arange(n) * 1e-9  # break ties
    weights = rng.uniform(0.2, 1.0, size=n)
    target_mass = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
    weights *= target_mass / weights.sum()
    return WeightedMeasure(nodes, weights)


def random_step_fn(rng: np.random.Generator, measure: WeightedMeasure | None = None) -> GridFn:
    """Nonnegative piecewise-constant values, log-uniform on [1e-3, 100],
    on the measure (a ``random_measure`` when none is given); each value is
    forced to 0 with probability 0.2."""
    m = measure if measure is not None else random_measure(rng)
    n = m.nodes.size
    levels = np.exp(rng.uniform(np.log(1e-3), np.log(100.0), size=n))
    zeros = rng.random(n) < 0.2
    levels[zeros] = 0.0
    return GridFn(m, levels)


def random_young_params(rng: np.random.Generator) -> YoungParams:
    """(p, q, r) uniform on [1, 3] x [0, 3] x [0, 3]."""
    return YoungParams(
        float(rng.uniform(1.0, 3.0)),
        float(rng.uniform(0.0, 3.0)),
        float(rng.uniform(0.0, 3.0)),
    )
