"""Numerical verification toolkit: gauge norms of log-type weights, level-set
iteration thresholds, smooth convex gluing, and radial plurisubharmonic
potentials with a bounded-entropy / unbounded-oscillation family."""

__version__ = "0.1.0"

# Submodules load where they are imported (`from luxglue import gluing`).
# Importing cli here would make `python -m luxglue.cli` warn on stderr.
from .errors import LuxglueError

__all__ = [
    "degiorgi",
    "gluing",
    "numgrid",
    "orlicz",
    "radialpsh",
    "youngfn",
    "LuxglueError",
]
