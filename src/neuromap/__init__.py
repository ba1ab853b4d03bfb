"""neuromap: a deterministic 2D localisation and navigation workbench.

Generate pose-labelled raycast datasets in occupancy-grid environments,
train and evaluate implicit-map pose estimators, and drive a simulated UGV
through waypoint loops with the trained (or baseline) estimators.
"""

__version__ = "0.1.0"

from .pose import (
    DegenerateHeadingError,
    EnvBounds,
    IndeterminateMeanError,
    Pose2D,
    ang_diff,
    circular_mean,
    denormalize,
    heading,
    normalize,
    wrap_angle,
)

__all__ = [
    "__version__",
    "DegenerateHeadingError",
    "EnvBounds",
    "IndeterminateMeanError",
    "Pose2D",
    "ang_diff",
    "circular_mean",
    "denormalize",
    "heading",
    "normalize",
    "wrap_angle",
]
