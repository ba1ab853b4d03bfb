"""Planar pose algebra with consistent angle handling.

All angles at the public API are degrees and are wrapped into the range
(-180, +180]; +180 is the canonical representation of a half turn and -180
is never returned. Positions are metres. Headings are measured
counter-clockwise from the +x axis. Everything here is a pure function over
immutable values, so concurrent use needs no locking.

``normalize`` and ``denormalize`` are the one map between poses and the
unit box: an in-bounds pose (x, y, theta) goes linearly onto [-1, +1]^3 (x,
y against the environment bounds, yaw divided by 180), which is the output
range of a tanh regression head. Both work on float64 arrays of shape
(..., 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .inputs import InputError

# metres within which two points have no heading between them
HEADING_EPS = 1e-9


class DegenerateHeadingError(ValueError):
    """Heading requested between two (nearly) coincident points."""


class IndeterminateMeanError(InputError):
    """Circular mean requested for angles whose mean vector vanishes; a
    k-NN database whose neighbours' headings cancel has no estimate."""


def wrap_angle(a: float) -> float:
    """Wrap an angle in degrees into (-180, +180].

    The result is congruent to ``a`` modulo 360. Exactly +180 stays +180;
    -180 wraps to +180.

    Raises:
        ValueError: if ``a`` is NaN or infinite.
    """
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {a!r}")
    r = a % 360.0
    if r > 180.0:
        r -= 360.0
    elif r == 0.0:
        r = 0.0  # normalise -0.0
    return r


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """``wrap_angle`` over an array of finite angles, bit for bit:
    ``np.remainder`` is Python's ``%``, and it maps -0.0 to 0.0."""
    r = np.remainder(a, 360.0)
    return np.where(r > 180.0, r - 360.0, r)


def ang_diff(a: float, b: float) -> float:
    """Signed smallest rotation, in degrees, that takes heading ``b`` to ``a``.

    Wrap-aware: ang_diff(10, 350) == 20. The result lies in (-180, +180].
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"angles must be finite, got {a!r}, {b!r}")
    return wrap_angle(a - b)


@dataclass(frozen=True)
class Pose2D:
    """A planar pose: position in metres, yaw in degrees.

    ``theta`` is wrapped into (-180, +180] on construction, so two poses
    built from congruent angles compare equal.
    """

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"pose position must be finite, got ({self.x!r}, {self.y!r})")
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True)
class EnvBounds:
    """Axis-aligned metric bounds of an environment, finite and non-empty."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        # false for a NaN too, and for a grid's bounds that overflow or round away
        if not (-math.inf < self.x_min < self.x_max < math.inf
                and -math.inf < self.y_min < self.y_max < math.inf):
            raise ValueError(f"bounds x [{self.x_min}, {self.x_max}], y [{self.y_min}, {self.y_max}] "
                             "must be finite and non-empty")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min


def heading(frm: Pose2D, to: Pose2D) -> float:
    """Bearing in degrees of the vector from ``frm`` to ``to``.

    Measured counter-clockwise from the +x axis, wrapped to (-180, +180].

    Raises:
        DegenerateHeadingError: if the points coincide to within
            ``HEADING_EPS`` metres. Callers steering toward a target should
            treat that target as already reached.
    """
    dx = to.x - frm.x
    dy = to.y - frm.y
    if math.hypot(dx, dy) <= HEADING_EPS:
        raise DegenerateHeadingError(
            f"heading undefined between coincident points ({frm.x}, {frm.y}) and ({to.x}, {to.y})"
        )
    return wrap_angle(math.degrees(math.atan2(dy, dx)))


def normalize(poses, b: EnvBounds) -> np.ndarray:
    """Map poses (..., 3) of (x, y, theta) onto (nx, ny, ntheta).

    nx = 2(x - x_min)/(x_max - x_min) - 1, likewise ny; ntheta = theta/180.
    An in-bounds pose with theta in [-180, 180] lands in [-1, +1]^3; no
    bound is checked here (``EnvironmentSpec.check_world`` refuses poses
    outside their world).
    """
    p = np.asarray(poses, dtype=np.float64)
    return np.stack(
        [
            2.0 * (p[..., 0] - b.x_min) / b.width - 1.0,
            2.0 * (p[..., 1] - b.y_min) / b.height - 1.0,
            p[..., 2] / 180.0,
        ],
        axis=-1,
    )


def denormalize(n, b: EnvBounds) -> np.ndarray:
    """Inverse of :func:`normalize`, (..., 3) -> (..., 3); theta is not
    wrapped. Round-trips to within 1e-9 per component."""
    n = np.asarray(n, dtype=np.float64)
    return np.stack(
        [
            b.x_min + (n[..., 0] + 1.0) * 0.5 * b.width,
            b.y_min + (n[..., 1] + 1.0) * 0.5 * b.height,
            n[..., 2] * 180.0,
        ],
        axis=-1,
    )


def circular_mean(angles: Sequence[float], weights: Sequence[float] | None = None) -> float:
    """Weighted circular mean of angles in degrees.

    Computed as the angle of the weighted mean unit vector, which averages
    correctly across the ±180 seam: circular_mean([350, 10]) is 0, not 180.

    Args:
        angles: one or more angles in degrees.
        weights: optional non-negative weights, same length as ``angles``;
            uniform if omitted. Their sum must be positive.

    Raises:
        IndeterminateMeanError: if the mean vector magnitude falls below
            1e-12 (e.g. antipodal inputs with equal weight).
    """
    if len(angles) == 0:
        raise ValueError("circular_mean of an empty sequence")
    if weights is None:
        weights = [1.0] * len(angles)
    if len(weights) != len(angles):
        raise ValueError(f"{len(angles)} angles but {len(weights)} weights")
    total = 0.0
    sx = 0.0
    sy = 0.0
    for a, w in zip(angles, weights):
        if not (math.isfinite(a) and math.isfinite(w)):
            raise ValueError(f"angles and weights must be finite, got ({a!r}, {w!r})")
        if w < 0.0:
            raise ValueError(f"negative weight {w!r}")
        r = math.radians(a)
        sx += w * math.cos(r)
        sy += w * math.sin(r)
        total += w
    if total <= 0.0:
        raise ValueError("weights must not all be zero")
    if math.hypot(sx / total, sy / total) < 1e-12:
        raise IndeterminateMeanError("mean vector vanishes; circular mean is indeterminate")
    return wrap_angle(math.degrees(math.atan2(sy, sx)))
