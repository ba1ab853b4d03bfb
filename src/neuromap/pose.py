"""Planar pose algebra with consistent angle handling.

All angles at the public API are degrees and are wrapped into the range
(-180, +180]; +180 is the canonical representation of a half turn and -180
is never returned. Positions are metres. Headings are measured
counter-clockwise from the +x axis. Everything here is a pure function over
immutable values, so concurrent use needs no locking.

The normalisation contract maps an in-bounds pose linearly onto the cube
[-1, +1]^3 (x, y against the environment bounds, yaw divided by 180), which
is the output range of a tanh regression head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .inputs import InputError


class DegenerateHeadingError(ValueError):
    """Heading requested between two (nearly) coincident points."""


class IndeterminateMeanError(InputError):
    """Circular mean requested for angles whose mean vector vanishes; a
    k-NN database whose neighbours' headings cancel has no estimate."""


class OutOfBoundsError(ValueError):
    """Pose lies outside the environment bounds it is measured against."""


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
    """Axis-aligned metric bounds of an environment."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"degenerate bounds: x [{self.x_min}, {self.x_max}], y [{self.y_min}, {self.y_max}]"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))


@dataclass(frozen=True)
class NormalizedPose:
    """A pose mapped onto the unit cube: every component lies in [-1, +1]."""

    nx: float
    ny: float
    ntheta: float

    def __post_init__(self) -> None:
        for name, v in (("nx", self.nx), ("ny", self.ny), ("ntheta", self.ntheta)):
            if not math.isfinite(v) or not -1.0 <= v <= 1.0:
                raise ValueError(f"normalized component {name}={v!r} outside [-1, 1]")

    @classmethod
    def from_raw(cls, nx: float, ny: float, ntheta: float) -> tuple["NormalizedPose", bool]:
        """Build from unchecked values, clamping into [-1, 1].

        Returns the pose and a flag that is True when any component had to
        be clamped. A tanh output head cannot produce out-of-range values,
        but external estimators might; the flag lets callers surface that.
        """
        if not all(math.isfinite(v) for v in (nx, ny, ntheta)):
            raise ValueError(f"normalized components must be finite, got {(nx, ny, ntheta)!r}")
        cx = min(1.0, max(-1.0, nx))
        cy = min(1.0, max(-1.0, ny))
        ct = min(1.0, max(-1.0, ntheta))
        clamped = (cx != nx) or (cy != ny) or (ct != ntheta)
        return cls(cx, cy, ct), clamped


def distance(p: Pose2D, q: Pose2D) -> float:
    """Euclidean distance between the positions of two poses, in metres."""
    return math.hypot(p.x - q.x, p.y - q.y)


def heading(frm: Pose2D, to: Pose2D, eps: float = 1e-9) -> float:
    """Bearing in degrees of the vector from ``frm`` to ``to``.

    Measured counter-clockwise from the +x axis, wrapped to (-180, +180].

    Raises:
        DegenerateHeadingError: if the points coincide to within ``eps``
            metres. Callers steering toward a target should treat that
            target as already reached.
    """
    dx = to.x - frm.x
    dy = to.y - frm.y
    if math.hypot(dx, dy) <= eps:
        raise DegenerateHeadingError(
            f"heading undefined between coincident points ({frm.x}, {frm.y}) and ({to.x}, {to.y})"
        )
    return wrap_angle(math.degrees(math.atan2(dy, dx)))


def normalize(p: Pose2D, b: EnvBounds) -> NormalizedPose:
    """Map an in-bounds pose linearly onto [-1, +1]^3.

    nx = 2(x - x_min)/(x_max - x_min) - 1, likewise ny; ntheta = theta/180.

    Raises:
        OutOfBoundsError: if the position lies outside ``b``.
    """
    if not b.contains(p.x, p.y):
        raise OutOfBoundsError(f"pose ({p.x}, {p.y}) outside bounds {b}")
    nx = 2.0 * (p.x - b.x_min) / b.width - 1.0
    ny = 2.0 * (p.y - b.y_min) / b.height - 1.0
    return NormalizedPose(nx, ny, p.theta / 180.0)


def denormalize(n: NormalizedPose, b: EnvBounds) -> Pose2D:
    """Inverse of :func:`normalize`; round-trips to within 1e-9 per component."""
    x = b.x_min + (n.nx + 1.0) * 0.5 * b.width
    y = b.y_min + (n.ny + 1.0) * 0.5 * b.height
    return Pose2D(x, y, n.ntheta * 180.0)


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
