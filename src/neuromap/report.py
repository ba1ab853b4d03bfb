"""Result rendering: SVG plots, coverage summaries, metrics tables, and the
one writer of the JSON reports.

All emitters are pure functions of their inputs (no timestamps, no
randomness), so rerunning a command reproduces its report files byte for
byte. SVG was picked over raster formats because tests can assert on it
by counting elements and colours with plain string operations.

Plot conventions: the ground-truth route is drawn in green, estimated
poses in blue, waypoints and dataset samples in red.
"""

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .inputs import write_text
from .world import EnvironmentSpec

SCALE = 50.0  # px per metre
MARGIN = 10.0  # px border around the map
DOT_ROWS = 1024  # sample dots per block of coverage.svg text

TRUTH_COLOR = "green"
ESTIMATE_COLOR = "blue"
MARKER_COLOR = "red"


def _to_px(bounds, x, y):
    """World to pixels: (x_min, y_min) lands at the bottom-left of the
    drawing, which means flipping y, as SVG grows downward."""
    return (x - bounds.x_min) * SCALE + MARGIN, (bounds.y_max - y) * SCALE + MARGIN


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _grid_rects(env: EnvironmentSpec):
    """One rect per run of occupied cells in a row, rows in turn; keeps files small."""
    grid = env.grid
    res = grid.resolution
    # +1 where a run starts and -1 just past where it ends, row-major
    edges = np.diff(np.pad(grid.cells.astype(np.int8), ((0, 0), (1, 1))), axis=1)
    rows, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1]
    rects = []
    for iy, ix, run in zip(rows.tolist(), starts.tolist(), ends.tolist()):
        px, py = _to_px(env.bounds, grid.origin_x + ix * res, grid.origin_y + (iy + 1) * res)
        rects.append(
            f'<rect class="cell" x="{_fmt(px)}" y="{_fmt(py)}" '
            f'width="{_fmt((run - ix) * res * SCALE)}" '
            f'height="{_fmt(res * SCALE)}" fill="#444444"/>'
        )
    return rects


def printable(text: str) -> str:
    """``text`` with each character but printable ASCII written as its Python
    escape (``\\n``, ``\\xe9``, ``\\u2013``), so it prints as one ASCII line."""
    return "".join(c if " " <= c <= "~" else ascii(c)[1:-1] for c in text)


def _svg_document(bounds, body, comments, path) -> None:
    """Write to ``path`` the SVG of ``body``, an iterable of str parts of
    whole lines, on the map of ``bounds``, a part at a time."""
    width = _fmt((bounds.x_max - bounds.x_min) * SCALE + 2 * MARGIN)
    height = _fmt((bounds.y_max - bounds.y_min) * SCALE + 2 * MARGIN)
    head = ['<?xml version="1.0" encoding="UTF-8"?>']
    for c in comments:
        c = c.replace("--", "-\\x2d")  # XML allows no "--" within a comment
        head.append(f"<!-- {c} -->")
    head.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    head.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')
    write_text(path, itertools.chain([_lines(head)], body, ["</svg>\n"]))


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _polyline(points, cls, color, bounds):
    if len(points) < 2:
        return []
    coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (_to_px(bounds, x, y) for x, y in points))
    return [
        f'<polyline class="{cls}" points="{coords}" fill="none" '
        f'stroke="{color}" stroke-width="2"/>'
    ]


def svg_coverage(env: EnvironmentSpec, positions, path, comments=()) -> None:
    """Map plus one red dot per sample position; ``positions`` is an
    (n, >= 2) array of x, y first, such as a dataset's ``poses_matrix()``.
    The dots are formatted DOT_ROWS at a time, so the whole text is never held."""
    dot = f'<circle class="sample" cx="%.2f" cy="%.2f" r="1.5" fill="{MARKER_COLOR}"/>\n'

    def dots():
        for lo in range(0, len(positions), DOT_ROWS):
            xy = positions[lo : lo + DOT_ROWS, :2]
            px, py = _to_px(env.bounds, xy[:, 0], xy[:, 1])  # %.2f writes as _fmt does
            yield (dot * len(xy)) % tuple(np.column_stack([px, py]).ravel().tolist())

    _svg_document(env.bounds, itertools.chain([_lines(_grid_rects(env))], dots()), comments, path)


def svg_route(env: EnvironmentSpec, trace, waypoints, path, comments=()) -> None:
    """Map, green true route, blue estimated route, red waypoint markers."""
    body = _grid_rects(env)
    truth = [(t.true_pose.x, t.true_pose.y) for t in trace.ticks]
    est = [(t.estimate.x, t.estimate.y) for t in trace.ticks if t.estimate is not None]
    body += _polyline(truth, "truth", TRUTH_COLOR, env.bounds)
    body += _polyline(est, "estimate", ESTIMATE_COLOR, env.bounds)
    for wx, wy in waypoints:
        px, py = _to_px(env.bounds, wx, wy)
        body.append(
            f'<circle class="waypoint" cx="{_fmt(px)}" cy="{_fmt(py)}" r="5" '
            f'fill="{MARKER_COLOR}" fill-opacity="0.7"/>'
        )
    _svg_document(env.bounds, [_lines(body)], comments, path)


# --- coverage statistics -----------------------------------------------------------


@dataclass(frozen=True)
class CoverageSummary:
    """How much of the reachable map a dataset touches, on a coarse grid.

    A coarse cell counts as free when it contains at least one free fine
    cell, and as covered when at least one sample position falls in it.
    """

    cell_m: float
    free_cells: int
    covered_cells: int
    fraction: float = field(init=False)

    def __post_init__(self):
        if self.cell_m <= 0:
            raise ValueError("cell_m must be positive")
        if not 0 <= self.covered_cells <= self.free_cells:
            raise ValueError("covered_cells must be within [0, free_cells]")
        fraction = self.covered_cells / self.free_cells if self.free_cells else 0.0
        object.__setattr__(self, "fraction", fraction)


def coverage_summary(env: EnvironmentSpec, positions, cell_m: float = 0.5) -> CoverageSummary:
    """Coverage of sample positions, an (n, >= 2) array of x, y first."""
    b = env.bounds
    grid = env.grid
    nx = max(1, math.ceil((b.x_max - b.x_min) / cell_m))
    ny = max(1, math.ceil((b.y_max - b.y_min) / cell_m))

    def bins(x, y):  # truncating casts, as int() does
        ix = np.minimum(((x - b.x_min) / cell_m).astype(np.int64), nx - 1)
        iy = np.minimum(((y - b.y_min) / cell_m).astype(np.int64), ny - 1)
        return iy * nx + ix

    # coarse cell -> free if any fine cell centre inside it is free
    iy, ix = np.nonzero(~grid.cells)
    free = np.zeros(nx * ny, dtype=bool)
    free[bins(grid.origin_x + (ix + 0.5) * grid.resolution,
              grid.origin_y + (iy + 0.5) * grid.resolution)] = True
    covered = np.zeros(nx * ny, dtype=bool)
    covered[bins(positions[:, 0], positions[:, 1])] = True
    covered &= free
    return CoverageSummary(cell_m, int(free.sum()), int(covered.sum()))


# --- JSON reports ------------------------------------------------------------------


def save_json(path, doc: dict, provenance: dict) -> None:
    """Write ``doc`` and its ``provenance`` as indented JSON with sorted keys.
    Arrays and tuples are written as lists, and a float that is not finite
    as null: strict JSON has no Infinity."""
    text = json.dumps(_plain({**doc, "provenance": provenance}), indent=2, sort_keys=True)
    write_text(path, text + "\n")


def _plain(value):
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def metrics_table(metrics_by_name: dict, comments=()) -> str:
    """Fixed-width text table of error statistics, one row per estimator."""
    header = f"{'estimator':<24} {'mean pos [m]':>12} {'med pos [m]':>12} {'mean yaw [deg]':>14} {'med yaw [deg]':>13}"
    lines = [f"# {c}" for c in comments]
    lines += [header, "-" * len(header)]
    for name, m in metrics_by_name.items():
        lines.append(
            f"{printable(name):<24} {m.mean_pos_err:>12.4f} {m.median_pos_err:>12.4f} "
            f"{m.mean_theta_err:>14.3f} {m.median_theta_err:>13.3f}"
        )
    return "\n".join(lines) + "\n"
