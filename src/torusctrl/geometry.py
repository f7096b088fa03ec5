"""Control regions, smooth spatial/temporal cutoffs, and the geometric
control condition checker (sampled rays on the flat torus).

Coordinates are in radians on [0, 2*pi)^d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bump import chi_plateau, smooth_step
from .spectral import TorusGrid

TWO_PI = 2.0 * np.pi


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Strip:
    """Open axis-aligned strip {lo < x_axis < hi} (radians, mod 2*pi)."""

    axis: int
    lo: float
    hi: float

    @property
    def width(self):
        return (self.hi - self.lo) % TWO_PI

    def depth_inside(self, x):
        """Distance to the strip boundary, positive inside, else 0."""
        t = (np.asarray(x[self.axis]) - self.lo) % TWO_PI
        return np.clip(np.minimum(t, self.width - t), 0.0, None) * (t < self.width)


@dataclass(frozen=True)
class Ball:
    """Open ball of the periodic distance."""

    center: tuple
    radius: float

    def depth_inside(self, x):
        d2 = 0.0
        for c, xa in zip(self.center, x):
            delta = np.abs((np.asarray(xa) - c) % TWO_PI)
            delta = np.minimum(delta, TWO_PI - delta)
            d2 = d2 + delta ** 2
        return np.clip(self.radius - np.sqrt(d2), 0.0, None)


@dataclass(frozen=True)
class ControlRegion:
    """Union of open strips and balls with a mollification radius r."""

    shapes: tuple
    r: float = 0.05 * TWO_PI

    def __post_init__(self):
        if not self.shapes:
            raise GeometryError("region must be a nonempty union of shapes")
        if self.r <= 0:
            raise GeometryError("mollification radius must be positive")

    def depth_inside(self, x):
        """max over shapes of the inside-depth (0 outside the union)."""
        d = None
        for s in self.shapes:
            ds = s.depth_inside(x)
            d = ds if d is None else np.maximum(d, ds)
        return d

    def contains(self, x):
        return self.depth_inside(x) > 0.0

    def min_feature_size(self):
        widths = []
        for s in self.shapes:
            widths.append(s.width if isinstance(s, Strip) else 2.0 * s.radius)
        return min(widths)


def build_cutoffs(region: ControlRegion, grid: TorusGrid, T: float):
    """Smooth phi_omega on the grid and the chi_T time profile.

    phi equals 1 on the eroded region (depth >= r), 0 outside the region,
    monotone across the collar; chi_T(t) = chi_1(t/T) with the 1/2 - 3/4
    plateau.  Raises when the erosion empties the region.
    """
    xm = grid.x_mesh
    depth = region.depth_inside(xm)
    if np.max(depth) < region.r:
        raise GeometryError(
            f"erosion by r={region.r:.3g} empties the region; "
            f"max inside depth is {np.max(depth):.3g} — use a smaller r")
    # union via 1 - prod(1 - phi_shape): smooth, 1 on any eroded shape
    one_minus = np.ones(grid.shape)
    for s in region.shapes:
        one_minus = one_minus * (1.0 - smooth_step(s.depth_inside(xm) / region.r))
    phi = 1.0 - one_minus
    phi = np.clip(phi, 0.0, 1.0)
    return phi, chi_plateau(T)


# ---------------------------------------------------------------------------
# geometric control condition


@dataclass
class GccReport:
    satisfied: bool
    L_min: float                  # max over sampled rays of the first-entry length
    witness: tuple = None         # (x, xi) of a ray that never entered
    nu: float = np.nan            # minimal admissible speed for horizon T
    n_rays: int = 0
    L_max: float = np.nan


def _directions(dim, n_dirs, q_max):
    """Rational slopes up to q_max (the closed geodesics) plus irrational fill."""
    if dim == 1:
        return [np.array([1.0]), np.array([-1.0])]
    dirs = {}
    for p in range(-q_max, q_max + 1):
        for q in range(-q_max, q_max + 1):
            if p == 0 and q == 0:
                continue
            f = np.array([p, q], dtype=float)
            f /= np.linalg.norm(f)
            dirs[(round(f[0], 12), round(f[1], 12))] = f
    out = list(dirs.values())
    golden = np.pi * (3.0 - np.sqrt(5.0))
    k = 0
    while len(out) < n_dirs:
        theta = (k + 0.5) * golden
        out.append(np.array([np.cos(theta), np.sin(theta)]))
        k += 1
    return out


def _first_entry_strip(strip: Strip, x0, xi, L_max):
    """Exact first-entry length of the ray x0 + t*xi into an open strip."""
    a, w = strip.lo, strip.width
    pos = (x0[strip.axis] - a) % TWO_PI
    v = xi[strip.axis]
    if 0.0 < pos < w:
        return 0.0
    if abs(v) < 1e-15:
        return np.inf
    if v > 0:
        t0 = ((-pos) % TWO_PI) / v
    else:
        t0 = ((pos - w) % TWO_PI) / (-v)
    return t0 if t0 <= L_max else np.inf


def _first_entry_march(region, x0, xi, L_max, step):
    ts = np.arange(0.0, L_max + step, step)
    pts = [x0[a] + ts * xi[a] for a in range(len(x0))]
    inside = region.contains(pts)
    hits = np.nonzero(inside)[0]
    return float(ts[hits[0]]) if hits.size else np.inf


def first_entry_length(region: ControlRegion, x0, xi, L_max, step=None):
    """First t in [0, L_max] with x0 + t xi inside the region (inf if none).

    Strips are solved by exact crossing times; marching is the fallback for
    balls and mixed unions.
    """
    if all(isinstance(s, Strip) for s in region.shapes):
        return min(_first_entry_strip(s, x0, xi, L_max) for s in region.shapes)
    if step is None:
        step = min(region.r, region.min_feature_size() / 4.0)
    if step <= 0:
        raise GeometryError("ray-marching step underflow for degenerate region")
    return _first_entry_march(region, x0, xi, L_max, step)


def check_gcc(region: ControlRegion, dim=2, L_max=40.0, n_dirs=160, n_starts=12,
              q_max=12, T=None, seed=0) -> GccReport:
    """Sampled GCC check: every ray must enter the region within L_max.

    Directions include all rationals p/q with |p|,|q| <= q_max plus a
    quasi-uniform irrational fill; starts are a deterministic lattice plus
    jittered samples.  Returns the covering length L_min (max over rays of
    the first-entry length) and, on failure, a witness ray.  When T is
    given, also the admissible propagation speed nu with 2 nu T > L_min.
    The checker is a semi-decision at fixed sampling, and advisory: control
    runs proceed regardless, with observability exposing degeneration.
    """
    rng = np.random.default_rng(seed)
    dirs = _directions(dim, n_dirs, q_max)
    starts = []
    per_axis = max(2, int(np.ceil(n_starts ** (1.0 / dim))))
    lattice = np.linspace(0.0, TWO_PI, per_axis, endpoint=False)
    for idx in np.ndindex(*(per_axis,) * dim):
        starts.append(np.array([lattice[i] for i in idx]) + 0.123456)
    for _ in range(n_starts):
        starts.append(rng.uniform(0.0, TWO_PI, size=dim))

    L_min = 0.0
    witness = None
    n_rays = 0
    for xi in dirs:
        for x0 in starts:
            n_rays += 1
            t = first_entry_length(region, x0, xi, L_max)
            if np.isinf(t):
                if witness is None:
                    witness = (tuple(float(v) for v in x0), tuple(float(v) for v in xi))
                L_min = np.inf
            else:
                L_min = max(L_min, t)
    report = GccReport(satisfied=witness is None, L_min=float(L_min),
                       witness=witness, n_rays=n_rays, L_max=L_max)
    if T is not None and report.satisfied:
        report.nu = report.L_min / (2.0 * T)
    return report


def verify_witness(region: ControlRegion, witness, L_max, refine=10):
    """Re-march a failure witness at refine-times finer step: still no entry?"""
    x0, xi = (np.asarray(witness[0], dtype=float), np.asarray(witness[1], dtype=float))
    step = min(region.r, region.min_feature_size() / 4.0) / refine
    return np.isinf(_first_entry_march(region, x0, xi, L_max, step))
