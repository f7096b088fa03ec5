"""Region, cutoff, and GCC-checker tests with analytic ray oracles."""

import numpy as np
import pytest

from torusctrl.geometry import (Ball, ControlRegion, GeometryError, Strip,
                                build_cutoffs, check_gcc, first_entry_length,
                                verify_witness, TWO_PI)
from torusctrl.spectral import TorusGrid


def two_strips(width=0.25 * TWO_PI, r=0.02 * TWO_PI):
    """Crossed vertical + horizontal strips on T^2 (GCC holds)."""
    return ControlRegion((
        Strip(axis=0, lo=0.5, hi=0.5 + width),
        Strip(axis=1, lo=2.5, hi=2.5 + width),
    ), r=r)


def one_strip(width=0.25 * TWO_PI, r=0.02 * TWO_PI):
    return ControlRegion((Strip(axis=0, lo=0.5, hi=0.5 + width),), r=r)


def test_region_validation():
    with pytest.raises(GeometryError):
        ControlRegion(())
    with pytest.raises(GeometryError):
        ControlRegion((Strip(0, 0.0, 1.0),), r=0.0)


def test_build_cutoffs_strip_profile():
    grid = TorusGrid(2, 64)
    width, r = 0.5, 0.05
    region = ControlRegion((Strip(axis=0, lo=1.0, hi=1.0 + width),), r=r)
    phi, chi = build_cutoffs(region, grid, T=1.0)
    assert phi.shape == grid.shape
    assert np.all((phi >= 0.0) & (phi <= 1.0))
    x0 = grid.x_mesh[0]
    inside_eroded = ((x0 - 1.0) % TWO_PI >= r) & ((x0 - 1.0) % TWO_PI <= width - r)
    outside = ~(((x0 - 1.0) % TWO_PI > 0) & ((x0 - 1.0) % TWO_PI < width))
    assert np.all(phi[inside_eroded] == 1.0)
    assert np.all(phi[outside] == 0.0)
    # monotone across the collar (1d section)
    sec = phi[:, 0]
    idx = np.nonzero((sec > 0) & (sec < 1))[0]
    assert idx.size > 0  # the collar is resolved
    # chi plateau: 1 until T/2, 0 from 3T/4
    assert chi(0.4) == 1.0 and chi(0.5) == 1.0
    assert chi(0.75) == 0.0 and chi(0.8) == 0.0
    assert 0.0 < chi(0.6) < 1.0


def test_build_cutoffs_full_torus():
    # omega = T^d realized as two overlapping strips (an open strip cannot
    # contain its own seam): phi == 1 everywhere
    grid = TorusGrid(2, 16)
    region = ControlRegion((Strip(axis=0, lo=-0.5, hi=np.pi + 0.5),
                            Strip(axis=0, lo=np.pi - 0.5, hi=TWO_PI + 0.5)), r=0.3)
    phi, _ = build_cutoffs(region, grid, T=1.0)
    assert np.all(phi >= 1.0 - 1e-12)


def test_build_cutoffs_erosion_failure():
    grid = TorusGrid(2, 32)
    region = ControlRegion((Strip(axis=0, lo=0.0, hi=0.1),), r=0.2)
    with pytest.raises(GeometryError, match="smaller r"):
        build_cutoffs(region, grid, T=1.0)


def test_first_entry_strip_analytic():
    region = one_strip(width=1.0, r=0.05)
    # start below the strip, moving up in x0: entry after the gap
    x0 = np.array([0.0, 1.0])
    t = first_entry_length(region, x0, np.array([1.0, 0.0]), L_max=20.0)
    assert abs(t - 0.5) < 1e-12
    # inside already
    t = first_entry_length(region, np.array([1.0, 0.0]), np.array([1.0, 0.0]), 20.0)
    assert t == 0.0
    # parallel ray never enters
    t = first_entry_length(region, np.array([0.0, 0.0]), np.array([0.0, 1.0]), 20.0)
    assert np.isinf(t)


def test_gcc_full_torus_trivial():
    grid_region = ControlRegion((Strip(axis=0, lo=0.0, hi=TWO_PI - 1e-9),
                                 Strip(axis=1, lo=0.0, hi=TWO_PI - 1e-9)), r=0.1)
    rep = check_gcc(grid_region, n_dirs=40, n_starts=4)
    assert rep.satisfied and rep.L_min < 1e-9


def test_gcc_two_strips_satisfied():
    # analytic oracle: xi_0 != 0 crosses the vertical strip within
    # 2*pi/|xi_0|; xi_0 == 0 forces |xi_1| = 1 crossing the horizontal one
    rep = check_gcc(two_strips(), n_dirs=120, n_starts=9, T=1.0)
    assert rep.satisfied
    assert 0.0 < rep.L_min <= TWO_PI / (1.0 / np.sqrt(1.0 + 12.0 ** 2)) + 1e-9
    assert rep.nu > 0.0
    # 2 nu T > L_min is the admissibility relation at T=1
    assert 2.0 * rep.nu * 1.0 >= rep.L_min * (1.0 - 1e-12)


def test_gcc_single_strip_fails_with_valid_witness():
    region = one_strip()
    rep = check_gcc(region, n_dirs=120, n_starts=9)
    assert not rep.satisfied
    assert rep.witness is not None
    x0, xi = rep.witness
    # the witness moves (nearly) parallel to the strip: its crossing rate is
    # too slow to enter within L_max
    assert abs(xi[0]) * rep.L_max <= TWO_PI + 1e-9
    # re-march at 10x finer step: still avoids the region
    assert verify_witness(region, rep.witness, L_max=rep.L_max, refine=10)
    # analytic oracle: the constant-x0 ray from outside the strip never enters
    t = first_entry_length(region, np.array([0.0, 0.5]), np.array([0.0, 1.0]), rep.L_max)
    assert np.isinf(t)


def test_gcc_monotone_in_region_size():
    small = two_strips(width=0.15 * TWO_PI)
    large = two_strips(width=0.35 * TWO_PI)
    rs = check_gcc(small, n_dirs=80, n_starts=9)
    rl = check_gcc(large, n_dirs=80, n_starts=9)
    assert rs.satisfied and rl.satisfied
    assert rl.L_min <= rs.L_min + 1e-12


def test_gcc_sampling_stability():
    # doubling the sampling must not flip satisfied -> unsatisfied
    region = two_strips()
    r1 = check_gcc(region, n_dirs=80, n_starts=9)
    r2 = check_gcc(region, n_dirs=160, n_starts=18)
    assert r1.satisfied and r2.satisfied


def test_ball_region_marching():
    region = ControlRegion((Ball(center=(np.pi, np.pi), radius=1.0),), r=0.1)
    t = first_entry_length(region, np.array([0.0, np.pi]), np.array([1.0, 0.0]), 20.0)
    assert abs(t - (np.pi - 1.0)) <= 0.1 + 1e-12  # marching accuracy ~ step
    rep = check_gcc(region, n_dirs=40, n_starts=4)
    # a ball misses rays along lines avoiding it
    assert not rep.satisfied
    assert verify_witness(region, rep.witness, L_max=rep.L_max)
