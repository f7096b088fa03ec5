"""Grid, transform, norm and projection tests against direct oracles."""

import numpy as np
import pytest

from torusctrl.spectral import (PairState, SpectralField, TorusGrid, lp_band_of,
                                littlewood_paley_project, pair_scalar_product_H0,
                                semiclassical_norm, sobolev_norm)


def random_field(grid, rng, scale=1.0):
    v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SpectralField.from_values(grid, scale * v)


def mode(grid, k, amp=1.0):
    """Field amp * exp(i k.x)."""
    c = np.zeros(grid.shape, dtype=complex)
    c[tuple(np.asarray(k) % grid.n)] = amp
    return SpectralField(grid, c)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(3, 16)
    with pytest.raises(ValueError):
        TorusGrid(2, 15)
    with pytest.raises(ValueError):
        TorusGrid(1, 4)
    g = TorusGrid(2, 16)
    assert g.size == 16 ** 2
    assert np.all(g.bracket >= 1.0)
    # dual lattice components live in [-N/2, N/2)
    assert g.freq_1d.min() == -8 and g.freq_1d.max() == 7


def test_transform_round_trip():
    rng = np.random.default_rng(0)
    for dim, n in [(1, 16), (2, 16), (2, 32)]:
        grid = TorusGrid(dim, n)
        v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        f = SpectralField.from_values(grid, v)
        assert np.max(np.abs(f.values() - v)) <= 1e-12 * np.max(np.abs(v))


def test_parseval_against_quadrature():
    # normalized trapezoid quadrature of |u|^2 (grid mean) equals sum |u_j|^2
    rng = np.random.default_rng(1)
    for dim in (1, 2):
        grid = TorusGrid(dim, 16)
        f = random_field(grid, rng)
        quad = np.mean(np.abs(f.values()) ** 2)
        coef = np.sum(np.abs(f.coeffs) ** 2)
        assert abs(quad - coef) <= 1e-12 * coef


def test_hermitian_symmetry_detects_real_fields():
    grid = TorusGrid(2, 16)
    xm = grid.x_mesh
    real_f = SpectralField.from_values(grid, np.cos(xm[0]) + 0.3 * np.sin(2 * xm[1]))
    complex_f = SpectralField.from_values(grid, np.exp(1j * xm[0]))
    assert real_f.is_hermitian()
    assert not complex_f.is_hermitian()


def test_sobolev_norm_examples():
    grid = TorusGrid(2, 16)
    assert sobolev_norm(SpectralField.zero(grid), 1.7) == 0.0
    # single mode j=(1,0): <j>^2 = 2, norm at s=1 is sqrt(2)
    f = mode(grid, (1, 0))
    assert abs(sobolev_norm(f, 1.0) - np.sqrt(2.0)) < 1e-14
    # unit coefficients on a 4x4 dual block at s=0: sqrt(16) = 4
    c = np.zeros(grid.shape, dtype=complex)
    c[:4, :4] = 1.0
    assert abs(sobolev_norm(SpectralField(grid, c), 0.0) - 4.0) < 1e-14


def test_sobolev_monotone_in_s_and_conjugation():
    rng = np.random.default_rng(2)
    grid = TorusGrid(2, 16)
    for _ in range(5):
        f = random_field(grid, rng)
        ss = [-1.0, 0.0, 0.5, 1.0, 2.0]
        norms = [sobolev_norm(f, s) for s in ss]
        assert all(a <= b * (1 + 1e-13) for a, b in zip(norms, norms[1:]))
        for s in ss:
            assert abs(sobolev_norm(f.conj(), s) - sobolev_norm(f, s)) <= 1e-12 * norms[-1]


def test_semiclassical_norm():
    grid = TorusGrid(2, 16)
    rng = np.random.default_rng(3)
    f = random_field(grid, rng)
    for s in (0.0, 1.0, 2.5):
        assert abs(semiclassical_norm(f, s, 1.0) - sobolev_norm(f, s)) < 1e-12
    # single mode k = (4, 0), s = 2, h = 1/4: weight (1 + 16/16) = 2
    g = mode(grid, (4, 0), amp=0.7)
    assert abs(semiclassical_norm(g, 2.0, 0.25) - 0.7 * 2.0 ** 0.5 * 2.0 ** 0.5) < 1e-14
    # s = 0: plain L^2, independent of h
    for h in (0.1, 0.5, 1.0):
        assert abs(semiclassical_norm(f, 0.0, h) - sobolev_norm(f, 0.0)) < 1e-13
    with pytest.raises(ValueError):
        semiclassical_norm(f, 1.0, 0.0)


def test_pair_scalar_product():
    grid = TorusGrid(2, 16)
    rng = np.random.default_rng(4)
    u = random_field(grid, rng)
    u = u * (1.0 / sobolev_norm(u, 0.0))
    U = PairState(u)
    assert abs(pair_scalar_product_H0(U, U) - 2.0) < 1e-12
    # orthogonal single modes
    V = PairState(mode(grid, (1, 0)))
    W = PairState(mode(grid, (2, 0)))
    assert abs(pair_scalar_product_H0(V, W)) < 1e-15
    # against the direct spatial quadrature oracle
    f, g = random_field(grid, rng), random_field(grid, rng)
    direct = 2.0 * np.mean(f.values() * np.conj(g.values())).real
    assert abs(pair_scalar_product_H0(PairState(f), PairState(g)) - direct) < 1e-12 * abs(direct)
    with pytest.raises(ValueError):
        pair_scalar_product_H0(U, PairState(SpectralField.zero(TorusGrid(2, 32))))


def test_littlewood_paley_partition():
    rng = np.random.default_rng(5)
    grid = TorusGrid(2, 16)
    f = random_field(grid, rng)
    total = SpectralField.zero(grid)
    # <k> < N covers every resolved mode, so bands up to log2(max bracket)
    for j in range(int(np.ceil(np.log2(np.max(grid.bracket)))) + 1):
        total = total + littlewood_paley_project(f, j)
    assert np.max(np.abs(total.coeffs - f.coeffs)) < 1e-15
    # bands are disjoint
    masks = []
    for j in range(5):
        proj = littlewood_paley_project(f, j)
        masks.append(np.abs(proj.coeffs) > 0)
    for a in range(len(masks)):
        for b in range(a + 1, len(masks)):
            assert not np.any(masks[a] & masks[b])


def test_littlewood_paley_band_membership_enumerated():
    # oracle: enumerate the bracket rule for all |k| <= 8 in d=2
    grid = TorusGrid(2, 32)
    for k1 in range(-8, 9):
        for k2 in range(-8, 9):
            br = np.sqrt(1.0 + k1 * k1 + k2 * k2)
            expected = int(np.floor(np.log2(br)))
            f = mode(grid, (k1, k2))
            assert lp_band_of(grid, (k1, k2)) == expected
            proj = littlewood_paley_project(f, expected)
            assert np.max(np.abs(proj.coeffs - f.coeffs)) == 0.0
    # constant field sits entirely in band 0
    const = mode(grid, (0, 0), amp=2.0)
    assert np.max(np.abs(littlewood_paley_project(const, 0).coeffs - const.coeffs)) == 0.0


def test_pair_state_conjugate_component():
    grid = TorusGrid(2, 16)
    rng = np.random.default_rng(6)
    f = random_field(grid, rng)
    U = PairState(f)
    cc = U.conj_component()
    assert np.max(np.abs(cc.values() - np.conj(f.values()))) < 1e-12
