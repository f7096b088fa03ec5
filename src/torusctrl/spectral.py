"""Grids, transforms, norms and dyadic projections on the torus (R/2piZ)^d.

Fields are stored as Fourier coefficients on the integer dual lattice with
components in [-N/2, N/2) (numpy FFT ordering, Nyquist row counted as its
negative frequency).  The forward transform carries 1/N^d so that the
coefficient of a constant field 1 is exactly 1, and the L^2 inner product
is the plain coefficient sum <u,v> = sum_j u_j conj(v_j) (equivalently the
grid mean of u conj(v)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class TorusGrid:
    """Uniform N^d lattice on the d-torus with its integer dual lattice.

    dim must be 1 or 2 and n even and >= 8; the spacing is 2*pi/n per axis.
    """

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 8 or self.n % 2:
            raise ValueError(f"n must be even and >= 8, got {self.n}")

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def size(self):
        return self.n ** self.dim

    @property
    def spacing(self):
        return 2.0 * np.pi / self.n

    @cached_property
    def x(self):
        """Spatial coordinate arrays (one per axis), each length n."""
        return tuple(np.arange(self.n) * self.spacing for _ in range(self.dim))

    @cached_property
    def x_mesh(self):
        return np.meshgrid(*self.x, indexing="ij")

    @cached_property
    def freq_1d(self):
        # [0, 1, ..., N/2-1, -N/2, ..., -1]; Nyquist kept as -N/2
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    @cached_property
    def freqs(self):
        """Integer frequency arrays broadcast to the grid shape, one per axis."""
        out = []
        for a in range(self.dim):
            sh = [1] * self.dim
            sh[a] = self.n
            out.append(self.freq_1d.reshape(sh))
        return tuple(out)

    @cached_property
    def abs2(self):
        """|j|^2 on the dual lattice (grid-shaped)."""
        a = np.zeros(self.shape)
        for f in self.freqs:
            a = a + f.astype(float) ** 2
        return a

    @cached_property
    def bracket(self):
        """Japanese bracket <j> = sqrt(1+|j|^2)."""
        return np.sqrt(1.0 + self.abs2)

    @cached_property
    def reflect_index(self):
        """Fancy index implementing j -> -j in FFT ordering, per axis."""
        p = (-np.arange(self.n)) % self.n
        return np.ix_(*[p] * self.dim)

    @cached_property
    def reflect_perm_flat(self):
        lin = np.arange(self.size).reshape(self.shape)
        return lin[self.reflect_index].ravel()

    def coeffs_from_values(self, values):
        return np.fft.fftn(np.asarray(values, dtype=complex)) / self.size

    def values_from_coeffs(self, coeffs):
        return np.fft.ifftn(np.asarray(coeffs, dtype=complex)) * self.size

    def reflect(self, coeffs):
        """coeffs of j -> coeffs at -j."""
        return coeffs[self.reflect_index]

    def conj_coeffs(self, coeffs):
        """Coefficients of the complex conjugate field: conj(u_hat(-j))."""
        return np.conj(self.reflect(coeffs))

    @cached_property
    def _derivative_multipliers(self):
        # i k_a with the Nyquist row zeroed: it has no +N/2 partner, so only
        # then does d_a commute with conjugation on the lattice
        return tuple(1j * np.where(f == -(self.n // 2), 0, f) for f in self.freqs)

    def derivative_coeffs(self, coeffs, axis):
        return self._derivative_multipliers[axis] * coeffs

    def laplacian_coeffs(self, coeffs):
        return -self.abs2 * coeffs


@dataclass(frozen=True)
class SpectralField:
    """One complex scalar field stored as Fourier coefficients (FFT order)."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != self.grid.shape:
            raise ValueError(f"coefficient shape {c.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_values(cls, grid, values):
        return cls(grid, grid.coeffs_from_values(values))

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros(grid.shape, dtype=complex))

    def values(self):
        return self.grid.values_from_coeffs(self.coeffs)

    def conj(self):
        return SpectralField(self.grid, self.grid.conj_coeffs(self.coeffs))

    def is_hermitian(self, tol=1e-12):
        """True iff the field is real-valued: u_hat(-j) == conj(u_hat(j))."""
        defect = np.max(np.abs(self.coeffs - self.grid.conj_coeffs(self.coeffs)))
        scale = max(np.max(np.abs(self.coeffs)), 1e-300)
        return defect <= tol * scale

    def __add__(self, other):
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class PairState:
    """State U = (u, conj(u)); only u is stored, the conjugate is implied."""

    u: SpectralField

    @property
    def grid(self):
        return self.u.grid

    @classmethod
    def zero(cls, grid):
        return cls(SpectralField.zero(grid))

    def conj_component(self):
        """Materialize the second component conj(u) (tests only)."""
        return self.u.conj()

    def __add__(self, other):
        return PairState(self.u + other.u)

    def __sub__(self, other):
        return PairState(self.u - other.u)

    def __mul__(self, scalar):
        return PairState(self.u * scalar)

    __rmul__ = __mul__


def _check_same_grid(f, g):
    if f.grid != g.grid:
        raise ValueError("grid mismatch")


def l2_inner(f: SpectralField, g: SpectralField) -> complex:
    """<f,g> = sum_j f_j conj(g_j), the normalized L^2 inner product."""
    _check_same_grid(f, g)
    return complex(np.vdot(g.coeffs, f.coeffs))  # vdot conjugates its first arg


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm (sum_j <j>^{2s} |u_j|^2)^(1/2)."""
    w = f.grid.bracket ** (2.0 * s)
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def semiclassical_norm(f: SpectralField, s: float, h: float) -> float:
    """Norm with weights (1+h^2|j|^2)^{s/2}; equals sobolev_norm at h=1."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    w = (1.0 + h * h * f.grid.abs2) ** s
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def pair_scalar_product_H0(U: PairState, V: PairState) -> float:
    """(U,V) = int u conj(v) + int v conj(u) = 2 Re <u,v>."""
    return 2.0 * l2_inner(U.u, V.u).real


def littlewood_paley_project(f: SpectralField, j_band: int) -> SpectralField:
    """Retain modes with 2^j <= <k> < 2^(j+1).

    The bands are disjoint and sum to the identity on the resolved lattice
    (band 0 starts at <0> = 1, so k=0 lands there).
    """
    if j_band < 0:
        raise ValueError("j_band must be >= 0")
    br = f.grid.bracket
    mask = (br >= 2.0 ** j_band) & (br < 2.0 ** (j_band + 1))
    return SpectralField(f.grid, np.where(mask, f.coeffs, 0.0))


def lp_band_of(grid: TorusGrid, k) -> int:
    """Band index of a single dual lattice point under the bracket rule."""
    br = float(np.sqrt(1.0 + np.sum(np.asarray(k, dtype=float) ** 2)))
    return int(np.floor(np.log2(br) + 1e-12))
