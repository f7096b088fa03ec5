"""Quasi-linear NLS model: coefficient symbols, the paralinearized operator,
the full nonlinear right-hand side, and the frozen linearization with its
bounded remainder.

The scalar equation is

    i u_t + Lap u + g1'(|u|^2) Lap(g1(|u|^2)) u + g2(|u|^2) u = chi_T phi_om f,

solved for u_t.  The quasi-linear term is always computed in the expanded
product form

    g1'^2 [ u^2 Lap(cu) + |u|^2 Lap(u) + 2 u grad(u).grad(cu) ]
        + g1' g1'' u |grad(rho)|^2,      rho = |u|^2,  cu = conj(u),

with grad(rho) = u grad(cu) + cu grad(u); the frozen linearization is the
slot-split of exactly these products (one factor per multilinear term takes
the increment, the highest-derivative one, gradient pairs split conjugate
symmetrically), so frozen(U, U) reproduces the nonlinear RHS to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp

from .pairops import MultBlock, PairOp
from .paradiff import (CutoffProfile, SymbolTerm, TorusSymbol, banded_matrix,
                       xi_abs2, xi_component, xi_const)
from .spectral import PairState, SpectralField, TorusGrid


@dataclass(frozen=True)
class Nonlinearity:
    """Polynomial g1, g2 with zero constant term: coefficients of rho^1, rho^2, ..."""

    g1: tuple
    g2: tuple

    def __post_init__(self):
        object.__setattr__(self, "g1", tuple(float(c) for c in self.g1))
        object.__setattr__(self, "g2", tuple(float(c) for c in self.g2))

    @property
    def is_linear(self):
        return not any(self.g1) and not any(self.g2)

    def g1_val(self, rho):
        # g1(rho) = sum_{k>=1} c_k rho^k, coefficients stored from power 1
        return _polyval(self.g1, rho) * np.asarray(rho, dtype=float)

    def g1_prime(self, rho):
        return _polyval(tuple((k + 1) * c for k, c in enumerate(self.g1)), rho)

    def g1_second(self, rho):
        return _polyval(tuple((k + 2) * (k + 1) * c for k, c in enumerate(self.g1[1:])), rho)

    def g2_val(self, rho):
        return _polyval(self.g2, rho) * np.asarray(rho, dtype=float)


def _polyval(coeffs_ascending, rho):
    """sum_k coeffs[k] rho^k, Horner."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    for c in reversed(coeffs_ascending):
        out = out * rho + c
    return out


@dataclass
class CoefficientSet:
    """All frozen-state coefficient fields, sampled on the grid (values space)."""

    grid: TorusGrid
    a2: np.ndarray          # g1'^2 |u|^2, real >= 0
    b2: np.ndarray          # g1'^2 u^2, complex
    a1: list                # d real arrays, g1'^2 Im(u conj(du_l))
    lam: np.ndarray         # sqrt(1 + 2 a2) >= 1
    s1: np.ndarray          # diagonalizer entries, real
    s2: np.ndarray          # complex
    g2rho: np.ndarray       # g2(|u|^2), real
    # frozen first-order coefficients of the expanded nonlinearity:
    e1: list                # d complex arrays, coefficient of d_l w
    f1: list                # d complex arrays, coefficient of d_l conj(w)


def compute_coefficients(U: PairState, nl: Nonlinearity) -> CoefficientSet:
    grid = U.grid
    u = U.u.values()
    rho = np.abs(u) ** 2
    gp = nl.g1_prime(rho)
    gpp = nl.g1_second(rho)
    gp2 = gp * gp

    du = [grid.values_from_coeffs(grid.derivative_coeffs(U.u.coeffs, a)) for a in range(grid.dim)]
    a2 = gp2 * rho
    b2 = gp2 * u * u
    a1 = [gp2 * np.imag(u * np.conj(d)) for d in du]
    lam = np.sqrt(1.0 + 2.0 * a2)
    denom = np.sqrt(2.0 * lam * (1.0 + a2 + lam))
    s1 = (1.0 + a2 + lam) / denom
    s2 = -b2 / denom
    g2rho = nl.g2_val(rho)

    drho = [u * np.conj(d) + np.conj(u) * d for d in du]  # real, = grad(|u|^2)
    e1 = [gp2 * u * np.conj(d) + gp * gpp * u * np.conj(u) * dr for d, dr in zip(du, drho)]
    f1 = [gp2 * u * d + gp * gpp * u * u * dr for d, dr in zip(du, drho)]
    return CoefficientSet(grid, a2, b2, a1, lam, s1, s2, g2rho, e1, f1)


def structure_matrices(coeffs: CoefficientSet):
    """Pointwise 2x2 matrices E, A2 = [[1+a2, b2],[conj b2, 1+a2]] (tests)."""
    E = np.diag([1.0, -1.0])
    a2, b2 = coeffs.a2, coeffs.b2
    A2 = np.empty(coeffs.grid.shape + (2, 2), dtype=complex)
    A2[..., 0, 0] = 1.0 + a2
    A2[..., 0, 1] = b2
    A2[..., 1, 0] = np.conj(b2)
    A2[..., 1, 1] = 1.0 + a2
    return E, A2


def s_matrix(coeffs: CoefficientSet):
    """Pointwise S and S^{-1} from the diagonalizer entries (tests)."""
    s1, s2 = coeffs.s1, coeffs.s2
    S = np.empty(coeffs.grid.shape + (2, 2), dtype=complex)
    S[..., 0, 0] = s1
    S[..., 0, 1] = s2
    S[..., 1, 0] = np.conj(s2)
    S[..., 1, 1] = s1
    Sinv = np.empty_like(S)
    Sinv[..., 0, 0] = s1
    Sinv[..., 0, 1] = -s2
    Sinv[..., 1, 0] = -np.conj(s2)
    Sinv[..., 1, 1] = s1
    return S, Sinv


# ---------------------------------------------------------------------------
# the paralinearized operator A(U)


def a_symbols(coeffs: CoefficientSet, factor=1.0):
    """Symbols z = -factor ((1+a2)|xi|^2 + a1.xi) on w and c = -factor b2|xi|^2 on
    cr(w) of factor * A(U).  factor rides on the x-coefficients, so the xi-parts
    stay the real |xi|^2 and xi_l, whose band weights banded_matrix caches."""
    grid = coeffs.grid
    d, s = grid.dim, -factor

    def term(values, xi):
        return SymbolTerm(s * grid.coeffs_from_values(values), xi)

    z = TorusSymbol(grid, [SymbolTerm(None, xi_abs2(d).scaled(s)), term(coeffs.a2, xi_abs2(d))]
                    + [term(coeffs.a1[a], xi_component(d, a)) for a in range(d)],
                    order=2.0, is_real=complex(factor).imag == 0.0)
    c = TorusSymbol(grid, [term(coeffs.b2, xi_abs2(d))], order=2.0)
    return z, c


def assemble_A(U: PairState, nl: Nonlinearity, cutoff: CutoffProfile) -> PairOp:
    """The operator A(U) = -(E Op^BW(A2|xi|^2) + Op^BW(diag(a1.xi))) as a PairOp.

    The stored blocks act on the first pair component:
        (A W)_1 = -Op(p) w - Op(r) w - Op(q) cr(w),
    p = (1+a2)|xi|^2, r = a1.xi, q = b2|xi|^2.
    """
    coeffs = compute_coefficients(U, nl)
    return assemble_A_from_coeffs(coeffs, cutoff)


def assemble_A_from_coeffs(coeffs: CoefficientSet, cutoff: CutoffProfile,
                           factor=1.0) -> PairOp:
    """factor * A(U) from two band gathers: Z = Op(z) and C = Op(c) of a_symbols."""
    z, c = a_symbols(coeffs, factor)
    Z, _ = banded_matrix(z, cutoff)
    C, _ = banded_matrix(c, cutoff)
    return PairOp(coeffs.grid, Z, C)


# ---------------------------------------------------------------------------
# nonlinear right-hand side


def dealias_mask(grid: TorusGrid):
    """2/3-rule mask on the dual lattice (per-axis |j| <= N/3)."""
    mask = np.ones(grid.shape, dtype=bool)
    for f in grid.freqs:
        mask &= np.abs(f) <= grid.n / 3.0
    return mask


def nonlinear_term_coeffs(u_hat, grid: TorusGrid, nl: Nonlinearity, dealias=True):
    """Coefficients of N2(u) = g1' Lap(g1) u + g2 u in expanded product form."""
    u = grid.values_from_coeffs(u_hat)
    rho = np.abs(u) ** 2
    gp = nl.g1_prime(rho)
    gpp = nl.g1_second(rho)
    du = [grid.values_from_coeffs(grid.derivative_coeffs(u_hat, a)) for a in range(grid.dim)]
    lap_u = grid.values_from_coeffs(grid.laplacian_coeffs(u_hat))
    grad2 = sum(d * np.conj(d) for d in du)                       # |grad u|^2, real
    drho = [u * np.conj(d) + np.conj(u) * d for d in du]
    drho2 = sum(dr * dr for dr in drho)                           # |grad rho|^2, real

    quasi = gp * gp * (u * u * np.conj(lap_u) + rho * lap_u + 2.0 * u * grad2) \
        + gp * gpp * u * drho2
    nterm = quasi + nl.g2_val(rho) * u
    nhat = grid.coeffs_from_values(nterm)
    if dealias:
        nhat = np.where(dealias_mask(grid), nhat, 0.0)
    return nhat


def full_nonlinear_rhs(u: SpectralField, nl: Nonlinearity, F: SpectralField = None,
                       chi_t: float = 0.0, phi: np.ndarray = None,
                       dealias=True) -> SpectralField:
    """du/dt = i(Lap u + N2(u)) - i chi_t phi F (coefficients)."""
    grid = u.grid
    rhs = 1j * (grid.laplacian_coeffs(u.coeffs)
                + nonlinear_term_coeffs(u.coeffs, grid, nl, dealias))
    if F is not None and chi_t != 0.0:
        fv = grid.values_from_coeffs(F.coeffs)
        src = chi_t * (phi if phi is not None else 1.0) * fv
        rhs = rhs - 1j * grid.coeffs_from_values(src)
    return SpectralField(grid, rhs)


# ---------------------------------------------------------------------------
# frozen linearization and remainder


def frozen_symbol_terms(coeffs: CoefficientSet):
    """Multiplication-form terms of the frozen operator L(U) w (without the i).

    Returns (z_terms, c_terms): lists of (coeff values, multiplier m(xi))
    acting on w and on conj(w) respectively, quantized at the input
    frequency (composition of multiplication and Fourier multipliers, not
    Weyl).  The free flow Lap w = -|xi|^2 w is not among them.  The odd
    multipliers i xi_l vanish on the Nyquist row, as in
    grid.derivative_coeffs.
    """
    z_ms, c_ms = _frozen_multiplier_symbols(coeffs.grid)
    return (list(zip([coeffs.a2, coeffs.g2rho, *coeffs.e1], z_ms)),
            list(zip([coeffs.b2, *coeffs.f1], c_ms)))


def _frozen_multiplier_symbols(grid: TorusGrid):
    """The multipliers m(xi) of frozen_symbol_terms: (those on w, those on conj(w))."""
    d = grid.dim
    neg_abs2 = xi_abs2(d).scaled(-1.0)                    # Lap <-> -|xi|^2

    def i_xi(a):                                          # d_l <-> i xi_l
        return lambda xi: 1j * np.where(xi[a] == -(grid.n // 2), 0.0, xi[a])

    i_comp = [i_xi(a) for a in range(d)]
    return [neg_abs2, xi_const(d), *i_comp], [neg_abs2, *i_comp]


@cache
def _frozen_multipliers(grid: TorusGrid):
    """The m(xi) of frozen_symbol_terms stacked on the grid, built once per grid, read-only."""
    xi = [f.astype(float) for f in grid.freqs]
    z_ms, c_ms = _frozen_multiplier_symbols(grid)
    stack = np.stack([np.broadcast_to(m(xi), grid.shape) for m in z_ms + c_ms])
    stack.flags.writeable = False
    return stack


def assemble_frozen(U: PairState, nl: Nonlinearity) -> PairOp:
    """The frozen linear generator: frozen_rhs(U, W) = i L(U) W as a PairOp.

    This equals i A(U) + R(U) by construction of the remainder.
    """
    return assemble_frozen_from_coeffs(compute_coefficients(U, nl))


def assemble_frozen_from_coeffs(coeffs: CoefficientSet) -> PairOp:
    """i L(U) as a matrix-free PairOp.

    The free flow -i|k|^2 is the sparse part, and nothing else is (a CSR
    diagonal shared by every assembly on the grid, see free_flow); the
    coefficient terms c(x) m(D) form one multiplication block (its
    multipliers shared likewise, see _frozen_multipliers), applied as
    i F[sum c F^-1(m w)] by FFTs, so the operator costs O(N^d) memory.
    """
    grid = coeffs.grid
    z_terms, c_terms = frozen_symbol_terms(coeffs)
    block = MultBlock(np.full(grid.shape, 1j), np.stack([c for c, _ in z_terms + c_terms]),
                      _frozen_multipliers(grid), len(z_terms))
    return PairOp(grid, free_flow(grid), mult=(block,))


@cache
def free_flow(grid: TorusGrid):
    """The free flow -i|k|^2 as a CSR diagonal, built once per grid.

    Its arrays are read-only: every frozen generator on the grid shares them.
    """
    free = sp.diags(-1j * grid.abs2.ravel().astype(complex), format="csr")
    for a in (free.data, free.indices, free.indptr):
        a.flags.writeable = False
    return free


def frozen_linear_rhs(U_frozen: PairState, W: PairState, nl: Nonlinearity) -> PairState:
    """Linear-in-W frozen RHS, the apply of assemble_frozen(U_frozen).

    frozen_linear_rhs(U, U) == full_nonlinear_rhs(u) (undealiased).
    """
    L = assemble_frozen(U_frozen, nl)
    grid = U_frozen.grid
    return PairState(SpectralField(grid, L.apply(W.u.coeffs.ravel()).reshape(grid.shape)))


def remainder_apply(U_frozen: PairState, W: PairState, nl: Nonlinearity,
                    cutoff: CutoffProfile) -> PairState:
    """R(U) W = frozen_linear_rhs(U, W) - i A(U) W (not the solver's at the Nyquist modes)."""
    frozen = frozen_linear_rhs(U_frozen, W, nl)
    A = assemble_A_from_coeffs(compute_coefficients(U_frozen, nl), cutoff)
    iAw = 1j * A.apply(W.u.coeffs.ravel())
    grid = U_frozen.grid
    return PairState(SpectralField(grid, frozen.u.coeffs - iAw.reshape(grid.shape)))


def remainder_pairop(coeffs: CoefficientSet, cutoff: CutoffProfile) -> PairOp:
    """R(U) as a PairOp, frozen minus i A (not the solver's at the Nyquist modes)."""
    return assemble_frozen_from_coeffs(coeffs) + assemble_A_from_coeffs(coeffs, cutoff, -1j)
