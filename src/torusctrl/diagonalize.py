"""Principal-order diagonalization of the pair system and the state-adapted
modified energy norms.

The change of variables is Phi(U) = Op^BW(S^{-1}(U;x)) with S the pointwise
eigenvector matrix of E(1+A2); its inverse is realized as a truncated
Neumann series (1+Q)^{-1} Op^BW(S) with Q = Op^BW(S) Phi - 1.  Used as a
diagnostic and preconditioning facility, never inside the control loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CoefficientSet, Nonlinearity, assemble_A_from_coeffs, compute_coefficients
from .pairops import PairOp
from .paradiff import (CutoffProfile, SymbolTerm, TorusSymbol, banded_matrix,
                       bony_weyl_quantize, xi_abs2, xi_component, xi_const)
from .spectral import PairState, SpectralField


class DiagonalizationError(RuntimeError):
    pass


@dataclass
class DiagonalizationMap:
    forward: PairOp      # Op^BW(S^{-1})
    inverse: PairOp      # (1+Q)^{-1} Op^BW(S), Neumann-truncated
    depth: int
    tail: float
    near_identity: float  # measured sup ||(Phi - 1)W|| / ||W|| over probes

    def apply(self, W: PairState) -> PairState:
        g = W.grid
        return PairState(SpectralField(g, self.forward.apply(W.u.coeffs.ravel()).reshape(g.shape)))

    def apply_inverse(self, W: PairState) -> PairState:
        g = W.grid
        return PairState(SpectralField(g, self.inverse.apply(W.u.coeffs.ravel()).reshape(g.shape)))


def _order_zero_pairop(grid, z_vals, c_vals, cutoff):
    """PairOp with Z = Op^BW(z(x)), C = Op^BW(c(x)) for order-0 symbols."""
    one = xi_const(grid.dim)
    zsym = TorusSymbol(grid, [SymbolTerm(grid.coeffs_from_values(z_vals), one)])
    Z, _ = banded_matrix(zsym, cutoff)
    C = None
    if c_vals is not None and np.max(np.abs(c_vals)) > 0:
        csym = TorusSymbol(grid, [SymbolTerm(grid.coeffs_from_values(c_vals), one)])
        C, _ = banded_matrix(csym, cutoff)
    return PairOp(grid, Z, C)


def _estimate_norm(op: PairOp, rng, probes=4, iters=6):
    """Crude operator-norm estimate by normalized power steps."""
    g = op.grid
    est = 0.0
    for _ in range(probes):
        x = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        x /= np.linalg.norm(x)
        for _ in range(iters):
            y = op.apply(x)
            ny = np.linalg.norm(y)
            est = max(est, ny)
            if ny == 0.0:
                break
            x = y / ny
    return est


# Neumann series of build_phi: depth cap and the tail norm estimate that ends it
_NEUMANN_MAX_DEPTH, _NEUMANN_TAIL_TOL = 40, 1e-10


def build_phi(U: PairState, nl: Nonlinearity, cutoff: CutoffProfile) -> DiagonalizationMap:
    """Construct Phi(U) and its Neumann-series inverse.

    Raises DiagonalizationError when the series does not contract (norm
    estimate of Q at or above one).  The norm probes are seeded with 0.
    """
    grid = U.grid
    co = compute_coefficients(U, nl)
    phi = _order_zero_pairop(grid, co.s1, -co.s2, cutoff)       # Op^BW(S^{-1})
    psi = _order_zero_pairop(grid, co.s1, co.s2, cutoff)        # Op^BW(S)
    Q = psi.compose(phi) - PairOp.identity(grid)

    rng = np.random.default_rng(0)
    qnorm = _estimate_norm(Q, rng)
    if qnorm >= 1.0:
        raise DiagonalizationError(f"Neumann series not contracting: ||Q|| ~ {qnorm:.3e}")

    inv_factor = PairOp.identity(grid)
    term = PairOp.identity(grid)
    depth, tail = 0, qnorm
    for depth in range(1, _NEUMANN_MAX_DEPTH + 1):
        term = (-1.0) * term.compose(Q)
        inv_factor = inv_factor + term
        tail = _estimate_norm(term, rng, probes=2, iters=2)
        if tail < _NEUMANN_TAIL_TOL:
            break
    inverse = inv_factor.compose(psi)

    near = 0.0
    ident = PairOp.identity(grid)
    dev = phi - ident
    for _ in range(4):
        x = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        near = max(near, np.linalg.norm(dev.apply(x)) / np.linalg.norm(x))
    return DiagonalizationMap(forward=phi, inverse=inverse, depth=depth, tail=tail,
                              near_identity=near)


def _diag_target_pairop(co: CoefficientSet, cutoff) -> PairOp:
    """-E Op^BW(diag(lam)|xi|^2) - Op^BW(diag(a1.xi)), first-row blocks."""
    grid = co.grid
    d = grid.dim
    lam_sym = TorusSymbol(grid, [
        SymbolTerm(grid.coeffs_from_values(co.lam), xi_abs2(d)),
    ], order=2.0, is_real=True)
    r_sym = TorusSymbol(grid, [
        SymbolTerm(grid.coeffs_from_values(co.a1[a]), xi_component(d, a)) for a in range(d)
    ], order=1.0, is_real=True)
    Mlam, _ = banded_matrix(lam_sym, cutoff)
    Mr, _ = banded_matrix(r_sym, cutoff)
    return PairOp(grid, -(Mlam + Mr))


def diagonal_defect(U: PairState, W: PairState, nl: Nonlinearity, cutoff: CutoffProfile,
                    phi: DiagonalizationMap = None) -> float:
    """H^0 pair norm of [Phi A Phi^{-1} - diagonal model] W.

    Computed with the pair-preserving operators i A and i D (A itself
    anticommutes with the conjugation symmetry, so only its i-multiple has
    the mirror structure PairOp composition assumes); the overall factor i
    leaves the norm unchanged.
    """
    co = compute_coefficients(U, nl)
    if phi is None:
        phi = build_phi(U, nl, cutoff)
    iA = assemble_A_from_coeffs(co, cutoff, 1j)
    iD = 1j * _diag_target_pairop(co, cutoff)
    w = W.u.coeffs.ravel()
    conj_part = phi.forward.apply(iA.apply(phi.inverse.apply(w)))
    defect = conj_part - iD.apply(w)
    return float(np.sqrt(2.0) * np.linalg.norm(defect))


def unconjugated_defect(U: PairState, W: PairState, nl: Nonlinearity,
                        cutoff: CutoffProfile) -> float:
    """H^0 pair norm of [A - diagonal model] W (the comparison curve)."""
    co = compute_coefficients(U, nl)
    A = assemble_A_from_coeffs(co, cutoff)
    D = _diag_target_pairop(co, cutoff)
    w = W.u.coeffs.ravel()
    return float(np.sqrt(2.0) * np.linalg.norm(A.apply(w) - D.apply(w)))


def weight_symbol(co: CoefficientSet, sigma: float, h: float) -> TorusSymbol:
    """Tabulated symbol (1 + h^2 lam(x) |xi|^2)^sigma on the doubled lattice."""
    lam = co.lam

    def fn(_xm, xi):
        return (1.0 + h * h * lam * sum(float(x) ** 2 for x in xi)) ** sigma

    return TorusSymbol.tabulated(co.grid, fn, order=2.0 * sigma, is_real=True)


def modified_energy_norm(U: PairState, W: PairState, sigma: float, h: float,
                         nl: Nonlinearity, cutoff: CutoffProfile) -> float:
    """State-adapted norm sqrt(Re <Op^BW((1+h^2 lam |xi|^2)^sigma) w, w>).

    At U=0, h=1 this is exactly the H^sigma weight (1+|xi|^2)^sigma; sigma=0
    gives the L^2 norm for any U.  A negative quadratic form raises.
    """
    if not 0.0 < h <= 1.0:
        raise ValueError(f"h must be in (0,1], got {h}")
    co = compute_coefficients(U, nl)
    sym = weight_symbol(co, sigma, h)
    out = bony_weyl_quantize(sym, W.u, cutoff).coeffs
    quad = float(np.vdot(W.u.coeffs, out).real)
    scale = float(np.vdot(W.u.coeffs, W.u.coeffs).real)
    if quad < -1e-12 * max(scale, 1e-300):
        raise DiagonalizationError(f"modified energy form not positive: {quad:.3e}")
    return float(np.sqrt(max(quad, 0.0)))
