"""Discrete Weyl / Bony-Weyl quantization, symbolic composition, paraproducts.

A symbol a(x, xi) is a finite sum of separable terms c_i(x) * m_i(xi) with
the m_i polynomials in xi, plus an optional general table a_hat(m, xi) on
the half-integer dual grid.  Quantization follows

    (Op(a) g)^(j) = sum_k a_hat(j - k, (j + k)/2) g_hat(k)

with the x-transform normalized so that Op(1) is exactly the identity; the
Bony-Weyl variant weights each entry by chi(|j-k| / (eps <j+k>)).
Contributions whose output frequency j leaves the resolved lattice are
dropped and counted, never wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .bump import plateau_profile
from .spectral import SpectralField, TorusGrid


class CutoffProfile:
    """Smooth even cutoff chi: 1 on |t| <= 1.1, 0 on |t| >= 1.9, with scale eps."""

    def __init__(self, epsilon=0.5):
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
        self.epsilon = epsilon

    @staticmethod
    def chi(t):
        return plateau_profile(np.abs(t), 1.1, 1.9)

    def weight(self, m_norm, bracket_sum):
        """chi(|j-k| / (eps <j+k>)) given |m| = |j-k| and <j+k>."""
        return self.chi(m_norm / (self.epsilon * bracket_sum))


# ---------------------------------------------------------------------------
# xi-parts: multivariate polynomials in xi (closed under products/derivatives)


class XiPoly:
    """Polynomial in xi; terms maps exponent tuples to coefficients."""

    def __init__(self, dim, terms):
        self.dim = dim
        self.terms = {tuple(e): complex(c) for e, c in terms.items() if c != 0}

    @property
    def order(self):
        return max((sum(e) for e in self.terms), default=0)

    def __call__(self, xi):
        out = 0.0
        for e, c in self.terms.items():
            t = c
            for a, p in enumerate(e):
                if p:
                    t = t * xi[a] ** p
            out = out + t
        if np.isscalar(out):
            return np.broadcast_to(np.asarray(out), np.broadcast(*xi).shape).copy()
        return out

    def dxi(self, axis):
        terms = {}
        for e, c in self.terms.items():
            if e[axis]:
                e2 = list(e)
                e2[axis] -= 1
                e2 = tuple(e2)
                terms[e2] = terms.get(e2, 0.0) + c * e[axis]
        return XiPoly(self.dim, terms)

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0.0) + c1 * c2
        return XiPoly(self.dim, terms)

    def scaled(self, c):
        return XiPoly(self.dim, {e: v * c for e, v in self.terms.items()})

    def is_even(self):
        return all(sum(e) % 2 == 0 for e in self.terms)

    def is_real(self):
        return all(abs(c.imag) == 0.0 for c in self.terms.values())


def xi_const(dim, c=1.0):
    return XiPoly(dim, {(0,) * dim: c})


def xi_component(dim, axis):
    e = [0] * dim
    e[axis] = 1
    return XiPoly(dim, {tuple(e): 1.0})


def xi_abs2(dim):
    terms = {}
    for a in range(dim):
        e = [0] * dim
        e[a] = 2
        terms[tuple(e)] = 1.0
    return XiPoly(dim, terms)


# ---------------------------------------------------------------------------
# symbols


@dataclass
class SymbolTerm:
    coeff: np.ndarray | None  # x Fourier coefficients (grid shape, FFT order); None = x-independent
    xi: XiPoly


@dataclass
class TorusSymbol:
    """Finite sum of separable terms plus an optional general table.

    The table, when present, has shape grid.shape + (2n,)*dim: axis block one
    indexes the x-frequency m (FFT order), block two the doubled dual lattice
    p = j + k in [-N, N) ascending, so xi = p/2 is always a table point.
    """

    grid: TorusGrid
    terms: list
    order: float = 0.0
    table: np.ndarray | None = None
    is_real: bool = False
    truncated: int = field(default=0, compare=False)

    @classmethod
    def constant(cls, grid, c=1.0):
        return cls(grid, [SymbolTerm(None, xi_const(grid.dim, c))], order=0.0,
                   is_real=(complex(c).imag == 0.0))

    @classmethod
    def multiplier(cls, grid, xi, order=None):
        return cls(grid, [SymbolTerm(None, xi)], order=xi.order if order is None else order,
                   is_real=xi.is_real())

    @classmethod
    def from_xfield(cls, f: SpectralField, xi=None, order=None):
        xi = xi if xi is not None else xi_const(f.grid.dim)
        fld = SpectralField(f.grid, f.coeffs)
        return cls(f.grid, [SymbolTerm(fld.coeffs, xi)],
                   order=xi.order if order is None else order,
                   is_real=fld.is_hermitian() and xi.is_real())

    @classmethod
    def tabulated(cls, grid, fn, order=0.0, is_real=False, chunk=64):
        """Build the general table from fn(x_mesh, xi_tuple) -> values.

        fn is sampled at every grid point x for each half-integer dual point
        xi = p/2 and transformed in x; evaluation is chunked over the xi rows
        to bound memory.
        """
        n, d = grid.n, grid.dim
        p1 = np.arange(-n, n)  # doubled lattice, ascending
        table = np.empty(grid.shape + (2 * n,) * d, dtype=complex)
        xm = grid.x_mesh
        if d == 1:
            for lo in range(0, 2 * n, chunk):
                hi = min(lo + chunk, 2 * n)
                for i in range(lo, hi):
                    vals = fn(xm, (p1[i] / 2.0,))
                    table[:, i] = np.fft.fftn(np.asarray(vals, dtype=complex)) / grid.size
        else:
            for i in range(2 * n):
                for j in range(2 * n):
                    vals = fn(xm, (p1[i] / 2.0, p1[j] / 2.0))
                    table[:, :, i, j] = np.fft.fftn(np.asarray(vals, dtype=complex)) / grid.size
        return cls(grid, [], order=order, table=table, is_real=is_real)

    def prune(self, rel_tol):
        """Drop coefficient modes below rel_tol * max|coeff| (per term)."""
        terms = []
        for t in self.terms:
            if t.coeff is None:
                terms.append(t)
                continue
            c = t.coeff.copy()
            m = np.max(np.abs(c))
            if m > 0:
                c[np.abs(c) < rel_tol * m] = 0.0
            terms.append(SymbolTerm(c, t.xi))
        return TorusSymbol(self.grid, terms, self.order, self.table, self.is_real)

    def scaled(self, c):
        terms = [SymbolTerm(t.coeff, t.xi.scaled(c)) for t in self.terms]
        table = None if self.table is None else c * self.table
        return TorusSymbol(self.grid, terms, self.order, table,
                           self.is_real and complex(c).imag == 0.0)


# ---------------------------------------------------------------------------
# quantizer kernel

def _shifted_axis_freqs(n):
    return np.arange(n) - n // 2  # ascending [-N/2, N/2)


def _mode_slices(n, dim, m):
    """Source/target slice tuples for a frequency shift by integer vector m."""
    src, tgt = [], []
    for a in range(dim):
        lo = max(0, -int(m[a]))
        hi = min(n, n - int(m[a]))
        if lo >= hi:
            return None, None
        src.append(slice(lo, hi))
        tgt.append(slice(lo + int(m[a]), hi + int(m[a])))
    return tuple(src), tuple(tgt)


def _open_mesh(ks, src, offsets, dim):
    """Open (broadcastable) arrays ks[src_a] + offsets[a] per axis."""
    out = []
    for a in range(dim):
        v = ks[src[a]].astype(float) + offsets[a]
        sh = [1] * dim
        sh[a] = v.size
        out.append(v.reshape(sh))
    return out


def _bracket_sum(ks, src, m, dim):
    """<j+k> = sqrt(1 + |2k+m|^2) on the source slice."""
    s = 1.0
    for a in range(dim):
        v = 2.0 * ks[src[a]].astype(float) + m[a]
        sh = [1] * dim
        sh[a] = v.size
        s = s + (v ** 2).reshape(sh)
    return np.sqrt(s)


def _iter_coeff_modes(grid, coeff_shifted):
    """Yield (shifted index, integer mode m) of nonzero coefficient entries.

    Modes with a component on the Nyquist row m_a = -N/2 are skipped: they
    have no conjugate partner +N/2 on the lattice, so keeping them would
    break the exact Hermitian symmetry of real-symbol quantizations.  For
    resolved smooth coefficients these entries are at rounding level.
    """
    nz = np.argwhere(np.abs(coeff_shifted) != 0.0)
    half = grid.n // 2
    for idx in nz:
        if any(i == 0 for i in idx):
            continue
        yield tuple(idx), tuple(int(i) - half for i in idx)


def _apply_symbol(sym: TorusSymbol, ghat, cutoff: CutoffProfile | None):
    """Core double-sum application; returns (out_hat, dropped_entries)."""
    grid = sym.grid
    n, d = grid.n, grid.dim
    ks = _shifted_axis_freqs(n)
    gs = np.fft.fftshift(ghat)
    out = np.zeros_like(gs)
    dropped = 0

    for term in sym.terms:
        if term.coeff is None:
            # x-independent: pure Fourier multiplier (only j = k survives)
            xi = _open_mesh(ks, tuple(slice(0, n) for _ in range(d)), [0.0] * d, d)
            out += term.xi(xi) * gs
            continue
        cs = np.fft.fftshift(term.coeff)
        for idx, m in _iter_coeff_modes(grid, cs):
            src, tgt = _mode_slices(n, d, m)
            if src is None:
                dropped += grid.size
                continue
            vals = term.xi(_open_mesh(ks, src, [ma / 2.0 for ma in m], d))
            if cutoff is not None:
                vals = vals * cutoff.weight(float(np.linalg.norm(m)), _bracket_sum(ks, src, m, d))
            out[tgt] += cs[idx] * vals * gs[src]
            dropped += grid.size - int(np.prod([s.stop - s.start for s in src]))

    if sym.table is not None:
        half = n // 2
        for idx in np.ndindex(*grid.shape):
            m = tuple(int(grid.freq_1d[i]) for i in idx)  # table x-axis in FFT order
            if any(ma == -half for ma in m):
                continue
            src, tgt = _mode_slices(n, d, m)
            if src is None:
                dropped += grid.size
                continue
            tab_ix = tuple(2 * np.arange(s.start, s.stop) - n + ma + n for s, ma in zip(src, m))
            vals = sym.table[idx][np.ix_(*tab_ix)] if d > 1 else sym.table[idx][tab_ix[0]]
            if np.count_nonzero(vals) == 0:
                continue
            if cutoff is not None:
                vals = vals * cutoff.weight(float(np.linalg.norm(m)), _bracket_sum(ks, src, m, d))
            out[tgt] += vals * gs[src]
            dropped += grid.size - int(np.prod([s.stop - s.start for s in src]))

    return np.fft.ifftshift(out), dropped


def weyl_quantize(sym: TorusSymbol, g: SpectralField) -> SpectralField:
    """Op^W(a) g, uncut Weyl quantization."""
    out, dropped = _apply_symbol(sym, g.coeffs, None)
    sym.truncated += dropped
    return SpectralField(g.grid, out)


def bony_weyl_quantize(sym: TorusSymbol, g: SpectralField, cutoff: CutoffProfile) -> SpectralField:
    """Op^BW(a) g, Weyl quantization with the para cutoff."""
    out, dropped = _apply_symbol(sym, g.coeffs, cutoff)
    sym.truncated += dropped
    return SpectralField(g.grid, out)


def banded_matrix(sym: TorusSymbol, cutoff: CutoffProfile | None = None):
    """Assemble the (Bony-)Weyl quantizer as a sparse matrix on FFT-order flat vectors.

    Returns (csr_matrix, dropped_entries).  Entries vanish outside the band
    |j-k| <= 1.9 eps <j+k> when a cutoff is given (the chi profile underflows
    to exact zeros there); contributions leaving the lattice are dropped,
    never wrapped.  Multiplicative operators c(x) m(D) are not assembled
    here: they are applied matrix-free (pairops.MultBlock).
    """
    grid = sym.grid
    if sym.table is not None:
        raise NotImplementedError("tabulated symbols are applied matrix-free")
    n, d = grid.n, grid.dim
    ks = _shifted_axis_freqs(n)
    lin = np.fft.fftshift(np.arange(grid.size).reshape(grid.shape))
    full = tuple(slice(0, n) for _ in range(d))
    rows, cols, vals = [], [], []
    dropped = 0

    for term in sym.terms:
        if term.coeff is None:
            xi = _open_mesh(ks, full, [0.0] * d, d)
            diag = np.broadcast_to(term.xi(xi), grid.shape).ravel()
            idx = lin.ravel()
            rows.append(idx)
            cols.append(idx)
            vals.append(diag.astype(complex))
            continue
        cs = np.fft.fftshift(term.coeff)
        for cidx, m in _iter_coeff_modes(grid, cs):
            src, tgt = _mode_slices(n, d, m)
            if src is None:
                dropped += grid.size
                continue
            v = np.broadcast_to(term.xi(_open_mesh(ks, src, [ma / 2.0 for ma in m], d)),
                                tuple(s.stop - s.start for s in src)).astype(complex)
            if cutoff is not None:
                w = cutoff.weight(float(np.linalg.norm(m)), _bracket_sum(ks, src, m, d))
                v = v * np.broadcast_to(w, v.shape)
            keep = v.ravel() != 0.0
            rows.append(lin[tgt].ravel()[keep])
            cols.append(lin[src].ravel()[keep])
            vals.append((cs[cidx] * v).ravel()[keep])
            dropped += grid.size - int(np.prod([s.stop - s.start for s in src]))

    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
    M = sp.coo_matrix((vals, (rows, cols)), shape=(grid.size, grid.size), dtype=complex).tocsr()
    sym.truncated += dropped
    return M, dropped


def materialize(apply_fn, grid) -> np.ndarray:
    """Dense matrix of a linear map on coefficient vectors (tests/diagnostics)."""
    n = grid.size
    M = np.zeros((n, n), dtype=complex)
    e = np.zeros(n, dtype=complex)
    for k in range(n):
        e[k] = 1.0
        M[:, k] = apply_fn(e.reshape(grid.shape)).ravel()
        e[k] = 0.0
    return M


# ---------------------------------------------------------------------------
# symbolic composition


def symbol_compose(a: TorusSymbol, b: TorusSymbol, rho: float) -> TorusSymbol:
    """a #_rho b = ab for rho <= 1, ab + (1/2i){a,b} for rho in (1, 2]."""
    if not 0.0 < rho <= 2.0:
        raise ValueError(f"rho must be in (0,2], got {rho}")
    if a.table is not None or b.table is not None:
        raise NotImplementedError("composition is supported for separable symbols")
    grid = a.grid
    if grid != b.grid:
        raise ValueError("grid mismatch")
    terms = []
    for ta in a.terms:
        for tb in b.terms:
            terms.append(SymbolTerm(_xcoeff_product(grid, ta.coeff, tb.coeff), ta.xi * tb.xi))
            if rho > 1.0:
                # (1/2i) { a, b } = (1/2i) sum_l (d_xi_l a d_x_l b - d_x_l a d_xi_l b)
                for axis in range(grid.dim):
                    dxa = ta.xi.dxi(axis)
                    dxb = tb.xi.dxi(axis)
                    if dxa.terms and tb.coeff is not None:
                        c = _xcoeff_product(grid, ta.coeff, _xderiv(grid, tb.coeff, axis))
                        terms.append(SymbolTerm(c, (dxa * tb.xi).scaled(1.0 / 2.0j)))
                    if dxb.terms and ta.coeff is not None:
                        c = _xcoeff_product(grid, _xderiv(grid, ta.coeff, axis), tb.coeff)
                        terms.append(SymbolTerm(c, (ta.xi * dxb).scaled(-1.0 / 2.0j)))
    return TorusSymbol(grid, [t for t in terms if t.coeff is not None or t.xi.terms],
                       order=a.order + b.order)


def poisson_bracket(a: TorusSymbol, b: TorusSymbol) -> TorusSymbol:
    """{a,b} = d_xi a . d_x b - d_x a . d_xi b as a separable symbol."""
    grid = a.grid
    terms = []
    for ta in a.terms:
        for tb in b.terms:
            for axis in range(grid.dim):
                dxa = ta.xi.dxi(axis)
                dxb = tb.xi.dxi(axis)
                if dxa.terms and tb.coeff is not None:
                    terms.append(SymbolTerm(_xcoeff_product(grid, ta.coeff, _xderiv(grid, tb.coeff, axis)),
                                            dxa * tb.xi))
                if dxb.terms and ta.coeff is not None:
                    terms.append(SymbolTerm(_xcoeff_product(grid, _xderiv(grid, ta.coeff, axis), tb.coeff),
                                            (ta.xi * dxb).scaled(-1.0)))
    return TorusSymbol(grid, terms, order=a.order + b.order - 1)


def evaluate_symbol(sym: TorusSymbol, x_index, xi):
    """Pointwise value a(x, xi) at one grid point (tests/diagnostics)."""
    grid = sym.grid
    val = 0.0 + 0.0j
    for t in sym.terms:
        cx = 1.0 if t.coeff is None else grid.values_from_coeffs(t.coeff)[x_index]
        val += cx * complex(t.xi([np.asarray(v, dtype=float) for v in xi]).item())
    return val


def _xcoeff_product(grid, c1, c2):
    if c1 is None:
        return None if c2 is None else c2.copy()
    if c2 is None:
        return c1.copy()
    v = grid.values_from_coeffs(c1) * grid.values_from_coeffs(c2)
    return grid.coeffs_from_values(v)


def _xderiv(grid, coeff, axis):
    return grid.derivative_coeffs(coeff, axis)


# ---------------------------------------------------------------------------
# paraproduct


def paraproduct_decompose(f: SpectralField, g: SpectralField, cutoff: CutoffProfile):
    """fg = Op^BW(f) g + Op^BW(g) f + remainder, remainder by subtraction."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    grid = f.grid
    Tf_g = bony_weyl_quantize(TorusSymbol.from_xfield(f), g, cutoff)
    Tg_f = bony_weyl_quantize(TorusSymbol.from_xfield(g), f, cutoff)
    prod = SpectralField.from_values(grid, f.values() * g.values())
    return Tf_g, Tg_f, prod - Tf_g - Tg_f


# ---------------------------------------------------------------------------
# operator order probe


@dataclass
class OrderProbeReport:
    m: float
    estimates: dict          # (n, s) -> norm estimate
    converged: dict          # (n, s) -> bool
    growth_flags: list       # (s, n_prev, n_next, ratio) with ratio > threshold
    threshold: float = 1.5

    @property
    def ok(self):
        return not self.growth_flags and all(self.converged.values())


def operator_order_probe(make_operator, m, s_values, dim=1, sizes=(16, 32, 64),
                         max_iter=500, tol=1e-6, seed=0):
    """Power-iteration estimate of the H^s -> H^{s-m} norm across grid sizes.

    make_operator(grid) must return (apply, apply_adjoint) acting on
    coefficient arrays; the adjoint is with respect to the plain complex
    l^2 product on coefficients.  Growth by more than the threshold between
    successive sizes is flagged as an order violation.
    """
    rng = np.random.default_rng(seed)
    s_values = list(np.atleast_1d(s_values))
    estimates, converged = {}, {}
    for n in sizes:
        grid = TorusGrid(dim, n)
        apply_fn, adj_fn = make_operator(grid)
        for s in s_values:
            w_in = grid.bracket ** (-s)
            w_out = grid.bracket ** (s - m)

            def bb(x):
                # B = W_out A W_in ; iterate B* B
                y = w_out * apply_fn(w_in * x)
                return w_in * adj_fn(w_out * y)

            x = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            x /= np.linalg.norm(x)
            est, ok = 0.0, False
            for _ in range(max_iter):
                y = bb(x)
                ny = np.linalg.norm(y)
                if ny == 0.0:
                    est, ok = 0.0, True
                    break
                new = np.sqrt(ny)
                if abs(new - est) <= tol * max(new, 1.0):
                    est, ok = new, True
                    break
                est = new
                x = y / ny
            estimates[(n, s)] = est
            converged[(n, s)] = ok
    flags = []
    for s in s_values:
        for n_prev, n_next in zip(sizes[:-1], sizes[1:]):
            a, b = estimates[(n_prev, s)], estimates[(n_next, s)]
            if a > 0 and b / a > 1.5:
                flags.append((s, n_prev, n_next, b / a))
    return OrderProbeReport(m=m, estimates=estimates, converged=converged, growth_flags=flags)
