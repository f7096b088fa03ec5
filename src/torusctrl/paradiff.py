"""Discrete Weyl / Bony-Weyl quantization, symbolic composition, paraproducts.

A symbol a(x, xi) is a finite sum of separable terms c_i(x) * m_i(xi) with
the m_i polynomials in xi, plus an optional general table a_hat(m, xi) on
the half-integer dual grid.  Quantization follows

    (Op(a) g)^(j) = sum_k a_hat(j - k, (j + k)/2) g_hat(k)

with the x-transform normalized so that Op(1) is exactly the identity; the
Bony-Weyl variant weights each entry by chi(|j-k| / (eps <j+k>)).

One kernel, banded_matrix, does all quantization.  The band (every (j, k)
with chi != 0 and j - k off the Nyquist row), xi = (j+k)/2 and chi do not
depend on the symbol, so they are computed once per (grid, cutoff) on first
use and cached, as is each xi-polynomial's weight P(xi) chi over the band; a
symbol's matrix is then one gather c_hat[j-k] P(xi) chi (or
table[j-k, j+k] chi) over that pattern, and weyl_quantize and
bony_weyl_quantize apply it.  Coefficient modes below 1e-14 of a term's
largest are dropped.  Contributions whose output frequency j leaves the
resolved lattice are dropped and counted, never wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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

    def scaled(self, c):
        terms = [SymbolTerm(t.coeff, t.xi.scaled(c)) for t in self.terms]
        table = None if self.table is None else c * self.table
        return TorusSymbol(self.grid, terms, self.order, table,
                           self.is_real and complex(c).imag == 0.0)


# ---------------------------------------------------------------------------
# quantizer kernel

# per separable term, coefficient modes below this share of max|c_hat| are
# zeroed before the gather; exact zeros never enter the matrix
_PRUNE_REL = 1e-14


class _BandPattern:
    """CSR structure of every (j, k) with j - k off the Nyquist row and chi != 0.

    Rows j and columns k are FFT-order flat indices, sorted.  Per entry:
    mode, the FFT-order flat index of m = j - k (|m_a| < N/2); pair, the
    flat index of j + k + N on the doubled lattice [0, 2N)^d; xi = (j + k)/2
    per axis; chi = chi(|j-k| / (eps <j+k>)), 1 for plain Weyl.  diag holds
    the positions of the entries j = k; lost[m] = N^d - prod_a (N - |m_a|)
    counts the contributions of mode m that leave the lattice (0 on the
    Nyquist row, whose modes are never gathered: m_a = -N/2 has no partner
    +N/2 on the lattice, so gathering it would break the exact Hermitian
    symmetry of real-symbol quantizations).  The arrays are read-only, as
    are the polynomial weights that weight() caches.
    """

    def __init__(self, dim, n, epsilon):
        f = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        j1, k1 = np.nonzero(np.abs(f[:, None] - f[None, :]) < n // 2)  # per-axis pairs
        sel = np.indices((j1.size,) * dim).reshape(dim, -1)
        shape = (n,) * dim
        row = np.ravel_multi_index([j1[s] for s in sel], shape)
        col = np.ravel_multi_index([k1[s] for s in sel], shape)
        j = [f[j1[s]] for s in sel]
        k = [f[k1[s]] for s in sel]
        chi = np.ones(row.size)
        if epsilon is not None:
            m_norm = np.sqrt(sum((a - b).astype(float) ** 2 for a, b in zip(j, k)))
            bracket = np.sqrt(1.0 + sum((a + b).astype(float) ** 2 for a, b in zip(j, k)))
            chi = CutoffProfile(epsilon).weight(m_norm, bracket)
        order = np.lexsort((col, row))
        order = order[chi[order] != 0.0]
        j = [a[order] for a in j]
        k = [b[order] for b in k]
        self.indices = col[order].astype(np.int32)
        self.indptr = np.searchsorted(row[order], np.arange(n ** dim + 1)).astype(np.int32)
        self.mode = np.ravel_multi_index([(a - b) % n for a, b in zip(j, k)], shape)
        self.pair = np.ravel_multi_index([a + b + n for a, b in zip(j, k)], (2 * n,) * dim)
        self.xi = tuple((a + b) / 2.0 for a, b in zip(j, k))
        self.chi = chi[order]
        self.diag = np.flatnonzero(self.mode == 0)
        fm = np.meshgrid(*[f] * dim, indexing="ij")
        lost = n ** dim - np.prod([n - np.abs(a) for a in fm], axis=0)
        lost[np.any([a == -(n // 2) for a in fm], axis=0)] = 0
        self.lost = lost.ravel()
        for a in (self.indices, self.indptr, self.mode, self.pair, self.chi, self.diag,
                  self.lost) + self.xi:
            a.flags.writeable = False
        self._weights = {}

    def weight(self, poly):
        """P(xi) chi per band entry, computed on first use per polynomial;
        float64 for a real P (as the solver's |xi|^2 and xi_l), complex otherwise."""
        key = tuple(sorted(poly.terms.items()))
        w = self._weights.get(key)
        if w is None:
            w = poly(self.xi) * self.chi
            w = np.ascontiguousarray(w.real if poly.is_real() else w)
            w.flags.writeable = False
            self._weights[key] = w
        return w


@lru_cache(maxsize=None)
def _band_pattern(dim, n, epsilon):
    """The pattern of one (grid, cutoff), built on first use; epsilon None is plain Weyl."""
    return _BandPattern(dim, n, epsilon)


def banded_matrix(sym: TorusSymbol, cutoff: CutoffProfile | None = None):
    """Assemble the (Bony-)Weyl quantizer as a sparse matrix on FFT-order flat vectors.

    Returns (csr_matrix, dropped_entries).  The entries are a gather over
    the cached band pattern of the grid and cutoff:

        sum_t c_hat_t[j-k] P_t((j+k)/2) chi    (separable terms),
        table[j-k, j+k] chi                    (the tabulated part),

    and P_t(j) on the diagonal for the x-independent terms.  The weights
    P_t chi come from the pattern's cache (_BandPattern.weight), so a call
    evaluates no polynomial on the band.  Per separable term, coefficient
    modes below 1e-14 max|c_hat_t| are zeroed first; entries to which no
    term contributes a nonzero stay out of the matrix.
    With a cutoff the band is |j-k| < 1.9 eps <j+k> (chi vanishes exactly
    beyond).  Contributions leaving the lattice are dropped, never wrapped,
    and their number is returned and added to sym.truncated.  Every call
    returns a matrix with its own index arrays.
    """
    grid = sym.grid
    pat = _band_pattern(grid.dim, grid.n, None if cutoff is None else cutoff.epsilon)
    vals = np.zeros(pat.chi.size, dtype=complex)
    keep = np.zeros(pat.chi.size, dtype=bool)
    dropped = 0
    for term in sym.terms:
        if term.coeff is None:
            vals[pat.diag] += term.xi(tuple(x[pat.diag] for x in pat.xi))
            keep[pat.diag] = True
            continue
        c = term.coeff.ravel().copy()
        c[np.abs(c) < _PRUNE_REL * np.max(np.abs(c))] = 0.0
        live = c != 0.0
        dropped += int(pat.lost[live].sum())
        v = pat.weight(term.xi)
        vals += c[pat.mode] * v
        keep |= (v != 0.0) if live.all() else live[pat.mode] & (v != 0.0)
    if sym.table is not None:
        tab = sym.table.reshape(grid.size, -1)
        full = _band_pattern(grid.dim, grid.n, None)
        hit = np.zeros(grid.size, dtype=bool)
        hit[full.mode[tab[full.mode, full.pair] != 0.0]] = True
        dropped += int(pat.lost[hit].sum())
        v = tab[pat.mode, pat.pair]
        vals += v * pat.chi
        keep |= v != 0.0
    # row starts less the band entries left out before each
    indptr = pat.indptr - np.searchsorted(np.flatnonzero(~keep), pat.indptr)
    M = sp.csr_matrix((vals[keep], pat.indices[keep], indptr), shape=(grid.size, grid.size))
    sym.truncated += dropped
    return M, dropped


def weyl_quantize(sym: TorusSymbol, g: SpectralField) -> SpectralField:
    """Op^W(a) g, uncut Weyl quantization."""
    M, _ = banded_matrix(sym)
    return SpectralField(g.grid, (M @ g.coeffs.ravel()).reshape(g.grid.shape))


def bony_weyl_quantize(sym: TorusSymbol, g: SpectralField, cutoff: CutoffProfile) -> SpectralField:
    """Op^BW(a) g, Weyl quantization with the para cutoff."""
    M, _ = banded_matrix(sym, cutoff)
    return SpectralField(g.grid, (M @ g.coeffs.ravel()).reshape(g.grid.shape))


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


# power iteration of operator_order_probe: round cap and relative settling
_PROBE_MAX_ITER, _PROBE_TOL = 500, 1e-6


def operator_order_probe(make_operator, m, s_values, dim=1, sizes=(16, 32, 64)):
    """Power-iteration estimate of the H^s -> H^{s-m} norm across grid sizes.

    make_operator(grid) must return (apply, apply_adjoint) acting on
    coefficient arrays; the adjoint is with respect to the plain complex
    l^2 product on coefficients.  Growth by more than the threshold between
    successive sizes is flagged as an order violation.
    """
    rng = np.random.default_rng(0)
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
            for _ in range(_PROBE_MAX_ITER):
                y = bb(x)
                ny = np.linalg.norm(y)
                if ny == 0.0:
                    est, ok = 0.0, True
                    break
                new = np.sqrt(ny)
                if abs(new - est) <= _PROBE_TOL * max(new, 1.0):
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
