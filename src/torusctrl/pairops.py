"""Real-linear operators on pair states U = (u, conj u).

Every operator here acts on the stored component's coefficient vector
(FFT order, flattened) as

    L w = Z @ w + C @ cr(w) + M(w),        cr(w)_j = conj(w_{-j}),

i.e. Z is the complex-linear block and C the conjugate-coupling block
(the action of the (1,2) entry of the 2x2 matrix operator on the second
pair component).  The implied second row is the conjugate mirror
(tilde(C), tilde(Z)), so composition, transposition and apply_full are
valid only for pair-preserving ("mirror") operators -- those commuting
with the conjugation symmetry, like i*A or the frozen generators.  A
first-row representation of an anti-mirror operator (A itself, E) still
applies correctly to pair states via apply(), but must be multiplied by i
before composing.

A PairOp holds two representations, summed:

- the sparse part (Z, C), CSR matrices: the paradifferential operators
  and Fourier multipliers.  It supports apply, apply_full, compose,
  transpose_pairing, addition, scalar multiplication and diagonal.
- the multiplication part M, a tuple of MultBlock: sums of grid products
  c(x) * m(D) w (and of c(x) * m(D) cr(w)) followed by an output Fourier
  multiplier, applied by FFTs and never assembled.  It supports all of
  the above except compose, which raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def conj_reflect(grid, w):
    """cr(w): coefficients of conj of the field with coefficients w."""
    return np.conj(w[grid.reflect_perm_flat])


def _tilde(grid, M):
    """tilde(M) = P conj(M) P with P the j -> -j permutation."""
    p = grid.reflect_perm_flat
    return M[p][:, p].conj()


@dataclass(frozen=True)
class MultBlock:
    """post * F[sum_t c_t F^-1(m_t x_t)], x_t = w for t < nz and cr(w) after.

    F is the grid transform (coeffs_from_values).  c holds the coefficient
    values c_t on the grid and m the Fourier multipliers m_t, stacked along
    a leading term axis; post is a grid-shaped output multiplier.  The
    terms share one batched inverse transform and one forward transform.
    """

    post: np.ndarray
    c: np.ndarray
    m: np.ndarray
    nz: int

    def apply(self, xz, xc):
        """The block on independent inputs: xz for the first nz terms, xc for the rest."""
        x = np.empty(self.m.shape, dtype=complex)
        x[:self.nz] = xz
        x[self.nz:] = xc
        # norm="forward" is the grid's normalization (TorusGrid.values_from_coeffs)
        axes = tuple(range(1, x.ndim))
        vals = np.fft.ifftn(self.m * x, axes=axes, norm="forward")
        return self.post * np.fft.fftn(np.sum(self.c * vals, axis=0), norm="forward")

    def scaled(self, s):
        """Output multiplied by s (a scalar or a grid-shaped row factor)."""
        return MultBlock(self.post * s, self.c, self.m, self.nz)

    def transposed(self, grid):
        """Blocks of the pairing transpose, one per term.

        w terms: the complex adjoint conj(m) F conj(c) F^-1 conj(post);
        cr(w) terms: P m F c F^-1 post P with P the j -> -j reflection.
        """
        out = [MultBlock(np.conj(m), np.conj(c)[None], np.conj(self.post)[None], 1)
               for c, m in zip(self.c[:self.nz], self.m[:self.nz])]
        out += [MultBlock(grid.reflect(m), c[None], grid.reflect(self.post)[None], 0)
                for c, m in zip(self.c[self.nz:], self.m[self.nz:])]
        return out

    def diagonal(self):
        """post(k) * sum_{t<nz} c_hat_t(0) m_t(k): the w terms' diagonal (cr(w) terms have none)."""
        c, m = self.c[:self.nz], self.m[:self.nz]
        means = c.mean(axis=tuple(range(1, c.ndim)))
        return self.post * np.tensordot(means, m, axes=1)


class PairOp:
    """Real-linear pair operator: sparse (Z, C) plus an optional multiplication part."""

    def __init__(self, grid, Z, C=None, mult=()):
        self.grid = grid
        self.Z = sp.csr_matrix(Z)
        self.C = sp.csr_matrix(C) if C is not None and _nnz(C) else None
        self.mult = tuple(mult)
        self._diag = None

    @classmethod
    def identity(cls, grid):
        return cls(grid, sp.identity(grid.size, dtype=complex, format="csr"))

    def _mult_apply(self, xz, xc):
        g = self.grid
        xz, xc = xz.reshape(g.shape), xc.reshape(g.shape)
        return sum(b.apply(xz, xc) for b in self.mult).ravel()

    def apply(self, w):
        out = self.Z @ w
        if self.C is not None or self.mult:
            cw = conj_reflect(self.grid, w)
            if self.C is not None:
                out = out + self.C @ cw
            if self.mult:
                out = out + self._mult_apply(w, cw)
        return out

    def apply_full(self, w1, w2):
        """Action of the full 2x2 operator on an arbitrary (w1, w2) pair."""
        g = self.grid
        C = self.C if self.C is not None else sp.csr_matrix((g.size, g.size), dtype=complex)
        top = self.Z @ w1 + C @ w2
        bot = _tilde(g, C) @ w1 + _tilde(g, self.Z) @ w2
        if self.mult:
            # tilde(Z) w2 + tilde(C) w1 = cr(Z cr(w2) + C cr(w1))
            top = top + self._mult_apply(w1, w2)
            bot = bot + conj_reflect(g, self._mult_apply(conj_reflect(g, w2),
                                                         conj_reflect(g, w1)))
        return top, bot

    def diagonal(self):
        """Diagonal of the complex-linear block (Z and the z terms), computed once."""
        if self._diag is None:
            d = self.Z.diagonal()
            for b in self.mult:
                d = d + b.diagonal().ravel()
            self._diag = d
        return self._diag

    def compose(self, other):
        """self o other (sparse operators only)."""
        if self.mult or other.mult:
            raise NotImplementedError("composition of multiplication parts is not supported")
        g = self.grid
        Z1, C1, Z2, C2 = self.Z, self.C, other.Z, other.C
        Z = Z1 @ Z2
        C = None
        if C2 is not None:
            C = Z1 @ C2
        if C1 is not None:
            if C2 is not None:
                Z = Z + C1 @ _tilde(g, C2)
            t = C1 @ _tilde(g, Z2)
            C = t if C is None else C + t
        return PairOp(g, Z, C)

    def transpose_pairing(self):
        """Transpose with respect to the real pairing 2 Re <u,v> (exact: entries only move).

        (Z, C) -> (Z^H, P C^T P), P the j -> -j reflection.  P C^T P is taken
        as ((C P)^T) P: C P and its transpose's right factor P relabel column
        indices, so the only reordering is the one CSR transpose.
        """
        g = self.grid
        Zt = self.Z.T.tocsr()
        np.conj(Zt.data, out=Zt.data)
        Ct = None
        if self.C is not None:
            p = g.reflect_perm_flat
            Ct = _columns_relabelled(_columns_relabelled(self.C, p).T.tocsr(), p)
        return PairOp(g, Zt, Ct, [t for b in self.mult for t in b.transposed(g)])

    def __add__(self, other):
        C = None
        if self.C is not None or other.C is not None:
            a = self.C if self.C is not None else 0
            b = other.C if other.C is not None else 0
            C = a + b
        return PairOp(self.grid, self.Z + other.Z, C, self.mult + other.mult)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        C = None if self.C is None else _scaled(self.C, scalar)
        return PairOp(self.grid, _scaled(self.Z, scalar), C, [b.scaled(scalar) for b in self.mult])


class DiagonalOp:
    """Fourier-multiplier pair operator (diagonal Z, no conjugate coupling)."""

    def __init__(self, grid, multiplier):
        self.grid = grid
        self.d = np.asarray(multiplier, dtype=complex).ravel()

    def apply(self, w):
        return self.d * w


def _scaled(M, s):
    """s M for a CSR matrix M, sharing its index arrays (no operator here changes them)."""
    return sp.csr_matrix((s * M.data, M.indices, M.indptr), shape=M.shape)


def _columns_relabelled(M, p):
    """M P for a CSR matrix M and an involutive permutation p: column k becomes column p[k]."""
    return sp.csr_matrix((M.data, p[M.indices], M.indptr), shape=M.shape)


def _nnz(M):
    try:
        return M.nnz
    except AttributeError:
        return np.count_nonzero(M)
