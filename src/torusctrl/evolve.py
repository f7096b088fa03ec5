"""Implicit-midpoint time integration for every evolution in the pipeline:
frozen linear (with or without the smoothing remainder), its exact pairing
adjoint, and the full nonlinear flow, forward or backward.

The paradifferential generator i A(U) is an assembled sparse PairOp; the
multiplicative frozen generator (with remainder, and the nonlinear step
operator) is matrix-free, applied by FFTs, and its pairing transpose is the
exact FFT transpose of the same computation (pairops.MultBlock).

Each step solves (I - (dt/2) L_mid) x* = U_n + (dt/2) G_mid and sets
U_{n+1} = 2 x* - U_n, with L_mid the generator at the midpoint time
(frozen coefficients linearly interpolated between node snapshots).  The
one-step propagator P = (I-aL)^{-1}(I+aL) satisfies P^T = Q^{-1} exactly
against the adjoint-generator propagator Q, so the discrete duality sum
sum_n dt (G_n, V*_n) telescopes exactly (to Krylov tolerance); all HUM
identities inherit that exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse.linalg as spla

from .model import (Nonlinearity, assemble_A_from_coeffs, assemble_frozen_from_coeffs,
                    compute_coefficients, dealias_mask)
from .pairops import DiagonalOp, PairOp
from .paradiff import CutoffProfile
from .spectral import PairState, SpectralField, TorusGrid


class EvolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if self.steps <= 0 or not self.t1 > self.t0:
            raise ValueError("need t1 > t0 and steps > 0")

    @property
    def dt(self):
        return (self.t1 - self.t0) / self.steps

    @cached_property
    def midpoints(self):
        return self.t0 + self.dt * (np.arange(self.steps) + 0.5)


@dataclass
class Trajectory:
    grid: TorusGrid
    tg: TimeGrid
    states: list                 # steps+1 node coefficient arrays
    midpoints: list              # steps midpoint coefficient arrays

    def state(self, n) -> PairState:
        return PairState(SpectralField(self.grid, self.states[n]))

    @property
    def initial(self) -> PairState:
        return self.state(0)

    @property
    def terminal(self) -> PairState:
        return self.state(self.tg.steps)

    def mid_background(self, n):
        """Frozen background at the n-th midpoint (linear interpolation)."""
        return 0.5 * (self.states[n] + self.states[n + 1])


def zero_trajectory(grid: TorusGrid, tg: TimeGrid) -> Trajectory:
    z = np.zeros(grid.shape, dtype=complex)
    return Trajectory(grid, tg, [z.copy() for _ in range(tg.steps + 1)],
                      [z.copy() for _ in range(tg.steps)])


# ---------------------------------------------------------------------------
# generator programs


class FrozenProgram:
    """Per-step generators for the frozen linear systems.

    kind: "frozen_simplified" (i A(U), paradifferential) or
    "frozen_with_remainder" (i A(U) + R(U), the multiplicative frozen form).
    sign -1 gives the time-reversed generator; adjoint_program() the exact
    pairing adjoint -L^T (PairOp.transpose_pairing of each step operator:
    the transposed CSR blocks of i A(U), the exact FFT transpose of the
    matrix-free multiplicative form; discrete duality is exact either way).

    The frozen-with-remainder step operator comes from _frozen_generator, as
    evolve_nonlinear's does: frozen at U and applied to U, it is the
    dealiased nonlinear right-hand side.
    """

    def __init__(self, frozen: Trajectory, nl: Nonlinearity, cutoff: CutoffProfile,
                 kind="frozen_simplified", sign=1.0):
        if kind not in ("frozen_simplified", "frozen_with_remainder"):
            raise ValueError(f"unknown frozen kind {kind!r}")
        self.frozen = frozen
        self.nl = nl
        self.cutoff = cutoff
        self.kind = kind
        self.sign = float(sign)
        self.grid = frozen.grid
        self.tg = frozen.tg
        self._cache = {}
        self._base = None  # the forward program, when this is its adjoint

    def adjoint_program(self):
        other = FrozenProgram.__new__(FrozenProgram)
        other.__dict__.update(self.__dict__)
        other._cache = {}
        other._base = self
        return other

    def step_op(self, n):
        if n in self._cache:
            return self._cache[n]
        if self._base is not None:
            base = self._base.step_op(n)
            op = (-1.0) * base.transpose_pairing()
        elif self.kind == "frozen_with_remainder":
            op = _frozen_generator(self.grid, self.nl, self.frozen.mid_background(n),
                                   self.sign)
        else:
            bg = self.frozen.mid_background(n)
            co = compute_coefficients(PairState(SpectralField(self.grid, bg)), self.nl)
            op = assemble_A_from_coeffs(co, self.cutoff, 1j * self.sign)
        self._cache[n] = op
        return op


class FreeProgram:
    """Zero background: the generator is the exact diagonal multiplier."""

    def __init__(self, grid: TorusGrid, tg: TimeGrid, sign=1.0):
        self.grid = grid
        self.tg = tg
        self.sign = float(sign)
        # i A(0) = -i |k|^2 multiplier; its pairing adjoint flow is itself
        self._op = DiagonalOp(grid, -1j * self.sign * grid.abs2.ravel())

    def adjoint_program(self):
        other = FreeProgram(self.grid, self.tg, self.sign)
        other._op = DiagonalOp(self.grid, -np.conj(self._op.d))
        return other

    def step_op(self, n):
        return self._op


# ---------------------------------------------------------------------------
# linear-step solver


# a step solve's preconditioned fixed-point sweeps, then its GMRES fallback's backstop
_FIXED_SWEEPS, _STEP_GMRES_BACKSTOP = 8, 15000


def _solve_shifted(op, a, b, krylov_tol):
    """Solve (I - a L) x = b for the real-linear step operator L."""
    if isinstance(op, DiagonalOp):
        return b / (1.0 - a * op.d)
    denom = 1.0 - a * op.diagonal()
    bn = np.linalg.norm(b)
    if bn == 0.0:
        return np.zeros_like(b)

    x = b / denom
    for _ in range(_FIXED_SWEEPS):
        r = b - (x - a * op.apply(x))
        rn = np.linalg.norm(r)
        if rn <= krylov_tol * bn:
            return x
        x = x + r / denom

    # preconditioned fixed point stalled: fall back to GMRES
    x, _, r = _gmres_real(lambda z: z - a * op.apply(z), lambda z: z / denom, b, krylov_tol,
                          _STEP_GMRES_BACKSTOP, x0=x)
    if np.linalg.norm(r) > 10 * krylov_tol * bn:
        raise EvolveError(f"Krylov step solve failed: residual={np.linalg.norm(r):.3e}")
    return x


def _gmres_real(apply, precondition, b, tol, max_iter, x0=None):
    """GMRES on apply(x) = b != 0 for a real-linear apply, realified: x -> [Re x, Im x].

    precondition approximates apply's inverse (scipy applies it on the left).
    Stops when the true residual, tested after each restart cycle of 50
    iterations, falls to tol relative to b, or after the cycles that hold
    max_iter iterations.  Returns (x, iterations, the residual b - apply(x)).
    """
    n = b.size
    last = {}

    def real(z):
        return np.concatenate([z.real, z.imag])

    def realified(f):
        return spla.LinearOperator((2 * n, 2 * n), dtype=float,
                                   matvec=lambda v: real(f(v[:n] + 1j * v[n:])))

    def recorded(z):
        last["x"], last["Ax"] = z, apply(z)
        return last["Ax"]

    iterations = []
    restart = min(50, max_iter)
    sol, _ = spla.gmres(realified(recorded), real(b), x0=None if x0 is None else real(x0),
                        M=realified(precondition), rtol=tol, atol=0.0, restart=restart,
                        maxiter=-(-max_iter // restart), callback=iterations.append,
                        callback_type="pr_norm")
    x = sol[:n] + 1j * sol[n:]
    # scipy's last application is the residual test of the iterate it returns
    Ax = last["Ax"] if np.array_equal(last.get("x"), x) else apply(x)
    return x, len(iterations), b - Ax


def _check_finite(x, where):
    if not np.all(np.isfinite(x)):
        raise EvolveError(f"non-finite state detected {where}")


def evolve_linear(program, init, direction="forward", source=None,
                  krylov_tol=1e-10) -> Trajectory:
    """March the implicit midpoint rule for a (frozen) linear generator.

    source, when given, is a list of midpoint coefficient arrays G_n.
    Forward starts from U(t0)=init; backward starts from U(t1)=init and
    fills the trajectory downward on the same grid: the forward step, dt -> -dt.
    """
    grid, tg = program.grid, program.tg
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    forward = direction == "forward"
    h = 0.5 * tg.dt if forward else -0.5 * tg.dt
    states = [None] * (tg.steps + 1)
    mids = [None] * tg.steps
    states[0 if forward else tg.steps] = _as_coeffs(grid, init).copy()
    for n in (range(tg.steps) if forward else range(tg.steps - 1, -1, -1)):
        src, dst = (n, n + 1) if forward else (n + 1, n)
        rhs = states[src].ravel()
        if source is not None:
            rhs = rhs + h * source[n].ravel()
        x = _solve_shifted(program.step_op(n), h, rhs, krylov_tol)
        _check_finite(x, f"at step {n}")
        mids[n] = x.reshape(grid.shape)
        states[dst] = (2.0 * x - states[src].ravel()).reshape(grid.shape)
    return Trajectory(grid, tg, states, mids)


def _as_coeffs(grid, init):
    if isinstance(init, PairState):
        return init.u.coeffs
    if isinstance(init, SpectralField):
        return init.coeffs
    return np.asarray(init, dtype=complex).reshape(grid.shape)


# ---------------------------------------------------------------------------
# nonlinear flow


def _dealias_nonlinear(L: PairOp) -> PairOp:
    """L with its multiplication part row-filtered by the 2/3 mask M.

    Valid for an L from model.assemble_frozen_from_coeffs, whose sparse part
    is the free flow -i|k|^2 and nothing else: the result is then
    free + M (L - free), the nonlinear part of L filtered.  Row-filtering
    the frozen generator equals filtering the nonlinear term of the RHS, so
    L frozen at U and applied to U gives the dealiased nonlinear right-hand
    side.
    """
    mask = dealias_mask(L.grid).astype(float)
    return PairOp(L.grid, L.Z, L.C, [b.scaled(mask) for b in L.mult])


def _frozen_generator(grid, nl, coeffs, sign):
    """sign * (the dealiased frozen-with-remainder generator at the state coeffs).

    The one builder of that generator: FrozenProgram's step operators and
    the passes of evolve_nonlinear both come from here, so the Picard
    rounds solve exactly the equation that the replay integrates.
    """
    co = compute_coefficients(PairState(SpectralField(grid, coeffs)), nl)
    op = _dealias_nonlinear(assemble_frozen_from_coeffs(co))
    return op if sign == 1.0 else sign * op


# Cap on the midpoint fixed-point passes of one nonlinear step (the N=16
# Picard replay at datum amplitude 4e-1 takes at most 6).
_NONLINEAR_MAX_PASSES = 12


def evolve_nonlinear(grid: TorusGrid, tg: TimeGrid, nl: Nonlinearity, init,
                     control=None, sign=1.0, krylov_tol=1e-10) -> Trajectory:
    """Implicit midpoint for the controlled nonlinear equation, 2/3-dealiased
    (the right-hand side is model.full_nonlinear_rhs with dealias=True).

    control, when given, is (chi_mid, phi_values, F_mids) as control_sources
    takes it.  Each midpoint equation is solved by passes x_p = (I - a
    L(x_{p-1}))^-1 rhs from x_0 = U_n, at least two, until the error estimate
    d_p^2 / (d_{p-1} - d_p), d_p = ||x_p - x_{p-1}||, is below krylov_tol ||x_p||
    (Hairer-Lubich-Wanner 2006, VIII.6); EvolveError names the d_p otherwise.
    """
    a = 0.5 * tg.dt
    init = _as_coeffs(grid, init)
    states = [init.copy()]
    mids = []

    sources = None if control is None else control_sources(grid, control, sign)
    for n in range(tg.steps):
        rhs = states[n].ravel()
        if sources is not None:
            rhs = rhs + a * sources[n].ravel()
        x, d = states[n].ravel(), []
        for _ in range(_NONLINEAR_MAX_PASSES):
            op = _frozen_generator(grid, nl, x.reshape(grid.shape), sign)
            x, x_prev = _solve_shifted(op, a, rhs, krylov_tol), x
            d.append(np.linalg.norm(x - x_prev))
            if len(d) > 1 and d[-1] ** 2 <= krylov_tol * np.linalg.norm(x) * (d[-2] - d[-1]):
                break
        else:
            raise EvolveError(f"midpoint passes unconverged at step {n}: ||x_p - x_(p-1)|| "
                              f"= {np.array(d)}, ||x|| = {np.linalg.norm(x):.3e}")
        _check_finite(x, f"at step {n}")
        mids.append(x.reshape(grid.shape))
        states.append((2.0 * x - states[n].ravel()).reshape(grid.shape))
    return Trajectory(grid, tg, states, mids)


def control_sources(grid, control, sign):
    """Midpoint sources -sign * i chi phi F of the controlled equation.

    control is (chi_mid, phi_values, F_mids): chi sampled at the midpoints,
    the spatial cutoff on the grid, and the midpoint control coefficient
    arrays.
    """
    chi_mid, phi, F_mids = control
    out = []
    for c, f in zip(chi_mid, F_mids):
        if c == 0.0:
            out.append(np.zeros(grid.shape, dtype=complex))
            continue
        fv = grid.values_from_coeffs(np.asarray(f, dtype=complex).reshape(grid.shape))
        out.append(grid.coeffs_from_values(-sign * 1j * c * phi * fv))
    return out
