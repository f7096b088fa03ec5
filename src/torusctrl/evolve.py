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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
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
    diagnostics: dict = field(default_factory=dict)

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


def reverse_time(traj: Trajectory) -> Trajectory:
    """Snapshot order reversed, time stamps mapped t -> (t0+t1) - t."""
    return Trajectory(traj.grid, traj.tg,
                      [s.copy() for s in reversed(traj.states)],
                      [m.copy() for m in reversed(traj.midpoints)],
                      dict(traj.diagnostics))


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

    dealias (frozen_with_remainder only; default off) row-filters the
    nonlinear part of each step operator by the 2/3 mask, exactly as
    NonlinearStepOps.at_state does, so that the operator frozen at U and
    applied to U is the dealiased nonlinear right-hand side.  Off, it
    reproduces the undealiased one (model.frozen_linear_rhs).
    """

    def __init__(self, frozen: Trajectory, nl: Nonlinearity, cutoff: CutoffProfile,
                 kind="frozen_simplified", sign=1.0, dealias=False):
        if kind not in ("frozen_simplified", "frozen_with_remainder"):
            raise ValueError(f"unknown frozen kind {kind!r}")
        if dealias and kind != "frozen_with_remainder":
            raise ValueError("dealias applies to the frozen_with_remainder kind only")
        self.frozen = frozen
        self.nl = nl
        self.cutoff = cutoff
        self.kind = kind
        self.sign = float(sign)
        self.dealias = dealias
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
        else:
            bg = self.frozen.mid_background(n)
            co = compute_coefficients(PairState(SpectralField(self.grid, bg)), self.nl)
            if self.kind == "frozen_simplified":
                op = 1j * assemble_A_from_coeffs(co, self.cutoff)
            else:
                op = assemble_frozen_from_coeffs(co)
                if self.dealias:
                    op = _dealias_nonlinear(op)
            if self.sign != 1.0:
                op = self.sign * op
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


def _solve_shifted(op, a, b, krylov_tol, max_fixed=8, gmres_maxiter=300):
    """Solve (I - a L) x = b for the real-linear step operator L."""
    if isinstance(op, DiagonalOp):
        return b / (1.0 - a * op.d)
    denom = 1.0 - a * op.diagonal()
    bn = np.linalg.norm(b)
    if bn == 0.0:
        return np.zeros_like(b)

    x = b / denom
    for _ in range(max_fixed):
        r = b - (x - a * op.apply(x))
        rn = np.linalg.norm(r)
        if rn <= krylov_tol * bn:
            return x
        x = x + r / denom

    # preconditioned fixed point stalled: fall back to GMRES on the
    # realified system (the operator is only real-linear)
    n = b.size

    def mv(v):
        z = v[:n] + 1j * v[n:]
        w = z - a * op.apply(z)
        return np.concatenate([w.real, w.imag])

    def pc(v):
        z = (v[:n] + 1j * v[n:]) / denom
        return np.concatenate([z.real, z.imag])

    A = spla.LinearOperator((2 * n, 2 * n), matvec=mv, dtype=float)
    M = spla.LinearOperator((2 * n, 2 * n), matvec=pc, dtype=float)
    rhs = np.concatenate([b.real, b.imag])
    x0 = np.concatenate([x.real, x.imag])
    sol, info = spla.gmres(A, rhs, x0=x0, M=M, rtol=krylov_tol, atol=0.0,
                           restart=50, maxiter=gmres_maxiter)
    x = sol[:n] + 1j * sol[n:]
    r = np.linalg.norm(b - (x - a * op.apply(x)))
    if info != 0 and r > 10 * krylov_tol * bn:
        raise EvolveError(f"Krylov step solve failed: info={info}, residual={r:.3e}")
    return x


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
    """free + M (L - free): the nonlinear part of the frozen generator L
    (L minus the free flow -i|k|^2) row-filtered by the 2/3 mask M.

    Row-filtering the frozen generator equals filtering the nonlinear term
    of the RHS, so L frozen at U and applied to U gives the dealiased
    nonlinear right-hand side.
    """
    grid = L.grid
    free = PairOp(grid, sp.diags(-1j * grid.abs2.ravel().astype(complex)))
    return free + (L - free).row_scaled(dealias_mask(grid).astype(float))


class NonlinearStepOps:
    """Frozen-at-state generator for the nonlinear midpoint passes.

    When dealiasing, the multiplicative terms are row-filtered by the 2/3
    mask (_dealias_nonlinear), so the midpoint fixed point solves the
    dealiased nonlinear equation exactly.
    """

    def __init__(self, grid, nl, sign=1.0, dealias=True):
        self.grid = grid
        self.nl = nl
        self.sign = float(sign)
        self.dealias = dealias

    def at_state(self, coeffs):
        co = compute_coefficients(PairState(SpectralField(self.grid, coeffs)), self.nl)
        L = assemble_frozen_from_coeffs(co)
        if self.dealias:
            L = _dealias_nonlinear(L)
        return self.sign * L


# Midpoint fixed-point passes per nonlinear step: on the picard-n16 replay the
# midpoint defect is the same with 2, 3, 4, 6 or 10 passes (the step-solve floor).
_NONLINEAR_PASSES = 2


def evolve_nonlinear(grid: TorusGrid, tg: TimeGrid, nl: Nonlinearity, init,
                     control=None, sign=1.0, dealias=True,
                     krylov_tol=1e-10, record_mass=False) -> Trajectory:
    """Implicit midpoint for the controlled nonlinear equation.

    control, when given, is (chi_mid, phi_values, F_mids) as control_sources
    takes it.
    """
    a = 0.5 * tg.dt
    ops = NonlinearStepOps(grid, nl, sign=sign, dealias=dealias)
    init = _as_coeffs(grid, init)
    states = [init.copy()]
    mids = []
    mass = [float(np.vdot(init, init).real)] if record_mass else None

    sources = None if control is None else control_sources(grid, control, sign)
    for n in range(tg.steps):
        rhs = states[n].ravel()
        if sources is not None:
            rhs = rhs + a * sources[n].ravel()
        x = states[n].ravel()
        for _ in range(_NONLINEAR_PASSES):
            op = ops.at_state(x.reshape(grid.shape))
            x = _solve_shifted(op, a, rhs, krylov_tol)
        _check_finite(x, f"at step {n}")
        mids.append(x.reshape(grid.shape))
        states.append((2.0 * x - states[n].ravel()).reshape(grid.shape))
        if record_mass:
            mass.append(float(np.vdot(states[-1], states[-1]).real))
    diag = {"mass": mass} if record_mass else {}
    return Trajectory(grid, tg, states, mids, diag)


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
