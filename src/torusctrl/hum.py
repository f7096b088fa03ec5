"""HUM machinery: range/solution operators, the Gramian and its Krylov
inversion in the pair scalar product, the control operators for the
simplified and remainder-perturbed systems, and the observability constant.

The solution operator is the exact discrete pairing-adjoint flow of the
forward generator (see evolve), so the duality identity, the symmetry and
positivity of the Gramian, and the controlled-replay identities all hold to
Krylov tolerance at every frozen background.

One GMRES in the pair product (HumProblem._solve), preconditioned by the
closed-form zero-background Gramian K0 (free_gramian), serves both HUM
systems: K v0 = U_in (hum_invert) and (K + E K) v0 = U_in for the
remainder-perturbed control (control_op_P), but not observability_constant:
eigvalsh of P K P on the gamma-ball.  HUM by Krylov iteration in the pair
product follows Glowinski-Lions-He (CUP 2008); GMRES is Saad-Schultz (SISC 7, 1986).

K + E K costs one Gramian application.  With G = chi^2 phi^2 S v0, let Z
be the simplified backward solve of G and Y the remainder backward solve of
R(U) Z at the midpoints, so that E K v0 = -Y(0).  The implicit midpoint rule
is linear and the remainder step operator is the simplified one plus R(U)
at every midpoint, so Z + Y is the remainder backward solve of G:
(K + E K) v0 = -R_rem(G)(0), one adjoint and one backward sweep
(hum_apply(v0, with_remainder=True)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .bump import chi_plateau
from .evolve import (FreeProgram, FrozenProgram, TimeGrid, Trajectory, _as_coeffs,
                     _gmres_real, control_sources, evolve_linear)
from .model import Nonlinearity
from .paradiff import CutoffProfile
from .spectral import TorusGrid


class HumError(RuntimeError):
    """A HUM solve failed; report, when given, holds the measured quantities."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


GAMMA = 1.0 / 3.0      # the HUM frequency filter keeps the modes |k| <= GAMMA N/2


@dataclass
class ControlSetup:
    """Horizon, cutoffs and solver tolerances for one problem.

    Settings: T, steps, phi, chi, cg_tol, cg_max_iter, tol_terminal, krylov_tol.
    Constants: the frequency filter keeps |k| <= GAMMA N/2 (GAMMA = 1/3);
    every frozen operator uses the paradifferential cutoff CutoffProfile().

    cg_tol is the true relative pair-norm residual at which every HUM
    solve (HumProblem._solve) stops.  krylov_tol is the relative residual
    of every implicit-midpoint step solve.  A caller with a tighter outer
    target may tighten both (picard.null_control does), never loosen them.
    cg_max_iter is only a backstop against runaway GMRES solves, which stop
    on convergence long before it; None (the default) sets it to 8 N^d,
    four times the real dimension 2 N^d (cg_budget).
    """

    grid: TorusGrid
    T: float
    steps: int
    phi: np.ndarray = None          # spatial cutoff values; None = full observation
    chi: object = "plateau"         # "plateau" | "full" | callable t -> value
    cg_tol: float = 1e-10
    cg_max_iter: int = None
    tol_terminal: float = 1e-6
    krylov_tol: float = 1e-11

    def __post_init__(self):
        if self.phi is not None:
            self.phi = np.asarray(self.phi, dtype=float)
            if self.phi.shape != self.grid.shape:
                raise ValueError("phi shape mismatch")
            if self.phi.min() < -1e-12 or self.phi.max() > 1.0 + 1e-12:
                raise ValueError("phi must take values in [0,1]")
        if self.chi == "plateau":
            self.chi = chi_plateau(self.T)
        elif self.chi == "full":
            self.chi = lambda t: np.ones_like(np.asarray(t, dtype=float))

    @property
    def cg_budget(self):
        """The backstop on Krylov iterations: cg_max_iter, or 8 N^d when None."""
        if self.cg_max_iter is not None:
            return self.cg_max_iter
        return 8 * self.grid.size

    @property
    def nyquist_phase_step(self):
        """dt (N/2)^2, reported with Krylov failures: the implicit midpoint rule
        slows mode k to the group velocity 2|k| / (1 + (dt |k|^2 / 2)^2)."""
        return self.T / self.steps * (self.grid.n / 2.0) ** 2

    @property
    def timegrid(self):
        return TimeGrid(0.0, self.T, self.steps)

    @property
    def chi_mid(self):
        return np.asarray(self.chi(self.timegrid.midpoints), dtype=float)

    @property
    def phi_values(self):
        return self.phi if self.phi is not None else np.ones(self.grid.shape)

    @property
    def filter_mask(self):
        """Modes |k| <= GAMMA * N/2 (the discrete coercive subspace)."""
        return self.grid.abs2 <= (GAMMA * self.grid.n / 2.0) ** 2

    def filter_data(self, x):
        """x reshaped to the grid with the modes outside filter_mask zeroed."""
        return np.where(self.filter_mask, np.asarray(x, dtype=complex).reshape(self.grid.shape), 0.0)


@dataclass
class HumSolveReport:
    iterations: int = 0
    residual: float = 0.0
    rayleigh_min: float = np.inf
    rayleigh_max: float = 0.0
    terminal_norm: float = np.nan
    converged: bool = False
    extras: dict = field(default_factory=dict)


def _pair_inner(x, y):
    return 2.0 * float(np.vdot(y, x).real)


class HumProblem:
    """HUM operators over one frozen background trajectory.

    frozen=None means the zero background (free flow, diagonal fast path).
    sign=-1 builds the machinery for the time-reversed equation.  The
    frozen-with-remainder system is that of the dealiased equation that
    evolve_nonlinear integrates (FrozenProgram).
    """

    def __init__(self, setup: ControlSetup, nl: Nonlinearity, frozen: Trajectory = None,
                 sign=1.0):
        self.setup = setup
        self.sign = float(sign)
        self.grid = setup.grid
        self.tg = setup.timegrid
        if frozen is not None and frozen.tg.steps != setup.steps:
            raise ValueError("frozen trajectory and setup use different time grids")
        self.frozen = frozen
        self.cg_iterations = 0      # Krylov iterations of every solve on this problem
        if frozen is None or _is_zero(frozen):
            self.simp = FreeProgram(self.grid, self.tg, sign=self.sign)
            self.rem = self.simp
        else:
            self.simp = FrozenProgram(frozen, nl, CutoffProfile(), kind="frozen_simplified",
                                      sign=self.sign)
            self.rem = FrozenProgram(frozen, nl, CutoffProfile(), kind="frozen_with_remainder",
                                     sign=self.sign)
        self.adj = self.simp.adjoint_program()
        self._chi = setup.chi_mid

    # -- elementary operators ------------------------------------------------

    def mult_phi(self, coeffs, power=1):
        g = self.grid
        return g.coeffs_from_values((self.setup.phi_values ** power) * g.values_from_coeffs(coeffs))

    def solution_op(self, V0) -> Trajectory:
        """Adjoint flow from V(0) = V0 (midpoint samples feed the Gramian)."""
        return evolve_linear(self.adj, V0, krylov_tol=self.setup.krylov_tol)

    def range_op(self, G_mids, with_remainder=False):
        """Backward solve dU = L U + G, U(T) = 0; returns (U(0), trajectory)."""
        prog = self.rem if with_remainder else self.simp
        zero = np.zeros(self.grid.shape, dtype=complex)
        traj = evolve_linear(prog, zero, direction="backward", source=G_mids,
                             krylov_tol=self.setup.krylov_tol)
        return traj.initial, traj

    def controlled_solve(self, U_in, F_mids, with_remainder=False) -> Trajectory:
        """Forward replay of the controlled system from U(0) = U_in."""
        prog = self.rem if with_remainder else self.simp
        sources = control_sources(self.grid, (self._chi, self.setup.phi_values, F_mids),
                                  self.sign)
        return evolve_linear(prog, U_in, source=sources, krylov_tol=self.setup.krylov_tol)

    # -- Gramian -------------------------------------------------------------

    def hum_apply(self, v0, with_remainder=False):
        """K v0 = -R(chi^2 phi^2 S v0), on coefficient arrays; with_remainder,
        (K + E K) v0 = -R_rem(chi^2 phi^2 S v0) (module docstring)."""
        return self._range_of_observation(self.solution_op(v0), with_remainder)

    def _range_of_observation(self, sol, with_remainder=False):
        """-R(chi^2 phi^2 S v0)(0), or -R_rem(...)(0), from the adjoint flow sol = S v0."""
        G = [(self._chi[n] ** 2) * self.mult_phi(sol.midpoints[n], power=2)
             for n in range(self.tg.steps)]
        u0, _ = self.range_op(G, with_remainder)
        return -u0.u.coeffs

    def gramian_quadratic(self, v0):
        """The right side of positivity: int chi^2 ||phi S v0||^2 dt (pair norm)."""
        sol = self.solution_op(v0)
        total = 0.0
        for n in range(self.tg.steps):
            pv = self.mult_phi(sol.midpoints[n])
            total += self.tg.dt * (self._chi[n] ** 2) * _pair_inner(pv.ravel(), pv.ravel())
        return total

    def duality_check(self, F_mids, V0):
        """Relative defect of -(R chi phi F, V(0)) = (chi phi F, S V(0))."""
        G = [self._chi[n] * self.mult_phi(F_mids[n]) for n in range(self.tg.steps)]
        u0, _ = self.range_op(G)
        lhs = -_pair_inner(u0.u.coeffs.ravel(), _as_coeffs(self.grid, V0).ravel())
        sol = self.solution_op(V0)
        rhs = sum(self.tg.dt * _pair_inner(G[n].ravel(), sol.midpoints[n].ravel())
                  for n in range(self.tg.steps))
        return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)

    # -- inversion and control -----------------------------------------------

    def filter_data(self, x):
        return self.setup.filter_data(x)

    def hum_invert(self, U_in):
        """K v0 = U_in, U_in gamma-filtered, by _solve; returns (raveled v0, report)."""
        return self._solve(self.hum_apply, self.filter_data(_as_coeffs(self.grid, U_in)),
                           "K v0 = U_in")

    def _solve(self, apply_fn, b, what):
        """GMRES on apply_fn(x) = b in the pair product; returns (raveled x, HumSolveReport).

        apply_fn (K or K + E K) takes grid-shaped arrays.  GMRES is
        left-preconditioned by K0^-1 (free_gramian's cached Cholesky factor;
        K0 = K at the zero background) and stops when the true relative
        residual reaches setup.cg_tol, with setup.cg_budget iterations as the
        backstop.  extras hold that residual and its gamma-filtered (in-ball)
        and out-of-ball parts; HumError names them, the iteration count and
        setup.nyquist_phase_step when the backstop ends the solve short of tol.
        """
        st = self.setup
        b = np.asarray(b, dtype=complex).ravel()
        bn = _pair_norm(b)
        if bn == 0.0:
            return np.zeros_like(b), HumSolveReport(converged=True, extras={"true_residual": 0.0})
        chol = _free_gramian_factor(self.grid, self.sign, self.tg.dt, self._chi.tobytes(),
                                    st.phi_values.tobytes())
        x, its, r = _gmres_real(lambda v: apply_fn(v.reshape(self.grid.shape)).ravel(),
                                lambda z: cho_solve(chol, z), b, st.cg_tol, st.cg_budget)
        self.cg_iterations += its
        r_in = self.filter_data(r)
        parts = {"true_residual": _pair_norm(r) / bn, "residual_in_ball": _pair_norm(r_in) / bn,
                 "residual_out_of_ball": _pair_norm(r.reshape(r_in.shape) - r_in) / bn}
        res = parts["true_residual"]
        rep = HumSolveReport(its, res, converged=bool(res <= st.cg_tol), extras=parts)
        if not rep.converged:
            raise HumError(
                f"GMRES on {what} stopped after {its} iterations (backstop {st.cg_budget}): "
                f"true relative residual {res:.3e} against tol {st.cg_tol:.1e}, "
                f"dt*(N/2)^2 = {st.nyquist_phase_step:.3g}; in-ball "
                f"{parts['residual_in_ball']:.3e}, out-of-ball "
                f"{parts['residual_out_of_ball']:.3e}", rep)
        return x, rep

    def control_from_v0(self, v0):
        """F(t) = sign * (-i) chi(t) phi S(K^-1 U_in)(t), midpoint samples."""
        sol = self.solution_op(v0)
        return [self.sign * (-1j) * self._chi[n] * self.mult_phi(sol.midpoints[n])
                for n in range(self.tg.steps)]

    def control_op(self, U_in):
        """Null control of the simplified system; returns (F_mids, v0, report)."""
        v0, rep = self.hum_invert(U_in)
        F = self.control_from_v0(v0)
        traj = self.controlled_solve(self.filter_data(U_in), F)
        tnorm = _pair_norm(traj.terminal.u.coeffs)
        rep.terminal_norm = tnorm / max(_pair_norm(_as_coeffs(self.grid, U_in)), 1e-300)
        if rep.terminal_norm > self.setup.tol_terminal:
            rep.extras["terminal_failure"] = True
        return F, v0, rep

    # -- remainder-perturbed layer --------------------------------------------

    def perturbation_E(self, v0):
        """(E K v0, K v0), E = R_P R(U) S_P, from one adjoint sweep.

        E K v0 = (K + E K) v0 - K v0 (module docstring): the simplified and
        the remainder backward solves of one source.  E = 0 exactly at the
        zero background, where the two programs are one.
        """
        sol = self.solution_op(v0)
        Kv = self._range_of_observation(sol)
        return self._range_of_observation(sol, with_remainder=True) - Kv, Kv

    @property
    def free_gramian(self):
        """K0, the zero-background Gramian, dense on the flattened coefficients."""
        return _free_gramian(self.grid, self.sign, self.tg.dt, self._chi,
                             self.setup.phi_values, np.arange(self.grid.size))

    def control_op_P(self, U_in):
        """Null control of the full paralinearized system: L_P = L (Id+E)^-1.

        With Z0 = K v0, (Id+E) Z0 = U_in is the linear system (K + E K) v0 = U_in,
        solved by _solve to the true relative residual cg_tol, each application
        hum_apply(v, with_remainder=True).  Returns (F_mids, the verifying
        forward trajectory of the frozen system, report); report.extras
        ["E_ratio"] is ||E K v0|| / ||K v0|| (pair norms), the smallness of E
        on which the inverse (Id+E)^-1 rests.
        """
        b = self.filter_data(_as_coeffs(self.grid, U_in))
        v0, rep = self._solve(lambda v: self.hum_apply(v, with_remainder=True), b,
                              "(K + E K) v0 = U_in")
        v0 = v0.reshape(self.grid.shape)
        EKv, Kv = self.perturbation_E(v0)
        rep.extras["E_ratio"] = _pair_norm(EKv) / max(_pair_norm(Kv), 1e-300)
        F = self.control_from_v0(v0)
        traj = self.controlled_solve(b, F, with_remainder=True)
        rep.terminal_norm = _pair_norm(traj.terminal.u.coeffs) / max(_pair_norm(b), 1e-300)
        if rep.terminal_norm > self.setup.tol_terminal:
            rep.extras["terminal_failure"] = True
        return F, traj, rep

    # -- observability ---------------------------------------------------------

    def observability_constant(self):
        """eigvalsh of P K P on the gamma-ball; K0's block at the zero background.

        P K P is pair-self-adjoint on the m modes of filter_mask: in the basis
        e_j, i e_j its matrix is a symmetric 2m x 2m real block, K0's in closed
        form at the zero background, 2m hum_apply columns on a frozen one (K is
        only real-linear there).  Returns (c_min, worst_mode, report): the least
        eigenvalue, the largest entry of its eigenvector, and the extreme
        eigenvalues (rayleigh_min/_max) with the block's relative asymmetry
        before symmetrizing (extras).  c_min below 1e-12 flags an observability
        failure of the discrete problem.  Missing GCC does not make one: on a
        flat torus Schroedinger is observable from any open set (Jaffard,
        Portugal. Math. 47, 1990), and c_min levels off in N for one strip and
        a ball, neither of which satisfies check_gcc.
        """
        ball = np.flatnonzero(self.setup.filter_mask)
        if self.rem is self.simp:
            H = _free_gramian(self.grid, self.sign, self.tg.dt, self._chi,
                              self.setup.phi_values, ball)
            block = np.block([[H.real, -H.imag], [H.imag, H.real]])
        else:
            g = self.grid
            KB = np.array([self.hum_apply(unit * np.eye(1, g.size, j).reshape(g.shape))
                           .ravel()[ball] for unit in (1.0, 1j) for j in ball])
            block = np.hstack([KB.real, KB.imag]).T
        lam, vec = np.linalg.eigh(0.5 * (block + block.T))
        worst = np.abs(vec[:len(ball), 0] + 1j * vec[len(ball):, 0])
        worst_mode = tuple(int(self.grid.freq_1d[i])
                           for i in np.unravel_index(ball[np.argmax(worst)], self.grid.shape))
        report = HumSolveReport(rayleigh_min=lam[0], rayleigh_max=lam[-1], extras={
            "worst_mode": worst_mode, "observability_failure": bool(lam[0] < 1e-12),
            "asymmetry": np.linalg.norm(block - block.T) / np.linalg.norm(block)})
        return float(lam[0]), worst_mode, report


def _free_gramian(grid, sign, dt, chi, phi, modes):
    """K0, the zero-background Gramian on the flattened indices modes, dense and
    Fortran-ordered, in closed form.

    Mode k advances by (1 + a d_k) / (1 - a d_k) per step (a = dt/2,
    d_k = -i sign |k|^2); with w_nk its midpoint sample from a unit datum,
    K0[j, k] = (phi^2)^[j - k] sum_n 2 a chi_n^2 conj(w_nj) w_nk,
    Hermitian, in O(steps m^2) operations on m modes, gathered in N slices of rows.
    """
    a, d = 0.5 * dt, -1j * sign * grid.abs2.ravel()[modes]
    w = ((1.0 + a * d) / (1.0 - a * d)) ** np.arange(len(chi))[:, None] / (1.0 - a * d)
    K0 = ((w.T * (2.0 * a * chi ** 2)) @ np.conj(w)).T      # w^H c w, Fortran-ordered
    phi2 = grid.coeffs_from_values(phi ** 2)
    pos = np.indices(grid.shape).reshape(grid.dim, -1)[:, modes]
    for rows in np.array_split(np.arange(len(modes)), grid.n):
        K0[rows] *= phi2[tuple((p[rows, None] - p) % grid.n for p in pos)]
    return K0


@lru_cache(maxsize=2)
def _free_gramian_factor(grid, sign, dt, chi_bytes, phi_bytes):
    """cho_factor of K0 in place, keyed on K0's data: built once, not per Picard round."""
    chi, phi = np.frombuffer(chi_bytes), np.frombuffer(phi_bytes).reshape(grid.shape)
    return cho_factor(_free_gramian(grid, sign, dt, chi, phi, np.arange(grid.size)),
                      overwrite_a=True)


def _pair_norm(x):
    return float(np.sqrt(_pair_inner(np.ravel(x), np.ravel(x))))


def _is_zero(traj: Trajectory):
    return all(np.max(np.abs(s)) == 0.0 for s in traj.states)
