"""HUM machinery: range/solution operators, the Gramian and its conjugate
gradient inversion in the pair scalar product, the control operators for the
simplified and remainder-perturbed systems, and the observability constant.

The solution operator is the exact discrete pairing-adjoint flow of the
forward generator (see evolve), so the duality identity, the symmetry and
positivity of the Gramian, and the controlled-replay identities all hold to
Krylov tolerance at every frozen background.

One conjugate gradient (HumProblem._cg) serves every solve: the Gramian
inversion of hum_invert and the inner P K P solves of observability_constant.

The controlled simplified trajectory S_P Z0 (Z(0) = Z0, Z(T) = 0) is the
backward solve with source -chi^2 phi^2 S v0, v0 = K^-1 Z0: exactly minus
the range trajectory that hum_apply(v0) already computes.  The step solves
are odd in their data, so perturbation_E applies R(U) to that trajectory and
negates the result, which gives E Z0 with no second backward solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bump import chi_plateau
from .evolve import (FreeProgram, FrozenProgram, TimeGrid, Trajectory, _as_coeffs,
                     control_sources, evolve_linear)
from .model import Nonlinearity
from .paradiff import CutoffProfile
from .spectral import TorusGrid


class HumError(RuntimeError):
    """A HUM solve failed; report, when given, holds the measured quantities."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass
class ControlSetup:
    """Horizon, cutoffs, frequency filter and solver knobs for one problem.

    cg_tol is the relative pair-norm residual at which the Gramian CG
    (hum_invert) stops; the (Id+E) Neumann sweep stops at 10 cg_tol.
    krylov_tol is the relative residual of every implicit-midpoint step
    solve.  A caller with a tighter outer target may tighten both
    (picard.null_control does), never loosen them.  cg_max_iter is only a
    backstop against runaway solves: CG stops on convergence or on measured
    stagnation long before it.  None (the default) sets it to four times
    the real dimension 2 N^d, within which CG would terminate in exact
    arithmetic (cg_budget).
    """

    grid: TorusGrid
    T: float
    steps: int
    phi: np.ndarray = None          # spatial cutoff values; None = full observation
    chi: object = "plateau"         # "plateau" | "full" | callable t -> value
    gamma: float = 1.0 / 3.0
    cg_tol: float = 1e-10
    cg_max_iter: int = None
    mu: float = 0.0
    tol_terminal: float = 1e-6
    krylov_tol: float = 1e-11
    cutoff: CutoffProfile = field(default_factory=CutoffProfile)

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0,1], got {self.gamma}")
        if self.mu < 0.0:
            raise ValueError("penalty mu must be >= 0")
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
        """The backstop on CG iterations: cg_max_iter, or 8 N^d when None."""
        if self.cg_max_iter is not None:
            return self.cg_max_iter
        return 8 * self.grid.size

    @property
    def nyquist_phase_step(self):
        """dt (N/2)^2, reported with CG failures: the implicit midpoint rule
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
        """Modes |k| <= gamma * N/2 (the discrete coercive subspace)."""
        return self.grid.abs2 <= (self.gamma * self.grid.n / 2.0) ** 2

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

    def as_text(self):
        lines = [
            f"cg_iterations={self.iterations}",
            f"final_residual={self.residual:.6e}",
            f"rayleigh_min={self.rayleigh_min:.6e}",
            f"rayleigh_max={self.rayleigh_max:.6e}",
            f"terminal_norm={self.terminal_norm:.6e}",
            f"converged={self.converged}",
        ]
        lines += [f"{k}={v}" for k, v in self.extras.items()]
        return "\n".join(lines) + "\n"


def _pair_inner(x, y):
    return 2.0 * float(np.vdot(y, x).real)


class HumProblem:
    """HUM operators over one frozen background trajectory.

    frozen=None means the zero background (free flow, diagonal fast path).
    sign=-1 builds the machinery for the time-reversed equation.
    dealias=True builds the frozen-with-remainder system from the dealiased
    nonlinear equation (FrozenProgram's dealias); the simplified system, and
    with it the Gramian, is the same either way.
    """

    def __init__(self, setup: ControlSetup, nl: Nonlinearity, frozen: Trajectory = None,
                 sign=1.0, dealias=False):
        self.setup = setup
        self.sign = float(sign)
        self.grid = setup.grid
        self.tg = setup.timegrid
        if frozen is not None and frozen.tg.steps != setup.steps:
            raise ValueError("frozen trajectory and setup use different time grids")
        self.frozen = frozen
        self.cg_iterations = 0      # CG iterations of every solve on this problem
        if frozen is None or _is_zero(frozen):
            self.simp = FreeProgram(self.grid, self.tg, sign=self.sign)
            self.rem = self.simp
        else:
            self.simp = FrozenProgram(frozen, nl, setup.cutoff, kind="frozen_simplified",
                                      sign=self.sign)
            self.rem = FrozenProgram(frozen, nl, setup.cutoff, kind="frozen_with_remainder",
                                     sign=self.sign, dealias=dealias)
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

    def hum_apply(self, v0, return_trajectory=False):
        """K v0 = -R(chi^2 phi^2 S v0) (+ mu v0), on coefficient arrays."""
        sol = self.solution_op(v0)
        G = [(self._chi[n] ** 2) * self.mult_phi(sol.midpoints[n], power=2)
             for n in range(self.tg.steps)]
        u0, traj = self.range_op(G)
        out = -u0.u.coeffs
        if self.setup.mu > 0.0:
            out = out + self.setup.mu * np.asarray(v0, dtype=complex).reshape(self.grid.shape)
        if return_trajectory:
            return out, sol, traj
        return out

    def gramian_quadratic(self, v0):
        """The right side of positivity: int chi^2 ||phi S v0||^2 dt (pair norm)."""
        sol = self.solution_op(v0)
        dt = self.tg.dt
        total = 0.0
        for n in range(self.tg.steps):
            pv = self.mult_phi(sol.midpoints[n])
            total += dt * (self._chi[n] ** 2) * _pair_inner(pv.ravel(), pv.ravel())
        if self.setup.mu > 0.0:
            v = np.asarray(v0, dtype=complex).ravel()
            total += self.setup.mu * _pair_inner(v, v)
        return total

    def duality_check(self, F_mids, V0):
        """Relative defect of -(R chi phi F, V(0)) = (chi phi F, S V(0))."""
        G = [self._chi[n] * self.mult_phi(F_mids[n]) for n in range(self.tg.steps)]
        u0, _ = self.range_op(G)
        lhs = -_pair_inner(u0.u.coeffs.ravel(), _as_coeffs(self.grid, V0).ravel())
        sol = self.solution_op(V0)
        dt = self.tg.dt
        rhs = sum(dt * _pair_inner(G[n].ravel(), sol.midpoints[n].ravel())
                  for n in range(self.tg.steps))
        return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)

    # -- inversion and control -----------------------------------------------

    def filter_data(self, x):
        return self.setup.filter_data(x)

    def hum_invert(self, U_in, x0=None, prefilter=True):
        """CG on K v0 = U_in in the pair product, over all modes (see _cg).

        Outer data is gamma-filtered per the coercive-subspace convention;
        the remainder-closure solves pass prefilter=False because their
        right-hand sides carry the small smooth out-of-ball component that
        the (Id+E) fixed point must match exactly.
        """
        b = _as_coeffs(self.grid, U_in)
        if prefilter:
            b = self.filter_data(b)
        return self._cg(self.hum_apply, b, self.setup.cg_tol, x0)

    def _cg(self, apply_fn, b, tol, x0=None):
        """CG on apply_fn(x) = b in the pair product; returns (x, HumSolveReport).

        apply_fn is K or P K P.  Stops when the recursive relative residual
        reaches tol.  Raises HumError on a direction that is not positive,
        when the residual has stagnated -- its best value has not halved
        within the last N^d iterations (at least 64) -- or, as a backstop,
        after setup.cg_budget iterations.  At exit b - apply_fn(x) is
        computed once; extras["true_residual"] is its norm relative to b.
        The error's message and report give the relative residual, its
        gamma-filtered (in-ball) and out-of-ball parts, the true residual,
        the Rayleigh range and setup.nyquist_phase_step.
        """
        st = self.setup
        b = np.asarray(b, dtype=complex).ravel()
        rep = HumSolveReport()
        bn = np.sqrt(_pair_inner(b, b))
        if bn == 0.0:
            rep.converged = True
            rep.extras["true_residual"] = 0.0
            return np.zeros_like(b), rep
        x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=complex).ravel().copy()
        r = b - apply_fn(x).ravel() if x0 is not None else b.copy()
        p = r.copy()
        rr = _pair_inner(r, r)
        # stagnation: the best residual not halved within half the real
        # dimension 2 N^d (at least 64 iterations); the converging solves of
        # the tier-1 Picard problems at N=16 halve it within 98 (window 256)
        window = max(64, self.grid.size)
        best = [np.sqrt(rr)]    # best residual norm so far, after 0, 1, 2, ... iterations
        why = None              # why CG stopped short of tol
        while why is None and np.sqrt(rr) > tol * bn and len(best) <= st.cg_budget:
            Kp = apply_fn(p).ravel()
            pKp = _pair_inner(Kp, p)
            if pKp <= 0.0:
                why = f"met a Gramian direction that is not positive ({pKp:.3e})"
                break
            ray = pKp / _pair_inner(p, p)
            rep.rayleigh_min = min(rep.rayleigh_min, ray)
            rep.rayleigh_max = max(rep.rayleigh_max, ray)
            alpha = rr / pKp
            x = x + alpha * p
            r = r - alpha * Kp
            rr_new = _pair_inner(r, r)
            p = r + (rr_new / rr) * p
            rr = rr_new
            rep.iterations += 1
            best.append(min(best[-1], np.sqrt(rr)))
            if len(best) > window and best[-1] > 0.5 * best[-1 - window]:
                why = f"stagnated (best residual not halved in {window} iterations)"
        self.cg_iterations += rep.iterations
        rep.converged = bool(np.sqrt(rr) <= tol * bn)
        rep.residual = float(np.sqrt(rr) / bn)
        r_in = self.filter_data(r)
        rep.extras["residual_in_ball"] = _pair_norm(r_in) / bn
        rep.extras["residual_out_of_ball"] = _pair_norm(r.reshape(self.grid.shape) - r_in) / bn
        # with no iteration run, r is b - K x itself
        r_true = b - apply_fn(x).ravel() if rep.iterations else r
        rep.extras["true_residual"] = _pair_norm(r_true) / bn
        if rep.converged:
            return x, rep
        why = why or f"reached the backstop of {st.cg_budget} iterations"
        raise HumError(
            f"CG {why} after {rep.iterations} iterations: relative residual "
            f"{rep.residual:.3e} against tol {tol:.1e} "
            f"(in-ball {rep.extras['residual_in_ball']:.3e}, "
            f"out-of-ball {rep.extras['residual_out_of_ball']:.3e}, "
            f"true {rep.extras['true_residual']:.3e}), "
            f"Rayleigh range [{rep.rayleigh_min:.3e}, {rep.rayleigh_max:.3e}], "
            f"dt*(N/2)^2 = {st.nyquist_phase_step:.3g}", rep)

    def control_from_v0(self, v0):
        """F(t) = sign * (-i) chi(t) phi S(K^-1 U_in)(t), midpoint samples."""
        sol = self.solution_op(v0)
        F = [self.sign * (-1j) * self._chi[n] * self.mult_phi(sol.midpoints[n])
             for n in range(self.tg.steps)]
        return F

    def control_op(self, U_in, verify=True):
        """Null control of the simplified system; returns (F_mids, v0, report)."""
        v0, rep = self.hum_invert(U_in)
        F = self.control_from_v0(v0)
        if verify:
            traj = self.controlled_solve(self.filter_data(U_in), F)
            tnorm = _pair_norm(traj.terminal.u.coeffs)
            rep.terminal_norm = tnorm / max(_pair_norm(_as_coeffs(self.grid, U_in)), 1e-300)
            if rep.terminal_norm > self.setup.tol_terminal:
                rep.extras["terminal_failure"] = True
        return F, v0, rep

    # -- remainder-perturbed layer --------------------------------------------

    def remainder_op(self, n):
        """R(U(t_n)) = (frozen with remainder) - (simplified) at midpoint n."""
        if isinstance(self.simp, FreeProgram):
            return None
        return self.rem.step_op(n) + (-1.0) * self.simp.step_op(n)

    def perturbation_E(self, Z0, x0=None):
        """E Z0 = R_P R(U) S_P Z0; returns (E Z0 coeffs, v0 warm start).

        S_P Z0 is minus the range trajectory of hum_apply(v0), v0 = K^-1 Z0
        (module docstring); the minus is taken on the result.
        """
        v0, _ = self.hum_invert(Z0, x0=x0, prefilter=False)
        _, _, traj = self.hum_apply(v0, return_trajectory=True)
        G = []
        for n in range(self.tg.steps):
            R = self.remainder_op(n)
            G.append(np.zeros(self.grid.shape, dtype=complex) if R is None
                     else R.apply(traj.midpoints[n].ravel()).reshape(self.grid.shape))
        u0, _ = self.range_op(G, with_remainder=True)
        return -u0.u.coeffs, v0

    def control_op_P(self, U_in, neumann_tol=None, max_neumann=25):
        """Null control of the full paralinearized system: L_P = L (Id+E)^-1.

        (Id + E) Z0 = U_in is solved by the Neumann fixed point
        Z <- U_in - E Z.  It stops when the sweep's change falls to
        neumann_tol relative to U_in (default 10 setup.cg_tol, above the floor
        of the CG solve inside each application of E).  HumError, naming the
        sweep count, the last relative change against the tolerance and the
        measured ||E|| estimate, is raised when the change has risen twice
        (counted over all sweeps, consecutive or not), or when max_neumann
        sweeps end without reaching the tolerance.
        """
        st = self.setup
        b = self.filter_data(_as_coeffs(self.grid, U_in))
        bn = _pair_norm(b.ravel())
        if bn == 0.0:
            zeroF = [np.zeros(self.grid.shape, dtype=complex) for _ in range(self.tg.steps)]
            return zeroF, HumSolveReport(converged=True, terminal_norm=0.0)
        neumann_tol = 10.0 * st.cg_tol if neumann_tol is None else neumann_tol
        Z = b.copy()
        warm = None
        prev_delta = np.inf
        growth = 0
        enorm = 0.0
        for it in range(max_neumann):
            EZ, warm = self.perturbation_E(Z, x0=warm)
            Z_new = b - EZ
            delta = _pair_norm((Z_new - Z).ravel())
            enorm = max(enorm, _pair_norm(EZ.ravel()) / max(_pair_norm(Z.ravel()), 1e-300))
            if delta <= neumann_tol * bn:
                Z = Z_new
                break
            if delta > prev_delta:
                growth += 1
                if growth >= 2:
                    raise HumError(f"(Id+E) iteration diverging at sweep {it + 1}: relative "
                                   f"change {delta / bn:.3e} against tol {neumann_tol:.1e}, "
                                   f"||E|| estimate {enorm:.3e}")
            prev_delta = delta
            Z = Z_new
        else:
            raise HumError(f"(Id+E) iteration not converged after {max_neumann} sweeps: "
                           f"relative change {delta / bn:.3e} against tol {neumann_tol:.1e}, "
                           f"||E|| estimate {enorm:.3e}")
        v0, rep = self.hum_invert(Z, x0=warm, prefilter=False)
        F = self.control_from_v0(v0)
        rep.extras["neumann_iterations"] = it + 1
        rep.extras["perturbation_norm"] = enorm
        traj = self.controlled_solve(b, F, with_remainder=True)
        rep.terminal_norm = _pair_norm(traj.terminal.u.coeffs) / bn
        if rep.terminal_norm > st.tol_terminal:
            rep.extras["terminal_failure"] = True
        return F, rep

    # -- observability ---------------------------------------------------------

    def observability_constant(self, n_iter=30, inner_tol=1e-6, rtol=1e-4, seed=0):
        """Smallest Rayleigh quotient of the Gramian on the filtered space.

        Inverse power iteration driven by CG solves of P K P y = x; returns
        (c_min, worst_mode, report).  c_min below 1e-12 flags an
        observability failure (expected when the region misses GCC).  An
        inner solve that does not reach inner_tol raises HumError (_cg), so
        c_min never comes from unconverged solves.
        """
        st = self.setup
        rng = np.random.default_rng(seed)
        mask = st.filter_mask

        def PKP(x):
            return self.filter_data(self.hum_apply(self.filter_data(x)))

        x = self.filter_data(rng.standard_normal(self.grid.shape)
                             + 1j * rng.standard_normal(self.grid.shape))
        x /= _pair_norm(x.ravel())
        ray_prev = np.inf
        report = HumSolveReport()
        for _ in range(n_iter):
            y, _ = self._cg(PKP, x, inner_tol)
            y = self.filter_data(y)
            y /= max(_pair_norm(y.ravel()), 1e-300)
            Ky = PKP(y)
            ray = _pair_inner(Ky.ravel(), y.ravel()) / _pair_inner(y.ravel(), y.ravel())
            if abs(ray - ray_prev) <= rtol * max(abs(ray), 1e-300):
                x = y
                ray_prev = ray
                break
            x = y
            ray_prev = ray
        c_min = float(ray_prev)
        flat = np.abs(np.where(mask, x, 0.0))
        worst = np.unravel_index(np.argmax(flat), self.grid.shape)
        worst_mode = tuple(int(self.grid.freq_1d[i]) for i in worst)
        report.rayleigh_min = c_min
        report.extras["worst_mode"] = worst_mode
        report.extras["observability_failure"] = bool(c_min < 1e-12)
        return c_min, worst_mode, report


def _pair_norm(x):
    return float(np.sqrt(_pair_inner(np.ravel(x), np.ravel(x))))


def _is_zero(traj: Trajectory):
    return all(np.max(np.abs(s)) == 0.0 for s in traj.states)
