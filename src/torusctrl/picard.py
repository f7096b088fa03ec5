"""Nonlinear null control by the Picard scheme (freeze coefficients at the
previous iterate, re-solve the linear control problem) and exact control by
gluing two null controls across the half horizon with time reversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .evolve import TimeGrid, Trajectory, evolve_nonlinear, zero_trajectory
from .hum import ControlSetup, HumProblem, HumSolveReport, chi_plateau
from .model import Nonlinearity
from .spectral import SpectralField, sobolev_norm


class ControlError(RuntimeError):
    def __init__(self, message, ledger=None):
        super().__init__(message)
        self.ledger = ledger


@dataclass
class IterationRecord:
    n: int
    du_norm: float          # ||U^{n+1} - U^n|| in C^0 H^{s-2} (pair)
    df_norm: float          # ||F^{n+1} - F^n|| likewise
    ratio: float            # du_norm(n) / du_norm(n-1)
    terminal_norm: float    # relative terminal norm of the frozen solve
    cg_iterations: int      # CG iterations of every solve in the round

    def row(self):
        return [self.n, self.du_norm, self.df_norm, self.ratio,
                self.terminal_norm, self.cg_iterations]


@dataclass
class IterationLedger:
    s: float
    rho_max: float = 0.9
    records: list = field(default_factory=list)

    HEADER = ["iteration", "du_norm", "df_norm", "ratio", "terminal_norm", "cg_iterations"]

    def add(self, rec: IterationRecord):
        self.records.append(rec)

    @property
    def ratios(self):
        return [r.ratio for r in self.records if np.isfinite(r.ratio)]

    @property
    def geometric_decay(self):
        tail = [r.ratio for r in self.records[2:] if np.isfinite(r.ratio)]
        if not tail:
            return False
        return all(r <= self.rho_max for r in tail)

    def to_csv(self, path):
        import csv
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.HEADER)
            for rec in self.records:
                w.writerow(rec.row())


@dataclass
class NullControlResult:
    F_mids: list
    frozen_trajectory: Trajectory
    replay_trajectory: Trajectory
    ledger: IterationLedger
    report: HumSolveReport
    iterations: int
    terminal_ratio: float     # nonlinear replay ||u(T)||_{H^s} / ||u_in||_{H^s}


def _mids_diff_norm(a, b, grid, s):
    worst = 0.0
    for x, y in zip(a, b):
        worst = max(worst, np.sqrt(2.0) * sobolev_norm(SpectralField(grid, x - y), s))
    return worst


def null_control(u_in: SpectralField, nl: Nonlinearity, setup: ControlSetup,
                 max_iter=12, tol=1e-9, sign=1.0, s=None, rho_max=0.9,
                 replay=True, dealias=True):
    """Picard iteration for nonlinear null control.

    U^0 = 0, F^0 = 0; each round freezes coefficients at U^n, builds the
    perturbed control operator, and re-solves the frozen system with the new
    control from the same initial datum.  The frozen-with-remainder system
    is that of the equation the replay integrates (dealiased when dealias
    is on), so the Picard fixed point solves that equation.

    Stops when du, the C^0 H^{s-2} difference of successive iterates, falls
    to tol * scale, scale being the datum's norm.  The inner solves are
    tightened so that each stopping rule sits above the floor of the solves
    nested inside it: the CG (and with it the Neumann sweep) runs to
    cg_tol = min(setup.cg_tol, tol/10), the step solves to
    min(setup.krylov_tol, cg_tol/100); neither is looser than the setup's.
    du below cg_tol * scale is noise of the inner solves; the stop test
    comes first, so a rise of du counts only while du is above the target,
    a decade above that floor.  Two consecutive counted rises raise
    ControlError with the ledger attached.  The converged control is
    finally replayed through the full nonlinear equation (dealiased when
    dealias is on).
    """
    grid = setup.grid
    if s is None:
        s = grid.dim / 2.0 + 2.5
    tg = setup.timegrid
    cg_tol = min(setup.cg_tol, 0.1 * tol)
    inner = replace(setup, cg_tol=cg_tol, krylov_tol=min(setup.krylov_tol, 0.01 * cg_tol))
    u_hat = setup.filter_data(u_in.coeffs)
    scale = max(np.sqrt(2.0) * sobolev_norm(SpectralField(grid, u_hat), s - 2), 1e-300)

    ledger = IterationLedger(s=s, rho_max=rho_max)
    U_curr = zero_trajectory(grid, tg)
    F_curr = [np.zeros(grid.shape, dtype=complex) for _ in range(tg.steps)]
    prev_du = None
    growth = 0
    rep = HumSolveReport()
    it = 0
    for it in range(1, max_iter + 1):
        frozen = None if it == 1 else U_curr
        prob = HumProblem(inner, nl, frozen=frozen, sign=sign, dealias=dealias)
        F, rep = prob.control_op_P(u_hat)
        U_new = prob.controlled_solve(u_hat, F, with_remainder=True)
        du = _mids_diff_norm(U_new.states, U_curr.states, grid, s - 2)
        df = _mids_diff_norm(F, F_curr, grid, s - 2)
        ratio = du / prev_du if (prev_du is not None and prev_du > 0) else np.nan
        term = (np.sqrt(2.0) * sobolev_norm(U_new.terminal.u, 0.0)
                / max(np.sqrt(2.0) * sobolev_norm(SpectralField(grid, u_hat), 0.0), 1e-300))
        ledger.add(IterationRecord(it, du, df, ratio, term, prob.cg_iterations))
        U_curr, F_curr = U_new, F
        if du <= tol * scale:
            break
        if np.isfinite(ratio) and ratio > 1.0:
            growth += 1
            if growth >= 2:
                raise ControlError(
                    f"Picard iteration not contracting: ratio {ratio:.3f} at n={it}, "
                    f"du {du:.3e} above target {tol * scale:.3e} "
                    f"(inner CG tol {cg_tol:.1e})", ledger)
        else:
            growth = 0
        prev_du = du
    F, U_traj = F_curr, U_curr

    replay_traj = None
    terminal_ratio = np.nan
    if replay:
        replay_traj = evolve_nonlinear(
            grid, tg, nl, u_hat,
            control=(setup.chi_mid, setup.phi_values, F),
            sign=sign, dealias=dealias, krylov_tol=setup.krylov_tol)
        terminal_ratio = (sobolev_norm(replay_traj.terminal.u, s)
                          / max(sobolev_norm(SpectralField(grid, u_hat), s), 1e-300))
        if terminal_ratio > setup.tol_terminal:
            rep.extras["replay_terminal_failure"] = True
    return NullControlResult(F, U_traj, replay_traj, ledger, rep, it, terminal_ratio)


# ---------------------------------------------------------------------------
# exact control by gluing


@dataclass
class ExactControlResult:
    F_mids: list
    replay_trajectory: Trajectory
    forward_half: NullControlResult
    backward_half: NullControlResult
    terminal_error: float       # ||u(T) - u_end||_{H^s} / data scale
    junction_norms: tuple       # (||W(T/2)||, ||V(T/2)||) relative


def exact_control(u_in: SpectralField, u_end: SpectralField, nl: Nonlinearity,
                  setup: ControlSetup, s=None, **null_kw):
    """Steer u_in to u_end: null-control u_in forward on [0, T/2], null-control
    u_end through the time-reversed equation on [0, T/2], glue

        U(t) = W(t) on [0,T/2],  V(T-t) on (T/2,T],
        F(t) = chi_{T/2}(t) F_W(t) resp. chi_{T/2}(T-t) F_V(T-t),

    and verify by a nonlinear replay of the glued control over [0, T].
    null_kw go to both null_control calls; their dealias also selects the
    equation of the glued replay, so the halves control the equation that
    the replay integrates.
    """
    grid = setup.grid
    if s is None:
        s = grid.dim / 2.0 + 2.5
    if setup.steps % 2:
        raise ValueError("exact control needs an even number of steps")
    half_steps = setup.steps // 2
    half = replace(setup, T=setup.T / 2.0, steps=half_steps, chi="plateau")

    null_kw.setdefault("replay", False)  # the glued replay is the verdict
    fwd = null_control(u_in, nl, half, s=s, sign=1.0, **null_kw)
    bwd = null_control(u_end, nl, half, s=s, sign=-1.0, **null_kw)

    chi_half = chi_plateau(setup.T / 2.0)
    tg = TimeGrid(0.0, setup.T, setup.steps)
    tmid = tg.midpoints
    F = []
    for n in range(setup.steps):
        if n < half_steps:
            F.append(float(chi_half(tmid[n])) * fwd.F_mids[n])
        else:
            m = setup.steps - 1 - n
            F.append(float(chi_half(setup.T - tmid[n])) * bwd.F_mids[m])

    u_in_f = setup.filter_data(u_in.coeffs)
    u_end_f = setup.filter_data(u_end.coeffs)
    replay = evolve_nonlinear(grid, tg, nl, u_in_f,
                              control=(np.ones(setup.steps), setup.phi_values, F),
                              sign=1.0, dealias=null_kw.get("dealias", True),
                              krylov_tol=setup.krylov_tol)
    scale = max(sobolev_norm(SpectralField(grid, u_in_f), s)
                + sobolev_norm(SpectralField(grid, u_end_f), s), 1e-300)
    terminal_error = sobolev_norm(
        SpectralField(grid, replay.terminal.u.coeffs - u_end_f), s) / scale
    junction = (fwd.ledger.records[-1].terminal_norm if fwd.ledger.records else np.nan,
                bwd.ledger.records[-1].terminal_norm if bwd.ledger.records else np.nan)
    if max(junction) > 2.0 * setup.tol_terminal:
        raise ControlError(f"glued halves do not vanish at T/2: {junction}")
    return ExactControlResult(F, replay, fwd, bwd, terminal_error, junction)
