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
    cg_iterations: int      # Krylov iterations of the round (its one GMRES solve)


@dataclass
class IterationLedger:
    records: list = field(default_factory=list)

    def add(self, rec: IterationRecord):
        self.records.append(rec)

    @property
    def ratios(self):
        return [r.ratio for r in self.records if np.isfinite(r.ratio)]


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
                 max_iter=12, tol=1e-9, sign=1.0, replay=True):
    """Picard iteration for nonlinear null control.

    U^0 = 0, F^0 = 0; each round freezes coefficients at U^n, builds the
    perturbed control operator and takes U^{n+1}, the frozen system under
    the new control from the same initial datum, from its verification.
    The frozen system is that of the dealiased equation the replay
    integrates, so the Picard fixed point solves that equation.

    With s = d/2 + 2.5, stops when du, the C^0 H^{s-2} difference of
    successive iterates, falls to tol * scale, scale being the datum's norm.
    The inner solves are tightened so that each stopping rule sits above the
    floor of the solves nested inside it: the round's GMRES solve
    (control_op_P) runs to cg_tol = min(setup.cg_tol, tol/10), the step solves to
    min(setup.krylov_tol, cg_tol/100); neither is looser than the setup's.
    du below cg_tol * scale is noise of the inner solves; the stop test
    comes first, so a rise of du counts only while du is above the target,
    a decade above that floor.  Two consecutive counted rises raise
    ControlError with the ledger attached.  The converged control is replayed
    through the full nonlinear equation (evolve_nonlinear); an H^s terminal
    ratio above setup.tol_terminal raises ControlError with the ledger too.
    """
    grid = setup.grid
    s = grid.dim / 2.0 + 2.5
    tg = setup.timegrid
    cg_tol = min(setup.cg_tol, 0.1 * tol)
    inner = replace(setup, cg_tol=cg_tol, krylov_tol=min(setup.krylov_tol, 0.01 * cg_tol))
    u_hat = setup.filter_data(u_in.coeffs)
    scale = max(np.sqrt(2.0) * sobolev_norm(SpectralField(grid, u_hat), s - 2), 1e-300)

    ledger = IterationLedger()
    U_curr = zero_trajectory(grid, tg)
    F_curr = [np.zeros(grid.shape, dtype=complex) for _ in range(tg.steps)]
    prev_du = None
    growth = 0
    rep = HumSolveReport()
    it = 0
    for it in range(1, max_iter + 1):
        frozen = None if it == 1 else U_curr
        prob = HumProblem(inner, nl, frozen=frozen, sign=sign)
        F, U_new, rep = prob.control_op_P(u_hat)
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
                    f"(inner Krylov tol {cg_tol:.1e})", ledger)
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
            sign=sign, krylov_tol=setup.krylov_tol)
        terminal_ratio = (sobolev_norm(replay_traj.terminal.u, s)
                          / max(sobolev_norm(SpectralField(grid, u_hat), s), 1e-300))
        if terminal_ratio > setup.tol_terminal:
            raise ControlError(f"nonlinear replay terminal ratio {terminal_ratio:.3e} above "
                               f"tol_terminal {setup.tol_terminal:.1e}", ledger)
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
                  setup: ControlSetup, **null_kw):
    """Steer u_in to u_end: null-control u_in forward on [0, T/2], null-control
    u_end through the time-reversed equation on [0, T/2], glue

        U(t) = W(t) on [0,T/2],  V(T-t) on (T/2,T],
        F(t) = chi_{T/2}(t) F_W(t) resp. chi_{T/2}(T-t) F_V(T-t),

    and verify by a nonlinear replay of the glued control over [0, T], whose
    terminal error is measured in H^s, s = d/2 + 2.5.  null_kw go to both
    null_control calls.
    """
    grid = setup.grid
    s = grid.dim / 2.0 + 2.5
    if setup.steps % 2:
        raise ValueError("exact control needs an even number of steps")
    half_steps = setup.steps // 2
    half = replace(setup, T=setup.T / 2.0, steps=half_steps, chi="plateau")

    null_kw.setdefault("replay", False)  # the glued replay is the verdict
    fwd = null_control(u_in, nl, half, sign=1.0, **null_kw)
    bwd = null_control(u_end, nl, half, sign=-1.0, **null_kw)

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
                              sign=1.0, krylov_tol=setup.krylov_tol)
    scale = max(sobolev_norm(SpectralField(grid, u_in_f), s)
                + sobolev_norm(SpectralField(grid, u_end_f), s), 1e-300)
    terminal_error = sobolev_norm(
        SpectralField(grid, replay.terminal.u.coeffs - u_end_f), s) / scale
    junction = (fwd.ledger.records[-1].terminal_norm if fwd.ledger.records else np.nan,
                bwd.ledger.records[-1].terminal_norm if bwd.ledger.records else np.nan)
    if max(junction) > 2.0 * setup.tol_terminal:
        raise ControlError(f"glued halves do not vanish at T/2: {junction}")
    return ExactControlResult(F, replay, fwd, bwd, terminal_error, junction)
