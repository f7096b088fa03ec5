"""The benchmark's workloads: set-up, one operation, its output checks and
its accuracy figures.

Every workload uses the nonlinearity g1 = g2 = (1,) and the two-strip
control region of the tier-1 tests (strips of width 0.3*2pi starting at 0.6
on axis 0 and 3.0 on axis 1, mollified with r = 0.025*2pi).  Inputs are
drawn by the tier-1 low-mode pair generator from a generator seeded with the
benchmark seed; the program only ever receives the generated arrays.

Operations call the program through module attributes (``picard.null_control``,
``evolve.evolve_nonlinear``, ``hum.HumProblem``) so that the wrappers of the
traced run see them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from torusctrl import evolve, hum, picard
from torusctrl.geometry import TWO_PI, ControlRegion, Strip, build_cutoffs
from torusctrl.model import Nonlinearity, full_nonlinear_rhs
from torusctrl.spectral import PairState, SpectralField, TorusGrid, sobolev_norm

NL = Nonlinearity(g1=(1.0,), g2=(1.0,))
FREE = Nonlinearity(g1=(0.0,), g2=(0.0,))

# controls must vanish outside the region to this share of their maximum
SUPPORT_RTOL = 1e-13
# Picard differences must shrink at least this fast from round to round
MAX_PICARD_RATIO = 0.5


def strip_setup(grid, T, steps, **kw):
    """ControlSetup on the two-strip region of the tier-1 tests."""
    width = 0.3
    region = ControlRegion((
        Strip(axis=0, lo=0.6, hi=0.6 + width * TWO_PI),
        Strip(axis=1, lo=3.0, hi=3.0 + width * TWO_PI),
    ), r=0.025 * TWO_PI)
    phi, _ = build_cutoffs(region, grid, T)
    return hum.ControlSetup(grid, T=T, steps=steps, phi=phi, **kw)


def small_pair(grid, rng, amp, kmax, modes=3):
    """Random low-mode pair state with pair-||U||_{H^{s0}} = amp (tier-1 generator)."""
    c = np.zeros(grid.shape, dtype=complex)
    for _ in range(modes):
        k = tuple(rng.integers(-kmax, kmax + 1) for _ in range(grid.dim))
        c[tuple(np.asarray(k) % grid.n)] += rng.standard_normal() + 1j * rng.standard_normal()
    f = SpectralField(grid, c)
    s0 = grid.dim / 2.0 + 2.5
    nrm = np.sqrt(2.0) * sobolev_norm(f, s0)
    return PairState(f * (amp / max(nrm, 1e-300)))


def midpoint_residuals(traj, control, nl=NL):
    """Per step ||(U_{n+1} - U_n)/dt - f(U_mid)|| and ||f(U_mid)||.

    f is model.full_nonlinear_rhs for the nonlinearity nl, with the control
    source; nl=FREE gives the free linear equation.
    """
    chi, phi, F_mids = control
    grid, dt = traj.grid, traj.tg.dt
    res, size = [], []
    for n in range(traj.tg.steps):
        f = full_nonlinear_rhs(SpectralField(grid, traj.midpoints[n]), nl,
                               F=SpectralField(grid, F_mids[n]), chi_t=float(chi[n]),
                               phi=phi, dealias=True).coeffs
        du = (traj.states[n + 1] - traj.states[n]) / dt
        res.append(np.linalg.norm(du - f))
        size.append(max(np.linalg.norm(f), 1e-300))
    return np.array(res), np.array(size)


def midpoint_defect(traj, control, nl=NL):
    """max over steps of the relative midpoint residual."""
    res, size = midpoint_residuals(traj, control, nl)
    return float(np.max(res / size))


def _outside_support(grid, phi, F_mids):
    """Largest relative magnitude of the controls where phi vanishes."""
    dead = phi == 0.0
    worst = 0.0
    for f in F_mids:
        vals = np.abs(grid.values_from_coeffs(f))
        worst = max(worst, float(np.max(vals[dead]) / max(np.max(vals), 1e-300)))
    return worst


def _finite(arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


@dataclass
class Case:
    """A built set-up and the generator that draws each operation's inputs."""

    setup: hum.ControlSetup
    rng: np.random.Generator


@dataclass(frozen=True)
class Outcome:
    """What the benchmark records about one operation, outside the timed region."""

    failed_checks: tuple
    terminal_error: float
    midpoint_defect: float
    extras: dict


class Workload:
    """One set-up, a fresh input draw per operation, and one timed call."""

    name = ""

    def __init__(self, n, T, steps):
        self.n, self.T, self.steps = n, T, steps

    def setup(self, seed) -> Case:
        grid = TorusGrid(2, self.n)
        return Case(self.make_setup(grid), np.random.default_rng(seed))

    def make_setup(self, grid):
        raise NotImplementedError

    def draw(self, case):
        raise NotImplementedError

    def run(self, case, inputs):
        raise NotImplementedError

    def outcome(self, case, inputs, out) -> Outcome:
        raise NotImplementedError

    def duality_defect(self, case, out):
        """Discrete duality defect of the operation's HUM problem (0: no HUM layer)."""
        return 0.0


def _duality(prob, rng):
    """duality_check of prob on random midpoint controls and adjoint datum."""
    g = prob.grid

    def rand():
        return g.coeffs_from_values(rng.standard_normal(g.shape)
                                    + 1j * rng.standard_normal(g.shape))
    F = [rand() for _ in range(prob.tg.steps)]
    return float(prob.duality_check(F, rand()))


class PicardN16(Workload):
    """One Picard null control with its default nonlinear replay."""

    name = "picard-n16"

    def __init__(self, n=16, T=1.0, steps=24, max_iter=10):
        super().__init__(n, T, steps)
        self.max_iter = max_iter

    def make_setup(self, grid):
        return strip_setup(grid, self.T, self.steps, cg_tol=1e-9, tol_terminal=1e-4)

    def draw(self, case):
        return small_pair(case.setup.grid, case.rng, amp=1e-2, kmax=1).u

    def run(self, case, u_in):
        return picard.null_control(u_in, NL, case.setup, max_iter=self.max_iter, tol=1e-5)

    def outcome(self, case, u_in, res):
        st = case.setup
        failed = []
        if any(r > MAX_PICARD_RATIO for r in res.ledger.ratios):
            failed.append("check:picard_ratio")
        frozen_terminal = res.ledger.records[-1].terminal_norm
        if not frozen_terminal <= st.tol_terminal:
            failed.append("check:frozen_terminal")
        if not _finite(res.F_mids) or not _finite(res.replay_trajectory.states):
            failed.append("check:finite")
        elif _outside_support(st.grid, st.phi, res.F_mids) > SUPPORT_RTOL:
            failed.append("check:support")
        control = (st.chi_mid, st.phi_values, res.F_mids)
        return Outcome(tuple(failed), float(frozen_terminal),
                       midpoint_defect(res.replay_trajectory, control),
                       {"picard.replay_terminal_ratio": float(res.terminal_ratio)})

    def duality_defect(self, case, res):
        prob = hum.HumProblem(case.setup, NL, frozen=res.frozen_trajectory)
        return _duality(prob, np.random.default_rng(0))


class ReplayN32(Workload):
    """One nonlinear replay of a drawn control at N=32."""

    name = "replay-n32"

    def __init__(self, n=32, T=0.5, steps=12):
        super().__init__(n, T, steps)

    def make_setup(self, grid):
        return strip_setup(grid, self.T, self.steps, krylov_tol=1e-11)

    def draw(self, case):
        g = case.setup.grid
        u0 = small_pair(g, case.rng, amp=1e-2, kmax=1).u
        F = [small_pair(g, case.rng, amp=2e-3, kmax=1).u.coeffs for _ in range(self.steps)]
        return u0, F

    def control(self, case, F):
        return (case.setup.chi_mid, case.setup.phi_values, F)

    def run(self, case, inputs):
        u0, F = inputs
        return evolve.evolve_nonlinear(case.setup.grid, case.setup.timegrid, NL, u0,
                                       control=self.control(case, F),
                                       krylov_tol=case.setup.krylov_tol)

    def outcome(self, case, inputs, traj):
        u0, F = inputs
        if not _finite(traj.states) or not _finite(traj.midpoints):
            return Outcome(("check:finite",), np.nan, np.nan, {})
        # nothing is nulled: the terminal error that the step residuals allow,
        # dt * sum_n ||r_n||, relative to ||U(T)||
        res, size = midpoint_residuals(traj, self.control(case, F))
        terminal = traj.tg.dt * res.sum() / max(np.linalg.norm(traj.states[-1]), 1e-300)
        return Outcome((), float(terminal), float(np.max(res / size)), {})


class HumFreeN16(Workload):
    """One free-flow HUM control on the zero background."""

    name = "hum-free-n16"

    def __init__(self, n=16, T=1.0, steps=24):
        super().__init__(n, T, steps)

    def make_setup(self, grid):
        return strip_setup(grid, self.T, self.steps, cg_tol=1e-9, tol_terminal=1e-4)

    def draw(self, case):
        st = case.setup
        u = small_pair(st.grid, case.rng, amp=1e-2, kmax=2).u.coeffs
        return np.where(st.filter_mask, u, 0.0)

    def run(self, case, u):
        return hum.HumProblem(case.setup, NL).control_op(u)

    def outcome(self, case, u, out):
        F, v0, rep = out
        st = case.setup
        failed = []
        if rep.extras.get("terminal_failure"):
            failed.append("check:terminal_failure")
        if not _finite(F) or not np.isfinite(rep.terminal_norm):
            failed.append("check:finite")
            return Outcome(tuple(failed), np.nan, np.nan, {})
        if _outside_support(st.grid, st.phi, F) > SUPPORT_RTOL:
            failed.append("check:support")
        # the free-flow trajectory control_op verified, replayed untimed
        traj = hum.HumProblem(st, NL).controlled_solve(u, F)
        control = (st.chi_mid, st.phi_values, F)
        return Outcome(tuple(failed), float(rep.terminal_norm),
                       midpoint_defect(traj, control, nl=FREE), {})

    def duality_defect(self, case, out):
        return _duality(hum.HumProblem(case.setup, NL), np.random.default_rng(0))


WORKLOADS = {w.name: w for w in (PicardN16, ReplayN32, HumFreeN16)}

# sizes small enough for the benchmark's own smoke tests
TINY = {
    "picard-n16": dict(n=8, steps=6, max_iter=3),
    "replay-n32": dict(n=8, steps=4),
    "hum-free-n16": dict(n=8, steps=6),
}


def make(name, tiny=False):
    return WORKLOADS[name](**(TINY[name] if tiny else {}))
