"""Time-integration tests: exact-multiplier oracles, conservation laws,
adjoint-pairing exactness, reversibility, and convergence order."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from torusctrl import evolve
from torusctrl.diagonalize import modified_energy_norm
from torusctrl.evolve import (EvolveError, FreeProgram, FrozenProgram, TimeGrid, Trajectory,
                              evolve_linear, evolve_nonlinear, zero_trajectory)
from torusctrl.hum import ControlSetup, HumProblem
from torusctrl.model import (Nonlinearity, assemble_frozen_from_coeffs,
                             compute_coefficients, dealias_mask, full_nonlinear_rhs)
from torusctrl.pairops import PairOp
from torusctrl.paradiff import CutoffProfile
from torusctrl.spectral import (PairState, SpectralField, TorusGrid,
                                pair_scalar_product_H0, sobolev_norm)

from test_model import small_pair
from test_spectral import mode, random_field

CUT = CutoffProfile(0.5)
NL = Nonlinearity(g1=(1.0,), g2=(1.0,))


def constant_background(grid, tg, U):
    states = [U.u.coeffs.copy() for _ in range(tg.steps + 1)]
    mids = [U.u.coeffs.copy() for _ in range(tg.steps)]
    return Trajectory(grid, tg, states, mids)


def midpoint_phase_error(k2, dt, T):
    """Terminal phase error of the midpoint rule on the eigenvalue -i k^2."""
    per_step = abs(k2 * dt - 2.0 * np.arctan(k2 * dt / 2.0))
    return per_step * (T / dt)


def test_free_flow_exact_multiplier_oracle():
    # exact solution e^{-i|k|^2 t} e^{ikx}; terminal error bounded by the
    # derived midpoint phase defect (spec's nominal 1e-8 at dt=1e-3 is below
    # the scheme's own phase error; asserted at dt=1e-4, |k|=1 where it holds)
    grid = TorusGrid(1, 16)
    for k, dt, T in [(1, 1e-3, 1.0), (2, 1e-3, 1.0), (4, 1e-3, 0.2)]:
        tg = TimeGrid(0.0, T, int(round(T / dt)))
        prog = FreeProgram(grid, tg)
        traj = evolve_linear(prog, mode(grid, (k,)), krylov_tol=1e-13)
        exact = np.exp(-1j * k * k * T) * mode(grid, (k,)).coeffs
        err = np.max(np.abs(traj.terminal.u.coeffs - exact))
        bound = 1.1 * midpoint_phase_error(k * k, dt, T) + 1e-12
        assert err <= bound
    tg = TimeGrid(0.0, 1.0, 10000)  # dt = 1e-4, |k| = 1
    traj = evolve_linear(FreeProgram(grid, tg), mode(grid, (1,)), krylov_tol=1e-13)
    exact = np.exp(-1j * 1.0) * mode(grid, (1,)).coeffs
    assert np.max(np.abs(traj.terminal.u.coeffs - exact)) <= 1e-8


def test_second_order_convergence():
    # halving dt cuts the terminal error by 4x (within 20%)
    grid = TorusGrid(1, 16)
    k, T = 3, 0.5
    errs = []
    for steps in (100, 200, 400):
        tg = TimeGrid(0.0, T, steps)
        traj = evolve_linear(FreeProgram(grid, tg), mode(grid, (k,)), krylov_tol=1e-13)
        exact = np.exp(-1j * k * k * T) * mode(grid, (k,)).coeffs
        errs.append(np.max(np.abs(traj.terminal.u.coeffs - exact)))
    for e0, e1 in zip(errs, errs[1:]):
        assert 0.8 * 4.0 <= e0 / e1 <= 1.2 * 4.0


def test_frozen_linearity_in_init_and_source():
    rng = np.random.default_rng(60)
    grid = TorusGrid(2, 16)
    tg = TimeGrid(0.0, 0.3, 20)
    U = small_pair(grid, rng, amp=1e-2)
    prog = FrozenProgram(constant_background(grid, tg, U), NL, CUT,
                         kind="frozen_with_remainder")
    a = random_field(grid, rng).coeffs
    b = random_field(grid, rng).coeffs
    Ga = [random_field(grid, rng, scale=0.1).coeffs for _ in range(tg.steps)]
    Gb = [random_field(grid, rng, scale=0.1).coeffs for _ in range(tg.steps)]
    t1 = evolve_linear(prog, a, source=Ga, krylov_tol=1e-12)
    t2 = evolve_linear(prog, b, source=Gb, krylov_tol=1e-12)
    t3 = evolve_linear(prog, a + 0.7 * b, source=[x + 0.7 * y for x, y in zip(Ga, Gb)],
                       krylov_tol=1e-12)
    want = t1.terminal.u.coeffs + 0.7 * t2.terminal.u.coeffs
    got = t3.terminal.u.coeffs
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_unitarity_free_and_drift_bound_small_background():
    rng = np.random.default_rng(61)
    grid = TorusGrid(2, 16)
    tg = TimeGrid(0.0, 1.0, 50)
    W0 = PairState(random_field(grid, rng))
    n0 = pair_scalar_product_H0(W0, W0)
    # free: the Cayley step is exactly unitary
    traj = evolve_linear(FreeProgram(grid, tg), W0, krylov_tol=1e-12)
    for n in range(0, tg.steps + 1, 10):
        nn = pair_scalar_product_H0(traj.state(n), traj.state(n))
        assert abs(nn - n0) <= 1e-9 * n0
    # small background: drift bounded by the conjugate-coupling scale
    U = small_pair(grid, rng, amp=1e-2)
    from torusctrl.model import compute_coefficients
    b2max = float(np.max(np.abs(compute_coefficients(U, NL).b2)))
    prog = FrozenProgram(constant_background(grid, tg, U), NL, CUT)
    traj = evolve_linear(prog, W0, krylov_tol=1e-12)
    nT = pair_scalar_product_H0(traj.terminal, traj.terminal)
    kmax2 = float(np.max(grid.abs2))
    assert abs(nT - n0) <= 8.0 * b2max * kmax2 * (tg.t1 - tg.t0) * n0


def test_adjoint_pairing_exactly_conserved():
    # the forward flow of the simplified generator L against the adjoint flow
    # HumProblem.solution_op, i Phi(B0 / i) with Phi the forward flow of L,
    # conserves the pairing to Krylov tolerance, since -L^T = i L i^-1; that
    # flow is the one of the transposed step operators -L^T (measured equal
    # bit for bit at every node)
    rng = np.random.default_rng(62)
    grid = TorusGrid(2, 16)
    st = ControlSetup(grid, T=0.5, steps=25, krylov_tol=1e-12)
    tg = st.timegrid
    U = small_pair(grid, rng, amp=1e-2)
    prob = HumProblem(st, NL, frozen=constant_background(grid, tg, U))
    A0 = PairState(random_field(grid, rng))
    B0 = PairState(random_field(grid, rng))
    ta = evolve_linear(prob.simp, A0, krylov_tol=1e-12)
    tb = prob.solution_op(B0)
    p0 = pair_scalar_product_H0(A0, B0)
    for n in range(0, tg.steps + 1, 5):
        pn = pair_scalar_product_H0(ta.state(n), tb.state(n))
        assert abs(pn - p0) <= 1e-9 * max(abs(p0), 1.0)

    def transposed_step(n):
        return (-1.0) * prob.simp.step_op(n).transpose_pairing()
    transposed = SimpleNamespace(grid=grid, tg=tg, step_op=transposed_step)
    tt = evolve_linear(transposed, B0, krylov_tol=1e-12)
    err = max(np.linalg.norm(x - y) for x, y in zip(tb.states, tt.states))
    assert err <= 1e-13 * np.linalg.norm(B0.u.coeffs)


def test_backward_forward_round_trip():
    rng = np.random.default_rng(63)
    grid = TorusGrid(2, 16)
    tg = TimeGrid(0.0, 0.4, 20)
    U = small_pair(grid, rng, amp=1e-2)
    prog = FrozenProgram(constant_background(grid, tg, U), NL, CUT)
    W0 = PairState(random_field(grid, rng))
    fwd = evolve_linear(prog, W0, krylov_tol=1e-12)
    back = evolve_linear(prog, fwd.terminal, direction="backward", krylov_tol=1e-12)
    err = sobolev_norm((back.initial - W0).u, 0.0)
    assert err <= 1e-8 * sobolev_norm(W0.u, 0.0)


def test_time_reversed_nonlinear_round_trip():
    # the equation is reversible by conjugation: the forward flow from
    # conj u(T), conjugated, runs u back to u0
    rng = np.random.default_rng(65)
    grid = TorusGrid(2, 16)
    tg = TimeGrid(0.0, 0.5, 50)
    u0 = small_pair(grid, rng, amp=1e-2).u
    fwd = evolve_nonlinear(grid, tg, NL, u0, krylov_tol=1e-12)
    back = evolve_nonlinear(grid, tg, NL, fwd.terminal.u.conj(), krylov_tol=1e-12)
    err = sobolev_norm((back.terminal.u.conj() - u0), 0.0)
    assert err <= 1e-6 * sobolev_norm(u0, 0.0)


def test_nonlinear_mass_conservation():
    rng = np.random.default_rng(66)
    grid = TorusGrid(2, 16)
    tg = TimeGrid(0.0, 1.0, 100)
    u0 = small_pair(grid, rng, amp=1e-2).u
    traj = evolve_nonlinear(grid, tg, NL, u0, krylov_tol=1e-12)
    mass = np.asarray([np.vdot(s, s).real for s in traj.states])
    assert np.max(np.abs(mass - mass[0])) <= 1e-8 * mass[0]


def test_nonlinear_replay_n64_midpoint_defect():
    # the matrix-free step operator keeps a d=2, N=64 replay at O(N^d)
    # memory; each step's midpoint solves the dealiased equation
    rng = np.random.default_rng(67)
    grid = TorusGrid(2, 64)
    tg = TimeGrid(0.0, 0.5, 12)
    u0 = small_pair(grid, rng, amp=1e-2, kmax=1).u
    traj = evolve_nonlinear(grid, tg, NL, u0, krylov_tol=1e-11)
    for n in range(tg.steps):
        f = full_nonlinear_rhs(SpectralField(grid, traj.midpoints[n]), NL, dealias=True).coeffs
        du = (traj.states[n + 1] - traj.states[n]) / tg.dt
        assert np.linalg.norm(du - f) <= 1e-10 * np.linalg.norm(f)


def test_modified_energy_stability():
    # frozen solves: the state-adapted norm grows at most like e^{Ct}
    rng = np.random.default_rng(67)
    grid = TorusGrid(2, 16)
    tg = TimeGrid(0.0, 1.0, 50)
    U = small_pair(grid, rng, amp=1e-2)
    prog = FrozenProgram(constant_background(grid, tg, U), NL, CUT,
                         kind="frozen_with_remainder")
    W0 = PairState(random_field(grid, rng))
    traj = evolve_linear(prog, W0, krylov_tol=1e-12)
    e0 = modified_energy_norm(U, W0, 1.0, 1.0, NL, CUT)
    eT = modified_energy_norm(U, traj.terminal, 1.0, 1.0, NL, CUT)
    assert eT <= np.exp(0.05 * (tg.t1 - tg.t0)) * e0  # C regression-pinned


def test_frozen_program_interpolates_snapshots():
    # midpoint background is the average of the node snapshots
    rng = np.random.default_rng(68)
    grid = TorusGrid(1, 16)
    tg = TimeGrid(0.0, 0.2, 4)
    states = [random_field(grid, rng, scale=1e-3).coeffs for _ in range(tg.steps + 1)]
    traj = Trajectory(grid, tg, states, [None] * tg.steps)
    for n in range(tg.steps):
        want = 0.5 * (states[n] + states[n + 1])
        assert np.array_equal(traj.mid_background(n), want)


@pytest.mark.parametrize("nl", [NL, Nonlinearity(g1=(0.5, 0.2), g2=(1.0, -0.3))])
def test_dealiased_frozen_program_matches_dealiased_rhs(nl):
    # dealiased twin of test_model's frozen(U, U) identity: the
    # frozen-with-remainder step operator at U, applied to U, is the
    # dealiased nonlinear RHS that evolve_nonlinear integrates
    rng = np.random.default_rng(69)
    grid = TorusGrid(2, 16)
    tg = TimeGrid(0.0, 0.1, 2)
    for _ in range(3):
        U = small_pair(grid, rng, amp=1e-2, modes=4)
        bg = constant_background(grid, tg, U)
        want = full_nonlinear_rhs(U.u, nl, dealias=True)
        scale = sobolev_norm(want, 0.0)
        errs = {}
        prog = FrozenProgram(bg, nl, CUT, kind="frozen_with_remainder")
        undealiased = assemble_frozen_from_coeffs(compute_coefficients(U, nl))
        for dealias, op in ((True, prog.step_op(0)), (False, undealiased)):
            got = op.apply(U.u.coeffs.ravel()).reshape(grid.shape)
            errs[dealias] = sobolev_norm(SpectralField(grid, got) - want, 0.0)
        assert errs[True] <= 1e-12 * scale
        # the data alias: the undealiased operator misses the identity
        assert errs[False] > 1e-10 * scale


def test_dealiased_step_op_is_the_explicit_formula():
    # the frozen-with-remainder step operator, bit for bit, is
    # free + M (L - free): L the frozen generator at the midpoint
    # background, free the flow -i|k|^2 and M the 2/3 row mask
    rng = np.random.default_rng(70)
    grid = TorusGrid(2, 8)
    tg = TimeGrid(0.0, 0.1, 4)
    traj = evolve_nonlinear(grid, tg, NL, small_pair(grid, rng, amp=1e-2, modes=4).u)
    prog = FrozenProgram(traj, NL, CutoffProfile(), kind="frozen_with_remainder")
    free = PairOp(grid, sp.diags(-1j * grid.abs2.ravel().astype(complex)))
    mask = dealias_mask(grid).astype(float)
    for n in range(tg.steps):
        bg = PairState(SpectralField(grid, traj.mid_background(n)))
        L = assemble_frozen_from_coeffs(compute_coefficients(bg, NL))
        nonlinear = L - free
        masked = PairOp(grid, sp.diags(mask.ravel()) @ nonlinear.Z, nonlinear.C,
                        [b.scaled(mask) for b in nonlinear.mult])
        want = free + masked
        w = random_field(grid, rng).coeffs.ravel()
        assert np.array_equal(prog.step_op(n).apply(w), want.apply(w))


def frozen_generator(grid, u, kind="frozen_simplified"):
    """The step operator of the given kind at the constant background u."""
    tg = TimeGrid(0.0, 0.1, 1)
    return FrozenProgram(constant_background(grid, tg, PairState(u)), NL, CUT,
                         kind=kind).step_op(0)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("amp", [1e-2, 1e-1])
def test_frozen_generator_is_reversed_by_conjugation(n, amp):
    # g1, g2 real: both frozen generators satisfy cr(L(U) w) = -L(cr U) cr(w),
    # which lets exact control take its backward half from the forward
    # solver.  Measured: the dealiased frozen-with-remainder generator
    # bitwise at N=8, within 8.6e-23 relative at N=16 and 32; i A(U), its
    # Nyquist rows and columns masked, within 8.4e-17 relative
    rng = np.random.default_rng(71)
    grid = TorusGrid(2, n)
    u = small_pair(grid, rng, amp=amp).u
    for kind in ("frozen_with_remainder", "frozen_simplified"):
        L, L_cr = frozen_generator(grid, u, kind), frozen_generator(grid, u.conj(), kind)
        for _ in range(3):
            w = random_field(grid, rng)
            got = grid.conj_coeffs(L.apply(w.coeffs.ravel()).reshape(grid.shape))
            want = -L_cr.apply(w.conj().coeffs.ravel()).reshape(grid.shape)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), kind


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("amp", [1e-2, 1e-1])
def test_simplified_generator_is_hamiltonian(n, amp):
    # -L^T = i L i^-1 in the pairing 2 Re<u, v> for L = i A(U), so the
    # adjoint flow is the forward flow conjugated by i (measured 0: with the
    # Nyquist rows and columns masked, transposing only moves entries)
    rng = np.random.default_rng(73)
    grid = TorusGrid(2, n)
    L = frozen_generator(grid, small_pair(grid, rng, amp=amp).u)
    minus_LT = (-1.0) * L.transpose_pairing()
    for _ in range(3):
        w = random_field(grid, rng).coeffs.ravel()
        want = 1j * L.apply(-1j * w)
        assert np.linalg.norm(minus_LT.apply(w) - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["frozen_simplified", "frozen_with_remainder"])
def test_step_solve_gmres_fallback(monkeypatch, kind):
    # the fixed-point sweeps solve every step here; with none, every step
    # solve falls back to GMRES and reaches the same trajectory (measured
    # 5.5e-16 relative), and a one-iteration backstop short of krylov_tol
    # raises EvolveError
    rng = np.random.default_rng(72)
    grid = TorusGrid(2, 8)
    tg = TimeGrid(0.0, 1.0, 8)
    prog = FrozenProgram(constant_background(grid, tg, small_pair(grid, rng, amp=1e-1)),
                         NL, CUT, kind=kind)
    W0 = random_field(grid, rng).coeffs
    calls = []
    gmres = evolve._gmres_real

    def counted(*args, **kw):
        calls.append(1)
        return gmres(*args, **kw)
    monkeypatch.setattr(evolve, "_gmres_real", counted)
    want = evolve_linear(prog, W0, krylov_tol=1e-12).terminal.u.coeffs
    assert not calls
    monkeypatch.setattr(evolve, "_FIXED_SWEEPS", 0)
    got = evolve_linear(prog, W0, krylov_tol=1e-12).terminal.u.coeffs
    assert len(calls) == tg.steps
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    monkeypatch.setattr(evolve, "_STEP_GMRES_BACKSTOP", 1)
    with pytest.raises(EvolveError, match="Krylov step solve failed: residual="):
        evolve_linear(prog, W0, krylov_tol=1e-14)
