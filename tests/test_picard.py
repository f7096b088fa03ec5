"""Picard nonlinear null control and exact-control gluing tests."""

import numpy as np
import pytest

from torusctrl import evolve
from torusctrl.hum import ControlSetup, HumProblem
from torusctrl.model import Nonlinearity
from torusctrl.picard import ControlError, exact_control, null_control
from torusctrl.spectral import SpectralField, TorusGrid, sobolev_norm

from test_hum import strip_setup
from test_model import small_pair

NL = Nonlinearity(g1=(1.0,), g2=(1.0,))


def test_null_control_zero_datum():
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, steps=16, cg_tol=1e-9)
    res = null_control(SpectralField.zero(grid), NL, st, max_iter=5, tol=1e-10)
    assert res.iterations == 1
    assert all(np.max(np.abs(f)) == 0.0 for f in res.F_mids)
    assert res.terminal_ratio == 0.0 or np.isnan(res.terminal_ratio) or res.terminal_ratio < 1e-12


def test_null_control_linear_equation_two_iterations():
    # g1 = g2 = 0: the frozen operator is U-independent, so the second
    # iterate reproduces the first control exactly
    rng = np.random.default_rng(80)
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, steps=24, cg_tol=1e-9, tol_terminal=1e-4)
    lin = Nonlinearity(g1=(0.0,), g2=(0.0,))
    u0 = small_pair(grid, rng, amp=1e-2, kmax=1).u
    res = null_control(u0, lin, st, max_iter=6, tol=1e-11)
    assert res.iterations == 2
    assert res.ledger.records[1].du_norm <= 1e-11 * sobolev_norm(u0, 1.5)
    assert res.terminal_ratio <= 1e-4


def test_null_control_quasilinear_converges():
    rng = np.random.default_rng(81)
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, steps=24, cg_tol=1e-9, tol_terminal=1e-4)
    u0 = small_pair(grid, rng, amp=1e-2, kmax=1).u
    res = null_control(u0, NL, st, max_iter=10, tol=1e-10)
    assert res.iterations < 10
    # geometric decay of the Picard differences
    for r in res.ledger.ratios:
        assert r <= 0.5
    # nonlinear replay hits the target
    assert res.terminal_ratio <= 1e-4
    # control vanishes outside the region at every midpoint
    dead = st.phi == 0.0
    for f in res.F_mids[:: max(st.steps // 4, 1)]:
        vals = grid.values_from_coeffs(f)
        assert np.max(np.abs(vals[dead])) <= 1e-13 * max(np.max(np.abs(vals)), 1e-300)


def test_exact_control_zero_data():
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, steps=16, cg_tol=1e-9)
    res = exact_control(SpectralField.zero(grid), SpectralField.zero(grid), NL, st,
                        max_iter=4, tol=1e-10)
    assert all(np.max(np.abs(f)) == 0.0 for f in res.F_mids)
    assert res.terminal_error == 0.0 or np.isnan(res.terminal_error)


def test_exact_control_null_target_reduces_to_half():
    # each half needs its own adequate horizon: low filtered modes travel at
    # group speed 2|k|, so the half window must let them reach the strips
    rng = np.random.default_rng(82)
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, T=2.0, steps=32, cg_tol=1e-9, tol_terminal=1e-4)
    u0 = small_pair(grid, rng, amp=5e-3, kmax=1).u
    res = exact_control(u0, SpectralField.zero(grid), NL, st, max_iter=8, tol=1e-10)
    # the second half controls 0 to 0: zero control there
    for f in res.F_mids[st.steps // 2:]:
        assert np.max(np.abs(f)) == 0.0
    assert res.terminal_error <= 2e-4


def test_exact_control_generic_pair():
    rng = np.random.default_rng(83)
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, T=2.0, steps=32, cg_tol=1e-9, tol_terminal=1e-4)
    u0 = small_pair(grid, rng, amp=5e-3, kmax=1).u
    u1 = small_pair(grid, rng, amp=5e-3, kmax=1).u
    res = exact_control(u0, u1, NL, st, max_iter=8, tol=1e-10)
    # control is continuous at T/2 because both windows vanish near the
    # junction: every midpoint in [3T/8, 5T/8] carries an exact zero
    tmid = st.timegrid.midpoints
    for n, f in enumerate(res.F_mids):
        if 0.375 * st.T <= tmid[n] <= 0.625 * st.T:
            assert np.max(np.abs(f)) == 0.0
    assert res.terminal_error <= 2e-4
    assert max(res.junction_norms) <= 2 * st.tol_terminal


def test_glued_replay_above_tol_terminal_raises():
    # the glued replay's verdict is an error: halves that vanish at T/2
    # (measured 3.7e-13 and 2.7e-13, under the 2e-11 junction bound) whose
    # replay misses tol_terminal (measured 1.8e-10) raise ControlError
    # naming both values
    rng = np.random.default_rng(83)
    grid = TorusGrid(2, 8)
    st = strip_setup(grid, T=2.0, steps=16, cg_tol=1e-9, tol_terminal=1e-11)
    u0 = small_pair(grid, rng, amp=5e-3, kmax=1).u
    u1 = small_pair(grid, rng, amp=5e-3, kmax=1).u
    with pytest.raises(ControlError, match=r"terminal error \d\.\d{3}e-\d+ above "
                                           r"tol_terminal 1\.0e-11"):
        exact_control(u0, u1, NL, st, max_iter=8, tol=1e-10)


def test_ledger_counts_every_cg_iteration_of_a_round(monkeypatch):
    # each round builds one HumProblem and runs one GMRES solve in
    # control_op_P; its ledger entry is the iteration count that the solve
    # reports.  Round 1 takes one iteration: its preconditioner K0 is K.
    grid = TorusGrid(2, 8)
    st = strip_setup(grid, steps=12, cg_tol=1e-9, tol_terminal=1e-4)
    u0 = small_pair(grid, np.random.default_rng(81), amp=1e-2, kmax=1).u
    reported = []
    solve = HumProblem.control_op_P

    def counted(self, *args, **kw):
        F, traj, rep = solve(self, *args, **kw)
        reported.append(rep.iterations)
        return F, traj, rep
    monkeypatch.setattr(HumProblem, "control_op_P", counted)
    # two rounds end above target: the ledger comes with the error
    with pytest.raises(ControlError) as err:
        null_control(u0, NL, st, max_iter=2, tol=1e-8, replay=False)
    ledger = err.value.ledger
    assert len(ledger.records) == 2
    assert [r.cg_iterations for r in ledger.records] == reported
    assert reported[0] == 1


def test_max_iter_cap_above_target_raises():
    # a round budget that ends with du above tol * scale is an error naming
    # both, with the ledger of the rounds run; no budget at all is invalid
    grid = TorusGrid(2, 8)
    st = strip_setup(grid, steps=12, cg_tol=1e-9, tol_terminal=1e-4)
    u0 = small_pair(grid, np.random.default_rng(81), amp=1e-2, kmax=1).u
    with pytest.raises(ControlError, match=r"after max_iter=1 rounds: du \d\.\d{3}e-\d+ "
                                           r"above target \d\.\d{3}e-\d+") as err:
        null_control(u0, NL, st, max_iter=1, tol=1e-8)
    assert len(err.value.ledger.records) == 1
    with pytest.raises(ValueError, match="max_iter"):
        null_control(u0, NL, st, max_iter=0)


def test_picard_ratio_scales_with_the_square_of_the_amplitude():
    # the paper's smallness hypothesis on the benchmark's Picard problem: the
    # nonlinearity is cubic, so the first Picard ratio scales as the square
    # of the datum and tripling the datum multiplies it by 9 (measured 8.997
    # on seed 1 and 8.993 on seed 2; from 3e-2 to 1e-1, 11.07 against 11.11)
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, steps=24, cg_tol=1e-9, tol_terminal=1e-4)
    u0 = small_pair(grid, np.random.default_rng(1), amp=1e-2, kmax=1).u
    ratios = []
    for scale in (1.0, 3.0):
        # two rounds end above target: the ledger comes with the error
        with pytest.raises(ControlError) as err:
            null_control(u0 * scale, NL, st, max_iter=2, tol=1e-5, replay=False)
        ratios.append(err.value.ledger.ratios[0])
    assert ratios[1] / ratios[0] == pytest.approx(9.0, rel=0.05)


def test_replay_above_tol_terminal_raises():
    # the nonlinear replay's verdict is an error: a converged Picard control
    # whose replay misses tol_terminal raises ControlError, naming the
    # terminal ratio and carrying the ledger
    grid = TorusGrid(2, 8)
    st = strip_setup(grid, steps=12, cg_tol=1e-9, tol_terminal=1e-12)
    u0 = small_pair(grid, np.random.default_rng(81), amp=1e-2, kmax=1).u
    with pytest.raises(ControlError, match=r"terminal ratio \d\.\d{3}e-\d+ above "
                                           r"tol_terminal 1\.0e-12") as err:
        null_control(u0, NL, st, max_iter=6, tol=1e-8)
    assert err.value.ledger.records


def test_replay_of_a_converged_control_matches_the_frozen_trajectory(monkeypatch):
    # the Picard fixed point solves the equation the replay integrates, so
    # with converged midpoint passes the replay is the frozen trajectory
    # (measured 4.9e-12 relative; two fixed passes per step left 5.5e-6).
    # Capped at two passes, the replay raises EvolveError naming the pass
    # differences.
    grid = TorusGrid(2, 8)
    st = strip_setup(grid, steps=12, cg_tol=1e-9, tol_terminal=1e-4)
    u0 = small_pair(grid, np.random.default_rng(2), amp=1e-1, kmax=1).u
    res = null_control(u0, NL, st, max_iter=12, tol=1e-8)
    scale = np.linalg.norm(st.filter_data(u0.coeffs))
    gap = max(np.linalg.norm(a - b) for a, b in zip(res.replay_trajectory.states,
                                                    res.frozen_trajectory.states))
    assert gap <= 1e-10 * scale
    monkeypatch.setattr(evolve, "_NONLINEAR_MAX_PASSES", 2)
    with pytest.raises(evolve.EvolveError, match=r"midpoint passes unconverged at step \d+"):
        evolve.evolve_nonlinear(grid, st.timegrid, NL, st.filter_data(u0.coeffs),
                                control=(st.chi_mid, st.phi_values, res.F_mids),
                                krylov_tol=st.krylov_tol)
