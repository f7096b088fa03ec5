"""HUM chain tests: duality, Gramian structure, inversion, control replay,
the remainder-perturbed layer, and the observability constant."""

import numpy as np
import pytest

from torusctrl.evolve import TimeGrid, Trajectory, evolve_linear, evolve_nonlinear
from torusctrl.geometry import Strip, ControlRegion, build_cutoffs, TWO_PI
from torusctrl.hum import ControlSetup, HumError, HumProblem, chi_plateau
from torusctrl.model import Nonlinearity, full_nonlinear_rhs
from torusctrl.spectral import (PairState, SpectralField, TorusGrid,
                                pair_scalar_product_H0, sobolev_norm)

from test_evolve import constant_background
from test_model import small_pair
from test_spectral import mode, random_field

NL = Nonlinearity(g1=(1.0,), g2=(1.0,))


def full_setup(grid, T=1.0, steps=32, **kw):
    """Full observation: phi == 1, chi == 1."""
    return ControlSetup(grid, T=T, steps=steps, phi=None, chi="full", **kw)


def strip_setup(grid, T=1.0, steps=40, width=0.3, **kw):
    region = ControlRegion((
        Strip(axis=0, lo=0.6, hi=0.6 + width * TWO_PI),
        Strip(axis=1, lo=3.0, hi=3.0 + width * TWO_PI),
    ), r=0.025 * TWO_PI)
    phi, _ = build_cutoffs(region, grid, T)
    return ControlSetup(grid, T=T, steps=steps, phi=phi, **kw)


def frozen_background(grid, tg, rng, amp=1e-2):
    return constant_background(grid, tg, small_pair(grid, rng, amp=amp))


def test_range_op_zero_and_linearity():
    grid = TorusGrid(2, 16)
    st = full_setup(grid)
    prob = HumProblem(st, NL)
    zero = [np.zeros(grid.shape, dtype=complex) for _ in range(st.steps)]
    u0, _ = prob.range_op(zero)
    assert sobolev_norm(u0.u, 0.0) == 0.0
    rng = np.random.default_rng(70)
    Ga = [random_field(grid, rng).coeffs for _ in range(st.steps)]
    Gb = [random_field(grid, rng).coeffs for _ in range(st.steps)]
    ua, _ = prob.range_op(Ga)
    ub, _ = prob.range_op(Gb)
    uab, _ = prob.range_op([x + 2.0 * y for x, y in zip(Ga, Gb)])
    want = ua.u.coeffs + 2.0 * ub.u.coeffs
    assert np.max(np.abs(uab.u.coeffs - want)) <= 1e-10 * np.max(np.abs(want))


def test_range_op_duhamel_single_mode_oracle():
    # dU = -i|k|^2 U + e^{i w t} e^{ikx}, U(T)=0:
    # U(0) = -(e^{i(|k|^2+w)T} - 1) / (i (|k|^2 + w))
    grid = TorusGrid(1, 16)
    k, w, T = 1, 0.5, 1.0
    steps = 8000
    st = full_setup(grid, T=T, steps=steps, krylov_tol=1e-13)
    prob = HumProblem(st, NL)
    tmid = st.timegrid.midpoints
    G = [np.exp(1j * w * t) * mode(grid, (k,)).coeffs for t in tmid]
    u0, _ = prob.range_op(G)
    lam = k * k + w
    want = -(np.exp(1j * lam * T) - 1.0) / (1j * lam)
    got = u0.u.coeffs[k]
    assert abs(got - want) <= 1e-8


def test_solution_op_isometry_and_phases():
    grid = TorusGrid(2, 16)
    st = full_setup(grid)
    prob = HumProblem(st, NL)
    rng = np.random.default_rng(71)
    V0 = random_field(grid, rng).coeffs
    sol = prob.solution_op(V0)
    n0 = np.linalg.norm(V0)
    for n in range(0, st.steps + 1, 8):
        assert abs(np.linalg.norm(sol.states[n]) - n0) <= 1e-9 * n0
    # free flow: each mode evolves by its own phase only
    k = (2, -3)
    solk = prob.solution_op(mode(grid, k).coeffs)
    snap = solk.states[st.steps]
    mask = np.zeros(grid.shape, dtype=bool)
    mask[tuple(np.asarray(k) % grid.n)] = True
    assert np.max(np.abs(snap[~mask])) == 0.0
    assert abs(abs(snap[mask][0]) - 1.0) < 1e-12


@pytest.mark.parametrize("background", ["zero", "frozen"])
def test_duality_identity(background):
    rng = np.random.default_rng(72)
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, steps=24, krylov_tol=1e-12)
    frozen = None
    if background == "frozen":
        frozen = frozen_background(grid, st.timegrid, rng)
    prob = HumProblem(st, NL, frozen=frozen)
    tol = 1e-9 if background == "zero" else 1e-8
    for _ in range(6):
        F = [random_field(grid, rng).coeffs for _ in range(st.steps)]
        V0 = random_field(grid, rng).coeffs
        assert prob.duality_check(F, V0) <= tol
    # zero source: both sides vanish
    Fz = [np.zeros(grid.shape, dtype=complex) for _ in range(st.steps)]
    assert prob.duality_check(Fz, V0) == 0.0


@pytest.mark.parametrize("background", ["zero", "frozen"])
def test_gramian_symmetric_and_positive(background):
    rng = np.random.default_rng(73)
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, steps=24, krylov_tol=1e-12)
    frozen = frozen_background(grid, st.timegrid, rng) if background == "frozen" else None
    prob = HumProblem(st, NL, frozen=frozen)
    for _ in range(4):
        u = random_field(grid, rng).coeffs
        v = random_field(grid, rng).coeffs
        Ku = prob.hum_apply(u)
        Kv = prob.hum_apply(v)
        a = pair_scalar_product_H0(PairState(SpectralField(grid, Ku)),
                                   PairState(SpectralField(grid, v.reshape(grid.shape))))
        b = pair_scalar_product_H0(PairState(SpectralField(grid, u.reshape(grid.shape))),
                                   PairState(SpectralField(grid, Kv)))
        scale = np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(a - b) <= 1e-8 * scale
        # positivity, cross-checked against the direct quadratic form
        quad = pair_scalar_product_H0(PairState(SpectralField(grid, Ku)),
                                      PairState(SpectralField(grid, u.reshape(grid.shape))))
        direct = prob.gramian_quadratic(u)
        assert quad >= -1e-10 * scale
        assert abs(quad - direct) <= 1e-9 * max(direct, 1e-300)


def test_gramian_full_observation_is_T_identity():
    # the discrete Gramian of the midpoint scheme is T/(1+(dt|k|^2/2)^2) per
    # mode: the 1e-6 tolerance dictates dt <= 2e-3/|k|^2 on the tested band
    grid = TorusGrid(2, 16)
    T = 0.7
    st = full_setup(grid, T=T, steps=3200, krylov_tol=1e-12)
    prob = HumProblem(st, NL)
    rng = np.random.default_rng(74)
    v = random_field(grid, rng).coeffs
    v[grid.abs2 > 4.0] = 0.0  # |k|^2 <= 4: deficit (dt*2/2)^2 ~ 4.8e-8
    Kv = prob.hum_apply(v)
    assert np.max(np.abs(Kv - T * v)) <= 1e-6 * T * np.max(np.abs(v))


def test_hum_invert_trivial_and_full_observation():
    grid = TorusGrid(2, 16)
    T = 0.7
    st = full_setup(grid, T=T, steps=2600, cg_tol=1e-10, krylov_tol=1e-12)
    prob = HumProblem(st, NL)
    v0, rep = prob.hum_invert(np.zeros(grid.shape, dtype=complex))
    assert rep.iterations == 0 and np.all(v0 == 0.0)
    rng = np.random.default_rng(75)
    U_in = prob.filter_data(random_field(grid, rng).coeffs)
    v0, rep = prob.hum_invert(U_in)
    assert rep.converged
    assert np.max(np.abs(v0.reshape(grid.shape) - U_in / T)) <= 1e-6 * np.max(np.abs(U_in)) / T
    # postcondition replay: K v0 == U_in within 10 x cg_tol
    replay = prob.hum_apply(v0)
    defect = np.linalg.norm(replay - U_in) / np.linalg.norm(U_in)
    assert defect <= 10.0 * st.cg_tol


def frozen_backstop_problem(rng):
    """N=16, 24 steps, a frozen background and a backstop of one iteration.

    K0 = K exactly at the zero background, where one preconditioned GMRES
    iteration solves; on this frozen background one stops short of cg_tol
    (true residual 1.4e-7, in-ball 6.3e-8, out-of-ball 1.3e-7).
    """
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, steps=24, cg_tol=1e-9, cg_max_iter=1)
    prob = HumProblem(st, NL, frozen=frozen_background(grid, st.timegrid, rng))
    return prob, prob.filter_data(small_pair(grid, rng, amp=1e-2, kmax=2).u.coeffs)


def test_hum_invert_error_names_the_residual_parts():
    # the backstop stops GMRES short of cg_tol: the error carries the true
    # residual and its in-ball and out-of-ball parts
    prob, U_in = frozen_backstop_problem(np.random.default_rng(79))
    with pytest.raises(HumError, match=r"after 1 iterations \(backstop 1\)") as err:
        prob.hum_invert(U_in)
    rep = err.value.report
    assert rep.iterations == 1 and not rep.converged
    assert rep.residual > prob.setup.cg_tol
    r_in, r_out = rep.extras["residual_in_ball"], rep.extras["residual_out_of_ball"]
    assert r_in > 0.0 and r_out > 0.0
    # disjoint modes: the two parts split the residual orthogonally
    assert np.hypot(r_in, r_out) == pytest.approx(rep.residual, rel=1e-10)
    for value in (rep.residual, r_in, r_out):
        assert f"{value:.3e}" in str(err.value)


def test_control_op_zero_and_support():
    rng = np.random.default_rng(76)
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, steps=24, cg_tol=1e-9, tol_terminal=1e-5)
    prob = HumProblem(st, NL)
    F, v0, rep = prob.control_op(np.zeros(grid.shape, dtype=complex))
    assert all(np.max(np.abs(f)) == 0.0 for f in F)
    # support: F(t, .) vanishes exactly where phi does
    U_in = prob.filter_data(small_pair(grid, rng, amp=1e-2).u.coeffs)
    F, v0, rep = prob.control_op(U_in)
    dead = st.phi == 0.0
    for f in F[:: max(st.steps // 6, 1)]:
        vals = grid.values_from_coeffs(f)
        assert np.max(np.abs(vals[dead])) <= 1e-14 * max(np.max(np.abs(vals)), 1e-300)


def test_linear_null_control_small_case():
    # crossed strips, modest resolution: the terminal norm stays within
    # cg_tol on the zero and a frozen background (K0-preconditioned GMRES
    # solves the zero background exactly, to 5e-14 at every cg_tol)
    rng = np.random.default_rng(77)
    grid = TorusGrid(2, 16)
    U_in = small_pair(grid, rng, amp=1e-2, kmax=2).u.coeffs
    tg = TimeGrid(0.0, 1.0, 32)
    for frozen in (None, frozen_background(grid, tg, rng)):
        for tol in (1e-4, 1e-6, 1e-8):
            st = strip_setup(grid, steps=32, cg_tol=tol, tol_terminal=1.0, krylov_tol=1e-12)
            F, v0, rep = HumProblem(st, NL, frozen=frozen).control_op(U_in)
            assert rep.terminal_norm <= tol


@pytest.mark.parametrize("background", ["zero", "frozen"])
def test_perturbed_control_layer(background):
    rng = np.random.default_rng(78)
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, steps=24, cg_tol=1e-9, tol_terminal=1e-5, krylov_tol=1e-12)
    frozen = frozen_background(grid, st.timegrid, rng) if background == "frozen" else None
    prob = HumProblem(st, NL, frozen=frozen)
    U_in = prob.filter_data(small_pair(grid, rng, amp=1e-2, kmax=2).u.coeffs)
    if background == "zero":
        # E = 0 at the zero background: L_P reduces to L
        EZ, _ = prob.perturbation_E(U_in)
        assert np.max(np.abs(EZ)) == 0.0
    else:
        # ||E Z|| <= C eps0 ||Z|| on probes Z = K v in the range of K (C pinned)
        for _ in range(2):
            v = prob.filter_data(random_field(grid, rng).coeffs)
            EKv, Kv = prob.perturbation_E(v)
            assert np.linalg.norm(EKv) <= 0.5 * np.linalg.norm(Kv)
    F, _, rep = prob.control_op_P(U_in)
    assert rep.terminal_norm <= 1e-5
    assert "terminal_failure" not in rep.extras
    # ||E K v0|| / ||K v0|| at the solution: the smallness (Id+E)^-1 rests on
    assert 0.0 <= rep.extras["E_ratio"] <= 0.5
    if background == "zero":
        assert rep.extras["E_ratio"] == 0.0


def test_control_op_P_raises_when_gmres_backstop_is_reached():
    # one GMRES iteration cannot solve (K + E K) v0 = U_in to cg_tol on a
    # frozen background: the error names the true residual against the
    # tolerance, the iteration count and dt (N/2)^2 = (1/8) 4^2 = 2
    rng = np.random.default_rng(80)
    grid = TorusGrid(2, 8)
    st = full_setup(grid, steps=8, cg_max_iter=1)
    prob = HumProblem(st, NL, frozen=frozen_background(grid, st.timegrid, rng))
    U_in = prob.filter_data(small_pair(grid, rng, amp=1e-2, kmax=1).u.coeffs)
    with pytest.raises(HumError, match=r"after 1 iterations \(backstop 1\): true relative "
                                       r"residual \S+ against tol 1\.0e-10, "
                                       r"dt\*\(N/2\)\^2 = 2\b") as err:
        prob.control_op_P(U_in)
    rep = err.value.report
    assert rep.iterations == 1 and not rep.converged
    assert rep.extras["true_residual"] > st.cg_tol
    assert f"{rep.extras['true_residual']:.3e}" in str(err.value)


def test_observability_constant_full_observation():
    grid = TorusGrid(2, 16)
    T = 0.8
    st = full_setup(grid, T=T, steps=3000, krylov_tol=1e-12)
    prob = HumProblem(st, NL)
    c_min, worst, rep = prob.observability_constant()
    assert abs(c_min - T) <= 1e-6 * T
    assert not rep.extras["observability_failure"]


def _recording_hum_apply(prob):
    """Shadow prob.hum_apply with a recorder; returns the list of applied vectors."""
    seen = []

    def record(v0, **kw):
        seen.append(np.array(v0, dtype=complex))
        return HumProblem.hum_apply(prob, v0, **kw)
    prob.hum_apply = record
    return seen


def _relative_true_residual(prob, b, x):
    """||b - K x|| / ||b||: the pair norm is a multiple of the Euclidean one."""
    return np.linalg.norm(b.ravel() - HumProblem.hum_apply(prob, x).ravel()) / np.linalg.norm(b)


def test_cg_true_residual_at_exit():
    # the true residual b - K x at exit, on converged solves over the zero
    # and a frozen background and on the one-iteration backstop; the last
    # Gramian application of each solve is that of its returned iterate x
    rng = np.random.default_rng(82)
    grid = TorusGrid(2, 16)
    for background in ("zero", "frozen"):
        st = strip_setup(grid, steps=24, cg_tol=1e-9)
        frozen = frozen_background(grid, st.timegrid, rng) if background == "frozen" else None
        prob = HumProblem(st, NL, frozen=frozen)
        b = prob.filter_data(small_pair(grid, rng, amp=1e-2, kmax=2).u.coeffs)
        seen = _recording_hum_apply(prob)
        x, rep = prob.hum_invert(b)
        assert rep.converged and np.array_equal(seen[-1].ravel(), x)
        want = _relative_true_residual(prob, b, seen[-1])
        assert abs(rep.extras["true_residual"] - want) <= 1e-12 * want
    prob, b = frozen_backstop_problem(rng)
    seen = _recording_hum_apply(prob)
    with pytest.raises(HumError) as err:
        prob.hum_invert(b)
    rep = err.value.report
    assert f"true relative residual {rep.extras['true_residual']:.3e}" in str(err.value)
    want = _relative_true_residual(prob, b, seen[-1])
    assert abs(rep.extras["true_residual"] - want) <= 1e-12 * want


def test_cg_errors_name_the_nyquist_phase_step():
    # dt (N/2)^2 = (1/24) 8^2 = 2.67 on the N=16, 24-step, T=1 problem
    prob, U_in = frozen_backstop_problem(np.random.default_rng(79))
    assert prob.setup.nyquist_phase_step == pytest.approx(64.0 / 24.0, rel=1e-15)
    with pytest.raises(HumError, match=r"dt\*\(N/2\)\^2 = 2\.67"):
        prob.hum_invert(U_in)


def test_K_plus_EK_is_one_remainder_backward_solve():
    # (K + E K) v = hum_apply(v, with_remainder=True) against K v plus E K v
    # composed step by step: E K v = R_P R(U) S_P K v, with S_P K v the
    # simplified backward solve with source -chi^2 phi^2 S v and R(U) x =
    # rem x - simp x at each midpoint.  The identity is exact for the
    # implicit midpoint rule; the step solves (krylov_tol 1e-12) bound the
    # agreement.  Here ||E K v|| = 1.3e-8 ||K v||, and the agreement is
    # measured at 4e-16 ||(K + E K) v|| = 3e-8 ||E K v||.  perturbation_E's
    # E K v is the difference of the two applications.
    rng = np.random.default_rng(83)
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, steps=24, cg_tol=1e-10, krylov_tol=1e-12)
    prob = HumProblem(st, NL, frozen=frozen_background(grid, st.timegrid, rng))
    v0 = random_field(grid, rng).coeffs
    sol = prob.solution_op(v0)
    chi = st.chi_mid
    G = [-(chi[n] ** 2) * prob.mult_phi(sol.midpoints[n], power=2) for n in range(st.steps)]
    zero = np.zeros(grid.shape, dtype=complex)
    S_P = evolve_linear(prob.simp, zero, direction="backward", source=G,
                        krylov_tol=st.krylov_tol)
    RG = []
    for n in range(st.steps):
        x = S_P.midpoints[n].ravel()
        RG.append((prob.rem.step_op(n).apply(x) - prob.simp.step_op(n).apply(x))
                  .reshape(grid.shape))
    EKv_ref = prob.range_op(RG, with_remainder=True)[0].u.coeffs
    Kv = prob.hum_apply(v0)
    fused = prob.hum_apply(v0, with_remainder=True)
    err = np.linalg.norm(fused - (Kv + EKv_ref))
    assert err <= 1e-9 * np.linalg.norm(fused)
    assert err <= 1e-6 * np.linalg.norm(EKv_ref)
    EKv, Kv_E = prob.perturbation_E(v0)
    assert np.array_equal(Kv_E, Kv) and np.array_equal(EKv, fused - Kv)
    # at the zero background the two programs are one: equal bit for bit
    free = HumProblem(st, NL)
    assert np.array_equal(free.hum_apply(v0, with_remainder=True), free.hum_apply(v0))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_free_gramian_is_the_zero_background_gramian(n, sign):
    # the closed form K0 against hum_apply on the free background; measured
    # agreement 1e-15 relative
    rng = np.random.default_rng(85)
    grid = TorusGrid(2, n)
    st = strip_setup(grid, steps=24)
    prob = HumProblem(st, NL, sign=sign)
    K0 = prob.free_gramian
    assert np.max(np.abs(K0 - K0.conj().T)) <= 1e-14 * np.max(np.abs(K0))
    for _ in range(3):
        v = random_field(grid, rng).coeffs
        want = prob.hum_apply(v).ravel()
        assert np.linalg.norm(K0 @ v.ravel() - want) <= 1e-13 * np.linalg.norm(want)


def test_observability_constant_is_the_least_eigenvalue_of_the_free_gramian():
    # on the gamma-filtered modes the Rayleigh quotient of K is that of K0:
    # the inverse iteration meets eigvalsh within its own rtol (1e-4); at
    # N=32 with 96 steps (the same dt (N/2)^2 = 2.67) c_min stays bounded
    # below (measured 3.07e-3 at N=16, 3.89e-4 at N=32)
    c_min = {}
    for n, steps in ((16, 24), (32, 96)):
        grid = TorusGrid(2, n)
        st = strip_setup(grid, steps=steps)
        prob = HumProblem(st, NL)
        m = st.filter_mask.ravel()
        c_min[n] = np.linalg.eigvalsh(prob.free_gramian[np.ix_(m, m)])[0]
        if n == 16:
            c, _, _ = prob.observability_constant()
            assert abs(c - c_min[n]) <= 1e-4 * c_min[n]
    assert c_min[32] >= 3e-4


def test_observability_constant_is_bounded_below_at_n64():
    # K0's gamma-block on the tier-1 strips at N=64 with 384 steps, the same
    # dt (N/2)^2 = 2.67 as at N=16 and 32: c_min levels off in N (measured
    # 3.07e-3, 3.89e-4, 3.25e-4 at N=16, 32, 64)
    st = strip_setup(TorusGrid(2, 64), steps=384)
    c_min, _, rep = HumProblem(st, NL).observability_constant()
    assert c_min >= 3e-4 and rep.rayleigh_min == c_min


def test_observability_change_on_frozen_backgrounds_is_quadratic_in_the_amplitude():
    # the paper carries observability from the free flow to the frozen
    # systems by smallness; the nonlinearity is cubic, so doubling the
    # background multiplies the change of c_min from K0's value by 4
    # (measured relative changes 2.66e-5 and 1.07e-4, ratio 4.000)
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, steps=24)
    c_free, _, _ = HumProblem(st, NL).observability_constant()
    change = []
    for amp in (1e-1, 2e-1):
        frozen = frozen_background(grid, st.timegrid, np.random.default_rng(5), amp=amp)
        c_min, _, _ = HumProblem(st, NL, frozen=frozen).observability_constant()
        change.append(c_min - c_free)
    assert abs(change[0]) <= 1e-4 * c_free
    assert change[1] / change[0] == pytest.approx(4.0, rel=0.05)


def test_frozen_observability_block_is_symmetric():
    # P K P is pair-self-adjoint, so its realified block on the gamma-ball,
    # built from 2m Gramian applications, is symmetric up to the step
    # solves' tolerance (measured 1.4e-11 at amplitude 4e-1)
    grid = TorusGrid(2, 16)
    st = strip_setup(grid, steps=24)
    frozen = frozen_background(grid, st.timegrid, np.random.default_rng(5), amp=4e-1)
    c_min, _, rep = HumProblem(st, NL, frozen=frozen).observability_constant()
    assert rep.extras["asymmetry"] <= 1e-8
    assert 0.0 < c_min == rep.rayleigh_min <= rep.rayleigh_max


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_controlled_solve_matches_free_nonlinear_replay(sign):
    # g1 = g2 = 0: the nonlinear replay is the free linear flow, so both
    # replays see the same control source -sign i chi phi F
    rng = np.random.default_rng(84)
    grid = TorusGrid(2, 8)
    free = Nonlinearity(g1=(0.0,), g2=(0.0,))
    st = strip_setup(grid, steps=12, krylov_tol=1e-13)
    prob = HumProblem(st, free, sign=sign)
    U_in = random_field(grid, rng).coeffs
    F = [random_field(grid, rng).coeffs for _ in range(st.steps)]
    lin = prob.controlled_solve(U_in, F)
    nonlin = evolve_nonlinear(grid, st.timegrid, free, U_in,
                              control=(st.chi_mid, st.phi_values, F), sign=sign,
                              krylov_tol=st.krylov_tol)
    got, want = np.array(lin.states), np.array(nonlin.states)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_every_hum_problem_controls_the_replayed_equation():
    # the frozen-with-remainder system of a HumProblem at U, applied to U, is
    # the dealiased nonlinear RHS that evolve_nonlinear integrates (measured
    # <= 2.3e-23 relative; an undealiased system misses it by 1.7e-9 to
    # 6.4e-8 on these draws)
    rng = np.random.default_rng(88)
    grid = TorusGrid(2, 16)
    st = full_setup(grid, T=0.1, steps=2)
    for _ in range(3):
        U = small_pair(grid, rng, amp=1e-2, modes=4)
        prob = HumProblem(st, NL, frozen=constant_background(grid, st.timegrid, U))
        want = full_nonlinear_rhs(U.u, NL, dealias=True)
        got = prob.rem.step_op(0).apply(U.u.coeffs.ravel()).reshape(grid.shape)
        assert (sobolev_norm(SpectralField(grid, got) - want, 0.0)
                <= 1e-12 * sobolev_norm(want, 0.0))


def test_chi_plateau_profile():
    chi = chi_plateau(2.0)
    assert chi(0.8) == 1.0 and chi(1.0) == 1.0
    assert chi(1.5) == 0.0 and chi(1.9) == 0.0
    assert 0.0 < chi(1.2) < 1.0
