"""Coefficient algebra, operator assembly, and frozen-linearization tests."""

import numpy as np
import pytest

from torusctrl.evolve import _dealias_nonlinear
from torusctrl.model import (CoefficientSet, Nonlinearity, assemble_A,
                             assemble_A_from_coeffs, assemble_frozen,
                             assemble_frozen_from_coeffs,
                             compute_coefficients, dealias_mask,
                             frozen_linear_rhs, frozen_symbol_terms,
                             full_nonlinear_rhs, remainder_apply,
                             remainder_pairop, s_matrix, structure_matrices)
from torusctrl.paradiff import (CutoffProfile, SymbolTerm, TorusSymbol, banded_matrix,
                                materialize, xi_abs2, xi_component)
from torusctrl.pairops import conj_reflect
from torusctrl.spectral import (PairState, SpectralField, TorusGrid,
                                pair_scalar_product_H0, sobolev_norm)

from test_spectral import mode, random_field

CUT = CutoffProfile(0.5)
NL = Nonlinearity(g1=(1.0,), g2=(1.0,))


def small_pair(grid, rng, amp=1e-2, modes=3, kmax=None):
    """Random low-mode pair state normalized to pair-||U||_{H^{s0}} = amp."""
    c = np.zeros(grid.shape, dtype=complex)
    kmax = kmax if kmax is not None else max(grid.n // 4 - 1, 2)
    for _ in range(modes):
        k = tuple(rng.integers(-kmax, kmax + 1) for _ in range(grid.dim))
        c[tuple(np.asarray(k) % grid.n)] += rng.standard_normal() + 1j * rng.standard_normal()
    f = SpectralField(grid, c)
    s0 = grid.dim / 2.0 + 2.5
    nrm = np.sqrt(2.0) * sobolev_norm(f, s0)  # pair-space norm
    return PairState(f * (amp / max(nrm, 1e-300)))


def test_nonlinearity_polynomials():
    nl = Nonlinearity(g1=(2.0, -1.0), g2=(0.5,))
    rho = np.array([0.0, 0.3, 1.7])
    assert np.allclose(nl.g1_val(rho), 2 * rho - rho ** 2)
    assert np.allclose(nl.g1_prime(rho), 2 - 2 * rho)
    assert np.allclose(nl.g1_second(rho), -2.0 * np.ones_like(rho))
    assert np.allclose(nl.g2_val(rho), 0.5 * rho)
    assert nl.g1_val(np.array([0.0]))[0] == 0.0 and nl.g2_val(np.array([0.0]))[0] == 0.0
    assert Nonlinearity(g1=(0.0,), g2=(0.0,)).is_linear


def test_coefficients_at_zero_state():
    grid = TorusGrid(2, 16)
    co = compute_coefficients(PairState.zero(grid), NL)
    assert np.max(np.abs(co.a2)) == 0.0
    assert np.max(np.abs(co.b2)) == 0.0
    assert all(np.max(np.abs(a)) == 0.0 for a in co.a1)
    assert np.max(np.abs(co.lam - 1.0)) == 0.0
    assert np.max(np.abs(co.s1 - 1.0)) == 0.0
    assert np.max(np.abs(co.s2)) == 0.0


def test_coefficients_constant_state():
    # g1(r) = r, u == c:  a2 = |c|^2, b2 = c^2, lam = sqrt(1+2|c|^2), a1 = 0
    grid = TorusGrid(2, 16)
    c = 0.08 - 0.03j
    U = PairState(mode(grid, (0, 0), amp=c))
    co = compute_coefficients(U, NL)
    assert np.max(np.abs(co.a2 - abs(c) ** 2)) < 1e-15
    assert np.max(np.abs(co.b2 - c ** 2)) < 1e-15
    assert np.max(np.abs(co.lam - np.sqrt(1 + 2 * abs(c) ** 2))) < 1e-15
    assert all(np.max(np.abs(a)) < 1e-16 for a in co.a1)


def test_coefficient_identities_random():
    rng = np.random.default_rng(30)
    grid = TorusGrid(2, 16)
    for nl in (NL, Nonlinearity(g1=(0.6, 0.3), g2=(1.0, -0.2))):
        U = small_pair(grid, rng, amp=1e-2)
        co = compute_coefficients(U, nl)
        u = U.u.values()
        gp = nl.g1_prime(np.abs(u) ** 2)
        # lam^2 = 1 + 2 |u|^2 g1'(|u|^2)^2 pointwise
        assert np.max(np.abs(co.lam ** 2 - (1 + 2 * np.abs(u) ** 2 * gp ** 2))) < 1e-12
        # s1^2 - |s2|^2 = 1 pointwise
        assert np.max(np.abs(co.s1 ** 2 - np.abs(co.s2) ** 2 - 1.0)) < 1e-12
        assert np.min(co.a2) >= 0.0 and np.min(co.lam) >= 1.0


def test_eigenvalues_of_EA2_random_points():
    rng = np.random.default_rng(31)
    grid = TorusGrid(2, 16)
    U = small_pair(grid, rng, amp=0.1)
    co = compute_coefficients(U, NL)
    E, A2 = structure_matrices(co)
    # A2 Hermitian at every x
    assert np.max(np.abs(A2 - np.conj(np.swapaxes(A2, -1, -2)))) == 0.0
    flatA = A2.reshape(-1, 2, 2)
    lam = co.lam.ravel()
    idx = rng.choice(flatA.shape[0], size=20, replace=False)
    for i in idx:
        ev = np.linalg.eigvals(E @ flatA[i])
        got = np.sort(ev.real)
        assert np.max(np.abs(ev.imag)) < 1e-12
        assert abs(got[0] + lam[i]) < 1e-10 and abs(got[1] - lam[i]) < 1e-10


def test_diagonalization_algebra_pointwise():
    # S^{-1} E A2 S = E diag(lam) entrywise (A2 includes the identity part)
    rng = np.random.default_rng(32)
    grid = TorusGrid(2, 16)
    U = small_pair(grid, rng, amp=0.1)
    co = compute_coefficients(U, NL)
    E, A2 = structure_matrices(co)
    S, Sinv = s_matrix(co)
    flat = zip(S.reshape(-1, 2, 2), Sinv.reshape(-1, 2, 2), A2.reshape(-1, 2, 2), co.lam.ravel())
    for Sx, Sxi, A2x, lamx in flat:
        got = Sxi @ E @ A2x @ Sx
        want = E @ np.diag([lamx, lamx])
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(Sxi @ Sx - np.eye(2))) < 1e-12


def test_assemble_A_free_case_multiplier():
    grid = TorusGrid(2, 16)
    A = assemble_A(PairState.zero(grid), NL, CUT)
    for k in [(1, 0), (3, -2), (0, 5)]:
        w = mode(grid, k).coeffs.ravel()
        out = 1j * A.apply(w)  # i A(0) w = i Lap w on the first component
        want = -1j * (k[0] ** 2 + k[1] ** 2) * w
        assert np.max(np.abs(out - want)) < 1e-13
    assert A.C is None or A.C.nnz == 0


def test_iA_skew_exact_at_zero_and_structured_defect():
    rng = np.random.default_rng(33)
    grid = TorusGrid(2, 16)
    # free case: exactly skew
    A0 = assemble_A(PairState.zero(grid), NL, CUT)
    for _ in range(5):
        v = random_field(grid, rng)
        V = PairState(v)
        x = 1j * A0.apply(v.coeffs.ravel())
        X = PairState(SpectralField(grid, x.reshape(grid.shape)))
        assert abs(pair_scalar_product_H0(X, V)) < 1e-10 * pair_scalar_product_H0(V, V)
    # small frozen state: the defect is carried entirely by the conjugate
    # coupling (b2); the real-symbol part stays exactly skew
    U = small_pair(grid, rng, amp=1e-2)
    A = assemble_A(U, NL, CUT)
    co = compute_coefficients(U, NL)
    b2max = np.max(np.abs(co.b2))
    for _ in range(5):
        v = random_field(grid, rng)
        V = PairState(v)
        full = 1j * A.apply(v.coeffs.ravel())
        zpart = 1j * (A.Z @ v.coeffs.ravel())
        cpart = full - zpart
        Xz = PairState(SpectralField(grid, zpart.reshape(grid.shape)))
        Xc = PairState(SpectralField(grid, cpart.reshape(grid.shape)))
        nv2 = pair_scalar_product_H0(V, V)
        # complex-linear (real symbol) part: exactly skew
        assert abs(pair_scalar_product_H0(Xz, V)) < 1e-10 * nv2
        # conjugate part: bounded by the b2 scale times the top frequency^2
        kmax2 = np.max(grid.abs2)
        assert abs(pair_scalar_product_H0(Xc, V)) <= 4.0 * b2max * kmax2 * nv2


@pytest.mark.parametrize("factor", [1.0, 1j, -1j])
def test_two_gather_A_is_the_three_quantizations(factor):
    # factor * A(U) from its two band gathers against the three symbols
    # quantized apart: Z = -factor (Op(p) + Op(r)), C = -factor Op(q)
    rng = np.random.default_rng(38)
    grid = TorusGrid(2, 16)
    co = compute_coefficients(small_pair(grid, rng, amp=1e-2, modes=4), NL)
    d, c = grid.dim, grid.coeffs_from_values
    p = TorusSymbol(grid, [SymbolTerm(None, xi_abs2(d)), SymbolTerm(c(co.a2), xi_abs2(d))])
    r = TorusSymbol(grid, [SymbolTerm(c(co.a1[a]), xi_component(d, a)) for a in range(d)])
    q = TorusSymbol(grid, [SymbolTerm(c(co.b2), xi_abs2(d))])
    Mp, Mr, Mq = (banded_matrix(sym, CUT)[0].toarray() for sym in (p, r, q))
    A = assemble_A_from_coeffs(co, CUT, factor)
    for got, want in ((A.Z, -factor * (Mp + Mr)), (A.C, -factor * Mq)):
        assert np.max(np.abs(got.toarray() - want)) <= 1e-14 * np.max(np.abs(want))


def test_a1_term_single_mode():
    # u = c e^{i x1}: a1 = (-|c|^2 g1'^2, 0) constant; check the first-order
    # action on a single mode against the hand value
    grid = TorusGrid(2, 16)
    c = 0.1
    U = PairState(mode(grid, (1, 0), amp=c))
    co = compute_coefficients(U, NL)
    gp = NL.g1_prime(np.abs(c) ** 2)
    a1_expect = -abs(c) ** 2 * gp ** 2
    assert np.max(np.abs(co.a1[0] - a1_expect)) < 1e-15
    assert np.max(np.abs(co.a1[1])) < 1e-16
    A = assemble_A(U, NL, CUT)
    k = (3, 1)
    w = mode(grid, k).coeffs.ravel()
    out = A.apply(w).reshape(grid.shape)
    # the coefficient of the input mode itself: -(1+a2)|k|^2 - a1.k
    a2c = float(co.a2[0, 0])
    want_diag = -(1 + a2c) * (k[0] ** 2 + k[1] ** 2) - a1_expect * k[0]
    got = out[tuple(np.asarray(k) % grid.n)]
    assert abs(got - want_diag) < 1e-12


def test_full_rhs_trivial_cases():
    grid = TorusGrid(2, 16)
    z = SpectralField.zero(grid)
    out = full_nonlinear_rhs(z, NL)
    assert np.max(np.abs(out.coeffs)) == 0.0
    # g1 = g2 = 0: free Schroedinger RHS i Lap u
    rng = np.random.default_rng(34)
    u = random_field(grid, rng)
    free = full_nonlinear_rhs(u, Nonlinearity(g1=(0.0,), g2=(0.0,)))
    want = 1j * grid.laplacian_coeffs(u.coeffs)
    assert np.max(np.abs(free.coeffs - want)) < 1e-14 * np.max(np.abs(want))


def test_mass_derivative_identity():
    # Re<rhs, u> = Re<-i chi phi F, u> (quadrature oracle); zero when F = 0
    rng = np.random.default_rng(35)
    grid = TorusGrid(2, 16)
    U = small_pair(grid, rng, amp=1e-2, modes=4)
    u = U.u
    out = full_nonlinear_rhs(u, NL, dealias=True)
    lhs = np.vdot(u.coeffs, out.coeffs).real  # Re<rhs, u>
    assert abs(lhs) < 1e-10 * max(np.vdot(u.coeffs, u.coeffs).real, 1e-30)
    phi = 0.5 * (1 + np.cos(grid.x_mesh[0]))
    F = random_field(grid, rng, scale=1e-2)
    out2 = full_nonlinear_rhs(u, NL, F=F, chi_t=0.7, phi=phi, dealias=True)
    lhs2 = np.vdot(u.coeffs, out2.coeffs).real
    src = -1j * 0.7 * phi * F.values()
    want = np.mean(src * np.conj(u.values())).real
    assert abs(lhs2 - want) < 1e-12 * max(abs(want), 1e-20)


@pytest.mark.parametrize("nl", [NL, Nonlinearity(g1=(0.5, 0.2), g2=(1.0, -0.3))])
def test_frozen_consistency_identity(nl):
    # frozen_linear_rhs(U, U) == full_nonlinear_rhs(u) exactly (no dealiasing)
    rng = np.random.default_rng(36)
    grid = TorusGrid(2, 16)
    for _ in range(3):
        U = small_pair(grid, rng, amp=1e-2, modes=4)
        lhs = frozen_linear_rhs(U, U, nl).u
        rhs = full_nonlinear_rhs(U.u, nl, dealias=False)
        scale = sobolev_norm(rhs, 0.0)
        assert sobolev_norm(lhs - rhs, 0.0) <= 1e-10 * max(scale, 1e-30)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("nl", [NL, Nonlinearity(g1=(0.5, 0.2), g2=(1.0, -0.3))])
def test_frozen_consistency_identity_broadband(nl, dealias, n):
    # broadband twin of test_frozen_consistency_identity: every mode is
    # populated, the Nyquist row included, so the identity needs d_l to
    # commute with conjugation on the lattice
    rng = np.random.default_rng(39)
    grid = TorusGrid(2, n)
    s0 = grid.dim / 2.0 + 2.5
    for _ in range(3):
        f = random_field(grid, rng)
        U = PairState(f * (1e-2 / (np.sqrt(2.0) * sobolev_norm(f, s0))))
        L = assemble_frozen(U, nl)
        if dealias:
            L = _dealias_nonlinear(L)
        lhs = SpectralField(grid, L.apply(U.u.coeffs.ravel()).reshape(grid.shape))
        rhs = full_nonlinear_rhs(U.u, nl, dealias=dealias)
        assert sobolev_norm(lhs - rhs, 0.0) <= 1e-12 * sobolev_norm(rhs, 0.0)


def test_frozen_zero_state_is_free_flow():
    grid = TorusGrid(2, 16)
    rng = np.random.default_rng(37)
    W = PairState(random_field(grid, rng))
    out = frozen_linear_rhs(PairState.zero(grid), W, NL)
    want = 1j * grid.laplacian_coeffs(W.u.coeffs)
    assert np.max(np.abs(out.u.coeffs - want)) < 1e-14 * np.max(np.abs(want))
    R = remainder_apply(PairState.zero(grid), W, NL, CUT)
    assert np.max(np.abs(R.u.coeffs)) < 1e-14


def test_assembled_frozen_matches_function():
    rng = np.random.default_rng(38)
    grid = TorusGrid(2, 16)
    U = small_pair(grid, rng, amp=1e-2, modes=4)
    L = assemble_frozen(U, NL)
    W = PairState(random_field(grid, rng))
    got = L.apply(W.u.coeffs.ravel()).reshape(grid.shape)
    want = frozen_linear_rhs(U, W, NL).u.coeffs
    assert np.max(np.abs(got - want)) < 1e-12 * (np.max(np.abs(want)) + 1e-30)


def test_remainder_pairop_matches_apply():
    rng = np.random.default_rng(39)
    grid = TorusGrid(2, 16)
    U = small_pair(grid, rng, amp=1e-2, modes=4)
    co = compute_coefficients(U, NL)
    R = remainder_pairop(co, CUT)
    W = PairState(random_field(grid, rng))
    got = R.apply(W.u.coeffs.ravel()).reshape(grid.shape)
    want = remainder_apply(U, W, NL, CUT).u.coeffs
    # R is a difference of O(1)-sized operators: compare at the frozen scale
    scale = np.max(np.abs(frozen_linear_rhs(U, W, NL).u.coeffs))
    assert np.max(np.abs(got - want)) < 1e-12 * (scale + 1e-30)


def dense_frozen_reference(co, dealias):
    """Dense (Z, C) of the frozen generator, entrywise: Z_jk = i sum c_hat(j-k) m(k)
    over the w terms plus the free flow -i|k|^2, C likewise over the conj(w)
    terms (the circular convolution matrix of each grid product); dealias
    masks the rows of the coefficient terms."""
    grid = co.grid
    idx = np.array(list(np.ndindex(*grid.shape)))          # FFT-order multi-indices, flat order
    diff = tuple((idx[:, None, a] - idx[None, :, a]) % grid.n for a in range(grid.dim))
    kf = [grid.freq_1d[idx[:, a]].astype(float) for a in range(grid.dim)]
    rows = dealias_mask(grid).ravel()[:, None] if dealias else 1.0

    def block(terms):
        M = sum(grid.coeffs_from_values(c)[diff] * xi(kf)[None, :] for c, xi in terms)
        return 1j * rows * M

    z_terms, c_terms = frozen_symbol_terms(co)
    return block(z_terms) + np.diag(-1j * grid.abs2.ravel()), block(c_terms)


def materialize_pair(op, grid):
    """Dense (Z, C) of a real-linear PairOp from its action on e_k and i e_k."""
    M1 = materialize(lambda w: op.apply(w.ravel()), grid)          # Z + C P
    Mi = materialize(lambda w: op.apply(1j * w.ravel()), grid)     # i (Z - C P)
    Z, CP = 0.5 * (M1 - 1j * Mi), 0.5 * (M1 + 1j * Mi)
    return Z, CP[:, grid.reflect_perm_flat]


def frozen_op(grid, rng, dealias, sign=1.0):
    U = small_pair(grid, rng, amp=1e-2, modes=4)
    co = compute_coefficients(U, NL)
    L = assemble_frozen_from_coeffs(co)
    return U, co, sign * (_dealias_nonlinear(L) if dealias else L)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("dealias", [False, True])
def test_matrix_free_frozen_matches_dense_reference(dim, dealias):
    grid = TorusGrid(dim, 8)
    _, co, op = frozen_op(grid, np.random.default_rng(44), dealias)
    Z, C = materialize_pair(op, grid)
    Zref, Cref = dense_frozen_reference(co, dealias)
    scale = np.max(np.abs(Zref))
    assert np.max(np.abs(Z - Zref)) <= 1e-14 * scale
    assert np.max(np.abs(C - Cref)) <= 1e-14 * scale
    # the sparse part is the free-flow diagonal: O(N^d) nonzeros
    assert op.Z.nnz <= grid.size and op.C is None


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_matrix_free_pairing_transpose(dim, dealias, sign):
    # 2 Re <L w, v> = 2 Re <w, L^T v> to rounding, for the frozen generator
    # and the paradifferential step operator i sign A(U), whose C block at
    # N=16 reaches the Nyquist rows that the reflection j -> -j fixes
    rng = np.random.default_rng(45)
    grid = TorusGrid(dim, 16)
    _, co, op = frozen_op(grid, rng, dealias, sign)
    step = assemble_A_from_coeffs(co, CUT, 1j * sign)
    assert step.C is not None
    for L in (op, step):
        LT = L.transpose_pairing()
        for _ in range(3):
            w = random_field(grid, rng).coeffs.ravel()
            v = random_field(grid, rng).coeffs.ravel()
            Lw = L.apply(w)
            lhs = 2.0 * np.vdot(v, Lw).real
            rhs = 2.0 * np.vdot(LT.apply(v), w).real
            assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(Lw) * np.linalg.norm(v)


@pytest.mark.parametrize("dealias", [False, True])
def test_matrix_free_diagonal_is_materialized_diagonal(dealias):
    rng = np.random.default_rng(46)
    grid = TorusGrid(2, 8)
    U, co, op = frozen_op(grid, rng, dealias)
    # a sum of a sparse and a multiplication part, as the remainder R(U)
    remainder = op + (-1j) * assemble_A(U, NL, CUT)
    step_T = assemble_A_from_coeffs(co, CUT, 1j).transpose_pairing()
    for L in (op, op.transpose_pairing(), (-0.5) * op, remainder, step_T):
        Z, _ = materialize_pair(L, grid)
        d = L.diagonal()
        assert np.max(np.abs(d - np.diag(Z))) <= 1e-14 * np.max(np.abs(Z))


def test_remainder_smoothing_frequency_sweep():
    # ||R(U) W_k||_s / ||W_k||_s must not grow like |k|^2 as k approaches N/2
    rng = np.random.default_rng(40)
    grid = TorusGrid(2, 32)
    U = small_pair(grid, rng, amp=1e-2, modes=3)
    s = 1.0
    ratios = []
    for k in [(4, 0), (8, 0), (14, 0)]:
        W = PairState(mode(grid, k))
        R = remainder_apply(U, W, NL, CUT)
        ratios.append(sobolev_norm(R.u, s) / sobolev_norm(W.u, s))
    # bounded: the last/first ratio far below the |k|^2 growth factor (12.25x)
    assert ratios[-1] <= 3.0 * max(ratios[0], 1e-14)


def test_lipschitz_contract_regression():
    # ||(A(U1)-A(U2))W||_{s-2} <= C ||U1-U2||_{s0} ||W||_s with C pinned
    rng = np.random.default_rng(41)
    grid = TorusGrid(2, 16)
    s0 = grid.dim / 2.0 + 2.5
    s = s0
    worst = 0.0
    for _ in range(5):
        U1 = small_pair(grid, rng, amp=1e-2, modes=3)
        U2 = small_pair(grid, rng, amp=1e-2, modes=3)
        A1 = assemble_A(U1, NL, CUT)
        A2 = assemble_A(U2, NL, CUT)
        W = PairState(random_field(grid, rng))
        diff = (A1.apply(W.u.coeffs.ravel()) - A2.apply(W.u.coeffs.ravel())).reshape(grid.shape)
        num = sobolev_norm(SpectralField(grid, diff), s - 2)
        den = (np.sqrt(2) * sobolev_norm((U1 - U2).u, s0)) * sobolev_norm(W.u, s)
        worst = max(worst, num / den)
    assert worst <= 10.0  # measured ~O(1); regression pin


def test_pair_structure_preserved():
    # materialize both components: second row output == conj-reflect of first
    rng = np.random.default_rng(42)
    grid = TorusGrid(2, 8)
    U = small_pair(grid, rng, amp=1e-2, modes=3)
    for op in (assemble_A(U, NL, CUT), assemble_frozen(U, NL)):
        w = random_field(grid, rng).coeffs.ravel()
        top, bot = op.apply_full(w, conj_reflect(grid, w))
        assert np.max(np.abs(bot - conj_reflect(grid, top))) < 1e-12 * (np.max(np.abs(top)) + 1e-30)
