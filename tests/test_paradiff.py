"""Quantizer tests against a brute-force double-sum oracle."""

import numpy as np
import pytest

from torusctrl.paradiff import (CutoffProfile, SymbolTerm, TorusSymbol,
                                banded_matrix, bony_weyl_quantize, materialize,
                                operator_order_probe, paraproduct_decompose,
                                poisson_bracket, evaluate_symbol, symbol_compose,
                                weyl_quantize, xi_abs2, xi_component, xi_const)
from torusctrl.spectral import SpectralField, TorusGrid, sobolev_norm

from test_spectral import mode, random_field


# ---------------------------------------------------------------------------
# oracle: the literal double sum out_j = sum_k a_hat(j-k, (j+k)/2) g_hat(k)

def oracle_quantize(grid, coeff_hat, xi_fn, ghat, eps=None):
    """coeff_hat: None (x-independent) or FFT-order array; xi_fn(xi_vec)->value."""
    n, d = grid.n, grid.dim
    half = n // 2
    chi = CutoffProfile(eps).chi if eps is not None else None
    modes = [tuple(v) for v in np.stack([f.ravel() for f in np.meshgrid(*[grid.freq_1d] * d,
                                        indexing="ij")], axis=1)]
    ghat_flat = ghat.ravel()
    out = np.zeros(grid.size, dtype=complex)

    def chat(m):
        if coeff_hat is None:
            return 1.0 if all(c == 0 for c in m) else 0.0
        # coefficient modes live strictly inside (-N/2, N/2): the Nyquist row
        # has no conjugate partner and is dropped by convention
        if any(not (-half < c < half) for c in m):
            return 0.0
        return coeff_hat[tuple(np.asarray(m) % n)]

    for ji, j in enumerate(modes):
        acc = 0.0
        for ki, k in enumerate(modes):
            m = tuple(a - b for a, b in zip(j, k))
            c = chat(m)
            if c == 0.0:
                continue
            xi = tuple((a + b) / 2.0 for a, b in zip(j, k))
            w = 1.0
            if chi is not None:
                s = np.sqrt(1.0 + sum((a + b) ** 2 for a, b in zip(j, k)))
                w = float(chi(np.linalg.norm(m) / (eps * s)))
            acc += c * xi_fn(xi) * w * ghat_flat[ki]
        out[ji] = acc
    return out.reshape(grid.shape)


def test_cutoff_profile():
    chi = CutoffProfile.chi
    t = np.linspace(-3, 3, 601)
    v = chi(t)
    assert np.all((0.0 <= v) & (v <= 1.0))
    assert chi(np.array([1.1]))[0] == 1.0 and chi(np.array([-1.1]))[0] == 1.0
    assert chi(np.array([1.9]))[0] == 0.0 and chi(np.array([2.5]))[0] == 0.0
    mid = chi(np.linspace(1.1, 1.9, 100))
    assert np.all(np.diff(mid) <= 1e-15)
    with pytest.raises(ValueError):
        CutoffProfile(1.0)


def test_identity_calibration():
    rng = np.random.default_rng(10)
    cut = CutoffProfile(0.5)
    for dim, n in [(1, 16), (2, 16)]:
        grid = TorusGrid(dim, n)
        one = TorusSymbol.constant(grid, 1.0)
        g = random_field(grid, rng)
        assert np.array_equal(weyl_quantize(one, g).coeffs, g.coeffs)
        assert np.array_equal(bony_weyl_quantize(one, g, cut).coeffs, g.coeffs)


def test_x_independent_symbol_is_multiplier():
    grid = TorusGrid(2, 16)
    cut = CutoffProfile(0.5)
    sym = TorusSymbol.multiplier(grid, xi_abs2(2))
    for k in [(1, 0), (3, 2), (-5, 7)]:
        g = mode(grid, k)
        out = weyl_quantize(sym, g)
        expect = (k[0] ** 2 + k[1] ** 2) * g.coeffs
        assert np.max(np.abs(out.coeffs - expect)) < 1e-12
        # Bony-Weyl coincides exactly (only j = k contributes)
        out2 = bony_weyl_quantize(sym, g, cut)
        assert np.array_equal(out.coeffs, out2.coeffs)
    rng = np.random.default_rng(11)
    g = random_field(grid, rng)
    assert np.allclose(weyl_quantize(sym, g).coeffs,
                       bony_weyl_quantize(sym, g, cut).coeffs, rtol=0, atol=1e-14)


def test_single_coefficient_mode():
    # a = c(x) with chat supported on one frequency j0, g = e^{ikx}:
    # Op(a) g = chat(j0) e^{i(j0+k)x}
    grid = TorusGrid(2, 16)
    j0, k = (2, -1), (3, 1)
    c_hat = np.zeros(grid.shape, dtype=complex)
    c_hat[tuple(np.asarray(j0) % grid.n)] = 0.37 - 0.11j
    sym = TorusSymbol(grid, [SymbolTerm(c_hat, xi_const(2))])
    out = weyl_quantize(sym, mode(grid, k))
    expect = np.zeros(grid.shape, dtype=complex)
    expect[tuple((np.asarray(j0) + np.asarray(k)) % grid.n)] = 0.37 - 0.11j
    assert np.max(np.abs(out.coeffs - expect)) < 1e-14


def test_bony_weyl_single_term_scaling():
    # a = c(x)|xi|^2 with one high mode j0, g one low mode k: the Bony-Weyl
    # output is the Weyl output scaled by chi(|j0| / (eps <j0 + 2k>)).
    grid = TorusGrid(2, 32)
    eps = 0.5
    cut = CutoffProfile(eps)
    j0, k = (6, 2), (1, -1)
    c_hat = np.zeros(grid.shape, dtype=complex)
    c_hat[tuple(np.asarray(j0) % grid.n)] = 1.3
    sym = TorusSymbol(grid, [SymbolTerm(c_hat, xi_abs2(2))])
    g = mode(grid, k)
    w = weyl_quantize(sym, g)
    bw = bony_weyl_quantize(sym, g, cut)
    s = np.asarray(j0) + 2 * np.asarray(k)
    factor = float(CutoffProfile.chi(np.linalg.norm(j0) / (eps * np.sqrt(1 + np.sum(s ** 2)))))
    assert np.max(np.abs(bw.coeffs - factor * w.coeffs)) < 1e-13


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
def test_quantizer_against_oracle(dim, n):
    rng = np.random.default_rng(12)
    grid = TorusGrid(dim, n)
    c = random_field(grid, rng, scale=0.5)
    g = random_field(grid, rng)
    xi = xi_abs2(dim)
    sym = TorusSymbol(grid, [SymbolTerm(c.coeffs, xi)])
    for eps in (None, 0.5, 0.25):
        got = (weyl_quantize(sym, g) if eps is None
               else bony_weyl_quantize(sym, g, CutoffProfile(eps))).coeffs
        want = oracle_quantize(grid, c.coeffs, lambda v: sum(x ** 2 for x in v), g.coeffs, eps)
        scale = np.max(np.abs(want)) + 1e-30
        assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_self_adjointness_of_real_symbols():
    # materialized matrices of real symbols on an 8x8 grid are Hermitian
    rng = np.random.default_rng(13)
    grid = TorusGrid(2, 8)
    cut = CutoffProfile(0.5)
    xm = grid.x_mesh
    c_vals = 1.0 + 0.4 * np.cos(xm[0]) + 0.25 * np.sin(xm[1] + 1.0) \
        + 0.1 * rng.standard_normal(grid.shape)
    for xi in (xi_const(2), xi_abs2(2), xi_component(2, 0)):
        sym = TorusSymbol(grid, [SymbolTerm(grid.coeffs_from_values(c_vals), xi)], is_real=True)
        for cutoff in (None, cut):
            M = materialize(
                lambda w: (weyl_quantize(sym, SpectralField(grid, w)) if cutoff is None
                           else bony_weyl_quantize(sym, SpectralField(grid, w), cutoff)).coeffs,
                grid)
            defect = np.linalg.norm(M - M.conj().T)
            assert defect <= 1e-10 * np.linalg.norm(M)


def test_bandedness_exact_zeros():
    rng = np.random.default_rng(14)
    eps = 0.5
    grid = TorusGrid(2, 16)
    c = random_field(grid, rng)
    sym = TorusSymbol(grid, [SymbolTerm(c.coeffs, xi_abs2(2))])
    M, _ = banded_matrix(sym, CutoffProfile(eps))
    Md = M.toarray()
    modes = np.stack([f.ravel() for f in np.meshgrid(*[grid.freq_1d] * 2, indexing="ij")], axis=1)
    lin = np.arange(grid.size)
    J = modes[lin]
    for a in range(grid.size):
        dj = np.linalg.norm(J - J[a], axis=1)
        sj = np.sqrt(1.0 + np.sum((J + J[a]) ** 2, axis=1))
        outside = dj > 1.9 * eps * sj
        assert np.all(Md[lin[outside], a] == 0.0)


def test_truncation_counter_increments():
    grid = TorusGrid(1, 16)
    c_hat = np.zeros(grid.shape, dtype=complex)
    c_hat[7] = 1.0  # high mode: shifts leave the lattice for many inputs
    sym = TorusSymbol(grid, [SymbolTerm(c_hat, xi_const(1))])
    before = sym.truncated
    weyl_quantize(sym, mode(grid, (2,)))
    assert sym.truncated > before


def test_sparse_matrix_matches_apply():
    rng = np.random.default_rng(15)
    grid = TorusGrid(2, 8)
    cut = CutoffProfile(0.5)
    c = random_field(grid, rng)
    sym = TorusSymbol(grid, [SymbolTerm(c.coeffs, xi_abs2(2)), SymbolTerm(None, xi_const(2, ))])
    g = random_field(grid, rng)
    M, _ = banded_matrix(sym, cut)
    got = (M @ g.coeffs.ravel()).reshape(grid.shape)
    want = bony_weyl_quantize(sym, g, cut).coeffs
    assert np.max(np.abs(got - want)) < 1e-13 * (np.max(np.abs(want)) + 1e-30)


def oracle_quantize_table(grid, table, ghat, eps=None):
    """The literal double sum out_j = sum_k table[j-k, j+k] chi g_hat(k).

    table has shape grid.shape + (2N,)*d: the x-frequency m = j - k in FFT
    order (Nyquist row excluded, as for separable coefficients), then the
    doubled lattice point j + k + N.
    """
    n, d = grid.n, grid.dim
    half = n // 2
    chi = CutoffProfile(eps).chi if eps is not None else None
    modes = [tuple(v) for v in np.stack([f.ravel() for f in np.meshgrid(*[grid.freq_1d] * d,
                                        indexing="ij")], axis=1)]
    ghat_flat = ghat.ravel()
    out = np.zeros(grid.size, dtype=complex)
    for ji, j in enumerate(modes):
        acc = 0.0
        for ki, k in enumerate(modes):
            m = tuple(a - b for a, b in zip(j, k))
            if any(not (-half < c < half) for c in m):
                continue
            val = table[tuple(c % n for c in m) + tuple(a + b + n for a, b in zip(j, k))]
            if chi is not None:
                s = np.sqrt(1.0 + sum((a + b) ** 2 for a, b in zip(j, k)))
                val = val * float(chi(np.linalg.norm(m) / (eps * s)))
            acc += val * ghat_flat[ki]
        out[ji] = acc
    return out.reshape(grid.shape)


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
def test_multi_term_symbol_against_per_term_oracle(dim, n):
    # |xi|^2 + c(x)|xi|^2 + e(x) xi_0: the kernel's sum over terms against
    # the literal double sum of each term, added afterwards
    rng = np.random.default_rng(21)
    grid = TorusGrid(dim, n)
    c = random_field(grid, rng, scale=0.5)
    e = random_field(grid, rng, scale=0.3)
    sym = TorusSymbol(grid, [SymbolTerm(None, xi_abs2(dim)),
                             SymbolTerm(c.coeffs, xi_abs2(dim)),
                             SymbolTerm(e.coeffs, xi_component(dim, 0))])
    g = random_field(grid, rng)
    for eps in (None, 0.5, 0.25):
        want = (oracle_quantize(grid, None, lambda v: sum(x ** 2 for x in v), g.coeffs, eps)
                + oracle_quantize(grid, c.coeffs, lambda v: sum(x ** 2 for x in v), g.coeffs, eps)
                + oracle_quantize(grid, e.coeffs, lambda v: v[0], g.coeffs, eps))
        cutoff = None if eps is None else CutoffProfile(eps)
        got = (weyl_quantize(sym, g) if eps is None else bony_weyl_quantize(sym, g, cutoff)).coeffs
        M, _ = banded_matrix(sym, cutoff)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) < 1e-12 * scale
        assert np.max(np.abs((M @ g.coeffs.ravel()).reshape(grid.shape) - want)) < 1e-12 * scale


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
def test_tabulated_symbol_against_table_oracle(dim, n):
    rng = np.random.default_rng(22)
    grid = TorusGrid(dim, n)
    cv = 1.0 + 0.3 * random_field(grid, rng).values().real

    def fn(xm, xi):
        return (1.0 + cv * sum(x * x for x in xi)) ** 0.75 + 0.2j * cv * xi[0]

    sym = TorusSymbol.tabulated(grid, fn, order=1.5)
    g = random_field(grid, rng)
    for eps in (None, 0.5, 0.25):
        want = oracle_quantize_table(grid, sym.table, g.coeffs, eps)
        cutoff = None if eps is None else CutoffProfile(eps)
        got = (weyl_quantize(sym, g) if eps is None else bony_weyl_quantize(sym, g, cutoff)).coeffs
        M, _ = banded_matrix(sym, cutoff)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) < 1e-12 * scale
        assert np.max(np.abs((M @ g.coeffs.ravel()).reshape(grid.shape) - want)) < 1e-12 * scale


def test_banded_matrix_survives_in_place_edits_of_a_result():
    # scipy's in-place index rewrites on one returned matrix must not reach
    # the next: every call builds its matrix afresh
    rng = np.random.default_rng(23)
    grid = TorusGrid(2, 8)
    cut = CutoffProfile(0.5)
    sym = TorusSymbol(grid, [SymbolTerm(random_field(grid, rng).coeffs, xi_abs2(2)),
                             SymbolTerm(None, xi_const(2))])
    M1, d1 = banded_matrix(sym, cut)
    ref = M1.toarray()
    M1.data[: M1.nnz // 2] = 0.0
    M1.eliminate_zeros()
    M1.indices[:] = M1.indices[::-1].copy()
    M1.has_sorted_indices = False
    M1.sort_indices()
    M1.data[:] = 0.0
    M2, d2 = banded_matrix(sym, cut)
    assert d2 == d1
    assert np.array_equal(M2.toarray(), ref)


# ---------------------------------------------------------------------------
# composition


def test_compose_x_independent_is_product():
    grid = TorusGrid(2, 16)
    a = TorusSymbol.multiplier(grid, xi_abs2(2))
    b = TorusSymbol.multiplier(grid, xi_component(2, 1))
    for rho in (0.5, 2.0):
        ab = symbol_compose(a, b, rho)
        # single term |xi|^2 xi_1, no bracket contribution
        assert len(ab.terms) == 1
        xi = (np.array([1.5]), np.array([-2.0]))
        assert abs(ab.terms[0].xi(xi)[0] - (1.5 ** 2 + 4.0) * (-2.0)) < 1e-14


def test_poisson_bracket_antisymmetry():
    rng = np.random.default_rng(16)
    grid = TorusGrid(2, 8)
    c = random_field(grid, rng)
    d = random_field(grid, rng)
    a = TorusSymbol(grid, [SymbolTerm(c.coeffs, xi_abs2(2))])
    b = TorusSymbol(grid, [SymbolTerm(d.coeffs, xi_component(2, 0))])
    ab = poisson_bracket(a, b)
    ba = poisson_bracket(b, a)
    for xi in [(0.5, 1.0), (-2.5, 3.0), (4.0, -1.5)]:
        for x_index in [(0, 0), (3, 5), (7, 2)]:
            v1 = evaluate_symbol(ab, x_index, xi)
            v2 = evaluate_symbol(ba, x_index, xi)
            assert abs(v1 + v2) < 1e-12 * max(abs(v1), 1.0)


def test_bracket_against_spectral_derivative():
    # a = c(x), b = xi_0: {a, b} = -d_{x_0} c
    rng = np.random.default_rng(17)
    grid = TorusGrid(2, 16)
    c = random_field(grid, rng)
    a = TorusSymbol(grid, [SymbolTerm(c.coeffs, xi_const(2))])
    b = TorusSymbol.multiplier(grid, xi_component(2, 0))
    br = poisson_bracket(a, b)
    dc = grid.values_from_coeffs(grid.derivative_coeffs(c.coeffs, 0))
    for x_index in [(0, 0), (5, 11), (9, 3)]:
        got = evaluate_symbol(br, x_index, (0.7, -0.3))
        assert abs(got + dc[x_index]) < 1e-12 * max(abs(dc[x_index]), 1.0)


def test_composition_order_gain():
    # bracket correction gains one order: defect of Op(a)Op(b) - Op(a #_2 b)
    # stays bounded in H^{s-2} while Op(a)Op(b) - Op(ab) grows ~ N there
    cut = CutoffProfile(0.5)
    s = 3.0
    r2, r1 = [], []
    for n in (16, 32, 64):
        grid = TorusGrid(1, n)
        xm = grid.x_mesh[0]
        c = SpectralField.from_values(grid, 1.0 + 0.3 * np.cos(xm))
        d = SpectralField.from_values(grid, 1.0 + 0.2 * np.sin(xm))
        a = TorusSymbol(grid, [SymbolTerm(c.coeffs, xi_abs2(1))], order=2)
        b = TorusSymbol(grid, [SymbolTerm(d.coeffs, xi_abs2(1))], order=2)
        full = symbol_compose(a, b, 2.0)
        prod = symbol_compose(a, b, 1.0)
        k = n // 3
        u = mode(grid, (k,))
        u = u * (1.0 / sobolev_norm(u, s))
        opa_opb = bony_weyl_quantize(a, bony_weyl_quantize(b, u, cut), cut)
        d2 = opa_opb - bony_weyl_quantize(full, u, cut)
        d1 = opa_opb - bony_weyl_quantize(prod, u, cut)
        r2.append(sobolev_norm(d2, s - 2))
        r1.append(sobolev_norm(d1, s - 2))
    assert r2[2] <= 1.5 * max(r2[0], 1e-12)
    assert r1[1] / r1[0] > 1.6 and r1[2] / r1[1] > 1.6


# ---------------------------------------------------------------------------
# paraproduct


def test_paraproduct_exact_sum():
    rng = np.random.default_rng(18)
    grid = TorusGrid(2, 16)
    cut = CutoffProfile(0.5)
    f = random_field(grid, rng)
    g = random_field(grid, rng)
    Tf, Tg, rem = paraproduct_decompose(f, g, cut)
    total = Tf + Tg + rem
    prod = SpectralField.from_values(grid, f.values() * g.values())
    assert np.max(np.abs(total.coeffs - prod.coeffs)) < 1e-13 * np.max(np.abs(prod.coeffs))


def test_paraproduct_constant_factor():
    grid = TorusGrid(2, 16)
    cut = CutoffProfile(0.5)
    f = mode(grid, (0, 0), amp=2.5)  # constant field
    # g supported on modes |j| >= 4 so the para-term of g at frequency 0 dies
    g = mode(grid, (4, 0)) + mode(grid, (0, 5), amp=0.5)
    Tf, Tg, rem = paraproduct_decompose(f, g, cut)
    prod = SpectralField.from_values(grid, f.values() * g.values())
    assert np.max(np.abs(Tf.coeffs - prod.coeffs)) < 1e-14
    assert np.max(np.abs(Tg.coeffs)) == 0.0
    assert np.max(np.abs(rem.coeffs)) < 1e-14


def test_paraproduct_identical_single_mode():
    grid = TorusGrid(2, 16)
    cut = CutoffProfile(0.5)
    f = mode(grid, (2, 1), amp=1.0 + 0.5j)
    Tf, Tg, rem = paraproduct_decompose(f, f, cut)
    total = Tf + Tg + rem
    prod = SpectralField.from_values(grid, f.values() ** 2)
    assert np.max(np.abs(total.coeffs - prod.coeffs)) < 1e-14


def test_paraproduct_remainder_smoothing_under_refinement():
    # || remainder ||_{H^{s+rho}} / (||f||_s ||g||_s) stays bounded as N grows
    s, rho = 2.0, 1.0
    cut = CutoffProfile(0.5)
    ratios = []
    for n in (16, 32, 64):
        grid = TorusGrid(1, n)
        xm = grid.x_mesh[0]
        f = SpectralField.from_values(grid, np.exp(np.cos(xm)) - 1.5)
        g = SpectralField.from_values(grid, np.sin(xm) + 0.3 * np.cos(3 * xm + 0.7))
        _, _, rem = paraproduct_decompose(f, g, cut)
        ratios.append(sobolev_norm(rem, s + rho) / (sobolev_norm(f, s) * sobolev_norm(g, s)))
    assert ratios[2] <= 1.25 * max(ratios[0], ratios[1])


# ---------------------------------------------------------------------------
# order probe


def test_order_probe_identity_and_laplacian():
    def ident(grid):
        return (lambda w: w), (lambda w: w)

    rep = operator_order_probe(ident, m=0.0, s_values=[1.0], dim=1, sizes=(16, 32, 64))
    assert rep.ok
    for (n, s), v in rep.estimates.items():
        assert abs(v - 1.0) < 1e-6

    def neg_lap(grid):
        def ap(w):
            return grid.abs2 * w
        return ap, ap

    rep = operator_order_probe(neg_lap, m=2.0, s_values=[2.0], dim=1, sizes=(16, 32, 64))
    assert rep.ok


def test_order_probe_variable_coefficient_second_order():
    cut = CutoffProfile(0.5)

    def op(grid):
        xm = grid.x_mesh[0]
        c = SpectralField.from_values(grid, 1.0 + 0.3 * np.cos(xm))
        sym = TorusSymbol(grid, [SymbolTerm(c.coeffs, xi_abs2(1))], order=2, is_real=True)
        M, _ = banded_matrix(sym, cut)

        def ap(w):
            return (M @ w.ravel()).reshape(grid.shape)

        def adj(w):
            return (M.conj().T @ w.ravel()).reshape(grid.shape)

        return ap, adj

    rep = operator_order_probe(op, m=2.0, s_values=[2.0], dim=1, sizes=(16, 32, 64))
    assert not rep.growth_flags


# ---------------------------------------------------------------------------
# tabulated symbols


def test_tabulated_symbol_matches_multiplier():
    # table of an x-independent function must act as the exact multiplier
    grid = TorusGrid(1, 16)
    cut = CutoffProfile(0.5)
    sym = TorusSymbol.tabulated(grid, lambda xm, xi: np.full(grid.shape, (1.0 + xi[0] ** 2) ** 1.5),
                                order=3.0, is_real=True)
    rng = np.random.default_rng(19)
    g = random_field(grid, rng)
    out = bony_weyl_quantize(sym, g, cut)
    want = (1.0 + grid.abs2) ** 1.5 * g.coeffs
    assert np.max(np.abs(out.coeffs - want)) < 1e-12 * np.max(np.abs(want))


def test_tabulated_symbol_matches_separable():
    # c(x) |xi|^2 built as a table agrees with the separable fast path
    grid = TorusGrid(1, 16)
    cut = CutoffProfile(0.5)
    xm = grid.x_mesh
    cv = 1.0 + 0.4 * np.cos(xm[0])
    sym_sep = TorusSymbol(grid, [SymbolTerm(grid.coeffs_from_values(cv), xi_abs2(1))])
    sym_tab = TorusSymbol.tabulated(grid, lambda xmesh, xi: cv * (xi[0] ** 2), order=2.0)
    rng = np.random.default_rng(20)
    g = random_field(grid, rng)
    a = bony_weyl_quantize(sym_sep, g, cut).coeffs
    b = bony_weyl_quantize(sym_tab, g, cut).coeffs
    assert np.max(np.abs(a - b)) < 1e-11 * (np.max(np.abs(a)) + 1e-30)
