"""Lattice route: assembly structure, spectra, box convergence, localization."""

import logging
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from diracosc import dirac_solver, linalg
from diracosc.dirac_solver import (
    assemble_dirac_matrix,
    converge_box_full,
    default_grid,
    dirac_spectrum,
    eigenvalue_count_in_window,
)
from diracosc.errors import ConvergenceError, DomainError, ResourceError
from diracosc.model import Grid, PhysicalParams, Superpotential, localization_of
from diracosc import analytic

import tridiagonal_oracle as oracle
from conftest import linear_params, tan_params


@pytest.fixture(scope="module")
def converged_k0():
    return converge_box_full(linear_params(0.0), levels=8, tol=1e-6)


@pytest.fixture(scope="module")
def converged_k06():
    return converge_box_full(linear_params(0.6), levels=8, tol=1e-6)


def positive_levels(records):
    return sorted(r.E for r in records if r.branch > 0)


# ---------------------------------------------------------------- assembly


def test_block_assembly_three_site_example():
    # h = 2*2/4 = 1, lower sites x = (-1, 0, 1), upper sites (-1.5, -0.5,
    # 0.5, 1.5): rows u, l, u, l, u, l, u at x = -1.5, -1, ..., 1.5 and W = x,
    # so with kappa = 0.5 the diagonal is +-m + W/2. Bond midpoints -1.25,
    # -0.75, ..., 1.25; bond = W/2 -+ sqrt(1/h^2 + W^2/4), minus towards a
    # lower site
    params = PhysicalParams(mass=0.5, kappa=0.5, superpotential=Superpotential.linear(1.0))
    grid = Grid(half_width=2.0, n=3)
    assert grid.h == pytest.approx(1.0, abs=1e-15)
    t = assemble_dirac_matrix(params, grid)
    np.testing.assert_allclose(t.d, [-0.25, -1.0, 0.25, -0.5, 0.75, 0.0, 1.25], atol=1e-15)
    outer = math.sqrt(1.0 + 0.625**2)
    middle = math.sqrt(1.0 + 0.375**2)
    inner = math.sqrt(1.0 + 0.125**2)
    np.testing.assert_allclose(
        t.e,
        [-0.625 - outer, -0.375 + middle, -0.125 - inner,
         0.125 + inner, 0.375 - middle, 0.625 + outer],
        atol=1e-15,
    )


@pytest.mark.parametrize("kappa,family", [(0.0, "linear"), (0.6, "linear"), (0.5, "tan")])
def test_matrix_equals_transpose_exactly(kappa, family):
    if family == "linear":
        params = linear_params(kappa)
        grid = Grid(half_width=6.0, n=37)
    else:
        params = PhysicalParams(
            mass=1.0, kappa=kappa, superpotential=Superpotential.tangent(5.0)
        )
        grid = default_grid(params, n=37)
    dense = oracle.to_dense(assemble_dirac_matrix(params, grid))
    assert np.array_equal(dense, dense.T)


def test_assembly_outside_table_domain_raises():
    xs = np.linspace(-12.0, 12.0, 2401)
    tab = Superpotential.tabulated(xs, xs, np.ones_like(xs))
    params = PhysicalParams(mass=1.0, kappa=0.0, superpotential=tab)
    with pytest.raises(DomainError):
        assemble_dirac_matrix(params, Grid(half_width=13.0, n=50))


def _count_w_samples(monkeypatch):
    """A list that grows by the size of each W sampling the lattice makes."""
    sampled = []
    real = dirac_solver.eval_superpotential

    def spy(sp, x):
        sampled.append(np.size(x))
        return real(sp, x)

    monkeypatch.setattr(dirac_solver, "eval_superpotential", spy)
    dirac_solver._chain.cache_clear()
    return sampled


def test_couplings_and_masses_on_one_grid_sample_w_once(monkeypatch):
    # neither kappa nor m enters W at the rows or the bonds: four matrices
    # on one grid take W from its two calls, rows then bonds
    sampled = _count_w_samples(monkeypatch)
    grid = Grid(half_width=8.0, n=101)
    sp = Superpotential.linear(1.0)
    mats = [assemble_dirac_matrix(PhysicalParams(mass=m, kappa=k, superpotential=sp), grid)
            for k in (0.3, -0.7) for m in (1.0, 0.0)]
    assert sampled == [2 * grid.n + 1, 2 * grid.n]
    # the bonds are the cache's read-only array, shared; the diagonal is
    # each matrix's own
    w, e = dirac_solver._chain(sp, grid)
    assert not w.flags.writeable and not e.flags.writeable
    with pytest.raises(ValueError):
        e[0] = 0.0
    assert all(t.e is e for t in mats)
    assert all(t.d.flags.writeable for t in mats)
    assert len({id(t.d) for t in mats}) == len(mats)
    # bit for bit the matrices of a fresh assembly
    dirac_solver._chain.cache_clear()
    for (k, m), t in zip([(k, m) for k in (0.3, -0.7) for m in (1.0, 0.0)], mats):
        fresh = assemble_dirac_matrix(PhysicalParams(mass=m, kappa=k, superpotential=sp), grid)
        assert fresh.e is not t.e
        assert fresh.d.tobytes() == t.d.tobytes() and fresh.e.tobytes() == t.e.tobytes()
    assert len(sampled) == 4
    dirac_solver._chain.cache_clear()


def test_an_equal_table_shares_its_chain(monkeypatch):
    # a table keys by its samples: one made anew from equal samples hits
    # the cache, and one with other samples misses it
    sampled = _count_w_samples(monkeypatch)
    xs = np.linspace(-12.0, 12.0, 241)
    grid = Grid(half_width=12.0, n=100)

    def assemble(w, wp):
        tab = Superpotential.tabulated(xs.copy(), w, wp)
        return assemble_dirac_matrix(PhysicalParams(mass=1.0, kappa=0.4, superpotential=tab),
                                     grid)

    first = assemble(xs.copy(), np.ones_like(xs))
    assert assemble(xs.copy(), np.ones_like(xs)).e is first.e
    assert len(sampled) == 2
    assert assemble(2.0 * xs, np.full_like(xs, 2.0)).e is not first.e
    assert len(sampled) == 4
    dirac_solver._chain.cache_clear()


def test_a_refused_tan_box_raises_on_every_call():
    # a refusal is not cached: the box rule is checked again on each call
    params = tan_params(0.5)
    dirac_solver._chain.cache_clear()
    for grid in (Grid(half_width=1.0, n=50), Grid(half_width=2.0, n=50)):
        for _ in range(3):
            with pytest.raises(DomainError):
                assemble_dirac_matrix(params, grid)
    assert dirac_solver._chain.cache_info().currsize == 0


def test_free_particle_box_dispersion():
    # W = 0, U = 0: with D the N x (N+1) forward difference from upper to
    # lower sites, the chain reads D u = (E + m) l and -D^T l = (E - m) u, so
    # D D^T l = (E^2 - m^2) l. D D^T is the Dirichlet Laplacian of N points,
    # eigenvalues s_j^2 with s_j = (2/h) sin(j pi / (2(N+1))), j = 1..N: the
    # levels are +-sqrt(m^2 + s_j^2), plus E = m from the null vector of D
    params = PhysicalParams(mass=1.0, kappa=0.0, superpotential=Superpotential.linear(0.0))
    grid = Grid(half_width=20.0, n=4000)
    records = [r for r, _ in dirac_spectrum(params, grid, 4)]
    s = [2.0 / grid.h * math.sin(j * math.pi / (2 * (grid.n + 1))) for j in (1, 2, 3)]
    box = [math.sqrt(1.0 + sj * sj) for sj in s]
    # each level past the unpaired one carries two labels: compare energies
    assert sorted({r.E for r in records if r.branch > 0}) == pytest.approx(
        [1.0] + box, rel=1e-12)
    neg = sorted({r.E for r in records if r.branch < 0}, reverse=True)
    assert neg[:3] == pytest.approx([-b for b in box], rel=1e-12)


# ---------------------------------------------------------------- spectra


def test_spectrum_matches_closed_form_at_zero_coupling(converged_k0):
    pos = sorted({r.E for r in converged_k0.records if r.branch > 0})
    for val, exact in zip(pos, [1.0, math.sqrt(3), math.sqrt(5), math.sqrt(7)]):
        assert val == pytest.approx(exact, rel=1e-5)


def test_spectrum_shows_degenerate_pairs(converged_k06):
    records = converged_k06.records
    pos = positive_levels(records)[:5]
    expected = [0.8, 1.289961, 1.289961, 1.639512, 1.639512]
    np.testing.assert_allclose(pos, expected, rtol=1e-5)
    # paired entries are one lattice eigenvalue seen under two labels
    assert pos[1] == pos[2] and pos[3] == pos[4]
    labels = {(r.sigma, r.n) for r in records if r.branch > 0 and r.n_sigma == 1}
    assert labels == {(-1, 1), (1, 0)}


def test_spectrum_record_bookkeeping():
    params = linear_params(0.6)
    pairs = dirac_spectrum(params, Grid(half_width=20.0, n=600), 2)
    records = [r for r, _ in pairs]
    assert all(r.route == "dirac" for r in records)
    assert all(not r.converged and r.err_est is None for r in records)
    assert [abs(r.E) for r in records] == sorted(abs(r.E) for r in records)
    # aliased label views share the identical state object
    by_E = {}
    for rec, st in pairs:
        by_E.setdefault(rec.E, set()).add(id(st))
    assert all(len(ids) == 1 for ids in by_E.values())


@pytest.mark.parametrize("params", [linear_params(0.4), tan_params(0.5)], ids=["linear", "tan"])
def test_converged_records_carry_their_base_grid_states(params):
    # each record's state is the base grid's state of its level, the one
    # dirac_spectrum gives on that grid, and the label views of one level
    # share one state object. The run takes them from inverse iteration at
    # the ladder's prediction of the base grid's levels and dirac_spectrum
    # from inverse iteration at a bisection, so they agree to rounding, not
    # bit for bit
    grid = default_grid(params, n=500)
    res = converge_box_full(params, 3, grid=grid)
    base = {(r.branch, r.sigma, r.n): st for r, st in dirac_spectrum(params, grid, 3)}
    shared = {}
    for rec, st in zip(res.records, res.states):
        ref = base[(rec.branch, rec.sigma, rec.n)]
        assert abs(st.E - ref.E) <= 1e-13 * max(1.0, abs(ref.E))
        got, want = np.concatenate([st.psi1, st.psi2]), np.concatenate([ref.psi1, ref.psi2])
        assert _state_gap(got, want) <= 1e-10
        shared.setdefault((rec.branch, rec.n_sigma), set()).add(id(st))
    assert res.rounds >= 1 and len(res.records) > len(shared)
    assert all(len(ids) == 1 for ids in shared.values())


def test_spectrum_argument_validation():
    params = linear_params(0.0)
    grid = Grid(half_width=20.0, n=100)
    with pytest.raises(ValueError):
        dirac_spectrum(params, grid, 0)


def test_converge_refuses_a_tolerance_outside_zero_to_inf():
    # tol = inf flagged every subcritical level converged after one round,
    # however far it moved
    for tol in (math.inf, math.nan, 0.0, -1e-6):
        with pytest.raises(ValueError, match="tol"):
            converge_box_full(linear_params(0.3), levels=2, tol=tol, grid=Grid(20.0, 200))


def test_residual_of_returned_eigenpairs():
    # each returned state is the lattice eigenvector at its E, upper
    # component averaged onto the grid points: undo that to check the residual
    params = linear_params(0.6)
    grid = Grid(half_width=20.0, n=1200)
    t = assemble_dirac_matrix(params, grid)
    for rec, st in dirac_spectrum(params, grid, 3):
        z = dirac_solver.tridiagonal_eigenvectors(t, np.array([rec.E]))[:, 0]
        assert np.linalg.norm(t.matvec(z) - rec.E * z) <= 1e-8 * oracle.norm_bound(t)
        psi1 = 0.5 * (z[0:-1:2] + z[2::2])
        psi2 = -1j * z[1::2]
        scale = np.linalg.norm(st.psi1) / np.linalg.norm(psi1)
        scale *= np.sign(np.vdot(psi1, st.psi1).real)
        np.testing.assert_allclose(st.psi1, scale * psi1, atol=1e-10)
        np.testing.assert_allclose(st.psi2, scale * psi2, atol=1e-10)


def test_discretization_order_at_least_first():
    params = linear_params(0.6)
    exact = math.sqrt(0.64 * (1.6 + 1.0))
    errs = []
    for n in (800, 1601):
        pairs = dirac_spectrum(params, Grid(half_width=20.0, n=n), 2)
        val = min(r.E for r, _ in pairs if r.branch > 0 and r.n_sigma == 1)
        errs.append(abs(val - exact))
    assert math.log2(errs[0] / errs[1]) >= 0.9


@pytest.mark.parametrize(
    "params,n", [(linear_params(0.6), 500), (linear_params(-0.6), 500), (tan_params(0.5), 250)]
)
def test_discretization_order_is_second(params, n):
    # single grid, no Richardson: each halving of h divides the error by 4
    exact = analytic.level_energies(params, 1)[0]
    errs = []
    for _ in range(3):
        pairs = dirac_spectrum(params, default_grid(params, n=n), 2)
        val = min(r.E for r, _ in pairs if r.branch > 0 and r.n_sigma == 1)
        errs.append(abs(val - exact))
        n = 2 * n + 1
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine == pytest.approx(4.0, abs=0.05)


@pytest.mark.parametrize(
    "params,n", [(linear_params(0.0), 2000), (linear_params(0.6), 2000),
                 (linear_params(-0.6), 2000), (tan_params(0.5), 500),
                 (tan_params(-0.5), 500), (tan_params(0.59988), 1000),
                 (tan_params(0.5698), 500)]
)
def test_one_unpaired_level_at_plus_e0(params, n):
    # below |E1| the lattice holds +E0 and nothing else: no -E0 partner, no
    # edge or wall state
    e0 = analytic.level_energies(params, 0)[0]
    e1 = analytic.level_energies(params, 1)[0]
    grid = default_grid(params, n=n)
    assert eigenvalue_count_in_window(params, grid, -0.99 * e1, 0.99 * e1) == 1
    assert eigenvalue_count_in_window(params, grid, 0.99 * e0, 1.01 * e0) == 1


def test_massless_zero_mode_on_positive_branch():
    # m = 0: the ground level sits at E = 0 and comes out as -8.9e-16 on this
    # grid; it belongs to the positive branch, which holds n_sigma 0, and a
    # split at exactly E = 0 would shift every ordinal label of both branches
    params = PhysicalParams(mass=0.0, kappa=0.4, superpotential=Superpotential.linear(1.0))
    res = converge_box_full(params, levels=4, grid=default_grid(params, n=2000))
    assert all(r.converged for r in res.records)
    pos = [r for r in res.records if r.branch > 0]
    assert sorted({r.n_sigma for r in pos}) == [0, 1, 2, 3]
    assert [(r.sigma, r.n, r.E) for r in pos if r.n_sigma == 0] == [(-1, 0, 0.0)]
    for r in res.records:
        law = analytic.level_energies(params, r.n_sigma)[0 if r.branch > 0 else 1]
        assert abs(r.E - law) <= 1e-5 * max(abs(law), 1.0)


def test_tan_wall_bonds_keep_their_sign():
    # W ~ alpha0 / (pi/2 - |x|) near the walls, where a midpoint bond W/2 - 1/h
    # would change sign; the bonds W/2 -+ sqrt(1/h^2 + W^2/4) cannot
    params = tan_params(0.5698)
    t = assemble_dirac_matrix(params, default_grid(params, n=500))
    assert np.all(t.e[0::2] < 0.0) and np.all(t.e[1::2] > 0.0)


def test_no_doubling_eigenvalue_count():
    # kappa = 0, m = 1: +1 unpaired and +-sqrt(1 + 2n), n >= 1, so the window
    # holds 1, sqrt3, sqrt5, -sqrt3, -sqrt5; a doubler would repeat them
    params = linear_params(0.0)
    edge = math.sqrt(5) + 0.1
    count = eigenvalue_count_in_window(params, default_grid(params), -edge, edge)
    assert count == 5


# ---------------------------------------------------------------- converge


def test_converged_levels_match_closed_form(converged_k06):
    res = converged_k06
    assert all(r.converged for r in res.records)
    assert res.rounds >= 1
    exact = {
        (r.branch, r.n_sigma): r.E
        for r in analytic.full_spectrum(linear_params(0.6), max_n=9)
    }
    for rec in res.records:
        assert rec.E == pytest.approx(exact[(rec.branch, rec.n_sigma)], rel=1e-5)


def test_plus_minus_pairing_after_convergence(converged_k06):
    # each branch converges independently to the requested tolerance, so the
    # pair deviation is bounded by a small multiple of tol, not by round-off
    by_key = {}
    for r in converged_k06.records:
        by_key.setdefault((r.branch, r.n_sigma), r.E)
    mirrored = [
        (e, by_key[(-1, k)]) for (b, k), e in by_key.items() if b == 1 and (-1, k) in by_key
    ]
    assert len(mirrored) >= 6
    assert max(abs(ep + en) for ep, en in mirrored) <= 5e-6


def test_cached_result_cannot_be_emptied_by_a_caller():
    params = tan_params(0.3)
    grid = default_grid(params, n=300)
    res = converge_box_full(params, levels=2, grid=grid)
    assert isinstance(res.records, tuple) and isinstance(res.states, tuple)
    assert len(res.records) == 5
    with pytest.raises(AttributeError):
        res.records.clear()
    assert len(converge_box_full(params, levels=2, grid=grid).records) == 5


def test_equivalent_calls_share_one_cached_result():
    # the cache key is the call after its defaults are resolved, so spelling
    # an argument by keyword or passing its default value is the same call
    params = tan_params(0.3)
    grid = default_grid(params, n=300)
    first = converge_box_full(params, 2, grid=grid)
    assert converge_box_full(params, levels=2, tol=1e-6, grid=grid) is first


@pytest.mark.parametrize(
    "kappa,n,count,rounds,solves,bisected_n",
    [(0.3, 300, 2, 1, 4, 74), (0.3, 299, 2, 1, 3, 74), (1.4, 1000, 1, 0, 1, 1000)],
    ids=["tan", "base-grid-on-the-ladder", "supercritical"],
)
def test_each_grid_is_solved_once_per_convergence_run(monkeypatch, kappa, n, count, rounds,
                                                      solves, bisected_n):
    """The ladder starts at a quarter of the base grid (N0 + 1 = round((N +
    1)/4), 74 here) and refines in place, so a round's coarse grid is the
    previous round's fine one: 2 + rounds grids, and then the base grid,
    unless it is one of them (n 299 is the third). Each grid's matrix is
    assembled once and certified once, with no fallback here: only the
    ladder's first grid takes the coarse bisection, and the others their
    predictions. The states are the base grid's certified vectors, at its
    own values, so no separate dstein call makes them; a base grid off the
    ladder is solved when they are first read, so they are read here. A
    supercritical run solves the base grid alone. The bisected grid takes
    two Sturm calls, one that splits its spectrum at E = 0 for the bisection
    and the certificate; a predicted grid takes the certificate alone, which
    splits its spectrum as well."""
    certified, bisected, assembled, received, counted = [], [], [], [], []
    real_eigs = dirac_solver._indexed_eigenvalues
    real_predicted = dirac_solver._predicted_eigenvalues
    real_assemble = dirac_solver.assemble_dirac_matrix
    real_vecs = dirac_solver.tridiagonal_eigenvectors

    def eigs(t, ks, abstol=None):
        bisected.append((t.n, abstol))
        return real_eigs(t, ks, abstol=abstol)

    def predicted(t, ks, guess, split=None):
        found = real_predicted(t, ks, guess, split)
        certified.append((t.n, None if found is None else found[0].copy()))
        return found

    def assemble(params, grid):
        assembled.append(grid.n)
        return real_assemble(params, grid)

    def vecs(t, lams):
        received.append(t.n)
        return real_vecs(t, lams)

    dirac_solver._converge_cached.cache_clear()
    monkeypatch.setattr(dirac_solver, "_indexed_eigenvalues", eigs)
    monkeypatch.setattr(dirac_solver, "_predicted_eigenvalues", predicted)
    monkeypatch.setattr(dirac_solver, "assemble_dirac_matrix", assemble)
    monkeypatch.setattr(dirac_solver, "tridiagonal_eigenvectors", vecs)
    for module in (linalg, dirac_solver):
        def sturm(t, lams, _real=module.sturm_count):
            counted.append(t.n)
            return _real(t, lams)

        monkeypatch.setattr(module, "sturm_count", sturm)
    params = tan_params(kappa)
    res = converge_box_full(params, levels=count, grid=default_grid(params, n=n))
    states = res.states
    assert res.rounds == rounds
    dims = [dim for dim, _ in certified]
    assert len(dims) == len(set(dims)) == solves == len(assembled)
    assert all(vals is not None for _, vals in certified)
    assert bisected == [(2 * bisected_n + 1, dirac_solver._COARSE_TOL)]
    assert received == []
    assert {dim: counted.count(dim) for dim in dims} == {
        dim: 2 if dim == 2 * bisected_n + 1 else 1 for dim in dims}
    base_vals = dict(certified)[2 * n + 1]
    assert sorted({st.E for st in states}) == sorted(base_vals.tolist())


def _base_grid_solves(monkeypatch, base):
    """The guesses of the _lattice_eigenvalues calls on `base`, as they are
    made."""
    guesses = []
    real = dirac_solver._lattice_eigenvalues

    def spy(params, grid, levels, guess=None):
        if grid == base:
            guesses.append(guess)
        return real(params, grid, levels, guess)

    monkeypatch.setattr(dirac_solver, "_lattice_eigenvalues", spy)
    return guesses


def _same_states(got, want):
    return len(got) == len(want) and all(
        a.E == b.E and np.array_equal(a.psi1, b.psi1) and np.array_equal(a.psi2, b.psi2)
        for a, b in zip(got, want))


# grid.n 1000 and 300 are no rung of their ladders (249, 499, 999, 1999 and
# 74, 149, 299, 599); at kappa 0.99 the box grows 20 -> 30 first
@pytest.mark.parametrize(
    "params,n,count,predicted",
    [(linear_params(0.4), 1000, 3, True), (tan_params(0.3), 300, 2, True),
     (linear_params(0.99), 800, 3, False)],
    ids=["linear", "tan", "grown-box"],
)
def test_the_base_grid_is_solved_when_its_states_are_read(monkeypatch, params, n, count,
                                                          predicted):
    grid = default_grid(params, n=n)
    dirac_solver._converge_cached.cache_clear()
    guesses = _base_grid_solves(monkeypatch, grid)
    res = converge_box_full(params, count, grid=grid)
    # the records need no solve of the base grid
    assert res.rounds >= 1 and guesses == []
    states = res.states
    assert res.states is states
    # one solve for two reads, at the ladder's prediction unless the box grew
    assert len(guesses) == 1 and (guesses[0] is not None) == predicted
    assert isinstance(states, tuple) and len(states) == len(res.records)
    assert all(not st.psi1.flags.writeable and not st.psi2.flags.writeable for st in states)
    with pytest.raises(AttributeError):
        res.states = ()
    # a result read after its cache entry was evicted, and one from the
    # refilled entry, hold the same records and bit-identical states
    dirac_solver._converge_cached.cache_clear()
    evicted = converge_box_full(params, count, grid=grid)
    dirac_solver._converge_cached.cache_clear()
    refilled = converge_box_full(params, count, grid=grid)
    assert evicted is not res and refilled is not evicted
    for other in (evicted, refilled):
        assert other.records == res.records
        assert _same_states(other.states, states)
    dirac_solver._converge_cached.cache_clear()


def test_a_box_that_grows_past_the_cap_holds_the_base_grid_states(monkeypatch):
    # kappa 0.99 on L = 5 grows the ladder's first box 5 -> 7.5 -> 11.2 ->
    # 16.8, and the next one's h/2 grid, 1003 rows, would pass a cap of 1000:
    # the run reports the base grid's values, solved once, with its states
    monkeypatch.setattr(dirac_solver, "DIM_CAP", 1000)
    grid = Grid(half_width=5.0, n=200)
    dirac_solver._converge_cached.cache_clear()
    guesses = _base_grid_solves(monkeypatch, grid)
    res = converge_box_full(linear_params(0.99), 3, grid=grid)
    # filled by the run, so reading them solves nothing more
    assert "states" in vars(res)
    assert res.rounds == 0 and len(res.states) == len(res.records)
    assert guesses == [None]
    dirac_solver._converge_cached.cache_clear()


def test_states_of_levels_the_base_grid_cannot_hold_are_refused():
    # 12 levels on 8 points: the ladder's grown first grid holds 11 negative
    # and 12 positive levels, the 8-point grid 8 and 9
    dirac_solver._converge_cached.cache_clear()
    res = converge_box_full(linear_params(0.4), 12, grid=Grid(half_width=20.0, n=8))
    assert max(r.n_sigma for r in res.records if r.branch > 0) == 11
    with pytest.raises(ConvergenceError, match="holds 8 negative and 9 positive levels"):
        res.states
    dirac_solver._converge_cached.cache_clear()


# linear kappa -0.09, -0.03, +0.01 once lost levels to a moving edge state,
# linear 0.3 at grid.n 1000 to first-order discretization error between
# rounds, and tan kappa near alpha0 sqrt(1 - kappa^2) = 4 to wall states
@pytest.mark.parametrize(
    "params,n,count",
    [(linear_params(-0.09), 2000, 2), (linear_params(-0.03), 2000, 2),
     (linear_params(0.01), 2000, 2), (linear_params(0.3), 1000, 4),
     (tan_params(0.59988), 1000, 3), (tan_params(0.5698), 500, 3)],
)
def test_former_problem_couplings_converge_fully(params, n, count):
    res = converge_box_full(params, levels=count, grid=default_grid(params, n=n))
    # the ladder starts at a quarter of the base grid; linear 0.3's fourth
    # level needs a second round from Grid(20, 249), h 0.16
    assert res.rounds == (2 if count == 4 else 1)
    assert all(r.converged for r in res.records)
    labels = {(r.branch, r.n_sigma) for r in res.records}
    assert labels == {(1, k) for k in range(count)} | {(-1, k) for k in range(1, count)}
    for r in res.records:
        exact = analytic.level_energies(params, r.n_sigma)[0 if r.branch > 0 else 1]
        assert r.E == pytest.approx(exact, rel=1e-5)


def test_supercritical_levels_all_unbound():
    res = converge_box_full(linear_params(1.2), levels=3, tol=1e-6)
    assert res.records and all(not r.converged for r in res.records)


# linear -1.5135833643521661 once stopped after one round with two records
# flagged converged; tan 1.02 and -1.1 ran rounds up to the dimension cap
@pytest.mark.parametrize(
    "params,n,count",
    [(linear_params(-1.5135833643521661), 2000, 2), (tan_params(1.02), 500, 3),
     (tan_params(-1.1), 1000, 3), (linear_params(1.0), 2000, 2),
     (tan_params(-1.0), 500, 2)],
    ids=["lin-1.5136", "tan+1.02", "tan-1.1", "lin+1.0", "tan-1.0"],
)
def test_supercritical_run_solves_the_base_grid_only(monkeypatch, params, n, count):
    # |kappa| >= 1 binds no level, the rule model.require_subcritical states:
    # the base grid's values are reported, with their states, and nothing
    # is refined
    dims = []
    real_eigs = dirac_solver._indexed_eigenvalues

    def eigs(t, ks, **kwargs):
        dims.append(t.n)
        return real_eigs(t, ks, **kwargs)

    dirac_solver._converge_cached.cache_clear()
    monkeypatch.setattr(dirac_solver, "_indexed_eigenvalues", eigs)
    grid = default_grid(params, n=n)
    res = converge_box_full(params, levels=count, grid=grid)
    # the run holds the base grid's states: reading them solves nothing more
    assert all(st is not None for st in res.states)
    assert res.rounds == 0
    assert dims == [2 * n + 1]
    assert res.records
    assert all(not r.converged and r.err_est is None for r in res.records)


@pytest.mark.parametrize("n", [32, 100, 200])
@pytest.mark.parametrize("kappa", [0.0, 0.4])
def test_linear_flags_only_resolved_levels_on_coarse_grids(kappa, n):
    # each linear round shrinks h by 3/4 as the box widens by half, so the
    # move between rounds sees the h^4 error; a doubled box at fixed h sees
    # box error only and flags levels with errors up to 1.2e-4 relative
    params = linear_params(kappa)
    res = converge_box_full(params, levels=3, grid=Grid(half_width=20.0, n=n))
    for r in res.records:
        if r.converged:
            exact = analytic.level_energies(params, r.n_sigma)[0 if r.branch > 0 else 1]
            assert r.E == pytest.approx(exact, rel=1e-5)


def _exact(params, rec):
    return analytic.level_energies(params, rec.n_sigma)[0 if rec.branch > 0 else 1]


@pytest.mark.parametrize(
    "family,kappa,n",
    [("linear", k, n) for k in (0.2, 0.4, -0.6) for n in (200, 2286, 3000)]
    + [("tan", k, n) for k in (0.3, 0.5, -0.42) for n in (500, 1000)],
)
def test_err_est_bounds_the_true_error(family, kappa, n):
    # the move between rounds is 175/81 (linear, h shrinks by 3/4) or 15 (tan,
    # h halves) times the error left in the reported value: it bounds that
    # error without overstating it a hundredfold, at every grid.n
    params = linear_params(kappa) if family == "linear" else tan_params(kappa)
    res = converge_box_full(params, levels=3, grid=default_grid(params, n=n))
    converged = [r for r in res.records if r.converged]
    assert converged
    for r in converged:
        err = abs(r.E - _exact(params, r))
        assert err <= r.err_est + 1e-13 * max(1.0, abs(r.E))
        assert r.err_est <= 100.0 * err + 1e-12


# near the critical coupling every level converges at grid.n 2000, once the
# box has grown from L = 20 to 30; a box far too small (L = 3) grows to 6.72
# before its ladder runs, where a box held fixed would never converge. At
# tol 1e-7 the error left is below tol/15, inside the 1e-8 bound; at the
# default tol it is held to tol itself
@pytest.mark.parametrize(
    "kappa,grid,tol,bound,rounds",
    [(-0.99, Grid(half_width=20.0, n=2000), 1e-7, 1e-8, 3),
     (-0.99, Grid(half_width=20.0, n=2000), 1e-6, 1e-6, 2),
     (0.6, Grid(half_width=3.0, n=300), 1e-7, 1e-8, 1),
     (0.6, Grid(half_width=3.0, n=300), 1e-6, 1e-6, 1)],
    ids=["near-critical", "near-critical-default-tol", "small-box", "small-box-default-tol"],
)
def test_linear_levels_converge_to_the_closed_form(kappa, grid, tol, bound, rounds):
    params = linear_params(kappa)
    res = converge_box_full(params, levels=3, tol=tol, grid=grid)
    assert res.rounds == rounds
    # n_sigma 0-2: one label view at n_sigma 0, two on each branch above it
    assert len(res.records) == 9 and all(r.converged for r in res.records)
    for r in res.records:
        exact = _exact(params, r)
        assert abs(r.E - exact) <= bound * max(1.0, abs(exact))


def _solved_grids(monkeypatch):
    """The (half-width, rows) of every lattice matrix assembled from here on,
    with an empty result cache."""
    grids = []
    real_assemble = dirac_solver.assemble_dirac_matrix

    def assemble(params, grid):
        grids.append((grid.half_width, 2 * grid.n + 1))
        return real_assemble(params, grid)

    monkeypatch.setattr(dirac_solver, "assemble_dirac_matrix", assemble)
    dirac_solver._converge_cached.cache_clear()
    return grids


# the rows a run solved when every family's base grid was its ladder's first
# grid and the linear box grew every round: 1001 + 2003 + 4007 (tan grid.n
# 500) and 4001 + 8003 + 2 x 12003 (linear grid.n 2000, boxes L 20 and 30)
@pytest.mark.parametrize(
    "params,n,count,former_rows",
    [(tan_params(0.5), 500, 3, 7011), (linear_params(0.5), 2000, 2, 36014)],
    ids=["tan", "linear"],
)
def test_a_run_solves_at_most_two_fifths_of_the_former_rows(monkeypatch, params, n, count,
                                                           former_rows):
    grids = _solved_grids(monkeypatch)
    grid = default_grid(params, n=n)
    res = converge_box_full(params, count, grid=grid)
    dirac_solver._converge_cached.cache_clear()
    assert all(r.converged for r in res.records)
    assert {width for width, _ in grids} == {grid.half_width}
    assert sum(rows for _, rows in grids) <= 0.4 * former_rows


def _false_converged(params, res, tol):
    """The records flagged converged that are further from the closed form
    than tol * max(1, |E|)."""
    return [r for r in res.records
            if r.converged and abs(r.E - _exact(params, r)) > tol * max(1.0, abs(r.E))]


# on grid.n 60 and 32 the ladder starts at h = 2.67 and 5 on L = 20, where
# the outer 5% of the box holds no row but the outermost one at each end;
# there the box must still grow (kappa +-0.99 to 29.3 and 45, 0.999 to
# 66.7 and 100). From h = 5 kappa 0.999's ladder meets the cap before its levels
# settle: every record unconverged, none falsely converged
@pytest.mark.parametrize(
    "kappa,count,n,converges",
    [(0.99, 4, 2000, True), (0.99, 5, 2000, True), (-0.99, 4, 2000, True),
     (-0.99, 5, 2000, True), (0.999, 2, 2000, True), (0.999, 4, 2000, True)]
    + [(k, 5, n, True) for k in (0.99, -0.99) for n in (32, 60)]
    + [(0.999, 4, 60, True), (0.999, 4, 32, False)],
)
def test_near_critical_levels_flagged_converged_are_within_tol(kappa, count, n, converges):
    params = linear_params(kappa)
    res = converge_box_full(params, count, grid=Grid(half_width=20.0, n=n))
    assert all(r.converged == converges for r in res.records)
    assert _false_converged(params, res, 1e-6) == []


def test_a_scan_of_couplings_flags_no_false_level_converged():
    # 39 couplings from -0.95 to 0.95 on coarse grids, where the ladder
    # starts at h = 0.21 (tan) and 1.6 (linear)
    false, unconverged = [], []
    for kappa in np.linspace(-0.95, 0.95, 39):
        for params, grid in ((tan_params(kappa), Grid(half_width=math.pi / 2, n=60)),
                             (linear_params(kappa), Grid(half_width=20.0, n=100))):
            res = converge_box_full(params, 4, grid=grid)
            false += [(kappa, r) for r in _false_converged(params, res, 1e-6)]
            unconverged += [(kappa, r) for r in res.records if not r.converged]
    assert false == []
    # and the scan is no empty claim: the ladder converges every level
    assert unconverged == []


@pytest.mark.parametrize("n", [100, 2000])
def test_a_box_that_holds_its_states_does_not_grow(monkeypatch, n):
    # at kappa 0.4 the ladder's states hold far less than tol of their
    # weight in the outer 5% of L = 20
    grids = _solved_grids(monkeypatch)
    converge_box_full(linear_params(0.4), 5, grid=Grid(half_width=20.0, n=n))
    dirac_solver._converge_cached.cache_clear()
    assert grids and {width for width, _ in grids} == {20.0}


def test_massless_zero_mode_exists_and_converges():
    params = PhysicalParams(mass=0.0, kappa=0.0, superpotential=Superpotential.linear(1.0))
    res = converge_box_full(params, levels=2, tol=1e-6)
    zero = [r for r in res.records if r.E == 0.0]
    assert zero and any(r.converged for r in zero)
    assert all(r.n_sigma == 0 for r in zero)


def test_initial_grid_over_cap_raises():
    # 2N+1 = 65539 is past the dimension cap
    assert 2 * 32769 + 1 > dirac_solver.DIM_CAP
    with pytest.raises(ResourceError):
        converge_box_full(linear_params(0.6), levels=2, grid=Grid(half_width=20.0, n=32769))


def test_cap_blocks_refinement_rounds():
    # no ladder meets a tolerance below double rounding, so the ladder from
    # Grid(20, 2249) refines until its next grid would pass the cap: 4499,
    # 8999, 17999 and 35999 rows make 2 rounds, and 71999 rows would not
    # fit -> honest unconverged output rather than an error
    res = converge_box_full(linear_params(0.6), levels=2, tol=1e-17,
                            grid=Grid(half_width=20.0, n=9000))
    assert res.rounds == 2
    assert all(not r.converged and r.err_est is not None for r in res.records)


def test_a_box_that_must_grow_past_the_cap_converges_nothing(monkeypatch):
    # with the cap at 1000 rows, kappa 0.999's ladder's first grid, h = 0.8,
    # grows 20 -> 30 -> 44.8 -> 67.2 (167 points), where its states clear the
    # walls; the ladder's first pair (167 and 335 points) runs, and the cap
    # stops round 1 (1343 rows): the records are that pair's Richardson
    # values, unconverged, with no round and no estimate. The box that must
    # grow past the cap is
    # test_a_box_that_grows_past_the_cap_holds_the_base_grid_states
    monkeypatch.setattr(dirac_solver, "DIM_CAP", 1000)
    solved = []
    real = dirac_solver._lattice_eigenvalues

    def spy(params, grid, levels, guess=None):
        solved.append((grid.half_width, grid.n))
        return real(params, grid, levels, guess)

    monkeypatch.setattr(dirac_solver, "_lattice_eigenvalues", spy)
    dirac_solver._converge_cached.cache_clear()
    res = converge_box_full(linear_params(0.999), levels=4, grid=Grid(half_width=20.0, n=200))
    dirac_solver._converge_cached.cache_clear()
    assert res.rounds == 0 and res.base_grid == Grid(half_width=20.0, n=200)
    assert res.records and all(not r.converged and r.err_est is None for r in res.records)
    assert [n for _, n in solved] == [49, 74, 111, 167, 335]
    assert [L for L, _ in solved] == pytest.approx([20.0, 30.0, 44.8, 67.2, 67.2])


def test_base_grid_whose_half_spacing_grid_passes_the_cap_raises():
    # 2N+1 = 40001 fits the cap, its h/2 grid (80003 rows) does not, and
    # every value is extrapolated over the (h, h/2) pair
    params = tan_params(0.5)
    with pytest.raises(ResourceError, match="h/2 grid"):
        converge_box_full(params, levels=1, grid=default_grid(params, n=20000))


def _w_equals_x():
    """W = x tabulated on (-12, 12), kappa 0: the oscillator E^2 = 1 + 2 n_sigma."""
    xs = np.linspace(-12.0, 12.0, 2401)
    tab = Superpotential.tabulated(xs, xs, np.ones_like(xs))
    return PhysicalParams(mass=1.0, kappa=0.0, superpotential=tab)


def test_tabulated_family_refines_in_place():
    params = _w_equals_x()
    res = converge_box_full(params, levels=2, tol=1e-6, grid=Grid(half_width=12.0, n=800))
    assert res.base_grid.half_width == 12.0  # finite table domain: box never grows
    assert all(r.converged for r in res.records)
    pos = sorted({r.E for r in res.records if r.E > 0})
    np.testing.assert_allclose(pos, [1.0, math.sqrt(3)], atol=1e-6)
    # tables take the certified families' labels: n_sigma 0, 1 on the
    # positive branch and 1 on the negative one, each n_sigma >= 1 twice
    assert sorted((r.branch, r.sigma, r.n) for r in res.records) == [
        (-1, -1, 1), (-1, 1, 0), (1, -1, 0), (1, -1, 1), (1, 1, 0)]


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["linear", "tan", "table"])
def test_every_route_holds_the_same_levels(monkeypatch, case, levels):
    """`levels` means n_sigma 0..levels-1 on both branches: the lattice
    solves `levels` positive and `levels` - 1 negative eigenvalues on every
    grid, and holds the levels the closed form enumerates (a table, which
    has none, the same set). At levels 1 the negative branch is empty."""
    split = []
    real_predicted = dirac_solver._predicted_eigenvalues

    def predicted(t, ks, guess, at=None):
        # no level of these lattices lies near E = 0
        found = real_predicted(t, ks, guess, at)
        split.append((int(np.sum(found[0] < 0.0)), int(np.sum(found[0] > 0.0))))
        return found

    monkeypatch.setattr(dirac_solver, "_predicted_eigenvalues", predicted)
    dirac_solver._converge_cached.cache_clear()
    if case == "table":
        params, grid = _w_equals_x(), Grid(half_width=12.0, n=800)
        want = {(1, 0)} | {(b, k) for b in (1, -1) for k in range(1, levels)}
    else:
        params = linear_params(0.4) if case == "linear" else tan_params(0.5)
        grid = default_grid(params, n=300)
        want = {(r.branch, r.n_sigma) for r in analytic.full_spectrum(params, levels - 1)}
    res = converge_box_full(params, levels, grid=grid)
    assert {(r.branch, r.n_sigma) for r in res.records} == want
    assert split and set(split) == {(levels - 1, levels)}


def test_tabulated_runs_share_the_cache():
    # a table compares by its samples: an equal table made anew is the same
    # call, and a one-sample change is another
    xs = np.linspace(-12.0, 12.0, 2401)

    def params(wp):
        tab = Superpotential.tabulated(xs, xs, wp)
        return PhysicalParams(mass=1.0, kappa=0.0, superpotential=tab)

    grid = Grid(half_width=12.0, n=400)
    dirac_solver._converge_cached.cache_clear()
    first = converge_box_full(params(np.ones_like(xs)), levels=2, grid=grid)
    assert converge_box_full(params(np.ones_like(xs)), levels=2, grid=grid) is first
    changed = np.ones_like(xs)
    changed[0] = 1.01
    assert converge_box_full(params(changed), levels=2, grid=grid) is not first
    assert dirac_solver._converge_cached.cache_info().misses == 2


def test_one_sign_superpotential_is_refused():
    # W = x + 8 stays positive on (-6, 6): the unpaired level sits against
    # the left wall (E = m), a state of the box that refinement used to flag
    # converged; the labels assume W(-L) < 0 < W(L), so the box is refused
    xs = np.linspace(-6.0, 6.0, 1201)
    tab = Superpotential.tabulated(xs, xs + 8.0, np.ones_like(xs))
    params = PhysicalParams(mass=1.0, kappa=0.0, superpotential=tab)
    with pytest.raises(DomainError, match="negative to positive"):
        converge_box_full(params, levels=3, grid=Grid(half_width=6.0, n=600))
    # a falling linear W breaks the same assumption
    falling = PhysicalParams(mass=1.0, kappa=0.3, superpotential=Superpotential.linear(-1.0))
    with pytest.raises(DomainError):
        converge_box_full(falling, levels=2, grid=Grid(half_width=8.0, n=400))


# ---------------------------------------------------------------- one thread


def test_importing_the_package_leaves_the_pool_unimported():
    # the lattice solves its grids one after another on the calling thread,
    # so importing the package loads no thread-pool machinery
    code = "import sys, diracosc\nassert 'concurrent.futures' not in sys.modules\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(dirac_solver.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize(
    "params,n,count",
    [(linear_params(0.4), 500, 2), (tan_params(0.3), 300, 3), (linear_params(1.2), 500, 2)],
    ids=["linear", "tan", "supercritical"],
)
def test_a_convergence_run_starts_no_thread(params, n, count):
    # every grid is solved on the calling thread
    dirac_solver._converge_cached.cache_clear()
    before = set(threading.enumerate())
    converge_box_full(params, count, grid=default_grid(params, n=n))
    assert set(threading.enumerate()) == before


def _by_label(res):
    """A convergence run's records and states, as one vector, keyed by
    (branch, sigma, n): row order at kappa 0 can swap levels tied in |E|."""
    return {
        (r.branch, r.sigma, r.n): (r, np.concatenate([st.psi1, st.psi2]))
        for r, st in zip(res.records, res.states)
    }


def _state_gap(got, want):
    """Relative L2 distance of two states up to sign: at kappa 0 dstein's
    largest-component-positive rule can flip a symmetric state."""
    return min(np.linalg.norm(got - want), np.linalg.norm(got + want)) / np.linalg.norm(want)


def _table_params(kappa):
    xs = np.linspace(-12.0, 12.0, 2401)
    tab = Superpotential.tabulated(xs, xs, np.ones_like(xs))
    return PhysicalParams(mass=1.0, kappa=kappa, superpotential=tab)


@pytest.mark.parametrize(
    "params,grid,count",
    [(linear_params(0.4), Grid(half_width=20.0, n=1000), 2),
     (linear_params(0.0), Grid(half_width=20.0, n=600), 3),
     (tan_params(0.55), None, 3),
     (PhysicalParams(mass=0.0, kappa=0.0, superpotential=Superpotential.linear(1.0)),
      Grid(half_width=20.0, n=1000), 2),
     (_table_params(0.4), Grid(half_width=12.0, n=400), 2),
     (linear_params(0.6), Grid(half_width=3.0, n=300), 3)],
    ids=["linear", "linear-k0", "tan", "massless", "table", "small-box"],
)
def test_predicted_levels_match_bisection(monkeypatch, params, grid, count):
    # every grid takes its levels and the base grid its states from the
    # predicted kernel; with it refusing every guess each grid is bisected to
    # full accuracy and the states come from dstein at those values, and the
    # run reports the same labels, flags and rounds, with energies and error
    # estimates within 1e-12 and states within 1e-9
    grid = grid or default_grid(params, n=500)
    dirac_solver._converge_cached.cache_clear()
    predicted = converge_box_full(params, count, grid=grid)
    dirac_solver._converge_cached.cache_clear()
    monkeypatch.setattr(dirac_solver, "_predicted_eigenvalues",
                        lambda t, ks, guess, split=None: None)
    bisected = converge_box_full(params, count, grid=grid)
    dirac_solver._converge_cached.cache_clear()
    assert predicted.rounds == bisected.rounds >= 1
    got, want = _by_label(predicted), _by_label(bisected)
    assert got.keys() == want.keys()
    for label, (rec, state) in want.items():
        other, other_state = got[label]
        assert other.converged == rec.converged
        assert _state_gap(other_state, state) <= 1e-9, label
        scale = max(1.0, abs(rec.E))
        assert abs(other.E - rec.E) <= 1e-12 * scale
        assert abs(other.err_est - rec.err_est) <= 1e-12 * scale


# a base grid's levels and states through the coarse bisection, against the
# full index search and dstein at its values: (params, grid, count, state
# bound). Supercritical levels crowd (spacing 0.01-0.05), and inverse
# iteration from shifts up to 5e-5 off leaves some 1e-8 of their neighbours
# in a state; the subcritical ones keep under 1e-9
COARSE_CASES = {
    "linear": (linear_params(0.4), Grid(half_width=20.0, n=2000), 5, 1e-9),
    "tan": (tan_params(-0.3), Grid(half_width=math.pi / 2, n=1000), 6, 1e-9),
    "massless": (PhysicalParams(mass=0.0, kappa=0.0, superpotential=Superpotential.linear(1.0)),
                 Grid(half_width=20.0, n=1000), 4, 1e-9),
    "table": (_table_params(0.4), Grid(half_width=12.0, n=400), 3, 1e-9),
    "super-linear": (linear_params(1.2), Grid(half_width=20.0, n=2000), 3, 1e-7),
    "super-tan": (tan_params(1.02), Grid(half_width=math.pi / 2, n=500), 3, 1e-7),
}


@pytest.mark.parametrize("case", list(COARSE_CASES))
def test_coarse_base_grid_matches_the_full_index_search(monkeypatch, caplog, case):
    params, grid, count, state_bound = COARSE_CASES[case]
    # the first call certifies its coarse bisection: no fallback is logged
    with caplog.at_level(logging.DEBUG, logger="diracosc.dirac_solver"):
        e_neg, e_pos, vecs = dirac_solver._lattice_eigenvalues(params, grid, count)
    assert caplog.records == []
    monkeypatch.setattr(dirac_solver, "_predicted_eigenvalues",
                        lambda t, ks, guess, split=None: None)
    with caplog.at_level(logging.DEBUG, logger="diracosc.dirac_solver"):
        ref_neg, ref_pos, ref_vecs = dirac_solver._lattice_eigenvalues(params, grid, count)
    t = assemble_dirac_matrix(params, grid)
    assert [r.getMessage() for r in caplog.records] == [
        f"lattice grid of {t.n} rows: the bisection to {dirac_solver._COARSE_TOL:g} "
        "missed; taking the full index search"]
    # the vectors come in ascending order of E
    got = np.concatenate([e_neg[::-1], e_pos])
    want = np.concatenate([ref_neg[::-1], ref_pos])
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    # the full index search's vectors are dstein's at its values
    assert np.array_equal(ref_vecs, dirac_solver.tridiagonal_eigenvectors(t, want))
    for j in range(want.size):
        assert _state_gap(vecs[:, j], ref_vecs[:, j]) <= state_bound, j


@pytest.mark.parametrize(
    "params,grid",
    [(linear_params(0.4), Grid(half_width=20.0, n=2000)),
     (tan_params(0.5), Grid(half_width=math.pi / 2, n=1000))],
    ids=["linear", "tan"],
)
def test_no_lattice_grid_bisects_to_full_accuracy(monkeypatch, params, grid):
    # the base grid is bisected to _COARSE_TOL and certified there; every
    # later grid certifies its prediction, so no dstebz call asks for full
    # accuracy
    tolerances = []
    call = linalg._call

    def spy(name, *args):
        if name == "dstebz":
            tolerances.append(float(args[7][0]))
        return call(name, *args)

    dirac_solver._converge_cached.cache_clear()
    monkeypatch.setattr(linalg, "_call", spy)
    res = converge_box_full(params, 3, grid=grid)
    dirac_solver._converge_cached.cache_clear()
    assert res.rounds >= 1
    assert tolerances == [dirac_solver._COARSE_TOL]


def test_fallbacks_are_logged(caplog, monkeypatch):
    # from Grid(20, 32) the ladder starts at h = 5, where the levels move by
    # more than a prediction can bridge, so those grids fall back to the
    # coarse bisection and say so; the states are read, so that the base
    # grid is solved too
    dirac_solver._converge_cached.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="diracosc.dirac_solver"):
        assert converge_box_full(linear_params(0.4), 3, grid=Grid(half_width=20.0, n=32)).states
    misses = [r.getMessage() for r in caplog.records]
    assert misses and all(r.levelno == logging.DEBUG for r in caplog.records)
    assert all(m.startswith("lattice grid of ") and "the prediction missed" in m
               for m in misses)
    # at kappa 0.999 the box grows from L = 20 to 67.5, and no grid takes a
    # prediction from another box: each grown box and, once the states are
    # read, the base grid are bisected, and every prediction on the ladder
    # holds
    bisected = []
    real_eigs = dirac_solver._indexed_eigenvalues

    def eigs(t, ks, abstol=None):
        bisected.append(t.n)
        return real_eigs(t, ks, abstol=abstol)

    monkeypatch.setattr(dirac_solver, "_indexed_eigenvalues", eigs)
    for kappa, boxes in ((0.999, 4), (0.4, 1)):
        caplog.clear()
        bisected.clear()
        with caplog.at_level(logging.DEBUG, logger="diracosc.dirac_solver"):
            assert converge_box_full(linear_params(kappa), 3,
                                     grid=Grid(half_width=20.0, n=2000)).states
        assert caplog.records == []
        # the ladder's first box, each grown one, and the base grid when the
        # box grew (4001 rows); at kappa 0.4 the base grid is predicted
        want = [999, 1499, 2249, 3375][:boxes] + ([4001] if boxes > 1 else [])
        assert bisected == want
    dirac_solver._converge_cached.cache_clear()


def test_a_coarse_bisection_that_misses_is_logged(monkeypatch, caplog):
    monkeypatch.setattr(dirac_solver, "_predicted_eigenvalues",
                        lambda t, ks, guess, split=None: None)
    with caplog.at_level(logging.DEBUG, logger="diracosc.dirac_solver"):
        dirac_solver._lattice_eigenvalues(linear_params(0.4), Grid(half_width=20.0, n=500), 2)
    assert [r.getMessage() for r in caplog.records] == [
        "lattice grid of 1001 rows: the bisection to 0.0001 missed; "
        "taking the full index search"]


# ---------------------------------------------------------------- states


def test_ground_state_width_is_unit_oscillator(converged_k0):
    res = converged_k0
    # the positive-branch ground level, +E0 (the lattice has no -E0 level)
    idx = min(
        (i for i, r in enumerate(res.records) if r.branch > 0),
        key=lambda i: abs(res.records[i].E),
    )
    st = res.states[idx]
    assert res.records[idx].E == pytest.approx(1.0, rel=1e-5)
    # the annihilated lower component carries no weight at zero coupling
    assert float(np.sum(np.abs(st.psi2) ** 2)) * res.base_grid.h < 1e-20
    g = res.base_grid
    _, rms = localization_of(st.psi1, st.psi2, g.x, g.h)
    assert rms == pytest.approx(1.0 / math.sqrt(2.0), rel=0.05)


def test_default_grid_per_family():
    lin = default_grid(linear_params(0.0))
    assert (lin.half_width, lin.n) == (20.0, 4000)
    tan = default_grid(
        PhysicalParams(mass=1.0, kappa=0.0, superpotential=Superpotential.tangent(5.0))
    )
    assert tan.n == 4000
    assert np.all(np.abs(tan.x) < math.pi / 2)
    xs = np.linspace(-12.0, 12.0, 2401)
    tab = Superpotential.tabulated(xs, xs, np.ones_like(xs))
    tabg = default_grid(PhysicalParams(mass=1.0, kappa=0.0, superpotential=tab))
    assert tabg.half_width == 12.0
