"""Reduced route: spin eigensystem, effective superpotential, energy maps,
the energy-dependent operator, level solving, and spinor reconstruction."""

import ast
import math

import numpy as np
import pytest

from diracosc.errors import (
    BracketError,
    ConvergenceError,
    CriticalFieldError,
    DegenerateStateError,
    DomainError,
)
from diracosc import analytic, linalg, susy_reduction
from diracosc.linalg import _indexed_eigenvalues
from diracosc.model import (
    Family,
    Grid,
    PhysicalParams,
    Superpotential,
    level_labels,
    reduced_epsilon,
)
from diracosc.susy_reduction import (
    effective_superpotential,
    reconstruct_spinor,
    schrodinger_operator,
    solve_nonlinear_level,
    spin_eigensystem,
    squared_form_potential,
    susy_state,
)
from diracosc.dirac_solver import converge_box_full, default_grid

from conftest import linear_params, tan_params

SPIN_MATRIX = lambda kappa: np.array(
    [[-1.0, 1j * kappa], [1j * kappa, 1.0]], dtype=complex
)


def lowest(t, k):
    return _indexed_eigenvalues(t, np.arange(1, k + 1, dtype=np.int64))


# ------------------------------------------------------------ spin system


def test_spin_eigensystem_zero_coupling():
    plus, minus = spin_eigensystem(0.0)
    assert (plus.sigma, minus.sigma) == (1, -1)
    assert plus.lam == 1.0 and minus.lam == -1.0
    np.testing.assert_allclose(plus.chi, [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(minus.chi, [1.0, 0.0], atol=1e-15)


def test_spin_eigensystem_worked_values():
    plus, minus = spin_eigensystem(0.6)
    assert plus.lam == pytest.approx(0.8, abs=1e-15)
    assert minus.lam == pytest.approx(-0.8, abs=1e-15)
    np.testing.assert_allclose(plus.chi, [0.31623j, 0.94868], atol=1e-5)
    # dominant component rotated to the positive real axis
    assert plus.chi[1].imag == 0.0 and plus.chi[1].real > 0


@pytest.mark.parametrize("kappa", [0.0, 0.3, 0.6, 0.9, 0.999, -0.8])
def test_spin_eigensystem_invariants(kappa):
    mat = SPIN_MATRIX(kappa)
    for pair in spin_eigensystem(kappa):
        assert pair.lam**2 + kappa**2 == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(pair.chi) == pytest.approx(1.0, abs=1e-12)
        resid = mat @ pair.chi - pair.lam * pair.chi
        assert np.linalg.norm(resid) <= 1e-12


@pytest.mark.parametrize("kappa", [1.0, -1.0, 1.05])
def test_spin_eigensystem_critical(kappa):
    with pytest.raises(CriticalFieldError):
        spin_eigensystem(kappa)


# ------------------------------------------------- effective superpotential


def test_effective_superpotential_identity_at_zero_coupling():
    xs = np.linspace(-5.0, 5.0, 101)
    for sp in (Superpotential.linear(1.0), Superpotential.tangent(5.0)):
        weff = effective_superpotential(sp, 0.0, 7.3)
        xs_in = xs if sp.family.value == "linear" else xs * 0.3
        w = sp.w1 * xs_in if sp.family.value == "linear" else 5.0 * np.tan(xs_in)
        np.testing.assert_allclose(weff.values(xs_in)[0], w, atol=1e-12)


def paper_linear_form(w1, kappa, E):
    """The paper's Weff = slope (x + x0) for W = w1 x: (slope, x0)."""
    return math.sqrt(1.0 - kappa**2) * w1, kappa * E / (w1 * (1.0 - kappa**2))


def paper_tangent_form(alpha0, kappa, E):
    """The paper's Weff = alpha tan x + beta for W = alpha0 tan x: (alpha, beta)."""
    return math.sqrt(1.0 - kappa**2) * alpha0, kappa * E / math.sqrt(1.0 - kappa**2)


def test_effective_superpotential_linear_worked_values():
    weff = effective_superpotential(Superpotential.linear(1.0), 0.6, 1.0)
    slope, x0 = paper_linear_form(1.0, 0.6, 1.0)
    assert slope == pytest.approx(0.8, abs=1e-15)
    assert x0 == pytest.approx(0.9375, abs=1e-15)
    xs = np.linspace(-3.0, 3.0, 7)
    w, wp = weff.values(xs)
    np.testing.assert_allclose(w, 0.8 * xs + 0.75, atol=1e-14)
    np.testing.assert_allclose(w, slope * (xs + x0), atol=1e-14)
    np.testing.assert_allclose(wp, slope, atol=1e-15)


def test_effective_superpotential_tangent_worked_values():
    weff = effective_superpotential(Superpotential.tangent(5.0), 0.5, 2.0)
    alpha, beta = paper_tangent_form(5.0, 0.5, 2.0)
    assert alpha == pytest.approx(4.330127, abs=1e-6)
    assert beta == pytest.approx(1.154701, abs=1e-6)
    xs = np.linspace(-1.4, 1.4, 7)
    w, wp = weff.values(xs)
    np.testing.assert_allclose(w, alpha * np.tan(xs) + beta, atol=1e-12)
    np.testing.assert_allclose(wp, alpha / np.cos(xs) ** 2, rtol=1e-13)


@pytest.mark.parametrize(
    "sp,kappa,E",
    [
        (Superpotential.linear(2.0), 0.6, 1.3),
        (Superpotential.linear(1.0), -0.4, -0.7),
        (Superpotential.tangent(5.0), 0.5, 2.87),
        (Superpotential.tangent(2.5), 0.9, 0.9),
    ],
)
def test_family_form_matches_generic_form(sp, kappa, E):
    weff = effective_superpotential(sp, kappa, E)
    xs = np.linspace(-4.0, 4.0, 401) if sp.family.value == "linear" else np.linspace(
        -1.4, 1.4, 401
    )
    # the paper's family forms are the reference for the generic one
    if sp.family.value == "linear":
        slope, x0 = paper_linear_form(sp.w1, kappa, E)
        family_form = slope * (xs + x0)
    else:
        alpha, beta = paper_tangent_form(sp.alpha0, kappa, E)
        family_form = alpha * np.tan(xs) + beta
    np.testing.assert_allclose(weff.values(xs)[0], family_form, atol=1e-12)


def test_effective_superpotential_critical():
    with pytest.raises(CriticalFieldError):
        effective_superpotential(Superpotential.linear(1.0), 1.0, 1.0)


# ------------------------------------------------------------- energy maps


def test_epsilon_from_E_examples():
    assert reduced_epsilon(1.0, 1.0, 0.0) == 0.0
    assert reduced_epsilon(1.289961, 1.0, 0.6) == pytest.approx(1.6, abs=1e-5)
    assert reduced_epsilon(0.0, 2.0, 0.3) == -4.0
    # the lattice's rule: no reduction exists at |kappa| >= 1
    for kappa in (1.0, -1.0, 1.2):
        assert math.isnan(reduced_epsilon(1.0, 1.0, kappa))


def test_energy_epsilon_round_trip():
    # E = +-sqrt((1-kappa^2)(epsilon + m^2)) inverts model.reduced_epsilon
    rng = np.random.default_rng(7)
    for _ in range(50):
        kappa = float(rng.uniform(-0.95, 0.95))
        m = float(rng.uniform(0.1, 3.0))
        eps = float(rng.uniform(-m * m, 40.0))
        ep = math.sqrt((1.0 - kappa * kappa) * (eps + m * m))
        for e in (ep, -ep):
            back = reduced_epsilon(e, m, kappa)
            assert back == pytest.approx(eps, rel=1e-12, abs=1e-12)


# ------------------------------------------------------- reduced operator


def test_reduced_operator_ladder_both_projections():
    # sigma=-1 keeps the annihilated ground at 0; sigma=+1 starts at 2
    weff = effective_superpotential(Superpotential.linear(1.0), 0.0, 1.0)
    for sigma, expect in ((-1, [0.0, 2.0, 4.0]), (1, [2.0, 4.0, 6.0])):
        vals = []
        for n in (2000, 4001):
            t = schrodinger_operator(weff, sigma, Grid(half_width=20.0, n=n))
            vals.append(lowest(t, 3))
        ext = (4.0 * vals[1] - vals[0]) / 3.0
        np.testing.assert_allclose(ext, expect, atol=1e-5)


def test_partner_spectra_shift_by_one_level():
    weff = effective_superpotential(Superpotential.linear(1.0), 0.6, 1.3)
    ems, eps_ = [], []
    for n in (2000, 4001):
        g = Grid(half_width=20.0, n=n)
        ems.append(lowest(schrodinger_operator(weff, -1, g), 5))
        eps_.append(lowest(schrodinger_operator(weff, 1, g), 4))
    em = (4.0 * ems[1] - ems[0]) / 3.0
    ep = (4.0 * eps_[1] - eps_[0]) / 3.0
    np.testing.assert_allclose(ep, em[1:], atol=1e-6)


@pytest.mark.parametrize(
    "sp,kappa,E,sigma",
    [
        (Superpotential.linear(1.0), 0.0, 1.0, -1),
        (Superpotential.linear(2.0), 0.6, 1.3, 1),
        (Superpotential.tangent(5.0), 0.5, 2.87, -1),
        (Superpotential.tangent(2.5), 0.9, 0.9, 1),
    ],
)
def test_potential_identity_between_forms(sp, kappa, E, sigma):
    # the operator diagonal minus the direct squared-form potential must be
    # the constant kappa^2 E^2/(1-kappa^2) at every node
    grid = (
        Grid(half_width=10.0, n=301)
        if sp.family.value == "linear"
        else Grid(half_width=1.5, n=301)
    )
    weff = effective_superpotential(sp, kappa, E)
    t = schrodinger_operator(weff, sigma, grid)
    direct = squared_form_potential(sp, kappa, E, sigma, grid.x)
    const = t.d - 2.0 / grid.h**2 - direct
    expect = kappa**2 * E**2 / (1.0 - kappa**2)
    np.testing.assert_allclose(const, expect, atol=1e-10 * max(1.0, abs(expect)))


def test_reduced_operator_validation():
    weff = effective_superpotential(Superpotential.tangent(5.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        schrodinger_operator(weff, 0, Grid(half_width=1.0, n=10))
    with pytest.raises(DomainError):
        schrodinger_operator(weff, 1, Grid(half_width=2.0, n=10))


# ------------------------------------------------------------ level solving


def test_solve_level_zero_coupling_exact():
    plus, minus = solve_nonlinear_level(linear_params(0.0), -1, 1)
    assert plus.E == pytest.approx(math.sqrt(3.0), rel=1e-6)
    assert minus.E == pytest.approx(-math.sqrt(3.0), rel=1e-6)
    assert plus.route == "susy" and plus.converged
    assert plus.err_est is not None
    assert plus.epsilon == pytest.approx(plus.E**2 - 1.0, abs=1e-12)


def test_solve_level_couples_through_energy():
    # n_sigma = 1 via both of its label views; the two independently solved
    # operators must agree on the energy
    a, _ = solve_nonlinear_level(linear_params(0.6), -1, 1)
    b, _ = solve_nonlinear_level(linear_params(0.6), 1, 0)
    assert a.E == pytest.approx(1.289961, abs=1e-5)
    assert b.E == pytest.approx(a.E, abs=1e-8)


@pytest.mark.parametrize("family", ["linear", "tan"])
def test_solve_matches_closed_form_at_zero_coupling(family):
    params = linear_params(0.0) if family == "linear" else tan_params(0.0)
    from diracosc import analytic

    for n in range(5):
        plus, _ = solve_nonlinear_level(params, -1, n)
        exact, _ = analytic.level_energies(params, n)
        assert plus.E == pytest.approx(exact, rel=1e-6)


def test_solve_supercritical_refuses():
    with pytest.raises(CriticalFieldError):
        solve_nonlinear_level(tan_params(1.05), -1, 0)
    with pytest.raises(CriticalFieldError):
        solve_nonlinear_level(linear_params(1.0), -1, 0)


def test_solve_massless_zero_level():
    params = PhysicalParams(mass=0.0, kappa=0.0, superpotential=Superpotential.linear(1.0))
    plus, minus = solve_nonlinear_level(params, -1, 0)
    assert plus.E == 0.0 and minus.E == 0.0
    assert plus.converged


SCAN_XS = np.linspace(-10.0, 10.0, 801)
SCAN_TABLES = {
    "W=x": Superpotential.tabulated(SCAN_XS, SCAN_XS, np.ones_like(SCAN_XS)),
    "W=sinh(x/3)": Superpotential.tabulated(SCAN_XS, np.sinh(SCAN_XS / 3.0),
                                            np.cosh(SCAN_XS / 3.0) / 3.0),
}


@pytest.mark.parametrize(
    "sp,n", [(Superpotential.linear(1.0), 500), (Superpotential.tangent(5.0), 250),
             (SCAN_TABLES["W=x"], 400)],
    ids=["linear-500", "tan-250", "table-400"],
)
def test_massless_zero_level_on_coarse_grids(sp, n):
    # f(0) is the lattice's h^2 bias, -4.0e-4 on linear grid.n 500: the E = 0
    # level holds when the nested h/2 grid divides f(0) by about 4. The test
    # runs at m = 0, (sigma -1, n 0) on every family, tables included
    params = PhysicalParams(mass=0.0, kappa=0.0, superpotential=sp)
    grid = default_grid(params, n=n)
    plus, minus = solve_nonlinear_level(params, -1, 0, grid=grid)
    assert plus.E == 0.0 and minus.E == 0.0
    assert plus.converged and minus.converged
    if sp.family is Family.TABULATED:
        # the massless W = x table's next level is sqrt(2) at kappa 0
        for rec in solve_nonlinear_level(params, -1, 1, grid=grid):
            assert rec.converged and rec.E == pytest.approx(rec.branch * math.sqrt(2.0), rel=1e-6)


def test_massive_level_forced_to_the_zero_seed_is_refused():
    # the E = 0 h^2 test of the massless (sigma -1, n 0) level, forced on a
    # massive one: f(0) = 1 on both grids, no h^2 bias, so no E = 0 level
    params = linear_params(0.3)
    with pytest.raises(BracketError, match="E=0"):
        susy_reduction._zero_mode(params, -1, 0, default_grid(params, n=500))


def test_solve_coarse_grid_cannot_bracket():
    # a level that is no bound level is refused: on 2000 nodes the top
    # reduced level sits near 4/h^2 = 1e4 above E_max^2 - m^2 = 9999, so the
    # count never reaches n + 1 = 2000 below E_max = 100
    with pytest.raises(BracketError, match="never reaches n \\+ 1 = 2000"):
        solve_nonlinear_level(linear_params(0.0), -1, 1999, grid=Grid(half_width=20.0, n=2000))
    params, grid = linear_params(0.6), Grid(half_width=20.0, n=25)
    # lattice bias on that grid puts level 8 at 4.36 against the closed form
    # 2.97: the count certifies the lattice's root, and the honest outcome is
    # an unconverged record whose err_est covers the error, not a wrong level
    plus, minus = solve_nonlinear_level(params, -1, 8, grid=grid)
    exact, _ = analytic.level_energies(params, 8)
    assert not plus.converged and not minus.converged
    assert plus.err_est >= abs(plus.E - exact) > 1.0


def test_tan_box_inside_the_domain_is_refused():
    # walls at +-1.0 cut the tan levels into states of the box: at kappa 0.3
    # the susy ground level came out 1.00140 against the closed form
    # 0.953939, flagged converged, and so did the lattice's levels
    params = tan_params(0.3)
    grid = Grid(half_width=1.0, n=300)
    with pytest.raises(DomainError, match="pi/2"):
        converge_box_full(params, levels=3, grid=grid)
    with pytest.raises(DomainError, match="pi/2"):
        solve_nonlinear_level(params, -1, 0, grid)


def test_fine_grid_fallback_is_flagged_unconverged():
    # on 30 nodes the count finds no h/2 root within 6.4e-3 max(|E|, 1) of
    # the base-grid root; the root kept is 9.6% below sqrt(5) and must not be
    # reported converged. Its err_est is the width of the base grid's
    # certified bracket, which holds it
    params, grid = linear_params(0.0), Grid(half_width=20.0, n=30)
    plus, minus = solve_nonlinear_level(params, 1, 1, grid=grid)
    assert abs(plus.E - math.sqrt(5.0)) > 0.05
    assert not plus.converged and not minus.converged
    inner, outer = susy_reduction._bracket(params, 1, 1, grid, 1)
    assert inner < plus.E <= outer
    assert plus.err_est == outer - inner == 2.0
    assert plus.err_est >= abs(plus.E - math.sqrt(5.0))


def test_table_fine_grid_fallback_keeps_the_scan_step():
    # a table's branches each keep their base-grid root when the h/2 grid
    # holds no root near it, with their own certified bracket's width as
    # err_est
    xs = np.linspace(-25.0, 25.0, 2001)
    table = PhysicalParams(mass=1.0, kappa=0.4,
                           superpotential=Superpotential.tabulated(xs, xs, np.ones_like(xs)))
    grid = Grid(half_width=20.0, n=30)
    plus, minus = solve_nonlinear_level(table, 1, 2, grid=grid)
    assert 2.0 < plus.E < 2.25 and -2.25 < minus.E < -2.0
    assert not plus.converged and not minus.converged
    for rec in (plus, minus):
        inner, outer = susy_reduction._bracket(table, 1, 2, grid, rec.branch)
        assert abs(inner) < abs(rec.E) <= abs(outer)
        assert rec.err_est == abs(outer - inner) == 2.0


@pytest.mark.parametrize("kappa", [0.0, 0.3, -0.5])
@pytest.mark.parametrize("table", list(SCAN_TABLES))
def test_table_scan_steps_take_windows_from_the_last_two(monkeypatch, table, kappa):
    # a table's level solve takes the seed of each branch from one index
    # search at E = 0; every evaluation after it predicts eps_n, and every
    # prediction is certified but the seed's own (eps_n(0)), which the
    # certificate may refuse and the index search then serves
    params = PhysicalParams(mass=1.0, kappa=kappa, superpotential=SCAN_TABLES[table])
    grid = Grid(half_width=8.0, n=400)
    labels = [(-1, 0), (-1, 1), (1, 0), (-1, 2)]
    bisections, evaluations = [0], []
    call, level = linalg._call, susy_reduction._level_condition

    def count(name, *args):
        bisections[0] += name == "dstebz"
        return call(name, *args)

    def evaluation(params, sigma, n, grid, E, guess=None):
        before = bisections[0]
        eps, phi, f = level(params, sigma, n, grid, E, guess)
        evaluations.append((E, guess, bisections[0] - before))
        return eps, phi, f

    monkeypatch.setattr(linalg, "_call", count)
    monkeypatch.setattr(susy_reduction, "_level_condition", evaluation)
    predicted = []
    for sigma, n in labels:
        evaluations.clear()
        predicted.append(susy_reduction._solve_level(params, sigma, n, grid))
        seeds = [(E, guess, bisected) for E, guess, bisected in evaluations if guess is None]
        assert seeds == [(0.0, None, 1)] * 2, evaluations
        for before, (_, guess, bisected) in zip(evaluations, evaluations[1:]):
            assert guess is None or bisected <= (before[1] is None), evaluations
    # the same solve with every eigenvalue taken by the index search
    monkeypatch.setattr(susy_reduction, "_predicted_eigenvalues", lambda *args, **kw: None)
    for (sigma, n), records in zip(labels, predicted):
        for rec, ref in zip(records, susy_reduction._solve_level(params, sigma, n, grid)):
            assert (rec.branch, rec.sigma, rec.n, rec.converged) == (
                ref.branch, ref.sigma, ref.n, ref.converged)
            assert abs(rec.E - ref.E) <= 1e-12 * max(1.0, abs(ref.E))


CERTIFIED = [linear_params(0.4), linear_params(-0.4), tan_params(0.5), tan_params(-0.3)]
LABELS = [label for k in range(3) for label in level_labels(1, k)]


@pytest.mark.parametrize("params", CERTIFIED, ids=["lin+0.4", "lin-0.4", "tan+0.5", "tan-0.3"])
def test_certified_minus_record_mirrors_plus(params):
    for sigma, n in LABELS:
        plus, minus = solve_nonlinear_level(params, sigma, n)
        assert minus.E == -plus.E and plus.E > 0.0
        assert minus.err_est == plus.err_est
        assert minus.converged == plus.converged
        assert (minus.branch, minus.sigma, minus.n) == (-1, sigma, n)


@pytest.mark.parametrize("params", CERTIFIED, ids=["lin+0.4", "lin-0.4", "tan+0.5", "tan-0.3"])
def test_mirrored_minus_root_matches_an_explicit_minus_solve(params):
    # the premise of the mirror: f(-E) = f(E) for an odd W on a symmetric grid
    grid = Grid(half_width=default_grid(params).half_width, n=2000)
    for sigma, n in LABELS:
        _, minus = solve_nonlinear_level(params, sigma, n, grid)
        e, _, ok = susy_reduction._solve_branch(params, sigma, n, grid, -1)
        assert ok
        assert e == pytest.approx(minus.E, rel=1e-12, abs=0.0)


def test_branch_solves_per_level(monkeypatch):
    # a cached solve would not reach the spy
    susy_reduction._solve_level_cached.cache_clear()
    calls = []
    solve_branch = susy_reduction._solve_branch

    def spy(params, sigma, n, grid, branch):
        calls.append(branch)
        return solve_branch(params, sigma, n, grid, branch)

    monkeypatch.setattr(susy_reduction, "_solve_branch", spy)
    grid = Grid(half_width=8.0, n=400)
    susy_reduction._solve_level(linear_params(0.4), -1, 1, grid)
    assert calls == [1]
    calls.clear()
    susy_reduction._solve_level(tan_params(0.5), 1, 0, Grid(half_width=math.pi / 2, n=400))
    assert calls == [1]
    calls.clear()
    # a tabulated W need not be odd: both branches are solved
    xs = np.linspace(-10.0, 10.0, 801)
    table = PhysicalParams(mass=1.0, kappa=0.0,
                           superpotential=Superpotential.tabulated(xs, xs, np.ones_like(xs)))
    plus, minus = solve_nonlinear_level(table, -1, 1, grid)
    assert calls == [1, -1]
    assert plus.E == pytest.approx(math.sqrt(3.0), rel=1e-5)
    assert minus.E == pytest.approx(-math.sqrt(3.0), rel=1e-5)


# --------------------------------------------------- the level count


COUNT_CASES = {
    "lin+0.4": (linear_params(0.4), 2000),
    "lin-0.4": (linear_params(-0.4), 2000),
    "lin massless 0.4": (linear_params(0.4, mass=0.0), 2000),
    "tan+0.5": (tan_params(0.5), 1000),
    "tan-0.3": (tan_params(-0.3), 1000),
    "tan-0.42": (tan_params(-0.42), 1000),
    "table W=sinh(x/3)": (PhysicalParams(mass=1.0, kappa=0.3,
                                         superpotential=SCAN_TABLES["W=sinh(x/3)"]), 400),
}


@pytest.mark.parametrize("case", list(COUNT_CASES))
def test_count_grows_with_E_and_passes_each_level_at_its_root(case):
    # the count of reduced levels below E^2/(1-kappa^2) - m^2 never falls as
    # |E| grows, on either branch; on the certified families it passes n at
    # the closed-form root n
    params, size = COUNT_CASES[case]
    grid = Grid(half_width=default_grid(params).half_width, n=size)
    certified = params.superpotential.family is not Family.TABULATED
    for sigma in (-1, 1):
        for branch in (1, -1):
            counts = [susy_reduction._count(params, sigma, grid, branch * e)
                      for e in np.linspace(0.05, 8.0, 160)]
            assert counts == sorted(counts) and counts[-1] >= 2, (sigma, branch, counts)
            for k in range(3 if certified else 0):
                n = k - (1 + sigma) // 2
                if n < 0 or (params.mass == 0.0 and (sigma, n) == (-1, 0)):
                    continue
                e = analytic.level_energies(params, k)[0]
                below, above = (susy_reduction._count(params, sigma, grid, branch * f * e)
                                for f in (0.999, 1.001))
                assert below == n and above == n + 1, (sigma, branch, n, below, above)


def test_a_count_that_falls_is_refused(monkeypatch):
    # a bracket end that contradicts the count makes the route raise, not
    # guess: here count(E_lo) = 2 exceeds n = 1 while count(E_hi) = 1, and
    # below, the count exceeds n at E = 0
    params, grid = linear_params(0.0), Grid(half_width=20.0, n=30)

    def falling(params, sigma, grid, E):
        return 2 if abs(E) < 2.03 else 1

    monkeypatch.setattr(susy_reduction, "_count", falling)
    with pytest.raises(ConvergenceError, match="falls from 2"):
        susy_reduction._certified(params, 1, 1, grid, 2.0, 2.1)
    monkeypatch.setattr(susy_reduction, "_count", lambda params, sigma, grid, E:
                        1 if abs(E) < 1.5 else 0)
    with pytest.raises(ConvergenceError, match="falls from 1 at E = 1 to 0 at E = 2"):
        susy_reduction._bracket(params, 1, 1, grid, 1)
    monkeypatch.setattr(susy_reduction, "_count", falling)
    # the h/2 grid of this solve holds no root near the base root 2.0224, so
    # its fallback counts at 2.0224 -+ 0.0129, across the fall
    susy_reduction._solve_level_cached.cache_clear()
    with pytest.raises(ConvergenceError, match="falls from 2"):
        solve_nonlinear_level(params, 1, 1, grid=grid)
    monkeypatch.undo()
    # a count above n at E = 0: the lattice's h^2 bias of the (sigma -1, n 0)
    # level, -8.4e-5 on grid.n 1000, is below -m^2 = -1e-6
    params = linear_params(0.4, mass=1e-3)
    with pytest.raises(ConvergenceError, match="exceeds n at E = 0"):
        susy_reduction._bracket(params, -1, 0, default_grid(params, n=1000), 1)


def test_susy_route_reads_no_closed_form():
    # the susy route is checked against the analytic one, so it must not
    # import it
    with open(susy_reduction.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not any("analytic" in name for name in imported), imported
    assert not hasattr(susy_reduction, "analytic")


def test_tan_sigma_minus_levels_below_alpha_half_are_refused():
    # at alpha = alpha0 sqrt(1-kappa^2) < 1/2 the Dirichlet lattice converges
    # to another self-adjoint extension; the sigma = +1 potential keeps
    # exponent alpha + 1 and is solved
    params = PhysicalParams(mass=1.0, kappa=0.9, superpotential=Superpotential.tangent(1.0))
    grid = Grid(half_width=math.pi / 2, n=500)
    with pytest.raises(ConvergenceError, match="Friedrichs extension"):
        solve_nonlinear_level(params, -1, 1, grid)
    plus, _ = solve_nonlinear_level(params, 1, 0, grid)
    assert plus.converged and plus.E > 0.0


# ------------------------------------------- Newton on the level condition


SLOPE_CASES = {
    "lin+0.4": (linear_params(0.4), Grid(half_width=20.0, n=2000)),
    "lin-0.4": (linear_params(-0.4), Grid(half_width=20.0, n=2000)),
    "tan+0.5": (tan_params(0.5), Grid(half_width=math.pi / 2, n=1000)),
    "table W=x": (
        PhysicalParams(mass=1.0, kappa=0.3, superpotential=Superpotential.tabulated(
            np.linspace(-10.0, 10.0, 801), np.linspace(-10.0, 10.0, 801), np.ones(801))),
        Grid(half_width=8.0, n=400)),
}


@pytest.mark.parametrize("case", list(SLOPE_CASES))
def test_hellmann_feynman_slope_matches_central_difference(case):
    params, grid = SLOPE_CASES[case]
    d = 1e-3
    for sigma, n in ((-1, 0), (-1, 1), (1, 0), (1, 1)):

        def f(E):
            return susy_reduction._level_condition(params, sigma, n, grid, E)[2]

        for E in (0.9, 1.6, 2.3):
            # a first evaluation, so its f is that of the same eigenvalue
            f_e, slope = susy_reduction._evaluator(params, sigma, n, grid)(E)
            assert f_e == pytest.approx(f(E), rel=0.0, abs=susy_reduction._f_floor(grid))
            central = (f(E + d) - f(E - d)) / (2.0 * d)
            assert slope == pytest.approx(central, rel=1e-6)


# an evaluator's (f, f') with its slope replaced
BAD_SLOPES = {"zero": lambda f, fp: (f, 0.0), "wrong sign": lambda f, fp: (f, -fp)}


@pytest.mark.parametrize("bad", list(BAD_SLOPES))
@pytest.mark.parametrize("kappa", [0.4, -0.4])
def test_bad_slope_still_finds_the_root_by_bisection(kappa, bad):
    # inside the count-certified bracket a bad slope costs steps, not the root
    params = linear_params(kappa)
    grid = Grid(half_width=20.0, n=2000)
    floor = susy_reduction._f_floor(grid)
    calls = []
    for sigma, n in LABELS:
        inner, outer = susy_reduction._bracket(params, sigma, n, grid, 1)
        x = 0.5 * (inner + outer)
        evaluate = susy_reduction._evaluator(params, sigma, n, grid)
        good = susy_reduction._safe_newton(evaluate, outer, inner, x, *evaluate(x), floor)
        evaluate = susy_reduction._evaluator(params, sigma, n, grid)

        def spy(E):
            calls.append(E)
            return BAD_SLOPES[bad](*evaluate(E))

        calls.clear()
        root = susy_reduction._safe_newton(spy, outer, inner, x, *spy(x), floor)
        # halving a bracket of width 0.5-1 down to 1e-12 E takes about 40 steps
        assert len(calls) > 30
        assert inner < root < outer
        assert root == pytest.approx(good, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bad", list(BAD_SLOPES))
@pytest.mark.parametrize("kappa", [0.4, -0.4])
def test_bad_slope_root_search_falls_back_to_the_widening_bracket(kappa, bad):
    # Newton steps from the seed give up on a bad slope, and the search falls
    # back to the count-certified bracket (_bracket), whose bisection stops on
    # a step of 1e-12 max(1, |E|)
    params = linear_params(kappa)
    grid = Grid(half_width=20.0, n=2000)
    floor = susy_reduction._f_floor(grid)
    window = (0.0, 100.0)
    for sigma, n in LABELS:
        # 10% low, as on a coarse grid: the seed itself is exact to rounding
        seed = 0.9 * susy_reduction._seed(params, sigma, n, grid, 1)
        brackets = []

        def bracket():
            brackets.append(susy_reduction._bracket(params, sigma, n, grid, 1))
            return brackets[-1]

        good = susy_reduction._root(susy_reduction._evaluator(params, sigma, n, grid),
                                    seed, window, floor, bracket)
        # with the Hellmann-Feynman slope, Newton needs no bracket
        assert brackets == []
        evaluate = susy_reduction._evaluator(params, sigma, n, grid)
        root = susy_reduction._root(lambda E: BAD_SLOPES[bad](*evaluate(E)),
                                    seed, window, floor, bracket)
        assert len(brackets) == 1 and brackets[0][0] < root < brackets[0][1]
        assert abs(root - good) <= 1e-12 * max(1.0, abs(good))


@pytest.mark.parametrize("params", CERTIFIED, ids=["lin+0.4", "lin-0.4", "tan+0.5", "tan-0.3"])
def test_certified_labels_keep_closed_form_and_flag(params):
    for sigma, n in LABELS:
        plus, _ = solve_nonlinear_level(params, sigma, n)
        exact, _ = analytic.level_energies(params, n + (1 + sigma) // 2)
        assert plus.converged
        assert plus.E == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("params", CERTIFIED + [tan_params(-0.42)],
                         ids=["lin+0.4", "lin-0.4", "tan+0.5", "tan-0.3", "tan-0.42"])
def test_level_solve_takes_at_most_ten_evaluations(params, monkeypatch):
    # the grids a CLI session solves on: the seed's index search at E = 0,
    # then 1-3 evaluations on each grid, Newton steps in E^2 from the seed
    # (exact for a linear W, 4-8% off on tan) and from the base root; steps
    # in E from a tan seed take up to 10. At tan -0.42, (sigma -1, n 0), f is
    # a staircase at the root and a search that waits for f == 0 takes 15
    calls = []
    operator = susy_reduction.schrodinger_operator

    def spy(weff, sigma, grid):
        calls.append(grid.n)
        return operator(weff, sigma, grid)

    monkeypatch.setattr(susy_reduction, "schrodinger_operator", spy)
    linear = params.superpotential.family is Family.LINEAR
    grid = Grid(half_width=default_grid(params).half_width, n=2000 if linear else 1000)
    for sigma, n in LABELS:
        calls.clear()
        plus, _ = susy_reduction._solve_level(params, sigma, n, grid)
        assert plus.converged
        assert 0 < len(calls) <= (4 if linear else 6), (sigma, n, len(calls))


@pytest.mark.parametrize("params", CERTIFIED, ids=["lin+0.4", "lin-0.4", "tan+0.5", "tan-0.3"])
def test_level_solve_takes_no_index_search(params, monkeypatch):
    # on the grids a CLI session solves on, a level solve makes one index
    # search (dstebz), at E = 0 for its seed. Only the seed's own prediction,
    # eps_n(0), may be refused and fetched by index too: on tan, where the
    # seed is 4-8% off, at tan +0.5 (sigma 1, n 1). Every other evaluation,
    # and susy_state's at the solved level, takes its value and vector from
    # dstein and one Sturm count
    routines = []
    call = linalg._call

    def spy(name, *args):
        routines.append(name)
        return call(name, *args)

    monkeypatch.setattr(linalg, "_call", spy)
    susy_reduction._solve_level_cached.cache_clear()
    linear = params.superpotential.family is Family.LINEAR
    grid = Grid(half_width=default_grid(params).half_width, n=2000 if linear else 1000)
    for sigma, n in LABELS:
        routines.clear()
        solve_nonlinear_level(params, sigma, n, grid)
        assert routines[0] == "dstebz" and set(routines) == {"dstebz", "dstein", "dlaebz"}
        assert routines.count("dstebz") <= (1 if linear else 2), (sigma, n, routines)
        routines.clear()
        susy_state(params, sigma, n, grid)
        assert routines and set(routines) == {"dstein", "dlaebz"}, (sigma, n, routines)
    susy_reduction._solve_level_cached.cache_clear()


def _reduced_operator(params, sigma, grid, E):
    weff = effective_superpotential(params.superpotential, params.kappa, E)
    return schrodinger_operator(weff, sigma, grid)


# the reduced operators of the grids a CLI session solves on, and a finer tan grid
REDUCED_CASES = {
    "linear-2000": (linear_params(0.4), 2000),
    "tan-1000": (tan_params(0.5), 1000),
    "tan-2001": (tan_params(-0.3), 2001),
}


@pytest.mark.parametrize("case", list(REDUCED_CASES))
def test_predicted_level_matches_the_index_search(case, monkeypatch):
    params, size = REDUCED_CASES[case]
    grid = Grid(half_width=default_grid(params).half_width, n=size)
    ranges = []
    call = linalg._call

    def spy(name, *args):
        if name == "dstebz":
            ranges.append(args[0][0].decode())
        return call(name, *args)

    for E in (0.8, 2.5, 4.0):
        for sigma in (-1, 1):
            for n in range(4):
                t = _reduced_operator(params, sigma, grid, E)
                ref = float(_indexed_eigenvalues(t, [n + 1])[0])
                # a prediction as far off as a root search's first tangent
                monkeypatch.setattr(linalg, "_call", spy)
                eps, phi, f = susy_reduction._level_condition(
                    params, sigma, n, grid, E, ref * (1.0 + 1e-5))
                monkeypatch.setattr(linalg, "_call", call)
                assert ranges == []
                assert abs(eps - ref) <= 1e-10 * max(1.0, abs(ref)), (E, sigma, n, eps, ref)
                assert f == eps - reduced_epsilon(E, params.mass, params.kappa)
                assert phi @ phi == pytest.approx(1.0, rel=1e-12)
                assert np.linalg.norm(t.matvec(phi) - eps * phi) <= 1e-9 * max(1.0, abs(eps))


def test_a_prediction_of_a_neighbouring_level_falls_back_to_the_index_search(monkeypatch):
    # inverse iteration at a neighbour's value converges to the neighbour's
    # vector, whose Sturm count reads another index: the certificate refuses
    # it, and the level is fetched by its index, its vector by one dstein call
    params, n, E = tan_params(0.5), 1, 2.0
    grid = Grid(half_width=default_grid(params).half_width, n=1000)
    t = _reduced_operator(params, 1, grid, E)
    ref = float(_indexed_eigenvalues(t, [n + 1])[0])
    below, above = lowest(t, n + 2)[[n - 1, n + 1]]
    routines = []
    call = linalg._call

    def spy(name, *args):
        routines.append(name if name != "dstebz" else "dstebz " + args[0][0].decode())
        return call(name, *args)

    monkeypatch.setattr(linalg, "_call", spy)
    for neighbour in (below, above):
        routines.clear()
        eps, phi, f = susy_reduction._level_condition(params, 1, n, grid, E, neighbour)
        assert routines == ["dstein", "dlaebz", "dstebz I", "dstein"], routines
        assert eps == ref
        assert np.linalg.norm(t.matvec(phi) - eps * phi) <= 1e-9 * max(1.0, abs(eps))
    # the level's own prediction is certified
    routines.clear()
    eps, _, _ = susy_reduction._level_condition(params, 1, n, grid, E, ref * (1.0 + 1e-5))
    assert routines == ["dstein", "dlaebz"] and abs(eps - ref) <= 1e-10 * max(1.0, abs(ref))
    # with no prediction only the index search runs, and no vector is made
    routines.clear()
    eps, phi, _ = susy_reduction._level_condition(params, 1, n, grid, E)
    assert routines == ["dstebz I"] and eps == ref and phi is None


def test_equivalent_solves_share_one_cached_result():
    # the cache key is the call with its default grid resolved, so passing
    # that grid explicitly is the same call
    params = linear_params(0.6)
    first = solve_nonlinear_level(params, -1, 1)
    default = Grid(half_width=20.0, n=2000)
    assert solve_nonlinear_level(params, sigma=-1, n=1, grid=default) is first
    # susy_state resolves the same default grid, so it reports the same level
    assert susy_state(params, -1, 1)[0] == first[0]


def test_tabulated_solves_share_the_cache():
    # a table compares by its samples: an equal table made anew is the same
    # call, and a one-sample change is another
    xs = np.linspace(-10.0, 10.0, 801)

    def params(wp):
        tab = Superpotential.tabulated(xs, xs, wp)
        return PhysicalParams(mass=1.0, kappa=0.3, superpotential=tab)

    grid = Grid(half_width=8.0, n=400)
    first = solve_nonlinear_level(params(np.ones_like(xs)), -1, 1, grid)
    assert solve_nonlinear_level(params(np.ones_like(xs)), -1, 1, grid) is first
    changed = np.ones_like(xs)
    changed[0] = 1.01
    assert solve_nonlinear_level(params(changed), -1, 1, grid) is not first


def test_solve_argument_validation():
    with pytest.raises(ValueError):
        solve_nonlinear_level(linear_params(0.0), 0, 1)
    with pytest.raises(ValueError):
        solve_nonlinear_level(linear_params(0.0), -1, -1)


# ---------------------------------------------------------- reconstruction


def _norm(state, grid):
    """sqrt(h sum(|psi1|^2 + |psi2|^2)), 1 for a normalized state."""
    return math.sqrt(grid.h * float(np.sum(np.abs(state.psi1) ** 2 + np.abs(state.psi2) ** 2)))


def test_reconstructed_ground_matches_lattice_route():
    res = converge_box_full(linear_params(0.0), levels=8, tol=1e-6)
    # the positive-branch ground level, +E0 (the lattice has no -E0 level)
    idx = min(
        (i for i, r in enumerate(res.records) if r.branch > 0),
        key=lambda i: abs(res.records[i].E),
    )
    rec, st = susy_state(linear_params(0.0), -1, 0, grid=res.base_grid)
    assert rec.E == pytest.approx(res.records[idx].E, abs=1e-6)
    direct = res.states[idx]
    h = res.base_grid.h
    overlap = abs(
        h * np.sum(np.conj(st.psi1) * direct.psi1 + np.conj(st.psi2) * direct.psi2)
    )
    assert overlap >= 0.999
    assert _norm(st, res.base_grid) == pytest.approx(1.0, abs=1e-10)
    assert st.residual <= 1e-3


def test_reconstruction_residual_shrinks_with_spacing():
    resids = []
    for n in (1000, 2001):
        _, st = susy_state(linear_params(0.0), -1, 1, grid=Grid(half_width=20.0, n=n))
        resids.append(st.residual)
    assert resids[0] / resids[1] >= 1.5  # at least first order


def test_reconstruction_annihilates_minimal_negative_level():
    with pytest.raises(DegenerateStateError):
        susy_state(linear_params(0.0), -1, 0, branch=-1)


@pytest.mark.parametrize("kappa", [0.0, 0.4, -0.7])
def test_massless_zero_mode_is_built_directly(kappa):
    # the reconstruction annihilates the E = 0 level; its state is
    # (phi, -i beta phi), phi the sigma=-1 reduced ground state
    params = PhysicalParams(mass=0.0, kappa=kappa, superpotential=Superpotential.linear(1.0))
    grid = Grid(half_width=20.0, n=1000)
    rec, st = susy_state(params, -1, 0, grid=grid)
    assert rec.E == 0.0 and st.E == 0.0
    assert _norm(st, grid) == pytest.approx(1.0, abs=1e-10)
    assert st.residual <= 1e-3
    beta = -kappa / (1.0 + math.sqrt(1.0 - kappa**2))
    np.testing.assert_allclose(st.psi2, -1j * beta * st.psi1, rtol=1e-14, atol=0.0)


def test_negative_branch_excited_level_reconstructs():
    params = linear_params(0.0)
    rec, st = susy_state(params, -1, 1, branch=-1)
    assert rec.E == pytest.approx(-math.sqrt(3.0), rel=1e-6)
    assert _norm(st, default_grid(params, n=2000)) == pytest.approx(1.0, abs=1e-10)
    assert st.residual <= 1e-3


def test_reconstruct_spinor_validates_sampling():
    params = linear_params(0.0)
    grid = Grid(half_width=20.0, n=100)
    plus, _ = spin_eigensystem(0.0)
    with pytest.raises(ValueError):
        reconstruct_spinor(params, 1.0, plus, np.ones(7), grid)


@pytest.mark.parametrize("mass, sigma, n", [(1.0, -1, 1), (0.0, -1, 0)])
def test_susy_state_samples_w_once(monkeypatch, mass, sigma, n):
    # W and W' are sampled once per grid and shared by every evaluation of
    # the level solve, the reduced operator at the solved E, the
    # reconstruction (or the massless zero mode) and its residual
    params, grid = linear_params(0.4, mass=mass), Grid(20.0, 500)
    real = susy_reduction.eval_superpotential
    shapes = []

    def spy(sp, x):
        shapes.append(np.shape(x))
        return real(sp, x)

    monkeypatch.setattr(susy_reduction, "eval_superpotential", spy)
    susy_reduction._sampled.cache_clear()
    susy_reduction._solve_level_cached.cache_clear()
    solve_nonlinear_level(params, sigma, n, grid)
    assert shapes == [(500,), (1001,)]
    shapes.clear()
    susy_state(params, sigma, n, grid)
    assert shapes == []
    # with the samples evicted, the state samples its grid once
    susy_reduction._sampled.cache_clear()
    susy_state(params, sigma, n, grid)
    assert shapes == [(500,)]
    w, wp = susy_reduction._sampled(params.superpotential, grid)
    assert not w.flags.writeable and not wp.flags.writeable
