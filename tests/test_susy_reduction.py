"""Reduced route: spin eigensystem, effective superpotential, energy maps,
the energy-dependent operator, level solving, and spinor reconstruction."""

import math

import numpy as np
import pytest

from diracosc.errors import (
    BracketError,
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


@pytest.mark.parametrize(
    "sp,n", [(Superpotential.linear(1.0), 500), (Superpotential.tangent(5.0), 250)],
    ids=["linear-500", "tan-250"],
)
def test_massless_zero_level_on_coarse_grids(sp, n):
    # f(0) is the lattice's h^2 bias, -4.0e-4 on linear grid.n 500: the E = 0
    # seed holds when the nested h/2 grid divides f(0) by about 4
    params = PhysicalParams(mass=0.0, kappa=0.0, superpotential=sp)
    plus, minus = solve_nonlinear_level(params, -1, 0, grid=default_grid(params, n=n))
    assert plus.E == 0.0 and minus.E == 0.0
    assert plus.converged and minus.converged


def test_massive_level_forced_to_the_zero_seed_is_refused(monkeypatch):
    # f(0) = 1 on both grids: no h^2 bias, so no E = 0 level
    monkeypatch.setattr(analytic, "level_energies", lambda params, k: (0.0, 0.0))
    params = linear_params(0.3)
    with pytest.raises(BracketError, match="E=0 seed"):
        susy_reduction._seed(params, -1, 0, default_grid(params, n=500), 1)


def test_solve_coarse_grid_cannot_bracket():
    # lattice bias on a 25-node grid pushes the level far outside the seeded
    # search window; the honest outcome is a refusal, not a wrong level
    with pytest.raises(BracketError):
        solve_nonlinear_level(linear_params(0.6), -1, 8, grid=Grid(half_width=20.0, n=25))


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
    # on 30 nodes the fine-grid bracket around the base-grid root fails; the
    # root kept is 9.6% below sqrt(5) and must not be reported converged
    plus, minus = solve_nonlinear_level(
        linear_params(0.0), 1, 1, grid=Grid(half_width=20.0, n=30))
    assert abs(plus.E - math.sqrt(5.0)) > 0.05
    assert not plus.converged and not minus.converged
    assert plus.err_est == pytest.approx(0.25 * math.sqrt(5.0) * 2.0, rel=1e-12)


def test_table_fine_grid_fallback_keeps_the_scan_step():
    # a table's root search tries only the scan step (m/4) on which f changes
    # sign; when the h/2 grid holds no root, that step's width is err_est
    xs = np.linspace(-25.0, 25.0, 2001)
    table = PhysicalParams(mass=1.0, kappa=0.4,
                           superpotential=Superpotential.tabulated(xs, xs, np.ones_like(xs)))
    plus, minus = solve_nonlinear_level(table, 1, 2, grid=Grid(half_width=20.0, n=30))
    assert 2.0 < plus.E < 2.25 and -2.25 < minus.E < -2.0
    assert not plus.converged and not minus.converged
    assert plus.err_est == pytest.approx(0.25, rel=1e-12)
    assert minus.err_est == pytest.approx(0.25, rel=1e-12)


SCAN_XS = np.linspace(-10.0, 10.0, 801)
SCAN_TABLES = {
    "W=x": Superpotential.tabulated(SCAN_XS, SCAN_XS, np.ones_like(SCAN_XS)),
    "W=sinh(x/3)": Superpotential.tabulated(SCAN_XS, np.sinh(SCAN_XS / 3.0),
                                            np.cosh(SCAN_XS / 3.0) / 3.0),
}


@pytest.mark.parametrize("kappa", [0.0, 0.3, -0.5])
@pytest.mark.parametrize("table", list(SCAN_TABLES))
def test_table_scan_steps_take_windows_from_the_last_two(monkeypatch, table, kappa):
    # from its third step on, a table's outward scan bisects eps_n in a
    # window on the line through the last two steps' eps, and takes range I
    # only where the counts refuse that window: here at most twice a scan.
    # The root search opens on the line through the last step's two eps, so
    # it takes no range I at all
    params = PhysicalParams(mass=1.0, kappa=kappa, superpotential=SCAN_TABLES[table])
    grid = Grid(half_width=8.0, n=400)
    labels = [(-1, 0), (-1, 1), (1, 0), (-1, 2)]
    scanning, steps, roots = [False], [], []
    call, seed = linalg._call, susy_reduction._seed

    def spy(name, *args):
        if name == "dstebz":
            (steps[-1] if scanning[0] else roots).append(args[0][0].decode())
        return call(name, *args)

    def scan(*args):
        scanning[0] = True
        steps.append([])
        try:
            return seed(*args)
        finally:
            scanning[0] = False

    monkeypatch.setattr(linalg, "_call", spy)
    monkeypatch.setattr(susy_reduction, "_seed", scan)
    windowed = [susy_reduction._solve_level(params, sigma, n, grid) for sigma, n in labels]
    assert len(steps) == 2 * len(labels)
    for ranges in steps:
        assert len(ranges) >= 5 and ranges[:2] == ["I", "I"], ranges
        assert ranges.count("I") <= 4, ranges
    assert roots and set(roots) == {"V"}, roots
    # the same solve with every eigenvalue taken by the index search
    indexed = susy_reduction._indexed_eigenvalues
    monkeypatch.setattr(susy_reduction, "_indexed_eigenvalues",
                        lambda t, ks, window=None: indexed(t, ks))
    for (sigma, n), records in zip(labels, windowed):
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
    params = linear_params(kappa)
    grid = Grid(half_width=20.0, n=2000)
    floor = susy_reduction._f_floor(grid)
    calls = []
    for sigma, n in LABELS:
        x = susy_reduction._seed(params, sigma, n, grid, 1)[0]
        a, b = 0.75 * x, 1.25 * x
        fa = susy_reduction._level_condition(params, sigma, n, grid, a)[2]
        fb = susy_reduction._level_condition(params, sigma, n, grid, b)[2]
        evaluate = susy_reduction._evaluator(params, sigma, n, grid)
        good = susy_reduction._safe_newton(evaluate, a, b, fa, fb, x, *evaluate(x), floor)
        evaluate = susy_reduction._evaluator(params, sigma, n, grid)

        def spy(E):
            calls.append(E)
            return BAD_SLOPES[bad](*evaluate(E))

        calls.clear()
        root = susy_reduction._safe_newton(spy, a, b, fa, fb, x, *spy(x), floor)
        # halving a bracket of width E/2 down to 1e-12 E takes about 40 steps
        assert len(calls) > 30
        assert root == pytest.approx(good, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bad", list(BAD_SLOPES))
@pytest.mark.parametrize("kappa", [0.4, -0.4])
def test_bad_slope_root_search_falls_back_to_the_widening_bracket(kappa, bad):
    params = linear_params(kappa)
    grid = Grid(half_width=20.0, n=2000)
    floor = susy_reduction._f_floor(grid)
    for sigma, n in LABELS:
        seed, delta, reach, line = susy_reduction._seed(params, sigma, n, grid, 1)
        good = susy_reduction._root(susy_reduction._evaluator(params, sigma, n, grid, line),
                                    seed, delta, reach, floor)
        evaluate = susy_reduction._evaluator(params, sigma, n, grid, line)
        calls = []

        def spy(E):
            calls.append(E)
            return BAD_SLOPES[bad](*evaluate(E))

        root = susy_reduction._root(spy, seed, delta, reach, floor)
        # Newton steps from the seed gave up, and the widening search ran;
        # its bisection stops on a step of 1e-12 max(1, |E|)
        assert seed - delta in calls and seed + delta in calls
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
    # the grids a CLI session solves on: each grid takes the seed and 1-2
    # Newton steps. A search that first brackets the seed takes 8, and one
    # that stops on bracket width instead of on the Newton step 16-30. At tan
    # -0.42, (sigma -1, n 0), f is a staircase at the root and a search that
    # waits for f == 0 takes 15
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
        assert 0 < len(calls) <= 6, (sigma, n, len(calls))


@pytest.mark.parametrize("params", CERTIFIED, ids=["lin+0.4", "lin-0.4", "tan+0.5", "tan-0.3"])
def test_level_solve_takes_no_index_search(params, monkeypatch):
    # on the grids a CLI session solves on, every eigenvalue window the
    # level solve and susy_state predict is certified: no dstebz call falls
    # back to the index search (range "I")
    ranges = []
    call = linalg._call

    def spy(name, *args):
        if name == "dstebz":
            ranges.append(args[0][0].decode())
        return call(name, *args)

    monkeypatch.setattr(linalg, "_call", spy)
    linear = params.superpotential.family is Family.LINEAR
    grid = Grid(half_width=default_grid(params).half_width, n=2000 if linear else 1000)
    for sigma, n in LABELS:
        ranges.clear()
        susy_reduction._solve_level(params, sigma, n, grid)
        susy_state(params, sigma, n, grid)
        assert ranges and set(ranges) == {"V"}, (sigma, n, ranges)


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
def test_susy_state_evaluates_w_twice(monkeypatch, mass, sigma, n):
    # once for the reduced operator at the solved E, and once shared by the
    # reconstruction (or the massless zero mode) and its residual
    params, grid = linear_params(0.4, mass=mass), Grid(20.0, 500)
    solve_nonlinear_level(params, sigma, n, grid)
    real = susy_reduction.eval_superpotential
    shapes = []

    def spy(sp, x):
        shapes.append(np.shape(x))
        return real(sp, x)

    monkeypatch.setattr(susy_reduction, "eval_superpotential", spy)
    susy_state(params, sigma, n, grid)
    assert shapes == [(500,), (500,)]
