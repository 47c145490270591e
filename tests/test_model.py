"""Domain types: superpotential catalog, grids, labels, records, states."""

import math

import numpy as np
import pytest

from conftest import linear_params, tan_params
from diracosc import analytic, dirac_solver, susy_reduction
from diracosc.errors import ConfigError, DomainError
from diracosc.model import (
    HALF_PI,
    ROUTES,
    Family,
    Grid,
    PhysicalParams,
    SpectrumRecord,
    SpinorState,
    Superpotential,
    eval_superpotential,
    localization_of,
    reduced_epsilon,
    reduced_index,
    require_whole_domain,
)


def test_linear_eval_is_exact():
    sp = Superpotential.linear(1.0)
    assert eval_superpotential(sp, 2.0) == (2.0, 1.0)
    w, wp = eval_superpotential(sp, np.array([-3.0, 0.0, 0.5]))
    assert np.array_equal(w, [-3.0, 0.0, 0.5])
    assert np.array_equal(wp, [1.0, 1.0, 1.0])


def test_tangent_eval_examples():
    sp = Superpotential.tangent(5.0)
    assert eval_superpotential(sp, 0.0) == (0.0, 5.0)
    w, wp = eval_superpotential(sp, math.pi / 4.0)
    # tan(pi/4) = 1 and sec^2(pi/4) = 2
    assert abs(w - 5.0) < 1e-12
    assert abs(wp - 10.0) < 1e-12


def test_tangent_rejects_points_outside_open_interval():
    sp = Superpotential.tangent(5.0)
    with pytest.raises(DomainError):
        eval_superpotential(sp, math.pi / 2.0)
    with pytest.raises(DomainError):
        eval_superpotential(sp, np.array([0.0, -math.pi / 2.0]))


def test_tabulated_interpolates_samples():
    x = np.linspace(-1.0, 1.0, 2001)
    sp = Superpotential.tabulated(x, np.sin(x), np.cos(x))
    assert sp.family is Family.TABULATED
    w, wp = eval_superpotential(sp, np.array([-0.5, 0.0, 0.25]))
    assert np.allclose(w, np.sin([-0.5, 0.0, 0.25]), atol=1e-8)
    assert np.allclose(wp, np.cos([-0.5, 0.0, 0.25]), atol=1e-6)
    with pytest.raises(DomainError):
        eval_superpotential(sp, 1.0001)


def test_tabulated_rejects_inconsistent_derivative_column():
    x = np.linspace(-1.0, 1.0, 2001)
    with pytest.raises(ConfigError):
        Superpotential.tabulated(x, np.sin(x), 2.0 * np.cos(x))


def test_tabulated_rejects_malformed_tables():
    x = np.linspace(-1.0, 1.0, 50)
    with pytest.raises(ConfigError):
        Superpotential.tabulated(x[::-1], np.sin(x), np.cos(x))
    with pytest.raises(ConfigError):
        Superpotential.tabulated(x[:3], np.sin(x[:3]), np.cos(x[:3]))
    with pytest.raises(ConfigError):
        Superpotential.tabulated(x, np.sin(x)[:-1], np.cos(x))


def test_tables_compare_and_hash_by_content():
    # two tables made from equal samples are one superpotential, and a
    # one-sample change makes another
    x = np.linspace(-10.0, 10.0, 801)

    def params(wp):
        sp = Superpotential.tabulated(x, x, wp)
        return PhysicalParams(mass=1.0, kappa=0.3, superpotential=sp)

    a, b = params(np.ones_like(x)), params(np.ones_like(x))
    assert a == b and hash(a) == hash(b)
    changed = np.ones_like(x)
    changed[0] = 1.01
    assert params(changed) != a


def test_refined_grid_halves_the_spacing_on_nested_points():
    grid = Grid(half_width=3.0, n=5)
    fine = grid.refined()
    assert (fine.half_width, fine.n) == (3.0, 11)
    assert fine.h == grid.h / 2.0
    assert np.array_equal(fine.x[1::2], grid.x)


@pytest.mark.parametrize(
    "family,builder,window",
    [
        (Family.LINEAR, lambda: Superpotential.linear(1.3), 1.2),
        (Family.TANGENT, lambda: Superpotential.tangent(5.0), 1.2),
        (
            Family.TABULATED,
            lambda: Superpotential.tabulated(
                np.linspace(-2.0, 2.0, 4001),
                np.sin(np.linspace(-2.0, 2.0, 4001)),
                np.cos(np.linspace(-2.0, 2.0, 4001)),
            ),
            1.2,
        ),
    ],
)
def test_wprime_consistent_with_centered_difference(family, builder, window):
    """Centered differences of W reproduce W' at measured order >= 1.9."""
    sp = builder()
    xs = np.linspace(-window, window, 41)
    errs = []
    for h in (2e-3, 1e-3):
        wp = eval_superpotential(sp, xs)[1]
        w_plus = eval_superpotential(sp, xs + h)[0]
        w_minus = eval_superpotential(sp, xs - h)[0]
        errs.append(float(np.max(np.abs((w_plus - w_minus) / (2 * h) - wp))))
    if errs[0] < 1e-12:
        assert errs[1] < 1e-12  # exact derivative (linear family)
    else:
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9


def test_build_grid_three_point_example():
    g = Grid(1.0, 3)
    assert g.h == 0.5
    assert np.allclose(g.x, [-0.5, 0.0, 0.5])


def test_build_grid_default_spacing():
    g = Grid(20.0, 4000)
    assert abs(g.h - 40.0 / 4001.0) < 1e-18
    assert g.x.size == 4000


def test_build_grid_tangent_points_stay_inside_open_interval():
    g = Grid(math.pi / 2.0, 999)
    require_whole_domain(Superpotential.tangent(1.0), g)
    assert np.all(g.x > -math.pi / 2.0)
    assert np.all(g.x < math.pi / 2.0)


def test_build_grid_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        Grid(0.0, 100)
    with pytest.raises(ConfigError):
        Grid(1.0, 2)
    # the tan box is the whole open interval: require_whole_domain's rule
    with pytest.raises(DomainError, match="pi/2"):
        require_whole_domain(Superpotential.tangent(1.0), Grid(2.0, 100))


@pytest.mark.parametrize("half_width, n", [
    (0.0, 100), (-5.0, 100), (math.nan, 100), (math.inf, 100),
    (5.0, 2), (5.0, 2.5), (5.0, 0),
])
def test_grid_refuses_invalid_values_at_construction(half_width, n):
    with pytest.raises(ConfigError):
        Grid(half_width, n)


def test_grid_coerces_its_fields():
    g = Grid(np.float64(2), np.int64(7))
    assert type(g.half_width) is float and type(g.n) is int
    assert g == Grid(2.0, 7) and hash(g) == hash(Grid(2.0, 7))


def test_level_index_unified_label():
    assert reduced_index(-1, 0) == 0
    assert reduced_index(-1, 3) == 3
    assert reduced_index(1, 0) == 1
    assert reduced_index(1, 3) == 4
    # a record refuses a sigma other than +-1, the closed-form laws a
    # negative label
    with pytest.raises(ConfigError):
        SpectrumRecord(route="analytic", branch=1, sigma=2, n=0, E=1.0, epsilon=0.0,
                       converged=True)
    for law in (analytic.spectrum_linear, analytic.spectrum_tan):
        with pytest.raises(ConfigError):
            law(1.0, 1.0, 0.5, -1)


@pytest.mark.parametrize("params, grid", [
    (linear_params(0.4), Grid(half_width=10.0, n=300)),
    (tan_params(0.5), Grid(half_width=HALF_PI, n=300)),
])
def test_every_route_carries_the_model_epsilon(params, grid):
    records = [*analytic.full_spectrum(params, 2),
               *susy_reduction.solve_nonlinear_level(params, -1, 1, grid),
               *susy_reduction.solve_nonlinear_level(params, 1, 0, grid),
               *dirac_solver.converge_box_full(params, 3, grid=grid).records]
    assert {r.route for r in records} == set(ROUTES)
    for r in records:
        assert r.epsilon.hex() == reduced_epsilon(r.E, params.mass, params.kappa).hex()


def test_supercritical_lattice_records_carry_nan_epsilon():
    result = dirac_solver.converge_box_full(linear_params(1.2), 3,
                                            grid=Grid(half_width=10.0, n=300))
    assert result.records
    assert all(math.isnan(r.epsilon) for r in result.records)


def test_spectrum_record_validates_branch_sign():
    rec = SpectrumRecord(
        route="analytic", branch=1, sigma=-1, n=2, E=1.5, epsilon=1.25, converged=True
    )
    assert rec.n_sigma == 2
    with pytest.raises(ConfigError):
        SpectrumRecord(
            route="analytic", branch=1, sigma=-1, n=0, E=-1.0, epsilon=0.0, converged=True
        )
    # E = 0 is allowed on either branch (massless ground level)
    SpectrumRecord(
        route="dirac", branch=-1, sigma=-1, n=0, E=0.0, epsilon=0.0, converged=True
    )


def test_spinor_state_normalization_convention():
    g = Grid(5.0, 200)
    psi1 = np.exp(-g.x**2)
    psi2 = 0.5 * np.exp(-g.x**2) * g.x
    st = SpinorState.from_samples(1.0, psi1, psi2, g)
    total = g.h * float(np.sum(np.abs(st.psi1) ** 2 + np.abs(st.psi2) ** 2))
    assert abs(total - 1.0) < 1e-12
    assert st.residual is None
    assert not st.psi1.flags.writeable and not st.psi2.flags.writeable
    with pytest.raises(ValueError):
        SpinorState.from_samples(1.0, psi1[:-1], psi2, g)
    with pytest.raises(ValueError):
        SpinorState.from_samples(1.0, np.zeros(g.n), np.zeros(g.n), g)


def test_localization_uniform_and_spike():
    g = Grid(5.0, 500)
    ones = np.ones(g.n)
    pr, _ = localization_of(ones, np.zeros(g.n), g.x, g.h)
    assert abs(pr - 2.0 * g.half_width) <= 2.0 * g.h
    spike = np.zeros(g.n)
    spike[250] = 1.0
    pr, rms = localization_of(spike, np.zeros(g.n), g.x, g.h)
    assert abs(pr - g.h) < 1e-12
    assert rms == 0.0
    with pytest.raises(ValueError):
        localization_of(np.zeros(g.n), np.zeros(g.n), g.x, g.h)
