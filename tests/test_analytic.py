"""Closed-form spectra, index bookkeeping, degeneracy pairing.

The trigonometric-family oracle is the direct lattice route: frozen values
below come from converge_box_full at defaults (Richardson-extrapolated, reported
err_est <= 2e-12), regenerated whenever the lattice scheme changes.
"""

import math

import numpy as np
import pytest

from conftest import linear_params, tan_params
from diracosc.analytic import (
    DEGENERACY_RTOL,
    degenerate_pairs,
    full_spectrum,
    level_energies,
    linear_epsilon,
    spectrum_linear,
    spectrum_tan,
    tan_epsilon,
)
from diracosc import analytic, dirac_solver
from diracosc.errors import ConvergenceError, CriticalFieldError, DomainError
from diracosc.model import PhysicalParams, SpectrumRecord, Superpotential, reduced_epsilon

# lattice route, tan alpha0=5, kappa=0.5, n_sigma = 0..4
TAN_LATTICE_ORACLE = [
    0.866025403784401,
    2.95600704594676,
    4.39417961901925,
    5.67728490999248,
    6.88288219045057,
]


def test_spectrum_linear_pinned_examples():
    plus, minus = spectrum_linear(1.0, 1.0, 0.0, 0)
    assert (plus, minus) == (1.0, -1.0)
    plus, minus = spectrum_linear(1.0, 1.0, 0.0, 1)
    assert abs(plus - math.sqrt(3.0)) < 1e-15
    # kappa=0.6, n_sigma=1: E = sqrt(0.64 * (0.8*2 + 1))
    plus, minus = spectrum_linear(1.0, 1.0, 0.6, 1)
    assert abs(plus - math.sqrt(0.64 * 2.6)) < 1e-15
    assert minus == -plus


def test_spectrum_linear_kappa0_reduction_is_exact():
    for n_sigma in range(10):
        plus, minus = spectrum_linear(1.0, 1.0, 0.0, n_sigma)
        assert plus == math.sqrt(2.0 * n_sigma + 1.0)
        assert minus == -plus


def test_spectrum_linear_rejects_critical_field_and_bad_slope():
    with pytest.raises(CriticalFieldError):
        spectrum_linear(1.0, 1.0, 1.0, 0)
    with pytest.raises(CriticalFieldError):
        spectrum_linear(1.0, 1.0, -1.3, 0)
    with pytest.raises(DomainError):
        spectrum_linear(1.0, 0.0, 0.5, 0)


def test_ground_level_law_and_monotonicity():
    kappas = np.linspace(0.0, 0.99, 34)
    prev = None
    for kap in kappas:
        plus, _ = spectrum_linear(2.0, 1.0, float(kap), 0)
        assert abs(plus - 2.0 * math.sqrt(1.0 - kap * kap)) <= 1e-14
    for n_sigma in (0, 1, 3):
        vals = [
            spectrum_linear(1.0, 1.0, float(k), n_sigma).E_plus
            for k in kappas
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_epsilon_ladders():
    assert linear_epsilon(1.0, 0.6, 3) == 2.0 * 0.8 * 3
    assert linear_epsilon(2.0, 0.0, 5) == 20.0
    # (alpha+n)^2 - alpha^2 + beta^2 - (alpha beta / (alpha+n))^2
    assert tan_epsilon(2.0, 0.0, 1) == 5.0
    assert abs(tan_epsilon(2.0, 1.0, 1) - (5.0 + 1.0 - 4.0 / 9.0)) < 1e-15


def test_spectrum_tan_kappa0_closed_form():
    # at kappa=0 the level law collapses to E^2 = m^2 + 2 alpha0 n + n^2
    for n_sigma, e2 in ((0, 1.0), (1, 12.0), (2, 25.0), (3, 40.0), (4, 57.0)):
        lv = spectrum_tan(1.0, 5.0, 0.0, n_sigma)
        assert abs(lv.E_plus - math.sqrt(e2)) < 1e-14
        assert lv.E_minus == -lv.E_plus
        assert abs(reduced_epsilon(lv.E_plus, 1.0, 0.0) - (e2 - 1.0)) < 1e-12


def test_spectrum_tan_matches_lattice_oracle():
    for n_sigma, ref in enumerate(TAN_LATTICE_ORACLE):
        lv = spectrum_tan(1.0, 5.0, 0.5, n_sigma)
        assert abs(lv.E_plus - ref) <= 1e-8 * ref


def test_spectrum_tan_certified_window():
    # alpha0=2.5, kappa=0.9: alpha = 2.5 sqrt(0.19) ~ 1.0897. The ladder has
    # no top: the law holds past alpha, where the lattice, which reads no
    # level law, converges the same levels (measured to 1.6e-7 relative)
    lattice = dirac_solver.converge_box_full(tan_params(0.9, alpha0=2.5), 5, tol=1e-6)
    for n_sigma in (2, 3, 4):
        rec = next(r for r in lattice.records
                   if (r.branch, r.sigma, r.n_sigma) == (1, -1, n_sigma))
        assert rec.converged
        lv = spectrum_tan(1.0, 2.5, 0.9, n_sigma)
        assert abs(lv.E_plus - rec.E) <= 1e-6 * rec.E
    with pytest.raises(CriticalFieldError):
        spectrum_tan(1.0, 5.0, 1.0, 0)


def test_spectrum_tan_forms_disagreeing_raise(monkeypatch):
    # the ladder/quadratic cross-check is an invariant, enforced under -O too
    ladder = analytic.tan_epsilon
    monkeypatch.setattr(analytic, "tan_epsilon", lambda a, b, n: ladder(a, b, n) + 1e-9)
    with pytest.raises(ConvergenceError, match="disagree"):
        spectrum_tan(1.0, 5.0, 0.5, 1)


def test_level_energies_dispatch():
    lin = linear_params(0.6)
    assert abs(level_energies(lin, 1).E_plus - math.sqrt(0.64 * 2.6)) < 1e-15
    tan = tan_params(0.0)
    assert abs(level_energies(tan, 2).E_plus - 5.0) < 1e-14
    tab_x = np.linspace(-1.0, 1.0, 100)
    tab = PhysicalParams(
        mass=1.0,
        kappa=0.0,
        superpotential=Superpotential.tabulated(tab_x, tab_x, np.ones_like(tab_x)),
    )
    with pytest.raises(DomainError):
        level_energies(tab, 0)


def test_full_spectrum_kappa0_shape():
    records = full_spectrum(linear_params(0.0), 2)
    assert all(r.route == "analytic" and r.converged and r.err_est == 0.0 for r in records)
    pos = sorted(r.E for r in records if r.branch > 0)
    expected = [1.0, math.sqrt(3.0), math.sqrt(3.0), math.sqrt(5.0), math.sqrt(5.0)]
    assert np.allclose(pos, expected, rtol=0.0, atol=1e-14)
    # n_sigma 0 is +E0 alone: the negative branch starts at n_sigma 1
    neg = sorted(-r.E for r in records if r.branch < 0)
    assert np.allclose(neg, expected[1:], rtol=0.0, atol=1e-14)
    # each n_sigma >= 1 carries both spin labels
    labels = {(r.sigma, r.n) for r in records if r.branch > 0 and r.n_sigma == 2}
    assert labels == {(-1, 2), (1, 1)}


def test_full_spectrum_tan_window_clip():
    # n_sigma 2-4 lie past alpha ~ 1.0897 and are listed like the rest
    records = full_spectrum(tan_params(0.9, alpha0=2.5), 4)
    assert {r.n_sigma for r in records} == {0, 1, 2, 3, 4}


def test_full_spectrum_rejects_supercritical_and_tabulated():
    with pytest.raises(CriticalFieldError):
        full_spectrum(linear_params(1.0), 2)
    x = np.linspace(-1.0, 1.0, 100)
    tab = PhysicalParams(
        mass=1.0,
        kappa=0.0,
        superpotential=Superpotential.tabulated(x, x, np.ones_like(x)),
    )
    with pytest.raises(DomainError):
        full_spectrum(tab, 2)


def test_degenerate_pairs_on_analytic_records():
    records = [r for r in full_spectrum(linear_params(0.6), 4) if r.branch > 0]
    pairs, unpaired = degenerate_pairs(records)
    assert {p[0].n_sigma for p in pairs} == {1, 2, 3, 4}
    for a, b in pairs:
        assert a.n_sigma == b.n_sigma
        assert {a.sigma, b.sigma} == {-1, 1}
        assert abs(a.E - b.E) <= DEGENERACY_RTOL * max(abs(a.E), 1.0)
    assert [r.n_sigma for r in unpaired] == [0]


def test_degenerate_pairs_trivia():
    single = [
        SpectrumRecord(
            route="analytic", branch=1, sigma=-1, n=0, E=1.0, epsilon=0.0, converged=True
        )
    ]
    pairs, unpaired = degenerate_pairs(single)
    assert pairs == []
    assert unpaired == single
    # E = 0 levels never pair
    zeros = [
        SpectrumRecord(
            route="analytic", branch=1, sigma=-1, n=1, E=0.0, epsilon=0.0, converged=True
        ),
        SpectrumRecord(
            route="analytic", branch=1, sigma=1, n=0, E=0.0, epsilon=0.0, converged=True
        ),
    ]
    pairs, unpaired = degenerate_pairs(zeros)
    assert pairs == []
    assert len(unpaired) == 2
