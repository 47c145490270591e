"""End-to-end acceptance gate: ten numbered criteria, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines; each
criterion also asserts, so the suite fails loudly when one regresses.
"""

import math
import time

import numpy as np
import pytest

from diracosc import analytic
from diracosc.dirac_solver import (
    converge_box_full,
    default_grid,
    eigenvalue_count_in_window,
)
from diracosc.errors import CriticalFieldError
from diracosc.linalg import Tridiagonal, _indexed_eigenvalues, tridiagonal_eigenvectors
from diracosc.susy_reduction import (
    effective_superpotential,
    solve_nonlinear_level,
    squared_form_potential,
    susy_state,
)

import tridiagonal_oracle as oracle
from conftest import linear_params, tan_params

LINEAR_KAPPAS = (0.0, 0.3, 0.6, 0.9)
TAN_KAPPAS = (0.0, 0.5)


def report(num, title, ok, detail):
    print(f"ACCEPTANCE {num:02d} {title}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    return f"criterion {num} {title}: {detail}"


@pytest.fixture(scope="module")
def linear_results():
    out = {}
    for kappa in LINEAR_KAPPAS:
        t0 = time.monotonic()
        out[kappa] = converge_box_full(linear_params(kappa), count=8, tol=1e-6)
        out[kappa, "t"] = time.monotonic() - t0
    return out


@pytest.fixture(scope="module")
def tan_results():
    return {kappa: converge_box_full(tan_params(kappa), count=5, tol=1e-6)
            for kappa in TAN_KAPPAS}


def keyed_energies(records, n_sigmas=None):
    out = {}
    for r in records:
        if n_sigmas is None or r.n_sigma in n_sigmas:
            out.setdefault((r.branch, r.n_sigma), r.E)
    return out


def closed_form(params, branch, n_sigma):
    plus, minus = analytic.level_energies(params, n_sigma)
    return plus if branch > 0 else minus


def test_criterion_01_linear_spectrum_reproduction(linear_results):
    worst, slowest = 0.0, 0.0
    for kappa in LINEAR_KAPPAS:
        res = linear_results[kappa]
        slowest = max(slowest, linear_results[kappa, "t"])
        assert all(r.converged for r in res.records), f"kappa={kappa} unconverged"
        for r in res.records:
            ea = closed_form(linear_params(kappa), r.branch, r.n_sigma)
            worst = max(worst, abs(r.E - ea) / max(abs(ea), 1.0))
    msg = report(1, "linear spectrum reproduction", worst <= 1e-5 and slowest <= 60.0,
                 f"max rel err {worst:.2e} (limit 1e-05), slowest kappa {slowest:.1f}s")
    assert worst <= 1e-5, msg
    assert slowest <= 60.0, msg


def test_criterion_02_tan_spectrum_reproduction(tan_results):
    worst, worst_resid = 0.0, 0.0
    for kappa in TAN_KAPPAS:
        params = tan_params(kappa)
        omk = 1.0 - kappa**2
        alpha = 5.0 * math.sqrt(omk)
        records = tan_results[kappa].records
        assert len(records) >= 9
        for r in records:
            ea = closed_form(params, r.branch, r.n_sigma)
            worst = max(worst, abs(r.E - ea) / max(abs(ea), 1.0))
        # the level law in its two independent transcriptions: the quadratic
        # solved for E^2 and the ladder form evaluated at that E
        for n_sigma in sorted({r.n_sigma for r in records}):
            lv = analytic.spectrum_tan(1.0, 5.0, kappa, analytic.LevelIndex(n_sigma, -1))
            eps_quadratic = lv.E_plus**2 / omk - 1.0
            beta = kappa * lv.E_plus / math.sqrt(omk)
            eps_ladder = analytic.tan_epsilon(alpha, beta, n_sigma)
            worst_resid = max(worst_resid, abs(eps_ladder - eps_quadratic)
                              / max(abs(eps_quadratic), 1.0))
    msg = report(2, "tan spectrum reproduction", worst <= 1e-4 and worst_resid <= 1e-12,
                 f"max rel err {worst:.2e} (limit 1e-04), "
                 f"level-law residual {worst_resid:.2e} (limit 1e-12)")
    assert worst <= 1e-4, msg
    assert worst_resid <= 1e-12, msg


def test_criterion_03_three_route_agreement(linear_results, tan_results):
    cases = [(linear_params(k), linear_results[k]) for k in (0.0, 0.6)]
    cases += [(tan_params(k), tan_results[k]) for k in TAN_KAPPAS]
    worst, lone = 0.0, []
    for params, dirac_res in cases:
        # n_sigma <= 4 on every route
        levels = range(5)
        ana = keyed_energies(analytic.full_spectrum(params, max_n=4), levels)
        dirac = keyed_energies(dirac_res.records, levels)
        susy = {}
        for sigma in (-1, 1):
            for n in range(5):
                n_sigma = n + (1 + sigma) // 2
                if n_sigma not in levels:
                    continue
                plus, minus = solve_nonlinear_level(params, sigma, n)
                susy.setdefault((1, n_sigma), plus.E)
                # the negative root at n_sigma 0 is -E0, which has no state
                if n_sigma > 0:
                    susy.setdefault((-1, n_sigma), minus.E)
        if not set(ana) == set(susy) == set(dirac):
            lone.append(f"kappa={params.kappa} {params.superpotential.family.value}")
        for map_a, map_b in ((ana, susy), (ana, dirac), (susy, dirac)):
            for key in set(map_a) & set(map_b):
                worst = max(worst, abs(map_a[key] - map_b[key])
                            / max(abs(map_a[key]), 1.0))
    ok = worst <= 1e-4 and not lone
    msg = report(3, "three-route agreement", ok,
                 f"max pairwise discrepancy {worst:.2e} (limit 1e-04), "
                 f"routes holding different levels: {lone or 'none'}")
    assert ok, msg


def test_criterion_04_twofold_degeneracy(linear_results, tan_results):
    worst_ana, worst_dir, missing = 0.0, 0.0, []
    ok_unpaired = True
    cases = [(linear_params(k), linear_results[k].records) for k in LINEAR_KAPPAS]
    cases += [(tan_params(k), tan_results[k].records) for k in TAN_KAPPAS]
    for params, dirac_records in cases:
        ana_records = analytic.full_spectrum(params, max_n=5)
        for name, records in (("analytic", ana_records), ("dirac", dirac_records)):
            for branch in (1, -1):
                by_k = {}
                for r in records:
                    if r.branch == branch:
                        by_k.setdefault(r.n_sigma, {})[r.sigma] = r.E
                for k in (1, 2, 3, 4):
                    views = by_k.get(k, {})
                    if set(views) != {-1, 1}:
                        missing.append(f"{name} branch {branch:+d} k={k}")
                        continue
                    spread = abs(views[-1] - views[1])
                    if name == "analytic":
                        worst_ana = max(worst_ana, spread)
                    else:
                        worst_dir = max(worst_dir, spread)
            # the |E|-minimal level must stay out of every degenerate pair
            lowest = min(records, key=lambda r: abs(r.E))
            for branch in (1, -1):
                _, unpaired = analytic.degenerate_pairs(
                    [r for r in records if r.branch == branch])
                if branch == lowest.branch:
                    ok_unpaired &= any(r is lowest for r in unpaired)
    ok = not missing and worst_ana <= 1e-6 and worst_dir <= 1e-5 and ok_unpaired
    msg = report(4, "twofold degeneracy", ok,
                 f"pair spread analytic {worst_ana:.2e} (limit 1e-06), "
                 f"dirac {worst_dir:.2e} (limit 1e-05), "
                 f"missing pairs: {missing or 'none'}, "
                 f"lowest level unpaired: {ok_unpaired}")
    assert ok, msg


def test_criterion_05_supercritical_unbound():
    failures = []
    for make in (linear_params, tan_params):
        params = make(1.2)
        with pytest.raises(CriticalFieldError):
            analytic.full_spectrum(params, max_n=2)
        with pytest.raises(CriticalFieldError):
            solve_nonlinear_level(params, -1, 0)
        res = converge_box_full(params, count=3, tol=1e-6)
        bound = [r for r in res.records if r.converged]
        if bound:
            failures.append(f"{params.superpotential.family}: {len(bound)} converged")
    msg = report(5, "supercritical field unbound", not failures,
                 "closed-form routes raise, every lattice level flagged unbound"
                 if not failures else "; ".join(failures))
    assert not failures, msg


def test_criterion_06_ground_level_law(linear_results):
    worst_ana, worst_dir = 0.0, 0.0
    grounds = []
    for kappa in LINEAR_KAPPAS:
        law = (1.0 - kappa**2)
        plus, _ = analytic.spectrum_linear(1.0, 1.0, kappa, analytic.LevelIndex(0, -1))
        worst_ana = max(worst_ana, abs(plus**2 - law))
        e_dirac = keyed_energies(linear_results[kappa].records)[(1, 0)]
        worst_dir = max(worst_dir, abs(e_dirac**2 - law) / law)
        grounds.append(plus)
    closes = all(a > b for a, b in zip(grounds, grounds[1:]))
    ok = worst_ana <= 1e-12 and worst_dir <= 1e-5 and closes
    msg = report(6, "ground level law", ok,
                 f"analytic |E^2-(1-k^2)| {worst_ana:.2e} (limit 1e-12), "
                 f"dirac rel {worst_dir:.2e} (limit 1e-05), gap closes: {closes}")
    assert ok, msg


def test_criterion_07_potential_identity():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for make in (linear_params, tan_params):
        for _ in range(20):
            kappa = float(rng.uniform(-0.95, 0.95))
            e_val = float(rng.uniform(-3.0, 3.0))
            sigma = int(rng.choice((-1, 1)))
            params = make(kappa)
            sp = params.superpotential
            x = default_grid(params).x
            weff = effective_superpotential(sp, kappa, e_val)
            w, wp = weff.values(x)
            lhs = w**2 + sigma * wp
            rhs = squared_form_potential(sp, kappa, e_val, sigma, x)
            shift = (kappa * e_val) ** 2 / (1.0 - kappa**2)
            scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            worst = max(worst, float(np.max(np.abs(lhs - rhs - shift) / scale)))
    msg = report(7, "potential identity", worst <= 1e-10,
                 f"max pointwise deviation {worst:.2e} (limit 1e-10) over 20 draws/family")
    assert worst <= 1e-10, msg


def test_criterion_08_eigensolver_kernel():
    # the oracle (QL against bisection) and the production kernel (LAPACK
    # dstebz eigenvalues against QL, dstein eigenvectors) under one set of limits
    rng = np.random.default_rng(8)
    worst_vals, worst_orth = 0.0, 0.0
    worst_lapack, worst_lapack_orth = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        t = Tridiagonal(d=rng.normal(size=n), e=rng.normal(size=n - 1))
        vals_ql, q = oracle.eigen_ql(t, want_vectors=True)
        vals_bi = oracle.eigen_bisect(t, 1, n)
        scale = max(1.0, oracle.norm_bound(t))
        worst_vals = max(worst_vals, float(np.max(np.abs(vals_ql - vals_bi))) / scale)
        orth = float(np.max(np.abs(q.T @ q - np.eye(n))))
        worst_orth = max(worst_orth, orth / n)
        vals_lapack = _indexed_eigenvalues(t, np.arange(1, n + 1))
        err = float(np.max(np.abs(vals_lapack - vals_ql))) / scale
        worst_lapack = max(worst_lapack, err)
        z = tridiagonal_eigenvectors(t, vals_lapack)
        orth = float(np.max(np.abs(z.T @ z - np.eye(n))))
        worst_lapack_orth = max(worst_lapack_orth, orth / n)
    lap = Tridiagonal(d=np.full(40, 2.0), e=np.full(39, -1.0))
    exact = 2.0 - 2.0 * np.cos(np.arange(1, 41) * np.pi / 41.0)
    lap_err = float(np.max(np.abs(oracle.eigen_ql(lap)[0] - exact)))
    lap_err = max(lap_err, float(np.max(np.abs(
        _indexed_eigenvalues(lap, np.arange(1, 41)) - exact))))
    ok = (worst_vals <= 1e-10 and worst_orth <= 1e-10 and lap_err <= 1e-12
          and worst_lapack <= 1e-10 and worst_lapack_orth <= 1e-10)
    msg = report(8, "eigensolver kernel", ok,
                 f"QL vs bisection {worst_vals:.2e}, LAPACK vs QL {worst_lapack:.2e} "
                 f"(limit 1e-10), orthogonality/n QL {worst_orth:.2e}, "
                 f"LAPACK {worst_lapack_orth:.2e} (limit 1e-10), "
                 f"Laplacian closed form {lap_err:.2e} (limit 1e-12)")
    assert ok, msg


def test_criterion_09_no_fermion_doubling():
    # kappa = 0, m = 1: the window holds 1, sqrt3, sqrt5, -sqrt3 and -sqrt5
    # (+1 is the one unpaired level); a doubler would repeat them
    params = linear_params(0.0)
    edge = math.sqrt(5.0) + 0.1
    count = eigenvalue_count_in_window(params, default_grid(params), -edge, edge)
    msg = report(9, "no fermion doubling", count == 5,
                 f"eigenvalue count in (-sqrt5-0.1, sqrt5+0.1) = {count} (expected 5)")
    assert count == 5, msg


def test_criterion_10_spinor_reconstruction(linear_results):
    worst = 1.0
    for kappa in (0.0, 0.6):
        res = linear_results[kappa]
        grid = res.base_grid
        for n in range(3):
            match = [
                (rec, st) for rec, st in zip(res.records, res.states)
                if (rec.branch, rec.sigma, rec.n) == (1, -1, n)
            ]
            assert match, f"kappa={kappa} level n={n} missing"
            _, dstate = match[0]
            _, sstate = susy_state(linear_params(kappa), -1, n, grid)
            overlap = abs(grid.h * np.sum(
                np.conj(sstate.psi1) * dstate.psi1
                + np.conj(sstate.psi2) * dstate.psi2))
            worst = min(worst, float(overlap))
    msg = report(10, "spinor reconstruction", worst >= 0.999,
                 f"min |overlap| {worst:.6f} (limit 0.999) over first 3 levels, "
                 f"kappa in {{0, 0.6}}")
    assert worst >= 0.999, msg
