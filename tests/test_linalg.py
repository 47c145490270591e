"""Tridiagonal eigensolver kernels: QL, Sturm counts, bisection, inverse
iteration. Dual-route checks of the reference kernel (QL vs bisection, in
tridiagonal_oracle), and the production LAPACK path (eigenvalues, counts,
eigenvectors) checked against it on lattice matrices."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import diracosc
from diracosc import linalg
from diracosc.dirac_solver import assemble_dirac_matrix, default_grid
from diracosc.model import Grid, PhysicalParams, Superpotential
from diracosc.linalg import (
    Tridiagonal,
    _call,
    _indexed_eigenvalues,
    _predicted_eigenvalues,
    sturm_count,
    tridiagonal_eigenvectors,
)
from diracosc.susy_reduction import effective_superpotential, schrodinger_operator

import tridiagonal_oracle as oracle
from conftest import linear_params, tan_params


def laplacian(n: int) -> Tridiagonal:
    return Tridiagonal(d=np.full(n, 2.0), e=np.full(n - 1, -1.0))


def test_eigen_ql_pinned_examples():
    w, _ = oracle.eigen_ql(Tridiagonal(d=np.array([5.0]), e=np.zeros(0)))
    assert np.array_equal(w, [5.0])
    w, _ = oracle.eigen_ql(Tridiagonal(d=np.zeros(2), e=np.ones(1)))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
    w, _ = oracle.eigen_ql(Tridiagonal(d=np.full(3, 2.0), e=np.full(2, -1.0)))
    assert np.allclose(w, [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)], atol=1e-12)


def test_eigen_ql_vectors_diagonalize():
    rng = np.random.default_rng(7)
    t = Tridiagonal(d=rng.uniform(-1, 1, 24), e=rng.uniform(-1, 1, 23))
    w, v = oracle.eigen_ql(t, want_vectors=True)
    scale = oracle.norm_bound(t)
    offdiag = v.T @ oracle.to_dense(t) @ v - np.diag(w)
    assert np.max(np.abs(offdiag)) <= 1e-10 * scale
    assert np.max(np.abs(v.T @ v - np.eye(24))) <= 1e-10 * 24


def test_laplacian_closed_form_both_methods():
    """Eigenvalues 2 - 2 cos(k pi/(n+1)) reproduced to 1e-12 by QL and bisection."""
    n = 48
    t = laplacian(n)
    exact = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1))
    exact.sort()
    ql = oracle.eigen_ql(t)[0]
    bis = oracle.eigen_bisect(t, 1, n)
    scale = np.maximum(np.abs(exact), 1.0)
    assert np.max(np.abs(ql - exact) / scale) <= 1e-12
    assert np.max(np.abs(bis - exact) / scale) <= 1e-12


def test_sturm_count_pinned_examples():
    t = Tridiagonal(d=np.zeros(2), e=np.ones(1))
    assert oracle.sturm_count(t, 0.0) == 1
    assert oracle.sturm_count(t, 2.0) == 2


def test_sturm_count_monotone_and_saturates():
    rng = np.random.default_rng(11)
    t = Tridiagonal(d=rng.uniform(-1, 1, 30), e=rng.uniform(-1, 1, 29))
    lo, hi = oracle.gershgorin(t)
    lams = np.linspace(lo - 0.5, hi + 0.5, 40)
    counts = [oracle.sturm_count(t, lam) for lam in lams]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[0] == 0
    assert counts[-1] == t.n


def test_sturm_count_at_median_eigenvalue():
    rng = np.random.default_rng(23)
    t = Tridiagonal(d=rng.uniform(-1, 1, 12), e=rng.uniform(-1, 1, 11))
    w = oracle.eigen_ql(t)[0]
    assert oracle.sturm_count(t, float(np.median(w))) == 6


def test_eigen_bisect_pinned_examples():
    w = oracle.eigen_bisect(Tridiagonal(d=np.array([5.0]), e=np.zeros(0)), 1, 1)
    assert abs(w[0] - 5.0) < 1e-12
    w = oracle.eigen_bisect(Tridiagonal(d=np.zeros(2), e=np.ones(1)), 1, 2)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
    w = oracle.eigen_bisect(Tridiagonal(d=np.full(3, 2.0), e=np.full(2, -1.0)), 2, 3)
    assert np.allclose(w, [2.0, 2.0 + math.sqrt(2.0)], atol=1e-12)


def test_ql_vs_bisection_on_200_random_matrices():
    rng = np.random.default_rng(9001)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        t = Tridiagonal(d=rng.uniform(-1, 1, n), e=rng.uniform(-1, 1, n - 1))
        ql = oracle.eigen_ql(t)[0]
        bis = oracle.eigen_bisect(t, 1, n)
        worst = max(worst, float(np.max(np.abs(ql - bis))))
    assert worst <= 1e-10


def test_inverse_iteration_residuals_and_determinism():
    rng = np.random.default_rng(99)
    t = Tridiagonal(d=rng.uniform(-2, 2, 300), e=rng.uniform(-1, 1, 299))
    lams = oracle.eigen_bisect(t, 5, 10)
    v1 = tridiagonal_eigenvectors(t, lams)
    v2 = tridiagonal_eigenvectors(t, lams)
    assert np.array_equal(v1, v2)
    scale = oracle.norm_bound(t)
    for j, lam in enumerate(lams):
        res = np.linalg.norm(t.matvec(v1[:, j]) - lam * v1[:, j])
        assert res <= 1e-8 * scale
        assert abs(np.linalg.norm(v1[:, j]) - 1.0) <= 1e-12


def test_degenerate_cluster_vectors_stay_orthogonal():
    # 2x2 blocks give exactly degenerate pairs
    t = Tridiagonal(d=np.zeros(6), e=np.array([1.0, 0.0, 1.0, 0.0, 1.0]))
    lams = oracle.eigen_bisect(t, 1, 6)
    v = tridiagonal_eigenvectors(t, lams)
    gram = v.T @ v
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-8


# ------------------------------------------- production path against oracle

# (family, kappa, grid.n): subcritical and supercritical couplings, matrix
# dimensions 2 * grid.n + 1 from 501 to 2001
LATTICE_CASES = [
    ("linear", 0.3, 250),
    ("linear", -0.7, 1000),
    ("linear", 1.3, 600),
    ("tan", 0.5, 250),
    ("tan", -0.2, 1000),
    ("tan", 1.2, 500),
]


def _params(family, kappa, mass=1.0):
    return (linear_params(kappa, mass=mass) if family == "linear"
            else tan_params(kappa, mass=mass))


def _lattice_matrix(family, kappa, n, mass=1.0, L=None):
    params = _params(family, kappa, mass)
    grid = default_grid(params, n=n) if L is None else Grid(L, n)
    return assemble_dirac_matrix(params, grid)


def _schrodinger_matrix(family, kappa, n, sigma):
    params = _params(family, kappa)
    grid = default_grid(params, n=n)
    weff = effective_superpotential(params.superpotential, kappa, 1.3)
    return schrodinger_operator(weff, sigma, grid)


def _assert_matches_oracle(t, k_lo, k_hi):
    # oracle.eigen_bisect stops at width 1e-12 |lambda| + 4 eps ||T||; the
    # LAPACK values must lie within that, far inside 1e-10 ||T||
    scale = oracle.norm_bound(t)
    ks = np.arange(k_lo, k_hi + 1)
    got = _indexed_eigenvalues(t, ks)
    ref = oracle.eigen_bisect(t, k_lo, k_hi)
    tol = 1e-12 * np.abs(ref) + 8.0 * np.finfo(float).eps * scale
    assert np.all(np.abs(got - ref) <= tol)
    # a sparse selection picks the same levels
    assert np.all(np.abs(_indexed_eigenvalues(t, ks[1::2]) - ref[1::2]) <= tol[1::2])
    # the eigenvectors meet residual 1e-12 ||T||
    vecs = tridiagonal_eigenvectors(t, got)
    for j, lam in enumerate(got):
        assert np.linalg.norm(t.matvec(vecs[:, j]) - lam * vecs[:, j]) <= 1e-12 * scale


@pytest.mark.parametrize("family,kappa,n", LATTICE_CASES)
def test_indexed_eigenvalues_match_bisection_on_lattice_matrices(family, kappa, n):
    t = _lattice_matrix(family, kappa, n)
    assert 501 <= t.n <= 2001
    # the production window: levels either side of E = 0, then the bottom
    c0 = oracle.sturm_count(t, 0.0)
    _assert_matches_oracle(t, max(c0 - 3, 1), min(c0 + 4, t.n))
    _assert_matches_oracle(t, 1, 3)


@pytest.mark.parametrize("family,kappa,n", [("linear", 0.6, 800), ("tan", 0.5, 1500)])
@pytest.mark.parametrize("sigma", [-1, 1])
def test_indexed_eigenvalues_match_bisection_on_schrodinger_matrices(family, kappa, n, sigma):
    t = _schrodinger_matrix(family, kappa, n, sigma)
    assert 500 <= t.n <= 2000
    _assert_matches_oracle(t, 1, 6)


# (family, kappa, mass, grid.n, box half-width, eigenvalues below E = 0),
# pinned from oracle.sturm_count: the 2N+1 rows hold N levels of each sign
# and one unpaired level at E0 >= 0 (at E = 0 exactly when massless at
# kappa = 0, so the Sturm recurrence meets zero pivots on the zero diagonal);
# the supercritical linear lattice splits off-centre
COUNT_CASES = [
    ("linear", 0.0, 0.0, 2000, None, 2000),
    ("tan", 0.0, 0.0, 2000, None, 2000),
    ("linear", 0.0, 1.0, 2000, None, 2000),
    ("linear", 0.9, 1.0, 2000, None, 2000),
    ("tan", 0.9, 1.0, 2000, None, 2000),
    ("linear", -1.5, 1.0, 4572, 20.0, 4573),
    ("tan", 1.4, 1.0, 2000, None, 2000),
]


@pytest.mark.parametrize("family,kappa,mass,n,L,below", COUNT_CASES)
def test_lapack_count_matches_sturm_count_on_lattice_matrices(family, kappa, mass, n, L, below):
    t = _lattice_matrix(family, kappa, n, mass=mass, L=L)
    assert int(sturm_count(t, [0.0])[0]) == oracle.sturm_count(t, 0.0) == below


def test_lapack_count_pinned_examples():
    # a zero eigenvalue is not below 0: a plain <= count would give 2
    t = Tridiagonal(d=np.array([1.0, 0.0, -1.0]), e=np.zeros(2))
    assert np.array_equal(sturm_count(t, [0.0]), [1])
    one = Tridiagonal(d=np.array([5.0]), e=np.zeros(0))
    assert np.array_equal(sturm_count(one, [4.0, 5.0, 6.0]), [0, 0, 1])
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 80))
        t = Tridiagonal(d=rng.uniform(-3, 3, n), e=rng.uniform(-1, 1, n - 1))
        lams = rng.uniform(-4, 4, 5)
        assert sturm_count(t, lams).tolist() == [oracle.sturm_count(t, x) for x in lams]


def test_counts_below_takes_odd_and_even_numbers_of_lambdas(monkeypatch):
    # consecutive lambdas share one dlaebz interval, padded for an odd
    # number; 0 is an eigenvalue of diag(1, 0, -1) and not below 0
    sizes = []
    call = linalg._call

    def spy(name, *args):
        if name == "dlaebz":
            sizes.append(int(args[3][0]))
        return call(name, *args)

    monkeypatch.setattr(linalg, "_call", spy)
    t = Tridiagonal(d=np.array([1.0, 0.0, -1.0]), e=np.zeros(2))
    lams = [0.0, -1.0, 1.0, 2.0, -2.0, 0.5, -0.5, 0.0]
    for k in range(len(lams) + 1):
        assert sturm_count(t, lams[:k]).tolist() == [oracle.sturm_count(t, x) for x in lams[:k]]
    assert sizes == [(k + 1) // 2 for k in range(len(lams) + 1)]
    lattice = _lattice_matrix("linear", 0.4, 500)
    for k in (7, 8):
        lams = np.linspace(-3.0, 3.0, k)
        want = [oracle.sturm_count(lattice, x) for x in lams]
        assert sturm_count(lattice, lams).tolist() == want


# ------------------------------------------------- certified value windows


def _dstebz_ranges(monkeypatch):
    """The RANGE argument of every dstebz call made from here on, in order."""
    ranges = []
    call = linalg._call

    def spy(name, *args):
        if name == "dstebz":
            ranges.append(args[0][0].decode())
        return call(name, *args)

    monkeypatch.setattr(linalg, "_call", spy)
    return ranges


def _within_ulps(got, ref, ulps):
    return abs(got - ref) <= ulps * np.spacing(abs(ref))


# the reduced operators of the grids a CLI session solves on, and a lattice
WINDOW_MATRICES = {
    "linear-2000": lambda: _schrodinger_matrix("linear", 0.41, 2000, -1),
    "tan-1000": lambda: _schrodinger_matrix("tan", -0.37, 1000, 1),
    "lattice": lambda: _lattice_matrix("linear", 0.3, 250),
}


@pytest.mark.parametrize("case", list(WINDOW_MATRICES))
def test_certified_window_matches_the_index_search(case, monkeypatch):
    t = WINDOW_MATRICES[case]()
    first = oracle.sturm_count(t, 0.0) + 1 if case == "lattice" else 1
    ks = np.arange(first, first + 5)
    ref = _indexed_eigenvalues(t, ks)
    ranges = _dstebz_ranges(monkeypatch)
    for j, k in enumerate(ks[1:-1], start=1):
        # a window as tight as a root search's, and one out to the neighbours
        for lo, hi in ((ref[j] - 1e-9 * abs(ref[j]), ref[j] + 1e-9 * abs(ref[j])),
                       (0.5 * (ref[j - 1] + ref[j]), 0.5 * (ref[j] + ref[j + 1]))):
            ranges.clear()
            got = _indexed_eigenvalues(t, [k], window=(lo, hi))
            assert ranges == ["V"]
            assert _within_ulps(got[0], ref[j], 4), (k, got[0], ref[j])


def test_uncertified_windows_fall_back_to_the_index_search(monkeypatch):
    t = WINDOW_MATRICES["linear-2000"]()
    ref = _indexed_eigenvalues(t, np.arange(1, 6))
    gap = ref[2] - ref[1]
    k = 3
    windows = {
        "no eigenvalue": (ref[1] + 0.1 * gap, ref[2] - 0.1 * gap),
        "two eigenvalues": (0.5 * (ref[1] + ref[2]), 0.5 * (ref[3] + ref[4])),
        "wrong index": (0.5 * (ref[2] + ref[3]), 0.5 * (ref[3] + ref[4])),
        "empty": (ref[2] + 0.1 * gap, ref[2] - 0.1 * gap),
        "a point": (ref[2], ref[2]),
        "not finite": (-math.inf, ref[2] + 0.1 * gap),
    }
    # an index search's value depends on the index range it bisects
    alone = _indexed_eigenvalues(t, [k])
    ranges = _dstebz_ranges(monkeypatch)
    for name, window in windows.items():
        ranges.clear()
        got = _indexed_eigenvalues(t, [k], window=window)
        assert ranges == ["I"], name
        assert got[0] == alone[0], name


def test_window_whose_bisection_finds_two_eigenvalues_falls_back(monkeypatch):
    # the counts certify (1.5, 3) to hold eigenvalue 2 alone, since 3 is not
    # below 3; dstebz bisects (1.5, 3] and finds 2 and 3
    t = Tridiagonal(d=np.array([1.0, 2.0, 3.0]), e=np.zeros(2))
    assert sturm_count(t, [1.5, 3.0]).tolist() == [1, 2]
    ranges = _dstebz_ranges(monkeypatch)
    assert np.array_equal(_indexed_eigenvalues(t, [2], window=(1.5, 3.0)), [2.0])
    assert ranges == ["V", "I"]
    ranges.clear()
    assert np.array_equal(_indexed_eigenvalues(t, [2], window=(1.5, 2.5)), [2.0])
    assert ranges == ["V"]


# ------------------------------------------------- predicted eigenvalues


def _table_matrix():
    xs = np.linspace(-12.0, 12.0, 2401)
    tab = Superpotential.tabulated(xs, xs, np.ones_like(xs))
    params = PhysicalParams(mass=1.0, kappa=0.4, superpotential=tab)
    return assemble_dirac_matrix(params, Grid(half_width=12.0, n=800))


# the lattices the grids after a run's base grid are solved on
PREDICTED_MATRICES = {
    "linear": lambda: _lattice_matrix("linear", 0.4, 2000, L=30.0),
    "tan": lambda: _lattice_matrix("tan", -0.3, 1001),
    "massless": lambda: _lattice_matrix("linear", 0.0, 1000, mass=0.0),
    "table": _table_matrix,
}


def _levels_around_zero(t):
    c0 = int(sturm_count(t, [0.0])[0])
    return np.arange(c0 - 2, c0 + 4)


@pytest.mark.parametrize("case", list(PREDICTED_MATRICES))
def test_predicted_eigenvalues_match_the_index_search(case, monkeypatch):
    t = PREDICTED_MATRICES[case]()
    ks = _levels_around_zero(t)
    ref = _indexed_eigenvalues(t, ks)
    tol = 1e-12 * np.maximum(1.0, np.abs(ref))
    signs = np.where(np.arange(ks.size) % 2, 1.0, -1.0)
    routines = []
    call = linalg._call

    def spy(name, *args):
        routines.append(name)
        return call(name, *args)

    monkeypatch.setattr(linalg, "_call", spy)
    for rel in (0.0, 1e-6, 1e-4, 1e-3):
        routines.clear()
        found = _predicted_eigenvalues(t, ks, ref * (1.0 + rel * signs))
        assert found is not None, rel
        got, vecs = found
        assert np.all(np.abs(got - ref) <= tol), (rel, np.max(np.abs(got - ref) / tol))
        # the vectors are the eigenvectors of those values, in the same order
        assert vecs.shape == (t.n, ks.size)
        for j, lam in enumerate(got):
            assert np.linalg.norm(t.matvec(vecs[:, j]) - lam * vecs[:, j]) <= 1e-9 * max(1.0, abs(lam))
        # no bisection; a guess as close as a grid's prediction (1e-5 or
        # nearer) takes one inverse iteration and one Sturm count
        assert "dstebz" not in routines
        if rel <= 1e-6:
            assert routines == ["dstein", "dlaebz"], rel


def test_predictions_that_miss_return_none():
    t = PREDICTED_MATRICES["linear"]()
    ks = _levels_around_zero(t)
    ref = _indexed_eigenvalues(t, np.arange(ks[0], ks[-1] + 2))
    assert _predicted_eigenvalues(t, ks, ref[:-1]) is not None
    # one level off: the guesses of indices ks + 1
    assert _predicted_eigenvalues(t, ks, ref[1:]) is None
    nan = ref[:-1].copy()
    nan[2] = np.nan
    assert _predicted_eigenvalues(t, ks, nan) is None
    assert _predicted_eigenvalues(t, ks, ref[:-2]) is None
    assert _predicted_eigenvalues(t, ks, ref) is None
    assert _predicted_eigenvalues(t, [], []) is None
    # indices that skip one: two counts cannot place the level between
    assert _predicted_eigenvalues(t, ks[::2], ref[:-1:2]) is None


# two close eigenvalues, 1 and 1 + 1e-10, and two far ones
NEAR_PAIR = Tridiagonal(d=np.array([1.0, 1.0 + 1e-10, 3.0, 5.0]), e=np.zeros(3))


def test_two_counts_certify_the_whole_span(monkeypatch):
    counted = []
    counts_below = linalg.sturm_count

    def spy(t, lams):
        counted.append(len(lams))
        return counts_below(t, lams)

    monkeypatch.setattr(linalg, "sturm_count", spy)
    found = _predicted_eigenvalues(NEAR_PAIR, [1, 2, 3, 4], [0.9, 1.1, 2.9, 5.2])
    assert found is not None
    # inverse iteration cannot split the pair at 1 from shifts 0.1 away, but
    # its mixed vectors' Rayleigh quotients stay within 1e-11 of each level
    assert np.all(np.abs(found[0] - [1.0, 1.0 + 1e-10, 3.0, 5.0]) <= 1e-11)
    assert counted == [2]


def test_overlapping_residual_intervals_are_refused(monkeypatch):
    # both guesses' vectors converge to the pair at 1: e1 gives rho = 1 and
    # (e1 + e2)/sqrt(2) rho = 1 + 5e-11 with residual 5e-11. The intervals
    # overlap, while the counts read 0 below the lowest end and 2 below the
    # highest, as for two levels
    z = np.zeros((4, 2))
    z[0, 0] = 1.0
    z[:2, 1] = math.sqrt(0.5)
    monkeypatch.setattr(linalg, "tridiagonal_eigenvectors", lambda t, lams: z.copy())
    rho = [1.0, 1.0 + 5e-11]
    g = 2.0 * 5e-11
    assert sturm_count(NEAR_PAIR, [rho[0] - g, rho[1] + g]).tolist() == [0, 2]
    assert _predicted_eigenvalues(NEAR_PAIR, [1, 2], rho) is None


def test_a_span_count_off_by_one_is_refused():
    # the eigenvalues at 3 and 5 are levels 3 and 4, not 2 and 3 (nor 4 and 5)
    assert _predicted_eigenvalues(NEAR_PAIR, [3, 4], [3.0, 5.0]) is not None
    assert _predicted_eigenvalues(NEAR_PAIR, [2, 3], [3.0, 5.0]) is None
    wide = Tridiagonal(d=np.array([1.0, 2.0, 3.0, 5.0, 8.0]), e=np.zeros(4))
    assert _predicted_eigenvalues(wide, [3, 4], [3.0, 5.0]) is not None
    assert _predicted_eigenvalues(wide, [4, 5], [3.0, 5.0]) is None


def test_a_split_names_the_levels_its_count_reads(monkeypatch):
    # two eigenvalues lie under 2.0, so (1, 2) names indices 2..4, and the
    # one Sturm call that certifies them also reads that count
    counted = []
    counts_below = linalg.sturm_count

    def spy(t, lams):
        counted.append(len(lams))
        return counts_below(t, lams)

    monkeypatch.setattr(linalg, "sturm_count", spy)
    found = _predicted_eigenvalues(NEAR_PAIR, (1, 2), [1.0 + 1e-10, 3.0, 5.0], 2.0)
    assert found is not None and found[2] == 2 and counted == [3]
    assert np.all(np.abs(found[0] - [1.0 + 1e-10, 3.0, 5.0]) <= 1e-15)
    # (2, 1) names indices 1..3, which these guesses are not
    assert _predicted_eigenvalues(NEAR_PAIR, (2, 1), [1.0 + 1e-10, 3.0, 5.0], 2.0) is None
    # past the top of the spectrum a split names the levels it holds
    found = _predicted_eigenvalues(NEAR_PAIR, (1, 2), [3.0, 5.0], 4.0)
    assert found is not None and found[2] == 3
    assert _predicted_eigenvalues(NEAR_PAIR, (1, 2), [3.0, 5.0, 7.0], 4.0) is None


def test_rayleigh_quotients_out_of_index_order_are_refused():
    # guesses swapped: each vector converges, but rho descends along ks
    assert _predicted_eigenvalues(NEAR_PAIR, [3, 4], [5.0, 3.0]) is None


def test_lapack_path_pinned_examples():
    one = Tridiagonal(d=np.array([5.0]), e=np.zeros(0))
    assert np.array_equal(_indexed_eigenvalues(one, [1]), [5.0])
    assert np.array_equal(tridiagonal_eigenvectors(one, [5.0]), [[1.0]])
    assert _indexed_eigenvalues(laplacian(4), []).size == 0
    with pytest.raises(ValueError):
        _indexed_eigenvalues(laplacian(4), [3, 2])


def test_lapack_call_refuses_mistyped_arguments():
    # LAPACK sees only addresses: a wrong type or a strided array is refused
    # before the call, a right one solves [[2, 1], [1, 2]] x = (3, 3)
    def args(d):
        two, one = np.array([2], dtype=np.intc), np.array([1], dtype=np.intc)
        return two, one, np.ones(1), d, np.ones(1), np.full(2, 3.0), two.copy(), one.copy()

    with pytest.raises(TypeError):
        _call("dgtsv", *args(np.full(2, 2.0, dtype=np.float32)))
    with pytest.raises(TypeError):
        _call("dgtsv", *args(np.full(4, 2.0)[::2]))
    with pytest.raises(TypeError):
        _call("dgtsv", *args(np.full(2, 2.0))[:-1])
    good = args(np.full(2, 2.0))
    _call("dgtsv", *good)
    assert good[-1][0] == 0 and np.allclose(good[5], [1.0, 1.0], atol=1e-15)


def _readonly(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


def test_lapack_call_takes_arrays_the_buffer_protocol_refuses():
    """The buffer protocol gives no address for a read-only array, one that
    is not C-contiguous or an empty one; each reaches LAPACK by numpy's
    address instead, and solves as a writable C-ordered copy does."""
    ro = _readonly([1.0, 2.0])
    fortran = np.asfortranarray(np.arange(6.0).reshape(3, 2))
    empty = np.empty(0)
    writable = np.array([1.0, 2.0])
    for a in (ro, fortran, empty, writable):
        assert linalg._address(a) == a.ctypes.data
    # read-only d and e, as the lattice's cached bonds are
    t = _lattice_matrix("tan", 0.3, 200)
    frozen = Tridiagonal(_readonly(t.d), _readonly(t.e))
    copy = Tridiagonal(t.d.copy(), t.e.copy())
    assert frozen.e.flags.writeable is False and copy.e.flags.writeable
    c0 = int(sturm_count(copy, [0.0])[0])
    ks = np.arange(c0 - 1, c0 + 3)
    assert np.array_equal(sturm_count(frozen, [-1.0, 0.0, 1.0]),
                          sturm_count(copy, [-1.0, 0.0, 1.0]))
    vals = _indexed_eigenvalues(frozen, ks)
    assert vals.tobytes() == _indexed_eigenvalues(copy, ks).tobytes()
    assert np.array_equal(tridiagonal_eigenvectors(frozen, vals),
                          tridiagonal_eigenvectors(copy, vals))

    # a Fortran-ordered (3, 2) right-hand side of dgtsv, against its columns
    # laid out in one writable 1-D array: [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    def dgtsv(b, nrhs):
        n = np.array([3], dtype=np.intc)
        info = np.array([0], dtype=np.intc)
        _call("dgtsv", n, np.array([nrhs], dtype=np.intc), np.ones(2), np.full(3, 2.0),
              np.ones(2), b, n.copy(), info)
        assert info[0] == 0
        return b

    rhs = np.array([[4.0, 2.0], [8.0, 4.0], [8.0, 6.0]])
    b2d = dgtsv(np.asfortranarray(rhs), 2)
    b1d = dgtsv(rhs.ravel(order="F").copy(), 2)
    assert np.array_equal(b2d.ravel(order="F"), b1d)
    np.testing.assert_allclose(b2d[:, 0], [1.0, 2.0, 3.0], atol=1e-14)

    # n = 1: the off-diagonals hold no entry, an empty array or a spare one
    def one_by_one(off):
        b = np.array([6.0])
        one = np.array([1], dtype=np.intc)
        info = np.array([0], dtype=np.intc)
        _call("dgtsv", one, one.copy(), off.copy(), np.array([3.0]), off.copy(), b,
              one.copy(), info)
        assert info[0] == 0
        return b

    assert one_by_one(empty).tobytes() == one_by_one(np.zeros(1)).tobytes()
    assert one_by_one(empty).tolist() == [2.0]
    assert sturm_count(t, []).size == 0


def test_lattice_solve_leaves_scipy_linalg_unimported():
    """The LAPACK routines come from scipy's compiled module alone: importing
    scipy.linalg would add about 26 MB of peak RSS and 0.25 s per process.
    A linear and a tan run between them call every routine the package
    loads (the tan one also in its per-round participation ratios). Nor is
    numpy.random imported, about 6 MB more: eigenvectors start from
    dstein's own fixed vectors."""
    code = (
        "import sys\n"
        "from diracosc import linalg\n"
        "from diracosc.dirac_solver import converge_box_full, default_grid\n"
        "from diracosc.model import Grid, PhysicalParams, Superpotential\n"
        "params = PhysicalParams(mass=1.0, kappa=0.3,"
        " superpotential=Superpotential.linear(1.0))\n"
        "res = converge_box_full(params, 2, grid=Grid(half_width=10.0, n=300))\n"
        "assert res.records\n"
        "params = PhysicalParams(mass=1.0, kappa=0.3,"
        " superpotential=Superpotential.tangent(5.0))\n"
        "res = converge_box_full(params, 2, grid=default_grid(params, n=300))\n"
        "assert res.records and res.rounds >= 1\n"
        "assert sorted(linalg._ROUTINES) == ['dlaebz', 'dstebz', 'dstein']\n"
        "assert 'numpy.random' not in sys.modules\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracosc.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300, check=True,
    )
    assert "scipy.linalg" not in out.stdout.split()


def test_first_lapack_load_is_thread_safe():
    """Four threads make their first LAPACK call at once, in a fresh process
    that switches threads as often as the interpreter allows. Loading
    scipy's module in two threads at once used to leave one of them without
    the module's capsules (AttributeError) or refused as imported twice."""
    code = (
        "import sys, threading\n"
        "import numpy as np\n"
        "from diracosc import linalg\n"
        "t = linalg.Tridiagonal(np.arange(10.0), np.zeros(9))\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier = threading.Barrier(4)\n"
        "counts = []\n"
        "def first_count():\n"
        "    barrier.wait()\n"
        "    counts.append(int(linalg.sturm_count(t, [4.5])[0]))\n"
        "threads = [threading.Thread(target=first_count) for _ in range(4)]\n"
        "for th in threads:\n"
        "    th.start()\n"
        "for th in threads:\n"
        "    th.join()\n"
        "assert counts == [5, 5, 5, 5], counts\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracosc.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
