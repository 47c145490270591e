"""Direct lattice route: assemble the first-order Dirac operator as a real
symmetric matrix and diagonalize it. This is the model-independent oracle the
closed-form and SUSY routes are validated against.

Gauge and storage
-----------------
Multiplying the lower spinor component by the imaginary unit turns the complex
operator sigma_x p - sigma_y W + m sigma_z + U into the real block form

    [[ m+U,  W - d/dx ],
     [ W + d/dx, -m+U ]]

The two components live on staggered sites (Susskind, Phys. Rev. D 16 (1977)
3031): lower components at the grid points x_i, upper components half a
spacing either side. On the grid x_i = -L + i h, i = 1..N, the unknowns run
as the odd chain

    u_1/2, l_1, u_3/2, l_2, ..., l_N, u_N+1/2        (2N+1 rows)

with u_k+1/2 at x_k + h/2. Each derivative is a centred difference across one
bond, so the matrix is a plain symmetric tridiagonal:

    diagonal  m + U at upper sites, -m + U at lower sites
    bonds     (u_i-1/2, l_i) = W/2 - s,  (l_i, u_i+1/2) = W/2 + s,
              W at the bond midpoint x_i -+ h/4,  s = sqrt(1/h^2 + W^2/4)

For W h << 1 the bonds are the midpoint stencil W/2 -+ 1/h up to O(W^2 h^2),
even in h, so the error is O(h^2); since s > |W|/2 no bond ever vanishes or
changes sign, not even at the tangent family's walls where W blows up. The
scheme has no fermion doublers. With W(-L) < 0 < W(L) both ends of the chain
carry the strong bond, so there is no edge state, and the odd row count leaves
exactly one unpaired level (+E0 for w1 > 0 or alpha0 > 0). Output spinors
are gauge restored on the grid points: psi1 = the mean of the two upper
neighbours, psi2 = -i * lower.

Level labels
------------
Lattice eigenvalues carry no quantum numbers. Each branch's eigenvalues,
closest to E = 0 first, take the n_sigma values that branch holds, in order
(model.level_labels: 0, 1, 2, ... for E > 0 and 1, 2, ... for E < 0), and
each level with n_sigma = k >= 1 is reported under both of its labels
(sigma=-1, n=k) and (sigma=+1, n=k-1) - one physical state, two bookkeeping
views - so degeneracy pairing works uniformly across routes. The labels
never consult a level law, so certified families, tabulated shapes and
supercritical couplings are labelled alike; the rule assumes
W(-L) < 0 < W(L), which puts the unpaired level on the positive branch, and
converge_box_full refuses a box where it fails.

Refinement
----------
converge_box_full extrapolates each grid's levels over its (h, h/2) pair,
which leaves an O(h^4) error, and runs rounds on one grid rule: L -> widen L
and N -> 2N + 1. The linear family's box widens by half (widen 1.5), so a
round moves both the box error and the h^4 error (h shrinks by 3/4); a
bounded domain is refined in place (widen 1, h halves). The move between the
last two rounds is each level's err_est (Richardson, Phil. Trans. R. Soc. A
226 (1927) 299): about 2.2 (linear) or 15 (in place) times the error left
in the reported value.

Every grid's levels come from one inverse-iteration call at a guess of
them, certified by their residuals and two Sturm counts
(linalg._predicted_eigenvalues). A run solves its base grid first, alone:
its guess is a bisection stopped at absolute width _COARSE_TOL (1e-4), and
the same call's vectors are the run's states. The grids after it have their
levels predicted to O(h^2) by the finest grid solved before them, and fall
back to the coarse bisection only when a prediction misses: when the box
widens past where the levels have settled (linear kappa 0.999 at L = 20, or
a box of L = 3). A grid whose coarse guess misses too takes the full index
search, and its vectors their own dstein call. Each fallback logs a DEBUG
record on this module's logger, with the grid's rows and the step that
missed.

A run knows several of those grids at once: the base grid's h/2 grid and
round 1's pair, since round 1 runs whenever its pair fits the dimension
cap, and then each later round's new grids (two when the box widens, one
in place). These are solved concurrently. The calling thread solves the
largest and a pool of helper threads, one fewer than the CPUs the process
may run on, the rest; LAPACK releases the GIL while it works. Each solve is
deterministic and depends on its own grid and its prediction alone, so
records, states and rounds are those of solving the grids one after
another, which is what a process on one CPU does. Results are cached by
call, tabulated shapes included, since a table compares by its samples.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .linalg import (
    Tridiagonal,
    _indexed_eigenvalues,
    _predicted_eigenvalues,
    sturm_count,
    tridiagonal_eigenvectors,
)
from .model import (
    Family,
    Grid,
    HALF_PI,
    PhysicalParams,
    SpectrumRecord,
    SpinorState,
    build_grid,
    eval_superpotential,
    level_labels,
    require_whole_domain,
)

__all__ = [
    "assemble_dirac_matrix",
    "dirac_spectrum",
    "converge_box_full",
    "ConvergeResult",
    "eigenvalue_count_in_window",
    "default_grid",
]

_log = logging.getLogger(__name__)

DEFAULT_N = 4000
DEFAULT_L = 20.0
# largest lattice dimension 2N+1 solved; it also ends the refinement loop
DIM_CAP = 65536
# absolute width to which a grid without a prediction is bisected before
# inverse iteration: 1e-2 leaves dstein a second call and 1e-6 bisects longer
_COARSE_TOL = 1e-4


def default_grid(params: PhysicalParams, n: int = DEFAULT_N, L: float | None = None) -> Grid:
    """Desk-scale default lattice: L=20, N=4000 for unbounded families;
    the clipped (-pi/2, pi/2) interval with N=4000 for the tangent family."""
    family = params.superpotential.family
    if family is Family.TANGENT:
        return build_grid(HALF_PI, n, family)
    if family is Family.TABULATED:
        lo, hi = params.superpotential.domain
        half = min(hi, -lo)
        return build_grid(half if L is None else min(L, half), n, family)
    return build_grid(DEFAULT_L if L is None else L, n, family)


def assemble_dirac_matrix(params: PhysicalParams, grid: Grid) -> Tridiagonal:
    """(2N+1) x (2N+1) real symmetric lattice operator of the odd staggered
    chain described above.

    Raises DomainError if the grid leaves the superpotential's domain.
    """
    n = grid.n
    h = grid.h
    sp = params.superpotential
    # row r sits at -L + (r+1) h/2 and bond k, between rows k and k+1, a
    # quarter spacing beyond row k; W is evaluated at rows and at bonds in two
    # calls, which halves the peak of the evaluation's temporaries
    x = -grid.half_width + 0.5 * h * np.arange(1, 2 * n + 2)
    d = params.kappa * eval_superpotential(sp, x)[0]
    d[0::2] += params.mass
    d[1::2] -= params.mass
    x = x[:-1] + 0.25 * h
    half_w = 0.5 * eval_superpotential(sp, x)[0]
    del x
    # bond a + sigma s with a = W/2, sigma = -1 at even k and +1 at odd k.
    # Where sigma a < 0 it would cancel; (a + sigma s)(a - sigma s) = -1/h^2
    # gives it as -1/(h^2 (a - sigma s)) instead
    sigma_s = np.hypot(1.0 / h, half_w)
    sigma_s[0::2] *= -1.0
    e = np.where(
        half_w * sigma_s >= 0.0,
        half_w + sigma_s,
        -1.0 / (h * h * (half_w - sigma_s)),
    )
    return Tridiagonal(d, e)


def _lattice_eigenvalues(params, grid, count, guess=None):
    """The `count` smallest-|E| eigenvalues of each sign, and their vectors.

    Returns (E_neg, E_pos, vectors); E_pos ascending (closest to zero
    first), E_neg descending (closest to zero first), and the vectors as
    columns in ascending order of E. The values and vectors come from one
    certified linalg._predicted_eigenvalues call at `guess`, another grid's
    (E_neg, E_pos), or, with no guess or when it misses, at the values a
    range-I bisection gives to within _COARSE_TOL. When that misses too, the
    values come from the full-accuracy index search and the vectors from one
    dstein call at them. Each fallback logs a DEBUG record.
    """
    t = assemble_dirac_matrix(params, grid)
    # zero modes go to the positive branch, which holds n_sigma 0
    c0 = int(sturm_count(t, [-_zero_tol(params)])[0])
    k_neg = np.arange(max(c0 - count + 1, 1), c0 + 1, dtype=np.int64)
    k_pos = np.arange(c0 + 1, min(c0 + count, t.n) + 1, dtype=np.int64)
    ks = np.concatenate([k_neg, k_pos])
    found = None
    if guess is not None:
        g_neg, g_pos = guess
        found = _predicted_eigenvalues(t, ks, np.concatenate([g_neg[::-1], g_pos]))
        if found is None:
            _log.debug("lattice grid of %d rows: the prediction missed; "
                       "bisecting to %g", t.n, _COARSE_TOL)
    if found is None:
        found = _predicted_eigenvalues(t, ks, _indexed_eigenvalues(t, ks, abstol=_COARSE_TOL))
        if found is None:
            _log.debug("lattice grid of %d rows: the bisection to %g missed; "
                       "taking the full index search", t.n, _COARSE_TOL)
            vals = _indexed_eigenvalues(t, ks)
            found = vals, tridiagonal_eigenvectors(t, vals)
    vals, vecs = found
    return vals[: k_neg.size][::-1], vals[k_neg.size :], vecs


def _zero_tol(params: PhysicalParams) -> float:
    """|E| below which an eigenvalue is a zero mode: the massless ground
    level comes out as +-1e-15 noise."""
    return 1e-11 * max(1.0, params.mass)


def _epsilon_of(E: float, params: PhysicalParams) -> float:
    omk = 1.0 - params.kappa**2
    if omk <= 0.0:
        return math.nan
    return E * E / omk - params.mass**2


def _settled(err, values, tol):
    """The converged flag: the move between rounds is at most tol relative
    to max(|E|, 1)."""
    return err <= tol * np.maximum(np.abs(values), 1.0)


def _build_records(params, e_neg, e_pos, states, errs=(None, None), tol=None):
    """(record, state) pairs of signed eigenvalue lists, one record per label
    view, sorted by (|E|, -branch, sigma).

    states holds each branch's states, (states_neg, states_pos) parallel to
    the values as _states_for returns them; the two label views of a level
    share its state. errs holds each branch's move between the last two
    rounds, (err_neg, err_pos) parallel to the values, or None for a branch
    without one; a level is converged when _settled at tol.
    """
    # zero modes are snapped to 0, so that the record's sign check sees none
    snap = _zero_tol(params)
    pairs = []
    for branch, values, branch_states, err in ((1, e_pos, states[1], errs[1]),
                                               (-1, e_neg, states[0], errs[0])):
        flags = _settled(err, values, tol) if err is not None else [False] * len(values)
        # the j-th eigenvalue from E = 0 is the j-th level the branch holds
        held = (k for k in itertools.count() if level_labels(branch, k))
        for j, (raw, n_sigma, state) in enumerate(zip(values, held, branch_states)):
            val = 0.0 if abs(float(raw)) <= snap else float(raw)
            flag = bool(flags[j])
            estimate = float(err[j]) if err is not None else None
            for sigma, n in level_labels(branch, n_sigma):
                record = SpectrumRecord(route="dirac", branch=branch, sigma=sigma, n=n, E=val,
                                        epsilon=_epsilon_of(val, params), converged=flag,
                                        err_est=estimate)
                pairs.append((record, state))
    pairs.sort(key=lambda pair: (abs(pair[0].E), -pair[0].branch, pair[0].sigma))
    return pairs


def _states_for(grid, e_neg, e_pos, vecs):
    """Each branch's states, (states_neg, states_pos) parallel to e_neg and
    e_pos: the eigenvectors on the grid points (upper component averaged over
    its two neighbours), gauge restored and normalized. `vecs` holds them as
    columns in ascending order of E, as _lattice_eigenvalues returns them."""
    lams = np.concatenate([np.asarray(e_neg)[::-1], np.asarray(e_pos)])
    states = []
    for col, lam in enumerate(lams):
        z = vecs[:, col]
        psi1 = (0.5 * (z[0:-1:2] + z[2::2])).astype(complex)
        psi2 = -1j * z[1::2]
        states.append(SpinorState.from_samples(lam, psi1, psi2, grid))
    k = len(e_neg)
    return states[:k][::-1], states[k:]


def dirac_spectrum(params: PhysicalParams, grid: Grid, count: int):
    """The `count` smallest-|E| eigenpairs of each sign on one grid, as
    _build_records' (record, state) pairs: sorted by |E|, one record per
    label view, and the two views of a level share one state.
    converged=False on every record: Richardson extrapolation and box
    convergence are converge_box_full's job.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    e_neg, e_pos, vecs = _lattice_eigenvalues(params, grid, count)
    return _build_records(params, e_neg, e_pos, _states_for(grid, e_neg, e_pos, vecs))


@dataclass(frozen=True)
class ConvergeResult:
    """converge_box_full output: records (converged flags and error estimates,
    the move between the last two rounds, set), states sampled on the
    caller's base grid, that grid, and the number of refinement rounds
    actually run (0 past the critical coupling). Tuples, since results are
    cached and shared between callers."""

    records: tuple
    states: tuple
    base_grid: Grid
    rounds: int


def _dim(grid: Grid) -> int:
    return 2 * grid.n + 1


def _richardson_levels(grid, count, solved):
    """(E_neg, E_pos) on the (h, h/2) pair combined as (4 E2 - E1)/3, which
    cancels the h^2 error term of the staggered scheme. `solved` maps a grid
    to its (E_neg, E_pos) and holds both grids of the pair."""
    (c_neg, c_pos), (f_neg, f_pos) = solved[grid], solved[grid.refined()]
    k = min(len(c_neg), len(f_neg), count)
    j = min(len(c_pos), len(f_pos), count)
    return (4.0 * f_neg[:k] - c_neg[:k]) / 3.0, (4.0 * f_pos[:j] - c_pos[:j]) / 3.0


def converge_box_full(
    params: PhysicalParams,
    count: int,
    tol: float = 1e-6,
    grid: Grid | None = None,
) -> ConvergeResult:
    """Refine until every level is stationary or the rounds reach DIM_CAP.

    Every round takes the grid Grid(widen * L, 2N + 1), so N + 1 doubles:
    a W unbounded on both sides (the linear family) widens the box by half
    (widen 1.5), which shrinks h by 3/4, and a bounded domain (tangent,
    tabulated) is refined in place (widen 1), which halves h. Every round's
    value is Richardson-extrapolated over an (h, h/2) pair, and a round is
    run only if its whole pair fits the dimension cap. The base grid is
    solved first, from a bisection to 1e-4 refined by one certified
    inverse-iteration call, which also gives the states; its h/2 grid and
    round 1's pair are then solved concurrently from its predictions, as
    are each later round's new grids from the last round's fine grid (see
    the module docstring); the results are those of solving them one after
    another.

    err_est is the move of a level between the last two rounds. Both its box
    error and its h^4 error shrink between rounds, the latter by r^4 for h
    shrinking by r, so the move is (1 - r^4)/r^4 times the error left in the
    reported value: 175/81, about 2.2, with the box widened and 15 in place.
    A level is converged when err_est <= tol * max(|E|, 1). Levels still
    moving when rounds stop are classified unbound (converged=False). At
    |kappa| >= 1, the rule of model.require_subcritical, no level is bound:
    the base grid's values are reported, unconverged with no error estimate,
    and no round runs. Raises ValueError unless count >= 1 and
    0 < tol < inf, and ResourceError unless the base grid's h/2 grid fits
    the dimension cap. Raises DomainError on a tan box other than
    (-pi/2, pi/2), and unless W runs from negative to positive across the
    base box, the assumption the level labels rest on.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    base = grid if grid is not None else default_grid(params)
    require_whole_domain(params.superpotential, base)
    fine = _dim(base.refined())
    if fine > DIM_CAP:
        raise ResourceError(
            f"h/2 grid of the initial grid, 2N+1 = {fine}, exceeds the dimension cap {DIM_CAP}")
    # positional and with its defaults resolved, so that equivalent calls
    # share one cache key
    return _converge_cached(params, count, tol, base)


def _require_sign_change(params: PhysicalParams, grid: Grid) -> None:
    """The labelling rule's assumption W(-L) < 0 < W(L), checked at the end
    sites of the chain, -L + h/2 and L - h/2. Without it the unpaired level
    sits against a box wall, a state of the box that refinement can flag
    converged. Raises DomainError."""
    edge = grid.half_width - 0.5 * grid.h
    w_lo, w_hi = eval_superpotential(params.superpotential, np.array([-edge, edge]))[0]
    if not w_lo < 0.0 < w_hi:
        raise DomainError(
            f"W must run from negative to positive across the box, got "
            f"W({-edge:.6g}) = {w_lo:.6g} and W({edge:.6g}) = {w_hi:.6g}"
        )


def _converge(params, count, tol, base):
    """converge_box_full's refinement loop, on checked and resolved arguments."""
    _require_sign_change(params, base)
    if not abs(params.kappa) < 1.0:
        # the spin matrix -sigma_z + i kappa sigma_x, eigenvalues +-sqrt(1 -
        # kappa^2), is defective or imaginary: no level is bound, whatever W is
        records, states = zip(*dirac_spectrum(params, base, count))
        return ConvergeResult(records=records, states=states, base_grid=base, rounds=0)
    lo, hi = params.superpotential.domain
    widen = 1.5 if math.isinf(lo) and math.isinf(hi) else 1.0

    def round_grid(grid):
        # N + 1 doubles, so h shrinks by widen/2 and the h^4 error moves
        # between rounds along with the box error
        return Grid(half_width=widen * grid.half_width, n=2 * grid.n + 1)

    def fits(grid):
        # each round must afford its full (h, h/2) pair: a single grid would
        # fold discretization error into the inter-round delta. N at least
        # doubles every round, so this ends every run
        return _dim(grid.refined()) <= DIM_CAP

    # the base grid is solved alone, and its vectors serve the states;
    # every later grid is predicted from the grids solved before it
    e_neg, e_pos, vecs = _lattice_eigenvalues(params, base, count)
    solved = {base: (e_neg, e_pos)}
    states = _states_for(base, e_neg, e_pos, vecs)
    nxt = round_grid(base)
    # round 1 runs whenever it fits, so its pair is solved along with the
    # base grid's h/2 grid
    _solve_pairs(params, count, [base, nxt] if fits(nxt) else [base], solved)
    levels = _richardson_levels(base, count, solved)
    errs = (None, None)
    rounds = 0
    while fits(nxt):
        _solve_pairs(params, count, [nxt], solved)
        new = _richardson_levels(nxt, count, solved)
        rounds += 1
        # a branch keeps the levels that both rounds hold
        spans = [min(len(a), len(b)) for a, b in zip(levels, new)]
        errs = tuple(np.abs(b[:k] - a[:k]) for a, b, k in zip(levels, new, spans))
        levels = tuple(b[:k] for b, k in zip(new, spans))
        if all(_settled(e, v, tol).all() for e, v in zip(errs, levels)):
            break
        nxt = round_grid(nxt)

    records, states = zip(*_build_records(params, *levels, states, errs, tol))
    return ConvergeResult(records=records, states=states, base_grid=base, rounds=rounds)


def _solve_pairs(params, count, grids, solved):
    """Solve the (h, h/2) pairs of `grids` into `solved`, which maps a grid
    to its (E_neg, E_pos) and holds at least the base grid. A grid already
    there is not solved again: a box that is not widened is refined in place,
    so a round's coarse grid is the previous round's fine one. The finest
    grid solved so far predicts the levels of the new ones, which are off
    from it by O(h^2) (_lattice_eigenvalues' `guess`).

    The new grids are independent and each solve is deterministic, so they
    run concurrently (_run_all), largest first, with the results they would
    have one after another."""
    new = dict.fromkeys(g for grid in grids for g in (grid, grid.refined()) if g not in solved)
    new = sorted(new, key=_dim, reverse=True)
    guess = solved[max(solved, key=_dim)]

    def task(grid):
        return _lattice_eigenvalues(params, grid, count, guess)[:2]

    solved.update(zip(new, _run_all([functools.partial(task, g) for g in new])))


@functools.cache
def _helpers():
    """The executor whose threads help the calling one, made on first use,
    or None when the process may run on one CPU only. It holds one thread
    fewer than the CPUs the process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return None
    # imported here, so that importing the package does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(cpus - 1, thread_name_prefix="diracosc")


# a forked child has a copy of its parent's executor but none of its
# threads, so it makes its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helpers.cache_clear)


def _run_all(tasks):
    """Results of the zero-argument callables `tasks`, in order. The calling
    thread runs the first, the helper threads the rest; LAPACK releases the
    GIL, so they run in parallel. If a task raises, the tasks not yet started
    are dropped and the running ones waited for before the exception
    propagates, so that no solve outlives the call. With no helper the tasks
    run one after another."""
    pool = _helpers() if len(tasks) > 1 else None
    if pool is None:
        return [task() for task in tasks]
    futures = [pool.submit(task) for task in tasks[1:]]
    try:
        return [tasks[0]()] + [future.result() for future in futures]
    except BaseException:
        for future in futures:
            if not future.cancel():
                future.exception()
        raise


# a few entries: a session revisits the configuration it is working on, and
# each entry holds its states, about 1 MB at grid.n 2000
_converge_cached = functools.lru_cache(maxsize=4)(_converge)


def eigenvalue_count_in_window(
    params: PhysicalParams, grid: Grid, lo: float, hi: float
) -> int:
    """Exact lattice eigenvalue count in [lo, hi) by the LAPACK Sturm count
    (used by the fermion-doubling audit: doublers would double it)."""
    t = assemble_dirac_matrix(params, grid)
    below_lo, below_hi = sturm_count(t, [lo, hi])
    return int(below_hi - below_lo)
