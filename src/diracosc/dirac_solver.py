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

Neither kappa nor the mass enters the bonds or W at the rows, so they are
sampled once per (superpotential, grid) and kept, read-only, in a small
cache (_chain): a sweep of couplings and masses over the ladder's few grids
samples W once per grid. Each matrix builds only its diagonal, kappa W +- m.

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
converge_box_full takes the energies from a ladder of grids on one box and
the states from the caller's grid. The ladder starts at a quarter of the
caller's grid and refines in place, N -> 2N + 1, so h halves a round. Each
(h, h/2) pair is Richardson-extrapolated, which leaves an O(h^4) error, and
the move between the last two rounds is each level's err_est (Richardson,
Phil. Trans. R. Soc. A 226 (1927) 299): 15 times the error left in the
reported value. In-place refinement cannot see a box that cuts a state, so
before the ladder runs a W unbounded on both sides (the linear family) grows
the box by half at the same h while some state of the ladder's first grid
holds more than tol of its weight in the outer 5% of the box (_EDGE), or
in the outermost row at each end where that share holds no other row. A
bounded domain keeps the caller's box.

Every grid's levels come from one inverse-iteration call at a guess of
them, certified by their residuals and two Sturm counts
(linalg._predicted_eigenvalues). The ladder's first grid, and each grown
box's, has no prediction: its guess is a bisection stopped at absolute width
_COARSE_TOL (1e-4), of the indices a first Sturm count splits at E = 0.
Each later rung has its levels predicted to O(h^2) by the rung before it,
and its one Sturm call both splits its spectrum and certifies the levels.
A predicted grid whose guess misses falls back to the coarse bisection, and
a grid whose coarse guess misses too to the full index search, with its
vectors from their own dstein call. Each fallback logs a
DEBUG record on this module's logger, with the grid's rows and the step that
missed. The grids are solved one after another on the calling thread.

The records need only the ladder, so the caller's grid is solved only when a
caller reads the run's states: one certified call on that grid at the
finest rung's levels carried to its spacing by the h^2 term, or, when the box
grew, at the coarse bisection, since a wider box's levels are no prediction
of the caller's. That call's vectors are the run's states. A run that solved
the caller's grid anyway, past the critical coupling, when the box would
grow past the cap, or when that grid is a rung of the ladder, holds its
states from the start. Results are cached by call, tabulated shapes
included, since a table compares by its samples.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, ResourceError
from .linalg import (
    Tridiagonal,
    _indexed_eigenvalues,
    _nearest_indices,
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
    Superpotential,
    eval_superpotential,
    level_labels,
    reduced_epsilon,
    require_whole_domain,
)

__all__ = [
    "assemble_dirac_matrix",
    "dirac_spectrum",
    "converge_box_full",
    "ConvergeResult",
    "eigenvalue_count_in_window",
    "edge_share",
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
# the share of the box, both ends together, where a state's weight above tol
# grows a box that can grow
_EDGE = 0.05


def default_grid(params: PhysicalParams, n: int = DEFAULT_N) -> Grid:
    """Desk-scale default lattice of n points: L=20 for the linear family,
    the widest box symmetric about 0 inside a table's range, and the clipped
    (-pi/2, pi/2) interval for the tangent family."""
    family = params.superpotential.family
    if family is Family.TANGENT:
        return Grid(HALF_PI, n)
    if family is Family.TABULATED:
        lo, hi = params.superpotential.domain
        return Grid(min(hi, -lo), n)
    return Grid(DEFAULT_L, n)


# a convergence run solves a few grids, the ladder's and the caller's, and a
# sweep over two families revisits them: an entry holds 4N floats, 64 KB at
# grid.n 2000 and 1 MB at the largest grid, DIM_CAP rows
@functools.lru_cache(maxsize=8)
def _chain(sp: Superpotential, grid: Grid):
    """(W at the 2N + 1 rows, the 2N bonds) of the chain on `grid`: the
    parts of the matrix that neither kappa nor the mass enters, as read-only
    arrays. Cached by (superpotential, grid), so that the couplings and
    masses of a sweep over a few grids sample W once per grid; a table keys
    by its samples. A refused grid raises again on every call.

    Raises DomainError on a tan box other than (-pi/2, pi/2), and if the grid
    leaves the superpotential's domain.
    """
    require_whole_domain(sp, grid)
    n = grid.n
    h = grid.h
    # row r sits at -L + (r+1) h/2 and bond k, between rows k and k+1, a
    # quarter spacing beyond row k; W is evaluated at rows and at bonds in two
    # calls, which halves the peak of the evaluation's temporaries. Both are
    # made once per cached grid, not once per matrix
    x = -grid.half_width + 0.5 * h * np.arange(1, 2 * n + 2)
    w = eval_superpotential(sp, x)[0]
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
    w.setflags(write=False)
    e.setflags(write=False)
    return w, e


def assemble_dirac_matrix(params: PhysicalParams, grid: Grid) -> Tridiagonal:
    """(2N+1) x (2N+1) real symmetric lattice operator of the odd staggered
    chain described above. The bonds and W at the rows come from the cached
    chain of the grid (_chain); each call scales W by kappa and adds +-m, so
    its diagonal is its own and its off-diagonal the shared read-only bonds.

    Raises DomainError on a tan box other than (-pi/2, pi/2), and if the grid
    leaves the superpotential's domain.
    """
    w, e = _chain(params.superpotential, grid)
    d = params.kappa * w
    d[0::2] += params.mass
    d[1::2] -= params.mass
    return Tridiagonal(d, e)


def _lattice_eigenvalues(params, grid, levels, guess=None):
    """The eigenvalues of n_sigma 0..levels-1, and their vectors: the
    `levels` smallest-|E| positive ones and the `levels` - 1 negative ones
    (the negative branch has no n_sigma 0).

    Returns (E_neg, E_pos, vectors); E_pos ascending (closest to zero
    first), E_neg descending (closest to zero first), and the vectors as
    columns in ascending order of E. The values and vectors come from one
    certified linalg._predicted_eigenvalues call at `guess`, another grid's
    (E_neg, E_pos), whose Sturm call also splits the spectrum at E = 0; or,
    with no guess or when it misses, from one at the values a range-I
    bisection gives to within _COARSE_TOL, after a Sturm count has split the
    spectrum for it. When that misses too, the values come from the
    full-accuracy index search and the vectors from one dstein call at them.
    Each fallback logs a DEBUG record.
    """
    t = assemble_dirac_matrix(params, grid)
    # zero modes go to the positive branch, which holds n_sigma 0
    split = -_zero_tol(params)
    nearest = (levels - 1, levels)
    found = None
    if guess is not None:
        g_neg, g_pos = guess
        found = _predicted_eigenvalues(t, nearest, np.concatenate([g_neg[::-1], g_pos]), split)
        if found is None:
            _log.debug("lattice grid of %d rows: the prediction missed; "
                       "bisecting to %g", t.n, _COARSE_TOL)
    if found is None:
        c0 = int(sturm_count(t, [split])[0])
        ks = _nearest_indices(t.n, c0, *nearest)
        found = _predicted_eigenvalues(t, ks, _indexed_eigenvalues(t, ks, abstol=_COARSE_TOL))
        if found is None:
            _log.debug("lattice grid of %d rows: the bisection to %g missed; "
                       "taking the full index search", t.n, _COARSE_TOL)
            vals = _indexed_eigenvalues(t, ks)
            found = vals, tridiagonal_eigenvectors(t, vals)
        found = (*found, c0)
    vals, vecs, c0 = found
    k_neg = min(c0, levels - 1)
    return vals[:k_neg][::-1], vals[k_neg:], vecs


def _zero_tol(params: PhysicalParams) -> float:
    """|E| below which an eigenvalue is a zero mode: the massless ground
    level comes out as +-1e-15 noise."""
    return 1e-11 * max(1.0, params.mass)


def _settled(err, values, tol):
    """The converged flag: the move between rounds is at most tol relative
    to max(|E|, 1)."""
    return err <= tol * np.maximum(np.abs(values), 1.0)


def _build_records(params, e_neg, e_pos, errs=(None, None), tol=None):
    """(record, slot) pairs of signed eigenvalue lists, one record per label
    view, sorted by (|E|, -branch, sigma).

    A record's slot (b, j) names its level's state in _states_for's
    (states_neg, states_pos): the j-th level from E = 0 of branch b, 0
    negative and 1 positive; the two label views of a level share it. errs
    holds each branch's move between the last two rounds, (err_neg, err_pos)
    parallel to the values, or None for a branch without one; a level is
    converged when _settled at tol.
    """
    # zero modes are snapped to 0, so that the record's sign check sees none
    snap = _zero_tol(params)
    pairs = []
    for b, branch, values, err in ((1, 1, e_pos, errs[1]), (0, -1, e_neg, errs[0])):
        flags = _settled(err, values, tol) if err is not None else [False] * len(values)
        # the j-th eigenvalue from E = 0 is the j-th level the branch holds
        held = (k for k in itertools.count() if level_labels(branch, k))
        for j, (raw, n_sigma) in enumerate(zip(values, held)):
            val = 0.0 if abs(float(raw)) <= snap else float(raw)
            flag = bool(flags[j])
            estimate = float(err[j]) if err is not None else None
            for sigma, n in level_labels(branch, n_sigma):
                record = SpectrumRecord(route="dirac", branch=branch, sigma=sigma, n=n, E=val,
                                        epsilon=reduced_epsilon(val, params.mass, params.kappa),
                                        converged=flag, err_est=estimate)
                pairs.append((record, (b, j)))
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


def _sampled(grid, found, slots):
    """The states at `slots`, _build_records' slot of each record, in order,
    from `found`, _lattice_eigenvalues' (E_neg, E_pos, vectors) on `grid`.
    Raises ConvergenceError when the grid holds fewer levels than the
    records, which the ladder's finer grids can hold."""
    states = _states_for(grid, *found)
    try:
        return tuple(states[b][j] for b, j in slots)
    except IndexError:
        raise ConvergenceError(
            f"the grid of {grid.n} points holds {len(states[0])} negative and "
            f"{len(states[1])} positive levels, fewer than the run reports") from None


def dirac_spectrum(params: PhysicalParams, grid: Grid, levels: int):
    """The eigenpairs of n_sigma 0..levels-1 on both branches on one grid,
    as (record, state) pairs in _build_records' order: sorted by |E|, one
    record per label view, and the two views of a level share one state.
    converged=False on every record: Richardson extrapolation and box
    convergence are converge_box_full's job.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    found = _lattice_eigenvalues(params, grid, levels)
    records, slots = zip(*_build_records(params, *found[:2]))
    return list(zip(records, _sampled(grid, found, slots)))


@dataclass(frozen=True)
class ConvergeResult:
    """converge_box_full output: records of n_sigma 0..levels-1 on both
    branches (converged flags and error estimates, the move between the last
    two rounds, set), the caller's base grid, and the number of refinement
    rounds actually run (0 past the critical coupling, and when the box would
    grow past the cap). Tuples, since results are cached and shared between
    callers.

    states, parallel to records, are sampled on the base grid. A run that
    solved that grid holds them from the start; any other solves it on the
    first read, from _source, and keeps them."""

    records: tuple
    base_grid: Grid
    rounds: int
    # (params, levels, guess) of the base grid's solve, and each record's slot
    _source: tuple = field(repr=False, compare=False)
    _slots: tuple = field(repr=False, compare=False)

    @functools.cached_property
    def states(self) -> tuple:
        params, levels, guess = self._source
        found = _lattice_eigenvalues(params, self.base_grid, levels, guess)
        return _sampled(self.base_grid, found, self._slots)


def _dim(grid: Grid) -> int:
    return 2 * grid.n + 1


def _richardson(coarse, fine):
    """(E_neg, E_pos) of an (h, h/2) pair combined as (4 E2 - E1)/3, which
    cancels the h^2 error term of the staggered scheme; a branch keeps the
    levels both grids hold."""
    out = []
    for c, f in zip(coarse, fine):
        k = min(len(c), len(f))
        out.append((4.0 * f[:k] - c[:k]) / 3.0)
    return tuple(out)


def _outer(grid: Grid, x, spacing: float) -> np.ndarray:
    """Where samples x, `spacing` apart, lie in the outer _EDGE of the box,
    both ends together, or are the outermost sample at either end, which is
    all that share holds once 2 spacing >= _EDGE L."""
    return np.abs(x) > min((1.0 - _EDGE) * grid.half_width, grid.half_width - 2.0 * spacing)


def _edge_weight(grid: Grid, vecs) -> np.ndarray:
    """Each column's weight in the _outer region of the box; row r of the
    chain sits at -L + (r+1) h/2."""
    x = -grid.half_width + 0.5 * grid.h * np.arange(1, _dim(grid) + 1)
    weight = vecs * vecs
    return weight[_outer(grid, x, 0.5 * grid.h)].sum(axis=0) / weight.sum(axis=0)


def edge_share(params: PhysicalParams, grid: Grid, state: SpinorState) -> float:
    """The share of a lattice state's weight that its box cuts: its weight on
    the grid's points in the region whose weight grows a linear box (_outer).
    0 on the tangent family, whose box is the domain's own walls."""
    if params.superpotential.family is Family.TANGENT:
        return 0.0
    weight = np.abs(state.psi1) ** 2 + np.abs(state.psi2) ** 2
    return float(weight[_outer(grid, grid.x, grid.h)].sum() / weight.sum())


def _widened(grid: Grid) -> Grid:
    """The box grown by half at the same spacing h."""
    m = round(1.5 * (grid.n + 1))
    return Grid(half_width=0.5 * grid.h * m, n=m - 1)


def converge_box_full(
    params: PhysicalParams,
    levels: int,
    tol: float = 1e-6,
    grid: Grid | None = None,
) -> ConvergeResult:
    """Refine the levels n_sigma 0..levels-1 on both branches, the set the
    other routes hold, until each is stationary or the ladder reaches
    DIM_CAP.

    The energies come from a ladder that starts at a quarter of the
    caller's grid, Grid(L, N0) with N0 + 1 = round((N + 1)/4), and refines
    in place, N -> 2N + 1, so that h halves a round. Every round's value is
    Richardson-extrapolated over an (h, h/2) pair, and a round is run only
    if its fine grid fits the dimension cap. A W unbounded on both sides
    (the linear family) first grows the ladder's base box by half, at the
    same h, while some state of it holds more than tol of its weight in the
    outer 5% of the box, never less than its outermost row at each end; a
    bounded domain (tangent, tabulated) keeps the caller's box.

    err_est is the move of a level between the last two rounds. The h^4
    error left after extrapolation shrinks 16-fold a round, so the move is
    15 times the error left in the reported value. A level is converged
    when err_est <= tol * max(|E|, 1). Levels still moving when rounds stop
    are classified unbound (converged=False), and so is every level when
    the box would have to grow past the cap.

    The states, ConvergeResult.states, come from the caller's grid, from
    one certified call at the ladder's finest values carried to its
    spacing, or at a bisection when the box grew. That call is made on the
    first read of the states, not here, unless the run solved the caller's
    grid anyway: as a rung of the ladder, when the box would grow past the
    cap, or past the critical coupling. At |kappa| >= 1, the rule of
    model.require_subcritical, no level is bound: the caller's grid's values
    are reported, unconverged with no error estimate, and no round runs.
    Raises ValueError unless levels >= 1 and 0 < tol < inf, and
    ResourceError unless the caller's h/2 grid, about the size of the
    ladder's second round, fits the dimension cap. Raises
    DomainError on a tan box other than (-pi/2, pi/2), and unless W runs
    from negative to positive across the caller's box, the assumption the
    level labels rest on.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
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
    return _converge_cached(params, levels, tol, base)


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


def _converge(params, levels, tol, base):
    """converge_box_full's ladder and the caller's grid, on checked and
    resolved arguments."""
    _require_sign_change(params, base)
    kept = {}

    def solve(grid, guess=None):
        # the caller's grid can be a rung of the ladder; it is solved once
        found = kept.get(grid) or _lattice_eigenvalues(params, grid, levels, guess)
        if grid == base:
            kept[base] = found
        return found

    values, errs, rounds, guess = None, (None, None), 0, None
    # at |kappa| >= 1 the spin matrix -sigma_z + i kappa sigma_x, eigenvalues
    # +-sqrt(1 - kappa^2), is defective or imaginary: no level is bound,
    # whatever W is, and no ladder runs
    if abs(params.kappa) < 1.0:
        grid = Grid(base.half_width, max(round((base.n + 1) / 4) - 1, 3))
        e_neg, e_pos, vecs = solve(grid)
        lo, hi = params.superpotential.domain
        while math.isinf(lo) and math.isinf(hi) and np.any(_edge_weight(grid, vecs) > tol):
            grid = _widened(grid)
            if _dim(grid.refined()) > DIM_CAP:
                break
            e_neg, e_pos, vecs = solve(grid)
        else:
            # reached unless the box had to grow past the cap
            values, errs, rounds, finest = _ladder(solve, grid, (e_neg, e_pos), tol, base.h)
            # a wider box's levels are no prediction of the caller's
            if grid.half_width == base.half_width:
                guess = finest
    if values is None:
        values = solve(base)[:2]
    records, slots = zip(*_build_records(params, *values, errs, tol))
    result = ConvergeResult(records=records, base_grid=base, rounds=rounds,
                            _source=(params, levels, guess), _slots=slots)
    if base in kept:
        # solved on the way: its states cost no second solve
        object.__setattr__(result, "states", _sampled(base, kept[base], slots))
    return result


def _ladder(solve, grid, coarse, tol, h):
    """Refine in place from `grid`, whose (E_neg, E_pos) is `coarse`, until
    every level is _settled at tol or the next grid passes DIM_CAP; each
    grid is solved by solve(grid, guess) from the levels of the one before
    it, which are off by O(h^2). Returns (values, errs, rounds, finest): the
    last round's extrapolated values, their move since the round before
    ((None, None) before round 1), the rounds run, and the finest grid's
    (E_neg, E_pos) carried to spacing h by their h^2 term."""
    grid = grid.refined()
    fine = solve(grid, coarse)[:2]
    values, errs, rounds = _richardson(coarse, fine), (None, None), 0
    while _dim(grid.refined()) <= DIM_CAP:
        grid = grid.refined()
        coarse, fine = fine, solve(grid, fine)[:2]
        new = _richardson(coarse, fine)
        rounds += 1
        # a branch keeps the levels that both rounds hold
        spans = [min(len(a), len(b)) for a, b in zip(values, new)]
        errs = tuple(np.abs(b[:k] - a[:k]) for a, b, k in zip(values, new, spans))
        values = tuple(b[:k] for b, k in zip(new, spans))
        if all(_settled(e, v, tol).all() for e, v in zip(errs, values)):
            break
    scale = (h / grid.h) ** 2
    return values, errs, rounds, tuple(v + scale * (f[: len(v)] - v) for v, f in zip(values, fine))


# a few entries: a session revisits the configuration it is working on, and
# an entry whose states were read holds them, about 1 MB at grid.n 2000
_converge_cached = functools.lru_cache(maxsize=4)(_converge)


def eigenvalue_count_in_window(
    params: PhysicalParams, grid: Grid, lo: float, hi: float
) -> int:
    """Exact lattice eigenvalue count in [lo, hi) by the LAPACK Sturm count
    (used by the fermion-doubling audit: doublers would double it)."""
    t = assemble_dirac_matrix(params, grid)
    below_lo, below_hi = sturm_count(t, [lo, hi])
    return int(below_hi - below_lo)
