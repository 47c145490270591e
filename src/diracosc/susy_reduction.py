"""Reduction of the two-component first-order problem to partner Schrodinger
problems, and the inverse (spinor reconstruction).

Chain: the spin matrix -sigma_z + i kappa sigma_x has eigenvalues
lambda = sigma sqrt(1-kappa^2). Projecting onto an eigenvector chi decouples
the system into a scalar second-order equation

    (p^2 + Weff^2 + sigma * Weff') phi = epsilon phi,

where the effective superpotential absorbs the coupling and the energy,

    Weff(x) = sqrt(1-kappa^2) * (W(x) + kappa E / (1-kappa^2)),

and epsilon = E^2/(1-kappa^2) - m^2. Because Weff depends on E, the level
condition  epsilon_n(Weff(E)) = E^2/(1-kappa^2) - m^2  is nonlinear in E;
solve_nonlinear_level finds each root on two nested grids by one search:
Newton steps from a seed, with the slope from the Hellmann-Feynman theorem,
guarded by the first sign-change bracket they find (a bracket widened around
the seed when they leave its reach). Each evaluation of epsilon_n bisects a
window predicted from the last one. This route needs no closed form, so it
generalizes beyond the certified families; on them it must reproduce the
closed-form levels, which is the cross-check the package leans on.

Everything here refuses |kappa| >= 1: the spin matrix becomes defective at
the critical coupling and its eigenvalues go imaginary beyond, so no
reduction exists (consistent with the absence of bound states there).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .dirac_solver import default_grid
from .errors import (
    BracketError,
    DegenerateStateError,
    NoRealEnergyError,
)
from .linalg import Tridiagonal, _indexed_eigenvalues, tridiagonal_eigenvectors
from .model import (
    Family,
    Grid,
    PhysicalParams,
    SpectrumRecord,
    SpinorState,
    Superpotential,
    eval_superpotential,
    require_subcritical,
    require_whole_domain,
)

__all__ = [
    "SpinEigenpair",
    "spin_eigensystem",
    "EffectiveSuperpotential",
    "effective_superpotential",
    "epsilon_from_E",
    "E_from_epsilon",
    "schrodinger_operator",
    "squared_form_potential",
    "solve_nonlinear_level",
    "reconstruct_spinor",
    "susy_state",
]


@dataclass(frozen=True)
class SpinEigenpair:
    """Eigenpair of the non-Hermitian spin matrix -sigma_z + i kappa sigma_x.

    lam = sigma * sqrt(1-kappa^2); chi has unit Euclidean norm with its
    dominant component rotated to the positive real axis. The two chi are
    not orthogonal (the matrix is not Hermitian) and nothing here assumes
    they are.
    """

    sigma: int
    lam: float
    chi: np.ndarray

    def __post_init__(self):
        self.chi.setflags(write=False)


def spin_eigensystem(kappa: float) -> tuple[SpinEigenpair, SpinEigenpair]:
    """Both eigenpairs of -sigma_z + i kappa sigma_x, sigma=+1 first.

    Raises CriticalFieldError for |kappa| >= 1.
    """
    omk = require_subcritical(kappa)
    out = []
    for sigma in (1, -1):
        lam = sigma * math.sqrt(omk)
        # (-sigma_z + i kappa sigma_x) (a, b) = lam (a, b) reads
        # -a + i kappa b = lam a; the unnormalized solution is
        # (i kappa, 1 + lam), degenerating to the sigma_z eigenvectors at
        # kappa = 0 where 1 + lam can vanish.
        if kappa == 0.0:
            chi = np.array([0.0 + 0.0j, 1.0 + 0.0j] if sigma == 1 else [1.0 + 0.0j, 0.0 + 0.0j])
        else:
            chi = np.array([1j * kappa, 1.0 + lam], dtype=complex)
        chi = chi / np.linalg.norm(chi)
        k = int(np.argmax(np.abs(chi)))
        phase = chi[k] / abs(chi[k])
        chi = chi / phase
        out.append(SpinEigenpair(sigma=sigma, lam=lam, chi=chi))
    return out[0], out[1]


@dataclass(frozen=True)
class EffectiveSuperpotential:
    """The energy-instantiated superpotential Weff = scale * W + offset of the
    reduced problem, scale = sqrt(1-kappa^2), offset = kappa E/sqrt(1-kappa^2).
    On the certified families this is the paper's form: the linear
    W = w1 x gives Weff = slope (x + x0), with slope = scale w1 and
    x0 = kappa E/(w1 (1-kappa^2)), and the trigonometric W = alpha0 tan x
    gives Weff = alpha tan x + beta, with alpha = scale alpha0 and
    beta = offset."""

    base: Superpotential
    scale: float
    offset: float

    def values(self, x):
        """(Weff(x), Weff'(x)) from one evaluation of W."""
        w, wp = eval_superpotential(self.base, x)
        return self.scale * w + self.offset, self.scale * wp


def effective_superpotential(
    sp: Superpotential, kappa: float, E: float
) -> EffectiveSuperpotential:
    """Instantiate Weff = sqrt(1-kappa^2) (W + kappa E/(1-kappa^2)). Raises
    CriticalFieldError for |kappa| >= 1."""
    scale = math.sqrt(require_subcritical(kappa))
    return EffectiveSuperpotential(base=sp, scale=scale, offset=kappa * E / scale)


def epsilon_from_E(E: float, kappa: float, m: float) -> float:
    """Reduced-problem eigenvalue from an energy: E^2/(1-kappa^2) - m^2."""
    omk = require_subcritical(kappa)
    return E * E / omk - m * m


def E_from_epsilon(epsilon: float, kappa: float, m: float) -> tuple[float, float]:
    """Energies (+E, -E) from a reduced eigenvalue; inverse of
    epsilon_from_E to 1e-12 relative. Raises NoRealEnergyError when
    epsilon + m^2 < 0."""
    omk = require_subcritical(kappa)
    s = epsilon + m * m
    if s < 0.0:
        raise NoRealEnergyError(
            f"epsilon + m^2 = {s} < 0 admits no real energy"
        )
    e = math.sqrt(omk * s)
    return e, -e


def schrodinger_operator(
    weff: EffectiveSuperpotential, sigma: int, grid: Grid
) -> Tridiagonal:
    """Lattice p^2 + Weff^2 + sigma Weff' with a 3-point Laplacian and
    Dirichlet walls; symmetric tridiagonal. Raises DomainError if the grid
    leaves the base superpotential's domain."""
    if sigma not in (-1, 1):
        raise ValueError("sigma must be -1 or +1")
    w, wp = weff.values(grid.x)
    v = w**2 + sigma * wp
    h2 = grid.h * grid.h
    d = 2.0 / h2 + v
    e = np.full(grid.n - 1, -1.0 / h2)
    return Tridiagonal(d, e)


def squared_form_potential(
    sp: Superpotential, kappa: float, E: float, sigma: int, x
) -> np.ndarray:
    """The reduced-problem potential written directly in the base
    superpotential, (1-kappa^2) W^2 + 2 E kappa W + sigma sqrt(1-kappa^2) W'.

    Independent of the Weff route: expanding Weff^2 + sigma Weff' must
    reproduce this plus the constant kappa^2 E^2/(1-kappa^2), which is the
    pointwise identity the tests pin."""
    omk = require_subcritical(kappa)
    w, wp = eval_superpotential(sp, x)
    return omk * w * w + 2.0 * E * kappa * w + sigma * math.sqrt(omk) * wp


def _level_condition(params, sigma, n, grid, E, window=None):
    """The reduced operator at energy E, its epsilon level n fetched by sorted
    index, and the level condition f(E) = epsilon_n(E) - (E^2/(1-kappa^2) - m^2).
    Near kappa = 1 the level moves faster in E than the ladder spacing (on
    the tan family at up to 2 kappa^2 E/(1-kappa^2) per unit E), so picking
    by value continuity can slide onto a neighbor between root-finder
    steps; the index cannot. `window` is a prediction of epsilon_n, which
    linalg uses only once its Sturm counts certify it."""
    weff = effective_superpotential(params.superpotential, params.kappa, E)
    t = schrodinger_operator(weff, sigma, grid)
    eps = _indexed_eigenvalues(t, [n + 1], window=window)
    omk = 1.0 - params.kappa**2
    return t, eps, float(eps[0]) - (E * E / omk - params.mass**2)


def _root_window(params, E):
    """A window for epsilon_n at E when E is near a root, where f(E) = 0 puts
    epsilon_n at E^2/(1-kappa^2) - m^2: that value +- 1e-3 of itself (or of 1)."""
    c = E * E / (1.0 - params.kappa**2) - params.mass**2
    half = 1e-3 * max(abs(c), 1.0)
    return c - half, c + half


def _line_window(e0, eps0, slope0, E):
    """A window for epsilon_n at E on the line c = eps0 + slope0 (E - e0),
    widened by half its step and 1e-9 of itself."""
    step = slope0 * (E - e0)
    c = eps0 + step
    half = 0.5 * abs(step) + 1e-9 * max(abs(c), 1.0)
    return c - half, c + half


def _evaluator(params, sigma, n, grid, line=None):
    """evaluate(E) = (f(E), f'(E)) on one grid, for one root search.

    f is _level_condition's. f' is the Hellmann-Feynman slope (Feynman,
    Phys. Rev. 56 (1939) 340), with phi the level's unit eigenvector from one
    dstein call on the same operator: only its Weff^2 term depends on E,
    through dWeff/dE = kappa/sqrt(1-kappa^2), so with
    Weff = sqrt(1-kappa^2) W + kappa E/sqrt(1-kappa^2) and the E^2/(1-kappa^2)
    of the right side, f' = 2 kappa <phi|W|phi> - 2E, exact for the lattice
    operator, whose diagonal carries Weff^2 pointwise.

    Each evaluation bisects epsilon_n in a _line_window on the tangent of
    epsilon_n at the last evaluation E0, of slope eps0' = f'(E0) +
    2 E0/(1-kappa^2). The first takes `line`, an (E0, eps0, slope) triple,
    or with none _root_window."""
    w = eval_superpotential(params.superpotential, grid.x)[0]
    omk = 1.0 - params.kappa**2
    last = list(line or ())

    def evaluate(E):
        window = _line_window(*last, E) if last else _root_window(params, E)
        t, eps, f = _level_condition(params, sigma, n, grid, E, window)
        phi = tridiagonal_eigenvectors(t, eps)[:, 0]
        fp = 2.0 * params.kappa * float(np.dot(phi * phi, w)) - 2.0 * E
        last[:] = E, f + (E * E / omk - params.mass**2), fp + 2.0 * E / omk
        return f, fp

    return evaluate


def _seed(params, sigma, n, grid, branch):
    """(seed, delta, reach, line) of one branch's root search: Newton steps
    from seed within seed +- reach, then brackets from seed +- delta out to
    seed +- reach (see _root), the first evaluation's window on `line` (see
    _evaluator). Certified families start at the closed form with delta
    1e-4 max(|seed|, 1), reach 25% of it and no line, the E = 0 level
    (reach 0) only after an h^2 test. Otherwise an outward scan in steps of
    m/4 bisects eps_n, from its third step on in a window on the line
    through the last two steps' eps; the first step with a sign change is
    the whole window, the one bracket tried, and its two eps give the line."""
    if params.superpotential.family in (Family.LINEAR, Family.TANGENT):
        ep, em = analytic.level_energies(params, n + (1 + sigma) // 2)
        seed = ep if branch > 0 else em
        if seed != 0.0:
            return seed, 1e-4 * max(abs(seed), 1.0), 0.25 * abs(seed), None
        # the E=0 level: the condition must already hold there up to the
        # lattice's h^2 bias, which the nested h/2 grid divides by 4
        f0 = _level_condition(params, sigma, n, grid, 0.0)[2]
        f0_fine = _level_condition(params, sigma, n, grid.refined(), 0.0)[2]
        if abs(4.0 * f0_fine - f0) <= abs(f0 - f0_fine):
            return 0.0, 0.0, 0.0, None
        raise BracketError(
            f"level condition fails at the E=0 seed for (sigma={sigma}, "
            f"n={n}): f(0) = {f0:.3g}, {f0_fine:.3g} on the h/2 grid"
        )
    step = params.mass / 4.0 if params.mass > 0.0 else 0.25
    e_max = 100.0 * max(params.mass, 1.0)
    a = branch * 1e-6
    _, eps_a, fa = _level_condition(params, sigma, n, grid, a)
    slope = None
    k = 1
    while k * step <= e_max:
        b = branch * k * step
        # from the third step on, eps_n continues the line through the last
        # two steps, widened as _evaluator widens its tangent
        window = None if slope is None else _line_window(a, eps_a[0], slope, b)
        _, eps_b, fb = _level_condition(params, sigma, n, grid, b, window)
        slope = (eps_b[0] - eps_a[0]) / (b - a)
        if fa * fb <= 0.0:
            half = 0.5 * abs(b - a)
            return 0.5 * (a + b), half, half, (a, eps_a[0], slope)
        a, eps_a, fa = b, eps_b, fb
        k += 1
    raise BracketError(
        f"no sign change of the level condition on (0, {e_max:.3g}] for "
        f"(sigma={sigma}, n={n}); no such bound level"
    )


# Newton steps _root takes from the seed before it searches for a bracket
_NEWTON_STEPS = 6


def _root(evaluate, seed, delta, reach, f_floor):
    """Root of f within reach of seed, evaluate(E) = (f(E), f'(E)), or None.

    Newton steps start at the seed. The first step on which f changes sign
    hands that bracket to _safe_newton, from its end nearer the root; the
    search stops as _safe_newton does, on |f| <= f_floor or a step of at most
    1e-12 max(1, |E|). A step that would leave seed +- reach, a slope of 0 or
    NaN, or _NEWTON_STEPS steps that neither stop nor change sign end the
    Newton phase: then the bracket seed +- delta widens fourfold up to
    exactly +-reach, and _safe_newton takes the first that changes sign."""
    x = seed
    fx, fpx = evaluate(x)
    for _ in range(_NEWTON_STEPS):
        if abs(fx) <= f_floor:
            return x
        if fpx == 0.0 or not math.isfinite(fpx):
            break
        nxt = x - fx / fpx
        if not abs(nxt - seed) <= reach:
            break
        if abs(nxt - x) <= 1e-12 * max(1.0, abs(nxt)):
            return nxt
        fn, fpn = evaluate(nxt)
        if fx * fn <= 0.0:
            start = (x, fx, fpx) if abs(fx) <= abs(fn) else (nxt, fn, fpn)
            return _safe_newton(evaluate, x, nxt, fx, fn, *start, f_floor)
        x, fx, fpx = nxt, fn, fpn
    while True:
        delta = min(delta, reach)
        a, b = seed - delta, seed + delta
        (fa, fpa), (fb, fpb) = evaluate(a), evaluate(b)
        if fa * fb <= 0.0:
            start = (a, fa, fpa) if abs(fa) <= abs(fb) else (b, fb, fpb)
            return _safe_newton(evaluate, a, b, fa, fb, *start, f_floor)
        if delta == reach:
            return None
        delta *= 4.0


def _safe_newton(evaluate, a, b, fa, fb, x, fx, fpx, f_floor, tol=1e-12):
    """Root of f in the sign-change bracket [a, b] by Newton steps from x,
    where evaluate(E) = (f(E), f'(E)) and (fx, fpx) is its value at x. Every
    evaluation narrows the bracket; a step that would leave it is replaced by
    bisection, so a bad or vanishing slope costs speed, never the root.
    Stops when |f| is at most f_floor, the precision f carries, or when a
    step is at most tol * max(1, |E|), which includes a Newton step that
    rounds to nothing."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    lo, hi = (a, b) if fa < 0.0 else (b, a)
    for _ in range(120):
        if abs(fx) <= f_floor:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        nxt = x - fx / fpx if fpx != 0.0 else math.nan
        if nxt != x and not min(lo, hi) < nxt < max(lo, hi):
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= tol * max(1.0, abs(nxt)):
            return nxt
        x = nxt
        fx, fpx = evaluate(x)
    return x


def _f_floor(grid):
    """A few ulps of the reduced operator's diagonal 2/h^2, the precision f
    carries: on the tan grids f is a staircase with steps of about this size."""
    return 4.0 * np.finfo(float).eps * 2.0 / (grid.h * grid.h)


def _solve_branch(params, sigma, n, grid, branch):
    """(E, err_est, converged) of one branch's root: _root on the base grid,
    then on the nested h/2 grid from the base root e1, and the extrapolation
    (4 e2 - e1)/3, which cancels the O(h^2) bias of the 3-point Laplacian.
    Each grid's search has its own _evaluator, so its eigenvalue windows are
    predicted from that grid's last evaluation; on the grids a CLI session
    solves, the two searches take 4-6 evaluations in all. The E = 0 level is
    exact by symmetry. A root missing within reach on the h/2 grid keeps e1,
    unconverged, with the base-grid window 2 reach as err_est."""
    seed, delta, reach, line = _seed(params, sigma, n, grid, branch)
    if reach == 0.0:
        # the E=0 seed: f is even there, so no bracket around it can exist
        return seed, 0.0, True

    def search(g, seed, delta, reach, line=None):
        return _root(_evaluator(params, sigma, n, g, line), seed, delta, reach, _f_floor(g))

    e1 = search(grid, seed, delta, reach, line)
    if e1 is None:
        raise BracketError(f"no sign change within {reach:.3g} of the seed {seed:.6g} "
                           f"for (sigma={sigma}, n={n}); no such bound level")
    scale = max(abs(e1), 1.0)
    e2 = search(grid.refined(), e1, 1e-4 * scale, 6.4e-3 * scale)
    if e2 is None:
        return e1, 2.0 * reach, False
    return (4.0 * e2 - e1) / 3.0, abs(e2 - e1) / 3.0, True


def solve_nonlinear_level(
    params: PhysicalParams, sigma: int, n: int, grid: Grid | None = None
) -> tuple[SpectrumRecord, SpectrumRecord]:
    """Level n of the sigma-projected reduced problem, found as a root of

        f(E) = epsilon_n(operator at Weff(E)) - (E^2/(1-kappa^2) - m^2).

    epsilon_n is the n-th ascending eigenvalue of the instantiated operator,
    fetched by sorted index at every E so the root-finder always sees the
    same level regardless of step size. The root is found by Newton steps
    with the Hellmann-Feynman slope of _evaluator from a seed, the closed
    form for the certified families. Once f changes sign between two steps, each evaluation narrows
    that bracket, and a step that would leave it is a bisection step; when
    the steps leave the seed's reach first, a sign-change bracket widened
    around the seed takes their place. Returns (plus,
    minus) records with route "susy". For the certified families W is odd,
    so f is even in E: the plus root is solved and the minus record is its
    mirror -E with the same err_est. A tabulated W need not be odd, and its
    two branches are solved independently. At (sigma=-1, n=0) the minus
    root is -E0, a root of f whose state the reconstruction annihilates: no
    level, and model.level_labels leaves it out.

    Each root is refined on a half-spacing grid and extrapolated; when no
    root is found within reach there, the record keeps the base-grid root
    with the width of its search window as err_est and converged=False.

    Raises CriticalFieldError for |kappa| >= 1, BracketError when the search
    window holds no sign change (no such bound level) and DomainError on a
    tan box other than (-pi/2, pi/2).
    """
    require_subcritical(params.kappa)
    if sigma not in (-1, 1):
        raise ValueError("sigma must be -1 or +1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if grid is None:
        # half the lattice route's default density; the paired-grid
        # extrapolation in _solve_branch recovers the lost order
        base = default_grid(params)
        grid = Grid(half_width=base.half_width, n=2000)
    require_whole_domain(params.superpotential, grid)
    # positional and with the grid resolved, so that equivalent calls share
    # one cache key
    return _solve_level_cached(params, sigma, n, grid)


def _solve_level(params, sigma, n, grid):
    """solve_nonlinear_level's branch solves, on checked arguments."""
    plus = _solve_branch(params, sigma, n, grid, 1)
    if params.superpotential.family in (Family.LINEAR, Family.TANGENT):
        # W is odd and W' even, and the grid is symmetric about 0, so
        # Weff_{-E}(x) = -Weff_E(-x) and V_{-E}(x) = V_E(-x): the operator at
        # -E is the one at E reflected, f(-E) = f(E), and the minus root
        # mirrors the plus one
        minus = plus
    else:
        minus = _solve_branch(params, sigma, n, grid, -1)
    omk = 1.0 - params.kappa**2
    records = []
    for branch, (e, err, ok) in ((1, plus), (-1, minus)):
        e = branch * abs(e)
        records.append(
            SpectrumRecord(
                route="susy",
                branch=branch,
                sigma=sigma,
                n=n,
                E=e,
                epsilon=e * e / omk - params.mass**2,
                converged=ok,
                err_est=err,
            )
        )
    return records[0], records[1]


# enough for the levels of the configuration a session is working on
_solve_level_cached = functools.lru_cache(maxsize=16)(_solve_level)


def _centered_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """Centered first derivative with Dirichlet ghost points."""
    g = np.zeros(f.size + 2, dtype=f.dtype)
    g[1:-1] = f
    return (g[2:] - g[:-2]) / (2.0 * h)


def _apply_dirac(params, grid, psi1, psi2):
    """The first-order operator applied with centered differences (the
    reconstruction-side discretization, independent of the solver lattice)."""
    w, _ = eval_superpotential(params.superpotential, grid.x)
    u = params.kappa * w
    m = params.mass
    d1 = _centered_derivative(psi1, grid.h)
    d2 = _centered_derivative(psi2, grid.h)
    r1 = (m + u) * psi1 + 1j * (w * psi2 - d2)
    r2 = -1j * (w * psi1 + d1) + (-m + u) * psi2
    return r1, r2


def reconstruct_spinor(
    params: PhysicalParams,
    E: float,
    chi: SpinEigenpair,
    phi: np.ndarray,
    grid: Grid,
) -> SpinorState:
    """Rebuild the two-component state from a reduced-problem eigenfunction:
    apply the first-order operator (with E - U in place of the mass-shifted
    diagonal) to chi * phi, derivative by centered differences.

    The substitution annihilates specific states (the |E|-minimal level of
    one branch). Annihilation cannot reach exact zero on a lattice - the
    centered derivative leaves O(h^2) noise - so it is detected against the
    healthy reconstruction scale |E| + m + 1 instead of an absolute floor,
    and raises DegenerateStateError rather than normalizing that noise. The
    returned state is normalized and carries the first-order eigenvalue
    residual, which is discretization-limited (shrinking at least linearly
    with spacing) and should be at or below 1e-3 on default grids.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != grid.x.shape:
        raise ValueError("phi must be sampled on the grid")
    w, _ = eval_superpotential(params.superpotential, grid.x)
    u = params.kappa * w
    m = params.mass
    dphi = _centered_derivative(phi, grid.h)
    c1, c2 = chi.chi
    psi1 = (E - u + m) * c1 * phi + 1j * c2 * (w * phi - dphi)
    psi2 = -1j * c1 * (w * phi + dphi) + (E - u - m) * c2 * phi
    raw = math.sqrt(grid.h * float(np.sum(np.abs(psi1) ** 2 + np.abs(psi2) ** 2)))
    if raw < 1e-3 * (abs(E) + m + 1.0):
        raise DegenerateStateError(
            f"reconstruction annihilated the state at E = {E:.6g} "
            f"(norm {raw:.3g}); it has no counterpart on this branch"
        )
    return _with_residual(params, grid, SpinorState.from_samples(E, psi1, psi2, grid))


def _with_residual(params, grid, state):
    """The state carrying its first-order eigenvalue residual."""
    r1, r2 = _apply_dirac(params, grid, state.psi1, state.psi2)
    r1 = r1 - state.E * state.psi1
    r2 = r2 - state.E * state.psi2
    residual = math.sqrt(grid.h * float(np.sum(np.abs(r1) ** 2 + np.abs(r2) ** 2)))
    return replace(state, residual=residual)


def susy_state(
    params: PhysicalParams,
    sigma: int,
    n: int,
    grid: Grid | None = None,
    branch: int = 1,
) -> tuple[SpectrumRecord, SpinorState]:
    """End-to-end reduced route for one level: solve the nonlinear level
    condition, take the reduced eigenfunction at the solved energy, and
    reconstruct the two-component state; the massless ground level, which
    the reconstruction annihilates, is built directly."""
    if grid is None:
        grid = default_grid(params)
    plus, minus = solve_nonlinear_level(params, sigma, n, grid)
    rec = plus if branch > 0 else minus
    # the level the root solve tracked, at the solved energy
    t, eps, _ = _level_condition(params, sigma, n, grid, rec.E, _root_window(params, rec.E))
    phi = tridiagonal_eigenvectors(t, eps)[:, 0]
    if rec.E == 0.0 and params.mass == 0.0:
        # the one level at E = 0, (sigma=-1, n=0): phi is exp(-gamma int W dx)
        # on the lattice, gamma = sqrt(1 - kappa^2), and psi = (phi, -i beta
        # phi) with beta = -kappa/(1 + gamma) solves the first-order equation
        beta = -params.kappa / (1.0 + math.sqrt(1.0 - params.kappa**2))
        state = SpinorState.from_samples(0.0, phi, -1j * beta * phi, grid)
        return rec, _with_residual(params, grid, state)
    pair = spin_eigensystem(params.kappa)
    chi = pair[0] if sigma > 0 else pair[1]
    state = reconstruct_spinor(params, rec.E, chi, phi, grid)
    return rec, state
