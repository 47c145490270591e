"""Reduction of the two-component first-order problem to partner Schrodinger
problems, and the inverse (spinor reconstruction).

Chain: the spin matrix -sigma_z + i kappa sigma_x has eigenvalues
lambda = sigma sqrt(1-kappa^2). Projecting onto an eigenvector chi decouples
the system into a scalar second-order equation

    (p^2 + Weff^2 + sigma * Weff') phi = epsilon phi,

where the effective superpotential absorbs the coupling and the energy,

    Weff(x) = sqrt(1-kappa^2) * (W(x) + kappa E / (1-kappa^2)),

and epsilon = E^2/(1-kappa^2) - m^2 (model.reduced_epsilon). Because Weff
depends on E, the level condition  epsilon_n(Weff(E)) = E^2/(1-kappa^2) - m^2
is nonlinear in E; solve_nonlinear_level finds each root on two nested grids
by one search for every family: Newton steps with the Hellmann-Feynman slope
from the fixed point of the condition at E = 0, inside the first sign-change
bracket they find, or else one certified by the Sturm count of the levels
below E^2/(1-kappa^2) - m^2, monotone in |E|. Each evaluation takes
epsilon_n and its eigenvector from one certified inverse-iteration call at
a prediction from the last one; W and W' are sampled once per grid. This
route reads no closed form, so it generalizes beyond the certified
families; on them it must reproduce the closed-form levels, which is the
cross-check the package leans on.

Everything here refuses |kappa| >= 1: the spin matrix becomes defective at
the critical coupling and its eigenvalues go imaginary beyond, so no
reduction exists (consistent with the absence of bound states there).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .dirac_solver import default_grid
from .errors import BracketError, ConvergenceError, DegenerateStateError
from .linalg import Tridiagonal, tridiagonal_eigenvectors
from .linalg import _indexed_eigenvalues, _predicted_eigenvalues
from .model import (
    Family,
    Grid,
    PhysicalParams,
    SpectrumRecord,
    SpinorState,
    Superpotential,
    eval_superpotential,
    reduced_epsilon,
    require_subcritical,
    require_whole_domain,
)

__all__ = [
    "SpinEigenpair",
    "spin_eigensystem",
    "EffectiveSuperpotential",
    "effective_superpotential",
    "schrodinger_operator",
    "squared_form_potential",
    "solve_nonlinear_level",
    "reconstruct_spinor",
    "susy_state",
]

# the default grid of both entry points: half the lattice route's default
# density, whose lost order the paired-grid extrapolation in _solve_branch
# recovers
_DEFAULT_N = 2000


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


@functools.lru_cache(maxsize=8)
def _sampled(sp: Superpotential, grid: Grid):
    """(W, W') at grid.x, read-only, once per (superpotential, grid), since
    neither E nor kappa enters them; a refused grid raises on every call."""
    w, wp = eval_superpotential(sp, grid.x)
    w.setflags(write=False)
    wp.setflags(write=False)
    return w, wp


def effective_superpotential(
    sp: Superpotential, kappa: float, E: float
) -> EffectiveSuperpotential:
    """Instantiate Weff = sqrt(1-kappa^2) (W + kappa E/(1-kappa^2)). Raises
    CriticalFieldError for |kappa| >= 1."""
    scale = math.sqrt(require_subcritical(kappa))
    return EffectiveSuperpotential(base=sp, scale=scale, offset=kappa * E / scale)


def schrodinger_operator(
    weff: EffectiveSuperpotential, sigma: int, grid: Grid
) -> Tridiagonal:
    """Lattice p^2 + Weff^2 + sigma Weff' with a 3-point Laplacian and
    Dirichlet walls; symmetric tridiagonal. Raises DomainError if the grid
    leaves the base superpotential's domain."""
    if sigma not in (-1, 1):
        raise ValueError("sigma must be -1 or +1")
    w, wp = _sampled(weff.base, grid)
    v = (weff.scale * w + weff.offset) ** 2 + sigma * (weff.scale * wp)
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


def _level_condition(params, sigma, n, grid, E, guess=None):
    """(epsilon_n, phi, f) at energy E: the reduced operator's level n, its
    unit eigenvector and f(E) = epsilon_n(E) - (E^2/(1-kappa^2) - m^2).

    Given a `guess` of epsilon_n, one certified _predicted_eigenvalues call
    at it gives phi and epsilon_n, its energy in difference form. With no
    guess, or one the certificate refuses, epsilon_n is fetched by its index
    (dstebz), and phi, with a guess only, by one dstein call. Near kappa = 1
    the level moves faster in E than the ladder spacing, so picking by value
    continuity could slide onto a neighbor between root-finder steps; the
    index and the certificate cannot."""
    weff = effective_superpotential(params.superpotential, params.kappa, E)
    t = schrodinger_operator(weff, sigma, grid)
    found = guess is not None and _predicted_eigenvalues(t, [n + 1], [guess], differences=True)
    if found:
        eps, phi = float(found[0][0]), found[1][:, 0]
    else:
        eps = float(_indexed_eigenvalues(t, [n + 1])[0])
        phi = None if guess is None else tridiagonal_eigenvectors(t, [eps])[:, 0]
    return eps, phi, eps - reduced_epsilon(E, params.mass, params.kappa)


def _evaluator(params, sigma, n, grid):
    """evaluate(E) = (f(E), f'(E)) on one grid, for one root search.

    f is _level_condition's. f' is the Hellmann-Feynman slope (Feynman,
    Phys. Rev. 56 (1939) 340), with phi the level's unit eigenvector from
    the same call: only its Weff^2 term depends on E, through
    dWeff/dE = kappa/sqrt(1-kappa^2), so with
    Weff = sqrt(1-kappa^2) W + kappa E/sqrt(1-kappa^2) and the E^2/(1-kappa^2)
    of the right side, f' = 2 kappa <phi|W|phi> - 2E, exact for the lattice
    operator, whose diagonal carries Weff^2 pointwise.

    Each evaluation predicts epsilon_n on the tangent of epsilon_n at the
    last evaluation E0, of slope eps0' = f'(E0) + 2 E0/(1-kappa^2); the first
    at the value a root puts it at, E^2/(1-kappa^2) - m^2."""
    w = _sampled(params.superpotential, grid)[0]
    omk = 1.0 - params.kappa**2
    last = []

    def evaluate(E):
        e0, eps0, slope0 = last or (E, reduced_epsilon(E, params.mass, params.kappa), 0.0)
        eps, phi, f = _level_condition(params, sigma, n, grid, E, eps0 + slope0 * (E - e0))
        fp = 2.0 * params.kappa * float(np.dot(phi * phi, w)) - 2.0 * E
        last[:] = E, eps, fp + 2.0 * E / omk
        return f, fp

    return evaluate


def _count(params, sigma, grid, E):
    """How many reduced levels lie below E^2/(1-kappa^2) - m^2 at energy E,
    from one operator and one Sturm count: the negative eigenvalues of
    Q(E) = A + E B - E^2 I, B = 2 kappa W and A the operator at E = 0 plus
    m^2. For m > 0, A is positive definite and the quadratic eigenproblem is
    hyperbolic (Duffin, J. Rat. Mech. Anal. 4 (1955) 221; Tisseur &
    Meerbergen, SIAM Rev. 43 (2001) 235): on each branch the count is the
    number of roots between 0 and E, <= n short of root n and > n past it."""
    weff = effective_superpotential(params.superpotential, params.kappa, E)
    t = schrodinger_operator(weff, sigma, grid)
    return int(linalg.sturm_count(t, [reduced_epsilon(E, params.mass, params.kappa)])[0])


def _certified(params, sigma, n, grid, inner, outer):
    """(inner, outer) when the count puts the branch's root n between them,
    <= n at inner (nearer E = 0) and > n at outer, else None. A count that
    falls outward breaks the hyperbolic structure: raise, not guess."""
    below, above = (_count(params, sigma, grid, e) for e in (inner, outer))
    if above < below:
        raise ConvergenceError(f"the level count of (sigma={sigma}, n={n}) falls from {below} "
                               f"at E = {inner:.6g} to {above} at E = {outer:.6g}")
    return (inner, outer) if below <= n < above else None


# the search looks at |E| <= E_max = _E_MAX max(m, 1)
_E_MAX = 100.0


def _bracket(params, sigma, n, grid, branch):
    """_certified's bracket of the branch's root n, its outer end doubling
    out from m/4 (1/4 at m = 0), its inner end the step before, or 0. Raises
    BracketError when the count never reaches n + 1 below E_max = 100
    max(m, 1), no such bound level, and ConvergenceError when it exceeds n
    at E = 0, where A is positive definite for m > 0 but for lattice bias."""
    if _count(params, sigma, grid, 0.0) > n:
        raise ConvergenceError(f"the level count of (sigma={sigma}, n={n}) exceeds n at E = 0: "
                               "the lattice's bias puts a reduced level below -m^2")
    e_max = _E_MAX * max(params.mass, 1.0)
    inner, outer = 0.0, branch * (params.mass / 4.0 if params.mass > 0.0 else 0.25)
    while abs(outer) <= e_max:
        ends = _certified(params, sigma, n, grid, inner, outer)
        if ends:
            return ends
        inner, outer = outer, 2.0 * outer
    raise BracketError(f"the level count never reaches n + 1 = {n + 1} below E_max = "
                       f"{e_max:.3g} for (sigma={sigma}, n={n}); no such bound level")


# Newton steps _root takes before it falls back to a certified bracket
_NEWTON_STEPS = 6


def _root(evaluate, seed, window, f_floor, bracket):
    """Root of f, evaluate(E) = (f(E), f'(E)), or None.

    Newton steps in E^2 from the seed, E'^2 = E^2 - 2E f/f': the closed
    forms make f linear in E^2, so one step lands near a root even from a
    seed as far off as a tan level's. The first step on which f changes sign
    hands that bracket to _safe_newton, which also sets the stopping rule. A
    step that would cross 0 or leave `window`, a slope of 0 or NaN, or
    _NEWTON_STEPS steps that neither stop nor change sign end the Newton
    phase: then bracket() gives a certified (inner, outer) or None, and
    _safe_newton searches it from the last step if that lies inside, else
    from its midpoint."""
    x = seed
    fx, fpx = evaluate(x)
    for _ in range(_NEWTON_STEPS):
        if abs(fx) <= f_floor:
            return x
        if fpx == 0.0 or not math.isfinite(fpx):
            break
        u = x * x - 2.0 * x * fx / fpx
        nxt = math.copysign(math.sqrt(u), x) if u > 0.0 else math.nan
        if not window[0] <= nxt <= window[1]:
            break
        if abs(nxt - x) <= 1e-12 * max(1.0, abs(nxt)):
            return nxt
        fn, fpn = evaluate(nxt)
        if fx * fn <= 0.0:
            lo, hi = (x, nxt) if fx < 0.0 else (nxt, x)
            start = (x, fx, fpx) if abs(fx) <= abs(fn) else (nxt, fn, fpn)
            return _safe_newton(evaluate, lo, hi, *start, f_floor)
        x, fx, fpx = nxt, fn, fpn
    ends = bracket()
    if ends and not min(ends) < x < max(ends):
        x = 0.5 * sum(ends)
        fx, fpx = evaluate(x)
    return ends and _safe_newton(evaluate, ends[1], ends[0], x, fx, fpx, f_floor)


def _safe_newton(evaluate, lo, hi, x, fx, fpx, f_floor, tol=1e-12):
    """Root of f between lo, where f < 0, and hi, where f >= 0, by Newton
    steps from x, where evaluate(E) = (f(E), f'(E)) and (fx, fpx) is its
    value at x. Every evaluation narrows the bracket; a step that would
    leave it is replaced by bisection, so a bad or vanishing slope costs
    speed, never the root. Stops when |f| is at most f_floor, the precision f
    carries, or when a step is at most tol * max(1, |E|), which includes a
    Newton step that rounds to nothing."""
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


def _zero_mode(params, sigma, n, grid):
    """(0, 0, True) for the massless (sigma=-1, n=0) level, which the count
    cannot see (A is only semidefinite): f(0) must be the lattice's h^2 bias,
    which the h/2 grid divides by 4. Else raises BracketError."""
    f0 = _level_condition(params, sigma, n, grid, 0.0)[2]
    f0_fine = _level_condition(params, sigma, n, grid.refined(), 0.0)[2]
    if abs(4.0 * f0_fine - f0) <= abs(f0 - f0_fine):
        return 0.0, 0.0, True
    raise BracketError(f"level condition fails at E=0 for (sigma={sigma}, n={n}): f(0) = "
                       f"{f0:.3g}, {f0_fine:.3g} on the h/2 grid")


def _seed(params, sigma, n, grid, branch):
    """The fixed point of the level condition at E = 0 on the branch,
    E^2 = (1-kappa^2)(eps_n(0) + m^2), from one index search: exact for a
    linear W, whose eps_n does not move with E."""
    eps0 = _level_condition(params, sigma, n, grid, 0.0)[0]
    return branch * math.sqrt(max((1.0 - params.kappa**2) * (eps0 + params.mass**2), 0.0))


def _solve_branch(params, sigma, n, grid, branch):
    """(E, err_est, converged) of one branch's root: _root on the base grid
    from _seed, its steps on the branch within E_max and _bracket its
    fallback; then on the nested h/2 grid from the base root e1, its steps
    within d = 6.4e-3 max(|e1|, 1) of e1 and the counts at e1 -+ d its
    fallback; and the extrapolation (4 e2 - e1)/3, which cancels the O(h^2)
    bias of the 3-point Laplacian. A root missing from e1 -+ d keeps e1,
    unconverged, with the width of the base grid's _bracket as err_est."""
    if params.mass == 0.0 and (sigma, n) == (-1, 0):
        return _zero_mode(params, sigma, n, grid)
    e1 = _root(_evaluator(params, sigma, n, grid), _seed(params, sigma, n, grid, branch),
               sorted((0.0, branch * _E_MAX * max(params.mass, 1.0))), _f_floor(grid),
               lambda: _bracket(params, sigma, n, grid, branch))
    fine, d = grid.refined(), 6.4e-3 * max(abs(e1), 1.0)
    e2 = _root(_evaluator(params, sigma, n, fine), e1, (e1 - d, e1 + d), _f_floor(fine),
               lambda: _certified(params, sigma, n, fine, e1 - branch * d, e1 + branch * d))
    if e2 is None:
        lo, hi = _bracket(params, sigma, n, grid, branch)
        return e1, abs(hi - lo), False
    return (4.0 * e2 - e1) / 3.0, abs(e2 - e1) / 3.0, True


def solve_nonlinear_level(
    params: PhysicalParams, sigma: int, n: int, grid: Grid | None = None
) -> tuple[SpectrumRecord, SpectrumRecord]:
    """Level n of the sigma-projected reduced problem, found as a root of

        f(E) = epsilon_n(operator at Weff(E)) - (E^2/(1-kappa^2) - m^2).

    epsilon_n is the n-th ascending eigenvalue of the instantiated operator,
    its index certified at every E. No closed form enters (_solve_branch):
    Newton steps with the Hellmann-Feynman slope run from the fixed point of
    the condition at E = 0, inside the first sign-change bracket they find,
    or else one that a Sturm count certifies. Returns (plus, minus) records
    with route "susy". For the certified families W is odd, so f is even in
    E: the plus root is solved and the minus record is its mirror -E with
    the same err_est; a tabulated W's branches are solved independently. At
    (sigma=-1, n=0) the minus root is -E0, whose state the reconstruction
    annihilates: no level, and model.level_labels leaves it out; at m = 0
    that level is E = 0, after an h^2 test. Each root is refined on the h/2
    grid and extrapolated; with no root near the base-grid root there, the
    record keeps it, converged=False, its certified bracket's width err_est.

    Raises CriticalFieldError for |kappa| >= 1, BracketError when the count
    never reaches n + 1 below E_max = 100 max(m, 1) (no such bound level),
    ConvergenceError when the count falls as |E| grows or exceeds n at
    E = 0, or for a tan sigma=-1 level with alpha = alpha0 sqrt(1-kappa^2)
    < 1/2, and DomainError on a tan box other than (-pi/2, pi/2).
    """
    require_subcritical(params.kappa)
    if sigma not in (-1, 1):
        raise ValueError("sigma must be -1 or +1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if grid is None:
        grid = default_grid(params, n=_DEFAULT_N)
    require_whole_domain(params.superpotential, grid)
    sp = params.superpotential
    alpha = sp.alpha0 * math.sqrt(1.0 - params.kappa**2) if sp.family is Family.TANGENT else 1.0
    if sigma == -1 and alpha < 0.5:
        raise ConvergenceError(
            f"tan sigma=-1 levels need alpha = alpha0 sqrt(1-kappa^2) >= 1/2, got {alpha:.4g}: "
            "below it the Dirichlet lattice converges to the Friedrichs extension, whose "
            "states go as cos^(1-alpha) x, not cos^alpha x (Reed & Simon II, Thm X.10)")
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
    return tuple(SpectrumRecord(route="susy", branch=b, sigma=sigma, n=n, E=b * abs(e),
                                epsilon=reduced_epsilon(e, params.mass, params.kappa),
                                converged=ok, err_est=err)
                 for b, (e, err, ok) in ((1, plus), (-1, minus)))


# enough for the levels of the configuration a session is working on
_solve_level_cached = functools.lru_cache(maxsize=16)(_solve_level)


def _centered_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """Centered first derivative with Dirichlet ghost points."""
    g = np.zeros(f.size + 2, dtype=f.dtype)
    g[1:-1] = f
    return (g[2:] - g[:-2]) / (2.0 * h)


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
    w = _sampled(params.superpotential, grid)[0]
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
    """The state carrying its first-order eigenvalue residual: the operator
    applied with centered differences (the reconstruction-side
    discretization, independent of the solver lattice)."""
    w = _sampled(params.superpotential, grid)[0]
    psi1, psi2 = state.psi1, state.psi2
    u = params.kappa * w
    m = params.mass
    d1 = _centered_derivative(psi1, grid.h)
    d2 = _centered_derivative(psi2, grid.h)
    r1 = (m + u) * psi1 + 1j * (w * psi2 - d2) - state.E * psi1
    r2 = -1j * (w * psi1 + d1) + (-m + u) * psi2 - state.E * psi2
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
    the reconstruction annihilates, is built directly. The default grid is
    solve_nonlinear_level's, so both report the same record."""
    if grid is None:
        grid = default_grid(params, n=_DEFAULT_N)
    plus, minus = solve_nonlinear_level(params, sigma, n, grid)
    rec = plus if branch > 0 else minus
    # the level the root solve tracked, at the solved energy and epsilon
    phi = _level_condition(params, sigma, n, grid, rec.E, rec.epsilon)[1]
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
