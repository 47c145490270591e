"""Domain types shared by all solvers.

Natural units hbar = c = 1 throughout: energies, masses and inverse lengths
share one unit. The electric coupling enters only through the product
U(x) = kappa * W(x); the charge and the bare potential are never represented
separately.

The superpotential catalog carries three families:

* Linear:    W(x) = w1 * x,            W'(x) = w1           (whole real line)
* Tangent:   W(x) = alpha0 * tan(x),   W'(x) = alpha0/cos^2(x)   on (-pi/2, pi/2)
* Tabulated: (x, W, W') samples, monotone cubic interpolation, solved by the
  lattice and susy routes (the closed forms cover the first two only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConfigError, CriticalFieldError, DomainError

__all__ = [
    "Family",
    "Superpotential",
    "PhysicalParams",
    "Grid",
    "LevelIndex",
    "SpectrumRecord",
    "SpinorState",
    "eval_superpotential",
    "level_labels",
    "potential_energy",
    "require_subcritical",
    "require_whole_domain",
    "build_grid",
]

HALF_PI = math.pi / 2.0


class Family(str, Enum):
    """Superpotential family tag (values double as config-file spellings)."""

    LINEAR = "linear"
    TANGENT = "tan"
    TABULATED = "tabulated"


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Superpotential:
    """Descriptor for W(x) and W'(x). Construct via the factory classmethods.
    A table compares and hashes by table_key, the bytes of its samples."""

    family: Family
    w1: float | None = None
    alpha0: float | None = None
    table_x: np.ndarray | None = field(default=None, repr=False, compare=False)
    table_w: np.ndarray | None = field(default=None, repr=False, compare=False)
    table_wp: np.ndarray | None = field(default=None, repr=False, compare=False)
    table_key: bytes | None = field(default=None, repr=False)

    @classmethod
    def linear(cls, w1: float) -> "Superpotential":
        if not math.isfinite(w1):
            raise ConfigError(f"linear slope w1 must be finite, got {w1!r}")
        return cls(family=Family.LINEAR, w1=float(w1))

    @classmethod
    def tangent(cls, alpha0: float) -> "Superpotential":
        if not (math.isfinite(alpha0) and alpha0 > 0.0):
            raise ConfigError(f"tangent strength alpha0 must be > 0, got {alpha0!r}")
        return cls(family=Family.TANGENT, alpha0=float(alpha0))

    @classmethod
    def tabulated(cls, x, w, wp) -> "Superpotential":
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        wp = np.asarray(wp, dtype=float)
        if x.ndim != 1 or x.shape != w.shape or x.shape != wp.shape:
            raise ConfigError("tabulated samples need matching 1-D x, W, W' arrays")
        if x.size < 4:
            raise ConfigError("tabulated superpotential needs at least 4 samples")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(w)) or not np.all(np.isfinite(wp)):
            raise ConfigError("tabulated samples must be finite")
        if not np.all(np.diff(x) > 0.0):
            raise ConfigError("tabulated x values must be strictly increasing")
        _validate_table_derivative(x, w, wp)
        x, w, wp = _readonly(x), _readonly(w), _readonly(wp)
        # the columns have one length, so their bytes in a row are the content
        return cls(family=Family.TABULATED, table_x=x, table_w=w, table_wp=wp,
                   table_key=x.tobytes() + w.tobytes() + wp.tobytes())

    @property
    def domain(self) -> tuple[float, float]:
        """(lo, hi) of the domain of definition. Tangent is an open interval;
        Tabulated is the closed sample range; Linear is the whole line."""
        if self.family is Family.LINEAR:
            return (-math.inf, math.inf)
        if self.family is Family.TANGENT:
            return (-HALF_PI, HALF_PI)
        return (float(self.table_x[0]), float(self.table_x[-1]))

    @cached_property
    def _interpolants(self):
        from scipy.interpolate import PchipInterpolator

        return (
            PchipInterpolator(self.table_x, self.table_w),
            PchipInterpolator(self.table_x, self.table_wp),
        )


def _validate_table_derivative(x: np.ndarray, w: np.ndarray, wp: np.ndarray) -> None:
    # supplied W' must agree with centered differences of W at interior
    # points: |W' - FD| <= 10 h^2 max|W''| (plus a scale floor for W'' ~ 0)
    fd = np.gradient(w, x)
    wpp = np.gradient(fd, x)
    h = float(np.max(np.diff(x)))
    scale = max(1.0, float(np.max(np.abs(w))))
    tol = 10.0 * h * h * float(np.max(np.abs(wpp))) + 1e-12 * scale
    err = float(np.max(np.abs(wp[1:-1] - fd[1:-1])))
    if err > tol:
        raise ConfigError(
            f"tabulated W' disagrees with centered differences of W: "
            f"max deviation {err:.3e} exceeds tolerance {tol:.3e}"
        )


def _check_domain(sp: Superpotential, x: np.ndarray) -> None:
    lo, hi = sp.domain
    if sp.family is Family.TANGENT:
        if np.any(x <= lo) or np.any(x >= hi):
            raise DomainError(f"coordinate outside the open interval ({lo}, {hi})")
    elif sp.family is Family.TABULATED:
        if np.any(x < lo) or np.any(x > hi):
            raise DomainError(f"coordinate outside the tabulated range [{lo}, {hi}]")


def eval_superpotential(sp: Superpotential, x):
    """Pointwise (W(x), W'(x)). Accepts scalars or arrays; preserves shape.

    Raises DomainError if any coordinate leaves the family's domain.
    """
    arr = np.asarray(x, dtype=float)
    _check_domain(sp, arr)
    if sp.family is Family.LINEAR:
        w = sp.w1 * arr
        wp = np.full_like(arr, sp.w1)
    elif sp.family is Family.TANGENT:
        w = sp.alpha0 * np.tan(arr)
        c = np.cos(arr)
        wp = sp.alpha0 / (c * c)
    else:
        f_w, f_wp = sp._interpolants
        w = f_w(arr)
        wp = f_wp(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(w), float(wp)
    return w, wp


def potential_energy(sp: Superpotential, kappa: float, x):
    """U(x) = kappa * W(x). The lattice assembly and the spinor
    reconstruction form the same product inline from the W they already
    evaluate; this is the stand-alone form."""
    w = eval_superpotential(sp, x)[0]
    return kappa * w


def require_subcritical(kappa: float) -> float:
    """1 - kappa^2 for a subcritical coupling; raises CriticalFieldError at
    |kappa| >= 1, where the closed-form and reduction routes have no bound
    levels."""
    if not abs(kappa) < 1.0:
        raise CriticalFieldError(f"no bound states at |kappa| = {abs(kappa)} >= 1")
    return 1.0 - kappa * kappa


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, coupling and superpotential. |kappa| < 1 is required by the
    closed-form and SUSY routes; the direct lattice route accepts any kappa."""

    mass: float
    kappa: float
    superpotential: Superpotential

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass >= 0.0):
            raise ConfigError(f"mass must be finite and >= 0, got {self.mass!r}")
        if not math.isfinite(self.kappa):
            raise ConfigError(f"kappa must be finite, got {self.kappa!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform interior lattice on (-L, L) with Dirichlet walls.

    Interior points x_i = -L + i h, i = 1..n, spacing h = 2L/(n+1). Both
    spinor components vanish at +-L. For the Tangent family L = pi/2, so the
    points are automatically clipped one spacing inside the open domain.
    """

    half_width: float
    n: int

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.n + 1)

    def refined(self) -> "Grid":
        """The nested grid of half the spacing: N -> 2N + 1 keeps every point
        x_i = -L + i h a point of it."""
        return Grid(half_width=self.half_width, n=2 * self.n + 1)

    @cached_property
    def x(self) -> np.ndarray:
        pts = -self.half_width + self.h * np.arange(1, self.n + 1)
        pts.setflags(write=False)
        return pts


def build_grid(L: float, N: int, family: Family = Family.LINEAR) -> Grid:
    """Uniform interior grid. N >= 3 so a centered stencil exists everywhere;
    the Tangent family takes L = pi/2 alone (the builder keeps the points
    strictly inside the open interval by construction)."""
    if not (isinstance(N, (int, np.integer)) and N >= 3):
        raise ConfigError(f"grid needs at least 3 interior points, got {N!r}")
    if not (math.isfinite(L) and L > 0.0):
        raise ConfigError(f"grid half-width must be positive, got {L!r}")
    if not _is_whole_domain(family, L):
        raise ConfigError(f"tangent-family grid half-width must be pi/2, got {L!r}")
    return Grid(half_width=float(L), n=int(N))


def _is_whole_domain(family: Family, L: float) -> bool:
    """False for a tangent-family half-width other than pi/2, where W diverges:
    walls inside (-pi/2, pi/2) cut the levels into states of the box."""
    return family is not Family.TANGENT or abs(L - HALF_PI) <= 1e-15


def require_whole_domain(sp: Superpotential, grid: Grid) -> None:
    """Raises DomainError unless a tangent-family box is the whole (-pi/2, pi/2)."""
    if not _is_whole_domain(sp.family, grid.half_width):
        raise DomainError(f"tangent-family box half-width must be pi/2, got {grid.half_width!r}")


@dataclass(frozen=True)
class LevelIndex:
    """Quantum numbers (n, sigma) with the unified level label
    n_sigma = n + (1+sigma)/2: sigma=-1 counts 0,1,2,... and sigma=+1 counts
    1,2,3,..., so both ladders meet at every n_sigma >= 1."""

    n: int
    sigma: int

    def __post_init__(self):
        if self.sigma not in (-1, 1):
            raise ConfigError(f"sigma must be -1 or +1, got {self.sigma!r}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 0):
            raise ConfigError(f"n must be a non-negative integer, got {self.n!r}")

    @property
    def n_sigma(self) -> int:
        return int(self.n) + (1 + self.sigma) // 2


def level_labels(branch: int, n_sigma: int) -> tuple[tuple[int, int], ...]:
    """(sigma, n) labels of level n_sigma on one energy branch; empty when
    the branch does not hold it.

    The positive branch holds n_sigma = 0, 1, 2, ... and the negative branch
    n_sigma = 1, 2, ...: the ground spinor exp(-gamma int W dx - kappa m x)
    (1, -kappa/(1+gamma)) has E = gamma m, gamma^2 = 1 - kappa^2, and a W
    running from negative to positive normalizes it for gamma > 0 only, so
    it is +E0 alone. Each n_sigma = k >= 1 is reported under both labels
    (sigma=-1, n=k) and (sigma=+1, n=k-1).
    """
    if n_sigma == 0:
        return ((-1, 0),) if branch > 0 else ()
    return ((-1, n_sigma), (1, n_sigma - 1))


ROUTES = ("analytic", "dirac", "susy")


@dataclass(frozen=True)
class SpectrumRecord:
    """One energy level as seen by one route.

    branch is the sign of E (+1/-1); sign(E) must match branch whenever
    E != 0. epsilon is the reduced eigenvalue E^2/(1-kappa^2) - m^2 when the
    route can compute it (nan above the critical field). err_est is None when
    the route reports no error estimate.
    """

    route: str
    branch: int
    sigma: int
    n: int
    E: float
    epsilon: float
    converged: bool
    err_est: float | None = None

    def __post_init__(self):
        if self.route not in ROUTES:
            raise ConfigError(f"unknown route {self.route!r}")
        if self.branch not in (-1, 1):
            raise ConfigError(f"branch must be -1 or +1, got {self.branch!r}")
        if self.sigma not in (-1, 1):
            raise ConfigError(f"sigma must be -1 or +1, got {self.sigma!r}")
        if self.n < 0:
            raise ConfigError(f"n must be non-negative, got {self.n!r}")
        if self.E != 0.0 and math.copysign(1.0, self.E) != self.branch:
            raise ConfigError(
                f"sign of E={self.E!r} does not match branch={self.branch:+d}"
            )

    @property
    def n_sigma(self) -> int:
        return self.n + (1 + self.sigma) // 2


def _site_probabilities(psi1: np.ndarray, psi2: np.ndarray, h: float):
    q = np.abs(psi1) ** 2 + np.abs(psi2) ** 2
    total = h * float(np.sum(q))
    return q, total


def localization_of(psi1: np.ndarray, psi2: np.ndarray, x: np.ndarray, h: float):
    """(participation ratio, rms width) of a two-component amplitude sample.

    PR = h (sum q)^2 / sum q^2 with q the per-site probability density: a
    uniform state gives the box length, a single-site spike gives h. The rms
    width is taken about the probability centroid.
    """
    q, total = _site_probabilities(psi1, psi2, h)
    if total <= 0.0:
        raise ValueError("cannot compute localization of a null state")
    pr = h * float(np.sum(q)) ** 2 / float(np.sum(q * q))
    p = q / np.sum(q)
    centroid = float(np.sum(p * x))
    rms = math.sqrt(float(np.sum(p * (x - centroid) ** 2)))
    return pr, rms


@dataclass(frozen=True)
class SpinorState:
    """Normalized two-component eigenvector samples plus localization metrics.

    Normalization convention: h * sum(|psi1|^2 + |psi2|^2) = 1. residual is
    the reported first-order-equation residual when the state came from the
    reconstruction path (None for direct lattice eigenvectors, whose residual
    is checked against the matrix instead).
    """

    E: float
    psi1: np.ndarray
    psi2: np.ndarray
    norm: float
    participation_ratio: float
    rms_width: float
    residual: float | None = None

    @classmethod
    def from_samples(cls, E, psi1, psi2, grid: Grid, residual=None) -> "SpinorState":
        psi1 = np.asarray(psi1, dtype=complex)
        psi2 = np.asarray(psi2, dtype=complex)
        if psi1.shape != (grid.n,) or psi2.shape != (grid.n,):
            raise ValueError("component samples must match the grid size")
        _, total = _site_probabilities(psi1, psi2, grid.h)
        if total <= 0.0:
            raise ValueError("cannot normalize a null state")
        scale = 1.0 / math.sqrt(total)
        psi1 = psi1 * scale
        psi2 = psi2 * scale
        _, norm_sq = _site_probabilities(psi1, psi2, grid.h)
        pr, rms = localization_of(psi1, psi2, grid.x, grid.h)
        psi1.setflags(write=False)
        psi2.setflags(write=False)
        return cls(
            E=float(E),
            psi1=psi1,
            psi2=psi2,
            norm=math.sqrt(norm_sq),
            participation_ratio=pr,
            rms_width=rms,
            residual=None if residual is None else float(residual),
        )
