"""Closed-form level laws for the two certified superpotential families,
index bookkeeping, degeneracy pairing, and the bound-state domain test.

Both families share the reduced-problem structure: eliminating one spinor
component maps the coupled system onto a pair of partner Schrodinger problems
whose levels epsilon_n depend on the single index

    n_sigma = n + (1 + sigma)/2,

so states (sigma=-1, n=k) and (sigma=+1, n=k-1) share n_sigma=k and are
exactly degenerate; only the n_sigma=0 state (which exists on the sigma=-1
side and on the positive energy branch alone, as +E0) is unpaired. Energies
follow from

    epsilon = E^2/(1-kappa^2) - m^2.

Linear family (W = w1 x): epsilon_n = 2 w1 sqrt(1-kappa^2) n_sigma, giving

    E = +-sqrt((1-kappa^2)(2 w1 sqrt(1-kappa^2) n_sigma + m^2)).

Trigonometric family (W = alpha0 tan x): the reduced problem is a
trigonometric Poschl-Teller well with an energy-dependent shift. Its
shape-invariance ladder increases the well parameter by one unit per level,
which yields

    epsilon_n = (alpha + n_sigma)^2 - alpha^2 + beta^2
                - alpha^2 beta^2 / (alpha + n_sigma)^2,

with alpha = alpha0 sqrt(1-kappa^2) and beta = kappa E / sqrt(1-kappa^2).
Because beta depends on E, substituting epsilon(E) turns the law into a
quadratic in E^2,

    E^2 (1 + alpha0^2 kappa^2 / (alpha + n_sigma)^2)
        = m^2 + (alpha + n_sigma)^2 - alpha0^2 (1-kappa^2),

which is solved directly; the ladder form is then re-evaluated at the solved
E as an internal cross-check of the two derivations (they must agree to
1e-12 relative). Lattice diagonalization independently confirms these values
to ~1e-9.

All of this holds only on the subcritical domain |kappa| < 1; at |kappa| = 1
the effective coupling sqrt(1-kappa^2) vanishes and beyond it no bound states
exist, which bound_state_domain classifies.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import (
    ConvergenceError,
    DomainError,
    IndexOutOfRangeError,
    NoRealEnergyError,
)
from .model import (
    Family,
    LevelIndex,
    PhysicalParams,
    SpectrumRecord,
    level_labels,
    require_subcritical,
)

__all__ = [
    "BoundStateDomain",
    "bound_state_domain",
    "LevelPair",
    "TanLevel",
    "spectrum_linear",
    "spectrum_tan",
    "level_energies",
    "full_spectrum",
    "degenerate_pairs",
    "linear_epsilon",
    "tan_epsilon",
]


class BoundStateDomain(Enum):
    BOUND = "bound"
    CRITICAL = "critical"
    UNBOUND = "unbound"


def bound_state_domain(kappa: float) -> BoundStateDomain:
    """Classify the coupling: bound spectrum for |kappa|<1, the critical
    point at |kappa|=1, no bound states beyond."""
    a = abs(kappa)
    if a < 1.0:
        return BoundStateDomain.BOUND
    if a == 1.0:
        return BoundStateDomain.CRITICAL
    return BoundStateDomain.UNBOUND


class LevelPair(NamedTuple):
    E_plus: float
    E_minus: float


class TanLevel(NamedTuple):
    E_plus: float
    E_minus: float
    epsilon: float


def linear_epsilon(w1: float, kappa: float, n_sigma: int) -> float:
    """Reduced-problem level of the linear family: equally spaced ladder
    with spacing 2 w1 sqrt(1-kappa^2)."""
    return 2.0 * w1 * math.sqrt(1.0 - kappa * kappa) * n_sigma


def tan_epsilon(alpha: float, beta: float, n_sigma: int) -> float:
    """Shape-invariance ladder of the trigonometric family, parametrized by
    the well strength alpha and the energy-dependent tilt beta."""
    t = alpha + n_sigma
    return t * t - alpha * alpha + beta * beta - (alpha * beta / t) ** 2


def spectrum_linear(m: float, w1: float, kappa: float, idx: LevelIndex) -> LevelPair:
    """Closed-form level of the linear family at the given index.

    E = +-sqrt((1-kappa^2)(2 w1 sqrt(1-kappa^2) n_sigma + m^2)); the two
    branches are exact negatives. Raises CriticalFieldError for |kappa|>=1.
    """
    omk = require_subcritical(kappa)
    if not w1 > 0.0:
        raise DomainError(f"linear slope must be positive, got {w1}")
    e2 = omk * (linear_epsilon(w1, kappa, idx.n_sigma) + m * m)
    e = math.sqrt(e2)
    return LevelPair(e, -e)


def _tan_E2(m: float, alpha0: float, kappa: float, n_sigma: int) -> float:
    omk = require_subcritical(kappa)
    alpha = alpha0 * math.sqrt(omk)
    if not n_sigma < alpha:
        raise IndexOutOfRangeError(
            f"level n_sigma = {n_sigma} outside the certified window "
            f"n_sigma < alpha0*sqrt(1-kappa^2) = {alpha:.6g}"
        )
    t = alpha + n_sigma
    numerator = m * m + t * t - alpha0 * alpha0 * omk
    if numerator < 0.0:
        raise NoRealEnergyError(
            f"no real energy at n_sigma = {n_sigma}: E^2 would be negative"
        )
    return numerator / (1.0 + (alpha0 * kappa / t) ** 2)


def spectrum_tan(m: float, alpha0: float, kappa: float, idx: LevelIndex) -> TanLevel:
    """Closed-form level of the trigonometric family at the given index,
    plus the reduced-problem eigenvalue epsilon for cross-checking.

    The energy solves a quadratic in E^2 (see module docstring); the ladder
    form of the same law, evaluated at the solved E, must reproduce
    epsilon = E^2/(1-kappa^2) - m^2 to 1e-12 relative - the two derivations
    are independent transcriptions, so this guards both.

    Raises CriticalFieldError for |kappa|>=1, IndexOutOfRangeError when
    n_sigma >= alpha0*sqrt(1-kappa^2) (outside the certified ladder window),
    NoRealEnergyError if the solved E^2 is negative, ConvergenceError if the
    two forms disagree.
    """
    n_sigma = idx.n_sigma
    e2 = _tan_E2(m, alpha0, kappa, n_sigma)
    e = math.sqrt(e2)
    omk = 1.0 - kappa * kappa
    eps = e2 / omk - m * m
    alpha = alpha0 * math.sqrt(omk)
    beta = kappa * e / math.sqrt(omk)
    eps_ladder = tan_epsilon(alpha, beta, n_sigma)
    if not abs(eps_ladder - eps) <= 1e-12 * max(1.0, abs(eps)):
        raise ConvergenceError(
            "ladder and quadratic forms of the trigonometric level law disagree "
            f"at n_sigma = {n_sigma}: epsilon {eps_ladder!r} against {eps!r}"
        )
    return TanLevel(e, -e, eps)


def level_energies(params: PhysicalParams, n_sigma: int) -> LevelPair:
    """Family-dispatched (E_plus, E_minus) at a reduced index n_sigma."""
    sp = params.superpotential
    idx = LevelIndex(n=n_sigma, sigma=-1)
    if sp.family is Family.LINEAR:
        return LevelPair(*spectrum_linear(params.mass, sp.w1, params.kappa, idx))
    if sp.family is Family.TANGENT:
        lv = spectrum_tan(params.mass, sp.alpha0, params.kappa, idx)
        return LevelPair(lv.E_plus, lv.E_minus)
    raise DomainError(
        "tabulated superpotentials are outside the closed-form route"
    )


def _admissible_n_sigma(params: PhysicalParams, max_n: int):
    sp = params.superpotential
    if sp.family is Family.TANGENT:
        alpha = sp.alpha0 * math.sqrt(1.0 - params.kappa**2)
        return [k for k in range(max_n + 1) if k < alpha]
    return list(range(max_n + 1))


def full_spectrum(params: PhysicalParams, max_n: int) -> list[SpectrumRecord]:
    """Enumerate every closed-form level with reduced index n_sigma <= max_n
    (clipped to the trigonometric family's certified window), both spin
    labels, both energy branches.

    Each n_sigma >= 1 appears on both branches under its two equivalent
    labels (sigma=-1, n=n_sigma) and (sigma=+1, n=n_sigma-1); n_sigma=0
    exists on the positive branch only, as +E0 under (sigma=-1, n=0).
    Records are sorted by |E| then sigma, carry route
    "analytic", converged=True, err_est=0.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    require_subcritical(params.kappa)
    omk = 1.0 - params.kappa**2
    m = params.mass
    records = []
    for k in _admissible_n_sigma(params, max_n):
        ep, em = level_energies(params, k)
        eps = ep * ep / omk - m * m
        for branch, e in ((1, ep), (-1, em)):
            for sigma, n in level_labels(branch, k):
                records.append(
                    SpectrumRecord(
                        route="analytic",
                        branch=branch,
                        sigma=sigma,
                        n=n,
                        E=e,
                        epsilon=eps,
                        converged=True,
                        err_est=0.0,
                    )
                )
    records.sort(key=lambda r: (abs(r.E), r.sigma, -r.branch))
    return records


DEGENERACY_RTOL = 1e-6


def degenerate_pairs(records):
    """Partition one route's, one branch's records into degenerate pairs and
    leftovers.

    A pair joins the sigma=-1 and sigma=+1 records sharing n_sigma = k >= 1
    whenever their energies agree to 1e-6 relative (against max(|E|, 1)).
    The |E|-minimal n_sigma=0 record and any E=0 record stay unpaired.
    Returns (pairs, unpaired).
    """
    by_key: dict = {}
    order = []
    for rec in records:
        key = (rec.branch, rec.n_sigma, rec.sigma)
        if key not in by_key:
            by_key[key] = rec
            order.append(key)
    pairs = []
    used_ids: set = set()
    for branch, k_sig, sigma in order:
        if sigma != -1 or k_sig < 1:
            continue
        partner = by_key.get((branch, k_sig, 1))
        if partner is None:
            continue
        rec = by_key[(branch, k_sig, -1)]
        if rec.E == 0.0 or partner.E == 0.0:
            continue
        if abs(rec.E - partner.E) <= DEGENERACY_RTOL * max(
            abs(rec.E), abs(partner.E), 1.0
        ):
            pairs.append((rec, partner))
            used_ids.add(id(rec))
            used_ids.add(id(partner))
    unpaired = [rec for rec in records if id(rec) not in used_ids]
    return pairs, unpaired
