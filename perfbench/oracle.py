"""Independent oracle for the benchmark: the paper's level laws and the
properties the workloads check.

Nothing here imports diracosc. The laws are written from the physics:

* linear, W = w1 x: the reduced ladder is epsilon = 2 w1 sqrt(1-k^2) n, so
  E^2 = (1-k^2) (2 w1 sqrt(1-k^2) n + m^2);
* tan, W = alpha0 tan x: the reduced ladder is the trigonometric
  Poschl-Teller one with alpha = alpha0 sqrt(1-k^2), beta = k E / sqrt(1-k^2),
  t = alpha + n,

      epsilon = t^2 - alpha^2 + beta^2 - alpha^2 beta^2 / t^2,

  and epsilon = E^2/(1-k^2) - m^2. Moving the E-dependent terms to the left
  gives E^2 (1 - k^2 + alpha^2 k^2 / t^2) / (1-k^2) = m^2 + t^2 - alpha^2,
  i.e. E^2 = (m^2 + t^2 - alpha^2) / (1 + (alpha0 k / t)^2).

The tan law is evaluated for every n, with no certified window: the lattice
converges levels past n = alpha0 sqrt(1-k^2) and they obey the same law.
"""

from __future__ import annotations

import math

# relative tolerances, against max(|E|, 1)
LATTICE_RTOL = 1e-5  # converged lattice level vs the law
SUSY_RTOL = 1e-6  # closed-form and reduction-route levels vs the law
PAIR_RTOL = 1e-6  # E+ = -E- and the (sigma=-1, k) / (sigma=+1, k-1) pair


class Mismatch(Exception):
    """An output of the program disagrees with the oracle or a property."""


def level_energy(family: str, kappa: float, n_sigma: int, *, w1: float = 1.0,
                 alpha0: float = 5.0, mass: float = 1.0) -> float:
    """Positive-branch energy of level n_sigma (the negative branch is its
    mirror). Raises ValueError for |kappa| >= 1, where no bound level exists."""
    omk = 1.0 - kappa * kappa
    if not omk > 0.0:
        raise ValueError(f"no bound levels at |kappa| = {abs(kappa)}")
    if family == "linear":
        return math.sqrt(omk * (2.0 * w1 * math.sqrt(omk) * n_sigma + mass * mass))
    if family == "tan":
        alpha = alpha0 * math.sqrt(omk)
        t = alpha + n_sigma
        return math.sqrt((mass * mass + t * t - alpha * alpha)
                         / (1.0 + (alpha0 * kappa / t) ** 2))
    raise ValueError(f"no level law for family {family!r}")


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def as_level(rec) -> tuple:
    """(route, branch, sigma, n, E, converged) of a SpectrumRecord or of a
    row parsed from the CLI's CSV/JSON output."""
    if isinstance(rec, dict):
        branch = rec["branch"]
        branch = (1 if branch == "+" else -1) if isinstance(branch, str) else int(branch)
        conv = rec["converged"]
        conv = conv == "true" if isinstance(conv, str) else bool(conv)
        return (rec["route"], branch, int(rec["sigma"]), int(rec["n"]),
                float(rec["E"]), conv)
    return (rec.route, rec.branch, rec.sigma, rec.n, float(rec.E), bool(rec.converged))


def n_sigma_of(sigma: int, n: int) -> int:
    return n + (1 + sigma) // 2


def check_levels(records, family: str, kappa: float, rtol: float, **law) -> None:
    """Every level flagged converged matches the law at its label, with the
    sign of its branch; past |kappa| = 1 no level may be flagged converged."""
    for route, branch, sigma, n, e, conv in map(as_level, records):
        if not conv:
            continue
        if abs(kappa) >= 1.0:
            raise Mismatch(f"{route} level (sigma={sigma}, n={n}) flagged "
                           f"converged at supercritical kappa {kappa}")
        want = branch * level_energy(family, kappa, n_sigma_of(sigma, n), **law)
        if not _close(e, want, rtol):
            raise Mismatch(f"{route} level (branch={branch:+d}, sigma={sigma}, "
                           f"n={n}) E={e!r}, law {want!r}")


def _converged_labels(records) -> dict:
    """{(route, branch, sigma, n): E} of the levels flagged converged. A
    label that two converged levels of one route carry is a mislabelled
    level and raises Mismatch."""
    by_key = {}
    for route, branch, sigma, n, e, conv in map(as_level, records):
        if not conv:
            continue
        key = (route, branch, sigma, n)
        if key in by_key:
            raise Mismatch(f"{route} label (branch={branch:+d}, sigma={sigma}, n={n}) "
                           f"on two converged levels: E={by_key[key]!r} and E={e!r}")
        by_key[key] = e
    return by_key


def check_complete(records, count: int) -> None:
    """Within each route, the positive-branch levels flagged converged are
    exactly n_sigma = 0..count-1, each once: the labels (sigma=-1, n=k) for
    every k and (sigma=+1, n=k-1) for k >= 1. A level that is missing,
    flagged unconverged or labelled twice fails."""
    want = {(-1, k) for k in range(count)} | {(1, k - 1) for k in range(1, count)}
    have = {}
    for route, branch, sigma, n in _converged_labels(records):
        if branch == 1:
            have.setdefault(route, set()).add((sigma, n))
    for route in {as_level(rec)[0] for rec in records}:
        got = have.get(route, set())
        if got != want:
            raise Mismatch(f"{route}: converged positive labels {sorted(got)}, "
                           f"expected {sorted(want)}")


def check_pairs(records, rtol: float = PAIR_RTOL) -> None:
    """Within each route, among converged levels: no label twice, E+ = -E-
    at equal label, and the SUSY partners (sigma=-1, n=k) and
    (sigma=+1, n=k-1) agree."""
    by_key = _converged_labels(records)
    for (route, branch, sigma, n), e in by_key.items():
        if branch == 1:
            mirror = by_key.get((route, -1, sigma, n))
            if mirror is not None and not _close(e, -mirror, rtol):
                raise Mismatch(f"{route} (sigma={sigma}, n={n}): E+ = {e!r} "
                               f"but E- = {mirror!r}")
        if sigma == -1 and n >= 1:
            partner = by_key.get((route, branch, 1, n - 1))
            if partner is not None and not _close(e, partner, rtol):
                raise Mismatch(f"{route} branch {branch:+d}: (sigma=-1, n={n}) "
                               f"E={e!r} vs (sigma=+1, n={n - 1}) E={partner!r}")
