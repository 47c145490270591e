"""Shared parameter builders.

Tests that need a converged spectrum use the same canonical calls: linear
families with levels=8, tan families with levels=5 (n_sigma 0..levels-1 on
both branches), tol=1e-6, default grid.
The library keeps its 4 least recently used lattice convergence runs and 16
level solves, keyed on the call after its defaults are resolved (a default
passed explicitly is the same call), so a repeated call is served from the
cache only while few other calls come between; module-scoped fixtures hold
the results a test module shares.
"""

from diracosc.model import PhysicalParams, Superpotential


def linear_params(kappa: float, mass: float = 1.0, w1: float = 1.0) -> PhysicalParams:
    return PhysicalParams(
        mass=mass, kappa=kappa, superpotential=Superpotential.linear(w1)
    )


def tan_params(kappa: float, alpha0: float = 5.0, mass: float = 1.0) -> PhysicalParams:
    return PhysicalParams(
        mass=mass, kappa=kappa, superpotential=Superpotential.tangent(alpha0)
    )
