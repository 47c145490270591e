"""Bound states of a (1+1)-dimensional Dirac oscillator whose coupling is
shaped by a superpotential-proportional electric field.

Three independent routes to the same spectrum:

* ``analytic``  - closed-form level laws for the linear and trigonometric
  superpotential families (:mod:`diracosc.analytic`);
* ``dirac``     - direct lattice diagonalization of the first-order operator
  (:mod:`diracosc.dirac_solver`);
* ``susy``      - reduction to partner Schrodinger problems with a nonlinear
  level condition, plus spinor reconstruction
  (:mod:`diracosc.susy_reduction`).

Shared domain types live in :mod:`diracosc.model`, with the level
bookkeeping every route shares: the label n_sigma = n + (1+sigma)/2
(``reduced_index``) and the reduced eigenvalue epsilon = E^2/(1-kappa^2) - m^2
(``reduced_epsilon``); the closed-form laws take n_sigma directly. The
symmetric tridiagonal eigensolver kernel (LAPACK eigenvalues, Sturm counts
and eigenvectors) lives in :mod:`diracosc.linalg`, and the command-line
front end in :mod:`diracosc.cli` (installed as ``diracosc``).
"""

from . import analytic, cli, dirac_solver, linalg, model, susy_reduction
from .analytic import (
    degenerate_pairs,
    full_spectrum,
    spectrum_linear,
    spectrum_tan,
)
from .dirac_solver import (
    assemble_dirac_matrix,
    converge_box_full,
    dirac_spectrum,
)
from .errors import (
    BracketError,
    ConfigError,
    ConvergenceError,
    CriticalFieldError,
    DegenerateStateError,
    DiracOscError,
    DomainError,
    IndexOutOfRangeError,
    ResourceError,
)
from .model import (
    Family,
    Grid,
    PhysicalParams,
    SpectrumRecord,
    SpinorState,
    Superpotential,
    eval_superpotential,
    reduced_epsilon,
    reduced_index,
)
from .susy_reduction import (
    effective_superpotential,
    reconstruct_spinor,
    schrodinger_operator,
    solve_nonlinear_level,
    spin_eigensystem,
)

__version__ = "0.1.0"
