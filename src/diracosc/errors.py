"""Exception taxonomy shared by all modules.

Every error raised on purpose by this package derives from DiracOscError so
callers can catch the whole family with one clause. The CLI maps these to
process exit codes (see cli module).
"""


class DiracOscError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DiracOscError, ValueError):
    """A coordinate or grid left the superpotential's domain of definition."""


class ConfigError(DiracOscError, ValueError):
    """Invalid configuration value, key, or constructor argument."""


class ConvergenceError(DiracOscError, RuntimeError):
    """A numerical routine failed: a LAPACK eigensolver reported failure or
    returned the wrong number of eigenvalues (pathological input), two
    derivations of one quantity disagree beyond rounding (a level count
    that falls as |E| grows), or a lattice would converge to another
    problem's levels (tan sigma=-1 below alpha 1/2)."""


class CriticalFieldError(DiracOscError, ValueError):
    """|kappa| >= 1: the spin matrix is defective or its eigenvalues are
    imaginary, so no reduction to a real Schrodinger problem exists and the
    closed-form routes refuse to run."""


class BracketError(DiracOscError, RuntimeError):
    """The nonlinear level solver's count never reaches n + 1 below E_max:
    no such bound level exists."""


class DegenerateStateError(DiracOscError, RuntimeError):
    """The first-order spinor reconstruction annihilated the state (its norm
    vanished before normalization)."""


class IndexOutOfRangeError(DiracOscError, IndexError):
    """No level carries the requested label: `wavefunction` asked for a level
    the lattice run does not hold."""


class ResourceError(DiracOscError, RuntimeError):
    """A requested lattice exceeds the matrix-dimension cap, the constant
    dirac_solver.DIM_CAP: a convergence run's base grid must leave its h/2
    grid within it, which is about the size of the ladder's second round."""
