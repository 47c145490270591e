"""Symmetric tridiagonal eigensolver kernel, compiled LAPACK called through
ctypes:

* _indexed_eigenvalues: eigenvalues by sorted index, from one `dstebz` call
  (Sturm-sequence bisection, after W. Kahan, "Accurate eigenvalues of a
  symmetric tri-diagonal matrix", 1966) over the index range requested, to
  full accuracy or to a given absolute tolerance, or, for one index, over a
  value window that its Sturm counts certify to hold that eigenvalue alone.
* sturm_count: exact eigenvalue counts below given values, from the Sturm
  count of `dlaebz`, which splits a lattice spectrum at E = 0 and certifies
  windows and predicted eigenvalues.
* tridiagonal_eigenvectors: eigenvectors at given eigenvalues, from one
  `dstein` call (inverse iteration, the routine LAPACK pairs with `dstebz`).
* _predicted_eigenvalues: eigenvalues and eigenvectors by sorted index from
  predictions of the eigenvalues, from one `dstein` call at the predictions
  and each vector's Rayleigh quotient, certified by the residuals and two
  Sturm counts, or None for the caller to bisect instead. Given a split
  value, the same Sturm call also counts the eigenvalues below it, and the
  indices are the ones nearest the split: a lattice grid whose levels are
  predicted then takes one Sturm call, where picking its indices first
  would take a second.

Every lattice grid takes _predicted_eigenvalues. A grid after a convergence
run's base grid has its levels predicted to O(h^2) by a coarser grid; on
16007 rows (linear kappa 0.4, 4 levels, predictions off by 1.4e-5) that
takes 7.5-8.4 ms where the index search takes 29.6-31.3 ms, and agrees with
it to 3e-15 relative (1 CPU). The base grid has no prediction, so
dirac_solver bisects it to 1e-4 first and takes its values and its states
from the same call: on a tan grid of 1001 rows with 6 levels that is 0.96 +
0.68 ms, where the full index search and the states' own dstein call take
2.65 + 0.48 ms (1 CPU). Certified range-`V` windows gain only 1.2-1.5x over
the index search (21-27 ms for the 4 levels at +-1e-6 to +-1e-3). The susy
reduced operator keeps the windows: its 1/h^2 diagonal (2/h^2 = 2.0e5 at
tan grid.n 1000) limits a Rayleigh quotient to about eps * 2/h^2 = 4.5e-11,
where bisection gives an eigenvalue to a few ulps of itself, and a mirrored
susy minus root must match an explicit minus solve to 1e-12.

The routines come from the C-API capsules of scipy's Cython module
`cython_lapack`, loaded by itself on first use. Importing `scipy.linalg`
would run that package's init, which costs about 26 MB of peak RSS and
0.25 s, for three routines. _call hands a routine raw addresses, read
through the buffer protocol: for the 20 arguments of dlaebz that takes 10
us where numpy's `a.ctypes.data` takes 23, and the count itself on a
249-row lattice takes 6 us (2-core Xeon, one BLAS thread). The arrays that
protocol refuses take `a.ctypes.data`: a read-only one (the lattice's
cached bonds), one that is not C-contiguous (dstein's Fortran-ordered Z,
dlaebz's AB and NAB when they hold more than one interval) and an empty
one. Every argument array, the one-element scalars included, is still
built anew for each call.

The tests check this path against a Python reference (QL, Sturm counts and
bisection, in tests/tridiagonal_oracle.py) to 1e-10 ||T||.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError

__all__ = [
    "Tridiagonal",
    "sturm_count",
    "tridiagonal_eigenvectors",
]

_EPS = np.finfo(float).eps
_ABSTOL = 2.0 * np.finfo(float).tiny


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix: diagonal d[0..n-1], off-diagonal e[0..n-2]."""

    d: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        e = np.asarray(self.e, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise ConfigError("tridiagonal diagonal must be a non-empty 1-D array")
        if e.shape != (d.size - 1,):
            raise ConfigError("off-diagonal must have length n-1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ConfigError("tridiagonal entries must be finite")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)

    @property
    def n(self) -> int:
        return self.d.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.d * v
        if self.n > 1:
            out[:-1] += self.e * v[1:]
            out[1:] += self.e * v[:-1]
        return out


_CYTHON_LAPACK = None
_ROUTINES: dict = {}
# held while a module or routine is loaded: two threads executing the module
# at once can leave one of them with a module that holds no capsules
_LOAD_LOCK = threading.Lock()
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _cython_lapack():
    """scipy's Cython LAPACK module, loaded alone on first use (see the
    module docstring for why `scipy.linalg` is not imported)."""
    global _CYTHON_LAPACK
    if _CYTHON_LAPACK is None:
        with _LOAD_LOCK:
            if _CYTHON_LAPACK is None:
                scipy_spec = importlib.util.find_spec("scipy")
                if scipy_spec is None or not scipy_spec.submodule_search_locations:
                    raise ImportError("scipy is required for the LAPACK eigensolver")
                where = [
                    os.path.join(loc, "linalg")
                    for loc in scipy_spec.submodule_search_locations
                ]
                spec = importlib.machinery.PathFinder.find_spec("cython_lapack", where)
                if spec is None:
                    raise ImportError("scipy's compiled module cython_lapack was not found")
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                _CYTHON_LAPACK = module
    return _CYTHON_LAPACK


# argument types of the C prototypes, by their last "_"-separated token
# (cython_lapack's double is a typedef ending in "_d")
_ARG_DTYPES = {"int *": np.dtype(np.intc), "char *": np.dtype("S1"), "d *": np.dtype(float)}


def _lapack(name: str):
    """LAPACK routine `name` from the C-API capsule cython_lapack exports for
    it: (ctypes function taking every argument by address, dtype of each
    argument)."""
    routine = _ROUTINES.get(name)
    if routine is None:
        capi = _cython_lapack().__pyx_capi__
        with _LOAD_LOCK:
            routine = _ROUTINES.get(name)
            if routine is None:
                capsule = capi[name]
                # the capsule's name is the C prototype, "void (int *, double *, ...)"
                prototype = _capsule_name(capsule)
                address = _capsule_pointer(capsule, prototype)
                args = prototype.decode()[len("void ("):-1].split(", ")
                dtypes = tuple(_ARG_DTYPES[arg.rsplit("_", 1)[-1]] for arg in args)
                fn = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(args))(address)
                routine = _ROUTINES[name] = (fn, dtypes)
    return routine


def _address(a: np.ndarray) -> int:
    """The address of a's first element, read through the buffer protocol,
    which takes less than half the time of numpy's `a.ctypes.data`. The
    protocol refuses a read-only array, one that is not C-contiguous (a
    Fortran-ordered matrix) and an empty one; those take `a.ctypes.data`."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


def _call(name: str, *args: np.ndarray) -> None:
    """Call LAPACK `name` with numpy arrays as its arguments (scalars travel
    as one-element arrays). Each must be Fortran-contiguous and of its
    argument's type, since LAPACK sees only the address."""
    fn, dtypes = _lapack(name)
    if len(args) != len(dtypes) or not all(
        a.dtype == dt and a.flags.f_contiguous for a, dt in zip(args, dtypes)
    ):
        raise TypeError(f"LAPACK {name} needs contiguous arrays of its argument types")
    fn(*[_address(a) for a in args])


def _int(v: int) -> np.ndarray:
    return np.array([v], dtype=np.intc)


def _real(v: float) -> np.ndarray:
    return np.array([v], dtype=float)


def _char(c: str) -> np.ndarray:
    return np.array([c.encode()], dtype="S1")


def _lapack_offdiag(t: Tridiagonal) -> np.ndarray:
    # a valid address for the off-diagonal, even at n = 1
    return np.ascontiguousarray(t.e) if t.n > 1 else np.zeros(1)


def _indexed_eigenvalues(t: Tridiagonal, ks, window=None, abstol=None) -> np.ndarray:
    """Eigenvalues with 1-based indices `ks` (sorted ascending), from one
    LAPACK dstebz bisection over the index range ks[0]..ks[-1], each to a few
    ulps of itself, or, given `abstol`, each to within abstol: dstebz stops
    bisecting an interval once it is narrower than that.

    `window` = (lo, hi) may hold a prediction of a single eigenvalue k. It is
    used only when the Sturm counts certify it, k - 1 eigenvalues below lo and
    k below hi; dstebz then bisects (lo, hi] alone, without first locating
    index k inside the Gershgorin bounds. On the susy reduced operators that
    takes 0.5-0.75 of the index search's time, the counts included, and
    agrees with it to a few ulps. A window that is not certified, or whose
    bisection finds anything but one eigenvalue below hi, falls back to the
    index search."""
    ks = np.asarray(ks, dtype=np.int64)
    n = t.n
    if ks.size == 0:
        return np.empty(0)
    if not (np.all(ks >= 1) and np.all(ks <= n) and np.all(np.diff(ks) > 0)):
        raise ConfigError("eigenvalue indices must be sorted within 1..n")
    lo, hi = int(ks[0]), int(ks[-1])
    searches = [("I", 0.0, 0.0)]
    if window is not None and lo == hi:
        vl, vu = map(float, window)
        if -math.inf < vl < vu < math.inf and tuple(sturm_count(t, [vl, vu])) == (lo - 1, lo):
            searches.insert(0, ("V", vl, vu))
    d = np.ascontiguousarray(t.d)
    e = _lapack_offdiag(t)
    m, info = _int(0), _int(0)
    w = np.empty(n)
    for rng, vl, vu in searches:
        # range "V" takes the eigenvalues in (vl, vu], range "I" those of
        # index lo..hi; order "E" sorts them ascending. The default
        # tolerance, eps * ||T||, is 2e-10 relative on a reduced operator
        # with ||T|| ~ 1e7 (its 1/h^2 and W^2 near the tan walls); twice the
        # underflow threshold asks for full relative accuracy instead
        _call(
            "dstebz", _char(rng), _char("E"), _int(n), _real(vl), _real(vu),
            _int(lo), _int(hi), _real(abstol or _ABSTOL), d, e, m, _int(0), w,
            np.empty(n, dtype=np.intc), np.empty(n, dtype=np.intc), np.empty(4 * n),
            np.empty(3 * n, dtype=np.intc), info,
        )
        if rng == "I" or (info[0] == 0 and m[0] == 1 and w[0] < vu):
            break
    if info[0] != 0 or m[0] != hi - lo + 1:
        raise ConvergenceError(
            f"LAPACK dstebz returned {m[0]} of eigenvalues {lo}..{hi} (info {info[0]})"
        )
    return w[ks - lo]


def sturm_count(t: Tridiagonal, lams) -> np.ndarray:
    """Exact number of eigenvalues strictly below each lambda, as an int64
    array aligned with `lams`, from the Sturm count of LAPACK dlaebz
    (IJOB = 1), with dstebz's pivot guard.

    dlaebz counts eigenvalues <= x, so the count is taken on -T: n minus the
    eigenvalues of -T at or below -lambda. An eigenvalue equal to lambda thus
    counts as not below (diag(1, 0, -1) has 1 eigenvalue below 0). dlarrc,
    LAPACK's other Sturm count, has no pivot guard and miscounts lattices
    with a zero diagonal (the massless kappa = 0 one).

    dlaebz counts at both ends of each interval it is given, so consecutive
    lambdas share an interval: one Sturm sweep per lambda."""
    lams = np.asarray(lams, dtype=float).ravel()
    n, k = t.n, lams.size
    m = (k + 1) // 2
    e = _lapack_offdiag(t)
    esq = e * e
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(esq)))
    # interval j is (-lams[2j], -lams[2j + 1]); np.resize pads an odd count
    # with -lams[0]
    ab = np.asfortranarray(np.resize(-lams, (m, 2)))
    nab = np.empty((m, 2), dtype=np.intc, order="F")
    info = _int(0)
    _call(
        "dlaebz", _int(1), _int(0), _int(n), _int(m), _int(m), _int(0),
        _real(0.0), _real(0.0), _real(pivmin), -t.d, e, esq,
        np.zeros(m, dtype=np.intc), ab, np.empty(m), _int(0), nab, np.empty(m),
        np.empty(m, dtype=np.intc), info,
    )
    if info[0] != 0:
        raise ConvergenceError(f"LAPACK dlaebz failed (info {info[0]})")
    return n - nab.ravel()[:k].astype(np.int64)


def tridiagonal_eigenvectors(t: Tridiagonal, lams) -> np.ndarray:
    """Unit eigenvectors for precomputed eigenvalues, returned as columns
    aligned with `lams`, from one LAPACK dstein call: inverse iteration from
    fixed start vectors, reorthogonalized within clusters of close
    eigenvalues. Each vector's largest component is positive."""
    lams = np.asarray(lams, dtype=float)
    n, k = t.n, lams.size
    if k == 0:
        return np.empty((n, 0))
    # dstein takes the eigenvalues ascending within each block; the matrix is
    # passed as a single block
    order = np.argsort(lams, kind="stable")
    z = np.empty((n, k), order="F")
    ifail, info = np.empty(k, dtype=np.intc), _int(0)
    _call(
        "dstein", _int(n), np.ascontiguousarray(t.d), _lapack_offdiag(t), _int(k),
        lams[order], np.ones(k, dtype=np.intc), _int(n), z, _int(n),
        np.empty(5 * n), np.empty(n, dtype=np.intc), ifail, info,
    )
    if info[0] != 0:
        raise ConvergenceError(f"LAPACK dstein failed (info {info[0]})")
    vecs = np.empty((n, k))
    vecs[:, order] = z
    return vecs


def _nearest_indices(n: int, c: int, below: int, above: int) -> np.ndarray:
    """The 1-based indices of the `below` highest eigenvalues under a value
    and the `above` lowest at or over it, as far as the n eigenvalues go,
    where c of them lie under it."""
    return np.arange(max(c - below + 1, 1), min(c + above, n) + 1, dtype=np.int64)


def _predicted_eigenvalues(t: Tridiagonal, ks, guess, split=None):
    """(values, vectors) for the 1-based indices `ks` (consecutive and
    ascending) from predictions `guess` of their eigenvalues, one per index,
    or None where a prediction misses. The vectors are unit columns aligned
    with `ks`.

    Given `split`, a value, ks = (below, above) names the eigenvalues
    nearest it instead: the `below` highest under split and the `above`
    lowest at or over it (_nearest_indices). Their indices hang on c, the
    number of eigenvalues under split, which the certificate's Sturm call
    reads too, so one call both picks the indices and certifies them. The
    result is then (values, vectors, c).

    One dstein call (tridiagonal_eigenvectors) runs inverse iteration at the
    guesses; each vector z's Rayleigh quotient rho = z'Tz / z'z is the value
    and r = ||Tz - rho z|| / ||z|| its residual, taken one column at a time.
    Some eigenvalue lies within r of rho, and rho is within r^2 / gap of it
    (Parlett, The Symmetric Eigenvalue Problem, 1980, ch. 4). A guess off by
    more than about 1e-4 relative leaves r above 1e-9 max(1, |rho|); then a
    second call runs at the Rayleigh quotients, which are that much closer.

    The result is accepted only if every r <= 1e-9 max(1, |rho|), the
    intervals rho -+ g, g = max(2r, 4 eps max(1, |rho|)), taken in the order
    of `ks`, ascend without touching, and one Sturm count reads ks[0] - 1
    eigenvalues below the lowest end and ks[-1] below the highest. The span
    then holds len(ks) eigenvalues and each interval at least one, so each
    holds exactly one, of index ks[j]: two counts certify them all. A NaN
    guess, a number of guesses other than len(ks), indices that skip one, a
    vector that does not converge or a certificate that fails returns None,
    and the caller bisects (_indexed_eigenvalues)."""
    shifts = np.asarray(guess, dtype=float)
    if split is None:
        ks = np.asarray(ks, dtype=np.int64)
        if ks.size == 0 or shifts.shape != ks.shape or np.any(np.diff(ks) != 1):
            return None
    elif shifts.ndim != 1 or not 0 < shifts.size <= t.n:
        return None
    if not np.all(np.isfinite(shifts)):
        return None
    rho, res = np.empty(shifts.size), np.empty(shifts.size)
    for _ in range(2):
        try:
            vecs = tridiagonal_eigenvectors(t, shifts)
        except ConvergenceError:
            return None
        for j in range(shifts.size):
            z = vecs[:, j]
            zz = z @ z
            tz = t.matvec(z)
            rho[j] = (z @ tz) / zz
            tz -= rho[j] * z
            res[j] = math.sqrt((tz @ tz) / zz)
        scale = np.maximum(1.0, np.abs(rho))
        if np.all(res <= 1e-9 * scale):
            break
        shifts = rho.copy()
    else:
        return None
    g = np.maximum(2.0 * res, 4.0 * _EPS * scale)
    lo, hi = rho - g, rho + g
    if np.any(hi[:-1] >= lo[1:]):
        return None
    if split is None:
        counts = tuple(sturm_count(t, [lo[0], hi[-1]]))
    else:
        below_lo, c, below_hi = (int(k) for k in sturm_count(t, [lo[0], split, hi[-1]]))
        ks, counts = _nearest_indices(t.n, c, *ks), (below_lo, below_hi)
        if ks.size != rho.size:
            return None
    if counts != (ks[0] - 1, ks[-1]):
        return None
    return (rho, vecs) if split is None else (rho, vecs, c)
