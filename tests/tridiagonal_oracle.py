"""Reference symmetric tridiagonal eigensolvers, the oracle the tests check
the production LAPACK kernel (diracosc.linalg) against.

Written against numpy arrays with a Python loop over the matrix dimension and
vectorized over a batch of lambda values, on a diracosc.linalg.Tridiagonal:

* eigen_ql: implicit-shift QL, for small matrices and cross-validation.
* sturm_count / eigen_bisect: Sturm counting plus bisection.
* norm_bound, gershgorin, to_dense: the matrix's row-sum norm bound, its
  Gershgorin interval and its dense form.

The tests check the production path against these to 1e-10 ||T||.
"""

import math

import numpy as np

from diracosc.errors import ConfigError, ConvergenceError
from diracosc.linalg import Tridiagonal

_EPS = np.finfo(float).eps


def norm_bound(t: Tridiagonal) -> float:
    """Row-sum (infinity-norm) bound, also the Gershgorin radius scale."""
    r = np.zeros(t.n)
    if t.n > 1:
        r[:-1] += np.abs(t.e)
        r[1:] += np.abs(t.e)
    return float(np.max(np.abs(t.d) + r)) or 1.0


def gershgorin(t: Tridiagonal) -> tuple[float, float]:
    r = np.zeros(t.n)
    if t.n > 1:
        r[:-1] += np.abs(t.e)
        r[1:] += np.abs(t.e)
    return float(np.min(t.d - r)), float(np.max(t.d + r))


def to_dense(t: Tridiagonal) -> np.ndarray:
    a = np.diag(t.d)
    if t.n > 1:
        a += np.diag(t.e, 1) + np.diag(t.e, -1)
    return a


def eigen_ql(t: Tridiagonal, want_vectors: bool = False):
    """All eigenvalues (ascending) by implicit-shift QL; optional orthonormal
    eigenvectors as columns. Raises ConvergenceError past 30 sweeps per
    eigenvalue (pathological input)."""
    n = t.n
    d = t.d.astype(float).copy()
    e = np.zeros(n)
    e[: n - 1] = t.e
    v = np.eye(n) if want_vectors else None

    for l in range(n):
        sweeps = 0
        while True:
            m = n - 1
            for mm in range(l, n - 1):
                dd = abs(d[mm]) + abs(d[mm + 1])
                if abs(e[mm]) <= _EPS * dd:
                    m = mm
                    break
            if m == l:
                break
            sweeps += 1
            if sweeps > 30:
                raise ConvergenceError(
                    f"QL failed to deflate eigenvalue {l} within 30 sweeps"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if v is not None:
                    col = v[:, i + 1].copy()
                    v[:, i + 1] = s * v[:, i] + c * col
                    v[:, i] = c * v[:, i] - s * col
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0

    order = np.argsort(d, kind="stable")
    w = d[order]
    if v is not None:
        v = v[:, order]
    return (w, v) if want_vectors else (w, None)


def _pivot_floor(t: Tridiagonal) -> float:
    return 1e-300 * norm_bound(t)


def _sturm_counts(t: Tridiagonal, lams: np.ndarray) -> np.ndarray:
    """Number of eigenvalues strictly below each lambda (batched)."""
    lams = np.asarray(lams, dtype=float)
    floor = _pivot_floor(t)
    d = t.d
    esq = t.e * t.e
    q = d[0] - lams
    q = np.where(np.abs(q) < floor, np.where(q < 0.0, -floor, floor), q)
    counts = (q < 0.0).astype(np.int64)
    for i in range(1, t.n):
        q = d[i] - lams - esq[i - 1] / q
        q = np.where(np.abs(q) < floor, np.where(q < 0.0, -floor, floor), q)
        counts += q < 0.0
    return counts


def sturm_count(t: Tridiagonal, lam: float) -> int:
    """Exact count of eigenvalues strictly below lam, by the Sturm sign
    recurrence with safeguarded pivots (floor 1e-300 * ||T||)."""
    return int(_sturm_counts(t, np.array([float(lam)]))[0])


def _bisect_to_width(t, ks, a, b, ca, cb, rel_width):
    """Shrink per-index brackets [a_k, b_k] (with cached endpoint counts) by
    batched bisection until b - a <= rel_width * max(|a|, |b|) + eps * ||T||."""
    ks = np.asarray(ks, dtype=np.int64)
    scale = norm_bound(t)
    abs_floor = 4.0 * _EPS * scale
    for _ in range(200):
        tol = rel_width * np.maximum(np.abs(a), np.abs(b)) + abs_floor
        live = (b - a) > tol
        if not np.any(live):
            break
        mid = 0.5 * (a + b)
        c = np.empty_like(ca)
        c[live] = _sturm_counts(t, mid[live])
        ge = live & (c >= ks)
        lt = live & ~ge
        b[ge] = mid[ge]
        cb[ge] = c[ge]
        a[lt] = mid[lt]
        ca[lt] = c[lt]
    return a, b, ca, cb


def eigen_bisect(t: Tridiagonal, k_lo: int, k_hi: int) -> np.ndarray:
    """Eigenvalues k_lo..k_hi (1-indexed, ascending), each bracketed by the
    Gershgorin bounds and bisected to relative width 1e-12."""
    n = t.n
    if not (1 <= k_lo <= k_hi <= n):
        raise ConfigError(f"need 1 <= k_lo <= k_hi <= {n}, got ({k_lo}, {k_hi})")
    ks = np.arange(k_lo, k_hi + 1, dtype=np.int64)
    lo, hi = gershgorin(t)
    pad = 2.0 * _EPS * norm_bound(t) + 1e-300
    a = np.full(ks.size, lo - pad)
    b = np.full(ks.size, hi + pad)
    ca = np.zeros(ks.size, dtype=np.int64)
    cb = np.full(ks.size, n, dtype=np.int64)
    a, b, _, _ = _bisect_to_width(t, ks, a, b, ca, cb, 1e-12)
    return 0.5 * (a + b)
