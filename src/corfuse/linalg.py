"""Small dense linear-algebra helpers used by the filter modules."""
from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part (a + a.T) / 2."""
    return 0.5 * (a + a.T)


def spd_solve(a: np.ndarray, b: np.ndarray, ridge: float = 1e-12) -> tuple[np.ndarray, bool]:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a`` via Cholesky.

    LAPACK ``potrf``/``potrs`` are called directly: SciPy's ``cho_factor``
    and ``cho_solve`` wrappers cost about four times a 9x9 solve itself.

    If the factorization fails, ``ridge`` is added to the diagonal and the
    solve is retried; should the fixed ridge be too small relative to the
    matrix scale, it is escalated until the factorization goes through.
    Returns ``(x, regularized)`` where the flag says whether any fallback
    was taken; raises LinAlgError once the ridge passes 1e3 times that scale.
    """
    a = np.asarray(a, dtype=float)
    factor, info = dpotrf(a, lower=1, clean=0)
    if info == 0:
        return dpotrs(factor, b, lower=1)[0], False
    eye = np.eye(a.shape[0])
    bump = ridge
    scale = max(float(np.abs(np.diag(a)).max()), 1.0)
    while True:
        factor, info = dpotrf(a + bump * eye, lower=1, clean=0)
        if info == 0:
            return dpotrs(factor, b, lower=1)[0], True
        if bump > 1e3 * scale:
            raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
        bump = max(bump * 1e3, 1e-15 * scale)


def psd_project(a: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the positive-semidefinite cone.

    Eigenvalues below zero are clipped; the result is re-symmetrized so that
    round-off cannot reintroduce asymmetry.
    """
    sym = symmetrize(np.asarray(a, dtype=float))
    w, v = np.linalg.eigh(sym)
    if w.min() >= 0.0:
        return sym
    return symmetrize((v * np.maximum(w, 0.0)).dot(v.T))


# Smallest diagonal entry of an adapted noise covariance, Q or R.
DIAG_FLOOR = 1e-12


def floor_diagonal(a: np.ndarray, floor: float) -> np.ndarray:
    """Raise diagonal entries of ``a`` to at least ``floor`` (copies input)."""
    out = np.array(a, dtype=float, order="C")
    diagonal = out.reshape(-1)[::out.shape[0] + 1]  # a view, as the copy is C-contiguous
    np.maximum(diagonal, floor, out=diagonal)
    return out
