"""Small dense linear-algebra helpers used by the filter modules."""
from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part (a + a.T) / 2."""
    return 0.5 * (a + a.T)


def spd_solve(a: np.ndarray, b: np.ndarray, ridge: float = 1e-12) -> tuple[np.ndarray, bool]:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a`` via Cholesky.

    If the factorization fails, ``ridge`` is added to the diagonal and the
    solve is retried; should the fixed ridge be too small relative to the
    matrix scale, it is escalated until the factorization goes through.
    Returns ``(x, regularized)`` where the flag says whether any fallback
    was taken.
    """
    a = np.asarray(a, dtype=float)
    eye = np.eye(a.shape[0])
    try:
        factor = cho_factor(a, lower=True, check_finite=False)
        return cho_solve(factor, b, check_finite=False), False
    except np.linalg.LinAlgError:
        pass
    bump = ridge
    scale = max(float(np.abs(np.diag(a)).max()), 1.0)
    while True:
        try:
            factor = cho_factor(a + bump * eye, lower=True, check_finite=False)
            return cho_solve(factor, b, check_finite=False), True
        except np.linalg.LinAlgError:
            if bump > 1e3 * scale:
                raise
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
    return symmetrize((v * np.maximum(w, 0.0)) @ v.T)


def floor_diagonal(a: np.ndarray, floor: float) -> np.ndarray:
    """Raise diagonal entries of ``a`` to at least ``floor`` (copies input)."""
    out = np.array(a, dtype=float, copy=True)
    idx = np.arange(out.shape[0])
    out[idx, idx] = np.maximum(out[idx, idx], floor)
    return out
