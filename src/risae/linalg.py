"""Complex dense matrix primitives used throughout the simulator.

Everything here is a pure function on immutable ndarray inputs (double
precision), so calls are safe from any number of concurrent workers.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPSD, ShapeMismatch

PSD_EIG_FLOOR = -1e-10


def as_matrix(a: np.ndarray, name: str) -> np.ndarray:
    """Validate a 2-D complex matrix with finite entries."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeMismatch(f"{name} must be a non-empty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):  # complex isfinite checks both parts, any layout
        raise ValueError(f"{name} contains non-finite entries")
    return a


def hermitian_sqrt(h: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Uses the eigendecomposition and clamps eigenvalues below zero before
    rooting; robust on nearly singular correlation matrices.

    Raises NotPSD when an eigenvalue falls below -1e-10, which signals a
    corrupted correlation matrix rather than rounding noise.
    """
    h = as_matrix(h, "h")
    if h.shape[0] != h.shape[1]:
        raise ShapeMismatch(f"h must be square, got shape {h.shape}")
    h = 0.5 * (h + h.conj().T)  # scrub rounding asymmetry
    w, v = np.linalg.eigh(h)
    if w.min() < PSD_EIG_FLOOR:
        raise NotPSD(f"minimum eigenvalue {w.min():.3e} is below {PSD_EIG_FLOOR:.0e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def ls_solve(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ridge-regularized least squares: argmin_p ||g p - v||^2 + ridge ||p||^2.

    Solves the normal equations (g^H g + ridge I) p = g^H v with the
    trace-scaled ridge 1e-8 tr(g^H g)/dim, which keeps a rank-deficient g
    solvable at a relative bias of about 1e-8.
    """
    g = as_matrix(g, "g")
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (g.shape[0],):
        raise ShapeMismatch(f"v must have length {g.shape[0]}, got shape {v.shape}")
    dim = g.shape[1]
    ridge = 1e-8 * float(np.einsum("ij,ij->", g.conj(), g).real) / dim
    return np.linalg.solve(g.conj().T @ g + ridge * np.eye(dim), g.conj().T @ v)
