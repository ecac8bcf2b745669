"""Small dense complex Hermitian eigenproblems, plain and metric-relative.

The batched helpers avoid per-point Python and lean on LAPACK's stacked
drivers (the solver's grid kernels need none: hessop works in closed form);
values are always returned in non-increasing order, matching the sorting
convention of the cone algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .symfunc import cone_mask

__all__ = [
    "Spectrum",
    "check_hermitian",
    "eigenvalues_hermitian",
    "generalized_eigenvalues",
    "is_m_positive",
    "generalized_eigh",
    "cholesky_inverse",
]

_MAX_N = 8
_HERM_TOL = 1e-13
_PD_TOL = 1e-12


@dataclass
class Spectrum:
    """Eigenvalues (non-increasing) with the matching eigenvector frame.

    For a metric-relative problem the frame columns are orthonormal with
    respect to the metric, not the Euclidean inner product.
    """

    values: np.ndarray
    frame: np.ndarray


def check_hermitian(a, name="matrix"):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] > _MAX_N:
        raise InputError(f"{name} larger than supported n <= {_MAX_N}")
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > _HERM_TOL * scale:
        raise InputError(f"{name} is not Hermitian (deviation {dev:.3e})")
    return 0.5 * (a + a.conj().T)


def eigh_desc(mats):
    """Batched Hermitian eigendecomposition, values non-increasing."""
    w, v = np.linalg.eigh(mats)
    return w[..., ::-1], v[..., :, ::-1]


def _positive_definite_check(omega, name="metric"):
    w = np.linalg.eigvalsh(omega)
    tr = np.trace(omega, axis1=-2, axis2=-1).real
    n = omega.shape[-1]
    floor = _PD_TOL * tr / n
    if np.any(w[..., 0] <= floor):
        raise InputError(f"{name} is not positive definite")


def cholesky_inverse(omega, name="metric"):
    """inv(L) for omega = L L*; raises InputError when not positive definite."""
    omega = np.asarray(omega, dtype=complex)
    _positive_definite_check(omega, name)
    try:
        chol = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError as exc:
        raise InputError(f"{name} is not positive definite") from exc
    eye = np.broadcast_to(np.eye(omega.shape[-1], dtype=complex), omega.shape)
    return np.linalg.solve(chol, np.ascontiguousarray(eye))


def generalized_eigh(g, li):
    """Eigenpairs of g relative to the metric with Cholesky inverse ``li``.

    Returns (values desc, frame) where frame columns e_k satisfy
    g e_k = lambda_k omega e_k and e_j* omega e_k = delta_jk.
    """
    m = li @ g @ li.conj().swapaxes(-1, -2)
    w, v = eigh_desc(m)
    return w, li.conj().swapaxes(-1, -2) @ v


def eigenvalues_hermitian(a):
    """Spectrum of a single Hermitian matrix (Euclidean inner product)."""
    a = check_hermitian(a)
    w, v = eigh_desc(a)
    return Spectrum(values=w, frame=v)


def generalized_eigenvalues(g, omega):
    """Spectrum of det(g - lambda omega) = 0 for Hermitian g, positive omega.

    Implemented by omega = L L*, a standard eigensolve of inv(L) g inv(L)*,
    and mapping the eigenvectors back so the frame is omega-orthonormal.
    """
    g = check_hermitian(g, "g")
    omega = check_hermitian(omega, "omega")
    if g.shape != omega.shape:
        raise InputError("g and omega must have matching shapes")
    li = cholesky_inverse(omega, "omega")
    w, frame = generalized_eigh(g, li)
    return Spectrum(values=w, frame=frame)


def is_m_positive(g, omega, m):
    """True iff the relative eigenvalues of g lie strictly in Gamma_m."""
    spec = generalized_eigenvalues(g, omega)
    n = spec.values.shape[-1]
    if not 1 <= m <= n:
        raise InputError(f"m={m} out of range 1..{n}")
    return bool(cone_mask(spec.values, m))
