"""Eigensolve oracles for the tests; the solver itself needs no eigensolver."""

import numpy as np


def generalized_eigh(g, omega):
    """Eigenpairs of det(g - lambda omega) = 0, stacked on leading axes.

    With omega = L L*, a Hermitian eigensolve of inv(L) g inv(L)*.  Returns
    (values non-increasing, frame) where frame columns e_k satisfy
    g e_k = lambda_k omega e_k and e_j* omega e_k = delta_jk.
    """
    chol = np.linalg.cholesky(np.asarray(omega, dtype=complex))
    eye = np.broadcast_to(np.eye(chol.shape[-1], dtype=complex), chol.shape)
    li = np.linalg.solve(chol, np.ascontiguousarray(eye))
    lit = li.conj().swapaxes(-1, -2)
    w, v = np.linalg.eigh(li @ np.asarray(g, dtype=complex) @ lit)
    return w[..., ::-1], lit @ v[..., :, ::-1]
