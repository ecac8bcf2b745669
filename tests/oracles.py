"""Oracles for the tests: an eigensolve, which the solver itself never needs,
and the operator built and read back as the solver builds it."""

import numpy as np

from hessianlab.geometry import complex_of_layout
from hessianlab.hessop import linearization, sk_table_of_state, state_matrices


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


def linearize(u, omega, m, q):
    """linearization at the field u, from B' and its S_k table built by the
    two calls the solver's _Equation.evaluate makes; u must lie strictly
    inside Gamma_m, as every state the solver linearizes does."""
    b = state_matrices(u.data, omega)
    table = sk_table_of_state(b, omega, m)
    assert np.all(table[..., 1 : m + 1] > 0.0), "state outside Gamma_m"
    return linearization(b, table, omega, m, q)


def coefficient_matrices(lin):
    """The coefficient field A of a LinearizationField rebuilt from its
    stencil weights, as a complex grid.shape + (n, n) field."""
    grid = lin.grid
    a = (8.0 * grid.h * grid.h) * lin.weights
    a[range(grid.n), range(grid.n)] *= 0.5
    return complex_of_layout(a)
