"""Oracles for the tests: an eigensolve, which the solver itself never needs,
the operator built and read back as the solver builds it, the discrete
complex Hessian of a whole field, the DFT route of the nested start's
interpolation, and the manufactured data built the long way, on the whole
grid and as a complex field, to which the library's sub-grid and
Hermitian-layout route must be bit-identical."""

import itertools
import math

import numpy as np

from hessianlab.geometry import MetricField, _hessian_rows, _slabs, complex_of_layout
from hessianlab.hessop import linearization, sk_table_of_state, state_matrices
from hessianlab.symfunc import table_margin


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


def complex_hessian_layout(data, grid):
    """dd^c of ``data`` in the Hermitian layout, (n, n) + grid.shape real,
    one slab of rows at a time, as the solver's state is built."""
    out = np.empty((grid.n, grid.n) + grid.shape)
    for rows in _slabs(grid.shape):
        _hessian_rows(data, grid.h, rows, out[:, :, rows])
    return out


def fft_interpolate(u, grid):
    """Band-limited interpolation of the coarse field u onto ``grid`` by the
    DFT: the modes |k| < M/2 of u's rfftn, zero-padded to the fine half
    spectrum and transformed back, the coarse Nyquist mode dropped."""
    M, N = u.shape[0], grid.N
    coef = np.fft.rfftn(u)
    fine = np.zeros(grid.shape[:-1] + (N // 2 + 1,), dtype=complex)
    low, high = slice(0, M // 2), slice(1 - M // 2, None)  # k = 0..M/2-1, 1-M/2..-1
    for corner in itertools.product((low, high), repeat=u.ndim - 1):
        fine[corner + (low,)] = coef[corner + (low,)]
    return np.fft.irfftn(fine, s=grid.shape, axes=range(u.ndim)) * (N / M) ** u.ndim


def complex_hessian(u):
    """Discrete u_{j kbar} at every grid point, a grid.shape + (n, n) complex
    array; Hermitian by construction."""
    return complex_of_layout(complex_hessian_layout(u.data, u.grid))


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


def full_phase(grid, kvec):
    """k . theta at every point of the grid."""
    phase = np.zeros(grid.shape)
    for axis, k in enumerate(kvec):
        if k:
            phase = phase + k * grid.axis_coordinate(axis)
    return phase


def reference_field(grid, terms):
    """make_field's data, each term evaluated on the whole grid."""
    data = np.zeros(grid.shape)
    for kvec, ccoef, scoef in terms:
        phase = full_phase(grid, kvec)
        if ccoef:
            data += ccoef * np.cos(phase)
        if scoef:
            data += scoef * np.sin(phase)
    return data


def reference_complex_hessian(grid, terms):
    """The exact complex Hessian of a trigonometric polynomial, a complex
    grid.shape + (n, n) field written entry by entry for every term:
    u_{j kbar} gains (re + i im) base and u_{k jbar} its conjugate."""
    n = grid.n
    hess = np.zeros(grid.shape + (n, n), dtype=complex)
    for kvec, ccoef, scoef in terms:
        phase = full_phase(grid, kvec)
        base = -(ccoef * np.cos(phase) + scoef * np.sin(phase))
        for j in range(n):
            xj, yj = 2 * j, 2 * j + 1
            for k in range(j, n):
                xk, yk = 2 * k, 2 * k + 1
                re = 0.25 * (kvec[xj] * kvec[xk] + kvec[yj] * kvec[yk])
                im = 0.25 * (kvec[xj] * kvec[yk] - kvec[yj] * kvec[xk])
                if j == k:
                    hess[..., j, j] += re * base
                else:
                    hess[..., j, k] += (re + 1j * im) * base
                    hess[..., k, j] += (re - 1j * im) * base
    return hess


def reference_exact_sigma(grid, terms, m):
    """exact_sigma from the complex field plus I, through the complex
    branch of sk_table_of_state."""
    n = grid.n
    g = reference_complex_hessian(grid, terms) + np.eye(n)
    table = sk_table_of_state(g, MetricField.flat(grid), m)
    margin = float(np.min(table_margin(table, n, m)))
    return table[..., m] / math.comb(n, m), margin


def mixed_terms(n):
    """Terms for the bit-identity checks: the zero vector, negative
    frequencies, a zero cos or sin coefficient, and mixed-axis terms, with
    frequencies up to 2, so on grids of N >= 8."""
    if n == 2:
        return [((0, 0, 0, 0), 0.3, 0.0), ((1, 0, 0, 0), 0.7, 0.0),
                ((0, -1, 0, 0), 0.0, 0.4), ((0, 0, 1, 1), 0.5, -0.2),
                ((1, 0, -1, 0), 0.0, 0.4), ((-1, 2, 0, -1), 0.25, 0.1)]
    return [((0,) * 6, 0.3, 0.1), ((1, 0, 0, 0, 0, 0), 0.25, 0.0),
            ((0, 0, 0, -1, 0, 0), 0.0, 0.15), ((0, 1, 0, 0, 1, 0), 0.125, 0.0),
            ((0, 0, 1, 0, 0, -1), 0.0, 0.1), ((-2, 0, 1, 0, 0, 1), 0.05, -0.03)]
