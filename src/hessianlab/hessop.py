"""The m-Hessian operator, its linearization, and polarized mixed products.

Normalization, fixed here once and used everywhere: with g = omega + dd^c u
and lambda the eigenvalues of g relative to omega,

    sigma_m(u) := (g^m wedge omega^{n-m}) / omega^n = S_m(lambda) / C(n, m),

so the flat metric is the exact fixed point sigma_m(0) = 1.  A log S_m
formulation differs from log sigma_m by the additive constant log C(n, m),
which is absorbed into the data term of any equation written against it.

S_k(lambda(B)) equals the sum of k-by-k principal minors of B = omega^{-1} g,
so sigma and the cone mask are evaluated from closed-form traces without an
eigensolve.  The linearization needs none either: dS_m(B) = tr(T_{m-1}(B) dB)
with the Newton tensor T_{m-1}(B) = sum_j (-1)^j S_{m-1-j}(B) B^j (Reilly,
Michigan Math. J. 20, 1973), so its coefficient field is a polynomial in B
built from the same S_k table.  An eigensolve runs only at the single worst
point of a cone breach, to report that point's eigenvalues.

The linearized operator tr(A dd^c v) - q v is a real combination of second
differences of v, so the Krylov matvec applies it from n^2 real stencil
weights per point (see LinearizationField) on shifted views of one
wrap-padded copy of v; it never forms the complex Hessian of v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iproduct

import numpy as np
import scipy.linalg
from scipy.stats import qmc

from .errors import ConeBreachError, InputError
from .geometry import ScalarField, complex_hessian_array
from .hermlin import check_hermitian, cholesky_inverse, generalized_eigh
from .symfunc import elementary_symmetric_table

__all__ = [
    "OperatorValue",
    "LinearizationField",
    "sigma_m",
    "linearization",
    "apply_linearization",
    "mixed_product",
    "sigma_of_form",
    "polarization_constant",
]


@dataclass
class OperatorValue:
    sigma: ScalarField
    cone_mask: np.ndarray  # strict Gamma_m membership per point


@dataclass
class LinearizationField:
    """Stencil weights of the linearized operator at a state u.

    The operator is tr(A dd^c v) - q v with the Hermitian coefficient field
    A = T_{m-1}(B) omega^{-1} / S_m(B), B = omega^{-1} g; q is the zeroth-order
    coefficient (1 for the exponential equation, epsilon or 1/epsilon in the
    normalized and envelope modes).  With u_{j kbar} discretized as in
    geometry, tr(A dd^c v) is

        sum_j     (A_jj / 4)    (D_{x_j x_j} + D_{y_j y_j}) v
      + sum_{j<k} (Re A_kj / 2) (D_{x_j x_k} + D_{y_j y_k}) v
                - (Im A_kj / 2) (D_{x_j y_k} - D_{y_j x_k}) v.

    ``weights`` has shape (n, n) + grid.shape and holds these factors with
    the stencils' 1/h^2 folded in, so that they multiply undivided
    differences: weights[j, j] = A_jj / (4 h^2) multiplies the sum of the
    four x_j, y_j neighbours minus 4 v, and for j < k, with X_ab = 4 h^2 D_ab
    the 4-point cross stencil, weights[k, j] = Re A_kj / (8 h^2) multiplies
    X_{x_j x_k} + X_{y_j y_k} and weights[j, k] = Im A_kj / (8 h^2)
    multiplies X_{y_j x_k} - X_{x_j y_k}.
    """

    grid: object
    weights: np.ndarray  # (n, n) + grid.shape, real
    q: float

    def coefficient_matrices(self):
        """The field A rebuilt from the weights, for tests and diagnostics."""
        n, hh = self.grid.n, self.grid.h * self.grid.h
        w = self.weights
        a = np.empty(self.grid.shape + (n, n), dtype=complex)
        for j in range(n):
            a[..., j, j] = (4.0 * hh) * w[j, j]
            for k in range(j + 1, n):
                a[..., k, j] = (8.0 * hh) * (w[k, j] + 1j * w[j, k])
                a[..., j, k] = np.conj(a[..., k, j])
        return a


def _is_identity(metric):
    return metric.constant and np.array_equal(
        metric.form, np.eye(metric.form.shape[-1])
    )


def _relative_matrices(g, metric):
    """B = omega^{-1} g; similar to a Hermitian matrix, so spec(B) is real.

    For the identity metric B is g itself (inv(I) @ g equals g bit for bit).
    """
    if _is_identity(metric):
        return g
    return _matmul(metric.inverse(), g)


def _minor_sums(B, kmax):
    """S_1..S_kmax of the (real) spectrum of B via principal-minor sums."""
    n = B.shape[-1]
    out = np.ones(B.shape[:-2] + (kmax + 1,), dtype=float)
    t1 = np.trace(B, axis1=-2, axis2=-1).real
    if kmax >= 1:
        out[..., 1] = t1
    if kmax >= 2:
        if n == 2:
            det2 = (B[..., 0, 0] * B[..., 1, 1] - B[..., 0, 1] * B[..., 1, 0]).real
            out[..., 2] = det2
        else:
            s2 = (
                B[..., 0, 0] * B[..., 1, 1] - B[..., 0, 1] * B[..., 1, 0]
                + B[..., 0, 0] * B[..., 2, 2] - B[..., 0, 2] * B[..., 2, 0]
                + B[..., 1, 1] * B[..., 2, 2] - B[..., 1, 2] * B[..., 2, 1]
            )
            out[..., 2] = s2.real
    if kmax >= 3:
        a, b, c = B[..., 0, 0], B[..., 0, 1], B[..., 0, 2]
        d, e, f = B[..., 1, 0], B[..., 1, 1], B[..., 1, 2]
        g_, h_, i_ = B[..., 2, 0], B[..., 2, 1], B[..., 2, 2]
        out[..., 3] = (a * (e * i_ - f * h_) - b * (d * i_ - f * g_)
                       + c * (d * h_ - e * g_)).real
    return out


def sk_table_of_state(g, metric, kmax):
    """Table of S_1..S_kmax of the relative eigenvalues at every grid point."""
    n = g.shape[-1]
    if kmax > n:
        raise InputError(f"degree {kmax} exceeds dimension {n}")
    return _minor_sums(_relative_matrices(g, metric), kmax)


def state_matrices(u_data, metric):
    """g = omega + dd^c u as a matrix field."""
    return complex_hessian_array(u_data, metric.grid) + metric.form


def sigma_m(u, omega, m):
    """sigma_m(u) with the strict-cone mask, relative to the metric omega.

    m = n is permitted as a Monge-Ampere cross-check even though the
    genuinely Hessian regime is m < n.
    """
    grid = u.grid
    if not 1 <= m <= grid.n:
        raise InputError(f"m={m} out of range 1..{grid.n}")
    if omega.grid != grid:
        raise InputError("field and metric live on different grids")
    g = state_matrices(u.data, omega)
    table = sk_table_of_state(g, omega, m)
    sigma = table[..., m] / math.comb(grid.n, m)
    mask = np.all(table[..., 1 : m + 1] > 0.0, axis=-1)
    return OperatorValue(sigma=ScalarField(grid, sigma), cone_mask=mask)


def _entry(a, b, i, l):
    """Entry (i, l) of the batched product a b of n-by-n matrix fields."""
    acc = a[..., i, 0] * b[..., 0, l]
    for j in range(1, b.shape[-1]):
        acc += a[..., i, j] * b[..., j, l]
    return acc


def _matmul(a, b):
    # written out per entry: faster than einsum or the batched matmul on
    # stacks of 2x2 and 3x3 matrices
    n = b.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for i in range(n):
        for l in range(n):
            out[..., i, l] = _entry(a, b, i, l)
    return out


def _newton_tensor(B, table, m):
    """T_{m-1}(B) by the recursion T_0 = I, T_k = S_k I - B T_{k-1}."""
    diag = np.arange(B.shape[-1])
    if m == 1:
        t = np.zeros_like(B)
        t[..., diag, diag] = 1.0
        return t
    t = -B  # T_1, since B T_0 = B needs no product
    t[..., diag, diag] += table[..., 1, None]
    for k in range(2, m):
        t = -_matmul(B, t)
        t[..., diag, diag] += table[..., k, None]
    return t


def _stencil_weights(t, inv, s_m, h):
    """LinearizationField weights of A = t inv / s_m (inv None: the identity)."""
    n = t.shape[-1]
    lap = 0.25 / (h * h)
    cross = 0.125 / (h * h)
    w = np.empty((n, n) + s_m.shape)
    for k in range(n):
        for j in range(k + 1):
            a = t[..., k, j] if inv is None else _entry(t, inv, k, j)
            a = a / s_m
            if j == k:
                w[j, j] = lap * a.real
            else:
                w[k, j] = cross * a.real
                w[j, k] = cross * a.imag
    return w


def linearization(u, omega, m, q, g=None):
    """Stencil weights of the linearized operator, without an eigensolve.

    ``g`` may pass in state_matrices(u.data, omega) when the caller already
    holds it.  Requires lambda strictly inside Gamma_m at every point; the
    breach error carries the worst offender and its eigenvalues so failed
    Newton steps can report it.
    """
    grid = u.grid
    if g is None:
        g = state_matrices(u.data, omega)
    B = _relative_matrices(g, omega)
    table = _minor_sums(B, m)
    bad = ~np.all(table[..., 1 : m + 1] > 0.0, axis=-1)
    if np.any(bad):
        norm = np.array([math.comb(grid.n, k) for k in range(1, m + 1)])
        margins = np.min(table[..., 1 : m + 1] / norm, axis=-1)
        worst = np.unravel_index(int(np.argmin(margins)), grid.shape)
        li = omega.cholesky_inverse()
        lam, _ = generalized_eigh(g[worst], li if omega.constant else li[worst])
        raise ConeBreachError(
            f"cone breached at {np.count_nonzero(bad)} points",
            point=worst,
            lam=lam,
        )
    inv = None if _is_identity(omega) else omega.inverse()
    weights = _stencil_weights(_newton_tensor(B, table, m), inv, table[..., m], grid.h)
    return LinearizationField(grid=grid, weights=weights, q=q)


def _cut(p, N, axis, s, others=True):
    """p offset by s along ``axis`` and cut there to length N, p being padded
    by one on each side; with ``others`` every other padded axis is cut too."""
    idx = [slice(1, N + 1) if others and size == N + 2 else slice(None)
           for size in p.shape]
    idx[axis] = slice(1 + s, N + 1 + s)
    return p[tuple(idx)]


def _difference(p, N, axis, others=True):
    """Undivided central difference p(+1) - p(-1) along ``axis``."""
    return _cut(p, N, axis, 1, others) - _cut(p, N, axis, -1, others)


def apply_linearization_array(lin, v_data):
    """tr(A dd^c v) - q v summed from the stencil weights of ``lin``."""
    n, N, w = lin.grid.n, lin.grid.N, lin.weights
    p = np.pad(v_data, 1, mode="wrap")
    out = -lin.q * v_data
    for j in range(n):
        xj, yj = 2 * j, 2 * j + 1
        ring = -4.0 * v_data
        for a in (xj, yj):
            ring += _cut(p, N, a, 1)
            ring += _cut(p, N, a, -1)
        out += w[j, j] * ring
        if j + 1 == n:
            break
        # differenced again along a second axis b, these give the 4-point
        # cross stencils on (x_j, b) and (y_j, b)
        dx = _difference(p, N, xj, others=False)
        dy = _difference(p, N, yj, others=False)
        for k in range(j + 1, n):
            xk, yk = 2 * k, 2 * k + 1
            out += w[k, j] * (_difference(dx, N, xk) + _difference(dy, N, yk))
            out += w[j, k] * (_difference(dy, N, xk) - _difference(dx, N, yk))
    return out


def apply_linearization(lin, v):
    """tr(A dd^c v) - q v with A the coefficient field of ``lin``."""
    if v.grid != lin.grid:
        raise InputError("linearization and field live on different grids")
    return ScalarField(lin.grid, apply_linearization_array(lin, v.data))


def sigma_of_form(gamma, omega_form, m):
    """(gamma^m wedge omega^{n-m}) / omega^n for a single pair of forms.

    gamma need not lie in the cone: S_m is a polynomial in the relative
    eigenvalues and is evaluated as such.
    """
    gamma = check_hermitian(gamma, "gamma")
    n = gamma.shape[-1]
    if not 1 <= m <= n:
        raise InputError(f"m={m} out of range 1..{n}")
    li = cholesky_inverse(np.asarray(omega_form, dtype=complex), "omega")
    mat = li @ gamma @ li.conj().swapaxes(-1, -2)
    lam = np.linalg.eigvalsh(mat)
    return float(elementary_symmetric_table(lam, m)[..., m] / math.comb(n, m))


@lru_cache(maxsize=None)
def _polarization_scheme(k, degree):
    """Nodes, monomial exponents, and LU factors for degree<=k+1 polarization.

    Nodes are the first d points of the unscrambled Halton sequence in
    [0,1]^k; any nonsingular node set works, and this one is fixed and
    checked once here.
    """
    exponents = tuple(
        alpha for alpha in _iproduct(range(degree + 1), repeat=k)
        if sum(alpha) <= degree
    )
    d = len(exponents)
    assert d == math.comb(2 * k + 1, k)
    nodes = qmc.Halton(d=k, scramble=False).random(d)
    vand = np.empty((d, d))
    for j in range(d):
        for i, alpha in enumerate(exponents):
            vand[j, i] = float(np.prod(nodes[j] ** np.asarray(alpha, dtype=float)))
    lu, piv = scipy.linalg.lu_factor(vand)
    assert np.min(np.abs(np.diag(lu))) > 1e-12 * np.max(np.abs(vand)), \
        "polarization Vandermonde is singular"
    ones_index = exponents.index((1,) * k)
    unit = np.zeros(d)
    unit[ones_index] = 1.0
    inv_row = scipy.linalg.lu_solve((lu, piv), unit, trans=1)
    return exponents, nodes, (lu, piv), ones_index, float(np.sum(np.abs(inv_row)))


def polarization_constant(m):
    """Explicit constant of the polarized product bound.

    |gamma_1 ^ ... ^ gamma_m ^ omega^{n-m}/omega^n| is at most this constant
    times sigma_m of the sum form: each node evaluation is dominated by the
    sum form via cone monotonicity, and the coefficient extraction multiplies
    by at most the 1-norm of the relevant row of the inverse Vandermonde.
    """
    if m == 1:
        return 1.0
    _, _, _, _, row_norm = _polarization_scheme(m - 1, m)
    return row_norm / math.factorial(m)


def mixed_product(gammas, omega_form, m):
    """Normalized mixed wedge gamma_1 ^ ... ^ gamma_m ^ omega^{n-m} / omega^n.

    Evaluates the degree-m polynomial x -> sigma_m(gamma_0 + x_1 gamma_1 +
    ... + x_{m-1} gamma_{m-1}) at the fixed node set and extracts the mixed
    coefficient through the Vandermonde system.  Arguments are put in a
    canonical byte order first, so the value is bitwise symmetric under
    permutations of the gammas.
    """
    if len(gammas) != m:
        raise InputError(f"expected {m} forms, got {len(gammas)}")
    mats = [check_hermitian(g, f"gamma_{i}") for i, g in enumerate(gammas)]
    n = mats[0].shape[-1]
    if any(g.shape != (n, n) for g in mats):
        raise InputError("forms must share a common dimension")
    if not 1 <= m <= n:
        raise InputError(f"m={m} out of range 1..{n}")
    omega_form = check_hermitian(np.asarray(omega_form), "omega")
    mats.sort(key=lambda g: g.tobytes())
    if m == 1:
        return sigma_of_form(mats[0], omega_form, 1)

    k = m - 1
    exponents, nodes, lu_piv, ones_index, _ = _polarization_scheme(k, m)
    base, rest = mats[0], mats[1:]
    values = np.empty(len(exponents))
    for j in range(len(exponents)):
        tau = base.copy()
        for t in range(k):
            tau = tau + nodes[j, t] * rest[t]
        values[j] = sigma_of_form(tau, omega_form, m)
    coeffs = scipy.linalg.lu_solve(lu_piv, values)
    return float(coeffs[ones_index] / math.factorial(m))
