"""The m-Hessian operator, its linearization, and polarized mixed products.

Normalization, fixed here once and used everywhere: with g = omega + dd^c u
and lambda the eigenvalues of g relative to omega,

    sigma_m(u) := (g^m wedge omega^{n-m}) / omega^n = S_m(lambda) / C(n, m),

so the flat metric is the exact fixed point sigma_m(0) = 1.  A log S_m
formulation differs from log sigma_m by the additive constant log C(n, m),
which is absorbed into the data term of any equation written against it.

With omega = L L^*, lambda is the spectrum of the Hermitian B' = L^{-1} g
L^{-*} (g itself for the identity metric), kept like every per-point matrix
in geometry's real Hermitian layout.  S_k(lambda) is the sum of k-by-k
principal minors of B', so sigma and the cone mask need no eigensolve; nor
does the linearization: dS_m = tr(T_{m-1}(B') dB') with the Newton tensor
T_{m-1}(B') = sum_j (-1)^j S_{m-1-j} B'^j (Reilly, Michigan Math. J. 20,
1973), so A = L^{-*} T_{m-1}(B') L^{-1} / S_m is a polynomial in B' built
from the same S_k table; for n <= 3 it is written out in closed form: I,
S_1 I - B', and at m = n = 3 adj B', by Cayley-Hamilton.  The grid path
solves no eigenproblem at all: the caller hands linearization the B' and
S_k table it already evaluated and found strictly inside Gamma_m
(solver._newton admits no other state), and linearization writes the
weights over that B', which it consumes.  Only sigma_of_form, for one pair
of forms, reduces det(gamma - lambda omega) = 0 by the Cholesky factor of
omega to one Hermitian eigenproblem, and mixed_product polarizes it: the
mixed form of m arguments is an alternating sum of sigma_m over the 2^m - 1
nonempty sums of them.

A metric e^phi omega_0 (geometry.MetricField) with omega_0 = L_0 L_0^* has
L^{-1} = e^{-phi/2} L_0^{-1}: the congruence by the constant L_0^{-1}, then
one division by e^phi, in B' and A alike.  A congruence by a constant
matrix is a constant real-linear map of the layout, so the metric holds it
as one real (n^2, n^2) matrix per direction, skipped for the identity.

The linearized operator tr(A dd^c v) - q v is a real combination of second
differences of v, so the Krylov matvec applies it from n^2 real stencil
weights per point (see LinearizationField) on periodic differences of v
taken from flat offsets of the field by the same geometry._stencils that
write dd^c u, skipping the cross stencils of pairs whose weights are all
zero; it never forms the complex Hessian of v.

B', its S_k table, the linearization and the matvec each run over
geometry's slabs of rows, writing each slab straight into one full-size
output (for the linearization, B' itself), so dd^c u is never held whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InputError
from .geometry import (
    ScalarField,
    _hessian_rows,
    _slabs,
    _stencils,
    check_hermitian,
    check_positive_definite,
    layout_of_complex,
)
from .symfunc import elementary_symmetric_table, table_in_cone

__all__ = [
    "OperatorValue",
    "LinearizationField",
    "check_degree",
    "sigma_m",
    "linearization",
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

    ``pairs`` holds the (j, k), j < k, whose weights[k, j] or weights[j, k]
    are not all zero; the matvec takes cross stencils for these alone, since
    the others add exactly +-0.  It is empty for m = 1 on a diagonal metric,
    where A = omega^{-1} / S_1, and at u = 0 for every m.  It is recorded
    once, from the weights given at construction.
    """

    grid: object
    weights: np.ndarray  # (n, n) + grid.shape, real
    q: float
    pairs: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        w = self.weights
        self.pairs = frozenset((j, k) for j, k in combinations(range(w.shape[0]), 2)
                               if np.any(w[k, j]) or np.any(w[j, k]))


def _congruence(k, x):
    """The constant real-linear map k, a (n^2, n^2) matrix over the flattened
    Hermitian layout (MetricField.factor), written over the layout x: each
    output entry is summed over k's nonzero coefficients in column order, and
    every entry is computed before x is written."""
    n = x.shape[0]
    entries = [divmod(c, n) for c in range(n * n)]
    out = []
    for row in k:
        terms = [(w, x[entries[c]]) for c, w in enumerate(row) if w]
        acc = terms[0][0] * terms[0][1]  # k is invertible: no row is zero
        for w, v in terms[1:]:
            acc += w * v
        out.append(acc)
    for e, acc in zip(entries, out):
        x[e] = acc
    return x


def _minor_sums(b, kmax, out):
    """S_0..S_kmax of the spectrum of the Hermitian layout b, written into
    the shape + (kmax + 1,) table ``out``, from principal-minor sums."""
    n = b.shape[0]
    out[..., 0] = 1.0
    if kmax >= 1:
        out[..., 1] = sum(b[j, j] for j in range(n))
    if kmax >= 2:
        out[..., 2] = sum(b[j, j] * b[k, k] - (b[k, j] ** 2 + b[j, k] ** 2)
                          for k in range(n) for j in range(k))
    if kmax >= 3:  # n = 3, the determinant: b_00 b_11 b_22 + 2 Re(b_01 b_12 b_20)
        # - b_00 |b_12|^2 - b_11 |b_02|^2 - b_22 |b_01|^2
        re = b[1, 0] * b[2, 1] - b[0, 1] * b[1, 2]  # b_10 b_21
        im = b[1, 0] * b[1, 2] + b[0, 1] * b[2, 1]
        out[..., 3] = (b[0, 0] * b[1, 1] * b[2, 2] + 2.0 * (re * b[2, 0] + im * b[0, 2])
                       - b[0, 0] * (b[2, 1] ** 2 + b[1, 2] ** 2)
                       - b[1, 1] * (b[2, 0] ** 2 + b[0, 2] ** 2)
                       - b[2, 2] * (b[1, 0] ** 2 + b[0, 1] ** 2))
    return out


def _relative(x, metric, rows=slice(None)):
    """L^{-1} X L^{-*} for omega = L L^* written over the Hermitian layout x
    of the rows ``rows`` of X."""
    if metric.factor is not None:
        _congruence(metric.factor[0], x)
    if metric.exp_phi is not None:
        x /= metric.exp_phi[rows]
    return x


def state_matrices(u_data, metric):
    """B' = L^{-1} g L^{-*} for g = omega + dd^c u and omega = L L^*, in the
    Hermitian layout; L^{-1} omega L^{-*} = I, so B' = I + L^{-1} dd^c u L^{-*},
    made one slab of rows at a time."""
    grid = metric.grid
    b = np.empty((grid.n, grid.n) + grid.shape)
    for rows in _slabs(grid.shape):
        x = _relative(_hessian_rows(u_data, grid.h, rows, b[:, :, rows]), metric, rows)
        for j in range(grid.n):
            x[j, j] += 1.0
    return b


def check_degree(m, n):
    """The degree rule of every sigma_m: 1 <= m <= n, m = n the Monge-Ampere case."""
    if not 1 <= m <= n:
        raise InputError(f"m={m} out of range 1..{n}")


def sk_table_of_state(state, metric, kmax):
    """Table of S_0..S_kmax of the relative eigenvalues at every grid point,
    from B' (state_matrices) or from a complex grid.shape + (n, n) field g."""
    if np.iscomplexobj(state):
        state = _relative(layout_of_complex(state), metric)
    check_degree(kmax, state.shape[0])
    table = np.empty(state.shape[2:] + (kmax + 1,))
    for rows in _slabs(state.shape[2:]):
        _minor_sums(state[:, :, rows], kmax, table[rows])
    return table


def sigma_m(u, omega, m):
    """sigma_m(u) with the strict-cone mask, relative to the metric omega."""
    grid = u.grid
    if omega.grid != grid:
        raise InputError("field and metric live on different grids")
    table = sk_table_of_state(state_matrices(u.data, omega), omega, m)
    sigma = table[..., m] / math.comb(grid.n, m)
    return OperatorValue(sigma=ScalarField(grid, sigma), cone_mask=table_in_cone(table, m))


def _newton_tensor(b, table, m):
    """T_{m-1}(B) written over the Hermitian layout b of B: I for m = 1,
    S_1 I - B for m = 2, and for m = 3, which only n = 3 admits, adj B, since
    B T_{n-1}(B) = S_n I (Cayley-Hamilton) for every B, singular or not."""
    n = b.shape[0]
    if m == 1:
        b[...] = 0.0
        b[range(n), range(n)] = 1.0
    elif m == 2:
        np.negative(b, out=b)
        for j in range(n):
            b[j, j] += table[..., 1]
    else:  # diagonal a, d, c and B_10 = p, B_20 = q, B_21 = r
        a, d, c = b[0, 0], b[1, 1], b[2, 2]
        pr, pi, qr, qi, rr, ri = b[1, 0], b[0, 1], b[2, 0], b[0, 2], b[2, 1], b[1, 2]
        adj = {(0, 0): d * c - (rr ** 2 + ri ** 2),
               (1, 1): a * c - (qr ** 2 + qi ** 2),
               (2, 2): a * d - (pr ** 2 + pi ** 2),
               (1, 0): qr * rr + qi * ri - c * pr,  # q conj(r) - c p
               (0, 1): qi * rr - qr * ri - c * pi,
               (2, 0): pr * rr - pi * ri - d * qr,  # p r - d q
               (0, 2): pr * ri + pi * rr - d * qi,
               (2, 1): pr * qr + pi * qi - a * rr,  # conj(p) q - a r
               (1, 2): pr * qi - pi * qr - a * ri}
        for e, v in adj.items():
            b[e] = v
    return b


def linearization(b, table, omega, m, q):
    """Stencil weights of the linearized operator at the state B' = ``b``
    (state_matrices) with its S_0..S_m ``table`` (sk_table_of_state), which
    the caller has found strictly inside Gamma_m; no eigensolve.

    B' is consumed: the Newton tensor, the congruence by L_0^{-*} and the
    scaling are written over each slab of it in turn, and the returned
    field's ``weights`` is ``b`` itself."""
    grid = omega.grid
    for rows in _slabs(grid.shape):
        a = _newton_tensor(b[:, :, rows], table[rows], m)
        if omega.factor is not None:
            _congruence(omega.factor[1], a)
        # weights: A_jj / (4 h^2) on the diagonal, A / (8 h^2) off it, with
        # omega = e^phi L_0 L_0^* dividing A by e^phi as well
        s_m = table[rows][..., m]
        if omega.exp_phi is not None:
            s_m = s_m * omega.exp_phi[rows]
        a *= 0.125 / (grid.h * grid.h * s_m)
        for j in range(grid.n):
            a[j, j] *= 2.0
    return LinearizationField(grid=grid, weights=b, q=q)


def apply_linearization_array(lin, v_data):
    """tr(A dd^c v) - q v summed from the stencil weights of ``lin``, with
    cross stencils only for the pairs whose weights are not all zero, one
    slab of rows at a time."""
    w = lin.weights
    out = np.empty(v_data.shape)
    for rows in _slabs(v_data.shape):
        acc = np.multiply(-lin.q, v_data[rows], out=out[rows])
        # fresh arrays, weighted in place
        for j, k, d_re, d_im in _stencils(v_data, lin.pairs, rows):
            if d_im is None:
                d_re *= w[j, j, rows]
                acc += d_re
            else:
                d_re *= w[k, j, rows]
                acc += d_re
                d_im *= w[j, k, rows]
                acc -= d_im
    return out


def sigma_of_form(gamma, omega_form, m):
    """(gamma^m wedge omega^{n-m}) / omega^n for a single pair of forms.

    gamma need not lie in the cone: S_m is a polynomial in the relative
    eigenvalues and is evaluated as such.
    """
    gamma = check_hermitian(gamma, "gamma")
    n = gamma.shape[-1]
    check_degree(m, n)
    omega_form = check_hermitian(omega_form, "omega")
    if omega_form.shape != gamma.shape:
        raise InputError("gamma and omega must have matching shapes")
    li = np.linalg.inv(np.linalg.cholesky(check_positive_definite(omega_form, "omega")))
    lam = np.linalg.eigvalsh(li @ gamma @ li.conj().T)
    return float(elementary_symmetric_table(lam, m)[..., m] / math.comb(n, m))


def polarization_constant(m):
    """Explicit constant of the polarized product bound: (2^m - 1) / m!.

    For m-positive gamma_1..gamma_m, |gamma_1 ^ ... ^ gamma_m ^
    omega^{n-m}/omega^n| is at most this constant times sigma_m of the sum
    form.  mixed_product is (1/m!) sum_S (-1)^(m-|S|) sigma_m(gamma_S) over
    the 2^m - 1 nonempty S, gamma_S the sum of the gamma_i with i in S.  Each
    gamma_S lies in Gamma_m, and the full sum is gamma_S plus a form in
    Gamma_m, so cone monotonicity (Garding, J. Math. Mech. 8, 1959) gives
    0 < sigma_m(gamma_S) <= sigma_m(sum); the triangle inequality over the
    2^m - 1 terms finishes the bound.
    """
    return (2**m - 1) / math.factorial(m)


def mixed_product(gammas, omega_form, m):
    """Normalized mixed wedge gamma_1 ^ ... ^ gamma_m ^ omega^{n-m} / omega^n.

    The polarization identity of the degree-m form sigma_m: the sum over
    nonempty S of (-1)^(m-|S|) sigma_m(sum of the gamma_i with i in S),
    divided by m!, which is 2^m - 1 evaluations of sigma_of_form.  Arguments
    are put in a canonical byte order first, so the value is bitwise
    symmetric under permutations of the gammas.
    """
    if len(gammas) != m or not len(gammas):  # sigma_of_form checks m's range
        raise InputError(f"expected m >= 1 forms, got m={m} and {len(gammas)} forms")
    mats = [check_hermitian(g, f"gamma_{i}") for i, g in enumerate(gammas)]
    n = mats[0].shape[-1]
    if any(g.shape != (n, n) for g in mats):
        raise InputError("forms must share a common dimension")
    mats.sort(key=lambda g: g.tobytes())
    total = 0.0
    for k in range(1, m + 1):
        for subset in combinations(mats, k):
            total += (-1) ** (m - k) * sigma_of_form(sum(subset), omega_form, m)
    return total / math.factorial(m)
