"""Periodic grids on the real torus [0, 2pi)^{2n} and discrete complex Hessians.

Real coordinates are ordered (x_1, y_1, ..., x_n, y_n) with z_j = x_j + i y_j;
array axis 2j holds x_{j+1} and axis 2j+1 holds y_{j+1}.  "x_1-fastest" file
layout therefore corresponds to Fortran-order flattening of that array.

The complex Hessian u_{j kbar} is discretized with second-order central
differences and periodic wrap:

    u_{j kbar} = (1/4) [(D_{x_j x_k} + D_{y_j y_k}) u]
               + (i/4) [(D_{x_j y_k} - D_{y_j x_k}) u].

Mixed derivatives use the standard 4-point cross stencil.  Only the upper
triangle is computed and mirrored, so the result is Hermitian exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = [
    "TorusGrid",
    "ScalarField",
    "MetricField",
    "make_field",
    "complex_hessian",
    "analytic_complex_hessian",
    "gradient_sup",
    "write_field",
    "read_field",
]

def _bytes_per_point(n):
    # Rough per-point footprint of a solve: Hessian field of complex entries
    # plus Krylov basis headroom.  Used only for the desk-scale guard.
    return 16 * n * n + 640


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid: N points per real axis, 2n real axes."""

    n: int
    N: int
    memory_cap: int = 2 << 30

    def __post_init__(self):
        if self.n not in (2, 3):
            raise InputError(f"complex dimension n={self.n} unsupported (need 2 or 3)")
        if self.N < 8 or self.N % 2 != 0:
            raise InputError(f"N={self.N} must be even and >= 8")
        if self.points * _bytes_per_point(self.n) > self.memory_cap:
            raise InputError(
                f"grid {self.N}^{2*self.n} exceeds the memory cap "
                f"({self.memory_cap} bytes)"
            )

    @property
    def h(self):
        return 2.0 * math.pi / self.N

    @property
    def shape(self):
        return (self.N,) * (2 * self.n)

    @property
    def points(self):
        return self.N ** (2 * self.n)

    def axis_coordinate(self, axis):
        """1-D coordinate array broadcastable along the given real axis."""
        coord = self.h * np.arange(self.N)
        shape = [1] * (2 * self.n)
        shape[axis] = self.N
        return coord.reshape(shape)


@dataclass
class ScalarField:
    grid: TorusGrid
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != self.grid.shape:
            raise InputError(
                f"field shape {self.data.shape} does not match grid {self.grid.shape}"
            )

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    def sup(self):
        return float(np.max(self.data))

    def inf(self):
        return float(np.min(self.data))

    def copy(self):
        return ScalarField(self.grid, self.data.copy())


def make_field(grid, terms):
    """Sample a trigonometric polynomial exactly on the grid.

    ``terms`` is a list of (freq_vector, cos_coeff, sin_coeff) with the
    frequency vector of length 2n over (x_1, y_1, ..., x_n, y_n).  Frequencies
    above N/4 are rejected: they would alias under the second-difference
    stencils used downstream.
    """
    data = np.zeros(grid.shape)
    for kvec, ccoef, scoef in terms:
        kvec = tuple(int(k) for k in kvec)
        if len(kvec) != 2 * grid.n:
            raise InputError(f"frequency vector {kvec} must have length {2*grid.n}")
        if max((abs(k) for k in kvec), default=0) > grid.N // 4:
            raise InputError(f"frequency {kvec} above N/4 aliasing guard")
        phase = np.zeros(grid.shape)
        for axis, k in enumerate(kvec):
            if k:
                phase = phase + k * grid.axis_coordinate(axis)
        if ccoef:
            data += ccoef * np.cos(phase)
        if scoef:
            data += scoef * np.sin(phase)
    if not np.all(np.isfinite(data)):
        raise InputError("field values must be finite")
    return ScalarField(grid, data)


@dataclass
class MetricField:
    """Hermitian metric coefficient field; constant metrics stay compact.

    ``generator`` records how a variable metric was synthesized (truncated
    Fourier data) purely for reproducibility of experiment bundles.
    """

    grid: TorusGrid
    form: np.ndarray  # (n, n) when constant, grid.shape + (n, n) otherwise
    constant: bool
    generator: dict | None = None
    _li: np.ndarray | None = field(default=None, repr=False)
    _inv: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def flat(cls, grid, scale=1.0):
        n = grid.n
        return cls(grid, scale * np.eye(n, dtype=complex), True,
                   {"kind": "flat", "scale": scale})

    @classmethod
    def constant_form(cls, grid, form):
        from .hermlin import check_hermitian, cholesky_inverse

        form = check_hermitian(form, "metric")
        if form.shape[0] != grid.n:
            raise InputError("metric dimension must equal grid complex dimension")
        cholesky_inverse(form)  # positive-definiteness gate
        return cls(grid, form, True, {"kind": "constant"})

    @classmethod
    def conformal(cls, grid, base_form, terms):
        """omega = exp(phi) * base_form with phi a truncated Fourier series."""
        from .hermlin import check_hermitian, cholesky_inverse

        base_form = check_hermitian(base_form, "metric")
        cholesky_inverse(base_form)
        phi = make_field(grid, terms)
        forms = np.exp(phi.data)[..., None, None] * base_form
        generator = {
            "kind": "conformal",
            "terms": [[list(kvec), c, s] for kvec, c, s in terms],
        }
        return cls(grid, forms, False, generator)

    def __post_init__(self):
        self.form = np.asarray(self.form, dtype=complex)
        if not self.constant and self.form.shape != self.grid.shape + (self.grid.n,) * 2:
            raise InputError("variable metric shape mismatch")

    def matrices(self):
        """Per-point (or broadcastable) metric matrices."""
        return self.form

    def cholesky_inverse(self):
        from .hermlin import cholesky_inverse

        if self._li is None:
            self._li = cholesky_inverse(self.form)
        return self._li

    def inverse(self):
        if self._inv is None:
            self._inv = _inverse(self.form)
        return self._inv

    def torsion_sup(self):
        """sup norm of first differences of the coefficients (d omega diagnostic).

        Identically zero for constant metrics; no operation consumes this, it
        is recorded so variable-metric runs document how non-closed omega is.
        """
        if self.constant:
            return 0.0
        h = self.grid.h
        worst = 0.0
        for axis in range(2 * self.grid.n):
            diff = (np.roll(self.form, -1, axis) - np.roll(self.form, 1, axis)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(diff))))
        return worst


def _inverse(a):
    """Inverse of 2x2 or 3x3 matrices, stacked on leading axes, by cofactors.

    Written out per entry, which on a field of small matrices is faster than
    LAPACK's one call per point.
    """
    n = a.shape[-1]
    adj = np.empty_like(a)
    if n == 2:
        adj[..., 0, 0], adj[..., 1, 1] = a[..., 1, 1], a[..., 0, 0]
        adj[..., 0, 1], adj[..., 1, 0] = -a[..., 0, 1], -a[..., 1, 0]
    else:
        for i in range(3):
            for j in range(3):
                # cyclic row and column order gives each minor its sign
                r, s, c, d = (j + 1) % 3, (j + 2) % 3, (i + 1) % 3, (i + 2) % 3
                adj[..., i, j] = a[..., r, c] * a[..., s, d] - a[..., r, d] * a[..., s, c]
    det = sum(a[..., 0, k] * adj[..., k, 0] for k in range(n))
    return adj / det[..., None, None]


def _second_difference(data, axis, h):
    return (np.roll(data, -1, axis) - 2.0 * data + np.roll(data, 1, axis)) / (h * h)


def _cross_difference(data, ax_a, ax_b, h):
    up = np.roll(data, -1, ax_a)
    dn = np.roll(data, 1, ax_a)
    return (
        np.roll(up, -1, ax_b) - np.roll(up, 1, ax_b)
        - np.roll(dn, -1, ax_b) + np.roll(dn, 1, ax_b)
    ) / (4.0 * h * h)


def complex_hessian_array(data, grid):
    """Complex Hessian field as a grid.shape + (n, n) complex array."""
    n, h = grid.n, grid.h
    second = {}

    def d2(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in second:
            if key[0] == key[1]:
                second[key] = _second_difference(data, key[0], h)
            else:
                second[key] = _cross_difference(data, key[0], key[1], h)
        return second[key]

    hess = np.empty(grid.shape + (n, n), dtype=complex)
    for j in range(n):
        xj, yj = 2 * j, 2 * j + 1
        for k in range(j, n):
            xk, yk = 2 * k, 2 * k + 1
            re = 0.25 * (d2(xj, xk) + d2(yj, yk))
            if j == k:
                hess[..., j, j] = re  # cross terms cancel exactly on the diagonal
            else:
                im = 0.25 * (d2(xj, yk) - d2(yj, xk))
                hess[..., j, k] = re + 1j * im
                hess[..., k, j] = re - 1j * im
    return hess


def complex_hessian(u):
    """Discrete u_{j kbar} at every grid point; Hermitian by construction."""
    return complex_hessian_array(u.data, u.grid)


def analytic_complex_hessian(grid, terms):
    """Exact continuum complex Hessian of a trigonometric polynomial, sampled.

    The manufactured-solution oracle: differentiating term-by-term gives
    d^2/dtheta_a dtheta_b [c cos(k.theta) + s sin(k.theta)]
      = -k_a k_b [c cos(k.theta) + s sin(k.theta)].
    """
    n = grid.n
    hess = np.zeros(grid.shape + (n, n), dtype=complex)
    for kvec, ccoef, scoef in terms:
        kvec = tuple(int(k) for k in kvec)
        phase = np.zeros(grid.shape)
        for axis, k in enumerate(kvec):
            if k:
                phase = phase + k * grid.axis_coordinate(axis)
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


def gradient_sup_array(data, grid):
    h = grid.h
    total = np.zeros(grid.shape)
    for axis in range(2 * grid.n):
        d = (np.roll(data, -1, axis) - np.roll(data, 1, axis)) / (2.0 * h)
        total += d * d
    return float(np.sqrt(np.max(total)))


def gradient_sup(u):
    """Max Euclidean norm of the central-difference gradient over the grid."""
    return gradient_sup_array(u.data, u.grid)


# --------------------------------------------------------------------------
# Field files: one JSON header line, then raw little-endian float64 payload
# flattened x_1-fastest.
# --------------------------------------------------------------------------


def write_field(path, u, kind="scalar"):
    header = json.dumps({"n": u.grid.n, "N": u.grid.N, "kind": kind}, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(u.data.astype("<f8").flatten(order="F").tobytes())


# A written header is about 40 bytes; the limit keeps a file without a
# newline from being read whole as its header.
_HEADER_LIMIT = 1024


def read_field(path, memory_cap=2 << 30):
    with open(path, "rb") as fh:
        header = fh.readline(_HEADER_LIMIT)
        if not header.endswith(b"\n"):
            raise InputError(
                f"field header in {path} is not a line of at most {_HEADER_LIMIT} bytes"
            )
        payload = fh.read()
    try:
        meta = json.loads(header.decode("ascii"))
        n, N, kind = int(meta["n"]), int(meta["N"]), str(meta["kind"])
    except (ValueError, KeyError) as exc:
        raise InputError(f"malformed field header in {path}") from exc
    grid = TorusGrid(n, N, memory_cap=memory_cap)
    expected = grid.points * 8
    if len(payload) != expected:
        raise InputError(
            f"field payload has {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype="<f8").reshape(grid.shape, order="F")
    if not np.all(np.isfinite(data)):
        raise InputError(f"field values in {path} must be finite")
    return ScalarField(grid, data.astype(float)), kind
