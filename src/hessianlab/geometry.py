"""Periodic grids on the real torus [0, 2pi)^{2n} and discrete complex Hessians.

Real coordinates are ordered (x_1, y_1, ..., x_n, y_n) with z_j = x_j + i y_j;
array axis 2j holds x_{j+1} and axis 2j+1 holds y_{j+1}.  "x_1-fastest" file
layout therefore corresponds to Fortran-order flattening of that array.

The complex Hessian u_{j kbar} is discretized with second-order central
differences and periodic wrap:

    u_{j kbar} = (1/4) [(D_{x_j x_k} + D_{y_j y_k}) u]
               + (i/4) [(D_{x_j y_k} - D_{y_j x_k}) u].

Mixed derivatives use the standard 4-point cross stencil.  A step of one
along axis a is a flat offset of N^(2n-1-a) elements of the C-order field,
so every neighbour sum v(+1) + v(-1) and difference v(+1) - v(-1) is one
contiguous add or subtraction (_difference) and a strided rewrite of the
wrapped faces, with no padded copy.  _stencils makes them, and the Krylov
matvec (hessop) runs it on its vector too, so dd^c is written once,
straight into the Hermitian layout that every per-point matrix field
shares: real, shape (n, n) + grid.shape, with M_jj on [j, j] and, for
j < k, Re M_kj on [k, j] and Im M_kj on [j, k].  The complex grid.shape +
(n, n) field is built from it only for tests and diagnostics.

Every grid kernel, here and in hessop, runs over slabs of whole rows along
axis 0 (_slabs), so that a slab's temporaries stay in cache.  A slab is one
contiguous block, so steps along axes 1.. stay flat offsets within it; only
axis 0 reads the neighbouring rows.  Each point gets the same operations
whatever the split, so no output bit depends on it.
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
    "analytic_hessian_layout",
    "analytic_complex_hessian",
    "gradient_sup",
    "write_field",
    "read_field",
    "check_hermitian",
    "check_positive_definite",
]

_MEMORY_CAP = 2 << 30  # bytes: every grid's default guard, read_field's too


def _bytes_per_point(n):
    # Rough per-point footprint of a solve, a guess not fitted to measurement:
    # 16 n^2 bytes of matrix fields plus Krylov basis headroom.
    return 16 * n * n + 640


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid: N points per real axis, 2n real axes."""

    n: int
    N: int
    memory_cap: int = field(default=_MEMORY_CAP, compare=False)  # a guard, not part of the grid

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


def _terms(grid, terms):
    """The (freq_vector, cos_coeff, sin_coeff) terms of a trigonometric
    polynomial on ``grid``, each frequency vector as a tuple of 2n ints;
    raises InputError for a vector of another length, a frequency above N/4
    (it would alias under the second-difference stencils used downstream) or
    a coefficient that is not finite."""
    for kvec, ccoef, scoef in terms:
        kvec = tuple(int(k) for k in kvec)
        if len(kvec) != 2 * grid.n:
            raise InputError(f"frequency vector {kvec} must have length {2*grid.n}")
        if max((abs(k) for k in kvec), default=0) > grid.N // 4:
            raise InputError(f"frequency {kvec} above N/4 aliasing guard")
        if not (math.isfinite(ccoef) and math.isfinite(scoef)):
            raise InputError(f"coefficients of frequency {kvec} must be finite")
        yield kvec, ccoef, scoef


def _phase(grid, kvec):
    """k . theta on the sub-grid of the axes where k != 0: N points along
    each of those axes and 1 along the others, so it broadcasts against a
    field of grid.shape."""
    phase = np.zeros((1,) * (2 * grid.n))
    for axis, k in enumerate(kvec):
        if k:
            phase = phase + k * grid.axis_coordinate(axis)
    return phase


def make_field(grid, terms):
    """Sample a trigonometric polynomial exactly on the grid.

    ``terms`` is a list of (freq_vector, cos_coeff, sin_coeff) with the
    frequency vector of length 2n over (x_1, y_1, ..., x_n, y_n), checked by
    _terms.  Each term is evaluated on its sub-grid (_phase) and added into
    the field by broadcasting.
    """
    data = np.zeros(grid.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        for kvec, ccoef, scoef in _terms(grid, terms):
            phase = _phase(grid, kvec)
            if ccoef:
                data += ccoef * np.cos(phase)
            if scoef:
                data += scoef * np.sin(phase)
    if not np.all(np.isfinite(data)):
        raise InputError("field values must be finite")
    return ScalarField(grid, data)


_MAX_N = 8


def check_hermitian(a, name="matrix"):
    """``a`` as a complex square matrix of size at most _MAX_N, symmetrized
    as 0.5 a + 0.5 a^H, which cannot overflow; raises InputError unless it
    is finite and each entry is within 1e-13 of max(1, its largest entry)
    of its mirror's conjugate."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InputError(f"{name} must be square and non-empty, got shape {a.shape}")
    if a.shape[0] > _MAX_N:
        raise InputError(f"{name} larger than supported n <= {_MAX_N}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} must be finite")
    # in halves, so that the scale cannot overflow and the deviation only
    # near the float limit, where it is inf and rejected
    half = 0.5 * a
    with np.errstate(over="ignore"):
        dev = np.abs(half - half.conj().T)
    if np.any(dev > 1e-13 * max(0.5, np.max(np.abs(half)))):
        raise InputError(f"{name} is not Hermitian (deviation {2.0 * float(np.max(dev)):.3e})")
    return half + half.conj().T


def check_positive_definite(a, name="metric"):
    """``a`` itself; raises InputError unless its least eigenvalue exceeds
    1e-12 of its mean eigenvalue, taken as sum(a_jj / n), which cannot
    overflow.  Both sides scale with a positive factor c, so c a passes
    wherever a does and c a is finite and normal."""
    floor = 1e-12 * np.sum(np.diagonal(a).real / a.shape[-1])
    if not np.linalg.eigvalsh(a)[0] > floor:
        raise InputError(f"{name} is not positive definite")
    return a


def _congruence_map(p):
    """X -> P X P^* on Hermitian X as a real (n^2, n^2) matrix acting on the
    flattened Hermitian layout: column c is the layout of P E_c P^*, E_c the
    matrix whose layout is the c-th unit vector."""
    n = p.shape[0]
    basis = complex_of_layout(np.eye(n * n).reshape(n, n, n * n))
    return layout_of_complex(p @ basis @ p.conj().T).reshape(n * n, n * n)


@dataclass
class MetricField:
    """Hermitian metric omega = exp_phi * base: a constant (n, n) base form
    times the positive conformal field e^phi of grid.shape (None for 1), so
    a conformal metric holds one float per point; ``form``, omega itself, is
    computed when read.  For base = L L^*, ``factor`` holds the congruences
    X -> L^{-1} X L^{-*} (for B') and X -> L^{-*} X L^{-1} (for A) as real
    maps of the Hermitian layout, built once from (n, n) complex matrices
    (_congruence_map); it is None for the identity.

    The base is checked once as a constant form and kept symmetrized; e^phi
    as a scalar, finite and positive at every point, with max(e^phi) times
    the base's largest real or imaginary part finite.  Every point of omega
    then meets the checks of a constant form, as both are scale-free: a real
    factor keeps an exactly Hermitian base exactly Hermitian, and the least
    eigenvalue and the floor of check_positive_definite scale alike (until
    a product rounds into the subnormal range)."""

    grid: TorusGrid
    base: np.ndarray
    exp_phi: np.ndarray | None = None
    factor: tuple | None = field(init=False, repr=False, compare=False)

    @classmethod
    def flat(cls, grid, scale=1.0):
        if not (math.isfinite(scale) and scale > 0):
            raise InputError(f"metric scale {scale} must be finite and positive")
        return cls(grid, scale * np.eye(grid.n, dtype=complex))

    @classmethod
    def conformal(cls, grid, base_form, terms):
        """omega = exp(phi) * base_form with phi a truncated Fourier series;
        an e^phi that overflows, or underflows to 0, fails the metric's check."""
        with np.errstate(over="ignore"):
            return cls(grid, base_form, np.exp(make_field(grid, terms).data))

    @property
    def form(self):
        """omega: (n, n) without a conformal field, grid.shape + (n, n) with one."""
        return self.base if self.exp_phi is None else self.exp_phi[..., None, None] * self.base

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=complex)
        n, grid = self.grid.n, self.grid
        if self.exp_phi is not None:
            self.exp_phi = ScalarField(grid, self.exp_phi).data  # checks its shape
        if self.base.shape != (n, n):
            raise InputError(f"metric shape {self.base.shape} does not fit complex "
                             f"dimension {n}: want {(n, n)}")
        self.base = check_positive_definite(check_hermitian(self.base, "metric"))
        self.factor = None
        if not np.array_equal(self.base, np.eye(n)):
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                p = np.linalg.inv(np.linalg.cholesky(self.base))
                self.factor = (_congruence_map(p), _congruence_map(p.conj().T))
            if not np.all(np.isfinite(self.factor)):  # 1 / lambda_min overflows
                raise InputError("metric is not positive definite")
        if self.exp_phi is not None:
            # the base's largest real or imaginary part; a Python float
            # product overflows to inf without a warning
            peak = float(np.max(np.abs(self.base.view(float))))
            if not (np.all(np.isfinite(self.exp_phi))
                    and math.isfinite(float(np.max(self.exp_phi)) * peak)):
                raise InputError("metric must be finite")
            if not np.all(self.exp_phi > 0):
                raise InputError("metric is not positive definite")


# Points per slab, so that the temporaries of one slab of a grid kernel stay
# in a 2 MiB L2 cache: 2 rows of a 24^4 grid, 8 of a 16^4 grid, 1 of an 8^6
# grid.  Measured against 2^16 (4, 16 and 2 rows) on a 2-core box, 2^15 was
# as fast or faster in every kernel and end to end on every workload.
_SLAB_POINTS = 1 << 15


def _slabs(shape):
    """Row slices along axis 0 of a grid of ``shape``, each of at least one
    row and at most max(1, _SLAB_POINTS // row points) rows, covering it."""
    rows = max(1, _SLAB_POINTS // math.prod(shape[1:]))
    return [slice(r0, min(r0 + rows, shape[0])) for r0 in range(0, shape[0], rows)]


def _faces(a, axis):
    """C-contiguous a as a (before, N, after) view with ``axis`` in the middle."""
    return a.reshape(-1, a.shape[axis], math.prod(a.shape[axis + 1:]))


def _difference(data, axis, out=None, rows=slice(None), op=np.subtract):
    """Undivided central difference op(data(+1), data(-1)) along ``axis`` on
    the rows ``rows`` of axis 0; with op=np.add it is the neighbour sum.
    Along axis 0: one op on the row views rows + 1 and rows - 1 where
    neither wraps, then the wrapped first and last rows.  Along another
    axis: one flat op in the block data[rows] offset by twice the axis
    stride, then both wrapped faces."""
    r0, r1, _ = rows.indices(data.shape[0])
    out = np.empty((r1 - r0,) + data.shape[1:]) if out is None else out
    if axis == 0:
        lo, hi = max(r0, 1), min(r1, data.shape[0] - 1)
        op(data[lo + 1 : hi + 1], data[lo - 1 : hi - 1], out=out[lo - r0 : hi - r0])
        if r0 == 0:
            op(data[1], data[-1], out=out[0])
        if r1 == data.shape[0]:
            op(data[0], data[-2], out=out[-1])
        return out
    data = data[rows]
    step = math.prod(data.shape[axis + 1:])
    flat, dst = data.reshape(-1), out.reshape(-1)
    op(flat[2 * step:], flat[:-2 * step], out=dst[step:-step])
    faces, dst_faces = _faces(data, axis), _faces(out, axis)
    op(faces[:, 1], faces[:, -1], out=dst_faces[:, 0])
    op(faces[:, 0], faces[:, -2], out=dst_faces[:, -1])
    return out


def _stencils(data, pairs=None, rows=slice(None)):
    """The undivided differences that make up dd^c of ``data``, a field of
    2n axes, on the rows ``rows`` of axis 0.

    Yields (j, j, ring, None) with ring = -4 v + (v(+x_j) + v(-x_j))
    + (v(+y_j) + v(-y_j)), the 5-point Laplacian of the (x_j, y_j) plane
    summed in that order, each bracket one neighbour sum, and for j < k
    (j, k, re, im) with re = X_{x_j x_k} + X_{y_j y_k} and im = X_{x_j y_k}
    - X_{y_j x_k}, X_ab the 4-point cross stencil, the difference along b of
    the difference along a; so u_{j jbar} = ring / (4 h^2) and u_{j kbar} =
    (re + i im) / (16 h^2).  ``pairs``, a set of (j, k) with j < k, limits
    the cross stencils to those pairs (None: every pair); a plane with no
    pair left takes no difference at all.  Every yielded array is fresh and
    shaped like data[rows]; the caller may overwrite it.

    Only axis 0 reads rows outside ``rows``, and along axis 0 a stencil only
    takes the neighbour sum of v or its first difference, since j < k; the
    second differences run on the block of rows already taken.
    """
    data = np.ascontiguousarray(data)
    n = data.ndim // 2
    tmp = np.empty(data[rows].shape)  # scratch for one neighbour sum or difference
    for j in range(n):
        xj, yj = 2 * j, 2 * j + 1
        ring = -4.0 * data[rows]
        for a in (xj, yj):
            ring += _difference(data, a, tmp, rows, op=np.add)
        yield j, j, ring, None
        del ring  # the caller's now: keep no second full-size array alive
        ks = [k for k in range(j + 1, n) if pairs is None or (j, k) in pairs]
        if not ks:
            continue
        # differenced again along a second axis b, these give the cross
        # stencils on (x_j, b) and (y_j, b)
        dx = _difference(data, xj, rows=rows)
        dy = _difference(data, yj, rows=rows)
        for k in ks:
            xk, yk = 2 * k, 2 * k + 1
            re = _difference(dx, xk)
            re += _difference(dy, yk, tmp)
            im = _difference(dx, yk)
            im -= _difference(dy, xk, tmp)
            yield j, k, re, im


def _hessian_rows(data, h, rows, out):
    """dd^c of ``data`` on the rows ``rows``, written into ``out``, the
    Hermitian layout of those rows."""
    for j, k, d_re, d_im in _stencils(data, rows=rows):
        if d_im is None:
            np.multiply(d_re, 0.25 / (h * h), out=out[j, j])
        else:
            np.multiply(d_re, 0.0625 / (h * h), out=out[k, j])
            np.multiply(d_im, -0.0625 / (h * h), out=out[j, k])  # Im u_{k jbar}
    return out


def complex_hessian_layout(data, grid):
    """dd^c of ``data`` in the Hermitian layout, (n, n) + grid.shape real,
    one slab of rows at a time."""
    out = np.empty((grid.n, grid.n) + grid.shape)
    for rows in _slabs(grid.shape):
        _hessian_rows(data, grid.h, rows, out[:, :, rows])
    return out


def complex_of_layout(x):
    """The complex shape + (n, n) matrix field held in the Hermitian layout x."""
    k, j = np.tril_indices(x.shape[0], -1)
    out = np.zeros(x.shape, dtype=complex)
    out.real, out.real[j, k] = x, x[k, j]
    out.imag[k, j], out.imag[j, k] = x[j, k], -x[j, k]
    return np.moveaxis(out, (0, 1), (-2, -1))


def layout_of_complex(a):
    """The Hermitian layout of a complex shape + (n, n) field (lower triangle read)."""
    k, j = np.tril_indices(a.shape[-1], -1)
    out = np.moveaxis(a.real, (-2, -1), (0, 1)).copy()
    out[j, k] = np.moveaxis(a.imag, (-2, -1), (0, 1))[k, j]
    return out


def analytic_hessian_layout(grid, terms):
    """Exact continuum dd^c of a trigonometric polynomial, sampled, in the
    Hermitian layout that complex_hessian_layout writes.

    The manufactured-solution oracle: differentiating term-by-term gives
    d^2/dtheta_a dtheta_b [c cos(k.theta) + s sin(k.theta)]
      = -k_a k_b [c cos(k.theta) + s sin(k.theta)],
    so a term adds re * base to Re u_{k jbar} and -im * base to Im u_{k jbar}
    for j <= k, with base = -(c cos + s sin) evaluated once on the term's
    sub-grid (_phase) and broadcast; an entry with re = im = 0 is skipped.
    """
    n = grid.n
    out = np.zeros((n, n) + grid.shape)
    for kvec, ccoef, scoef in _terms(grid, terms):
        phase = _phase(grid, kvec)
        base = -(ccoef * np.cos(phase) + scoef * np.sin(phase))
        for j in range(n):
            xj, yj = 2 * j, 2 * j + 1
            for k in range(j, n):
                xk, yk = 2 * k, 2 * k + 1
                re = 0.25 * (kvec[xj] * kvec[xk] + kvec[yj] * kvec[yk])
                im = 0.25 * (kvec[xj] * kvec[yk] - kvec[yj] * kvec[xk])
                if re:
                    out[k, j] += re * base
                if im:
                    out[j, k] -= im * base  # Im u_{k jbar}
    return out


def analytic_complex_hessian(grid, terms):
    """The exact continuum complex Hessian of analytic_hessian_layout as a
    complex grid.shape + (n, n) field."""
    return complex_of_layout(analytic_hessian_layout(grid, terms))


def gradient_sup(u):
    """Max Euclidean norm of the central-difference gradient over the grid."""
    data, h = np.ascontiguousarray(u.data), u.grid.h
    total = np.zeros(u.grid.shape)
    d = np.empty(u.grid.shape)
    for axis in range(2 * u.grid.n):
        _difference(data, axis, d)
        d /= 2.0 * h
        total += np.multiply(d, d, out=d)
    return float(np.sqrt(np.max(total)))


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


def read_field(path, memory_cap=_MEMORY_CAP):
    with open(path, "rb") as fh:
        header = fh.readline(_HEADER_LIMIT)
        if not header.endswith(b"\n"):
            raise InputError(
                f"field header in {path} is not a line of at most {_HEADER_LIMIT} bytes"
            )
        try:
            meta = json.loads(header.decode("ascii"))
        except ValueError as exc:
            raise InputError(f"malformed field header in {path}") from exc
        if not (isinstance(meta, dict) and "kind" in meta
                and all(type(meta.get(key)) is int for key in ("n", "N"))):
            raise InputError(f"field header in {path} needs integer n, N and a kind")
        n, N, kind = meta["n"], meta["N"], str(meta["kind"])
        grid = TorusGrid(n, N, memory_cap=memory_cap)
        expected = grid.points * 8
        payload = fh.read(expected + 1)  # one byte past the grid shows an oversized payload
    if len(payload) != expected:
        raise InputError(f"field payload in {path} is not the {expected} bytes of its grid")
    data = np.frombuffer(payload, dtype="<f8").reshape(grid.shape, order="F")
    if not np.all(np.isfinite(data)):
        raise InputError(f"field values in {path} must be finite")
    return ScalarField(grid, np.array(data, dtype=float, order="C")), kind
