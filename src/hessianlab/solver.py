"""Damped Newton with a nested start and a continuity path for
log sigma_m(u) = q u + H.

A solve with no start iterate first solves the same equation on the
companion grid M = N/2, when M is even and at least 8 (so N = 16, 20, 24,
...; N = 8, 10, 12, 14, 18 and 22 have none), with the data and the
conformal field restricted by injection and the caller's SolverConfig
unchanged.  That companion solve is this same procedure, so 32 runs 16,
which runs 8.  Newton at N then starts at t = 1 from the companion
solution's band-limited interpolant (its DFT zero-padded, the coarse Nyquist
mode dropped): the nested iteration of full multigrid (Brandt, Math. Comp.
31, 1977), which starts inside Newton's basin to O(h^2).  The two grids also
give the Richardson estimate sup|u_N - I u_M| / ((N/M)^2 - 1) of the
discretization error.  Where no companion runs, it fails, its interpolant
leaves Gamma_m or Newton from it fails, the solve falls back to the
continuity path below, bit for bit the solve that runs without a companion;
the failed attempt's Newton records stay in the trace.  SolveReport.start
says which start ran, SolveReport.coarse holds the companion's report.

The continuity path starts from the exact solution u = 0 at t = 0 and walks
log sigma_m(u_t) = q u_t + t H to t = 1, halving a t-step whenever Newton
fails on it.  Only the endpoint is reported, so each point t < 1 is solved
to a sup residual of max(newton_tol, 0.1), enough to start the next point
inside Newton's basin (inexact path following, Deuflhard, Newton Methods
for Nonlinear Problems, 2011, ch. 5); t = 1 is solved to newton_tol.  The
normalized equation sigma_m(u) = c f is reached through the
vanishing-zeroth-order family log sigma_m(v) = eps v + log f with c
extracted as exp(eps sup v).

Inner solves are one GMRES cycle of at most 60 iterations, with no restart
(a stalled cycle only stalls again; Embree, SIAM Rev. 45, 2003),
right-preconditioned so the stopping rule is on the true residual; each
iteration solves min |beta e_1 - H y| on its Hessenberg H with lstsq.  The
preconditioner is a constant-coefficient solve scaled pointwise by the
operator diagonal (Concus & Golub, SIAM J. Numer. Anal. 10, 1973).  It keeps
the mean diagonal weights alone, so each axis's orthonormal real
cosine/sine basis diagonalizes it (Lynch, Rice & Thomas, Numer. Math. 6,
1964), applied as one real BLAS GEMM per axis, except on the 65 (n = 2) or
233 (n = 3) lowest modes, where one dense block, inverted per Krylov solve,
keeps the varying zeroth-order term q / s whole (Nicolaides, SIAM J. Numer.
Anal. 24, 1987).  It is exact for constant weights at any q (flat metric,
u = 0: one GMRES iteration), but under a conformal factor only at q = 0,
which no caller solves (they take q = 1, eps or 1/eps): on conformal-n2's
metric at N = 16, u = 0, m = 1 / 2, a consistent right-hand side asked for
1e-10 takes 1 / 1 iterations at q = 0, 5 / 4 at q = 0.01, 18 / 16 at
q = 1, 9 / 11 at q = 100.
The relative residual asked of the inner solve follows the inexact-Newton
forcing rule min(3e-2, 0.3 |F|) (|F| the outer sup residual), which keeps
the quadratic tail, but never asks for less than 0.5 newton_tol / |F|,
which leaves a linearized residual of about newton_tol / 2 (Kelley,
Iterative Methods for Linear and Nonlinear Equations, 1995, ch. 6;
Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996).  That request is never
below sqrt(0.15 newton_tol), so no separate Krylov tolerance is needed.

Strict Gamma_m membership at every grid point is the only admissibility
rule: Newton starts only from such an iterate and its line search rejects
any candidate outside the cone, so each accepted iterate is strictly
elliptic and has S_m > 0.

SolverConfig holds only what callers set; the line search (step halved down
to 2^-20), the cap of 50 Newton steps per solve, the Krylov cap, the
preconditioner's low modes, the cap of 12 t-step halvings and the path
tolerance 0.1 are constants.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError
from .geometry import MetricField, ScalarField, TorusGrid
from .hessop import (
    apply_linearization_array,
    linearization,
    sk_table_of_state,
    state_matrices,
)
from .symfunc import table_in_cone, table_margin

__all__ = [
    "SolverConfig",
    "NewtonRecord",
    "SolveReport",
    "NormalizedReport",
    "krylov_solve",
    "solve_exponential",
    "solve_normalized",
    "check_density",
    "check_schedule",
]


_DAMPING = 0.5  # line-search step factor
_MIN_STEP = 2.0**-20  # line-search floor
_MAX_NEWTON = 50  # Newton steps per _newton call before giving up
_KRYLOV_MAX = 60  # GMRES iterations per solve, the basis size
_MAX_T_HALVINGS = 12  # continuity step halvings before giving up
_PATH_TOL = 0.1  # residual target at the continuity points t < 1
_LOW_K2 = 3  # |k|^2 bound of the modes the preconditioner solves densely


@dataclass
class SolverConfig:
    """What callers set; the caps are constants: _MAX_NEWTON Newton steps, _KRYLOV_MAX
    GMRES iterations, _MAX_T_HALVINGS t-step halvings, the line-search floor _MIN_STEP."""

    newton_tol: float = 1e-9  # sup-norm residual target
    t_steps: int = 4  # initial continuity step count, halved adaptively

    def __post_init__(self):
        if not 0 < self.newton_tol < math.inf:
            raise InputError("newton_tol must be finite and positive")
        if self.t_steps < 1:
            raise InputError("t_steps must be >= 1")


@dataclass
class NewtonRecord:
    t: float
    iter: int
    residual_sup: float
    step_scale: float
    cone_margin: float
    krylov_iters: int = 0  # GMRES iterations behind this step
    krylov_relres: float | None = None  # their true relative residual


@dataclass
class SolveReport:
    converged: bool
    t_path: list = field(default_factory=list)  # (t, newton_iters, final_residual)
    cone_margin_min: float = math.inf
    sup_u: float = 0.0
    inf_u: float = 0.0
    wallclock: float = 0.0
    trace: list = field(default_factory=list)
    failure: str | None = None
    start: str = "continuity"  # how t = 1 was reached: "nested", "continuity" or "warm"
    coarse: SolveReport | None = None  # the companion solve on N/2, if one ran
    resolution_estimate: float | None = None  # sup|u_N - I u_M| / 3, see _solve

    @property
    def newton_steps(self):
        """Newton steps of the accepted path, summed over t_path."""
        return sum(it for _, it, _ in self.t_path)


@dataclass
class NormalizedReport:
    converged: bool
    eps_path: list  # (eps, SolveReport)
    c_estimates: list
    c_gaps: list
    final_mismatch: float
    inf_u: float  # min u; max u is 0 by construction
    wallclock: float

    @property
    def newton_steps(self):
        """Newton steps of the accepted path, summed over eps_path.

        Rejected starts and failed continuity attempts are not counted.
        """
        return sum(r.newton_steps for _, r in self.eps_path)


# --------------------------------------------------------------------------
# GMRES with right preconditioning.
# --------------------------------------------------------------------------


def gmres_raw(matvec, b, tol, psolve):
    """One GMRES cycle of at most _KRYLOV_MAX iterations on flat arrays;
    returns (x, iterations, true relres), the relres possibly above ``tol``.

    Right preconditioning keeps the monitored residual equal to the residual
    of the original system, which is what the caller's contract quotes.
    """
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0, 0.0
    basis = np.empty((_KRYLOV_MAX + 1, b.size))
    basis[0] = b / bnorm
    hess = np.zeros((_KRYLOV_MAX + 1, _KRYLOV_MAX))
    e1 = np.zeros(_KRYLOV_MAX + 1)
    e1[0] = bnorm
    for j in range(_KRYLOV_MAX):
        w = matvec(psolve(basis[j]))
        for i in range(j + 1):  # modified Gram-Schmidt
            hij = float(np.dot(basis[i], w))
            hess[i, j] = hij
            w -= hij * basis[i]
        hess[j + 1, j] = np.linalg.norm(w)
        h, g = hess[:j + 2, :j + 1], e1[:j + 2]
        y = np.linalg.lstsq(h, g, rcond=None)[0]
        if hess[j + 1, j] == 0.0 or np.linalg.norm(h @ y - g) / bnorm <= 0.9 * tol:
            break
        basis[j + 1] = w / hess[j + 1, j]
    x += psolve(y @ basis[:j + 1])
    return x, j + 1, float(np.linalg.norm(b - matvec(x))) / bnorm


def _axis_basis(N):
    """The orthonormal real eigenbasis of the periodic second difference on N
    points, one basis vector a row (cos k x for k = 0..N/2, then sin k x for
    k = 1..N/2 - 1, at x = jh, h = 2 pi / N), and its eigenvalues
    2 cos(k h) - 2."""
    h = 2.0 * np.pi / N
    k = np.r_[np.arange(N // 2 + 1), np.arange(1, N // 2)]
    angle = h * (np.outer(k, np.arange(N)) % N)  # jk reduced mod N: exact angles
    basis = np.where((np.arange(N) <= N // 2)[:, None], np.cos(angle), np.sin(angle))
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    return basis, 2.0 * np.cos(k * h) - 2.0


def _axis_gemm(a, matrix, axes):
    """Contract the leading ``axes`` axes of the C-order array ``a`` with
    ``matrix``, one real GEMM per axis: each takes the leading axis, of
    matrix.shape[0] entries, to matrix.shape[1] and rotates it to the back,
    so no transpose is copied and ``axes`` = a.ndim GEMMs leave the axes in
    their own order.  Each product drops the one before, and ``a`` too when
    the caller passed it as a temporary.  Returns a 2-d array; callers
    reshape it."""
    for _ in range(axes):
        a = a.reshape(matrix.shape[0], -1).T @ matrix
    return a


def _low_modes(n, N):
    """The modes that _spectral_preconditioner solves by a dense block: every
    tensor product of the rows cos 0, cos x, sin x of _axis_basis with
    |k|^2 <= _LOW_K2, the constant mode first.  Returns their per-axis picks
    0, 1, 2 (rows 0, 1 and N/2 + 1), a (modes, 2n) array, and their flat
    indices in the transform's coefficient array."""
    picks = np.indices((3,) * (2 * n)).reshape(2 * n, -1).T
    picks = picks[np.count_nonzero(picks, axis=1) <= _LOW_K2]
    rows = np.array([0, 1, N // 2 + 1])[picks]
    return picks, np.ravel_multi_index(rows.T, (N,) * (2 * n))


def _galerkin(field, picks, basis):
    """G_IJ = sum_x field(x) q_I(x) q_J(x) over the low-mode basis fields
    q_I named by ``picks`` (_low_modes).

    Each axis contracts the field with the 6 distinct products r_i r_j,
    i <= j, of its rows r = cos 0, cos x, sin x: one (N, 6) GEMM per axis
    (_axis_gemm), so the 9^(2n) tensor of all row pairs (729 x 729 at
    n = 3) is never built; G is read from the 6^(2n) result.
    """
    N = basis.shape[1]
    rows = basis[[0, 1, N // 2 + 1]]
    i, j = np.triu_indices(3)
    pair = np.empty((3, 3), dtype=np.intp)  # pair[i, j]: the column of r_i r_j
    pair[i, j] = pair[j, i] = np.arange(6)
    products = (rows[i] * rows[j]).T
    a = _axis_gemm(field, products, picks.shape[1])
    return a.reshape((6,) * picks.shape[1])[tuple(pair[np.ix_(col, col)] for col in picks.T)]


def _spectral_preconditioner(lin):
    """psolve(v) = P^{-1}(v / s), s the magnitude 4 tr(w) + q of the
    operator diagonal over its grid mean (each plane Laplacian puts -4 times
    its weight on the centre point, the cross stencils put nothing there).

    Off the _low_modes P is the constant-coefficient operator C with the
    diagonal weights mean(w_jj / s) and zeroth-order term q mean(1 / s); the
    mean cross weights are left out, so C is a sum of one-axis second
    differences, which each axis's orthonormal real cosine/sine basis
    diagonalizes: the fast diagonalization method (Lynch, Rice & Thomas,
    Numer. Math. 6, 1964).  On the _low_modes (65 at n = 2, 233 at n = 3) P
    is the dense block E = diag(sum_a wdiag_(a//2) lambda(k_a)) - G, G the
    Galerkin matrix of q / s on them (_galerkin), an exact coarse space
    (Nicolaides, SIAM J. Numer. Anal. 24, 1987): it keeps whole the scaled
    zeroth-order term, which a conformal factor makes vary (by e^3.6 on
    conformal-n2) and which outweighs the second differences on those modes.
    Where q / s is constant G is q mean(1 / s) I and P is C, and s C equals
    the operator wherever the weights are a scalar field times constant
    diagonal weights and q = 0.  A build adds one contraction the size of a
    transform and the inverse of E (233 x 233 at most), an apply one
    product with that inverse.  1/s is the only per-point array, built in
    place.

    The transform is one real GEMM per axis with the transposed basis
    (_axis_gemm), the inverse the same with the basis.
    """
    n, N = lin.grid.n, lin.grid.N
    inv_s = np.trace(lin.weights)
    inv_s *= 4.0
    inv_s += lin.q
    np.divide(np.mean(inv_s), inv_s, out=inv_s)
    flat_s = inv_s.reshape(-1)
    wdiag = [np.dot(lin.weights[j, j].reshape(-1), flat_s) / flat_s.size for j in range(n)]
    basis, lam = _axis_basis(N)
    basis_t = np.ascontiguousarray(basis.T)
    inv_sym = wdiag[0] * lam
    for a in range(1, 2 * n):
        inv_sym = np.add.outer(inv_sym, wdiag[a // 2] * lam)
    inv_sym = inv_sym.reshape(-1)
    picks, low = _low_modes(n, N)
    inv_block = np.diag(inv_sym[low])
    inv_block -= lin.q * _galerkin(flat_s, picks, basis)
    inv_sym -= lin.q * np.mean(inv_s)
    if inv_sym[0] == 0.0:  # the constant mode is null at q = 0: keep it, signed like the rest
        inv_sym[0] = inv_block[0, 0] = -1.0
    np.divide(1.0, inv_sym, out=inv_sym)
    inv_block = np.linalg.inv(inv_block)

    def solve_coefficients(a):
        a = a.reshape(-1)
        coarse = inv_block @ a[low]
        a *= inv_sym
        a[low] = coarse
        return a

    def psolve(v):
        # each transform's input a temporary: an apply holds two grid arrays
        # at a time, where a local would keep a third
        return _axis_gemm(solve_coefficients(_axis_gemm(v * flat_s, basis_t, 2 * n)),
                          basis, 2 * n).reshape(-1)

    return psolve


def krylov_solve(lin, rhs, tol):
    """Solve the linearized equation for the float array ``rhs`` of the
    linearization's grid shape, matrix-free to a true relative residual,
    preconditioned by _spectral_preconditioner.

    Returns gmres_raw's (x, iterations, relres), x shaped like the grid; when
    the one GMRES cycle misses ``tol`` x is the best iterate reached, its
    relres above ``tol``, and the Newton driver line-searches along it all
    the same.
    """
    shape = lin.grid.shape
    if np.shape(rhs) != shape:
        raise InputError(f"rhs shape {np.shape(rhs)} is not the grid shape {shape}")
    psolve = _spectral_preconditioner(lin)

    def matvec(v):
        return apply_linearization_array(lin, v.reshape(shape)).reshape(-1)

    # psolve by keyword, where perfbench's tracer finds and wraps it
    x, iters, relres = gmres_raw(matvec, rhs.reshape(-1), tol, psolve=psolve)
    return x.reshape(shape), iters, relres


# --------------------------------------------------------------------------
# Newton core.
# --------------------------------------------------------------------------


class _State:
    __slots__ = ("u", "b", "table", "residual", "res_sup", "in_cone", "margin")

    def __init__(self, u, b, table, n, m, q, harr):
        self.u = u
        self.b = b  # B' in the Hermitian layout, until the linearization writes over it
        self.table = table  # sk_table_of_state has checked m's degree
        self.margin = float(np.min(table_margin(table, n, m)))
        self.in_cone = bool(np.all(table_in_cone(table, m)))
        if self.in_cone:  # S_m > 0 on Gamma_m
            self.residual = np.log(table[..., m] / math.comb(n, m)) - q * u - harr
            self.res_sup = float(np.max(np.abs(self.residual)))
        else:
            self.residual = None
            self.res_sup = math.inf

    def release(self):
        """Drop b, table and residual; u, res_sup, margin and in_cone are all
        that a step needs once it has its linearization and right-hand side,
        and all that _newton's callers read."""
        self.b = self.table = self.residual = None
        return self


class _Equation:
    """log sigma_m(u) = q u + H on a fixed grid and metric."""

    def __init__(self, metric, m, q):
        self.metric = metric
        self.m = m
        self.q = q

    def evaluate(self, u, harr):
        b = state_matrices(u, self.metric)
        table = sk_table_of_state(b, self.metric, self.m)
        return _State(u, b, table, self.metric.grid.n, self.m, self.q, harr)


def _newton(eq, u0, harr, cfg, t_label, trace):
    """Damped Newton at fixed data; returns (state, iters, failure), the
    state released, with ``failure`` None exactly when it converged.  A step
    whose line search stalls is traced too, with step_scale 0, the unchanged
    residual and margin, and its Krylov work.

    A step holds one state's grid arrays at a time: the linearization is
    written over the state's B' and the right-hand side over its residual,
    the state is released before the Krylov solve, the linearization and
    right-hand side before the line search, and each rejected candidate
    before the next is built."""
    state = eq.evaluate(u0, harr)
    if not state.in_cone:
        return state.release(), 0, "initial iterate outside the cone"
    trace.append(NewtonRecord(t_label, 0, state.res_sup, 0.0, state.margin))
    iters = 0
    while state.res_sup > cfg.newton_tol:
        if iters >= _MAX_NEWTON:
            return state.release(), iters, "Newton iteration cap"
        # every admitted state is strictly inside the cone, as linearization needs
        lin = linearization(state.b, state.table, eq.metric, eq.m, eq.q)
        rhs = np.negative(state.residual, out=state.residual)
        state.release()
        forcing = max(0.3 * state.res_sup, 0.5 * cfg.newton_tol / state.res_sup)
        tol_k = min(3e-2, forcing)
        delta, k_iters, k_relres = krylov_solve(lin, rhs, tol_k)
        # freed before the line search: a warm 8^6 solve takes ~3,920 minor
        # faults so, against ~8,030 when the step held them to its end
        del lin, rhs
        step = 1.0
        accepted = None
        while step >= _MIN_STEP:
            cand = eq.evaluate(state.u + step * delta, harr)
            if cand.in_cone and cand.res_sup <= (1.0 - 1e-4 * step) * state.res_sup:
                accepted = cand
                break
            del cand
            step *= _DAMPING
        if accepted is None:
            trace.append(NewtonRecord(t_label, iters + 1, state.res_sup, 0.0, state.margin,
                                      k_iters, k_relres))
            return state, iters, "line search stalled at minimum step"
        state = accepted
        iters += 1
        trace.append(NewtonRecord(t_label, iters, state.res_sup, step, state.margin,
                                  k_iters, k_relres))
    return state.release(), iters, None


def _continuity_solve(eq, harr, cfg, report):
    """Walk log sigma = q u + t H from u = 0 at t = 0 to t = 1, solving each
    t < 1 only to max(newton_tol, _PATH_TOL) and t = 1 to newton_tol.

    Records the path, the trace, the cone margin and any failure in
    ``report`` and returns the last accepted iterate.
    """
    u = np.zeros(eq.metric.grid.shape)
    loose = replace(cfg, newton_tol=max(cfg.newton_tol, _PATH_TOL))
    t_cur = 0.0
    targets = list(np.linspace(0.0, 1.0, cfg.t_steps + 1)[1:])
    halvings = 0
    while targets:
        t_next = targets[0]
        cfg_t = cfg if t_next == 1.0 else loose
        state, iters, failure = _newton(eq, u, t_next * harr, cfg_t, t_next, report.trace)
        if failure is None:
            u = state.u
            report.cone_margin_min = min(report.cone_margin_min, state.margin)
            t_cur = targets.pop(0)
            report.t_path.append((float(t_next), iters, state.res_sup))
        else:
            halvings += 1
            if halvings > _MAX_T_HALVINGS:
                report.failure = f"continuity stalled at t={t_next:.6f}: {failure}"
                return u
            targets.insert(0, 0.5 * (t_cur + t_next))
    return u


def _interpolate(u, grid):
    """Band-limited interpolation of the coarse field u onto ``grid``: along
    each axis, u's coefficients on the _axis_basis(M) rows cos k x and
    sin k x with k < M/2, read off the same rows of _axis_basis(N), scaled by
    sqrt(N/M) for the two normalizations; one (M, N) matrix applied by
    _axis_gemm.  The coarse Nyquist mode, which has no unique continuation,
    is dropped."""
    M, N = u.shape[0], grid.N
    k = np.arange(1, M // 2)
    coarse = _axis_basis(M)[0][np.r_[0, k, M // 2 + k]]
    fine = _axis_basis(N)[0][np.r_[0, k, N // 2 + k]]
    return _axis_gemm(u, math.sqrt(N / M) * (coarse.T @ fine), u.ndim).reshape(grid.shape)


def _companion_start(eq, harr, cfg, report):
    """Solve the same equation on the companion grid M = N/2 by _solve and
    return the band-limited interpolant of its solution, or None when M is
    odd or below 8 or the companion did not converge.

    The companion keeps the metric's constant base form; the data and a
    conformal field are restricted by injection (every other point along
    each axis).  The companion report goes to ``report.coarse``.
    """
    metric = eq.metric
    grid = metric.grid
    M = grid.N // 2
    if M % 2 or M < 8:
        return None
    coarse = TorusGrid(grid.n, M, memory_cap=grid.memory_cap)
    every_other = (slice(None, None, 2),) * (2 * grid.n)
    exp_phi = None if metric.exp_phi is None else metric.exp_phi[every_other]
    u, report.coarse = _solve(_Equation(MetricField(coarse, metric.base, exp_phi), eq.m, eq.q),
                              harr[every_other], cfg)
    return _interpolate(u, grid) if report.coarse.converged else None


def _solve(eq, harr, cfg, u0=None):
    """Solve log sigma = q u + H by Newton from u0 ("warm"), or, without u0,
    by Newton from the interpolated companion solution ("nested"), falling
    back to continuity from u = 0 when no companion runs or converges, or
    Newton from its interpolant fails ("continuity").

    The failed nested attempt's Newton records stay in the trace; t_path and
    the cone margin hold the path that ran.  When the companion and this
    solve converged, the report carries the two-grid Richardson estimate
    sup|u_N - I u_M| / ((N/M)^2 - 1) of the discretization error.
    Returns the final iterate and its timed SolveReport; nothing else builds one.
    Non-finite data raises InputError: a NaN residual would pass every
    ``res_sup > newton_tol`` test and report convergence.
    """
    if not np.all(np.isfinite(harr)):
        raise InputError("equation data must be finite")
    start = time.perf_counter()
    report = SolveReport(converged=False)
    nested = u0 is None
    if nested:
        u0 = _companion_start(eq, harr, cfg, report)
    if u0 is not None:
        state, iters, failure = _newton(eq, u0, harr, cfg, 1.0, report.trace)
    if u0 is None or (nested and failure is not None):
        u = _continuity_solve(eq, harr, cfg, report)
    else:
        u = state.u
        report.start = "nested" if nested else "warm"
        report.failure = failure
        report.t_path.append((1.0, iters, state.res_sup))
        report.cone_margin_min = state.margin
    report.converged = report.failure is None
    if report.converged and report.coarse is not None and report.coarse.converged:
        report.resolution_estimate = float(np.max(np.abs(u - u0))) / 3.0  # (N/M)^2 - 1
    report.sup_u = float(np.max(u))
    report.inf_u = float(np.min(u))
    report.wallclock = time.perf_counter() - start
    return u, report


def _walk_schedule(omega, m, schedule, q_of, harr_of, cfg, u0=None):
    """Solve log sigma_m(u) = q_of(eps) u + harr_of(eps) down a decreasing schedule.

    Yields (eps, u_eps, report): the first eps by Newton from ``u0``, or by
    _solve's cold start (nested or continuity) when ``u0`` is None, then
    each later eps by Newton from the
    last converged eps_prev.  A rejected start after the first eps is
    retried through sqrt(eps_prev eps), at most 3 len(schedule) times and
    only while that is below 0.99 eps_prev; closer than that the walk has
    hit the resolution wall (sigma below stencil noise) and more midpoints
    only burn iterations.  The walk ends after the first failed report.
    """
    schedule = check_schedule(schedule)
    pending = list(schedule)
    u, eps_prev = u0, None
    insertions = 0
    while pending:
        eps = pending[0]
        u_eps, report = _solve(_Equation(omega, m, q_of(eps)), harr_of(eps), cfg, u)
        if not report.converged and eps_prev is not None and insertions < 3 * len(schedule):
            mid = math.sqrt(eps_prev * eps)
            if mid < 0.99 * eps_prev:
                insertions += 1
                pending.insert(0, mid)
                continue
        yield eps, u_eps, report
        if not report.converged:
            return
        u, eps_prev = u_eps, pending.pop(0)


def solve_exponential(H, omega, m, cfg=None):
    """Solve log sigma_m(u) = u + H by _solve's cold start: Newton from the
    interpolated companion solution, or the continuity path t H, t: 0 -> 1.

    Returns the solution field and a SolveReport; on non-convergence the
    report carries the failure and the last iterate is returned.
    """
    cfg = cfg or SolverConfig()
    if H.grid != omega.grid:
        raise InputError("field and metric live on different grids")
    u, report = _solve(_Equation(omega, m, q=1.0), H.data, cfg)
    return ScalarField(omega.grid, u), report


def check_schedule(schedule):
    """Return the eps schedule as a list of floats, or raise InputError
    unless it is non-empty, finite, positive and strictly decreasing: the
    rule of every schedule walk, so that a caller can check a schedule
    before it starts one."""
    schedule = [float(e) for e in schedule]
    if not schedule or not all(0 < e < math.inf for e in schedule) or any(
        b >= a for a, b in zip(schedule, schedule[1:])
    ):
        raise InputError("eps schedule must be non-empty, finite, positive, strictly decreasing")
    return schedule


def check_density(data, name="f"):
    """Raise InputError unless the density values ``data`` are finite with
    min >= 1e-6 max > 0: the positivity rule of every normalized solve, so
    that a caller can check its densities before it starts one."""
    fmax = float(np.max(data))
    if not (np.all(np.isfinite(data)) and fmax > 0 and float(np.min(data)) >= 1e-6 * fmax):
        raise InputError(f"{name} must be strictly positive and finite (min >= 1e-6 max)")


def solve_normalized(f, omega, m, eps_schedule, cfg=None, v0=None):
    """Solve sigma_m(u) = c f by the vanishing zeroth-order family.

    The auxiliary equations log sigma_m(v) = eps v + log f are walked down
    the schedule by _walk_schedule, which inserts geometric midpoints where
    a start is rejected.  The first eps is solved cold (nested start or
    continuity), or by Newton from ``v0`` when one is given (such as a nearby density's raw
    v = u + log(c) / eps); a rejected ``v0`` gives a failed report, with
    no continuity rerun.  Each converged eps gives c := exp(eps sup v);
    the last gives c and u := v - sup v, so sup u = 0 holds exactly.  The
    report records every solved eps (midpoints included), the c estimates,
    their gaps and final_mismatch = sup |sigma_m(u) - c f|, which carries
    the O(eps) bias c f |exp(eps u) - 1| of the last eps.
    """
    cfg = cfg or SolverConfig()
    if f.grid != omega.grid:
        raise InputError("field and metric live on different grids")
    fdata = f.data
    check_density(fdata)

    start = time.perf_counter()
    logf = np.log(fdata)
    eps_path = []
    v = None
    for eps, v_eps, rep in _walk_schedule(
        omega, m, eps_schedule, lambda eps: eps, lambda eps: logf, cfg, v0
    ):
        eps_path.append((eps, rep))
        if rep.converged or v is None:  # a stalled first eps is handed back all the same
            v, kept = v_eps, rep
    c_estimates = [math.exp(eps * rep.sup_u) for eps, rep in eps_path if rep.converged]

    u = v - kept.sup_u  # kept.sup_u is max(v)
    c = c_estimates[-1] if c_estimates else math.nan
    gaps = [abs(b - a) for a, b in zip(c_estimates, c_estimates[1:])]

    table = sk_table_of_state(state_matrices(u, omega), omega, m)
    sigma = table[..., m] / math.comb(omega.grid.n, m)
    final_mismatch = float(np.max(np.abs(sigma - c * fdata))) if c_estimates else math.nan
    report = NormalizedReport(
        converged=all(rep.converged for _, rep in eps_path),
        eps_path=eps_path,
        c_estimates=c_estimates,
        c_gaps=gaps,
        final_mismatch=final_mismatch,
        inf_u=kept.inf_u - kept.sup_u,  # min(v - max v): rounding is monotone
        wallclock=time.perf_counter() - start,
    )
    return ScalarField(omega.grid, u), c, report
