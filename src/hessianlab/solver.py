"""Damped Newton with a continuity path for log sigma_m(u) = q u + H.

The exponential-type equation (q = 1) starts from the exact solution u = 0
at t = 0 and walks log sigma_m(u_t) = u_t + t H to t = 1, halving a t-step
whenever Newton fails on it.  The normalized equation sigma_m(u) = c f is
reached through the vanishing-zeroth-order family log sigma_m(v) = eps v +
log f with c extracted as exp(eps sup v).

Inner solves use restarted GMRES, right-preconditioned so the stopping rule
is on the true residual.  The default preconditioner is the pointwise
diagonal of the linearized operator; for q > 0 a constant-coefficient
spectral (FFT) preconditioner built from the grid-averaged stencil weights is
also available and is what the drivers pick under "auto", since on a flat
torus it is exact at the continuity start and stays strong along the path.
Residual tolerances passed to the inner solve follow the usual inexact-
Newton forcing rule (proportional to the outer residual, floored at
``krylov_tol``) so the quadratic tail is preserved.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConeBreachError, InputError, LinearSolveError
from .geometry import ScalarField
from .hessop import (
    LinearizationField,
    apply_linearization_array,
    linearization,
    sk_table_of_state,
    state_matrices,
)

__all__ = [
    "SolverConfig",
    "NewtonRecord",
    "SolveReport",
    "NormalizedReport",
    "KrylovInfo",
    "krylov_solve",
    "solve_exponential",
    "solve_normalized",
]


@dataclass
class SolverConfig:
    newton_tol: float = 1e-9  # sup-norm residual target
    max_newton: int = 50
    krylov_tol: float = 1e-10  # relative, true residual
    t_steps: int = 4  # initial continuity step count, halved adaptively
    damping_factor: float = 0.5
    min_step: float = 2.0**-20
    cone_guard: bool = True
    krylov_restart: int = 60
    krylov_precond: str = "auto"  # auto | diagonal | spectral
    max_t_halvings: int = 12

    def __post_init__(self):
        if self.newton_tol <= 0 or self.krylov_tol <= 0:
            raise InputError("tolerances must be positive")
        if self.max_newton < 1 or self.t_steps < 1:
            raise InputError("iteration counts must be >= 1")
        if not 0 < self.damping_factor < 1:
            raise InputError("damping factor must lie in (0, 1)")


@dataclass
class NewtonRecord:
    t: float
    iteration: int
    residual_sup: float
    step_scale: float
    cone_margin: float

    def to_json(self):
        return json.dumps(
            {
                "t": self.t,
                "iter": self.iteration,
                "residual_sup": self.residual_sup,
                "step_scale": self.step_scale,
                "cone_margin": self.cone_margin,
            },
            sort_keys=True,
        )


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

    def trace_jsonl(self):
        return "\n".join(rec.to_json() for rec in self.trace) + ("\n" if self.trace else "")


@dataclass
class NormalizedReport:
    converged: bool
    eps_path: list  # (eps, SolveReport)
    c_estimates: list
    c_gaps: list
    tol_c: float
    final_mismatch: float
    sup_u: float
    inf_u: float
    wallclock: float


@dataclass
class KrylovInfo:
    iterations: int
    relres: float


# --------------------------------------------------------------------------
# GMRES with right preconditioning.
# --------------------------------------------------------------------------


def gmres_raw(matvec, b, tol, restart, maxiter, psolve):
    """Restarted GMRES on flat arrays; returns (x, iterations, true relres).

    Right preconditioning keeps the monitored residual equal to the residual
    of the original system, which is what the caller's contract quotes.
    """
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0, 0.0
    total = 0
    relres = 1.0
    while True:
        r = b - matvec(x) if total else b.copy()
        relres = float(np.linalg.norm(r)) / bnorm
        if relres <= tol or total >= maxiter:
            return x, total, relres
        beta = relres * bnorm
        kmax = min(restart, maxiter - total)
        basis = np.empty((kmax + 1, b.size))
        basis[0] = r / beta
        hess = np.zeros((kmax + 1, kmax))
        cs = np.zeros(kmax)
        sn = np.zeros(kmax)
        g = np.zeros(kmax + 1)
        g[0] = beta
        k = 0
        for j in range(kmax):
            w = matvec(psolve(basis[j]))
            for i in range(j + 1):  # modified Gram-Schmidt
                hij = float(np.dot(basis[i], w))
                hess[i, j] = hij
                w -= hij * basis[i]
            hnext = float(np.linalg.norm(w))
            for i in range(j):
                tmp = cs[i] * hess[i, j] + sn[i] * hess[i + 1, j]
                hess[i + 1, j] = -sn[i] * hess[i, j] + cs[i] * hess[i + 1, j]
                hess[i, j] = tmp
            denom = math.hypot(hess[j, j], hnext)
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = hess[j, j] / denom, hnext / denom
            hess[j, j] = cs[j] * hess[j, j] + sn[j] * hnext
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total += 1
            k = j + 1
            if hnext == 0.0 or abs(g[k]) / bnorm <= 0.9 * tol or total >= maxiter:
                break
            basis[j + 1] = w / hnext
        y = scipy.linalg.solve_triangular(hess[:k, :k], g[:k], lower=False)
        x = x + psolve(np.tensordot(y, basis[:k], axes=(0, 0)))


def _diagonal_preconditioner(lin):
    # Each in-plane Laplacian puts -4 times its weight on the center and the
    # cross stencils put nothing there, so the operator diagonal is
    # -4 sum_j w_jj - q (that is -tr(A)/h^2 - q).
    diag = -4.0 * np.trace(lin.weights) - lin.q
    flat = diag.reshape(-1)

    def psolve(v):
        return v / flat

    return psolve


def _spectral_symbol(grid, wmean, q):
    """Fourier symbol of the operator with the grid-averaged weights wmean.

    On exp(i k.x) an undivided second difference along axis a acts as
    c_a = 2 cos(k_a h) - 2 and a 4-point cross stencil on (a, b) as
    -e_a e_b with e_a = 2 sin(k_a h).
    """
    dims = 2 * grid.n
    N, h = grid.N, grid.h

    def axis_freq(a):
        if a == dims - 1:
            k = np.arange(N // 2 + 1, dtype=float)
        else:
            k = np.fft.fftfreq(N, 1.0 / N)
        shape = [1] * dims
        shape[a] = k.size
        return k.reshape(shape)

    c = [2.0 * np.cos(axis_freq(a) * h) - 2.0 for a in range(dims)]
    e = [2.0 * np.sin(axis_freq(a) * h) for a in range(dims)]
    sym = -q
    for j in range(grid.n):
        xj, yj = 2 * j, 2 * j + 1
        sym = sym + wmean[j, j] * (c[xj] + c[yj])
        for k in range(j + 1, grid.n):
            xk, yk = 2 * k, 2 * k + 1
            sym = sym - wmean[k, j] * (e[xj] * e[xk] + e[yj] * e[yk])
            sym = sym - wmean[j, k] * (e[yj] * e[xk] - e[xj] * e[yk])
    sym[sym == 0.0] = -1.0  # leave an exactly-null mode untouched
    return sym


def _spectral_preconditioner(lin):
    grid = lin.grid
    mean = lin.weights.reshape(grid.n, grid.n, -1).mean(axis=-1)
    sym = _spectral_symbol(grid, mean, lin.q)
    shape = grid.shape
    axes = tuple(range(2 * grid.n))

    def psolve(v):
        spec = np.fft.rfftn(v.reshape(shape), axes=axes)
        out = np.fft.irfftn(spec / sym, s=shape, axes=axes)
        return out.reshape(-1)

    return psolve


def _make_preconditioner(lin, kind):
    if kind == "auto":
        # The spectral surrogate is built from grid-averaged weights, so it
        # is only trustworthy while the coefficients are comparable across
        # the grid; penalized envelopes near the contact set spread them over
        # many orders of magnitude, where pointwise diagonal scaling wins.
        if lin.q <= 0:
            kind = "diagonal"
        else:
            tr = np.trace(lin.weights)  # tr(A) / (4 h^2) per point
            lo, hi = float(np.min(tr)), float(np.max(tr))
            kind = "spectral" if lo > 0 and hi <= 1e3 * lo else "diagonal"
    if kind == "diagonal":
        return _diagonal_preconditioner(lin)
    if kind == "spectral":
        return _spectral_preconditioner(lin)
    raise InputError(f"unknown preconditioner {kind!r}")


def krylov_solve(lin, rhs, tol, restart=60, maxiter=None, precond="diagonal"):
    """Solve the linearized equation matrix-free to a true relative residual.

    Raises LinearSolveError (with the best iterate attached) when the
    iteration cap 10 N^n is exceeded; the Newton driver treats that as a
    failed step and falls back to damping.
    """
    grid = lin.grid
    if rhs.grid != grid:
        raise InputError("rhs and linearization live on different grids")
    if maxiter is None:
        maxiter = 10 * grid.N**grid.n
    psolve = _make_preconditioner(lin, precond)

    def matvec(v):
        return apply_linearization_array(lin, v.reshape(grid.shape)).reshape(-1)

    x, iters, relres = gmres_raw(
        matvec, rhs.data.reshape(-1).copy(), tol, restart, maxiter, psolve
    )
    out = ScalarField(grid, x.reshape(grid.shape))
    if relres > tol:
        raise LinearSolveError(
            f"GMRES hit the {maxiter}-iteration cap at relres {relres:.3e}",
            best=out,
            relres=relres,
            iterations=iters,
        )
    return out, KrylovInfo(iterations=iters, relres=relres)


# --------------------------------------------------------------------------
# Newton core.
# --------------------------------------------------------------------------


class _State:
    __slots__ = ("u", "g", "table", "sigma", "residual", "res_sup",
                 "in_cone", "sigma_positive", "margin")

    def __init__(self, u, g, table, norm, m, q, harr, binom_m):
        self.u = u
        self.g = g
        self.table = table
        self.margin = float(np.min(table[..., 1 : m + 1] / norm))
        self.in_cone = self.margin > 0.0
        sigma = table[..., m] / binom_m
        self.sigma = sigma
        self.sigma_positive = bool(np.all(sigma > 0.0))
        if self.sigma_positive:
            self.residual = np.log(sigma) - q * u - harr
            self.res_sup = float(np.max(np.abs(self.residual)))
        else:
            self.residual = None
            self.res_sup = math.inf


class _Equation:
    """log sigma_m(u) = q u + H on a fixed grid and metric."""

    def __init__(self, metric, m, q):
        self.metric = metric
        self.m = m
        self.q = q
        n = metric.grid.n
        self.norm = np.array([math.comb(n, k) for k in range(1, m + 1)], dtype=float)
        self.binom_m = float(math.comb(n, m))

    def evaluate(self, u, harr):
        g = state_matrices(u, self.metric)
        table = sk_table_of_state(g, self.metric, self.m)
        return _State(u, g, table, self.norm, self.m, self.q, harr, self.binom_m)


def _newton(eq, u0, harr, cfg, t_label, trace):
    """Damped Newton at fixed data; returns (state, iters, ok, failure).

    ``failure`` is None exactly when ``ok``.
    """
    state = eq.evaluate(u0, harr)
    grid = eq.metric.grid
    if not (state.in_cone if cfg.cone_guard else state.sigma_positive):
        return state, 0, False, "initial iterate outside the cone"
    trace.append(NewtonRecord(t_label, 0, state.res_sup, 0.0, state.margin))
    iters = 0
    while state.res_sup > cfg.newton_tol:
        if iters >= cfg.max_newton:
            return state, iters, False, "Newton iteration cap"
        try:
            lin = linearization(
                ScalarField(grid, state.u), eq.metric, eq.m, eq.q, g=state.g
            )
        except ConeBreachError as exc:
            return state, iters, False, f"cone breach in linearization: {exc}"
        tol_k = max(cfg.krylov_tol, min(3e-2, 0.3 * state.res_sup))
        rhs = ScalarField(grid, -state.residual)
        try:
            delta, _ = krylov_solve(
                lin,
                rhs,
                tol_k,
                restart=cfg.krylov_restart,
                precond=cfg.krylov_precond,
            )
        except LinearSolveError as exc:
            if exc.best is None:
                return state, iters, False, "linear solve failed"
            delta = exc.best
        step = 1.0
        accepted = None
        while step >= cfg.min_step:
            cand = eq.evaluate(state.u + step * delta.data, harr)
            admissible = cand.in_cone if cfg.cone_guard else cand.sigma_positive
            if admissible and cand.res_sup <= (1.0 - 1e-4 * step) * state.res_sup:
                accepted = cand
                break
            step *= cfg.damping_factor
        if accepted is None:
            return state, iters, False, "line search stalled at minimum step"
        state = accepted
        iters += 1
        trace.append(NewtonRecord(t_label, iters, state.res_sup, step, state.margin))
    return state, iters, True, None


def _continuity_solve(eq, harr, cfg, report):
    """Walk log sigma = q u + t H from u = 0 at t = 0 to t = 1.

    Records the path, the trace, the cone margin and any failure in
    ``report`` and returns the last accepted iterate.
    """
    u = np.zeros(eq.metric.grid.shape)
    t_cur = 0.0
    targets = list(np.linspace(0.0, 1.0, cfg.t_steps + 1)[1:])
    halvings = 0
    while targets:
        t_next = targets[0]
        state, iters, ok, failure = _newton(eq, u, t_next * harr, cfg, t_next, report.trace)
        if ok:
            u = state.u
            report.cone_margin_min = min(report.cone_margin_min, state.margin)
            t_cur = targets.pop(0)
            report.t_path.append((float(t_next), iters, state.res_sup))
        else:
            halvings += 1
            if halvings > cfg.max_t_halvings:
                report.failure = f"continuity stalled at t={t_next:.6f}: {failure}"
                return u
            targets.insert(0, 0.5 * (t_cur + t_next))
    return u


def _solve(eq, harr, cfg, u0=None):
    """Solve log sigma = q u + H by continuity from u = 0, or by Newton from u0.

    Returns the final iterate and its timed SolveReport; nothing else builds one.
    """
    start = time.perf_counter()
    report = SolveReport(converged=False)
    if u0 is None:
        u = _continuity_solve(eq, harr, cfg, report)
    else:
        state, iters, _, report.failure = _newton(eq, u0, harr, cfg, 1.0, report.trace)
        u = state.u
        report.t_path.append((1.0, iters, state.res_sup))
        report.cone_margin_min = state.margin
    report.converged = report.failure is None
    report.sup_u = float(np.max(u))
    report.inf_u = float(np.min(u))
    report.wallclock = time.perf_counter() - start
    return u, report


def _walk_schedule(omega, m, schedule, q_of, harr_of, cfg):
    """Solve log sigma_m(u) = q_of(eps) u + harr_of(eps) down a decreasing schedule.

    Yields (eps, u_eps, report): continuity at the first eps, then Newton
    warm-started from the last converged eps_prev.  A rejected warm start is
    retried through sqrt(eps_prev eps), at most 3 len(schedule) times and only
    while that is below 0.99 eps_prev; closer than that the walk has hit the
    resolution wall (sigma below stencil noise) and more midpoints only burn
    iterations.  The walk ends after the first failed report.
    """
    schedule = [float(e) for e in schedule]
    if not schedule or any(e <= 0 for e in schedule) or any(
        b >= a for a, b in zip(schedule, schedule[1:])
    ):
        raise InputError("eps schedule must be non-empty, positive, strictly decreasing")
    pending = list(schedule)
    u = eps_prev = None
    insertions = 0
    while pending:
        eps = pending[0]
        u_eps, report = _solve(_Equation(omega, m, q_of(eps)), harr_of(eps), cfg, u)
        if not report.converged and u is not None and insertions < 3 * len(schedule):
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
    """Solve log sigma_m(u) = u + H along the continuity path t H, t: 0 -> 1.

    Returns the solution field and a SolveReport; on unrecoverable cone
    breach or non-convergence the report carries the failure and the last
    iterate is returned.
    """
    cfg = cfg or SolverConfig()
    if H.grid != omega.grid:
        raise InputError("field and metric live on different grids")
    if not np.all(np.isfinite(H.data)):
        raise InputError("H must be finite")
    u, report = _solve(_Equation(omega, m, q=1.0), H.data, cfg)
    return ScalarField(omega.grid, u), report


def solve_normalized(f, omega, m, eps_schedule, cfg=None):
    """Solve sigma_m(u) = c f by the vanishing zeroth-order family.

    The auxiliary equations log sigma_m(v) = eps v + log f are walked down
    the schedule by _walk_schedule, which inserts geometric midpoints where
    a warm start is rejected.  Each converged eps gives c := exp(eps sup v);
    the last gives c and u := v - sup v, so sup u = 0 holds exactly.  The
    report records every solved eps (midpoints included), the c estimates,
    their gaps, and the tolerance for sup |sigma_m(u) - c f| extrapolated
    from the drift over the last two converged eps.
    """
    cfg = cfg or SolverConfig()
    if f.grid != omega.grid:
        raise InputError("field and metric live on different grids")
    fdata = f.data
    fmax = float(np.max(fdata))
    fmin = float(np.min(fdata))
    if fmax <= 0 or fmin < 1e-6 * fmax:
        raise InputError("f must be strictly positive (min f >= 1e-6 max f)")

    start = time.perf_counter()
    logf = np.log(fdata)
    eps_path = []
    c_estimates = []
    v = None
    for eps, v_eps, rep in _walk_schedule(
        omega, m, eps_schedule, lambda eps: eps, lambda eps: logf, cfg
    ):
        eps_path.append((eps, rep))
        if rep.converged:
            v = v_eps
            c_estimates.append(float(math.exp(eps * np.max(v))))
        elif v is None:
            v = v_eps  # best effort: hand back the stalled iterate

    u = v - np.max(v)
    c = c_estimates[-1] if c_estimates else math.nan
    gaps = [abs(b - a) for a, b in zip(c_estimates, c_estimates[1:])]

    table = sk_table_of_state(state_matrices(u, omega), omega, m)
    sigma = table[..., m] / math.comb(omega.grid.n, m)
    final_mismatch = float(np.max(np.abs(sigma - c * fdata))) if c_estimates else math.nan
    tol_c = 100.0 * cfg.newton_tol * fmax
    k = len(c_estimates)  # the converged eps lead eps_path
    if k >= 2:
        ratio = eps_path[k - 1][0] / eps_path[k - 2][0]
        drift = gaps[-1]
        # geometric extrapolation of the remaining c-error, scaled to sigma units
        tol_c += fmax * (10.0 * drift * ratio / (1.0 - ratio) + 10.0 * drift)
    report = NormalizedReport(
        converged=all(rep.converged for _, rep in eps_path),
        eps_path=eps_path,
        c_estimates=c_estimates,
        c_gaps=gaps,
        tol_c=tol_c,
        final_mismatch=final_mismatch,
        sup_u=float(np.max(u)),
        inf_u=float(np.min(u)),
        wallclock=time.perf_counter() - start,
    )
    return ScalarField(omega.grid, u), c, report
