"""Newton/continuity solver: trivial cases, manufactured solutions, contracts."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import hessianlab
from hessianlab import solver
from hessianlab.cli import main
from hessianlab.errors import InputError
from hessianlab.experiments import manufactured_problem, mms_study
from hessianlab.geometry import MetricField, ScalarField, TorusGrid, make_field
from hessianlab.hessop import (
    LinearizationField,
    apply_linearization_array,
    sigma_m,
)
from hessianlab.solver import (
    SolveReport,
    SolverConfig,
    _spectral_preconditioner,
    krylov_solve,
    solve_exponential,
    solve_normalized,
)
from hessianlab.symfunc import cone_mask, elementary_symmetric_table
from oracles import fft_interpolate, linearize


def flat(n=2, N=8):
    grid = TorusGrid(n, N)
    return grid, MetricField.flat(grid)


FAST = SolverConfig(t_steps=1)


def conformal_linearization(n, N):
    """An m = 2, q = 0.7 linearization at u != 0 relative to a conformal
    metric: weights with cross terms and a varying scale s."""
    grid = TorusGrid(n, N)
    x1 = (1,) + (0,) * (2 * n - 1)
    omega = MetricField.conformal(grid, np.eye(n), [(x1, 0.3, 0.0)])
    y1_x2 = (0, 1, 1) + (0,) * (2 * n - 3)
    return linearize(make_field(grid, [(x1, 0.1, 0.0), (y1_x2, 0.0, 0.05)]), omega, 2, 0.7)


def explicit_low_modes(grid):
    """The modes |k|^2 <= 3 of the per-axis rows 1/sqrt(N), sqrt(2/N) cos x
    and sqrt(2/N) sin x, as (modes, 2n) picks 0, 1, 2 in lexicographic order,
    and a generator of (points, Q): their basis fields, one a column, built
    from coordinates on consecutive blocks of N^(2n-2) flat grid points (the
    whole Q is 0.5 GB at n = 3, N = 8)."""
    n2, N = 2 * grid.n, grid.N
    picks = np.array([p for p in itertools.product(range(3), repeat=n2)
                      if np.count_nonzero(p) <= 3])
    x = grid.h * np.arange(N)
    rows = np.stack([np.full(N, N**-0.5), np.sqrt(2 / N) * np.cos(x), np.sqrt(2 / N) * np.sin(x)])
    index = np.indices(grid.shape).reshape(n2, -1)

    def blocks():
        for points in np.split(np.arange(grid.points), N * N):
            q = np.ones((points.size, len(picks)))
            for a in range(n2):
                q *= rows[picks[:, a]][:, index[a, points]].T
            yield points, q

    return picks, blocks


class TestKrylovSolve:
    def test_zero_rhs(self):
        grid, omega = flat()
        lin = linearize(ScalarField.zeros(grid), omega, 1, 1.0)
        v, iters, relres = krylov_solve(lin, np.zeros(grid.shape), 1e-10)
        assert v.shape == grid.shape and np.all(v == 0.0)
        assert (iters, relres) == (0, 0.0)

    def test_fourier_symbol_oracle(self):
        # constant-coefficient m=1 operator: L cos(x1) = sym * cos(x1)
        grid, omega = flat(2, 16)
        lin = linearize(ScalarField.zeros(grid), omega, 1, 1.0)
        rhs = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0)]).data
        v, _, _ = krylov_solve(lin, rhs, 1e-10)
        ch = (2 - 2 * np.cos(grid.h)) / grid.h**2
        sym_disc = -(ch / (4 * grid.n)) - 1.0
        assert np.max(np.abs(v - rhs / sym_disc)) < 1e-9
        sym_cont = -(1 / (4 * grid.n)) - 1.0
        assert np.max(np.abs(v - rhs / sym_cont)) < 0.1 * grid.h**2

    def test_residual_contract_matches_recomputation(self):
        grid, omega = flat()
        u = make_field(grid, [((1, 0, 0, 0), 0.4, 0.0)])
        lin = linearize(u, omega, 2, 1.0)
        rhs = make_field(grid, [((0, 1, 0, 0), 0.0, 1.0), ((1, 0, 1, 0), 0.5, 0.0)]).data
        v, _, relres = krylov_solve(lin, rhs, 1e-10)
        res = apply_linearization_array(lin, v) - rhs
        recomputed = float(np.linalg.norm(res) / np.linalg.norm(rhs))
        assert recomputed <= 1e-10
        assert abs(recomputed - relres) < 1e-12

    def test_returns_gmres_raw_triple(self, monkeypatch):
        # the very triple gmres_raw returns, x reshaped to the grid
        grid, omega = flat()
        u = make_field(grid, [((1, 0, 0, 0), 0.4, 0.0)])
        lin = linearize(u, omega, 2, 1.0)
        rhs = make_field(grid, [((0, 1, 0, 0), 0.0, 1.0), ((1, 0, 1, 0), 0.5, 0.0)]).data
        gmres_raw, raw = solver.gmres_raw, []

        def recorded(*args, **kwargs):
            raw.append(gmres_raw(*args, **kwargs))
            return raw[-1]

        monkeypatch.setattr(solver, "gmres_raw", recorded)
        v, iters, relres = krylov_solve(lin, rhs, 1e-6)
        (x, raw_iters, raw_relres), = raw
        assert np.array_equal(v, x.reshape(grid.shape))
        assert (iters, relres) == (raw_iters, raw_relres)
        assert type(iters) is int and type(relres) is float

    def test_grid_mismatch(self):
        # another grid's shape, another rank, or the flat vector gmres_raw sees
        grid, omega = flat()
        lin = linearize(ScalarField.zeros(grid), omega, 1, 1.0)
        for shape in (TorusGrid(2, 16).shape, (8, 8, 8), (grid.points,)):
            with pytest.raises(InputError, match="shape"):
                krylov_solve(lin, np.zeros(shape), 1e-10)

    def test_rhs_is_not_written(self):
        # gmres_raw gets a view of rhs, not a copy
        grid, omega = flat()
        u = make_field(grid, [((1, 0, 0, 0), 0.4, 0.0)])
        lin = linearize(u, omega, 2, 1.0)
        rhs = make_field(grid, [((0, 1, 0, 0), 0.0, 1.0), ((1, 0, 1, 0), 0.5, 0.0)]).data
        before = rhs.copy()
        _, iters, _ = krylov_solve(lin, rhs, 1e-10)
        assert iters > 0
        assert np.array_equal(rhs, before)

    def test_cap_returns_best_iterate(self):
        # a zero tolerance is never met, so GMRES stops at the _KRYLOV_MAX cap
        # and hands back its iterate and true residual instead of raising
        grid, omega = flat()
        lin = linearize(ScalarField.zeros(grid), omega, 1, 1.0)
        rhs = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0), ((0, 1, 1, 0), 0.0, 0.5)]).data
        v, iters, relres = krylov_solve(lin, rhs, 0.0)
        assert iters == solver._KRYLOV_MAX
        res = apply_linearization_array(lin, v) - rhs
        recomputed = float(np.linalg.norm(res) / np.linalg.norm(rhs))
        assert 0.0 < relres < 1e-10
        assert abs(recomputed - relres) < 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_diagonal_preconditioner_is_operator_diagonal(self, n):
        # L e_p at p, probed with unit impulses, is -4 tr(w) - q, the diagonal
        # whose magnitude the spectral preconditioner's scale s is built from
        grid = TorusGrid(n, 8)
        x1 = (1,) + (0,) * (2 * n - 1)
        omega = MetricField.conformal(grid, np.eye(n), [(x1, 0.3, 0.0)])
        y1_x2 = (0, 1, 1) + (0,) * (2 * n - 3)
        u = make_field(grid, [(x1, 0.3, 0.0), (y1_x2, 0.0, 0.2)])
        lin = linearize(u, omega, 2, 0.7)
        diag = -4.0 * np.trace(lin.weights) - lin.q
        for point in [(0,) * (2 * n), (7,) * (2 * n), (3, 5, 0, 7, 1, 2)[: 2 * n]]:
            impulse = np.zeros(grid.shape)
            impulse[point] = 1.0
            got = apply_linearization_array(lin, impulse)[point]
            assert got == pytest.approx(diag[point], rel=1e-13), point

    @pytest.mark.parametrize("n, N", [(2, 8), (3, 8), (2, 10)], ids=["2", "3", "2-10"])
    def test_scaled_spectral_exact_on_scaled_constant_weights(self, n, N):
        # weights s(x) times constant diagonal weights, q = 0: P = s C is the
        # operator itself; N = 10 is no power of two, so a basis fault cannot
        # hide behind symmetry.  Measured relative error: at most 7.5e-14
        grid = TorusGrid(n, N)
        constant = MetricField(grid, np.diag(np.arange(2.0, n + 2)).astype(complex))
        wbar = linearize(ScalarField.zeros(grid), constant, 2, 0.0).weights
        x1 = (1,) + (0,) * (2 * n - 1)
        y1_x2 = (0, 1, 1) + (0,) * (2 * n - 3)
        s = make_field(grid, [(x1, 1.2, 0.0), (y1_x2, 0.0, 0.6)]).data
        lin = LinearizationField(grid=grid, weights=np.exp(s) * wbar, q=0.0)
        psolve = _spectral_preconditioner(lin)
        v = np.random.default_rng(n).standard_normal(grid.shape)
        v -= v.mean()
        got = psolve(apply_linearization_array(lin, v).reshape(-1)).reshape(grid.shape)
        assert np.linalg.norm(got - v) <= 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize("n", [2, 3])
    def test_spectral_iteration_ceiling_on_skewed_metric(self, n):
        # a constant metric with an off-diagonal entry: P leaves out the mean
        # cross weights (at most 0.14 of the diagonal here), which costs a few
        # Krylov iterations.  Measured: 7 (n = 2) and 6 (n = 3); a spectral
        # solve that kept the cross weights took 4
        grid = TorusGrid(n, 8)
        form = np.eye(n, dtype=complex) * np.arange(2, n + 2)
        form[0, 1], form[1, 0] = 0.4 + 0.3j, 0.4 - 0.3j
        x1 = (1,) + (0,) * (2 * n - 1)
        y1_x2 = (0, 1, 1) + (0,) * (2 * n - 3)
        u = make_field(grid, [(x1, 0.1, 0.0), (y1_x2, 0.0, 0.05)])
        lin = linearize(u, MetricField(grid, form), 2, 1.0)
        rhs = np.random.default_rng(0).standard_normal(grid.shape)
        _, iters, relres = krylov_solve(lin, rhs, 1e-10)
        assert relres <= 1e-10
        assert iters <= 10

    @pytest.mark.parametrize("n, N", [(2, 8), (2, 10), (3, 8)])
    def test_low_mode_block_matches_explicit_galerkin(self, n, N):
        # G = Q^T diag(q / s) Q from basis fields built from coordinates, on
        # the |k|^2 <= 3 modes in lexicographic order.  Measured relative
        # gap: at most 2.3e-15
        lin = conformal_linearization(n, N)
        inv_s = 4.0 * np.trace(lin.weights) + lin.q
        inv_s = np.mean(inv_s) / inv_s
        picks, blocks = explicit_low_modes(lin.grid)
        assert len(picks) == {2: 65, 3: 233}[n]
        got_picks, _ = solver._low_modes(n, N)
        assert np.array_equal(got_picks, picks)
        weight = lin.q * inv_s.reshape(-1)
        want = sum(q.T @ (weight[rows, None] * q) for rows, q in blocks())
        basis, _ = solver._axis_basis(N)
        got = lin.q * solver._galerkin(inv_s, got_picks, basis)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n, N", [(2, 8), (2, 10), (3, 8)])
    def test_gemm_psolve_matches_pocketfft(self, n, N):
        # the per-axis real GEMMs against numpy's FFT with the same 1/s and the
        # diagonal symbol -q' + sum_a wdiag_(a//2) (2 cos(k_a h) - 2), built
        # here on rfftn's half spectrum, with the low modes then solved by the
        # dense block E = diag(sum_a wdiag_(a//2) (2 cos(k_a h) - 2)) - G on
        # basis fields built from coordinates; the weights have cross terms,
        # which P leaves out.  wdiag is summed by the same dot, since a
        # pairwise mean differs in the 14th digit at 24^4.  Measured relative
        # gap: at most 7.1e-16; the block moves psolve by 0.8-3.7%
        lin = conformal_linearization(n, N)
        grid = lin.grid
        assert lin.pairs
        inv_s = 4.0 * np.trace(lin.weights) + lin.q
        inv_s = np.mean(inv_s) / inv_s
        sym = -lin.q * np.mean(inv_s)
        wdiag = [np.dot(lin.weights[a // 2, a // 2].reshape(-1), inv_s.reshape(-1)) / inv_s.size
                 for a in range(2 * n)]
        for a in range(2 * n):
            k = np.fft.rfftfreq(N, 1 / N) if a == 2 * n - 1 else np.fft.fftfreq(N, 1 / N)
            shape = [1] * (2 * n)
            shape[a] = k.size
            sym = sym + wdiag[a] * (2.0 * np.cos(k * grid.h) - 2.0).reshape(shape)
        v = np.random.default_rng(N).standard_normal(grid.shape)
        axes = range(2 * n)
        want = np.fft.irfftn(np.fft.rfftn(v * inv_s, axes=axes) / sym, s=grid.shape, axes=axes)
        # on the low modes, replace c / sym by E^{-1} c
        picks, blocks = explicit_low_modes(grid)
        lap = (picks != 0) @ (np.array(wdiag) * (2.0 * np.cos(grid.h) - 2.0))
        weight, scaled = lin.q * inv_s.reshape(-1), (v * inv_s).reshape(-1)
        block, coef = np.diag(lap), np.zeros(len(picks))
        for rows, q in blocks():
            block -= q.T @ (weight[rows, None] * q)
            coef += scaled[rows] @ q
        fix = np.linalg.solve(block, coef) - coef / (lap - lin.q * np.mean(inv_s))
        want = want.reshape(-1)
        for rows, q in blocks():
            want[rows] += q @ fix
        got = _spectral_preconditioner(lin)(v.reshape(-1))
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("n, N", [(2, 24), (3, 8)])
    def test_psolve_holds_two_grid_arrays(self, n, N):
        # tracemalloc peak of one apply after a warm-up: the transforms free
        # each array once its product is made.  Measured: 2.0 grid arrays;
        # 3.0 when the coefficients outlive the inverse transform's first GEMM
        lin = conformal_linearization(n, N)
        psolve = _spectral_preconditioner(lin)
        v = np.random.default_rng(n).standard_normal(lin.grid.points)
        psolve(v)
        tracemalloc.start()
        try:
            psolve(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / v.nbytes <= 2.25

    def test_spectral_iteration_ceiling_on_conformal_metric(self):
        # conformal-n2's metric: q / s varies by about e^3.6, which the dense
        # low-mode block keeps whole.  Measured: 13 iterations (18 with the
        # diagonal symbol alone), plus a margin of 2 for summation order
        grid = TorusGrid(2, 8)
        metric_terms = [((1, 0, 0, 0), 1.2, 0.0), ((0, 0, 1, 1), 0.0, 0.6)]
        omega = MetricField.conformal(grid, np.eye(2), metric_terms)
        u = make_field(grid, [((1, 0, 0, 0), 0.1, 0.0), ((0, 1, 1, 0), 0.0, 0.05)])
        lin = linearize(u, omega, 2, 1.0)
        rhs = np.random.default_rng(0).standard_normal(grid.shape)
        _, iters, _ = krylov_solve(lin, rhs, 1e-10)
        assert iters <= 13 + 2


class TestGmresRaw:
    def test_matches_dense_solve(self):
        # a 40 x 40 nonsymmetric system, Jacobi-preconditioned (measured 21
        # iterations)
        size = 40
        rng = np.random.default_rng(1)
        a = np.eye(size) + 0.3 * rng.standard_normal((size, size)) / np.sqrt(size)
        b = rng.standard_normal(size)
        diag = np.diag(a)
        x, iters, relres = solver.gmres_raw(lambda v: a @ v, b, 1e-12, lambda v: v / diag)
        want = np.linalg.solve(a, b)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
        true_relres = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
        assert relres <= 1e-12
        assert relres == pytest.approx(true_relres, rel=0.0, abs=1e-14)
        assert iters < solver._KRYLOV_MAX

    def test_stagnation_stops_at_cap(self, monkeypatch):
        # the cyclic shift maps e_0 to e_1, ..., so the first k < size Krylov
        # vectors cannot reduce the residual at all: one cycle of _KRYLOV_MAX
        # iterations, then the iterate and its true residual, with no restart
        monkeypatch.setattr(solver, "_KRYLOV_MAX", 5)
        size = 8
        shift = np.roll(np.eye(size), 1, axis=0)
        b = np.zeros(size)
        b[0] = 1.0
        x, iters, relres = solver.gmres_raw(lambda v: shift @ v, b, 1e-12, lambda v: v)
        assert iters == 5
        assert np.all(np.isfinite(x))
        assert relres == np.linalg.norm(b - shift @ x) / np.linalg.norm(b)
        assert relres > 0.5

    def test_lucky_breakdown_exits_after_one_iteration(self):
        # the identity maps e_0 into the span of the first basis vector, so
        # the Hessenberg subdiagonal is exactly 0 after one step
        b = np.zeros(8)
        b[0] = 3.0
        x, iters, relres = solver.gmres_raw(lambda v: v.copy(), b, 1e-12, lambda v: v)
        assert iters == 1
        assert relres == 0.0
        assert np.array_equal(x, b)

    def test_breakdown_at_zero_tol_stays_finite(self):
        # here the least-squares residual of the breakdown step is not exactly
        # 0, so at tol 0 only the zero subdiagonal keeps w / 0 out of the basis;
        # the one cycle leaves x and its true residual within one ulp of
        # b / 3 and 0 (measured: x[0] one ulp off, relres 1.27e-16)
        b = np.zeros(8)
        b[0] = 7.0
        x, iters, relres = solver.gmres_raw(lambda v: 3.0 * v, b, 0.0, lambda v: v)
        ulp = np.finfo(float).eps
        assert relres <= ulp
        assert iters == 1
        assert np.all(np.isfinite(x))
        assert np.all(np.abs(x - b / 3.0) <= ulp * np.abs(b / 3.0))


class TestSolveExponential:
    def test_zero_data(self):
        grid, omega = flat()
        u, rep = solve_exponential(ScalarField.zeros(grid), omega, 1)
        assert rep.converged
        assert np.max(np.abs(u.data)) == 0.0
        # exact start: zero Newton iterations at every t-step
        assert all(iters == 0 for _, iters, _ in rep.t_path)

    def test_constant_data(self):
        grid, omega = flat()
        H = ScalarField(grid, 0.7 * np.ones(grid.shape))
        u, rep = solve_exponential(H, omega, 1, FAST)
        assert rep.converged
        assert np.max(np.abs(u.data + 0.7)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2])
    def test_manufactured_solution(self, m):
        grid, omega = flat(2, 16)
        ustar, H, _ = manufactured_problem(grid, m, 0.25)
        cfg = SolverConfig(t_steps=1)
        u, rep = solve_exponential(H, omega, m, cfg)
        assert rep.converged
        assert rep.t_path[-1][2] <= cfg.newton_tol
        err = np.max(np.abs(u.data - ustar.data))
        assert err <= max(10 * cfg.newton_tol, 2.0 * grid.h**2)
        # strict cone along the path
        assert rep.cone_margin_min > 0
        # no t-step was halved, so every accepted step is on the path
        assert rep.newton_steps == sum(rec.iter >= 1 for rec in rep.trace) > 0

    def test_maximum_principle(self):
        grid, omega = flat(2, 16)
        H = make_field(grid, [((1, 0, 0, 0), 0.6, 0.0), ((0, 0, 1, 0), 0.0, 0.4)])
        u, rep = solve_exponential(H, omega, 2, FAST)
        assert rep.converged
        assert u.sup() <= -H.inf() + 10 * FAST.newton_tol
        assert u.inf() >= -H.sup() - 10 * FAST.newton_tol

    def test_monotone_comparison(self):
        # H1 <= H2 pointwise implies u1 >= u2 (within solver tolerance)
        grid, omega = flat(2, 16)
        H1 = make_field(grid, [((1, 0, 0, 0), 0.5, 0.0)])
        bump = 0.3 * (1.0 + np.sin(grid.axis_coordinate(1)) * np.ones(grid.shape))
        H2 = ScalarField(grid, H1.data + bump)
        u1, r1 = solve_exponential(H1, omega, 1, FAST)
        u2, r2 = solve_exponential(H2, omega, 1, FAST)
        assert r1.converged and r2.converged
        assert np.min(u1.data - u2.data) >= -10 * FAST.newton_tol

    def test_quadratic_tail(self):
        grid, omega = flat(2, 8)
        _, H, _ = manufactured_problem(grid, 2, 0.8)
        cfg = SolverConfig(t_steps=1, newton_tol=1e-13)
        u, rep = solve_exponential(H, omega, 2, cfg)
        assert rep.converged
        res = [r.residual_sup for r in rep.trace]
        # the last three consecutive residuals above the floating-point noise
        # floor that end in the tail, below 1e-3; observed order at least 1.5.
        # Measured: 0.193, 2.9e-3, 7.1e-7 (order 1.98), before 7.7e-14
        trios = [
            (res[i], res[i + 1], res[i + 2])
            for i in range(len(res) - 2)
            if res[i + 2] <= 1e-3 and min(res[i:i + 3]) >= 1e-13
        ]
        assert trios
        r1, r2, r3 = trios[-1]
        order = math.log(r3 / r2) / math.log(r2 / r1)
        assert order >= 1.5

    def test_forcing_floor(self, monkeypatch):
        # GMRES is never asked for more than a step to below newton_tol needs:
        # here the last step gets 1.9e-4, where 0.3 res_sup alone would be 7.8e-7
        grid, omega = flat(2, 8)
        _, H, _ = manufactured_problem(grid, 2, 0.8)
        calls = []

        def recorded(lin, rhs, tol):
            calls.append((tol, float(np.max(np.abs(rhs)))))
            return krylov_solve(lin, rhs, tol)

        monkeypatch.setattr(solver, "krylov_solve", recorded)
        _, rep = solve_exponential(H, omega, 2, FAST)
        assert rep.converged
        res_sup = [prev.residual_sup for prev, rec in zip(rep.trace, rep.trace[1:])
                   if rec.iter >= 1]
        assert [r for _, r in calls] == res_sup
        for (tol, _), r in zip(calls, res_sup):
            assert tol >= min(3e-2, 0.5 * FAST.newton_tol / r)

    @pytest.mark.parametrize("m", [1, 2])
    def test_manufactured_problem_margin_guard(self, m):
        # amplitude 4 drives the exact eigenvalues out of Gamma_m
        grid, _ = flat()
        with pytest.raises(InputError, match="guard"):
            manufactured_problem(grid, m, 4.0)

    def test_mesh_convergence_order(self):
        rows, orders = mms_study(2, 1, [8, 16], amplitude=0.25)
        assert all(r.converged for r in rows)
        assert orders[0] >= 1.8

    def test_trace_jsonl_schema(self):
        grid, omega = flat()
        H = make_field(grid, [((1, 0, 0, 0), 0.3, 0.0)])
        _, rep = solve_exponential(H, omega, 1, FAST)
        assert rep.trace
        for rec in rep.trace:
            assert set(vars(rec)) == {"t", "iter", "residual_sup", "step_scale",
                                      "cone_margin", "krylov_iters", "krylov_relres"}

    def test_trace_records_krylov_work(self, monkeypatch):
        # the last step's solve is reported as capped: its record carries the
        # capped counts, every other step those of its own solve
        grid, omega = flat()
        H = make_field(grid, [((1, 0, 0, 0), 0.3, 0.0)])
        _, clean = solve_exponential(H, omega, 1, FAST)
        steps = len(clean.trace) - 1
        calls = []

        def capped_last(lin, rhs, tol, **kwargs):
            out, iters, relres = krylov_solve(lin, rhs, tol, **kwargs)
            calls.append((iters, relres))
            if len(calls) < steps:
                return out, iters, relres
            return out, iters + 1000, relres

        monkeypatch.setattr(solver, "krylov_solve", capped_last)
        _, rep = solve_exponential(H, omega, 1, FAST)
        first, *rest = rep.trace
        assert (first.krylov_iters, first.krylov_relres) == (0, None)
        assert len(rest) == steps == len(calls)
        want = list(calls)
        want[-1] = (calls[-1][0] + 1000, calls[-1][1])
        assert [(r.krylov_iters, r.krylov_relres) for r in rest] == want
        assert all(i >= 1 for i, _ in want)

    def test_grid_mismatch(self):
        grid, omega = flat()
        with pytest.raises(InputError):
            solve_exponential(ScalarField.zeros(TorusGrid(2, 16)), omega, 1)

    def test_rejects_nan_in_H(self):
        grid, omega = flat()
        data = np.zeros(grid.shape)
        data[0, 1, 2, 3] = np.nan
        with pytest.raises(InputError):
            solve_exponential(ScalarField(grid, data), omega, 1, FAST)


def _trig(grid, terms):
    """sum c cos(k.x) + s sin(k.x) on the grid, with no aliasing guard."""
    data = np.zeros(grid.shape)
    for kvec, c, s in terms:
        phase = sum(k * grid.axis_coordinate(a) for a, k in enumerate(kvec))
        data = data + c * np.cos(phase) + s * np.sin(phase)
    return data


def _cold(H, omega, m, cfg):
    """Today's cold solve: continuity from u = 0, with no companion."""
    report = SolveReport(converged=False)
    u = solver._continuity_solve(solver._Equation(omega, m, 1.0), H.data, cfg, report)
    report.converged = report.failure is None
    return u, report


def _out_of_cone(u, grid):
    """An interpolant with u_{1 1bar} = -12.5 at x_1 = 0, outside every Gamma_m."""
    return make_field(grid, [((1, 0, 0, 0), 50.0, 0.0)]).data


def _conformal(N):
    grid = TorusGrid(2, N)
    omega = MetricField.conformal(grid, np.eye(2), [((1, 0, 0, 0), 0.6, 0.0),
                                                     ((0, 0, 1, 1), 0.0, 0.3)])
    return omega, make_field(grid, [((1, 0, 0, 0), 0.3, 0.0), ((0, 1, 1, 0), 0.0, 0.2)])


class TestNestedStart:
    PAIRS = [pytest.param(2, 8, 16, id="8"), pytest.param(2, 12, 24, id="12"),  # (n, M, N)
             pytest.param(2, 8, 12, id="n2-8-12"), pytest.param(3, 8, 10, id="n3-8-10")]

    @pytest.mark.parametrize("n, M, N", PAIRS)
    def test_interpolation_reproduces_band_limited_polynomials(self, n, M, N):
        # |k_a| < M/2, the largest in every sign pattern up to the overall
        # sign (k and -k are one real mode), on the nested pairs and two that
        # are not (8 -> 10 is n = 3's only pair up to N = 10).  Measured: at
        # most 4.3e-14
        coarse, fine = TorusGrid(n, M), TorusGrid(n, N)
        top = M // 2 - 1
        one = np.eye(2 * n, dtype=int)
        terms = [((top,) + k, 0.3, -0.2)
                 for k in itertools.product((-top, top), repeat=2 * n - 1)]
        terms += [(one[0] + 2 * one[2], 0.5, 0.1), (one[1] + top * one[-1], 0.0, 0.4),
                  ((0,) * (2 * n), 0.7, 0.0)]
        got = solver._interpolate(_trig(coarse, terms), fine)
        assert np.max(np.abs(got - _trig(fine, terms))) <= 1e-13

    @pytest.mark.parametrize("n, M, N", PAIRS)
    def test_interpolation_matches_dft_zero_padding(self, n, M, N):
        # the per-axis real matrices against rfftn zero-padding on a random
        # coarse field, whose coarse Nyquist modes both routes drop.
        # Measured: at most 7.5e-15
        u = np.random.default_rng(M + N).standard_normal((M,) * (2 * n))
        fine = TorusGrid(n, N)
        got = solver._interpolate(u, fine)
        assert np.max(np.abs(got - fft_interpolate(u, fine))) <= 1e-13

    @pytest.mark.parametrize("problem", ["mms", "conformal"])
    def test_nested_agrees_with_cold(self, problem):
        if problem == "mms":
            grid, omega = flat(2, 16)
            _, H, _ = manufactured_problem(grid, 2, 0.25)
        else:
            omega, H = _conformal(16)
        u, rep = solve_exponential(H, omega, 2, FAST)
        cold, cold_rep = _cold(H, omega, 2, FAST)
        assert rep.converged and cold_rep.converged
        assert rep.start == "nested" and rep.t_path[0][0] == 1.0
        assert rep.coarse.converged and rep.coarse.start == "continuity"
        assert rep.coarse.coarse is None  # 8 has no companion
        assert np.max(np.abs(u.data - cold)) <= 10 * FAST.newton_tol
        assert rep.newton_steps < cold_rep.newton_steps

    def test_companion_metric_is_the_injected_form(self, monkeypatch):
        # the companion's conformal field is injected, so its omega is the
        # fine omega at every other point, bit for bit
        omega, H = _conformal(16)
        solve = solver._solve

        class Companion(Exception):
            pass

        def stop_at_companion(eq, harr, cfg, u0=None):
            if eq.metric.grid.N == 8:
                raise Companion(eq.metric)
            return solve(eq, harr, cfg, u0)

        monkeypatch.setattr(solver, "_solve", stop_at_companion)
        with pytest.raises(Companion) as caught:
            solve_exponential(H, omega, 2, FAST)
        coarse = caught.value.args[0]
        assert coarse.exp_phi is not None
        assert np.array_equal(coarse.form, omega.form[::2, ::2, ::2, ::2])

    def test_fallback_is_the_cold_solve(self, monkeypatch):
        omega, H = _conformal(16)
        cold, cold_rep = _cold(H, omega, 2, SolverConfig())
        monkeypatch.setattr(solver, "_interpolate", _out_of_cone)
        u, rep = solve_exponential(H, omega, 2)
        assert rep.start == "continuity" and rep.coarse.converged
        assert np.array_equal(u.data, cold)
        assert rep.t_path == cold_rep.t_path
        assert rep.trace == cold_rep.trace  # the rejected start left no record
        assert rep.cone_margin_min == cold_rep.cone_margin_min
        assert rep.resolution_estimate is not None

    def test_stalled_nested_newton_falls_back_and_is_traced(self, monkeypatch):
        # the first fine Newton step gets a zero direction, so its line search
        # stalls: the step is recorded with its Krylov work, then continuity runs
        grid, omega = flat(2, 16)
        _, H, _ = manufactured_problem(grid, 2, 0.25)
        cold, cold_rep = _cold(H, omega, 2, FAST)
        fine_calls = []

        def stall_first_fine(lin, rhs, tol):
            if lin.grid.N == 16:
                fine_calls.append(tol)
                if len(fine_calls) == 1:
                    return np.zeros(lin.grid.shape), 7, 0.5
            return krylov_solve(lin, rhs, tol)

        monkeypatch.setattr(solver, "krylov_solve", stall_first_fine)
        u, rep = solve_exponential(H, omega, 2, FAST)
        assert rep.converged and rep.start == "continuity"
        assert np.array_equal(u.data, cold)
        assert rep.t_path == cold_rep.t_path
        start, stalled, *rest = rep.trace
        assert (start.t, start.iter, start.step_scale) == (1.0, 0, 0.0)
        assert (stalled.t, stalled.iter, stalled.step_scale) == (1.0, 1, 0.0)
        assert (stalled.residual_sup, stalled.cone_margin) == (start.residual_sup,
                                                                start.cone_margin)
        assert (stalled.krylov_iters, stalled.krylov_relres) == (7, 0.5)
        assert rest == cold_rep.trace

    @pytest.mark.parametrize("N, error", [(8, 8.70477405404424e-3), (12, 3.8868721680851426e-3)],
                             ids=["N8", "N12"])
    def test_no_companion_below_the_rule(self, N, error):
        # N/2 odd or below 8: the cold solve, continuity from u = 0, byte for
        # byte in the same process; sup|u - u*| as recorded, to the Newton
        # tolerance, whatever the BLAS build and thread count
        grid, omega = flat(2, N)
        ustar, H, _ = manufactured_problem(grid, 2, 0.25)
        u, rep = solve_exponential(H, omega, 2)
        cold, cold_rep = _cold(H, omega, 2, SolverConfig())
        assert rep.converged and rep.start == "continuity"
        assert rep.coarse is None and rep.resolution_estimate is None
        assert np.array_equal(u.data, cold) and rep.t_path == cold_rep.t_path
        assert abs(np.max(np.abs(u.data - ustar.data)) - error) <= SolverConfig().newton_tol

    def test_companion_recurses_and_restricts_by_injection(self, monkeypatch):
        grid, omega = flat(2, 32)
        H = make_field(grid, [((1, 0, 0, 0), 0.3, 0.0)])
        seen = []
        real = solver._solve

        def recorded(eq, harr, cfg, u0=None):
            seen.append((eq.metric.grid.N, harr.copy()))
            return real(eq, harr, cfg, u0)

        monkeypatch.setattr(solver, "_solve", recorded)
        _, rep = solve_exponential(H, omega, 1, FAST)
        assert [N for N, _ in seen] == [32, 16, 8]
        for (_, fine), (_, coarse) in zip(seen, seen[1:]):
            assert np.array_equal(coarse, fine[::2, ::2, ::2, ::2])
        assert [rep.start, rep.coarse.start, rep.coarse.coarse.start] == [
            "nested", "nested", "continuity"]

    def test_failed_companion_falls_back(self, monkeypatch):
        # the companion fails at a Newton cap of 1, so the cold path runs and
        # no estimate is reported
        monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
        grid, omega = flat(2, 16)
        _, H, _ = manufactured_problem(grid, 2, 0.25)
        u, rep = solve_exponential(H, omega, 2, FAST)
        cold, cold_rep = _cold(H, omega, 2, FAST)
        assert not rep.coarse.converged and rep.start == "continuity"
        assert np.array_equal(u.data, cold) and rep.trace == cold_rep.trace
        assert rep.resolution_estimate is None

    @pytest.mark.parametrize("N", [16, 24])
    def test_resolution_estimate_reads_the_error(self, N):
        # two-grid Richardson estimate of sup|u - u*| (measured E / error
        # 0.992 at N = 16 and 0.996 at N = 24)
        grid, omega = flat(2, N)
        ustar, H, _ = manufactured_problem(grid, 2, 0.25)
        u, rep = solve_exponential(H, omega, 2, FAST)
        err = np.max(np.abs(u.data - ustar.data))
        assert abs(rep.resolution_estimate / err - 1.0) <= 0.05


class TestVariableMetricSolve:
    def test_conformal_metric_end_to_end(self):
        grid = TorusGrid(2, 8)
        omega = MetricField.conformal(grid, np.eye(2), [((1, 0, 0, 0), 0.3, 0.0)])
        H = make_field(grid, [((1, 0, 0, 0), 0.3, 0.0)])
        u, rep = solve_exponential(H, omega, 1, SolverConfig(t_steps=2))
        assert rep.converged
        assert np.max(np.abs(u.data)) > 0.05  # genuinely nontrivial solution
        assert u.sup() <= -H.inf() + 1e-7
        assert u.inf() >= -H.sup() - 1e-7


class TestFailureReporting:
    def test_unreachable_data_yields_failure_report(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_NEWTON", 2)
        grid, omega = flat()
        H = make_field(grid, [((1, 0, 0, 0), 50.0, 0.0)])
        u, rep = solve_exponential(H, omega, 1, FAST)
        assert not rep.converged
        assert rep.failure.startswith("continuity stalled")
        assert np.all(np.isfinite(u.data))  # last iterate still returned


class TestStepMemory:
    """A Newton step holds one state's grid arrays at a time."""

    def test_line_search_holds_one_state(self, monkeypatch):
        # a damped first step (q = 0.1, H = 2 cos x_1): at every candidate,
        # rejected ones included, the step's linearization is gone and the
        # state it was built from keeps no grid array but u
        grid, omega = flat(2, 8)
        harr = make_field(grid, [((1, 0, 0, 0), 2.0, 0.0)]).data
        steps, last, seen = [], [], []
        linearize_state, evaluate = solver.linearization, solver._Equation.evaluate

        def recorded_linearization(b, *args):
            assert last[-1].b is b  # the state just evaluated and accepted
            lin = linearize_state(b, *args)
            assert np.shares_memory(lin.weights, b)
            steps.append((weakref.ref(lin), last[-1]))
            return lin

        def checked_evaluate(eq, u, harr):
            if steps:
                ref, state = steps[-1]
                seen.append((ref() is None, state.b, state.table, state.residual))
            last[:] = [evaluate(eq, u, harr)]
            return last[-1]

        monkeypatch.setattr(solver, "linearization", recorded_linearization)
        monkeypatch.setattr(solver._Equation, "evaluate", checked_evaluate)
        trace = []
        state, iters, failure = solver._newton(solver._Equation(omega, 2, 0.1),
                                               np.zeros(grid.shape), harr, SolverConfig(),
                                               1.0, trace)
        assert failure is None and iters == len(steps) == 6
        assert trace[1].step_scale == 0.5 and len(seen) == iters + 1  # one rejection
        assert all(dead and b is table is residual is None
                   for dead, b, table, residual in seen)
        # the returned state is released as well: callers read u, res_sup, margin
        assert state.b is state.table is state.residual is None
        assert state.res_sup <= SolverConfig().newton_tol and state.margin > 0.0

    # peak RSS growth over the post-build RSS of one n=3 N=8 solve, in bytes
    # per grid point (2 cores, OpenBLAS, default and 1 thread): 200-208, and
    # 373-384 when the state's B', table and residual and the weights lived
    # through the whole step; the peak is now the Krylov solve.  The peak is
    # the child's VmHWM: its ru_maxrss would carry this process's own peak
    # across the exec (getrusage(2)).
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs /proc/self/status")
    def test_peak_rss_growth_per_point(self):
        src = str(Path(hessianlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = """if True:
            from hessianlab.experiments import manufactured_problem
            from hessianlab.geometry import MetricField, TorusGrid
            from hessianlab.solver import SolverConfig, solve_exponential

            def status(key):
                with open("/proc/self/status") as f:
                    return next(int(line.split()[1]) for line in f if line.startswith(key))

            grid = TorusGrid(3, 8)
            _, H, _ = manufactured_problem(grid, 2, 0.25)
            omega = MetricField.flat(grid)
            base = status("VmRSS:")
            u, rep = solve_exponential(H, omega, 2, SolverConfig(t_steps=1))
            assert rep.converged
            print(1024 * (status("VmHWM:") - base) / grid.points)
        """
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert float(out.stdout) <= 240.0


class TestConeRule:
    def test_state_admits_what_cone_mask_admits(self):
        # at [0, 5e-324], m = 1, S_1 > 0 but the margin S_1 / C(2, 1) rounds
        # to 0: the solver admits the point, as cone_mask does, and reports
        # the margin as it is
        lam = np.array([[0.0, 5e-324], [1.0, 1.0]])
        table = elementary_symmetric_table(lam, 1)
        assert cone_mask(lam, 1).all()
        with np.errstate(divide="ignore"):  # log sigma_1 = log 0 at the first point
            state = solver._State(np.zeros(2), None, table, 2, 1, 0.0, np.zeros(2))
        assert state.in_cone and state.margin == 0.0
        state = solver._State(np.zeros(2), None, -table, 2, 1, 0.0, np.zeros(2))
        assert not state.in_cone and state.residual is None


class TestSolveNormalized:
    def test_constant_one(self):
        grid, omega = flat()
        f = ScalarField(grid, np.ones(grid.shape))
        u, c, rep = solve_normalized(f, omega, 1, [1.0, 0.3, 0.1], FAST)
        assert rep.converged
        assert abs(c - 1.0) < 1e-10
        assert np.max(np.abs(u.data)) < 1e-10

    def test_constant_two(self):
        grid, omega = flat()
        f = ScalarField(grid, 2.0 * np.ones(grid.shape))
        u, c, rep = solve_normalized(f, omega, 1, [1.0, 0.3, 0.1, 0.03, 0.01], FAST)
        assert rep.converged
        assert abs(c - 0.5) < 1e-8
        assert np.max(np.abs(u.data)) < 1e-8

    def test_sup_u_zero_exactly(self):
        grid, omega = flat(2, 16)
        from hessianlab.experiments import exact_sigma, manufactured_terms

        terms = manufactured_terms(2, 0.25)
        sigma, _ = exact_sigma(grid, terms, 1)
        f = ScalarField(grid, sigma / sigma.max())
        u, c, rep = solve_normalized(f, omega, 1, [1.0, 0.3, 0.1], FAST)
        assert rep.converged
        assert u.sup() == 0.0

    @pytest.mark.parametrize("fail_below", [0.0, 0.3], ids=["converged", "failed-later-eps"])
    def test_extremes_match_recomputation(self, monkeypatch, fail_below):
        # inf_u is read off the kept eps report, not rescanned from u: it
        # must equal min of the returned u bit for bit, and max u must be 0,
        # also when a later eps fails and an earlier iterate is handed back
        grid, omega = flat()
        f = make_field(grid, [((0, 0, 0, 0), 1.0, 0.0), ((1, 0, 0, 0), 0.3, 0.0)])
        real_newton = solver._newton

        def newton(eq, u0, harr, cfg, t_label, trace):
            state, iters, failure = real_newton(eq, u0, harr, cfg, t_label, trace)
            return state, iters, "forced failure" if eq.q < fail_below else failure

        monkeypatch.setattr(solver, "_newton", newton)
        u, _, rep = solve_normalized(f, omega, 1, [1.0, 0.3, 0.1], FAST)
        assert rep.converged == (fail_below == 0.0)
        assert rep.inf_u == float(np.min(u.data)) < 0.0
        assert float(np.max(u.data)) == 0.0

    def test_manufactured_recovery(self):
        grid, omega = flat(2, 16)
        from hessianlab.experiments import exact_sigma, manufactured_terms

        terms = manufactured_terms(2, 0.25)
        ustar = make_field(grid, terms)
        sigma, _ = exact_sigma(grid, terms, 1)
        f = ScalarField(grid, sigma / sigma.max())
        sched = [1.0, 0.3, 0.1, 0.03, 0.01]
        u, c, rep = solve_normalized(f, omega, 1, sched, FAST)
        assert rep.converged
        shifted = ustar.data - ustar.data.max()
        err = np.max(np.abs(u.data - shifted))
        assert err <= 5.0 * (grid.h**2 + sched[-1])
        # Cauchy gaps shrink along the asymptotic tail of the schedule
        tail = rep.c_gaps[1:]
        assert all(b <= a + 10 * FAST.newton_tol for a, b in zip(tail, tail[1:]))

    def test_rejected_warm_start_descends_through_a_midpoint(self, monkeypatch):
        import hessianlab.solver as solver

        real_newton = solver._newton
        forced = []

        def newton_failing_once(eq, u0, harr, cfg, t_label, trace):
            out = real_newton(eq, u0, harr, cfg, t_label, trace)
            if eq.q == 0.1 and not forced:  # the first warm start at eps 0.1
                forced.append(eq.q)
                return out[0], out[1], "forced failure"
            return out

        monkeypatch.setattr(solver, "_newton", newton_failing_once)
        grid, omega = flat()
        from hessianlab.experiments import exact_sigma, manufactured_terms

        sigma, _ = exact_sigma(grid, manufactured_terms(2, 0.25), 1)
        f = ScalarField(grid, sigma / sigma.max())
        sched = [1.0, 0.3, 0.1]
        u, c, rep = solve_normalized(f, omega, 1, sched, FAST)
        assert forced == [0.1]
        mid = math.sqrt(0.3 * 0.1)
        assert [eps for eps, _ in rep.eps_path] == [1.0, 0.3, mid, 0.1]
        assert rep.converged
        assert all(r.converged for _, r in rep.eps_path)
        assert len(rep.c_estimates) == len(sched) + 1
        assert c == rep.c_estimates[-1]
        assert rep.c_gaps[-1] > 0.0

    def test_failed_later_eps_returns_the_last_converged(self, monkeypatch):
        # every eps below 0.3 fails, midpoints included: u and c are those of
        # eps = 0.3, as from a schedule that stops there
        grid, omega = flat()
        f = make_field(grid, [((0, 0, 0, 0), 1.0, 0.0), ((1, 0, 0, 0), 0.3, 0.0)])
        head, c_head, _ = solve_normalized(f, omega, 1, [1.0, 0.3], FAST)
        real_newton = solver._newton

        def failing_newton(eq, u0, harr, cfg, t_label, trace):
            state, iters, failure = real_newton(eq, u0, harr, cfg, t_label, trace)
            if eq.q < 0.3:  # q = eps; the failed state is off u0
                return state, iters, "forced failure"
            return state, iters, failure

        monkeypatch.setattr(solver, "_newton", failing_newton)
        u, c, rep = solve_normalized(f, omega, 1, [1.0, 0.3, 0.1], FAST)
        assert not rep.converged and rep.eps_path[-1][1].failure == "forced failure"
        assert [eps for eps, r in rep.eps_path if r.converged] == [1.0, 0.3]
        np.testing.assert_array_equal(u.data, head.data)
        assert len(rep.c_estimates) == 2 and c == rep.c_estimates[-1] == c_head

    def test_rejects_nonpositive_f(self):
        grid, omega = flat()
        f = make_field(grid, [((1, 0, 0, 0), 2.0, 0.0)])  # dips negative
        with pytest.raises(InputError):
            solve_normalized(f, omega, 1, [1.0, 0.3])

    def test_rejects_bad_schedule(self, monkeypatch):
        # NaN fails both `e <= 0` and `b >= a`: a NaN eps must still be refused,
        # and every schedule is refused before its first Newton step
        def newton(*args):
            raise AssertionError("a Newton step ran before the schedule check")

        monkeypatch.setattr(solver, "_newton", newton)
        grid, omega = flat()
        f = make_field(grid, [((0, 0, 0, 0), 1.0, 0.0), ((1, 0, 0, 0), 0.3, 0.0)])
        nan, inf = float("nan"), float("inf")
        for schedule in ([0.1, 0.3], [1.0, nan], [nan], [inf, 1.0]):
            with pytest.raises(InputError, match="eps schedule must .*finite"):
                solve_normalized(f, omega, 1, schedule, FAST)

    def test_rejects_empty_schedule(self):
        grid, omega = flat()
        f = ScalarField(grid, np.ones(grid.shape))
        with pytest.raises(InputError):
            solve_normalized(f, omega, 1, [])

    def test_grid_mismatch(self):
        grid, _ = flat()
        _, omega = flat(2, 16)
        with pytest.raises(InputError, match="different grids"):
            solve_normalized(ScalarField(grid, np.ones(grid.shape)), omega, 1, [1.0, 0.3])

    def test_rejects_nan_in_f(self):
        # a NaN residual passes `res_sup > newton_tol`: converged after 0 steps
        grid, omega = flat()
        data = np.ones(grid.shape)
        data[1, 2, 3, 4] = np.nan
        with pytest.raises(InputError):
            solve_normalized(ScalarField(grid, data), omega, 1, [1.0, 0.3], FAST)


class TestWarmStartedNormalized:
    """A perturbed density solved at the last eps alone, from the base's raw v.

    On this n=2 N=8 problem the started and cold solutions differ by at most
    1.0e-9, about twice the sum of their final residuals (newton_tol level),
    and the started solve takes 3/2/2 Newton
    steps for delta 0.1/0.01/0.001 against 13 cold, at m = 1 and m = 2.
    """

    SCHED = (1.0, 0.3, 0.1, 0.03)
    CFG = SolverConfig(t_steps=2)

    @pytest.fixture(scope="class", params=[1, 2], ids=["m1", "m2"])
    def base(self, request):
        grid, omega = flat()
        zero = (0, 0, 0, 0)
        f = make_field(grid, [(zero, 1.0, 0.0), ((1, 0, 0, 0), 0.3, 0.0)])
        psi = make_field(grid, [((1, 0, 0, 1), 1.0, 0.0)])
        m = request.param
        u, c, rep = solve_normalized(f, omega, m, self.SCHED, self.CFG)
        assert rep.converged
        v = u.data + math.log(c) / self.SCHED[-1]  # the raw v at the last eps
        return f, psi, omega, m, v, c

    @pytest.mark.parametrize("delta", [0.1, 0.01, 0.001])
    def test_matches_cold_solve_in_fewer_steps(self, base, delta):
        f, psi, omega, m, v, _ = base
        g = ScalarField(f.grid, f.data * (1.0 + delta * psi.data))
        u_cold, c_cold, cold = solve_normalized(g, omega, m, self.SCHED, self.CFG)
        u_warm, c_warm, warm = solve_normalized(g, omega, m, self.SCHED[-1:], self.CFG,
                                                v0=v)
        assert cold.converged and warm.converged
        assert c_warm == pytest.approx(c_cold, rel=1e-8)
        # Each solve stops at some sup residual R below newton_tol, and the two
        # solutions differ by the linearized response to the difference of
        # their residuals, of sup at most R_cold + R_warm.  u = v - max v
        # drops the constant mode; on the others the response is largest on
        # the lowest, whose eigenvalue at u = 0 is lambda_1 = (m / 4n)
        # (2 - 2 cos h) / h^2, and it moves u by at most its oscillation,
        # twice its amplitude.  Measured: at most 0.28 of this bound
        r_cold, r_warm = (rep.eps_path[-1][1].t_path[-1][2] for rep in (cold, warm))
        h = f.grid.h
        lambda_1 = m / (4 * f.grid.n) * (2.0 - 2.0 * math.cos(h)) / h**2
        assert np.max(np.abs(u_warm.data - u_cold.data)) <= 2.0 * (r_cold + r_warm) / lambda_1
        assert warm.newton_steps < cold.newton_steps
        # one eps, started by Newton from v: no continuity path
        assert [e for e, _ in warm.eps_path] == [self.SCHED[-1]]
        assert [t for t, _, _ in warm.eps_path[0][1].t_path] == [1.0]

    def test_base_pair_is_the_raw_solution(self, base):
        # u + log(c) / eps is the raw v of the last eps to round-off: started
        # there, the same density needs no Newton step
        f, psi, omega, m, v, c = base
        u, c_again, rep = solve_normalized(f, omega, m, self.SCHED[-1:], self.CFG, v0=v)
        assert rep.converged and rep.newton_steps == 0
        assert c_again == pytest.approx(c, rel=1e-12)
        assert np.max(np.abs(u.data - (v - np.max(v)))) == 0.0

    def test_midpoint_and_retry_start_from_the_walk(self, base, monkeypatch):
        # after a rejected start at a later eps the midpoint starts from the
        # last converged eps and the retry from the midpoint, never from v0
        f, psi, omega, m, v, _ = base
        sched = (0.03, 0.01)
        mid = math.sqrt(0.03 * 0.01)
        calls = []
        real_solve = solver._solve

        def solve_failing_once(eq, harr, cfg, u0=None):
            u, out = real_solve(eq, harr, cfg, u0)
            calls.append((eq.q, u0, u))
            if len(calls) == 2:  # the first start at eps 0.01
                out.converged = False
            return u, out

        monkeypatch.setattr(solver, "_solve", solve_failing_once)
        _, _, out = solve_normalized(f, omega, m, sched, self.CFG, v0=v)
        assert out.converged
        assert [q for q, _, _ in calls] == [0.03, 0.01, mid, 0.01]
        assert [e for e, _ in out.eps_path] == [0.03, mid, 0.01]
        assert calls[0][1] is v
        assert calls[1][1] is calls[0][2]
        assert calls[2][1] is calls[0][2]
        assert calls[3][1] is calls[2][2]

    def test_rejected_start_ends_the_walk(self, base, monkeypatch):
        # no midpoint exists before the first eps and a start is never rerun
        # by continuity: a rejected v0 ends the walk with one failed report
        f, psi, omega, m, v, _ = base
        calls = []
        real_solve = solver._solve

        def solve_failing(eq, harr, cfg, u0=None):
            u, out = real_solve(eq, harr, cfg, u0)
            calls.append((eq.q, u0))
            out.converged = False
            return u, out

        monkeypatch.setattr(solver, "_solve", solve_failing)
        _, c, out = solve_normalized(f, omega, m, self.SCHED[-2:], self.CFG, v0=v)
        assert not out.converged
        assert calls == [(self.SCHED[-2], v)]
        assert [e for e, _ in out.eps_path] == [self.SCHED[-2]]
        assert math.isnan(c)

    def test_start_outside_cone_fails_without_continuity(self, base, monkeypatch):
        # Newton refuses a start outside Gamma_m, and nothing reruns it
        f, psi, omega, m, _, _ = base
        bad = make_field(f.grid, [((1, 0, 0, 0), 12.0, 0.0)]).data
        assert not sigma_m(ScalarField(f.grid, bad), omega, m).cone_mask.all()
        failures = []
        real_newton = solver._newton

        def newton(eq, u0, harr, cfg, t_label, trace):
            out = real_newton(eq, u0, harr, cfg, t_label, trace)
            failures.append(out[2])
            return out

        monkeypatch.setattr(solver, "_newton", newton)
        _, c, out = solve_normalized(f, omega, m, self.SCHED, self.CFG, v0=bad)
        assert failures == ["initial iterate outside the cone"]
        assert not out.converged and math.isnan(c)
        [(eps, rep)] = out.eps_path
        assert eps == self.SCHED[0]
        assert rep.failure == "initial iterate outside the cone"
        assert rep.t_path == [(1.0, 0, math.inf)]


class TestRealSolvePath:
    def test_no_dft_and_no_stacked_eigvalsh(self, monkeypatch, tmp_path):
        # a nested solve and the solve command run on real arrays alone: no
        # DFT, and no eigensolve but the metric check's one (n, n) eigvalsh
        eigvalsh = np.linalg.eigvalsh

        def no_dft(*args, **kwargs):
            raise AssertionError("DFT on a solve path")

        def one_matrix(a, *args, **kwargs):
            if np.ndim(a) > 2:
                raise AssertionError("stacked eigvalsh on a solve path")
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfftn", no_dft)
        monkeypatch.setattr(np.fft, "irfftn", no_dft)
        monkeypatch.setattr(np.linalg, "eigvalsh", one_matrix)
        omega, H = _conformal(16)
        _, rep = solve_exponential(H, omega, 2, FAST)
        assert rep.converged and rep.start == "nested"
        assert main(["solve", "--n", "3", "--m", "2", "--N", "8", "--H", "cos:1,0,0,0,0,0:0.5",
                     "--out", str(tmp_path / "solve")]) == 0


class TestSolverConfigValidation:
    def test_rejects_nonpositive_tol(self):
        with pytest.raises(InputError):
            SolverConfig(newton_tol=0.0)

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", ["t_steps"])
    def test_rejects_nonpositive_counts(self, name, value):
        with pytest.raises(InputError, match="t_steps must be >= 1"):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["newton_tol"])
    def test_rejects_non_finite_tol(self, name, value):
        # nan passes a `<= 0` test: a nan newton_tol ends Newton before any step
        with pytest.raises(InputError):
            SolverConfig(**{name: value})
