"""Newton/continuity solver: trivial cases, manufactured solutions, contracts."""

import json
import math

import numpy as np
import pytest

from hessianlab.errors import InputError
from hessianlab.experiments import manufactured_problem, mms_study
from hessianlab.geometry import MetricField, ScalarField, TorusGrid, make_field
from hessianlab.hessop import (
    apply_linearization,
    apply_linearization_array,
    linearization,
)
from hessianlab.solver import (
    SolverConfig,
    _diagonal_preconditioner,
    krylov_solve,
    solve_exponential,
    solve_normalized,
)


def flat(n=2, N=8):
    grid = TorusGrid(n, N)
    return grid, MetricField.flat(grid)


FAST = SolverConfig(t_steps=1)


class TestKrylovSolve:
    def test_zero_rhs(self):
        grid, omega = flat()
        lin = linearization(ScalarField.zeros(grid), omega, 1, 1.0)
        v, info = krylov_solve(lin, ScalarField.zeros(grid), 1e-10)
        assert np.all(v.data == 0.0)
        assert info.iterations == 0

    @pytest.mark.parametrize("precond", ["diagonal", "spectral", "auto"])
    def test_fourier_symbol_oracle(self, precond):
        # constant-coefficient m=1 operator: L cos(x1) = sym * cos(x1)
        grid, omega = flat(2, 16)
        lin = linearization(ScalarField.zeros(grid), omega, 1, 1.0)
        rhs = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0)])
        v, info = krylov_solve(lin, rhs, 1e-10, precond=precond)
        ch = (2 - 2 * np.cos(grid.h)) / grid.h**2
        sym_disc = -(ch / (4 * grid.n)) - 1.0
        assert np.max(np.abs(v.data - rhs.data / sym_disc)) < 1e-9
        sym_cont = -(1 / (4 * grid.n)) - 1.0
        assert np.max(np.abs(v.data - rhs.data / sym_cont)) < 0.1 * grid.h**2

    def test_residual_contract_matches_recomputation(self):
        grid, omega = flat()
        u = make_field(grid, [((1, 0, 0, 0), 0.4, 0.0)])
        lin = linearization(u, omega, 2, 1.0)
        rhs = make_field(grid, [((0, 1, 0, 0), 0.0, 1.0), ((1, 0, 1, 0), 0.5, 0.0)])
        v, info = krylov_solve(lin, rhs, 1e-10)
        res = apply_linearization(lin, v).data - rhs.data
        relres = float(np.linalg.norm(res) / np.linalg.norm(rhs.data))
        assert relres <= 1e-10
        assert abs(relres - info.relres) < 1e-12

    def test_grid_mismatch(self):
        grid, omega = flat()
        lin = linearization(ScalarField.zeros(grid), omega, 1, 1.0)
        with pytest.raises(InputError):
            krylov_solve(lin, ScalarField.zeros(TorusGrid(2, 16)), 1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_diagonal_preconditioner_is_operator_diagonal(self, n):
        # L e_p at p, probed with unit impulses, is what psolve divides by
        grid = TorusGrid(n, 8)
        x1 = (1,) + (0,) * (2 * n - 1)
        omega = MetricField.conformal(grid, np.eye(n), [(x1, 0.3, 0.0)])
        y1_x2 = (0, 1, 1) + (0,) * (2 * n - 3)
        u = make_field(grid, [(x1, 0.3, 0.0), (y1_x2, 0.0, 0.2)])
        lin = linearization(u, omega, 2, 0.7)
        diag = 1.0 / _diagonal_preconditioner(lin)(np.ones(grid.points))
        diag = diag.reshape(grid.shape)
        for point in [(0,) * (2 * n), (7,) * (2 * n), (3, 5, 0, 7, 1, 2)[: 2 * n]]:
            impulse = np.zeros(grid.shape)
            impulse[point] = 1.0
            got = apply_linearization_array(lin, impulse)[point]
            assert got == pytest.approx(diag[point], rel=1e-13), point


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
        cfg = SolverConfig(t_steps=1, newton_tol=1e-13, krylov_tol=1e-14)
        u, rep = solve_exponential(H, omega, 2, cfg)
        assert rep.converged
        res = [r.residual_sup for r in rep.trace]
        # three consecutive residuals: middle below 1e-3, all above the
        # floating-point noise floor; observed order at least 1.5
        trios = [
            (res[i], res[i + 1], res[i + 2])
            for i in range(len(res) - 2)
            if res[i + 1] <= 1e-3 and res[i + 2] >= 1e-13
        ]
        assert trios
        r1, r2, r3 = trios[-1]
        order = math.log(r3 / r2) / math.log(r2 / r1)
        assert order >= 1.5

    def test_mesh_convergence_order(self):
        rows, orders = mms_study(2, 1, [8, 16], amplitude=0.25)
        assert all(r.converged for r in rows)
        assert orders[0] >= 1.8

    def test_trace_jsonl_schema(self):
        grid, omega = flat()
        H = make_field(grid, [((1, 0, 0, 0), 0.3, 0.0)])
        _, rep = solve_exponential(H, omega, 1, FAST)
        lines = rep.trace_jsonl().strip().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"t", "iter", "residual_sup", "step_scale", "cone_margin"}

    def test_grid_mismatch(self):
        grid, omega = flat()
        with pytest.raises(InputError):
            solve_exponential(ScalarField.zeros(TorusGrid(2, 16)), omega, 1)


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
    def test_unreachable_data_yields_failure_report(self):
        grid, omega = flat()
        H = make_field(grid, [((1, 0, 0, 0), 50.0, 0.0)])
        cfg = SolverConfig(t_steps=1, max_newton=2, max_t_halvings=1)
        u, rep = solve_exponential(H, omega, 1, cfg)
        assert not rep.converged
        assert rep.failure is not None
        assert np.all(np.isfinite(u.data))  # last iterate still returned


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
        # residual against c f bounded by the drift-extrapolated tolerance
        assert rep.final_mismatch <= rep.tol_c
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
                return out[0], out[1], False, "forced failure"
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
        # the drift extrapolation uses the last two eps on the path
        ratio = 0.1 / mid
        drift = rep.c_gaps[-1]
        fmax = float(np.max(f.data))
        expected = 100.0 * FAST.newton_tol * fmax + fmax * (
            10.0 * drift * ratio / (1.0 - ratio) + 10.0 * drift
        )
        assert drift > 0.0
        assert rep.tol_c == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_f(self):
        grid, omega = flat()
        f = make_field(grid, [((1, 0, 0, 0), 2.0, 0.0)])  # dips negative
        with pytest.raises(InputError):
            solve_normalized(f, omega, 1, [1.0, 0.3])

    def test_rejects_bad_schedule(self):
        grid, omega = flat()
        f = ScalarField(grid, np.ones(grid.shape))
        with pytest.raises(InputError):
            solve_normalized(f, omega, 1, [0.1, 0.3])

    def test_rejects_empty_schedule(self):
        grid, omega = flat()
        f = ScalarField(grid, np.ones(grid.shape))
        with pytest.raises(InputError):
            solve_normalized(f, omega, 1, [])


class TestSolverConfigValidation:
    def test_rejects_nonpositive_tol(self):
        with pytest.raises(InputError):
            SolverConfig(newton_tol=0.0)

    def test_rejects_bad_damping(self):
        with pytest.raises(InputError):
            SolverConfig(damping_factor=1.5)
