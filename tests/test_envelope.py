"""Penalized envelope: closed forms, obstacle bounds, brute-force minorants."""

import numpy as np
import pytest

from hessianlab.envelope import contact_set, msh_envelope
from hessianlab.errors import InputError
from hessianlab.geometry import MetricField, ScalarField, TorusGrid, make_field
from hessianlab.hessop import sigma_m
from hessianlab.solver import SolverConfig

SCHED = [1.0, 0.3, 0.1, 0.03, 0.01]


def flat(n=2, N=16):
    grid = TorusGrid(n, N)
    return grid, MetricField.flat(grid)


class TestContactSet:
    def test_equal_fields_all_true(self):
        grid, _ = flat(2, 8)
        w = ScalarField(grid, np.ones(grid.shape))
        assert contact_set(w, w, 1e-8).all()

    def test_offset_all_false(self):
        grid, _ = flat(2, 8)
        h = ScalarField(grid, np.ones(grid.shape))
        w = ScalarField(grid, h.data - 2e-8)
        assert not contact_set(w, h, 1e-8).any()

    def test_grid_mismatch(self):
        (grid, _), (other, _) = flat(2, 8), flat(2, 16)
        with pytest.raises(InputError, match="different grids"):
            contact_set(ScalarField.zeros(grid), ScalarField.zeros(other), 1e-8)

    def test_mixed_matches_pointwise(self):
        grid, _ = flat(2, 8)
        rng = np.random.default_rng(0)
        h = ScalarField(grid, rng.normal(size=grid.shape))
        w = ScalarField(grid, h.data - rng.uniform(0, 2e-8, size=grid.shape))
        mask = contact_set(w, h, 1e-8)
        np.testing.assert_array_equal(mask, (h.data - w.data) <= 1e-8)


class TestConstantObstacle:
    def test_closed_form_every_eps(self):
        # w constant solves log 1 = w/eps + log(1+eps): w = -eps log(1+eps)
        grid, omega = flat()
        h = ScalarField.zeros(grid)
        w = None
        for i in range(1, len(SCHED) + 1):
            w, rep = msh_envelope(h, omega, 1, SCHED[:i])
            assert rep.converged
            eps = SCHED[i - 1]
            want = -eps * np.log(1.0 + eps)
            assert np.max(np.abs(w.data - want)) <= 1.1 * eps * np.log(2)

    def test_contact_fraction_one(self):
        grid, omega = flat()
        w, rep = msh_envelope(ScalarField.zeros(grid), omega, 1, SCHED)
        assert rep.contact_fraction == 1.0


class TestInteriorObstacle:
    def test_envelope_of_subharmonic_is_itself(self):
        grid, omega = flat()
        h = make_field(grid, [((1, 0, 0, 0), 0.2, 0.0)])
        assert sigma_m(h, omega, 1).cone_mask.all()
        w, rep = msh_envelope(h, omega, 1, SCHED)
        assert rep.converged
        assert np.max(np.abs(w.data - h.data)) <= 1e-3


@pytest.fixture(scope="module")
def solved():
    grid, omega = flat()
    h = make_field(grid, [((1, 0, 0, 0), 8.5, 0.0)])
    w, rep = msh_envelope(h, omega, 1, SCHED)
    return grid, omega, h, w, rep


class TestNonSubharmonicObstacle:
    def test_obstacle_leaves_cone(self, solved):
        grid, omega, h, _, _ = solved
        assert not sigma_m(h, omega, 1).cone_mask.all()

    def test_schedule_completes(self, solved):
        _, _, _, _, rep = solved
        assert rep.converged

    def test_strictly_below_somewhere(self, solved):
        _, _, h, w, _ = solved
        assert np.any(h.data - w.data > 1e-3)

    def test_obstacle_bound(self, solved):
        _, _, h, w, rep = solved
        assert rep.obstacle_excess_sup <= 10 * SolverConfig().newton_tol
        assert np.max(w.data - h.data) <= 10 * SolverConfig().newton_tol

    def test_monotone_in_eps(self, solved):
        _, _, _, _, rep = solved
        assert rep.monotone_violation_sup <= 1e-7

    def test_complementarity_declines(self, solved):
        _, _, _, _, rep = solved
        comp = [c for _, c in rep.complementarity_path]
        assert all(b <= a + 1e-9 for a, b in zip(comp, comp[1:]))
        assert comp[-1] < comp[0]

    def test_final_iterate_in_closed_cone(self, solved):
        grid, omega, _, w, _ = solved
        val = sigma_m(w, omega, 1)
        assert val.cone_mask.all()  # strict cone from the Newton guard

    def test_dominates_brute_force_minorants(self, solved):
        # pointwise max over the cone-constrained trig family
        #   v_b = b cos(x_1) - (A - b),  |b| <= 8  (m = 1 closed-cone bound)
        grid, _, h, w, _ = solved
        x1 = grid.axis_coordinate(0) * np.ones(grid.shape)
        best = np.full(grid.shape, -np.inf)
        for b in np.linspace(-8.0, 8.0, 161):
            best = np.maximum(best, b * np.cos(x1) - (8.5 - b))
        # the converged penalization still sits O(eps) below the envelope
        assert np.min(w.data - best) >= -0.05


class TestLooseContinuityPath:
    def test_only_the_endpoint_is_solved_to_newton_tol(self):
        # the eps = 1 solve on N = 8 takes 7 Newton steps along its path
        # (1, 1, 1, 4); solving every t < 1 to newton_tol takes 15 (3, 4, 4, 4)
        grid, omega = flat(2, 8)
        h = make_field(grid, [((1, 0, 0, 0), 8.5, 0.0)])
        cfg = SolverConfig()
        _, rep = msh_envelope(h, omega, 1, [1.0], cfg)
        (eps, solve), = rep.eps_path
        assert eps == 1.0 and solve.converged
        *inner, (t_end, _, res_end) = solve.t_path
        assert inner and all(t < 1.0 and res <= 0.1 for t, _, res in inner)
        assert t_end == 1.0 and res_end <= cfg.newton_tol
        assert sum(it for _, it, _ in solve.t_path) <= 7


class TestPartialReport:
    def test_hard_obstacle_partial(self):
        # strongly non-subharmonic: sigma off the contact set drops below
        # stencil cancellation noise before the schedule ends; the contract
        # is a partial report carrying the last converged eps
        grid, omega = flat(2, 8)
        h = make_field(grid, [((1, 0, 0, 0), 12.0, 0.0)])
        w, rep = msh_envelope(h, omega, 1, SCHED)
        assert not rep.converged
        converged_eps = [eps for eps, r in rep.eps_path if r.converged]
        assert converged_eps  # at least the head of the schedule
        assert rep.monotone_violation_sup <= 1e-7
        comp = [c for _, c in rep.complementarity_path]
        assert all(b <= a + 1e-9 for a, b in zip(comp, comp[1:]))

    def test_failed_warm_start_reports_its_own_state(self, monkeypatch):
        # sqrt(1.0 * 0.995) is not below 0.99 * 1.0, so no midpoint is
        # inserted and the failed eps itself is reported
        import hessianlab.solver as solver

        real_newton = solver._newton
        attempts = []

        def failing_newton(eq, u0, harr, cfg, t_label, trace):
            state, iters, failure = real_newton(eq, u0, harr, cfg, t_label, trace)
            if eq.q == 1.0:  # the first eps (q = 1/eps) runs continuity
                return state, iters, failure
            attempts.append((state, iters))
            return state, iters, "forced failure"

        monkeypatch.setattr(solver, "_newton", failing_newton)
        grid, omega = flat(2, 8)
        h = make_field(grid, [((1, 0, 0, 0), 2.0, 0.0)])
        cfg = SolverConfig(t_steps=1)
        _, rep = msh_envelope(h, omega, 1, [1.0, 0.995], cfg)
        assert [eps for eps, _ in rep.eps_path] == [1.0, 0.995]
        assert not rep.converged
        (state, iters), = attempts
        failed = rep.eps_path[-1][1]
        assert not failed.converged
        assert failed.failure == "forced failure"
        assert failed.t_path == [(1.0, iters, state.res_sup)]
        assert failed.cone_margin_min == state.margin
        assert failed.sup_u == float(np.max(state.u))
        assert failed.inf_u == float(np.min(state.u))
        assert failed.sup_u != rep.eps_path[0][1].sup_u

    def test_failed_first_eps_returns_its_iterate(self, monkeypatch):
        # continuity at eps = 1 never converges: the report holds that one
        # failed eps and no complementarity, and its iterate comes back
        import hessianlab.solver as solver

        qs = []

        def failing_newton(eq, u0, harr, cfg, t_label, trace):
            qs.append(eq.q)
            return eq.evaluate(u0, harr), 0, "forced failure"

        monkeypatch.setattr(solver, "_newton", failing_newton)
        grid, omega = flat(2, 8)
        h = make_field(grid, [((1, 0, 0, 0), 2.0, 0.0)])
        w, rep = msh_envelope(h, omega, 1, [1.0, 0.3], SolverConfig(t_steps=1))
        assert set(qs) == {1.0}  # eps = 0.3 is never tried
        (eps, failed), = rep.eps_path
        assert eps == 1.0 and not rep.converged
        assert failed.failure.endswith("forced failure")
        assert failed.t_path == []
        assert rep.complementarity_path == []
        assert rep.complementarity_sup == np.inf
        assert rep.monotone_violation_sup == 0.0 and rep.obstacle_excess_sup == 0.0
        # continuity accepted no step, so the iterate is its start u = 0
        assert w.grid == grid
        np.testing.assert_array_equal(w.data, 0.0)
        # contact tolerance max(100 newton_tol, eps_last^2) = 0.09 around w = 0
        assert rep.contact_fraction == float(np.mean(h.data <= 0.09))

    def test_failed_later_eps_returns_the_last_converged(self, monkeypatch):
        # every eps below 0.3 fails, midpoints included: w is that of eps = 0.3,
        # as from a schedule that stops there
        import hessianlab.solver as solver

        grid, omega = flat(2, 8)
        h = make_field(grid, [((1, 0, 0, 0), 2.0, 0.0)])
        cfg = SolverConfig(t_steps=1)
        head, head_rep = msh_envelope(h, omega, 1, [1.0, 0.3], cfg)
        real_newton = solver._newton

        def failing_newton(eq, u0, harr, cfg, t_label, trace):
            state, iters, failure = real_newton(eq, u0, harr, cfg, t_label, trace)
            if eq.q > 1.0 / 0.3:  # q = 1/eps; the failed state is off u0
                return state, iters, "forced failure"
            return state, iters, failure

        monkeypatch.setattr(solver, "_newton", failing_newton)
        w, rep = msh_envelope(h, omega, 1, [1.0, 0.3, 0.1], cfg)
        assert not rep.converged and rep.eps_path[-1][1].failure == "forced failure"
        assert [eps for eps, r in rep.eps_path if r.converged] == [1.0, 0.3]
        np.testing.assert_array_equal(w.data, head.data)
        assert rep.complementarity_path == head_rep.complementarity_path


class TestValidation:
    def test_schedule_must_start_at_one(self):
        grid, omega = flat(2, 8)
        with pytest.raises(InputError):
            msh_envelope(ScalarField.zeros(grid), omega, 1, [0.5, 0.1])

    def test_schedule_must_decrease(self):
        grid, omega = flat(2, 8)
        with pytest.raises(InputError):
            msh_envelope(ScalarField.zeros(grid), omega, 1, [1.0, 0.3, 0.3])

    @pytest.mark.parametrize("sched", [[1.0, float("nan")], [float("nan")],
                                       [1.0, 0.3, float("nan")]],
                             ids=["nan-after-one", "nan", "nan-last"])
    def test_schedule_must_be_finite(self, monkeypatch, sched):
        # abs(nan - 1) > 1e-12 is False, so only the one schedule rule
        # (check_schedule) stops a NaN, and it runs before sigma_m(h)
        import hessianlab.envelope as envelope
        import hessianlab.solver as solver

        def newton(*args):
            raise AssertionError("a Newton step ran before the schedule check")

        def sigma(*args):
            raise AssertionError("the obstacle was evaluated before the schedule check")

        monkeypatch.setattr(solver, "_newton", newton)
        monkeypatch.setattr(envelope, "sigma_m", sigma)
        grid, omega = flat(2, 8)
        h = make_field(grid, [((1, 0, 0, 0), 0.5, 0.0)])
        with pytest.raises(InputError, match="eps schedule must .*finite"):
            msh_envelope(h, omega, 1, sched)

    def test_grid_mismatch(self):
        grid, _ = flat(2, 8)
        _, omega = flat(2, 16)
        with pytest.raises(InputError, match="different grids"):
            msh_envelope(ScalarField.zeros(grid), omega, 1, [1.0, 0.3])

    def test_rejects_nan_in_obstacle(self):
        # a NaN residual passes `res_sup > newton_tol`: converged after 0 steps
        grid, omega = flat(2, 8)
        data = np.zeros(grid.shape)
        data[3, 2, 1, 0] = np.nan
        with pytest.raises(InputError):
            msh_envelope(ScalarField(grid, data), omega, 1, [1.0, 0.3])
